"""The system under test, its set-up and the quality checks.

Set-up builds what every workload serves from: a reduced synthetic IMDb
snapshot, a labelled 0-2-join workload split into training, validation and
held-out test queries, and an MSCN fitted to it with the default serial
configuration (``MSCNConfig`` defaults but fewer epochs).  Set-up seeds are
fixed, so every run serves the same model and the quality metrics repeat
exactly; ``--seed`` draws the traffic each workload sends.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import math
import statistics

import numpy as np

from repro import MSCNConfig, MSCNEstimator, SyntheticIMDbConfig, generate_imdb
from repro.db.query import Predicate, Query
from repro.estimators.true import TrueCardinalityEstimator
from repro.evaluation.metrics import q_errors
from repro.optimizer.quality import plan_quality_for_query, summarize_plan_quality
from repro.workload.generator import QueryGenerator, WorkloadConfig

#: A quarter of the default IMDb snapshot: every dimension scaled alike.
SNAPSHOT = SyntheticIMDbConfig(
    num_titles=5000, num_companies=500, num_persons=12500, num_keywords=1250, seed=3
)
WORKLOAD_SEED = 5
TRAINING_QUERIES = 900
VALIDATION_QUERIES = 100
TEST_QUERIES = 200
LABELLED_QUERIES = TRAINING_QUERIES + VALIDATION_QUERIES + TEST_QUERIES
EPOCHS = 10
#: 3-4-join queries whose plans are costed; the optimizer workload's templates.
PLAN_QUERIES = 40
PLAN_SEED = 7
SETUP_REPEATS = 3
#: Float32 answers computed in differently shaped batches agree to this.
RTOL = 1e-4


@dataclasses.dataclass
class System:
    database: object
    test: list
    estimator: MSCNEstimator


def label(database, num_queries: int, seed: int) -> list:
    """``QueryGenerator.generate`` of a fresh 0-2-join workload."""
    config = WorkloadConfig(num_queries=num_queries, max_joins=2, seed=seed)
    return QueryGenerator(database, config).generate()


def train(clock, database, labelled: list, num_validation: int, epochs: int, tracer=None,
          request=None, parent=None):
    """Featurize ``labelled`` with ``featurize_ragged`` and ``fit`` a new MSCN.

    The last ``num_validation`` queries validate.  Returns the estimator,
    its training result and the raw and scaled seconds of both steps.
    """
    training, validation = labelled[:-num_validation], labelled[-num_validation:]
    estimator = MSCNEstimator(database, MSCNConfig(epochs=epochs))
    featurizer = estimator.featurizer

    def featurize():
        return [
            featurizer.featurize_ragged(
                [entry.query for entry in part],
                cardinalities=np.array([entry.cardinality for entry in part], dtype=np.float64),
            )
            for part in (training, validation)
        ]

    def fit(datasets):
        return estimator.fit(
            training, validation, train_dataset=datasets[0], validation_dataset=datasets[1]
        )

    if tracer is not None:
        featurize = _traced(tracer, "trainer.featurize_ragged", request, parent, featurize)
        fit = _traced(tracer, "trainer.fit", request, parent, fit)
    datasets, *featurize_times = clock.timed(featurize)
    result, *fit_times = clock.timed(fit, datasets)
    return estimator, result, tuple(featurize_times), tuple(fit_times)


def _traced(tracer, name, request, parent, fn):
    def call(*args):
        return tracer.call(name, request, parent, fn, *args)

    return call


def build(clock) -> tuple[System, dict[str, tuple[float, float]]]:
    """One full set-up: generate the snapshot, label, featurize and fit.

    Returns the system and the raw and scaled seconds of each step.
    """
    database, *generate = clock.timed(generate_imdb, SNAPSHOT)
    labelled, *labelling = clock.timed(label, database, LABELLED_QUERIES, WORKLOAD_SEED)
    estimator, _, featurize, fit = train(
        clock, database, labelled[:-TEST_QUERIES], VALIDATION_QUERIES, EPOCHS
    )
    steps = {"generate": generate, "label": labelling, "featurize": featurize, "fit": fit}
    return System(database, labelled[-TEST_QUERIES:], estimator), steps


@dataclasses.dataclass
class Setup:
    """The last set-up's system and the medians over all set-ups.

    ``setup_s`` and ``refit_s`` (``featurize_ragged`` plus ``fit``) are
    ``(raw, scaled)`` seconds; ``steps`` maps each step to its scaled
    seconds.
    """

    system: System
    setup_s: tuple[float, float]
    refit_s: tuple[float, float]
    steps: dict[str, float]
    identical: bool


def set_up(clock) -> Setup:
    """Set up ``SETUP_REPEATS`` times; report medians of the scaled steps.

    Every set-up must give a model whose test-set answers are bit-identical
    to the first one's.
    """
    runs = []
    reference = None
    identical = True
    for _ in range(SETUP_REPEATS):
        system = None
        release_memory()
        system, steps = build(clock)
        answers = system.estimator.estimate_many([entry.query for entry in system.test])
        if reference is None:
            reference = answers
        identical = identical and np.array_equal(reference, answers)
        runs.append(steps)

    def median_of(names, index):
        return statistics.median(sum(steps[name][index] for name in names) for steps in runs)

    everything = ("generate", "label", "featurize", "fit")
    refit = ("featurize", "fit")
    return Setup(
        system=system,
        setup_s=(median_of(everything, 0), median_of(everything, 1)),
        refit_s=(median_of(refit, 0), median_of(refit, 1)),
        steps={name: median_of((name,), 1) for name in everything},
        identical=identical,
    )


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS.

    Without the trim, glibc keeps a set-up's freed pages in varying
    fragments, and the next set-up's peak resident size wanders by up to
    15%.  Elsewhere than glibc the trim is skipped.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def qerror_percentiles(estimates, truths) -> tuple[float, float]:
    errors = q_errors(estimates, truths)
    return float(np.percentile(errors, 50)), float(np.percentile(errors, 95))


def test_qerrors(system: System, estimator=None) -> tuple[float, float]:
    estimator = estimator if estimator is not None else system.estimator
    return qerror_percentiles(
        estimator.estimate_many([entry.query for entry in system.test]),
        [entry.cardinality for entry in system.test],
    )


@dataclasses.dataclass
class PlanSet:
    """Connected 3-4-join queries with the true size of every sub-plan."""

    queries: list
    truths: list


def plan_set(database) -> PlanSet:
    config = WorkloadConfig(num_queries=PLAN_QUERIES, min_joins=3, max_joins=4, seed=PLAN_SEED)
    queries = [entry.query for entry in QueryGenerator(database, config).generate()]
    oracle = TrueCardinalityEstimator(database)
    return PlanSet(queries, [oracle.estimate_subplans(query) for query in queries])


def plan_cost_ratio(plans: PlanSet, estimator) -> float:
    """``PlanQualitySummary.total_cost_ratio`` of the estimator's plans."""
    results = [
        plan_quality_for_query(query, estimator.estimate_subplans(query), truth)
        for query, truth in zip(plans.queries, plans.truths)
    ]
    return summarize_plan_quality(results).total_cost_ratio


def subplan_qerrors(plans: PlanSet, estimator) -> tuple[float, float]:
    estimates, truths = [], []
    for query, truth in zip(plans.queries, plans.truths):
        estimated = estimator.estimate_subplans(query)
        for tables, size in truth.items():
            estimates.append(estimated[tables])
            truths.append(size)
    return qerror_percentiles(estimates, truths)


class LiteralRedraw:
    """Variants of template queries with every predicate literal redrawn.

    A literal is drawn uniformly from its column's distinct values, so it
    is always one the data holds, and a template with ``literal_space``
    variants repeats one only as often as uniform draws collide.
    """

    def __init__(self, database, rng: np.random.Generator):
        self._database = database
        self._rng = rng
        self._values: dict[tuple[str, str], np.ndarray] = {}

    def values(self, table: str, column: str) -> np.ndarray:
        key = (table, column)
        if key not in self._values:
            self._values[key] = np.unique(self._database.table(table).column(column))
        return self._values[key]

    def literal_space(self, query: Query) -> float:
        """How many distinct variants of ``query`` exist."""
        return math.prod(float(self.values(p.table, p.column).size) for p in query.predicates)

    def variant(self, query: Query) -> Query:
        predicates = tuple(
            Predicate(p.table, p.column, p.operator, int(self._draw(p.table, p.column)))
            for p in query.predicates
        )
        return Query(query.tables, query.joins, predicates)

    def _draw(self, table: str, column: str):
        values = self.values(table, column)
        return values[self._rng.integers(values.size)]


def copy_query(query: Query) -> Query:
    """An equal query object with nothing memoized, as a caller builds it."""
    return Query(query.tables, query.joins, query.predicates)


def agree(left, right) -> bool:
    return bool(np.allclose(left, right, rtol=RTOL, atol=0.0))
