"""The four workloads.  Why each exists is in ``NOTES.md``.

Every workload is a closed loop: a caller sends its next request only when
the previous one has been answered.  Each one times its calls in
probe-bracketed slices (``hostclock``), checks the answers it gets, and,
when traced, replays the same calls in spans around the program's public
functions (``tracing``).
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import threading
import time

import numpy as np

from repro.optimizer.enumeration import enumerate_optimal_plan
from repro.serving import EstimationService

import system
from hostclock import SliceLog
from tracing import Tracer

POINT_POOL = 64
POINT_CALLS_PER_DRAW = 16
BULK_BATCH = 1024
#: Fresh queries sent before timing: enough to fill the 65,536-entry
#: compiled-plan and sample-bitmap caches, so timing sees their steady state.
BULK_PREP_BATCHES = 64
#: A template has at least this many literal variants, so redrawn queries
#: practically never repeat inside a cache's reach.
BULK_MIN_VARIANTS = 1e5
BULK_CHECKS_PER_BATCH = 2
OPTIMIZER_CLIENTS = 2
OPTIMIZER_POOL = 3072
OPTIMIZER_ZIPF = 0.7
OPTIMIZER_WARMUP_SECONDS = 1.0
OPTIMIZER_CHECK_EVERY = 8
#: Clients meet at a barrier once per slice; longer slices keep the idle
#: tail of each slice (one client finishing its last request) small.
OPTIMIZER_SLICE_SECONDS = 0.2
RETRAIN_QUERIES = 300
RETRAIN_VALIDATION = 30
RETRAIN_EPOCHS = 8
#: The retrained model's q-error swings twentyfold with its training set
#: (a 300-query, 8-step fit), so every run retrains on the same workload and
#: ``--seed`` leaves this one workload alone.
RETRAIN_SEED = 11


@dataclasses.dataclass
class Context:
    setup: system.Setup
    plans: system.PlanSet
    clock: object
    rng: np.random.Generator
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = dataclasses.field(default_factory=Tracer)

    @property
    def system(self) -> system.System:
        return self.setup.system

    @property
    def estimator(self):
        return self.setup.system.estimator

    @property
    def timed_seconds(self) -> float:
        """A traced run spends half its time untraced, to price the tracing."""
        return self.seconds / 2 if self.trace else self.seconds


@dataclasses.dataclass
class Outcome:
    """What one workload measured.  Layer values are 0 for unused layers."""

    log: SliceLog
    queries: int
    busy_scaled: float
    busy_raw: float
    attempted: int
    failed: int
    qerror: tuple[float, float]
    plan_cost_ratio: float
    retrain_s: tuple[float, float]
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)


class Checks:
    """Counts operations attempted and failed (an error or a wrong answer)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def record(self, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _scaled_spans(ctx: Context, log: SliceLog) -> dict[str, float]:
    """Mean host-scaled self time per span name, in seconds."""
    return {name: _mean(values) for name, values in ctx.tracer.self_seconds(log.factors).items()}


def _overhead_pct(untraced: SliceLog, traced_mean: float) -> float:
    return 100.0 * (traced_mean / _mean(untraced.scaled) - 1.0)


# ---------------------------------------------------------------------------
# point and bulk: the direct estimator, one query or one batch per call
# ---------------------------------------------------------------------------
class _Collector:
    """Spreads the garbage collector's pauses evenly over the timed calls.

    In ``bulk`` a full collection of the churning plan-cache heap lands in
    about 40% of the batches, and which ones is chance.  With some 50
    batches a run, that chance moved p50 and p90 by over 10% from run to
    run.  A timed call here leaves out the pauses that fell inside it, and
    every call then carries an equal share of all pauses of the loop, so
    the collector's cost still counts in full.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def _hook(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def timed(self, durations: list, fn, *args):
        """``fn(*args)``; appends its duration without collector pauses."""
        paused = self.seconds
        start = time.perf_counter()
        result = fn(*args)
        durations.append(time.perf_counter() - start - (self.seconds - paused))
        return result

    def run(self, clock, seconds: float, slice_fn) -> SliceLog:
        gc.callbacks.append(self._hook)
        start = self.seconds
        try:
            log = clock.run(seconds, slice_fn)
        finally:
            gc.callbacks.remove(self._hook)
        log.spread(self.seconds - start)
        return log


def _replay(ctx: Context, queries: list, request: int):
    """The public calls ``estimate_many`` is made of, each in a span.

    ``serving_dataset`` gathers again inside; the second, warm ``gather``
    span prices that so the layout's self time can be separated.
    """
    tracer, estimator = ctx.tracer, ctx.estimator
    plan = estimator.featurizer.plan()
    root = tracer.open("replay", request)
    parent = root[0]
    tracer.call("featurize.signature", request, parent, _signatures, queries)
    tracer.call("featurize.gather", request, parent, plan.gather, queries)
    dataset = tracer.call(
        "estimator.serving_dataset", request, parent, estimator.serving_dataset, queries
    )
    tracer.call("featurize.gather_warm", request, parent, plan.gather, queries)
    answers = tracer.call(
        "engine.predict", request, parent, estimator.estimate_featurized, dataset
    )
    tracer.close(root)
    return answers


def _signatures(queries):
    return [query.signature() for query in queries]


def _estimator_layers(ctx: Context, traced: SliceLog, untraced: SliceLog) -> dict[str, float]:
    spans = _scaled_spans(ctx, traced)
    layout = spans["estimator.serving_dataset"] - spans["featurize.gather_warm"]
    parts = (
        spans["featurize.signature"] + spans["featurize.gather"] + layout
        + spans["engine.predict"]
    )
    whole = spans["estimator.estimate"]
    return {
        "featurize.signature_us": 1e6 * spans["featurize.signature"],
        "featurize.gather_us": 1e6 * spans["featurize.gather"],
        "featurize.layout_us": 1e6 * layout,
        "engine.predict_us": 1e6 * spans["engine.predict"],
        "estimator.glue_us": 1e6 * (whole - parts),
        "trace.request_us": 1e6 * whole,
        "trace.overhead_pct": _overhead_pct(untraced, whole),
    }


class _Counters:
    """Deltas of the plan, sample-bitmap and engine-scratch counters."""

    def __init__(self, estimator):
        self._estimator = estimator
        self._start = self._read()

    def _read(self):
        plan = self._estimator.featurizer.plan()
        samples = self._estimator.samples
        return (
            plan.cache_hits, plan.cache_misses, plan.cache_evictions,
            samples.bitmap_cache_hits, samples.bitmap_cache_misses,
        )

    def layers(self) -> dict[str, float]:
        hits, misses, evictions, bitmap_hits, bitmap_misses = (
            end - start for end, start in zip(self._read(), self._start)
        )
        return {
            "featurize.plan_hit_rate": hits / max(hits + misses, 1),
            "featurize.plan_evictions": float(evictions),
            "samples.bitmap_hit_rate": bitmap_hits / max(bitmap_hits + bitmap_misses, 1),
            "arena.scratch_reuse_rate": self._estimator.scratch_reuse_rate,
            "arena.scratch_high_water_bytes": float(self._estimator.scratch_high_water_bytes),
        }


def _stratified_pool(test: list, rng) -> list:
    """``POINT_POOL`` test queries with the test set's share of each join count.

    Fixing the shares keeps the pool's cost alike from seed to seed.
    """
    by_joins: dict[int, list] = {}
    for entry in test:
        by_joins.setdefault(entry.query.num_joins, []).append(entry.query)
    pool = []
    for joins in sorted(by_joins):
        queries = by_joins[joins]
        take = round(POINT_POOL * len(queries) / len(test))
        pool.extend(queries[i] for i in rng.choice(len(queries), take, replace=False))
    return pool


def point(ctx: Context) -> Outcome:
    """One caller asks ``estimate(q)`` over a small warm pool of queries."""
    estimator, rng, checks = ctx.estimator, ctx.rng, Checks()
    pool = _stratified_pool(ctx.system.test, rng)
    first = [estimator.estimate(system.copy_query(query)) for query in pool]

    def draws():
        indexes = rng.integers(len(pool), size=POINT_CALLS_PER_DRAW)
        return [(i, system.copy_query(pool[i])) for i in indexes]

    collector = _Collector()

    def untraced(deadline):
        durations = []
        while time.perf_counter() < deadline:
            for i, query in draws():
                answer = collector.timed(durations, estimator.estimate, query)
                checks.record(answer == first[i])
        return durations

    def traced(deadline):
        durations = []
        while time.perf_counter() < deadline:
            for i, query in draws():
                request = ctx.tracer.new_request()
                span = ctx.tracer.open("estimator.estimate", request)
                answer = estimator.estimate(query)
                ctx.tracer.close(span)
                durations.append(ctx.tracer.spans[-1][5] - ctx.tracer.spans[-1][4])
                replayed = _replay(ctx, [system.copy_query(pool[i])], request)
                checks.record(answer == first[i] and replayed[0] == first[i])
        ctx.tracer.end_slice()
        return durations

    ctx.clock.run(0.5, untraced)  # warm every cache the pool touches
    gc.collect()
    counters = _Counters(estimator)
    log = collector.run(ctx.clock, ctx.timed_seconds, untraced)
    layers = counters.layers()
    if ctx.trace:
        gc.collect()
        layers.update(_estimator_layers(ctx, ctx.clock.run(ctx.timed_seconds, traced), log))
    checks.record(system.agree(estimator.estimate_many(pool), first))
    return Outcome(
        log=log,
        queries=len(log),
        busy_scaled=sum(log.scaled),
        busy_raw=sum(log.raw),
        attempted=checks.attempted,
        failed=checks.failed,
        qerror=system.test_qerrors(ctx.system),
        plan_cost_ratio=system.plan_cost_ratio(ctx.plans, estimator),
        retrain_s=ctx.setup.refit_s,
        layers=layers,
        notes=[f"pool={len(pool)} distinct held-out 0-2-join queries"],
    )


def bulk(ctx: Context) -> Outcome:
    """One caller sends ``estimate_many`` batches of never-seen queries."""
    estimator, rng, checks = ctx.estimator, ctx.rng, Checks()
    redraw = system.LiteralRedraw(ctx.system.database, rng)
    templates = [
        entry.query for entry in ctx.system.test
        if redraw.literal_space(entry.query) >= BULK_MIN_VARIANTS
    ]

    def batch():
        picks = rng.integers(len(templates), size=BULK_BATCH)
        return [redraw.variant(templates[i]) for i in picks]

    def check(queries, answers):
        for position in rng.integers(BULK_BATCH, size=BULK_CHECKS_PER_BATCH):
            single = estimator.estimate(queries[position])
            checks.record(system.agree(single, answers[position]))

    collector = _Collector()

    def untraced(deadline):
        durations = []
        while time.perf_counter() < deadline:
            queries = batch()
            answers = collector.timed(durations, estimator.estimate_many, queries)
            checks.record(answers.shape == (BULK_BATCH,))
            check(queries, answers)
        return durations

    def traced(deadline):
        durations = []
        while time.perf_counter() < deadline:
            request = ctx.tracer.new_request()
            queries = batch()
            span = ctx.tracer.open("estimator.estimate", request)
            answers = estimator.estimate_many(queries)
            ctx.tracer.close(span)
            durations.append(ctx.tracer.spans[-1][5] - ctx.tracer.spans[-1][4])
            check(queries, answers)
            # The replay needs cold queries too: the next fresh batch.
            queries = batch()
            replayed = _replay(ctx, queries, request)
            check(queries, replayed)
        ctx.tracer.end_slice()
        return durations

    plan = estimator.featurizer.plan()
    for _ in range(BULK_PREP_BATCHES):
        plan.gather(batch())
    gc.collect()
    counters = _Counters(estimator)
    log = collector.run(ctx.clock, ctx.timed_seconds, untraced)
    layers = counters.layers()
    if ctx.trace:
        gc.collect()
        layers.update(_estimator_layers(ctx, ctx.clock.run(ctx.timed_seconds, traced), log))
    return Outcome(
        log=log,
        queries=BULK_BATCH * len(log),
        busy_scaled=sum(log.scaled),
        busy_raw=sum(log.raw),
        attempted=checks.attempted,
        failed=checks.failed,
        qerror=system.test_qerrors(ctx.system),
        plan_cost_ratio=system.plan_cost_ratio(ctx.plans, estimator),
        retrain_s=ctx.setup.refit_s,
        layers=layers,
        notes=[f"templates={len(templates)} of {len(ctx.system.test)} held-out queries"],
    )


# ---------------------------------------------------------------------------
# optimizer: concurrent clients plan through the estimation service
# ---------------------------------------------------------------------------
def optimizer(ctx: Context) -> Outcome:
    """Client threads ask the service for sub-plan sizes, then pick a plan."""
    estimator, checks = ctx.estimator, Checks()
    redraw = system.LiteralRedraw(ctx.system.database, ctx.rng)
    templates = ctx.plans.queries
    pool = [redraw.variant(templates[i % len(templates)]) for i in range(OPTIMIZER_POOL)]
    distinct_subplans = len({
        sub.signature() for query in pool for sub in system.copy_query(query).connected_subqueries()
    })
    weights = 1.0 / np.arange(1, OPTIMIZER_POOL + 1) ** OPTIMIZER_ZIPF
    weights /= weights.sum()
    client_rngs = [np.random.default_rng([ctx.seed, client]) for client in range(OPTIMIZER_CLIENTS)]
    samples: list[tuple[int, dict]] = []
    subplan_counts: list[int] = []
    service = EstimationService(estimator)

    def request(query, traced_request):
        if traced_request is None:
            estimates = service.estimate_subplans(query)
            enumerate_optimal_plan(query, estimates)
            return estimates
        tracer = ctx.tracer
        root = tracer.open("optimizer.request", traced_request)
        subqueries = tracer.call(
            "optimizer.subqueries", traced_request, root[0], query.connected_subqueries
        )
        estimates = tracer.call(
            "service.request", traced_request, root[0], service.estimate_subplans, query
        )
        tracer.call(
            "optimizer.enumerate", traced_request, root[0], enumerate_optimal_plan,
            query, estimates,
        )
        tracer.close(root)
        subplan_counts.append(len(subqueries))
        return estimates

    def client(index, deadline, durations, traced):
        rng = client_rngs[index]
        while time.perf_counter() < deadline:
            for rank in rng.choice(OPTIMIZER_POOL, size=16, p=weights):
                query = system.copy_query(pool[rank])
                traced_request = ctx.tracer.new_request() if traced else None
                start = time.perf_counter()
                try:
                    estimates = request(query, traced_request)
                except Exception:  # a failed request counts, the loop goes on
                    checks.record(False)
                    continue
                durations.append(time.perf_counter() - start)
                checks.record(len(estimates) == len(query.connected_subqueries()))
                if checks.attempted % OPTIMIZER_CHECK_EVERY == 0:
                    samples.append((rank, estimates))

    clients = _ClientThreads(OPTIMIZER_CLIENTS, client)

    def slice_fn(traced):
        def run(deadline):
            durations = clients.slice(deadline, traced)
            if traced:
                ctx.tracer.end_slice()
            return durations

        return run

    try:
        ctx.clock.run(OPTIMIZER_WARMUP_SECONDS, slice_fn(False), OPTIMIZER_SLICE_SECONDS)
        samples.clear()
        gc.collect()
        before = service.stats()
        log = ctx.clock.run(ctx.timed_seconds, slice_fn(False), OPTIMIZER_SLICE_SECONDS)
        after = service.stats()
        layers = _service_layers(before, after)
        if ctx.trace:
            gc.collect()
            before = service.stats()
            traced = ctx.clock.run(ctx.timed_seconds, slice_fn(True), OPTIMIZER_SLICE_SECONDS)
            layers.update(_optimizer_layers(ctx, traced, log, before, service.stats()))
            layers["optimizer.subplans_per_query"] = _mean(subplan_counts)
    finally:
        clients.close()
        service.close()
    direct: dict[int, dict] = {}
    for rank, served in samples:
        if rank not in direct:
            direct[rank] = estimator.estimate_subplans(system.copy_query(pool[rank]))
        keys = sorted(direct[rank], key=sorted)
        checks.record(
            served.keys() == direct[rank].keys()
            and system.agree([served[k] for k in keys], [direct[rank][k] for k in keys])
        )
    return Outcome(
        log=log,
        queries=len(log),
        busy_scaled=log.scaled_wall,
        busy_raw=log.raw_wall,
        attempted=checks.attempted,
        failed=checks.failed,
        qerror=system.subplan_qerrors(ctx.plans, estimator),
        plan_cost_ratio=system.plan_cost_ratio(ctx.plans, estimator),
        retrain_s=ctx.setup.refit_s,
        layers=layers,
        notes=[
            f"pool={OPTIMIZER_POOL} queries, {distinct_subplans} distinct sub-plans, "
            f"result cache {service.config.cache_capacity} entries, {len(samples)} answers checked"
        ],
    )


class _ClientThreads:
    """Client threads that live for the whole run and work in lockstep slices.

    ``slice(deadline, traced)`` lets every client run ``work`` until the
    deadline and returns their request durations once all have finished.
    The threads start once, so no thread start-up lands in a slice's wall
    time, which the optimizer's throughput is measured over.
    """

    def __init__(self, count: int, work):
        self._work = work
        self._start = threading.Barrier(count + 1)
        self._done = threading.Barrier(count + 1)
        self._deadline = 0.0
        self._traced = False
        self._closed = False
        self._durations: list[list[float]] = [[] for _ in range(count)]
        self._threads = [
            threading.Thread(target=self._loop, args=(index,)) for index in range(count)
        ]
        for thread in self._threads:
            thread.start()

    def _loop(self, index: int) -> None:
        while True:
            self._start.wait()
            if self._closed:
                return
            try:
                self._work(index, self._deadline, self._durations[index], self._traced)
            finally:
                self._done.wait()

    def slice(self, deadline: float, traced: bool) -> list[float]:
        self._deadline, self._traced = deadline, traced
        self._durations = [[] for _ in self._threads]
        self._start.wait()
        self._done.wait()
        return [duration for durations in self._durations for duration in durations]

    def close(self) -> None:
        self._closed = True
        self._start.wait()
        for thread in self._threads:
            thread.join()


def _service_layers(before, after) -> dict[str, float]:
    queries = after.num_queries - before.num_queries
    histogram = {
        size: count - before.batch_size_histogram.get(size, 0)
        for size, count in after.batch_size_histogram.items()
    }
    batches = sum(histogram.values())
    return {
        "service.cache_hit_rate": (after.cache_hits - before.cache_hits) / max(queries, 1),
        "service.batch_size_mean": (
            sum(size * count for size, count in histogram.items()) / max(batches, 1)
        ),
    }


def _optimizer_layers(ctx, traced: SliceLog, untraced: SliceLog, before, after):
    spans = _scaled_spans(ctx, traced)
    requests = max(len(traced), 1)
    factor = _mean(traced.factors)
    featurize = factor * (after.featurization_seconds - before.featurization_seconds) / requests
    infer = factor * (after.inference_seconds - before.inference_seconds) / requests
    service_request = spans["service.request"]
    whole = (
        spans["optimizer.request"] + spans["optimizer.subqueries"] + service_request
        + spans["optimizer.enumerate"]
    )
    return {
        "service.request_ms": 1e3 * service_request,
        "service.featurize_ms": 1e3 * featurize,
        "service.infer_ms": 1e3 * infer,
        "service.overhead_ms": 1e3 * (service_request - featurize - infer),
        "optimizer.subqueries_us": 1e6 * spans["optimizer.subqueries"],
        "optimizer.enumerate_us": 1e6 * spans["optimizer.enumerate"],
        "trace.request_us": 1e6 * whole,
        "trace.overhead_pct": _overhead_pct(untraced, whole),
    }


# ---------------------------------------------------------------------------
# retrain: label, featurize and fit a fresh workload
# ---------------------------------------------------------------------------
def retrain(ctx: Context) -> Outcome:
    """Label a seeded workload, ``featurize_ragged`` it and ``fit`` it, again and again.

    Every round does identical work, so every round must end with the same
    validation q-error as the first.
    """
    clock, checks, database = ctx.clock, Checks(), ctx.system.database
    seed = RETRAIN_SEED
    history: list = []
    last = {}

    def one_round(traced: bool, log: SliceLog, parts: dict):
        tracer = ctx.tracer if traced else None
        request = tracer.new_request() if traced else None
        root = tracer.open("retrain.round", request) if traced else None
        parent = root[0] if traced else None
        generate = system.label
        if traced:
            def generate(*args):
                return tracer.call("workload.generate", request, parent, system.label, *args)
        labelled, *label_t = clock.timed(generate, database, RETRAIN_QUERIES, seed)
        estimator, result, featurize_t, fit_t = system.train(
            clock, database, labelled, RETRAIN_VALIDATION, RETRAIN_EPOCHS, tracer, request, parent
        )
        if traced:
            tracer.close(root)
        raw = label_t[0] + featurize_t[0] + fit_t[0]
        scaled = label_t[1] + featurize_t[1] + fit_t[1]
        log.add([raw], raw, scaled / raw)
        for name, times in (("label", label_t), ("featurize", featurize_t), ("fit", fit_t)):
            parts.setdefault(name, []).append(times[1])
        if not history:
            history.extend(result.validation_q_error_history)
        checks.record(result.validation_q_error_history == history)
        last["estimator"] = estimator

    def rounds(traced: bool):
        log, parts = SliceLog(), {}
        gc.collect()
        end = time.perf_counter() + ctx.timed_seconds
        while time.perf_counter() < end:
            one_round(traced, log, parts)
        return log, parts

    log, _ = rounds(False)
    layers = {}
    if ctx.trace:
        traced, parts = rounds(True)
        layers = {
            "workload.label_ms": 1e3 * _mean(parts["label"]) / RETRAIN_QUERIES,
            "trainer.featurize_ragged_us": 1e6 * _mean(parts["featurize"]) / RETRAIN_QUERIES,
            "trainer.epoch_s": _mean(parts["fit"]) / RETRAIN_EPOCHS,
            "trace.request_us": 1e6 * _mean(traced.scaled),
            "trace.overhead_pct": _overhead_pct(log, _mean(traced.scaled)),
        }
    estimator = last["estimator"]
    median = statistics.median
    return Outcome(
        log=log,
        queries=RETRAIN_QUERIES * len(log),
        busy_scaled=sum(log.scaled),
        busy_raw=sum(log.raw),
        attempted=checks.attempted,
        failed=checks.failed,
        qerror=system.test_qerrors(ctx.system, estimator),
        plan_cost_ratio=system.plan_cost_ratio(ctx.plans, estimator),
        retrain_s=(median(log.raw), median(log.scaled)),
        layers=layers,
        notes=[f"{RETRAIN_QUERIES} queries, {RETRAIN_EPOCHS} epochs per round, seed {seed}"],
    )


WORKLOADS = {"point": point, "bulk": bulk, "optimizer": optimizer, "retrain": retrain}
