"""CI smoke test of the hardware-floor featurization tier.

Exercises the :class:`~repro.core.featurization.CompiledFeaturizerPlan` end
to end at a miniature scale:

* **Bit-identity gate** — compiled-plan featurization equals the legacy
  interpreted ``featurize_ragged`` byte for byte on **every registered
  dataset**, at float32 and float64.
* **Compiled single-core floor** — on a repeated serving-style workload the
  warm compiled plan must sustain at least ``MIN_COMPILED_SPEEDUP`` the
  legacy featurization throughput on one core (no parallelism involved, so
  the floor holds on any host).

BLAS threading is pinned to one thread *before numpy loads*, so the floor
measures the single-core gather and nothing else.

Writes ``benchmarks/results/BENCH_smoke_compiled_featurization.json``
(throughputs, speedup, per-dataset identity counts) next to a ``.txt``
report.

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_compiled_featurization.py``) from CI next to the other
smokes.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is imported anywhere: featurization is
# gather/scatter bound, and a multi-threaded BLAS would contaminate the floor.
from repro.utils.bench import pin_blas_threads

pin_blas_threads()

import time
from pathlib import Path

import numpy as np

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.datasets.registry import registered_datasets
from repro.db.sampling import MaterializedSamples
from repro.utils.bench import write_bench_json
from repro.workload.generator import QueryGenerator

RESULTS_DIRECTORY = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIRECTORY / "smoke_compiled_featurization.txt"

#: Warm compiled-plan vs legacy throughput floor; single-core, so enforced
#: unconditionally on every host.
MIN_COMPILED_SPEEDUP = 2.0
REPEATS = 5

IDENTITY_DTYPES = ("float32", "float64")


def best_throughput(run, num_queries: int, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return num_queries / best


def featurizer_parts(database, sample_size=50):
    encoding = SchemaEncoding.from_schema(database.schema)
    value_normalizer = ValueNormalizer.from_database(database)
    samples = MaterializedSamples(database, sample_size=sample_size, seed=0)
    return encoding, value_normalizer, samples


def make_featurizer(parts, dtype="float64", compiled=True):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(
        encoding,
        value_normalizer,
        samples=samples,
        variant=FeaturizationVariant.BITMAPS,
        dtype=dtype,
        compiled=compiled,
    )


def assert_ragged_identical(got, reference, context):
    for name in ("tables", "joins", "predicates"):
        a, b = getattr(got, name), getattr(reference, name)
        assert a.features.dtype == b.features.dtype, (context, name)
        assert a.features.tobytes() == b.features.tobytes(), (context, name)
        assert a.offsets.tobytes() == b.offsets.tobytes(), (context, name)


def identity_gate() -> list[str]:
    """Compiled == legacy on every registered dataset and dtype."""
    lines = []
    for spec in registered_datasets():
        database = spec.generate(scale=0.05, seed=7)
        workload_config = spec.training_workload_config(60, 11)
        queries = [
            labelled.query for labelled in QueryGenerator(database, workload_config).generate()
        ]
        parts = featurizer_parts(database)
        for dtype in IDENTITY_DTYPES:
            assert_ragged_identical(
                make_featurizer(parts, dtype).featurize_ragged(queries),
                make_featurizer(parts, dtype, compiled=False).featurize_ragged(queries),
                (spec.name, dtype),
            )
        lines.append(
            f"  {spec.name:<8}: bit-identical ({len(queries)} queries, "
            f"dtypes {'/'.join(IDENTITY_DTYPES)})"
        )
    return lines


def main() -> int:
    cores = os.cpu_count() or 1

    # --- bit-identity gate over every registered dataset -------------------
    identity_lines = identity_gate()

    # --- throughput corpus: a serving-sized workload, replicated ----------
    imdb = next(spec for spec in registered_datasets() if spec.name == "imdb")
    database = imdb.generate(scale=0.1, seed=7)
    workload_config = imdb.training_workload_config(250, 11)
    unique = [
        labelled.query
        for labelled in QueryGenerator(database, workload_config).generate()
    ]
    corpus = (unique * 8)[: 8 * len(unique)]
    parts = featurizer_parts(database)

    # Legacy single-core baseline: the interpreted per-query gather.
    legacy = make_featurizer(parts, compiled=False)
    legacy_qps = best_throughput(
        lambda: legacy.featurize_ragged(corpus), len(corpus)
    )

    # Warm compiled plan: steady-state serving micro-batches over a stable
    # query population reduce to signature lookups + fancy-indexed scatters.
    compiled = make_featurizer(parts)
    compiled.featurize_ragged(corpus)  # warm the plan cache
    compiled_qps = best_throughput(
        lambda: compiled.featurize_ragged(corpus), len(corpus)
    )
    compiled_speedup = compiled_qps / legacy_qps
    assert compiled_speedup >= MIN_COMPILED_SPEEDUP, (
        f"warm compiled featurization is only {compiled_speedup:.2f}x the legacy "
        f"path (required >= {MIN_COMPILED_SPEEDUP:.1f}x on one core)"
    )

    report_lines = [
        f"compiled featurization smoke ({cores} cores, BLAS pinned to 1 thread):",
        "bit-identity gate (compiled vs legacy featurize_ragged):",
        *identity_lines,
        f"throughput ({len(corpus)} queries, bitmaps variant, float64):",
        f"  legacy interpreted gather   : {legacy_qps:>10.0f} queries/s",
        f"  compiled plan (warm, 1 core): {compiled_qps:>10.0f} queries/s "
        f"({compiled_speedup:.2f}x, required >= {MIN_COMPILED_SPEEDUP:.1f}x)",
    ]
    report = "\n".join(report_lines) + "\n"
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(report, encoding="utf-8")

    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_compiled_featurization",
        throughput_qps=compiled_qps,
        dtype="float64",
        replicas=1,
        metrics={
            "legacy_qps": legacy_qps,
            "compiled_qps": compiled_qps,
            "compiled_speedup": compiled_speedup,
            "corpus_queries": len(corpus),
            "identity_datasets": len(identity_lines),
            "identity_dtypes": list(IDENTITY_DTYPES),
        },
    )
    print(report, end="")
    print("compiled featurization smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
