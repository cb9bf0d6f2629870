"""Benchmark of the MSCN estimation stack, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Workloads: ``point``, ``bulk``, ``optimizer`` and ``retrain`` (see
``NOTES.md``).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones; both check every answer.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each timing raw and host-scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Environment the run needs fixed before the interpreter starts.  String
#: hashes set dict and set layouts and, with them, the order in which the
#: program builds intermediate arrays; glibc gives each thread its own heap
#: arena.  Under a random hash seed, or with per-thread arenas in the
#: optimizer workload, the peak resident size of one input wandered by up
#: to 20% between runs.
FIXED_ENVIRONMENT = {"PYTHONHASHSEED": "0", "MALLOC_ARENA_MAX": "1"}


if __name__ == "__main__" and any(
    os.environ.get(name) != value for name, value in FIXED_ENVIRONMENT.items()
):
    os.environ.update(FIXED_ENVIRONMENT)
    os.execv(sys.executable, [sys.executable, *sys.argv])

sys.path.insert(0, os.path.join(ROOT, "src"))
# BLAS must be pinned before numpy loads; the helper imports no numpy.
from repro.utils.bench import pin_blas_threads  # noqa: E402

pin_blas_threads(1)

import numpy as np  # noqa: E402

import system  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock, nominal_probe_ms  # noqa: E402


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def end_to_end(ctx, outcome) -> dict[str, tuple[float, float | None]]:
    """``name -> (host-scaled value, raw value)``; raw is None for non-timings."""
    log = outcome.log
    scaled_ms = 1e3 * np.asarray(log.scaled)
    raw_ms = 1e3 * np.asarray(log.raw)
    return {
        "setup_s": ctx.setup.setup_s[::-1],
        "latency_p50_ms": (float(np.percentile(scaled_ms, 50)), float(np.percentile(raw_ms, 50))),
        "latency_p90_ms": (float(np.percentile(scaled_ms, 90)), float(np.percentile(raw_ms, 90))),
        "queries_per_s": (outcome.queries / outcome.busy_scaled, outcome.queries / outcome.busy_raw),
        "retrain_s": outcome.retrain_s[::-1],
        "qerror_p50": (outcome.qerror[0], None),
        "qerror_p95": (outcome.qerror[1], None),
        "plan_cost_ratio": (outcome.plan_cost_ratio, None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
    }


def per_layer(ctx, outcome, names) -> dict[str, float]:
    steps = ctx.setup.steps
    featurized = system.TRAINING_QUERIES + system.VALIDATION_QUERIES
    layers = {name: 0.0 for name in names}
    layers.update({
        "setup.generate_s": steps["generate"],
        "setup.label_s": steps["label"],
        "setup.fit_s": steps["featurize"] + steps["fit"],
        "workload.label_ms": 1e3 * steps["label"] / system.LABELLED_QUERIES,
        "trainer.featurize_ragged_us": 1e6 * steps["featurize"] / featurized,
        "trainer.epoch_s": steps["fit"] / system.EPOCHS,
        "host.ref_ms": statistics.median(ctx.clock.readings),
    })
    layers.update(outcome.layers)
    unknown = set(layers) - set(names)
    if unknown:
        raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics()

    clock = HostClock(nominal_probe_ms())
    setup = system.set_up(clock)
    ctx = workloads.Context(
        setup=setup,
        plans=system.plan_set(setup.system.database),
        clock=clock,
        rng=np.random.default_rng(args.seed),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    outcome = workloads.WORKLOADS[args.workload](ctx)
    attempted = outcome.attempted + system.SETUP_REPEATS
    failed = outcome.failed + (0 if setup.identical else system.SETUP_REPEATS)

    print(f"# workload {args.workload}, seed {args.seed}, cpu_count {os.cpu_count()}, "
          f"probe nominal {clock.nominal_ms:.4f} ms, median {statistics.median(clock.readings):.4f} ms")
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# {len(outcome.log)} timed operations; error_rate {failed / attempted:.6f} "
          f"({failed} of {attempted})")
    if args.trace:
        kind = "per_layer"
        values = per_layer(ctx, outcome, declared[kind])
        for name, value in values.items():
            print(f"{name:32s} {value:14.6g} {declared[kind][name]}")
        ctx.tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        kind = "end_to_end"
        pairs = end_to_end(ctx, outcome)
        values = {name: pair[0] for name, pair in pairs.items()}
        for name, (value, raw) in pairs.items():
            raw_text = "" if raw is None else f"  (raw {raw:.6g})"
            print(f"{name:32s} {value:14.6g} {declared[kind][name]}{raw_text}")
    if set(values) != set(declared[kind]):
        raise KeyError(f"{kind} metrics differ from BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared[kind].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
