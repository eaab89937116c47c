"""One workload in a fresh interpreter; prints one JSON line.

Started by ``perfbench/run.py``, never by hand::

    python3 perfbench/worker.py --workload serve --seed 1 --mode run \
        --seconds 20 --t0 <time.time() before the process was started>

Modes: ``setup`` builds the inputs and exits (one ``setup_s`` sample);
``run`` builds them and runs untraced passes for ``--seconds``; ``trace``
runs two untraced passes and one traced pass and derives the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from probe import SpeedProbe


def _setup(workload_name: str, seed: int, t0: float):
    """Import ``repro`` and build the workload's inputs, under a probe."""
    with SpeedProbe() as probe:
        started = time.perf_counter()
        import repro  # noqa: F401  (the import is what is being timed)
        imported = time.perf_counter()

        from workloads import WORKLOADS

        workload = WORKLOADS[workload_name](seed)
        workload.build()
        built = time.perf_counter()
    factor = probe.factor(built - started)
    wall = time.time() - t0
    timings = {
        "setup_wall_s": wall,
        "setup_s": wall * factor,
        "import_s": (imported - started) * factor,
        "build_s": (built - imported) * factor,
    }
    return workload, timings


def _timed_pass(workload, recorder=None):
    """One pass under a speed probe: its timing record and its result."""
    with SpeedProbe() as probe:
        started = time.perf_counter()
        result = workload.run_pass(recorder)
        wall = time.perf_counter() - started
    factor = probe.factor(wall)
    timing = {"wall_s": wall, "scaled_s": wall * factor, "factor": factor,
              "probe_samples": len(probe.samples)}
    return timing, result


def _run(workload, args) -> dict:
    """Untraced passes until the next one would overrun ``--seconds``.

    At least two passes run, so every run compares two digests.
    """
    started = time.perf_counter()
    timings, results = [], []
    while True:
        timing, result = _timed_pass(workload)
        timings.append(timing)
        results.append(result)
        spent = time.perf_counter() - started
        shortest = min(t["wall_s"] for t in timings)
        if len(results) >= 2 and spent + shortest > args.seconds:
            break
    return {"passes": timings, "results": results}


def _trace(workload, args, timings) -> dict:
    from layers import install, layer_metrics, per_layer_units
    from spans import SpanRecorder

    # The first pass pays for lazy imports and first-call costs; the
    # overhead compares the traced pass with a warm untraced one.
    cold_timing, cold = _timed_pass(workload)
    untraced_timing, untraced = _timed_pass(workload)
    recorder = SpanRecorder()
    patches = install(recorder)
    try:
        root = recorder.open("pass", "workload")
        traced_timing, traced = _timed_pass(workload, recorder)
        recorder.close(root)
    finally:
        patches.remove()
    metrics = layer_metrics(recorder, root, traced.extra.get("flushes", 0))
    for name, unit in per_layer_units().items():
        if unit == "s":
            metrics[name] *= traced_timing["factor"]
    metrics["setup.import_s"] = timings["import_s"]
    metrics["setup.build_s"] = timings["build_s"]
    metrics["trace.overhead_share"] = (
        traced_timing["scaled_s"] / untraced_timing["scaled_s"] - 1.0)
    if args.spans:
        recorder.write(args.spans)
    return {"passes": [cold_timing, untraced_timing, traced_timing],
            "results": [cold, untraced, traced], "layers": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", help="file receiving the traced spans")
    args = parser.parse_args(argv)

    workload, timings = _setup(args.workload, args.seed, args.t0)
    out = {"timings": timings}
    if args.mode != "setup":
        body = _run(workload, args) if args.mode == "run" else _trace(
            workload, args, timings)
        results = body.pop("results")
        out.update(body)
        out["items"] = workload.items
        out["digests"] = [result.digest for result in results]
        out["attempted"] = sum(result.attempted for result in results)
        out["failed"] = sum(result.failed for result in results)
        out["problems"] = [p for result in results for p in result.problems]
        out["info"] = results[0].extra
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
