"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced in a fresh interpreter for
``--seconds`` and sets it up twice more in fresh interpreters, then
prints the end-to-end metrics. ``--trace 1`` runs two untraced passes
and one traced pass and prints the per-layer metrics. Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 when every correctness check passed, 1 when one failed and 2 when
the workload could not be run at all. ``--expect-digest`` additionally
requires the first pass to produce the given digest. A full report with
the machine fingerprint (and, traced, every span) goes to
``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reproduce", "audit", "serve")
#: Set-up samples per untraced run: the run's own plus this many more.
EXTRA_SETUPS = 2
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fingerprint() -> dict:
    """CPU model, usable cores and the interpreter and library versions."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # One BLAS thread: every workload is serial, and a thread pool that
    # competes with the interpreter only adds noise on a small machine.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _worker(args, mode: str, timeout: float, spans: Path | None = None) -> dict:
    """Run ``worker.py`` in a fresh interpreter and parse its JSON line."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--seconds", str(args.seconds),
               "--t0", repr(time.time())]
    if spans is not None:
        command += ["--spans", str(spans)]
    completed = subprocess.run(
        command, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker ({mode}) exited {completed.returncode}:\n"
            f"{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _checks(args, out: dict) -> list[str]:
    """Correctness problems of a worker run (empty when all passed)."""
    problems = list(out["problems"])
    digests = out["digests"]
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: digests {digests}")
    if args.expect_digest and digests[0] != args.expect_digest:
        problems.append(
            f"digest {digests[0]} != expected {args.expect_digest}")
    return problems


def _untraced(args) -> tuple[dict, dict]:
    out = _worker(args, "run", CHILD_TIMEOUT_S)
    setups = [out["timings"]] + [
        _worker(args, "setup", SETUP_TIMEOUT_S)["timings"]
        for _ in range(EXTRA_SETUPS)
    ]
    passes = [timing["scaled_s"] for timing in out["passes"]]
    per_pass = out["attempted"] / len(passes)
    metrics = {
        "setup_s": statistics.median(
            timings["setup_s"] for timings in setups),
        "run_s": statistics.median(passes),
        "work_per_s": statistics.median(per_pass / s for s in passes),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    out["setup_samples"] = setups
    return out, {name: (value, END_TO_END_UNITS[name])
                 for name, value in metrics.items()}


def _traced(args, spans: Path) -> tuple[dict, dict]:
    from layers import per_layer_units

    out = _worker(args, "trace", CHILD_TIMEOUT_S, spans)
    units = per_layer_units()
    return out, {name: (value, units[name])
                 for name, value in out.pop("layers").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest",
                        help="fail unless the first pass has this digest")
    args = parser.parse_args(argv)

    missing = [path for path in ("src/repro/__init__.py",
                                 "benchmarks/__init__.py")
               if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            out, metrics = _traced(args, OUT / f"{stem}.spans.json")
        else:
            out, metrics = _untraced(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {args.workload} could not run: {error}",
              file=sys.stderr)
        return 2

    problems = _checks(args, out)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": fingerprint(), "problems": problems,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()},
              **out}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    machine = report["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"on {machine['cpu']} x{machine['nproc']}, Python "
          f"{machine['python']}, numpy {machine['numpy']}, "
          f"scipy {machine['scipy']}")
    print(f"  {out['items']} attempted: {out['attempted']}, failed: "
          f"{out['failed']}, digest: {out['digests'][0]}")
    print("  passes (wall s -> s at the probe's reference speed): " + ", ".join(
        f"{t['wall_s']:.3f} -> {t['scaled_s']:.3f}" for t in out["passes"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
