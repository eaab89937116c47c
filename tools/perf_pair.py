"""Judge a change against its parent with paired perfbench runs.

Usage, from anywhere::

    python3 tools/perf_pair.py BASE_DIR HEAD_DIR

BASE_DIR is a checkout of the parent commit and HEAD_DIR a checkout of
the change. ``HEAD_DIR/BENCHMARK.json`` supplies the command, the
workloads, ``run_seconds`` and every end-to-end metric's ``better`` and
``bound``. Each workload runs ``PAIRS`` pairs on the same machine: pair
*i* uses seed *i* + 1 on both sides, and the side that runs first
alternates from pair to pair, so a drift in machine speed lands on both.

The change fails (exit 1) when, on any workload, the median of an
end-to-end metric is worse than the parent's median by more than its
relative ``bound``, when its failed/attempted share is higher than the
parent's, or when one of its runs fails a correctness check. Exit 2
means the comparison could not be made: a run could not start, printed
no JSON line, or left out a workload or metric. A table of medians and
quartile spreads goes to standard output; its last line is one JSON
verdict.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5


def run_once(spec: dict, checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in ``checkout``: the JSON object on its last line.

    Raises ``OSError`` when the run cannot start and ``ValueError`` when
    it prints no JSON object.
    """
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        raise ValueError(
            f"{checkout}: {workload} seed {seed} exited {done.returncode} "
            f"with no JSON line: {done.stderr.strip()[-2000:]}")
    return result


def _spread(values: list[float]) -> float:
    """Distance between the quartiles (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def judge(spec: dict, runs: dict) -> dict:
    """The verdict on ``runs[workload][side]``, lists of run JSON objects.

    ``side`` is ``"base"`` or ``"head"``. Pure: it reads nothing else.
    """
    rows, failures = [], []
    try:
        for workload in (entry["name"] for entry in spec["workloads"]):
            sides = runs[workload]
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                base, head = (
                    [run["metrics"][name]["value"] for run in sides[side]]
                    for side in ("base", "head"))
                base_median = statistics.median(base)
                head_median = statistics.median(head)
                worse = head_median - base_median
                if metric["better"] == "higher":
                    worse = -worse
                ok = worse <= bound * abs(base_median)
                change = worse / abs(base_median) if base_median else 0.0
                rows.append({
                    "workload": workload, "metric": name,
                    "base": base_median, "base_iqr": _spread(base),
                    "head": head_median, "head_iqr": _spread(head),
                    "worse_by": change, "bound": bound, "ok": ok})
                if not ok:
                    failures.append(
                        f"{workload}/{name}: median {head_median:.4g} is "
                        f"{change:+.1%} worse than {base_median:.4g} "
                        f"(bound {bound:.0%})")
            share = {
                side: sum(run["failed"] for run in sides[side])
                / max(sum(run["attempted"] for run in sides[side]), 1)
                for side in ("base", "head")}
            if share["head"] > share["base"]:
                failures.append(
                    f"{workload}: failed share {share['head']:.3g} > "
                    f"{share['base']:.3g}")
            if not all(run["correct"] for run in sides["head"]):
                failures.append(f"{workload}: a run failed a correctness check")
    except (KeyError, TypeError, statistics.StatisticsError) as error:
        return {"exit": 2, "errors": [f"missing or malformed: {error!r}"],
                "failures": failures, "rows": rows}
    return {"exit": 1 if failures else 0, "errors": [],
            "failures": failures, "rows": rows}


def render(verdict: dict) -> str:
    """The verdict's rows as a text table, then its failures."""
    lines = [f"{'workload':<10} {'metric':<12} {'base':>10} {'IQR':<8} "
             f"{'head':>10} {'IQR':<8} {'worse by':>9} {'bound':>6}  verdict"]
    for row in verdict["rows"]:
        lines.append(
            f"{row['workload']:<10} {row['metric']:<12} "
            f"{row['base']:>10.4g} {row['base_iqr']:<8.2g} "
            f"{row['head']:>10.4g} {row['head_iqr']:<8.2g} "
            f"{row['worse_by']:>+9.1%} {row['bound']:>6.0%}  "
            f"{'ok' if row['ok'] else 'WORSE'}")
    lines += [f"FAILED: {text}" for text in verdict["failures"]]
    lines += [f"ERROR: {text}" for text in verdict["errors"]]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: perf_pair.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    checkouts = {"base": Path(argv[0]), "head": Path(argv[1])}
    runs = {}
    try:
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        for workload in (entry["name"] for entry in spec["workloads"]):
            runs[workload] = {"base": [], "head": []}
            for pair in range(PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    result = run_once(spec, checkouts[side], workload, pair + 1)
                    runs[workload][side].append(result)
                    print(f"{workload} seed {pair + 1} {side}: "
                          f"{json.dumps(result.get('metrics'))}",
                          file=sys.stderr)
    except (OSError, ValueError, KeyError) as error:
        verdict = {"exit": 2, "errors": [f"cannot judge: {error}"],
                   "failures": [], "rows": []}
    else:
        verdict = judge(spec, runs)
    print(render(verdict))
    print(json.dumps(verdict))
    return verdict["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
