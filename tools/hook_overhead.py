"""Measure what the disabled tracing hook adds to a mechanism release.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/hook_overhead.py

With no tracer active, every ``Mechanism.release`` passes through a
base-class hook that reads the active tracer once and delegates.
``tests/test_observability.py`` checks that exactly (one read, no tracer
call, no ledger event); this script reports the wall-clock cost of that
read on a release doing real work: a vectorized query over 65 536
records plus a Laplace draw.

Wrapped and bare releases run in interleaved trials, alternating which
goes first so a drift in machine speed lands on both; the ratio of the
minimum trial times is printed. The number depends on the host and its
load, so it is reported, never gated.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mechanisms import LaplaceMechanism

ROUNDS = 30
TRIALS = 40


def main() -> None:
    mechanism = LaplaceMechanism(
        lambda d: float(np.log1p(np.abs(d)).sum()), 1.0, 1.0
    )
    dataset = np.ones(65536)
    wrapped = type(mechanism).release
    bare = wrapped.__wrapped__  # the hook is functools.wraps'd

    def timed(release):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for _ in range(ROUNDS):
            release(mechanism, dataset, random_state=rng)
        return time.perf_counter() - start

    times = {bare: [], wrapped: []}
    for trial in range(TRIALS):
        for release in (wrapped, bare) if trial % 2 else (bare, wrapped):
            times[release].append(timed(release))
    ratio = min(times[wrapped]) / min(times[bare]) - 1.0
    print(
        f"disabled hook overhead: {ratio:+.1%} of a release "
        f"(min of {TRIALS} interleaved trials of {ROUNDS} releases each)"
    )


if __name__ == "__main__":
    main()
