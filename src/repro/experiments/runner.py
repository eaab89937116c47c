"""Experiment runner: parameter sweeps with a parallel, fault-tolerant backend.

The execution core of the benchmark engine (see
:mod:`repro.experiments.engine`). ``sweep`` expands a parameter grid and
hands the configurations to :func:`run_configurations`, which runs them
either in-process (the default — closures and lambdas welcome) or on a
``ProcessPoolExecutor`` with a per-configuration timeout and a bounded,
deterministically-reseeded retry budget. Results always come back in grid
(Cartesian-product) order regardless of completion order, so parallel runs
are output-identical to serial ones.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError, ValidationError
from repro.observability import tracer as _trace
from repro.utils.seeding import reseed

__all__ = [
    "ExperimentResult",
    "expand_grid",
    "reseed",
    "run_configurations",
    "sweep",
]


@dataclass
class ExperimentResult:
    """One experiment configuration and its measured outputs."""

    name: str
    parameters: dict
    outputs: dict
    seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether this configuration exhausted its retry budget."""
        return "error" in self.metadata

    def __str__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        outputs = ", ".join(f"{k}={v}" for k, v in self.outputs.items())
        return f"{self.name}({params}) -> {outputs} [{self.seconds:.3f}s]"


def _invoke(fn: Callable[..., Mapping], parameters: Mapping) -> tuple:
    """Execute one configuration; returns ``(outputs, seconds, worker pid)``.

    Top-level so it pickles for the process-pool backend.
    """
    start = time.perf_counter()
    outputs = fn(**parameters)
    seconds = time.perf_counter() - start
    if not isinstance(outputs, Mapping):
        raise ValidationError("experiment functions must return a mapping")
    return dict(outputs), seconds, os.getpid()


def expand_grid(grid: Mapping[str, Sequence], fixed: Mapping | None = None) -> list[dict]:
    """Expand a parameter grid into its list of configurations.

    Parameters
    ----------
    grid:
        Mapping from parameter name to a non-empty sequence of values.
    fixed:
        Parameters held constant; merged into every configuration. Must
        not overlap the swept names.
    """
    if not isinstance(grid, Mapping) or not grid:
        raise ValidationError("grid must be a non-empty mapping")
    empty = sorted(k for k, values in grid.items() if len(list(values)) == 0)
    if empty:
        raise ValidationError(
            f"grid values must be non-empty sequences; empty: {empty}"
        )
    fixed = dict(fixed or {})
    overlap = set(grid) & set(fixed)
    if overlap:
        raise ValidationError(f"parameters swept and fixed: {sorted(overlap)}")
    names = list(grid)
    configurations = []
    for combo in itertools.product(*(grid[k] for k in names)):
        parameters = dict(zip(names, combo))
        parameters.update(fixed)
        configurations.append(parameters)
    return configurations


def _reseeded(parameters: dict, seed_param: str | None, attempt: int) -> dict:
    """The configuration to use for retry ``attempt`` (seed re-derived)."""
    if attempt == 0 or not seed_param or seed_param not in parameters:
        return parameters
    fresh = dict(parameters)
    fresh[seed_param] = reseed(parameters[seed_param], attempt)
    return fresh


def _failure(
    name: str, parameters: dict, retries: int, error: BaseException
) -> ExperimentResult:
    return ExperimentResult(
        name=name,
        parameters=dict(parameters),
        outputs={},
        seconds=0.0,
        metadata={
            "worker": None,
            "retries": retries,
            "error": f"{type(error).__name__}: {error}",
        },
    )


def _traced_invoke(
    name: str, fn: Callable[..., Mapping], parameters: Mapping
) -> tuple:
    """``_invoke`` under a per-configuration span with a trace delta.

    Returns ``(outputs, seconds, worker, trace_summary)`` where the last
    element is ``None`` when tracing is disabled, else a small dict of the
    ledger events, spans, and mechanism releases this configuration alone
    produced (computed as before/after deltas on the active tracer).
    ``mechanism_releases`` counts individual draws: a batched
    ``release_many(d, n)`` call contributes ``n`` (one aggregated ledger
    event with ``count == n``), exactly like ``n`` single releases.
    """
    tracer = _trace.current()
    if tracer is None:
        return (*_invoke(fn, parameters), None)
    events_before = len(tracer.events)
    spans_before = len(tracer.spans)
    releases_before = tracer.metrics.counter("mechanism.releases")
    with tracer.span(f"config:{name}"):
        outputs, seconds, worker = _invoke(fn, parameters)
    summary = {
        "seconds": seconds,
        "ledger_events": len(tracer.events) - events_before,
        "spans": len(tracer.spans) - spans_before - 1,  # minus our own
        "mechanism_releases": tracer.metrics.counter("mechanism.releases")
        - releases_before,
    }
    return outputs, seconds, worker, summary


def _run_serial(
    name: str,
    fn: Callable[..., Mapping],
    configurations: Sequence[Mapping],
    retries: int,
    seed_param: str | None,
    on_error: str,
) -> list[ExperimentResult]:
    results = []
    for original in configurations:
        original = dict(original)
        attempt = 0
        while True:
            parameters = _reseeded(original, seed_param, attempt)
            try:
                outputs, seconds, worker, trace = _traced_invoke(
                    name, fn, parameters
                )
            except Exception as error:
                if attempt < retries:
                    attempt += 1
                    continue
                if on_error == "raise":
                    raise ExperimentError(
                        f"{name}{parameters} failed after {attempt} "
                        f"retr{'y' if attempt == 1 else 'ies'}: {error}"
                    ) from error
                results.append(_failure(name, parameters, attempt, error))
                break
            metadata = {"worker": worker, "retries": attempt}
            if trace is not None:
                metadata["trace"] = trace
            results.append(
                ExperimentResult(
                    name=name,
                    parameters=dict(parameters),
                    outputs=outputs,
                    seconds=seconds,
                    metadata=metadata,
                )
            )
            break
    return results


def _run_pooled(
    name: str,
    fn: Callable[..., Mapping],
    configurations: Sequence[Mapping],
    workers: int,
    timeout: float | None,
    retries: int,
    seed_param: str | None,
    on_error: str,
) -> list[ExperimentResult]:
    originals = [dict(c) for c in configurations]
    results: list[ExperimentResult | None] = [None] * len(originals)
    timed_out = False
    executor = ProcessPoolExecutor(max_workers=workers)
    try:
        pending: dict[int, tuple[Future, dict, int]] = {}
        for index, parameters in enumerate(originals):
            pending[index] = (
                executor.submit(_invoke, fn, parameters),
                parameters,
                0,
            )
        # Resolve strictly in submission (= grid) order so the returned
        # list is deterministic no matter which worker finishes first.
        for index in range(len(originals)):
            while results[index] is None:
                future, parameters, attempt = pending[index]
                try:
                    outputs, seconds, worker = future.result(timeout=timeout)
                except Exception as error:
                    if isinstance(error, (TimeoutError, _FutureTimeoutError)):
                        timed_out = True
                        future.cancel()
                    if attempt < retries:
                        attempt += 1
                        fresh = _reseeded(originals[index], seed_param, attempt)
                        pending[index] = (
                            executor.submit(_invoke, fn, fresh),
                            fresh,
                            attempt,
                        )
                        continue
                    if on_error == "raise":
                        raise ExperimentError(
                            f"{name}{parameters} failed after {attempt} "
                            f"retr{'y' if attempt == 1 else 'ies'}: {error}"
                        ) from error
                    results[index] = _failure(name, parameters, attempt, error)
                    break
                results[index] = ExperimentResult(
                    name=name,
                    parameters=dict(parameters),
                    outputs=outputs,
                    seconds=seconds,
                    metadata={"worker": worker, "retries": attempt},
                )
    finally:
        # A timed-out task cannot be interrupted mid-run; don't block on
        # its worker — let it finish (or die with the interpreter) in the
        # background while results are already complete.
        executor.shutdown(wait=not timed_out, cancel_futures=True)
    return [result for result in results if result is not None]


def run_configurations(
    name: str,
    fn: Callable[..., Mapping],
    configurations: Sequence[Mapping],
    *,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    seed_param: str | None = None,
    on_error: str = "raise",
) -> list[ExperimentResult]:
    """Run explicit configurations through the serial or pooled backend.

    Parameters
    ----------
    name:
        Label stored on every result.
    fn:
        Experiment function mapping keyword parameters to an output
        mapping. Must be picklable (a module-level function) when
        ``workers > 1`` or ``timeout`` is set.
    configurations:
        The parameter dicts to run, in the order results are wanted.
    workers:
        Process-pool size. ``1`` with no ``timeout`` runs in-process.
    timeout:
        Per-configuration wall-clock budget in seconds (pooled backend
        only; forces the pool even at ``workers=1``). The wait for a
        retried configuration may include queueing time behind other
        configurations.
    retries:
        How many times a failing/timed-out configuration is re-run before
        it counts as failed.
    seed_param:
        Name of an integer seed parameter; on retry ``k`` it is replaced
        with ``reseed(seed, k)`` so the re-run is reproducible but does
        not replay the identical RNG stream.
    on_error:
        ``"raise"`` propagates the first exhausted failure as
        :class:`~repro.exceptions.ExperimentError`; ``"record"`` returns a
        result with empty outputs and the error message in
        ``metadata["error"]`` and keeps going.

    Notes
    -----
    When a tracer is active (:mod:`repro.observability`) the in-process
    serial backend records a per-configuration span and a trace summary in
    ``metadata["trace"]``. Pooled workers are separate processes that
    cannot report into the parent's tracer, so pooled results carry no
    trace summary — by design, rather than silently-empty numbers.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if retries < 0:
        raise ValidationError("retries must be >= 0")
    if timeout is not None and not timeout > 0:
        raise ValidationError("timeout must be positive when set")
    if on_error not in ("raise", "record"):
        raise ValidationError("on_error must be 'raise' or 'record'")
    if not configurations:
        return []
    if workers == 1 and timeout is None:
        return _run_serial(name, fn, configurations, retries, seed_param, on_error)
    return _run_pooled(
        name, fn, configurations, workers, timeout, retries, seed_param, on_error
    )


def sweep(
    name: str,
    fn: Callable[..., Mapping],
    grid: Mapping[str, Sequence],
    *,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    seed_param: str | None = None,
    on_error: str = "raise",
    **fixed,
) -> list[ExperimentResult]:
    """Run ``fn`` over the Cartesian product of ``grid`` values.

    Results are returned in grid order (``itertools.product`` over the
    grid's values in key order) regardless of the backend or completion
    order.

    Parameters
    ----------
    grid:
        Mapping from parameter name to the non-empty sequence of values
        to sweep. An empty mapping or an empty value sequence raises
        :class:`~repro.exceptions.ValidationError` instead of silently
        producing an empty sweep.
    workers:
        Process-pool size; ``1`` (default) runs serially in-process.
    timeout:
        Per-configuration wall-clock budget in seconds.
    retries:
        Retry budget per configuration (see :func:`run_configurations`).
    seed_param:
        Seed parameter re-derived on retries (see :func:`reseed`).
    on_error:
        ``"raise"`` (default) or ``"record"``.
    fixed:
        Parameters held constant across the sweep.
    """
    configurations = expand_grid(grid, fixed)
    return run_configurations(
        name,
        fn,
        configurations,
        workers=workers,
        timeout=timeout,
        retries=retries,
        seed_param=seed_param,
        on_error=on_error,
    )
