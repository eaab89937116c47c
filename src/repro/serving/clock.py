"""Clocks for the serving layer: real time, and deterministic virtual time.

Every time-dependent decision the service makes — flush windows, request
timeouts, latency measurements — goes through a :class:`Clock` so the same
service code runs in two modes:

* :class:`SystemClock` binds to the running asyncio event loop's monotonic
  time for real deployments;
* :class:`SimulatedClock` owns a virtual timeline: ``sleep`` registers a
  deadline in a heap and time only moves when the driver advances it to
  the next deadline, after the event loop has *quiesced* (its ready
  queue is empty, so every task waits on a future). A fleet of thousands of
  simulated clients therefore runs in milliseconds of wall time, in an
  order fully determined by the (seeded) workload — the property the
  load-test harness's bit-identical reports rest on.

No wall-clock reads happen anywhere in the simulated path, so two runs of
the same workload interleave identically on any machine.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time

from repro.exceptions import ServingError, ServingTimeoutError, ValidationError

__all__ = ["Clock", "SimulatedClock", "SystemClock"]

#: Fallback quiescence margin: consecutive no-progress event-loop passes
#: required to call the loop settled when the loop's ready queue cannot be
#: inspected directly. Each pass runs every currently-ready callback; a
#: resolved future wakes its waiter on the *next* pass, so the margin must
#: exceed the longest await chain between clock events.
_QUIESCE_STABLE_PASSES = 25


class Clock:
    """Time source interface used by the serving layer.

    Subclasses provide ``now()`` (monotonic seconds) and ``sleep()``;
    :meth:`wait_for` is implemented once on top of ``sleep`` so timeouts
    follow the same timeline as every other delay — real or simulated.
    """

    def now(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling coroutine for ``seconds`` of clock time.

        Parameters
        ----------
        seconds:
            Non-negative delay; 0 yields once to the event loop.
        """
        raise NotImplementedError

    async def wait_for(self, future: asyncio.Future, timeout: float | None):
        """Await ``future``, bounded by ``timeout`` seconds of clock time.

        Races the future against :meth:`sleep`. On expiry the future is
        left *pending* (not cancelled) and
        :class:`~repro.exceptions.ServingTimeoutError` is raised — the
        caller owns the rollback decision, because only it knows whether
        the underlying work already started.

        Parameters
        ----------
        future:
            The awaitable result being bounded.
        timeout:
            Clock seconds to wait; ``None`` waits forever.
        """
        if timeout is None:
            return await future
        timer = asyncio.ensure_future(self.sleep(timeout))
        try:
            await asyncio.wait(
                {future, timer}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            if not timer.done():
                timer.cancel()
        if future.done():
            return future.result()
        raise ServingTimeoutError(
            f"request did not complete within {timeout:g}s"
        )


class SystemClock(Clock):
    """Real time: the running event loop's monotonic clock."""

    def now(self) -> float:
        """Monotonic wall time (valid inside or outside an event loop)."""
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        """Delegate to :func:`asyncio.sleep`.

        Parameters
        ----------
        seconds:
            Non-negative delay in real seconds.
        """
        await asyncio.sleep(max(0.0, seconds))


class SimulatedClock(Clock):
    """Deterministic virtual time driven by a deadline heap.

    ``sleep`` never blocks on real time: it files a ``(deadline, seq,
    future)`` entry and suspends until the driver advances the clock to
    that deadline. ``seq`` breaks deadline ties in registration order, so
    wake order is a pure function of the workload.

    Use :meth:`run` to execute a coroutine to completion under this
    clock; it owns the advance loop (settle, then jump to the next
    deadline) and raises :class:`~repro.exceptions.ServingError` on a
    deadlock — tasks still pending with no timer left to fire.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0
        self._activity = 0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    async def sleep(self, seconds: float) -> None:
        """Suspend until the driver advances past ``now() + seconds``.

        Parameters
        ----------
        seconds:
            Non-negative virtual delay; 0 yields once without filing a
            deadline. NaN raises
            :class:`~repro.exceptions.ValidationError`, because a NaN
            deadline breaks the heap order.
        """
        if math.isnan(seconds):
            raise ValidationError("sleep seconds must not be NaN")
        self._activity += 1
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._heap, (self._now + float(seconds), self._seq, future))
        self._seq += 1
        await future

    def advance_to_next(self) -> float:
        """Jump to the earliest pending deadline and wake its sleepers.

        All entries sharing the earliest deadline resolve in registration
        order. Entries whose futures were cancelled (abandoned timeouts)
        are discarded without waking anyone.
        """
        while self._heap:
            deadline, _, future = heapq.heappop(self._heap)
            if future.cancelled():
                continue
            self._now = max(self._now, deadline)
            future.set_result(None)
            self._activity += 1
            while self._heap and self._heap[0][0] <= self._now:
                _, _, later = heapq.heappop(self._heap)
                if not later.cancelled():
                    later.set_result(None)
                    self._activity += 1
            return self._now
        raise ServingError("no pending deadline to advance to")

    def _advance_or_finish(self, task: asyncio.Future) -> bool:
        """On a settled loop: report ``task`` done, or advance the clock.

        Raises :class:`~repro.exceptions.ServingError` (cancelling
        ``task``) when it is pending but no live deadline can wake it.
        """
        if task.done():
            return True
        if not any(not f.cancelled() for _, _, f in self._heap):
            task.cancel()
            raise ServingError(
                "simulated-clock deadlock: tasks pending but no "
                "timer is scheduled to wake them"
            )
        self.advance_to_next()
        return False

    async def _drive_by_passes(self, task: asyncio.Future):
        """Fallback advance loop for loops whose ready queue is hidden.

        Calls the loop settled after ``_QUIESCE_STABLE_PASSES``
        consecutive zero-sleeps without clock activity.
        """
        while True:
            stable = 0
            while stable < _QUIESCE_STABLE_PASSES:
                before = self._activity
                await asyncio.sleep(0)
                stable = stable + 1 if self._activity == before else 0
            if self._advance_or_finish(task):
                return task.result()

    def run(self, coroutine):
        """Execute ``coroutine`` to completion under this clock.

        A ``tick`` callback drives time. The event loop's ready queue is
        the exact settle signal (CPython's ``_ready``): while it holds
        callbacks, ``tick`` re-queues itself behind them; once it is
        empty, every task is suspended on a future (a clock deadline or a
        peer), so ``tick`` advances the clock to the next deadline and
        re-queues itself behind the callbacks that woke. A pending
        coroutine with no live deadline left is a deadlock and raises
        :class:`~repro.exceptions.ServingError` rather than hanging. On
        loops without ``_ready``, a coroutine counts activity-stable
        passes instead.

        Parameters
        ----------
        coroutine:
            The workload to drive (e.g. a load-test fleet).
        """

        async def _drive():
            loop = asyncio.get_running_loop()
            task = asyncio.ensure_future(coroutine)
            ready = getattr(loop, "_ready", None)
            if ready is None:
                return await self._drive_by_passes(task)
            finished = loop.create_future()

            def tick():
                if ready:
                    loop.call_soon(tick)
                    return
                try:
                    if self._advance_or_finish(task):
                        finished.set_result(None)
                        return
                except ServingError as error:  # deadlock, re-raised below
                    finished.set_exception(error)
                    return
                loop.call_soon(tick)

            loop.call_soon(tick)
            await finished
            return task.result()

        return asyncio.run(_drive())
