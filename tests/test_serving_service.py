"""Serving front-door tests: clocks, tenants, batching, robustness.

The deterministic backbone is :class:`SimulatedClock`: every test drives
its coroutines on a virtual timeline, so timing-dependent behaviour
(flush windows, timeouts, drain ordering) is exact and replayable, never
sleep-and-hope.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.exceptions import (
    PrivacyBudgetError,
    ServiceClosedError,
    ServingError,
    ServingTimeoutError,
    ValidationError,
)
from repro.mechanisms import LaplaceMechanism, PrivacyAccountant, PrivacySpec
from repro.observability import Tracer, ledger_totals, tracing
from repro.serving import (
    ReleaseService,
    ServiceConfig,
    ShardedAccountant,
    SimulatedClock,
    TenantRegistry,
)
from repro.testing.statistical import derive_seed
from repro.utils.validation import check_random_state

DATASET = [0.1, 0.4, 0.7]


def make_service(
    clock,
    *,
    budget=PrivacySpec(100.0),
    seed=11,
    shards=2,
    tenants=("alice",),
    epsilon=0.5,
    **config,
):
    """A registry + service + Laplace mechanism wired for one test."""
    registry = TenantRegistry()
    for tenant_id in tenants:
        registry.register(tenant_id, budget, seed=seed, shards=shards)
    service = ReleaseService(
        registry, clock=clock, config=ServiceConfig(**config)
    )
    service.add_mechanism(
        "sum", LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, epsilon)
    )
    return service


def tenant_stream(tenant_id, seed):
    """The generator a tenant's releases draw from, re-derived."""
    return check_random_state(
        derive_seed("tenant", tenant_id, base_seed=seed)
    )


class TestSimulatedClock:
    def test_sleep_orders_by_deadline_then_registration(self):
        clock = SimulatedClock()
        wakes = []

        async def sleeper(name, seconds):
            await clock.sleep(seconds)
            wakes.append((name, clock.now()))

        async def main():
            await asyncio.gather(
                sleeper("slow", 3.0), sleeper("fast", 1.0),
                sleeper("tie-a", 2.0), sleeper("tie-b", 2.0),
            )

        clock.run(main())
        assert wakes == [
            ("fast", 1.0), ("tie-a", 2.0), ("tie-b", 2.0), ("slow", 3.0)
        ]

    def test_runs_in_virtual_time_not_wall_time(self):
        clock = SimulatedClock()

        async def main():
            await clock.sleep(3600.0)
            return clock.now()

        assert clock.run(main()) == 3600.0

    def test_wait_for_times_out_on_the_virtual_timeline(self):
        clock = SimulatedClock()

        async def main():
            never = asyncio.get_running_loop().create_future()
            with pytest.raises(ServingTimeoutError):
                await clock.wait_for(never, 2.5)
            return clock.now()

        assert clock.run(main()) == 2.5

    def test_wait_for_returns_early_result(self):
        clock = SimulatedClock()

        async def main():
            future = asyncio.get_running_loop().create_future()

            async def resolver():
                await clock.sleep(1.0)
                future.set_result("done")

            task = asyncio.ensure_future(resolver())
            result = await clock.wait_for(future, 10.0)
            await task
            return result, clock.now()

        assert clock.run(main()) == ("done", 1.0)

    def test_deadlock_is_detected_not_hung(self):
        clock = SimulatedClock()

        async def main():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(ServingError, match="deadlock"):
            clock.run(main())

    def test_nan_sleep_is_rejected(self):
        # A NaN deadline would break the heap order.
        clock = SimulatedClock()

        async def main():
            with pytest.raises(ValidationError, match="NaN"):
                await clock.sleep(float("nan"))
            return clock.now()

        assert clock.run(main()) == 0.0

    def test_pass_counting_fallback_matches_the_tick(self):
        # The pass-counting fallback, for loops without an inspectable
        # ready queue, wakes sleepers in the same order as the tick.
        def wakes_under(drive):
            clock = SimulatedClock()
            wakes = []

            async def sleeper(name, seconds):
                await clock.sleep(seconds)
                await clock.sleep(seconds)
                wakes.append((name, clock.now()))

            async def main():
                await asyncio.gather(
                    sleeper("slow", 3.0), sleeper("fast", 1.0),
                    sleeper("tie-a", 2.0), sleeper("tie-b", 2.0),
                )
                return clock.now()

            return drive(clock, main()), wakes

        def by_passes(clock, coroutine):
            async def harness():
                task = asyncio.ensure_future(coroutine)
                return await clock._drive_by_passes(task)

            return asyncio.run(harness())

        assert wakes_under(by_passes) == wakes_under(
            lambda clock, coroutine: clock.run(coroutine)
        ) == (6.0, [("fast", 2.0), ("tie-a", 4.0), ("tie-b", 4.0),
                    ("slow", 6.0)])


def count_shard_probes(monkeypatch) -> list[int]:
    """Spy on per-shard probes; the returned one-item list is the count."""
    probes = [0]
    original = PrivacyAccountant.try_charge

    def spying_try_charge(self, spec, *, label="release"):
        probes[0] += 1
        return original(self, spec, label=label)

    monkeypatch.setattr(PrivacyAccountant, "try_charge", spying_try_charge)
    return probes


def half_spent(budget=PrivacySpec(4.0)) -> ShardedAccountant:
    """Four shards, shard ``i`` holding one 0.5 charge labelled ``ri``."""
    accountant = ShardedAccountant(budget, shards=4)
    for label in ("r0", "r1", "r2", "r3"):
        accountant.charge(PrivacySpec(0.5), label=label)
    return accountant


class TestShardedAccountant:
    def test_budget_is_split_and_enforced(self):
        accountant = ShardedAccountant(PrivacySpec(1.0), shards=4)
        spent = 0
        while accountant.try_charge(PrivacySpec(0.25)):
            spent += 1
        assert spent == 4
        assert accountant.spent_epsilon == pytest.approx(1.0)
        assert not accountant.try_charge(PrivacySpec(0.25))

    def test_refusal_emits_exactly_one_event(self):
        accountant = ShardedAccountant(PrivacySpec(1.0), shards=4)
        tracer = Tracer("shard-refusal")
        with tracing(tracer):
            with pytest.raises(PrivacyBudgetError):
                accountant.charge(PrivacySpec(0.9))
        refusals = [e for e in tracer.events if e.kind == "refusal"]
        assert len(refusals) == 1
        assert tracer.metrics.counter("accountant.refusals") == 1

    def test_refund_restores_capacity(self):
        accountant = ShardedAccountant(PrivacySpec(1.0), shards=2)
        assert accountant.try_charge(PrivacySpec(0.5), label="r")
        accountant.refund(PrivacySpec(0.5), label="r")
        assert accountant.spent_epsilon == 0.0
        assert accountant.try_charge(PrivacySpec(0.5), label="r")

    def test_refund_without_charge_raises(self):
        accountant = ShardedAccountant(PrivacySpec(1.0), shards=2)
        with pytest.raises(ValidationError, match="refund"):
            accountant.refund(PrivacySpec(0.5))

    def test_fragmentation_refuses_early_never_overspends(self):
        # A 0.6 charge cannot fit any 0.5-capacity shard even though the
        # pooled remainder would cover it: refusal, not overshoot.
        accountant = ShardedAccountant(PrivacySpec(1.0), shards=2)
        assert not accountant.try_charge(PrivacySpec(0.6))
        assert accountant.spent_epsilon == 0.0


class TestRefusalMemo:
    """Once every shard refused a spec, larger specs skip the probes."""

    def test_exhausted_tenant_refuses_without_probing(self, monkeypatch):
        accountant = ShardedAccountant(PrivacySpec(1.0), shards=4)
        spec = PrivacySpec(0.25)
        for _ in range(4):
            accountant.charge(spec)
        probes = count_shard_probes(monkeypatch)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge(spec)
        assert probes[0] == 4
        tracer = Tracer("memo-refusals")
        k = 7
        with tracing(tracer):
            for _ in range(k):
                with pytest.raises(PrivacyBudgetError, match="no budget shard"):
                    accountant.charge(spec)
        assert probes[0] == 4
        refusals = [e for e in tracer.events if e.kind == "refusal"]
        assert len(refusals) == k
        assert all(e.remaining_epsilon == 0.0 for e in refusals)
        assert tracer.metrics.counter("accountant.refusals") == k
        assert accountant.spent_epsilon == 1.0

    def test_refund_clears_the_memo(self):
        accountant = half_spent()
        with pytest.raises(PrivacyBudgetError):
            accountant.charge(PrivacySpec(0.75))
        accountant.refund(PrivacySpec(0.5), label="r2")
        accountant.charge(PrivacySpec(0.75), label="big")
        assert [entry.label for entry in accountant.ledger()] == [
            "r0", "r1", "big", "r3"
        ]

    def test_memo_refusals_advance_the_cursor_like_full_scans(self):
        accountant = half_spent()  # cursor back at shard 0
        for _ in range(6):  # one full scan, five memo refusals
            assert not accountant.try_charge(PrivacySpec(0.75))
        accountant.refund(PrivacySpec(0.5), label="r0")
        # Ten calls so far: the cursor is at shard 2, which can afford
        # 0.5; a memo that skipped the cursor would land on shard 1.
        accountant.charge(PrivacySpec(0.5), label="next")
        assert [entry.label for entry in accountant.ledger()] == [
            "r1", "r2", "next", "r3"
        ]

    def test_memo_is_per_spec(self, monkeypatch):
        accountant = half_spent(PrivacySpec(4.0, 0.4))
        probes = count_shard_probes(monkeypatch)
        assert not accountant.try_charge(PrivacySpec(0.75, 0.05))
        assert probes[0] == 4
        # At least as large in ε and δ: refused without a probe.
        assert not accountant.try_charge(PrivacySpec(0.8, 0.05))
        assert probes[0] == 4
        # Smaller in δ only, or in ε: probed afresh.
        assert not accountant.try_charge(PrivacySpec(0.8))
        assert probes[0] == 8
        assert not accountant.try_charge(PrivacySpec(0.6, 0.05))
        assert probes[0] == 12
        assert accountant.try_charge(PrivacySpec(0.5), label="fits")
        assert probes[0] == 13


class TestTenantRegistry:
    def test_duplicate_registration_rejected(self):
        registry = TenantRegistry()
        registry.register("a", PrivacySpec(1.0))
        with pytest.raises(ValidationError, match="already registered"):
            registry.register("a", PrivacySpec(1.0))

    def test_unknown_tenant_rejected(self):
        with pytest.raises(ValidationError, match="unknown tenant"):
            TenantRegistry().get("ghost")

    def test_tenant_stream_is_deterministic(self):
        first = TenantRegistry().register("a", PrivacySpec(1.0), seed=3)
        second = TenantRegistry().register("a", PrivacySpec(1.0), seed=3)
        assert first.rng.standard_normal() == second.rng.standard_normal()


class TestBatching:
    def test_concurrent_requests_coalesce_into_one_flush(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=0.05)
        tracer = Tracer("coalesce")

        async def main():
            return await asyncio.gather(
                *(service.submit("alice", "sum", DATASET, n=1) for _ in range(6))
            )

        with tracing(tracer):
            results = clock.run(main())
        assert tracer.metrics.counter("serving.flushes") == 1
        assert tracer.metrics.counter("serving.released") == 6
        assert all(len(piece) == 1 for piece in results)

    def test_batched_outputs_bit_identical_to_sequential(self):
        """The coalesced flush must be stream-equivalent to serving the
        same requests one by one from the tenant's generator."""
        seed = 29
        requests = [1, 2, 3, 1]

        def serve_all(batching):
            clock = SimulatedClock()
            service = make_service(
                clock, seed=seed, flush_window=0.05, batching=batching
            )

            async def main():
                results = await asyncio.gather(
                    *(
                        service.submit("alice", "sum", DATASET, n=n)
                        for n in requests
                    )
                )
                await service.drain()
                return [value for piece in results for value in piece]

            return clock.run(main())

        batched = serve_all(batching=True)
        sequential = serve_all(batching=False)
        assert batched == sequential
        # And both equal one direct release_many on the tenant stream.
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 0.5)
        direct = mechanism.release_many(
            DATASET, sum(requests), random_state=tenant_stream("alice", seed)
        )
        assert batched == list(direct)

    def test_max_batch_flushes_ahead_of_the_window(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=1e9, max_batch=4)

        async def main():
            results = await asyncio.gather(
                *(service.submit("alice", "sum", DATASET) for _ in range(4))
            )
            return results, clock.now()

        results, elapsed = clock.run(main())
        assert len(results) == 4
        assert elapsed == 0.0  # never waited for the (absurd) window

    def test_distinct_datasets_do_not_coalesce(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=0.05)
        other = [9.0, 9.5]
        tracer = Tracer("keys")

        async def main():
            return await asyncio.gather(
                service.submit("alice", "sum", DATASET),
                service.submit("alice", "sum", other),
            )

        with tracing(tracer):
            clock.run(main())
        assert tracer.metrics.counter("serving.flushes") == 2


class TestAdmissionControl:
    def test_over_budget_tenant_is_refused_before_release(self):
        clock = SimulatedClock()
        service = make_service(
            clock, budget=PrivacySpec(1.0), epsilon=0.4, flush_window=0.01,
            shards=1,
        )
        tracer = Tracer("admission")

        async def main():
            outcomes = []
            for _ in range(4):
                try:
                    await service.submit("alice", "sum", DATASET)
                    outcomes.append("ok")
                except PrivacyBudgetError:
                    outcomes.append("refused")
            return outcomes

        with tracing(tracer):
            outcomes = clock.run(main())
        assert outcomes == ["ok", "ok", "refused", "refused"]
        # Refused requests never reached the mechanism: releases == charges.
        assert tracer.metrics.counter("serving.released") == 2
        refusals = [e for e in tracer.events if e.kind == "refusal"]
        assert len(refusals) == 2
        # Ledger reconstruction: net charge events equal accountant spend.
        spent = service.registry.get("alice").accountant.spent_epsilon
        assert ledger_totals(tracer.events, kinds=("charge", "refund"))[0] == (
            pytest.approx(spent)
        )

    def test_unknown_mechanism_and_bad_n_are_usage_errors(self):
        clock = SimulatedClock()
        service = make_service(clock)

        async def main():
            with pytest.raises(ValidationError, match="unknown mechanism"):
                await service.submit("alice", "median", DATASET)
            with pytest.raises(ValidationError, match="n must be"):
                await service.submit("alice", "sum", DATASET, n=0)

        clock.run(main())

    def test_refused_costs_cannot_grow_the_cost_cache(self, monkeypatch):
        # Each distinct n is priced once; a stream of refused requests
        # with fresh n values restarts the cache instead of growing it.
        monkeypatch.setattr(service_module, "_COST_CACHE_LIMIT", 3)
        clock = SimulatedClock()
        service = make_service(clock, budget=PrivacySpec(1.0), shards=1)

        async def main():
            for n in range(10, 20):
                with pytest.raises(PrivacyBudgetError):
                    await service.submit("alice", "sum", DATASET, n=n)
                assert len(service._costs) <= 3
            return await service.submit("alice", "sum", DATASET, n=2)

        assert len(clock.run(main())) == 2
        assert service.registry.get("alice").accountant.spent_epsilon == 1.0


class TestShutdown:
    def test_drain_flushes_pending_batches_early(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=1e9)

        async def main():
            pending = asyncio.ensure_future(
                service.submit("alice", "sum", DATASET)
            )
            await asyncio.sleep(0)
            await service.drain()
            return await pending, clock.now()

        outputs, elapsed = clock.run(main())
        assert len(outputs) == 1
        assert elapsed == 0.0

    def test_submit_after_shutdown_is_refused(self):
        clock = SimulatedClock()
        service = make_service(clock)

        async def main():
            await service.drain()
            with pytest.raises(ServiceClosedError):
                await service.submit("alice", "sum", DATASET)

        clock.run(main())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ServiceConfig(flush_window=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="flush_window"):
                ServiceConfig(flush_window=bad)
            with pytest.raises(ValidationError, match="request_timeout"):
                ServiceConfig(request_timeout=bad)
        with pytest.raises(ValidationError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServiceConfig(request_timeout=0.0)
        with pytest.raises(ValidationError):
            ServiceConfig(max_retries=-1)
