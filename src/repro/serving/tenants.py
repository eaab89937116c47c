"""Tenants: per-data-owner budgets, sharded accountants, and the registry.

A serving deployment answers queries for many *tenants* (data owners),
each with its own privacy budget and its own RNG stream. This module
provides the bookkeeping the front door composes:

* :class:`ShardedAccountant` splits one (ε, δ) budget across ``k``
  independent :class:`~repro.mechanisms.PrivacyAccountant` shards, each
  with its own lock. Concurrent charges rotate over shards and fall
  through to a work-stealing scan, so hot tenants never serialize on one
  lock — and because every shard enforces its slice atomically, the sum
  of shard spends can never exceed the tenant budget, no matter the
  interleaving. The price of contention-freedom is *fragmentation*:
  a charge is refused when no single shard can afford it, which can
  happen slightly before the pooled remainder is exhausted (never
  after). Refusals are reported exactly once, by the sharded front, not
  once per probed shard. Once every shard has refused a spec, any spec at
  least as large is refused in O(1), without probing, until a refund.
* :class:`Tenant` pairs the accountant with a persistent, seeded
  generator, so a tenant's releases form one deterministic RNG stream
  across requests and batches.
* :class:`TenantRegistry` is the thread-safe name → tenant directory the
  service resolves requests against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms.accountant import LedgerEntry, PrivacyAccountant
from repro.mechanisms.base import PrivacySpec
from repro.observability import tracer as _trace
from repro.observability.events import BudgetRefusalEvent
from repro.testing.statistical import derive_seed
from repro.utils.validation import check_random_state

__all__ = ["ShardedAccountant", "Tenant", "TenantRegistry"]


class ShardedAccountant:
    """One (ε, δ) budget enforced across ``k`` independently-locked shards.

    Parameters
    ----------
    budget:
        The tenant's total (ε, δ) budget.
    shards:
        Number of shards (≥ 1); each holds an equal ``1/k`` slice.
    """

    def __init__(self, budget: PrivacySpec, shards: int = 4) -> None:
        if not isinstance(budget, PrivacySpec):
            raise ValidationError("budget must be a PrivacySpec")
        if not isinstance(shards, int) or shards < 1:
            raise ValidationError(f"shards must be an integer >= 1, got {shards!r}")
        self.budget = budget
        self._shards = [
            PrivacyAccountant(
                PrivacySpec(budget.epsilon / shards, budget.delta / shards)
            )
            for _ in range(shards)
        ]
        self._cursor = 0
        self._cursor_lock = threading.Lock()
        # Refusal memo: the last spec every shard refused, cleared by each
        # refund. Between refunds shard spends only grow, so a spec at
        # least as large in both ε and δ is refused by every shard too.
        # ``_refunds`` counts refunds, so a sweep that raced one (and may
        # have probed a shard before its capacity came back) sets no memo.
        self._refused: PrivacySpec | None = None
        self._refunds = 0

    @property
    def shards(self) -> int:
        """Number of budget shards."""
        return len(self._shards)

    @property
    def spent_epsilon(self) -> float:
        """Total ε recorded across all shards (basic composition)."""
        return sum(
            shard.spent.epsilon for shard in self._shards if shard.spent is not None
        )

    @property
    def spent_delta(self) -> float:
        """Total δ recorded across all shards (basic composition)."""
        return sum(
            shard.spent.delta for shard in self._shards if shard.spent is not None
        )

    @property
    def remaining_epsilon(self) -> float:
        """Unspent ε pooled over shards (an upper bound on what one charge
        can actually obtain, because a single charge must fit one shard)."""
        return sum(shard.remaining_epsilon for shard in self._shards)

    @property
    def remaining_delta(self) -> float:
        """Unspent δ pooled over shards."""
        return sum(shard.remaining_delta for shard in self._shards)

    def try_charge(self, spec: PrivacySpec, *, label: str = "release") -> bool:
        """Atomically charge one shard; silently report failure.

        Starts at a rotating cursor (spreading uncontended load) and
        work-steals across every shard before giving up. Each probe is a
        single atomic
        :meth:`~repro.mechanisms.PrivacyAccountant.try_charge`, so two
        racing charges can both succeed only if two shards can both
        afford them — total spend never exceeds the tenant budget. A spec
        no smaller than one every shard refused since the last refund is
        refused without probing; the cursor still advances, so later
        charges land on the same shards as after a full scan.

        Parameters
        ----------
        spec:
            The (ε, δ) expenditure to attempt.
        label:
            Ledger label recorded with the expenditure.
        """
        shards = self._shards
        with self._cursor_lock:
            start = self._cursor
            self._cursor = (start + 1) % len(shards)
            refused = self._refused
            refunds = self._refunds
        if (
            refused is not None
            and isinstance(spec, PrivacySpec)
            and spec.epsilon >= refused.epsilon
            and spec.delta >= refused.delta
        ):
            return False
        for offset in range(len(shards)):
            if shards[(start + offset) % len(shards)].try_charge(spec, label=label):
                return True
        with self._cursor_lock:
            if self._refunds == refunds:
                self._refused = spec
        return False

    def charge(self, spec: PrivacySpec, *, label: str = "release") -> None:
        """Charge one shard or refuse with a single ledger refusal event.

        Parameters
        ----------
        spec:
            The (ε, δ) expenditure to record.
        label:
            Ledger label recorded with the expenditure.
        """
        if self.try_charge(spec, label=label):
            return
        remaining = self.remaining_epsilon
        tracer = _trace.current()
        if tracer is not None:
            tracer.record(
                BudgetRefusalEvent(
                    label=label,
                    epsilon=spec.epsilon,
                    delta=spec.delta,
                    remaining_epsilon=remaining,
                    remaining_delta=self.remaining_delta,
                )
            )
            tracer.count("accountant.refusals")
        raise PrivacyBudgetError(
            f"cannot afford {spec}: no budget shard can cover it "
            f"(pooled remaining ε={remaining:.6g} across "
            f"{len(self._shards)} shard(s))"
        )

    def refund(self, spec: PrivacySpec, *, label: str = "release") -> None:
        """Roll back a reservation previously charged to some shard.

        Scans shards for the most recent matching ``(label, spec)`` entry
        and refunds it there, then clears the refusal memo. Only ever call
        this for work that provably did not release (see
        :meth:`~repro.mechanisms.PrivacyAccountant.refund`).

        Parameters
        ----------
        spec:
            The exact (ε, δ) of the charge being rolled back.
        label:
            The label the charge was recorded under.
        """
        for shard in self._shards:
            if any(
                entry.label == label and entry.spec == spec
                for entry in shard.ledger()
            ):
                shard.refund(spec, label=label)
                with self._cursor_lock:
                    self._refunds += 1
                    self._refused = None
                return
        raise ValidationError(
            f"no recorded charge {spec} labelled {label!r} to refund"
        )

    def ledger(self) -> list[LedgerEntry]:
        """All recorded expenditures, shard by shard."""
        entries: list[LedgerEntry] = []
        for shard in self._shards:
            entries.extend(shard.ledger())
        return entries


@dataclass
class Tenant:
    """A data owner: identity, budget shards, and a persistent RNG stream.

    Parameters
    ----------
    tenant_id:
        Unique tenant name.
    accountant:
        The tenant's sharded budget accountant.
    seed:
        Root seed of the tenant's release stream.
    """

    tenant_id: str
    accountant: ShardedAccountant
    seed: int
    rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tenant_id, str) or not self.tenant_id:
            raise ValidationError("tenant_id must be a non-empty string")
        self.rng = check_random_state(derive_seed("tenant", self.tenant_id,
                                                  base_seed=self.seed))


class TenantRegistry:
    """Thread-safe directory of registered tenants."""

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def register(
        self,
        tenant_id: str,
        budget: PrivacySpec,
        *,
        seed: int = 0,
        shards: int = 4,
    ) -> Tenant:
        """Create and store a tenant; refuse duplicate ids.

        Parameters
        ----------
        tenant_id:
            Unique tenant name.
        budget:
            Total (ε, δ) the tenant's data owner will spend.
        seed:
            Root seed of the tenant's deterministic release stream.
        shards:
            Accountant shard count (lock granularity under concurrency).
        """
        tenant = Tenant(
            tenant_id=tenant_id,
            accountant=ShardedAccountant(budget, shards=shards),
            seed=seed,
        )
        with self._lock:
            if tenant_id in self._tenants:
                raise ValidationError(f"tenant {tenant_id!r} already registered")
            self._tenants[tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        """Look up a tenant by id, raising on unknown names.

        Parameters
        ----------
        tenant_id:
            The tenant name to resolve.
        """
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise ValidationError(f"unknown tenant {tenant_id!r}")
        return tenant

    def tenant_ids(self) -> list[str]:
        """Registered tenant ids, sorted."""
        with self._lock:
            return sorted(self._tenants)
