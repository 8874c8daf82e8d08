"""Instantaneous scheduling policies: fair share, FIFO, capacity.

A policy answers one question for one pool at one decision instant:
*given tenant demands and the RM configuration, what is each tenant's
target allocation?*  Simulators then launch/preempt tasks to track that
target.  The fair policy reproduces the YARN/Mesos fair scheduler the
paper tunes; FIFO and capacity policies serve as baselines and as
substrates for the related-work comparisons.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig
from repro.rm.fair import fair_share_counts, fair_shares



@dataclass(frozen=True)
class TenantDemand:
    """A tenant's instantaneous demand in one pool.

    Attributes:
        tenant: Queue name.
        runnable: Containers' worth of runnable (pending) tasks.
        running: Containers currently held.
        oldest_pending_submit: Submission time of the oldest pending
            task's job (drives FIFO ordering); ``inf`` when none pending.
    """

    tenant: str
    runnable: int
    running: int
    oldest_pending_submit: float = float("inf")

    @property
    def total_demand(self) -> int:
        """Containers the tenant could use right now."""
        return self.runnable + self.running


class DemandKernel(NamedTuple):
    """One pool's allocation as a pure function of total demands.

    Resolved by :meth:`SchedulingPolicy.demand_kernel` for a fixed
    tenant list, so positions stand for tenants.

    Attributes:
        shares: ``shares(active, demands)`` — target allocations aligned
            with ``active`` (ascending tenant positions), given those
            tenants' total demands.
        saturation: Per tenant position, the demand beyond which more
            demand changes no tenant's share (its effective cap):
            ``shares`` is unchanged when every demand is replaced by
            ``min(demand, saturation)``, so callers may memoize on the
            clamped vector.
    """

    shares: Callable[[Sequence[int], Sequence[int]], list[int]]
    saturation: Sequence[int]


class SchedulingPolicy(ABC):
    """Maps (pool state, RM config) to per-tenant target allocations."""

    @abstractmethod
    def allocate(
        self,
        pool: str,
        capacity: int,
        demands: Sequence[TenantDemand],
        config: RMConfig,
    ) -> dict[str, int]:
        """Target integer allocation per tenant; sums to <= capacity."""

    def fair_entitlements(
        self,
        pool: str,
        capacity: int,
        demands: Sequence[TenantDemand],
        config: RMConfig,
    ) -> dict[str, int]:
        """Entitlements used for preemption decisions.

        Defaults to the allocation itself; the fair policy overrides
        nothing because its targets *are* the fair shares.
        """
        return self.allocate(pool, capacity, demands, config)

    def demand_kernel(
        self,
        pool: str,
        capacity: int,
        tenants: Sequence[str],
        config: RMConfig,
    ) -> DemandKernel | None:
        """:meth:`allocate` for one pool with the configuration resolved once.

        A policy whose targets depend on the tenants' demands only
        through ``total_demand`` returns a :class:`DemandKernel` over
        ``tenants`` (sorted names): the same arithmetic as
        :meth:`allocate` on lists, with every per-tenant setting read
        from ``config`` up front.  The schedule predictor then caches
        targets per demand vector and leaves a pool alone at instants
        that do not touch it.  ``None`` (the default) says the targets
        depend on more — FIFO reads queue ages — so the predictor calls
        :meth:`allocate` for every pool at every instant.
        """
        return None


class FairSharePolicy(SchedulingPolicy):
    """Weighted max-min fair scheduler with min/max limits (Section 3.2)."""

    def allocate(
        self,
        pool: str,
        capacity: int,
        demands: Sequence[TenantDemand],
        config: RMConfig,
    ) -> dict[str, int]:
        demand_map = {d.tenant: d.total_demand for d in demands}
        weights = {d.tenant: config.tenant(d.tenant).weight for d in demands}
        mins = {d.tenant: config.tenant(d.tenant).min_for(pool) for d in demands}
        maxs = {
            d.tenant: config.tenant(d.tenant).max_for(pool, capacity)
            for d in demands
        }
        return fair_shares(capacity, demand_map, weights, mins, maxs)

    def demand_kernel(
        self,
        pool: str,
        capacity: int,
        tenants: Sequence[str],
        config: RMConfig,
    ) -> DemandKernel:
        settings = [config.tenant(t) for t in tenants]
        weights = [s.weight for s in settings]
        mins = [s.min_for(pool) for s in settings]
        maxs = [s.max_for(pool, capacity) for s in settings]

        def shares(active: Sequence[int], demands: Sequence[int]) -> list[int]:
            return fair_share_counts(
                capacity,
                demands,
                [weights[i] for i in active],
                [mins[i] for i in active],
                [maxs[i] for i in active],
            )

        return DemandKernel(shares, maxs)


class FifoPolicy(SchedulingPolicy):
    """First-in-first-out across tenants (no fairness).

    Tenants are served in order of their oldest pending work; each takes
    as much as its demand (and max limit) allows before the next is
    considered.  Models the "low-priority tenant who submitted tasks
    earlier ... can cause the high-priority tenant to miss deadlines"
    pathology the paper motivates preemption with.
    """

    def allocate(
        self,
        pool: str,
        capacity: int,
        demands: Sequence[TenantDemand],
        config: RMConfig,
    ) -> dict[str, int]:
        order = sorted(
            demands,
            key=lambda d: (
                min(d.oldest_pending_submit, 0.0 if d.running else float("inf")),
                d.tenant,
            ),
        )
        remaining = capacity
        alloc: dict[str, int] = {}
        for d in order:
            cap_t = config.tenant(d.tenant).max_for(pool, capacity)
            take = min(d.total_demand, cap_t, remaining)
            alloc[d.tenant] = take
            remaining -= take
        return alloc


class CapacityPolicy(SchedulingPolicy):
    """Capacity-scheduler style: fixed fractions with elastic spillover.

    Each tenant owns ``fraction * capacity`` containers; unused capacity
    spills over to tenants with outstanding demand proportionally to
    their fractions.  Implemented as weighted max-min with floors at the
    owned capacity, which is the fair scheduler's semantics with
    ``min_share = owned`` and ``weight = fraction``.
    """

    def __init__(self, fractions: Mapping[str, float]):
        total = sum(fractions.values())
        if total <= 0:
            raise ValueError("capacity fractions must sum to a positive value")
        self._fractions = {t: f / total for t, f in fractions.items()}

    def allocate(
        self,
        pool: str,
        capacity: int,
        demands: Sequence[TenantDemand],
        config: RMConfig,
    ) -> dict[str, int]:
        demand_map = {d.tenant: d.total_demand for d in demands}
        weights = {
            d.tenant: self._fractions.get(d.tenant, 1e-6) for d in demands
        }
        mins = {
            d.tenant: int(self._fractions.get(d.tenant, 0.0) * capacity)
            for d in demands
        }
        maxs = {
            d.tenant: config.tenant(d.tenant).max_for(pool, capacity)
            for d in demands
        }
        # Floors may exceed caps for idle tenants; clip to demand first.
        mins = {t: min(mins[t], demand_map[t]) for t in mins}
        return fair_shares(capacity, demand_map, weights, mins, maxs)

    def demand_kernel(
        self,
        pool: str,
        capacity: int,
        tenants: Sequence[str],
        config: RMConfig,
    ) -> DemandKernel:
        weights = [self._fractions.get(t, 1e-6) for t in tenants]
        owned = [int(self._fractions.get(t, 0.0) * capacity) for t in tenants]
        maxs = [config.tenant(t).max_for(pool, capacity) for t in tenants]

        def shares(active: Sequence[int], demands: Sequence[int]) -> list[int]:
            return fair_share_counts(
                capacity,
                demands,
                [weights[i] for i in active],
                [min(owned[i], d) for i, d in zip(active, demands)],
                [maxs[i] for i in active],
            )

        return DemandKernel(shares, maxs)
