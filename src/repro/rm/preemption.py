"""Preemption machinery: starvation clocks and victim selection.

Section 3.2 describes two levels of preemption timeouts: a tenant whose
allocation has stayed below its configured *minimum limit* for the
min-share timeout, or below its *fair share* for the fair-share timeout,
may preempt tasks from tenants that hold resources rightly owed to it.
Preemption is by killing the most recently launched tasks of over-share
tenants (Figure 1's semantics), which wastes their unfinished work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence


@dataclass
class StarvationClock:
    """Tracks how long a tenant has been starving at each level.

    A level's clock starts when the tenant first drops below the
    corresponding entitlement *while having unmet demand*, and resets when
    the entitlement is met (or demand vanishes).
    """

    below_min_since: float | None = None
    below_fair_since: float | None = None

    def step(
        self,
        now: float,
        allocation: int,
        demand: int,
        min_entitlement: int,
        fair_entitlement: int,
        min_timeout: float,
        fair_timeout: float,
        fire: bool = True,
    ) -> tuple[str | None, float]:
        """Advance both clocks to ``now``; fire at most one expired level.

        A level's clock runs while the tenant has unmet demand and holds
        less than that level's entitlement, and resets otherwise.  With
        ``fire``, an expired level — ``"min"`` (the more critical) before
        ``"fair"`` — is returned and its clock restarts at ``now``: one
        kill volley per timeout period.  An infinite timeout never
        expires.  Returns the fired level (or ``None``) and the earliest
        instant a level could expire next (``inf`` if none can).
        """
        level = None
        deadline = math.inf
        if demand <= allocation:
            self.below_min_since = self.below_fair_since = None
            return level, deadline
        if allocation < min_entitlement:
            since = self.below_min_since
            if since is None:
                since = self.below_min_since = now
            if min_timeout != math.inf:
                deadline = since + min_timeout
                if fire and now >= deadline - 1e-9:
                    level = "min"
                    self.below_min_since = now
                    deadline = now + min_timeout
        else:
            self.below_min_since = None
        if allocation < fair_entitlement:
            since = self.below_fair_since
            if since is None:
                since = self.below_fair_since = now
            if fair_timeout != math.inf:
                due = since + fair_timeout
                if fire and level is None and now >= due - 1e-9:
                    level = "fair"
                    self.below_fair_since = now
                    due = now + fair_timeout
                if due < deadline:
                    deadline = due
        else:
            self.below_fair_since = None
        return level, deadline


class RunningTask(Protocol):
    """Minimal view of a running task that victim selection needs."""

    tenant: str
    start_time: float
    containers: int


def select_victims(
    running: Iterable[RunningTask],
    needed: int,
    allocations: Mapping[str, int],
    fair_entitlements: Mapping[str, int],
    protected: frozenset[str] | set[str] = frozenset(),
) -> list[RunningTask]:
    """Pick tasks to kill to free ``needed`` containers.

    Only tenants holding more than their fair entitlement lose tasks, and
    each loses at most its surplus — preemption reclaims resources
    "rightly owed" to the starving tenant, never digs a victim below its
    own fair share.  Within the eligible set, the most recently launched
    tasks die first (minimizing wasted work per Figure 1's narrative).

    Args:
        running: Currently running tasks across all tenants.
        needed: Containers to free (non-negative).
        allocations: Current per-tenant allocation in this pool.
        fair_entitlements: Per-tenant fair entitlement in this pool.
        protected: Tenants exempt from preemption (e.g. the starving
            tenant itself).

    Returns:
        Tasks to kill, most recent first; may free fewer than ``needed``
        containers if surpluses are insufficient.
    """
    if needed <= 0:
        return []
    surplus: dict[str, int] = {}
    for tenant, alloc in allocations.items():
        if tenant in protected:
            continue
        surplus[tenant] = max(0, alloc - fair_entitlements.get(tenant, 0))
    candidates = sorted(
        (t for t in running if surplus.get(t.tenant, 0) > 0),
        key=lambda t: t.start_time,
        reverse=True,
    )
    victims: list[RunningTask] = []
    freed = 0
    for task in candidates:
        if freed >= needed:
            break
        if surplus.get(task.tenant, 0) < task.containers:
            continue
        victims.append(task)
        surplus[task.tenant] -= task.containers
        freed += task.containers
    return victims
