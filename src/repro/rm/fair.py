"""Weighted max-min fair allocation with minimum/maximum limits.

Implements the allocation semantics of Section 3.2's worked examples:

* shares 1:2:3 over 12 containers with full demand -> 2, 4, 6;
* tenant C idle -> A and B get 4 and 8 (unused quota redistributed in
  proportion to the remaining tenants' shares);
* max limit 3 on C -> 3, 6, 3.

The continuous solution is a weighted water-fill; integer containers are
then assigned by largest-remainder rounding that respects each tenant's
bounds.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence


def water_fill(
    capacity: float,
    weights: Sequence[float],
    floors: Sequence[float],
    ceilings: Sequence[float],
) -> list[float]:
    """Continuous weighted max-min allocation over aligned sequences.

    Finds the water level ``lam`` such that tenant ``i`` receives
    ``clamp(lam * weights[i], floors[i], ceilings[i])`` and the total
    equals ``min(capacity, sum(ceilings))``.  Floors are assumed
    feasible (``sum(floors) <= capacity``); callers pre-scale them
    otherwise.  This is the one fair-share arithmetic: sums run in
    sequence order, so equal inputs in equal order give bit-equal
    floats whichever API they came through.
    """
    if not weights:
        return []
    for i, (w, lo, hi) in enumerate(zip(weights, floors, ceilings)):
        if w < 0:
            raise ValueError(f"negative weight at position {i}")
        if lo > hi:
            raise ValueError(f"floor above ceiling at position {i}")
    target = min(capacity, sum(ceilings))
    total_floor = sum(floors)
    if total_floor > capacity + 1e-9:
        raise ValueError(
            f"floors sum to {total_floor}, exceeding capacity {capacity}"
        )
    if target <= total_floor:
        return list(floors)

    def allocated(lam: float) -> float:
        total = 0.0
        for w, lo, hi in zip(weights, floors, ceilings):
            value = lam * w
            if value < lo:
                value = lo
            elif value > hi:
                value = hi
            total += value
        return total

    # The allocation is a piecewise-linear non-decreasing function of
    # the water level lam with breakpoints where a tenant enters or
    # leaves its clamp; walk the (at most 2n) segments and interpolate
    # exactly instead of bisecting.
    breakpoints = {0.0}
    for w, lo, hi in zip(weights, floors, ceilings):
        if w > 0:
            breakpoints.add(lo / w)
            if math.isfinite(hi):
                breakpoints.add(hi / w)
    levels = sorted(breakpoints)

    lam = levels[-1]
    reached = False
    prev_level, prev_alloc = levels[0], allocated(levels[0])
    if prev_alloc >= target:
        lam, reached = prev_level, True
    else:
        for level in levels[1:]:
            alloc = allocated(level)
            if alloc >= target:
                # Linear on this segment: interpolate the exact level.
                if alloc > prev_alloc:
                    lam = prev_level + (target - prev_alloc) * (
                        level - prev_level
                    ) / (alloc - prev_alloc)
                else:
                    lam = level
                reached = True
                break
            prev_level, prev_alloc = level, alloc
    if not reached:
        # Beyond the last breakpoint only unbounded-ceiling tenants grow.
        slope = sum(
            w for w, hi in zip(weights, ceilings) if w > 0 and math.isinf(hi)
        )
        if slope > 0:
            lam = prev_level + (target - prev_alloc) / slope
        # else: target is unreachable (zero-weight floors); keep lam at
        # the last breakpoint, allocating as much as the clamps allow.
    return [
        min(max(lam * w, lo), hi) for w, lo, hi in zip(weights, floors, ceilings)
    ]


def weighted_water_fill(
    capacity: float,
    weights: Mapping[str, float],
    floors: Mapping[str, float],
    ceilings: Mapping[str, float],
) -> dict[str, float]:
    """:func:`water_fill` keyed by tenant name (tenants in sorted order).

    Missing floors default to 0, missing ceilings to unbounded.
    """
    tenants = sorted(weights)
    levels = water_fill(
        capacity,
        [weights[t] for t in tenants],
        [floors.get(t, 0.0) for t in tenants],
        [ceilings.get(t, math.inf) for t in tenants],
    )
    return dict(zip(tenants, levels))


def fair_share_counts(
    capacity: int,
    demands: Sequence[int],
    weights: Sequence[float],
    min_shares: Sequence[int],
    max_shares: Sequence[int],
) -> list[int]:
    """Integer weighted max-min fair shares over aligned sequences.

    The list form of :func:`fair_shares` (which documents the
    semantics): position ``i`` of every argument describes one tenant,
    and rounding ties break towards the earlier position — pass tenants
    in sorted-name order to match the dict API bit for bit.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    ceilings: list[float] = []
    floors: list[float] = []
    for demand, low, high in zip(demands, min_shares, max_shares):
        cap_t = min(max(int(demand), 0), int(high))
        ceilings.append(float(cap_t))
        floors.append(float(min(int(low), cap_t)))
    total_floor = sum(floors)
    if total_floor > capacity:
        # Guaranteed minimums oversubscribe the pool: scale proportionally
        # (the "if all SLOs cannot be satisfied" degenerate case at the
        # allocation layer).
        scale = capacity / total_floor
        floors = [f * scale for f in floors]
    continuous = water_fill(
        float(capacity), [float(w) for w in weights], floors, ceilings
    )
    return _round_preserving_sum(continuous, ceilings)


def fair_shares(
    capacity: int,
    demands: Mapping[str, int],
    weights: Mapping[str, float] | None = None,
    min_shares: Mapping[str, int] | None = None,
    max_shares: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Integer weighted max-min fair shares for one container pool.

    Args:
        capacity: Total containers in the pool.
        demands: Runnable-container demand per tenant; tenants with zero
            demand receive zero (their quota redistributes).
        weights: Resource-share weights (default 1 each).
        min_shares: Guaranteed minimums (clipped to demand; scaled down
            proportionally if collectively infeasible).
        max_shares: Hard per-tenant caps.

    Returns:
        Integer allocation per tenant summing to
        ``min(capacity, total effective demand)``.
    """
    tenants = sorted(demands)
    weights = weights or {}
    min_shares = min_shares or {}
    max_shares = max_shares or {}
    counts = fair_share_counts(
        capacity,
        [demands[t] for t in tenants],
        [weights.get(t, 1.0) for t in tenants],
        [min_shares.get(t, 0) for t in tenants],
        [max_shares.get(t, capacity) for t in tenants],
    )
    return dict(zip(tenants, counts))


def _round_preserving_sum(
    continuous: Sequence[float], ceilings: Sequence[float]
) -> list[int]:
    """Largest-remainder rounding that respects the ceilings.

    The integer total equals ``round(sum(continuous))`` (the water-fill
    already made that ``min(capacity, total demand)`` up to float
    error).  Floors may be fractional after scaling, so integer
    allocations only need to respect ceilings here.
    """
    count = len(continuous)
    alloc = [math.floor(v + 1e-9) for v in continuous]
    leftover = round(sum(continuous)) - sum(alloc)
    if leftover > 0:
        order = sorted(
            range(count),
            key=lambda i: (continuous[i] - alloc[i], continuous[i]),
            reverse=True,
        )
        idx = 0
        while leftover > 0 and idx < 10 * count + 10:
            i = order[idx % count]
            if alloc[i] + 1 <= ceilings[i] + 1e-9:
                alloc[i] += 1
                leftover -= 1
            idx += 1
    elif leftover < 0:  # pragma: no cover - floor() cannot overshoot
        order = sorted(range(count), key=lambda i: continuous[i] - alloc[i])
        idx = 0
        while leftover < 0 and idx < 10 * count + 10:
            i = order[idx % count]
            if alloc[i] > 0:
                alloc[i] -= 1
                leftover += 1
            idx += 1
    return alloc
