"""Unit and property tests for weighted max-min fair allocation.

The three worked examples of Section 3.2 are reproduced verbatim, plus
hypothesis properties: allocations never exceed capacity, respect
per-tenant bounds, and exhaust ``min(capacity, total demand)``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rm.fair import (
    fair_share_counts,
    fair_shares,
    water_fill,
    weighted_water_fill,
)


class TestPaperExamples:
    """Shares 1:2:3 over 12 containers (Section 3.2)."""

    WEIGHTS = {"A": 1.0, "B": 2.0, "C": 3.0}

    def test_all_busy(self):
        alloc = fair_shares(12, {"A": 99, "B": 99, "C": 99}, self.WEIGHTS)
        assert alloc == {"A": 2, "B": 4, "C": 6}

    def test_idle_tenant_redistributes_proportionally(self):
        alloc = fair_shares(12, {"A": 99, "B": 99, "C": 0}, self.WEIGHTS)
        assert alloc == {"A": 4, "B": 8, "C": 0}

    def test_max_limit_caps_and_redistributes(self):
        alloc = fair_shares(
            12, {"A": 99, "B": 99, "C": 99}, self.WEIGHTS, max_shares={"C": 3}
        )
        assert alloc == {"A": 3, "B": 6, "C": 3}


class TestMinShares:
    def test_min_share_honored(self):
        alloc = fair_shares(
            10,
            {"A": 99, "B": 99},
            {"A": 1.0, "B": 1.0},
            min_shares={"A": 8},
        )
        assert alloc["A"] >= 8

    def test_min_clipped_to_demand(self):
        alloc = fair_shares(
            10, {"A": 2, "B": 99}, {"A": 1.0, "B": 1.0}, min_shares={"A": 8}
        )
        assert alloc["A"] == 2
        assert alloc["B"] == 8

    def test_oversubscribed_mins_scale_down(self):
        alloc = fair_shares(
            10,
            {"A": 99, "B": 99},
            min_shares={"A": 8, "B": 8},
        )
        assert sum(alloc.values()) == 10
        # Symmetric: both scaled equally.
        assert alloc["A"] == alloc["B"] == 5


class TestEdgeCases:
    def test_zero_capacity(self):
        assert fair_shares(0, {"A": 5}) == {"A": 0}

    def test_no_tenants(self):
        assert fair_shares(10, {}) == {}

    def test_demand_below_capacity(self):
        alloc = fair_shares(10, {"A": 2, "B": 3})
        assert alloc == {"A": 2, "B": 3}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            fair_shares(-1, {"A": 1})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fair_shares(5, {"A": 5}, {"A": -1.0})

    def test_zero_weight_tenant_gets_leftovers_only(self):
        alloc = fair_shares(10, {"A": 99, "B": 99}, {"A": 0.0, "B": 1.0})
        assert alloc["B"] == 10
        assert alloc["A"] == 0


class TestWaterFill:
    def test_floor_above_ceiling_rejected(self):
        with pytest.raises(ValueError):
            weighted_water_fill(10, {"A": 1.0}, {"A": 5.0}, {"A": 2.0})

    def test_floors_exceed_capacity_rejected(self):
        with pytest.raises(ValueError, match="exceeding capacity"):
            weighted_water_fill(4, {"A": 1.0, "B": 1.0}, {"A": 3.0, "B": 3.0}, {"A": 9.0, "B": 9.0})

    def test_proportional_no_constraints(self):
        alloc = weighted_water_fill(
            9.0, {"A": 1.0, "B": 2.0}, {}, {"A": math.inf, "B": math.inf}
        )
        assert alloc["A"] == pytest.approx(3.0, abs=1e-6)
        assert alloc["B"] == pytest.approx(6.0, abs=1e-6)


tenant_names = st.lists(
    st.sampled_from(["A", "B", "C", "D", "E"]), min_size=1, max_size=5, unique=True
)


@settings(max_examples=120, deadline=None)
@given(
    names=tenant_names,
    capacity=st.integers(0, 64),
    data=st.data(),
)
def test_fair_share_invariants(names, capacity, data):
    """Core invariants of the integer fair allocation."""
    demands = {n: data.draw(st.integers(0, 40), label=f"demand-{n}") for n in names}
    weights = {
        n: data.draw(st.floats(0.1, 8.0), label=f"weight-{n}") for n in names
    }
    max_shares = {
        n: data.draw(st.integers(1, 64), label=f"max-{n}") for n in names
    }
    min_shares = {
        n: data.draw(st.integers(0, max_shares[n]), label=f"min-{n}") for n in names
    }
    alloc = fair_shares(capacity, demands, weights, min_shares, max_shares)

    # 1. Exactly the feasible total is allocated.
    effective_demand = sum(min(demands[n], max_shares[n]) for n in names)
    assert sum(alloc.values()) == min(capacity, effective_demand)
    # 2. Per-tenant bounds.
    for n in names:
        assert 0 <= alloc[n] <= min(demands[n], max_shares[n])
    # 3. Non-negative integers.
    assert all(isinstance(v, int) and v >= 0 for v in alloc.values())


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 64),
    w_a=st.floats(0.1, 8.0),
    w_b=st.floats(0.1, 8.0),
)
def test_weight_monotonicity(capacity, w_a, w_b):
    """With saturating demand and no limits, higher weight never gets less."""
    alloc = fair_shares(capacity, {"A": 1000, "B": 1000}, {"A": w_a, "B": w_b})
    if w_a > w_b:
        assert alloc["A"] >= alloc["B"] - 1  # integer rounding slack
    elif w_b > w_a:
        assert alloc["B"] >= alloc["A"] - 1


@settings(max_examples=200, deadline=None)
@given(
    names=tenant_names,
    capacity=st.integers(0, 64),
    data=st.data(),
)
def test_list_core_and_dict_api_are_bit_equal(names, capacity, data):
    """One arithmetic behind both APIs: equal, not approximately equal.

    Covers zero-demand and zero-weight tenants, the single-tenant case
    and minimums that oversubscribe the pool (scaled floors).
    """
    names = sorted(names)
    demands = [data.draw(st.integers(0, 40), label=f"demand-{n}") for n in names]
    weights = [
        data.draw(st.one_of(st.just(0.0), st.floats(0.1, 8.0)), label=f"weight-{n}")
        for n in names
    ]
    maxs = [data.draw(st.integers(1, 64), label=f"max-{n}") for n in names]
    mins = [data.draw(st.integers(0, 64), label=f"min-{n}") for n in names]

    counts = fair_share_counts(capacity, demands, weights, mins, maxs)
    by_name = fair_shares(
        capacity,
        dict(zip(names, demands)),
        dict(zip(names, weights)),
        dict(zip(names, mins)),
        dict(zip(names, maxs)),
    )
    assert list(by_name.items()) == list(zip(names, counts))

    # The continuous stage, on the same (feasible) floors and ceilings.
    ceilings = [float(min(d, hi)) for d, hi in zip(demands, maxs)]
    floors = [float(min(lo, c)) for lo, c in zip(mins, ceilings)]
    if sum(floors) > capacity:
        floors = [f * capacity / sum(floors) for f in floors]
    levels = water_fill(float(capacity), weights, floors, ceilings)
    named = weighted_water_fill(
        float(capacity),
        dict(zip(names, weights)),
        dict(zip(names, floors)),
        dict(zip(names, ceilings)),
    )
    assert [(n, v.hex()) for n, v in named.items()] == [
        (n, v.hex()) for n, v in zip(names, levels)
    ]
