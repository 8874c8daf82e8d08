"""Unit tests for instantaneous scheduling policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rm.config import RMConfig, TenantConfig
from repro.rm.policies import (
    CapacityPolicy,
    FairSharePolicy,
    FifoPolicy,
    TenantDemand,
)


def demand(tenant, runnable, running=0, oldest=0.0):
    return TenantDemand(
        tenant=tenant,
        runnable=runnable,
        running=running,
        oldest_pending_submit=oldest,
    )


class TestFairSharePolicy:
    def test_weighted_split(self):
        cfg = RMConfig(
            {"A": TenantConfig(weight=1.0), "B": TenantConfig(weight=3.0)}
        )
        alloc = FairSharePolicy().allocate(
            "slots", 8, [demand("A", 10), demand("B", 10)], cfg
        )
        assert alloc == {"A": 2, "B": 6}

    def test_max_share_enforced(self):
        cfg = RMConfig(
            {
                "A": TenantConfig(max_share={"slots": 2}),
                "B": TenantConfig(),
            }
        )
        alloc = FairSharePolicy().allocate(
            "slots", 8, [demand("A", 10), demand("B", 10)], cfg
        )
        assert alloc["A"] == 2
        assert alloc["B"] == 6

    def test_min_share_enforced(self):
        cfg = RMConfig(
            {
                "A": TenantConfig(min_share={"slots": 6}),
                "B": TenantConfig(),
            }
        )
        alloc = FairSharePolicy().allocate(
            "slots", 8, [demand("A", 10), demand("B", 10)], cfg
        )
        assert alloc["A"] >= 6

    def test_running_counts_as_demand(self):
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig()})
        alloc = FairSharePolicy().allocate(
            "slots", 8, [demand("A", 0, running=8), demand("B", 8)], cfg
        )
        # Both demand 8; fair split is 4/4 even though A holds everything.
        assert alloc == {"A": 4, "B": 4}


class TestFifoPolicy:
    def test_earliest_first(self):
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig()})
        alloc = FifoPolicy().allocate(
            "slots",
            8,
            [demand("A", 10, oldest=100.0), demand("B", 10, oldest=5.0)],
            cfg,
        )
        assert alloc["B"] == 8
        assert alloc["A"] == 0

    def test_leftovers_flow_to_later_tenants(self):
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig()})
        alloc = FifoPolicy().allocate(
            "slots",
            8,
            [demand("A", 3, oldest=1.0), demand("B", 10, oldest=2.0)],
            cfg,
        )
        assert alloc == {"A": 3, "B": 5}

    def test_max_limit_respected(self):
        cfg = RMConfig({"A": TenantConfig(max_share={"slots": 4}), "B": TenantConfig()})
        alloc = FifoPolicy().allocate(
            "slots", 8, [demand("A", 10, oldest=1.0), demand("B", 10, oldest=2.0)], cfg
        )
        assert alloc == {"A": 4, "B": 4}


class TestCapacityPolicy:
    def test_owned_fractions(self):
        policy = CapacityPolicy({"A": 0.75, "B": 0.25})
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig()})
        alloc = policy.allocate("slots", 8, [demand("A", 10), demand("B", 10)], cfg)
        assert alloc == {"A": 6, "B": 2}

    def test_spillover_when_owner_idle(self):
        policy = CapacityPolicy({"A": 0.75, "B": 0.25})
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig()})
        alloc = policy.allocate("slots", 8, [demand("A", 1), demand("B", 10)], cfg)
        assert alloc == {"A": 1, "B": 7}

    def test_fractions_normalized(self):
        policy = CapacityPolicy({"A": 3.0, "B": 1.0})
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig()})
        alloc = policy.allocate("slots", 8, [demand("A", 10), demand("B", 10)], cfg)
        assert alloc == {"A": 6, "B": 2}

    def test_zero_fractions_rejected(self):
        with pytest.raises(ValueError):
            CapacityPolicy({"A": 0.0})

    def test_fair_entitlements_defaults_to_allocation(self):
        policy = CapacityPolicy({"A": 1.0})
        cfg = RMConfig({"A": TenantConfig()})
        ents = policy.fair_entitlements("slots", 4, [demand("A", 10)], cfg)
        assert ents == {"A": 4}


TENANTS = ["A", "B", "C", "D"]


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 40),
    totals=st.lists(st.integers(0, 60), min_size=4, max_size=4),
    weights=st.lists(st.floats(0.1, 8.0), min_size=4, max_size=4),
    maxs=st.lists(st.integers(1, 40), min_size=4, max_size=4),
    mins=st.lists(st.integers(0, 40), min_size=4, max_size=4),
    capacity_policy=st.booleans(),
)
def test_demand_kernel_is_allocate_on_lists(
    capacity, totals, weights, maxs, mins, capacity_policy
):
    """The kernel the predictor caches equals ``allocate`` on every
    vector, and demand beyond the saturation point changes nothing."""
    cfg = RMConfig(
        {
            t: TenantConfig(
                weight=w, min_share={"slots": min(lo, hi)}, max_share={"slots": hi}
            )
            for t, w, lo, hi in zip(TENANTS[:3], weights, mins, maxs)
        }  # "D" falls back to the default settings
    )
    policy = (
        CapacityPolicy(dict(zip(TENANTS[1:], weights)))
        if capacity_policy
        else FairSharePolicy()
    )
    active = [i for i, total in enumerate(totals) if total]
    kernel = policy.demand_kernel("slots", capacity, TENANTS, cfg)
    expected = policy.allocate(
        "slots",
        capacity,
        [demand(TENANTS[i], totals[i] // 2, totals[i] - totals[i] // 2) for i in active],
        cfg,
    )
    shares = kernel.shares(active, [totals[i] for i in active])
    assert shares == [expected[TENANTS[i]] for i in active]
    clamped = [min(totals[i], kernel.saturation[i]) for i in active]
    assert kernel.shares(active, clamped) == shares


def test_fifo_has_no_demand_kernel():
    cfg = RMConfig({"A": TenantConfig()})
    assert FifoPolicy().demand_kernel("slots", 4, ["A"], cfg) is None
