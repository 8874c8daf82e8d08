"""Unit tests for starvation clocks and victim selection."""

import math
from dataclasses import dataclass

import pytest

from repro.rm.preemption import StarvationClock, select_victims


@dataclass
class FakeTask:
    tenant: str
    start_time: float
    containers: int = 1


class TestStarvationClock:
    def test_starts_when_below_entitlement_with_demand(self):
        clock = StarvationClock()
        clock.step(
            now=10.0,
            allocation=1,
            demand=5,
            min_entitlement=3,
            fair_entitlement=4,
            min_timeout=60.0,
            fair_timeout=120.0,
        )
        assert clock.below_min_since == 10.0
        assert clock.below_fair_since == 10.0

    def test_resets_when_satisfied(self):
        clock = StarvationClock()
        clock.step(10.0, 1, 5, 3, 4, 60.0, 120.0)
        assert clock.step(20.0, 4, 5, 3, 4, 60.0, 120.0) == (None, math.inf)
        assert clock.below_min_since is None
        assert clock.below_fair_since is None

    def test_no_starvation_without_demand(self):
        clock = StarvationClock()
        clock.step(10.0, 1, 1, 3, 4, 60.0, 120.0)  # demand == allocation
        assert clock.below_min_since is None

    def test_clock_start_is_sticky(self):
        clock = StarvationClock()
        clock.step(10.0, 1, 5, 3, 4, 60.0, 120.0)
        clock.step(30.0, 1, 5, 3, 4, 60.0, 120.0)
        assert clock.below_min_since == 10.0

    def test_next_deadline(self):
        def deadline(min_timeout, fair_timeout):
            return StarvationClock().step(10.0, 0, 5, 3, 4, min_timeout, fair_timeout)[1]

        assert deadline(60.0, 120.0) == pytest.approx(70.0)
        assert deadline(math.inf, 120.0) == pytest.approx(130.0)
        assert deadline(math.inf, math.inf) == math.inf
        # Only a running clock has a deadline: fair-only starvation.
        assert StarvationClock().step(10.0, 3, 5, 3, 4, 60.0, 120.0)[1] == 130.0

    def test_triggered_level_prefers_min(self):
        def fired(now, min_timeout, fair_timeout):
            clock = StarvationClock()
            clock.step(0.0, 0, 5, 3, 4, min_timeout, fair_timeout)
            return clock.step(now, 0, 5, 3, 4, min_timeout, fair_timeout)[0]

        assert fired(59.0, 60.0, 60.0) is None
        assert fired(60.0, 60.0, 60.0) == "min"
        assert fired(60.0, math.inf, 60.0) == "fair"

    def test_fired_level_restarts_and_sets_next_deadline(self):
        clock = StarvationClock()
        clock.step(0.0, 0, 5, 3, 4, 60.0, 90.0)
        # min fires at 60 and restarts; fair (due at 90) is untouched.
        assert clock.step(60.0, 0, 5, 3, 4, 60.0, 90.0) == ("min", 90.0)
        assert clock.below_min_since == 60.0
        assert clock.below_fair_since == 0.0
        # fair fires at 90; min (restarted at 60) is next due at 120.
        assert clock.step(90.0, 0, 5, 3, 4, 60.0, 90.0) == ("fair", 120.0)
        assert clock.below_fair_since == 90.0

    def test_fire_false_only_advances(self):
        clock = StarvationClock()
        clock.step(0.0, 0, 5, 3, 4, 60.0, 60.0)
        assert clock.step(100.0, 0, 5, 3, 4, 60.0, 60.0, fire=False) == (None, 60.0)
        assert clock.below_min_since == 0.0


class TestVictimSelection:
    def test_most_recent_first(self):
        running = [
            FakeTask("A", 0.0),
            FakeTask("A", 50.0),
            FakeTask("A", 100.0),
        ]
        victims = select_victims(
            running,
            needed=2,
            allocations={"A": 3},
            fair_entitlements={"A": 1},
        )
        assert [v.start_time for v in victims] == [100.0, 50.0]

    def test_never_digs_below_fair_share(self):
        running = [FakeTask("A", t) for t in (0.0, 1.0, 2.0)]
        victims = select_victims(
            running,
            needed=5,
            allocations={"A": 3},
            fair_entitlements={"A": 2},
        )
        assert len(victims) == 1  # A's surplus is only 1

    def test_protected_tenant_spared(self):
        running = [FakeTask("A", 0.0), FakeTask("B", 1.0)]
        victims = select_victims(
            running,
            needed=2,
            allocations={"A": 1, "B": 1},
            fair_entitlements={"A": 0, "B": 0},
            protected={"B"},
        )
        assert all(v.tenant == "A" for v in victims)

    def test_zero_needed(self):
        assert select_victims([FakeTask("A", 0.0)], 0, {"A": 1}, {"A": 0}) == []

    def test_multi_container_tasks(self):
        running = [FakeTask("A", 10.0, containers=3), FakeTask("A", 5.0, containers=1)]
        victims = select_victims(
            running, needed=2, allocations={"A": 4}, fair_entitlements={"A": 0}
        )
        # The 3-container recent task alone frees enough.
        assert victims[0].containers == 3

    def test_task_bigger_than_surplus_skipped(self):
        running = [FakeTask("A", 10.0, containers=3)]
        victims = select_victims(
            running, needed=3, allocations={"A": 3}, fair_entitlements={"A": 1}
        )
        # Surplus 2 < task size 3: cannot kill without digging below fair.
        assert victims == []
