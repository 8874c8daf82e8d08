"""Tests for the online serving layer (events, ingest, daemon, replay)."""

import math

import numpy as np
import pytest

from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import (
    EventBus,
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    NodeLost,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.service.ingest import RollingWindow, stats_gap, window_drift
from repro.service.replay import (
    SCENARIOS,
    ScenarioReplayer,
    build_service,
    make_scenario,
)
from repro.workload.trace import JobRecord, TaskRecord


def _task(job_id, task_id, tenant, finish, duration, *, preempted=False, failed=False):
    start = finish - duration
    return TaskRecord(
        job_id=job_id,
        task_id=task_id,
        tenant=tenant,
        pool="map",
        stage="map",
        submit_time=max(start - 1.0, 0.0),
        start_time=start,
        finish_time=finish,
        preempted=preempted,
        failed=failed,
    )


def _job(job_id, tenant, submit, finish, deadline=None):
    return JobRecord(
        job_id=job_id,
        tenant=tenant,
        submit_time=submit,
        finish_time=finish,
        deadline=deadline,
    )


def _synthetic_events(seed=0, count=600, tenants=("A", "B")):
    """A deterministic, statistically varied telemetry stream."""
    rng = np.random.default_rng(seed)
    events = []
    t = 0.0
    for i in range(count):
        t += float(rng.exponential(20.0))
        tenant = tenants[i % len(tenants)]
        job_id = f"{tenant}-{i}"
        events.append(JobSubmitted(t, tenant=tenant, job_id=job_id))
        duration = float(rng.lognormal(3.0 + 0.5 * (i % 3), 0.8))
        finish = t + duration
        events.append(
            TaskCompleted(
                finish,
                record=_task(
                    job_id,
                    f"{job_id}/t0",
                    tenant,
                    finish,
                    duration,
                    preempted=(i % 17 == 0),
                    failed=(i % 23 == 0),
                ),
            )
        )
        events.append(
            JobCompleted(finish, record=_job(job_id, tenant, t, finish))
        )
    events.sort(key=lambda e: e.time)
    return events


class TestEventBus:
    def test_fifo_and_counters(self):
        bus = EventBus(maxlen=10)
        for i in range(3):
            assert bus.publish(Heartbeat(float(i)))
        assert len(bus) == 3
        assert bus.poll().time == 0.0
        assert [e.time for e in bus.drain()] == [1.0, 2.0]
        assert bus.published == 3

    def test_overflow_sheds_and_counts(self):
        bus = EventBus(maxlen=2)
        assert bus.publish(Heartbeat(0.0))
        assert bus.publish(Heartbeat(1.0))
        assert not bus.publish(Heartbeat(2.0))
        assert bus.dropped == 1
        assert len(bus) == 2

    def test_rejects_bad_events(self):
        with pytest.raises(ValueError):
            Heartbeat(-1.0)
        with pytest.raises(ValueError):
            Heartbeat(float("nan"))
        with pytest.raises(ValueError):
            EventBus(maxlen=0)


class TestRollingWindowIncremental:
    def test_incremental_matches_batch_recompute(self):
        """The acceptance property: snapshot == batch recompute <= 1e-9."""
        window = RollingWindow(600.0)
        for i, event in enumerate(_synthetic_events(seed=1)):
            window.ingest(event)
            if i % 97 == 0:
                assert stats_gap(window) < 1e-9
        assert window.tasks_retained < window.events_ingested  # eviction ran
        assert stats_gap(window) < 1e-9

    def test_incremental_matches_after_heavy_eviction(self):
        window = RollingWindow(50.0)  # tiny window: constant turnover
        for event in _synthetic_events(seed=2, count=400):
            window.ingest(event)
        assert window.tasks_retained < 50
        assert stats_gap(window) < 1e-9

    def test_snapshot_values(self):
        window = RollingWindow(100.0)
        window.ingest(JobSubmitted(10.0, tenant="A", job_id="a0"))
        window.ingest(
            TaskCompleted(30.0, record=_task("a0", "a0/t0", "A", 30.0, 20.0))
        )
        window.ingest(JobCompleted(30.0, record=_job("a0", "A", 10.0, 30.0)))
        stats = window.snapshot()["A"]
        assert stats.submitted == 1 and stats.jobs == 1 and stats.tasks == 1
        assert stats.arrival_rate == pytest.approx(1 / 100.0)
        assert stats.mean_response == pytest.approx(20.0)
        assert stats.log_duration_mean == pytest.approx(math.log(20.0))
        assert stats.log_duration_std == 0.0
        assert stats.duration_model().median == pytest.approx(20.0)

    def test_eviction_forgets_old_entries(self):
        window = RollingWindow(100.0)
        window.ingest(
            TaskCompleted(10.0, record=_task("a0", "a0/t0", "A", 10.0, 5.0))
        )
        window.advance(200.0)
        # A fully expired tenant is dropped entirely (bounded memory in
        # a long-running daemon), not kept around with zeroed stats.
        assert "A" not in window.tenants()
        assert window.snapshot() == {}

    def test_window_trace_reanchored(self):
        # The window must exceed typical response times, else every
        # completed job was submitted before the window opened and the
        # trace carries no job records.
        window = RollingWindow(500.0)
        for event in _synthetic_events(seed=3, count=100):
            window.ingest(event)
        trace = window.trace(capacity={"map": 8})
        assert trace.horizon <= 500.0 + 1e-9
        for rec in trace.task_records:
            assert 0.0 <= rec.submit_time <= rec.start_time <= rec.finish_time
        # Jobs submitted before the window opening are excluded (the QS
        # job set J_i), so response times are never truncated.
        assert 0 < len(trace.job_records) <= window.jobs_retained
        for jrec in trace.job_records:
            assert jrec.submit_time >= 0.0
        # The trace replays into a valid workload for the what-if model
        # (jobs with no completed task attempts cannot be replayed).
        workload = trace.to_workload()
        assert 0 < len(workload) <= len(trace.job_records)

    def test_rejects_control_events(self):
        window = RollingWindow(100.0)
        with pytest.raises(TypeError):
            window.ingest(TenantJoined(0.0, tenant="A"))


class TestWindowDrift:
    def test_identical_snapshots_have_zero_drift(self):
        window = RollingWindow(600.0)
        for event in _synthetic_events(seed=4, count=200):
            window.ingest(event)
        snap = window.snapshot()
        assert window_drift(snap, snap) == 0.0

    def test_rate_change_registers(self):
        window = RollingWindow(600.0)
        for event in _synthetic_events(seed=5, count=200):
            window.ingest(event)
        before = window.snapshot()
        # A burst of extra submissions shifts the arrival rate.
        t = window.now
        for i in range(50):
            window.ingest(JobSubmitted(t + i * 0.5, tenant="A", job_id=f"x{i}"))
        after = window.snapshot()
        assert window_drift(before, after) > 0.1

    def test_churn_is_infinite_drift(self):
        window = RollingWindow(600.0)
        window.ingest(JobSubmitted(1.0, tenant="A", job_id="a0"))
        before = window.snapshot()
        window.ingest(JobSubmitted(2.0, tenant="NEW", job_id="n0"))
        assert window_drift(before, window.snapshot()) == math.inf


class TestTempoService:
    def _service(self, **overrides) -> TempoService:
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        defaults = dict(
            window=600.0, retune_interval=300.0, drift_threshold=0.02,
            min_window_jobs=3,
        )
        defaults.update(overrides)
        return build_service(scenario, ServiceConfig(**defaults), seed=0)

    def test_retune_cadence(self):
        """One retune attempt per elapsed cadence interval."""
        service = self._service()
        for event in _synthetic_events(seed=7, count=500):
            service.process(event)
        assert service.decisions, "cadence never fired"
        times = [d.time for d in service.decisions]
        gaps = np.diff([0.0] + times)
        assert np.all(gaps >= 300.0 - 1e-9)
        assert service.retunes >= 1

    def test_sparse_window_skips(self):
        service = self._service(min_window_jobs=10_000)
        for event in _synthetic_events(seed=8, count=300):
            service.process(event)
        assert service.retunes == 0
        assert all(d.reason == "sparse" for d in service.decisions)

    def test_stability_guard_skips_when_stationary(self):
        """A huge drift threshold makes every post-initial attempt skip."""
        service = self._service(drift_threshold=1e9)
        for event in _synthetic_events(seed=9, count=500):
            service.process(event)
        retuned = [d for d in service.decisions if d.retuned]
        skipped = [d for d in service.decisions if d.reason == "stable"]
        assert len(retuned) == 1 and retuned[0].reason == "initial"
        assert skipped, "stability guard never engaged"
        assert all(d.drift < 1e9 for d in skipped)

    def test_zero_threshold_always_retunes(self):
        service = self._service(drift_threshold=0.0)
        for event in _synthetic_events(seed=10, count=500):
            service.process(event)
        assert service.skips == 0
        assert service.retunes == len(service.decisions)

    def test_node_loss_forces_retune(self):
        service = self._service(drift_threshold=1e9)
        events = _synthetic_events(seed=11, count=500)
        mid = events[len(events) // 2].time
        events.append(NodeLost(mid, pool="map", containers=4))
        events.sort(key=lambda e: e.time)
        for event in events:
            service.process(event)
        assert service.nodes_lost == 4
        assert any(d.reason == "forced" for d in service.decisions)

    def test_tenant_left_drops_window_state(self):
        service = self._service()
        for event in _synthetic_events(seed=12, count=200):
            service.process(event)
        assert "A" in service.window.tenants()
        service.process(TenantLeft(service.window.now, tenant="A"))
        assert "A" not in service.window.tenants()

    def test_rollback_restores_previous_config(self):
        service = self._service(drift_threshold=0.0)
        for event in _synthetic_events(seed=13, count=500):
            service.process(event)
        assert service.retunes >= 2
        history = service.config_history
        previous = history[-2].config
        restored = service.rollback()
        assert restored is previous
        assert service.rm_config is previous
        np.testing.assert_allclose(
            service.controller.x, service.controller.space.encode(previous)
        )

    def test_daemon_thread_drains_bus(self):
        service = self._service()
        events = _synthetic_events(seed=14, count=300)
        service.start()
        assert service.running
        for event in events:
            assert service.submit(event)
        service.stop()
        assert not service.running
        assert service.events_processed == len(events)
        assert stats_gap(service.window) < 1e-9

    def test_empty_window_never_retunes(self):
        """Even min_window_jobs=0 cannot tune from zero telemetry."""
        service = self._service(min_window_jobs=0)
        from repro.service.events import Heartbeat

        for i in range(10):
            service.process(Heartbeat(i * 400.0))
        assert service.retunes == 0
        assert all(d.reason == "sparse" for d in service.decisions)

    def test_quiesce_surfaces_dead_drain_thread(self):
        """A drain thread killed by an error must not make quiesce spin."""
        service = self._service()

        def boom(events):
            raise OSError("disk full")

        service.ingest_batch = boom  # instance attribute shadows the method
        service.start()
        service.submit(Heartbeat(1.0))
        with pytest.raises(RuntimeError, match="drain thread died"):
            service.quiesce()
        with pytest.raises(RuntimeError, match="drain thread died"):
            service.stop()
        assert not service.running  # cleanly stoppable after the error

    def test_submit_blocking_waits_for_room(self):
        """Control markers are never shed; they wait for the bus to drain."""
        import threading
        import time

        service = self._service(queue_capacity=1)
        assert service.submit(Heartbeat(1.0))  # bus now full
        assert not service.submit(Heartbeat(2.0))  # ordinary path sheds
        done: list[bool] = []
        publisher = threading.Thread(
            target=lambda: done.append(service.submit_blocking(Heartbeat(3.0)))
        )
        service.start()
        try:
            publisher.start()
            publisher.join(5.0)
            assert done == [True]
        finally:
            service.stop()
        assert service.events_processed == 2  # the shed heartbeat is gone

    def test_submit_blocking_requires_running_daemon(self):
        service = self._service(queue_capacity=1)
        assert service.submit(Heartbeat(1.0))
        with pytest.raises(RuntimeError, match="not running"):
            service.submit_blocking(Heartbeat(2.0))

    def test_quiesce_requires_running_daemon(self):
        service = self._service()
        with pytest.raises(RuntimeError, match="not running"):
            service.quiesce()

    def test_start_twice_rejected(self):
        service = self._service()
        service.start()
        try:
            with pytest.raises(RuntimeError):
                service.start()
        finally:
            service.stop()


class TestScenarios:
    def test_catalog_instantiates(self):
        for name in SCENARIOS:
            scenario = make_scenario(name, scale=1.0, horizon=1800.0)
            assert scenario.name == name
            assert scenario.horizon == 1800.0
            assert len(scenario.model.tenants) >= 2

    def test_flash_crowd_spikes(self):
        scenario = make_scenario("flash-crowd", scale=1.0, horizon=10_000.0)
        model = scenario.model.tenant_model("besteffort")
        inside = model.rate_pattern.factor(0.45 * 10_000.0)
        outside = model.rate_pattern.factor(0.0)
        assert inside == pytest.approx(5.0) and outside == pytest.approx(1.0)

    def test_churn_tenant_silent_outside_membership(self):
        scenario = make_scenario("tenant-churn", scale=1.0, horizon=10_000.0)
        model = scenario.model.tenant_model("batch")
        assert model.rate_pattern.factor(0.0) == 0.0
        assert model.rate_pattern.factor(0.5 * 10_000.0) == 1.0
        assert scenario.churn[0][2] is True and scenario.churn[1][2] is False

    def test_flash_failure_composes_surge_and_node_loss(self):
        """The compound scenario carries both stress signals at once."""
        scenario = make_scenario("flash-failure", scale=1.0, horizon=10_000.0)
        model = scenario.model.tenant_model("besteffort")
        inside = model.rate_pattern.factor(0.45 * 10_000.0)
        outside = model.rate_pattern.factor(0.0)
        assert inside == pytest.approx(5.0) and outside == pytest.approx(1.0)
        assert scenario.node_loss, "failure bursts missing"
        # At least one loss burst lands inside the surge window, so the
        # two signals genuinely interact.
        surge = (0.35 * 10_000.0, 0.55 * 10_000.0)
        assert any(surge[0] <= when < surge[1] for when, _, _ in scenario.node_loss)


class TestReplay:
    def _run(self, name, seed=0, transport="direct"):
        scenario = make_scenario(name, scale=1.0, horizon=1200.0)
        service = build_service(
            scenario,
            ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3),
            seed=seed,
        )
        return ScenarioReplayer(
            scenario, service, seed=seed, transport=transport
        ).run()

    def test_replay_end_to_end(self):
        summary = self._run("flash-crowd")
        assert summary.events > 100
        assert summary.jobs_submitted > 0
        assert summary.max_stats_gap < 1e-9
        assert summary.decisions, "no cadence ticks fired"

    def test_replay_deterministic_under_fixed_seed(self):
        a = self._run("flash-crowd", seed=42)
        b = self._run("flash-crowd", seed=42)
        assert a.events == b.events
        assert a.jobs_submitted == b.jobs_submitted
        assert a.tasks == b.tasks
        assert [(d.time, d.retuned, d.reason) for d in a.decisions] == [
            (d.time, d.retuned, d.reason) for d in b.decisions
        ]
        assert a.final_config.describe() == b.final_config.describe()

    def test_replay_seed_changes_stream(self):
        a = self._run("flash-crowd", seed=1)
        b = self._run("flash-crowd", seed=2)
        assert (a.events, a.tasks) != (b.events, b.tasks)

    def test_churn_emits_membership_events(self):
        summary = self._run("tenant-churn")
        # join at 30% and leave at 70% of the 1200s horizon.
        assert summary.events > 0
        service_decisions = summary.decisions
        assert service_decisions is not None

    def test_flash_failure_replays_end_to_end(self):
        """The compound scenario drives surge + loss through the daemon."""
        scenario = make_scenario("flash-failure", scale=1.0, horizon=3600.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=0,
        )
        summary = ScenarioReplayer(scenario, service, seed=0).run()
        assert summary.events > 100
        assert summary.max_stats_gap < 1e-9
        assert service.nodes_lost > 0  # the failure half fired
        assert any(d.reason == "forced" for d in summary.decisions)

    def test_bus_transport_matches_direct_counts(self):
        direct = self._run("steady", seed=3, transport="direct")
        bus = self._run("steady", seed=3, transport="bus")
        assert direct.events == bus.events
        assert direct.retunes == bus.retunes
        assert bus.dropped == 0
        assert direct.final_config.describe() == bus.final_config.describe()

    def test_unknown_transport_rejected(self):
        scenario = make_scenario("steady", scale=1.0, horizon=600.0)
        with pytest.raises(ValueError, match="transport"):
            ScenarioReplayer(scenario, transport="carrier-pigeon")


class TestContinuousReplay:
    def _overloaded(self, continuous, seed=5):
        scenario = make_scenario("steady", scale=3.0, horizon=3600.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=seed,
        )
        return ScenarioReplayer(
            scenario, service, seed=seed, continuous=continuous, verify_stats=False
        ).run()

    def test_backlog_compounds_across_retune_intervals(self):
        """The tentpole property: one continuous execution carries backlog.

        The legacy mode simulates each retune interval from an empty
        cluster, so under sustained overload its telemetry stays mild;
        the continuous session inherits every interval's unfinished
        work, so queueing compounds and response times stretch.
        """
        chunked = self._overloaded(continuous=False)
        continuous = self._overloaded(continuous=True)
        assert continuous.peak_backlog > 2 * chunked.peak_backlog
        assert continuous.mean_response > 2 * chunked.mean_response

    def test_continuous_replay_deterministic(self):
        a = self._overloaded(continuous=True)
        b = self._overloaded(continuous=True)
        assert a.events == b.events
        assert a.peak_backlog == b.peak_backlog
        assert a.final_config.describe() == b.final_config.describe()

    def test_run_rejects_bad_start(self):
        scenario = make_scenario("steady", scale=1.0, horizon=1200.0)
        with pytest.raises(ValueError, match="start"):
            ScenarioReplayer(scenario, seed=0).run(1200.0, start=1200.0)

    def test_resumed_run_reapplies_pre_boundary_node_loss(self):
        """Capacity lost before the resume boundary stays lost."""
        scenario = make_scenario("failure-storm", scale=1.0, horizon=3600.0)
        assert any(when < 2700.0 for when, _, _ in scenario.node_loss)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=0,
        )
        replayer = ScenarioReplayer(scenario, service, seed=0, verify_stats=False)
        captured = {}
        original = replayer.sim.session

        def capture(*args, **kwargs):
            captured["session"] = original(*args, **kwargs)
            return captured["session"]

        replayer.sim.session = capture
        replayer.run(3600.0, start=2700.0)
        assert sum(captured["session"].capacity_lost.values()) > 0

    def test_resumed_chunked_run_continues_seed_sequence(self):
        """Legacy mode: chunk seeds continue from the boundary index."""
        scenario = make_scenario("steady", scale=1.0, horizon=1800.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=7,
        )
        replayer = ScenarioReplayer(
            scenario, service, seed=7, continuous=False, verify_stats=False
        )
        seeds = []
        original = replayer.sim.run

        def record(workload, config, *, seed=None, **kwargs):
            seeds.append(seed)
            return original(workload, config, seed=seed, **kwargs)

        replayer.sim.run = record
        replayer.run(1800.0, start=900.0)  # chunks at indices 2 and 3
        assert seeds == [7 + 7919 * 2, 7 + 7919 * 3]


class TestNodeLossCapacity:
    def test_node_loss_shrinks_whatif_cluster(self):
        """NodeLost reduces the capacity candidates are evaluated on."""
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        service = build_service(
            scenario,
            ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3),
            seed=0,
        )
        full = service.effective_cluster().as_dict()
        service.process(NodeLost(10.0, pool="map", containers=4))
        shrunk = service.effective_cluster().as_dict()
        assert shrunk["map"] == full["map"] - 4
        assert shrunk["reduce"] == full["reduce"]

    def test_loss_clamped_to_leave_capacity(self):
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        service = build_service(scenario, seed=0)
        service.process(NodeLost(10.0, pool="map", containers=10_000))
        assert service.effective_cluster().as_dict()["map"] == 1
        # Unknown pools are ignored rather than crashing the daemon.
        service.process(NodeLost(11.0, pool="gpu", containers=3))
        assert "gpu" not in service.effective_cluster().as_dict()

    def test_continuous_node_loss_telemetry_is_clamped(self):
        """Emitted NodeLost matches what the session actually removed."""
        from dataclasses import replace as dc_replace

        scenario = dc_replace(
            make_scenario("steady", scale=1.0, horizon=900.0),
            node_loss=((10.0, "map", 10_000),),
        )
        service = build_service(
            scenario,
            ServiceConfig(window=600.0, retune_interval=450.0, min_window_jobs=3),
            seed=0,
        )
        ScenarioReplayer(scenario, service, seed=0, verify_stats=False).run()
        # The 16-container map pool keeps one container, so only 15
        # were removable — and only 15 may be reported.
        assert service.nodes_lost == 15
        assert service.lost_capacity == {"map": 15}

    def test_retune_still_works_after_loss(self):
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        service = build_service(
            scenario,
            ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3),
            seed=0,
        )
        events = _synthetic_events(seed=21, count=300, tenants=("deadline", "besteffort"))
        events.append(NodeLost(events[100].time, pool="map", containers=6))
        events.sort(key=lambda e: e.time)
        for event in events:
            service.process(event)
        assert service.retunes >= 1
        retuned = [d for d in service.decisions if d.retuned]
        assert retuned[-1].iteration is not None


class TestRevertWindowAveraging:
    @staticmethod
    def _noisy_window(rng, level, horizon=900.0):
        """A window whose QS oscillates around a stationary ``level``."""
        from repro.workload.trace import Trace

        tasks, jobs = [], []
        t, i = 10.0, 0
        while t < horizon - 200:
            for tenant in ("deadline", "besteffort"):
                duration = float(rng.lognormal(np.log(40), 0.3))
                response = max(5.0, float(rng.normal(level, 0.35 * level)))
                job_id = f"{tenant}-{i}"
                tasks.append(
                    TaskRecord(
                        job_id, f"{job_id}/t", tenant, "map", "map",
                        t, t + 1, t + 1 + duration,
                    )
                )
                jobs.append(
                    JobRecord(
                        job_id, tenant, t, min(t + response, horizon),
                        deadline=t + 10 * level if tenant == "deadline" else None,
                    )
                )
                i += 1
            t += float(rng.exponential(30.0))
        return Trace(tasks, jobs, capacity={"map": 16, "reduce": 12}, horizon=horizon)

    def _reverts(self, k, seed=1, windows=20):
        from repro.service.replay import build_controller

        rng = np.random.default_rng(seed)
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        controller = build_controller(scenario, seed=seed, revert_windows=k)
        count = 0
        for i in range(windows):
            record = controller.tune_from_trace(i, self._noisy_window(rng, 120.0))
            count += record.reverted
        return count

    def test_averaging_reduces_revert_churn(self):
        """ROADMAP item: k>1 windows averaged -> far fewer noise reverts."""
        single = self._reverts(1)
        averaged = self._reverts(3)
        assert single >= 8, "test premise: single-window guard churns"
        assert averaged <= single // 2

    def test_failure_storm_averaging_never_increases_churn(self):
        """Regression: smoothing must not re-revert the restored incumbent.

        An observation made under a rejected configuration is dropped
        from the average; before that fix, k>1 triggered revert storms
        on the failure-storm replay (more reverts than k=1).
        """
        results = {}
        for k in (1, 3):
            scenario = make_scenario("failure-storm", scale=1.5, horizon=5400.0)
            service = build_service(
                scenario,
                ServiceConfig(
                    window=900.0,
                    retune_interval=450.0,
                    min_window_jobs=3,
                    drift_threshold=0.0,
                ),
                seed=0,
                revert_windows=k,
            )
            results[k] = ScenarioReplayer(
                scenario, service, seed=0, verify_stats=False
            ).run()
        assert results[3].reverts <= results[1].reverts
        assert results[3].retunes >= 1

    def test_revert_restores_evicted_observation(self):
        """Dropping a rejected config's window must not also lose the
        observation its append evicted from the full deque."""
        from repro.core.decisions import (
            VERDICT_REVERT,
            DecisionEngine,
            Guard,
            GuardVote,
        )
        from repro.service.replay import build_controller

        class _AlwaysRevert(Guard):
            name = "always-revert"

            def revert_vote(self, signals):
                return GuardVote(self.name, VERDICT_REVERT, "forced")

        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        controller = build_controller(scenario, seed=0, revert_windows=2)
        kept = [np.array([1.0, 10.0]), np.array([2.0, 20.0])]
        controller._observed_recent.extend(kept)
        controller.engine = DecisionEngine([_AlwaysRevert()])  # force the guard
        controller._prev = (controller.config, kept[1].copy(), controller.x.copy())
        rng = np.random.default_rng(3)
        record = controller.tune_from_trace(0, self._noisy_window(rng, 120.0))
        assert record.reverted
        assert len(controller._observed_recent) == 2
        np.testing.assert_allclose(controller._observed_recent[0], kept[0])
        np.testing.assert_allclose(controller._observed_recent[1], kept[1])

    def test_smoothed_observation_mean(self):
        from repro.service.replay import build_controller

        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        controller = build_controller(scenario, seed=0, revert_windows=3)
        with pytest.raises(ValueError):
            controller.smoothed_observation()
        controller._observed_recent.append(np.array([1.0, 2.0]))
        controller._observed_recent.append(np.array([3.0, 4.0]))
        np.testing.assert_allclose(
            controller.smoothed_observation(), np.array([2.0, 3.0])
        )


class TestControllerFromTrace:
    def test_tune_from_trace_runs_without_window(self):
        """The serving entry point works on a bare observed trace."""
        scenario = make_scenario("steady", scale=1.0, horizon=1800.0)
        service = build_service(scenario, seed=0)
        workload = scenario.model.generate(0, 1800.0)
        trace = service.controller.production.run(
            workload, service.controller.config, seed=1
        )
        record = service.controller.tune_from_trace(0, trace)
        assert record.index == 0
        assert np.all(np.isfinite(record.observed))


class TestServiceCli:
    def test_replay_command(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["replay", "--scenario", "steady", "--horizon", "0.3", "--seed", "1"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "events=" in text
        assert "stats gap" in text
        assert "final configuration" in text

    def test_serve_command(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["serve", "--scenario", "steady", "--horizon", "0.3"], out=out
        )
        assert code == 0
        assert "transport=bus" in out.getvalue()

    def test_replay_rejects_unknown_scenario(self):
        import io

        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "nope"], out=io.StringIO())
