"""Tests for the sharded serving pipeline: router, shards, merged
statistics, sharded durability/resume, worker processes, resharding,
and trace-file replay."""

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import (
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    NodeLost,
    NodeRecovered,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.service.ingest import RollingWindow, TenantWindowStats, stats_gap
from repro.service.journal import EventJournal, JournalError
from repro.service.replay import (
    ScenarioReplayer,
    build_controller,
    build_service,
    dump_trace_events,
    load_trace_events,
    make_scenario,
    replay_trace,
)
from repro.service.sharding import (
    IngestShard,
    ShardRouter,
    stable_shard,
    tenant_of,
)
from repro.service.snapshot import ServiceState, config_to_dict
from repro.workload.trace import JobRecord, TaskRecord

TENANTS = tuple(f"tenant-{i:02d}" for i in range(11))


def _task(job_id, task_id, tenant, finish, duration, **kwargs):
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
        **kwargs,
    )


def _events(seed=0, count=400, tenants=TENANTS, controls=True):
    """Deterministic many-tenant telemetry stream with control events."""
    rng = np.random.default_rng(seed)
    events, t = [], 0.0
    for i in range(count):
        t += float(rng.exponential(8.0))
        tenant = tenants[i % len(tenants)]
        job_id = f"{tenant}-{i}"
        events.append(JobSubmitted(t, tenant=tenant, job_id=job_id))
        duration = float(rng.lognormal(3.0 + 0.4 * (i % 3), 0.8))
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
            JobCompleted(
                finish,
                record=JobRecord(
                    job_id=job_id, tenant=tenant, submit_time=t, finish_time=finish
                ),
            )
        )
    events.sort(key=lambda e: e.time)
    if controls:
        mid = events[len(events) // 2].time
        events.append(NodeLost(mid, pool="map", containers=2))
        events.append(TenantLeft(mid + 1.0, tenant=tenants[3]))
        events.append(Heartbeat(events[-1].time + 10.0))
        events.sort(key=lambda e: e.time)
    return events


def _stats_close(a, b, tol=1e-9):
    assert set(a) == set(b)
    fields = (
        "jobs",
        "tasks",
        "submitted",
        "duration_samples",
        "arrival_rate",
        "mean_response",
        "log_duration_mean",
        "log_duration_std",
        "preempted_fraction",
        "failed_fraction",
    )
    for name in a:
        for field in fields:
            assert abs(getattr(a[name], field) - getattr(b[name], field)) <= tol, (
                name,
                field,
            )


def _service_config(**overrides):
    defaults = dict(window=600.0, retune_interval=300.0, min_window_jobs=3)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _scenario():
    return make_scenario("steady", scale=1.0, horizon=3600.0)


class TestShardRouter:
    def test_assignment_stable_and_in_range(self):
        router = ShardRouter(4)
        for tenant in TENANTS:
            shard = router.shard_of(tenant)
            assert 0 <= shard < 4
            assert shard == router.shard_of(tenant)  # memoized
            assert shard == stable_shard(tenant, 4)  # fresh hash agrees
            assert shard == ShardRouter(4).shard_of(tenant)  # cross-instance

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert all(router.shard_of(t) == 0 for t in TENANTS)

    def test_tenant_of_every_event_shape(self):
        assert tenant_of(JobSubmitted(1.0, tenant="A", job_id="a")) == "A"
        assert tenant_of(TenantJoined(1.0, tenant="B")) == "B"
        assert tenant_of(TenantLeft(1.0, tenant="C")) == "C"
        task = TaskCompleted(2.0, record=_task("a", "a/t", "D", 2.0, 1.0))
        assert tenant_of(task) == "D"
        job = JobCompleted(
            2.0, record=JobRecord(job_id="a", tenant="E", submit_time=1.0, finish_time=2.0)
        )
        assert tenant_of(job) == "E"
        assert tenant_of(Heartbeat(1.0)) is None
        assert tenant_of(NodeLost(1.0, pool="map")) is None

    def test_partition_preserves_order_and_broadcasts_heartbeats(self):
        router = ShardRouter(3)
        events = _events(seed=1, count=60)
        parts, control, effects, telemetry, newest = router.partition(events)
        # Every tenant event lands in exactly its owner's list, in order.
        for i, part in enumerate(parts):
            times = [e.time for e in part]
            assert times == sorted(times)
            for event in part:
                tenant = tenant_of(event)
                if tenant is not None:
                    assert router.shard_of(tenant) == i
        # Heartbeats appear in the control list AND every shard list.
        heartbeats = [e for e in events if isinstance(e, Heartbeat)]
        assert heartbeats
        for part in parts:
            assert [e for e in part if isinstance(e, Heartbeat)] == heartbeats
        assert [e for e in control if isinstance(e, Heartbeat)] == heartbeats
        # NodeLost is control-plane only.
        assert any(isinstance(e, NodeLost) for e in control)
        assert not any(
            isinstance(e, NodeLost) for part in parts for e in part
        )
        # The same pass does the control plane's bookkeeping.
        assert effects == [
            e
            for e in events
            if isinstance(e, (NodeLost, TenantJoined, TenantLeft))
        ]
        assert telemetry == sum(
            isinstance(e, (JobSubmitted, TaskCompleted, JobCompleted)) for e in events
        )
        assert newest == max(e.time for e in events)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestMergedStatistics:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_merged_equals_single_window_batch_recompute(self, shards):
        """The acceptance property: N-shard merged stats == single-window
        batch recompute to 1e-9, across random streams and shard counts."""
        for seed in (0, 1, 2):
            events = [
                e
                for e in _events(seed=seed, count=300, controls=False)
                if isinstance(e, (JobSubmitted, TaskCompleted, JobCompleted))
            ]
            reference = RollingWindow(500.0)
            router = ShardRouter(shards)
            windows = [RollingWindow(500.0) for _ in range(shards)]
            for event in events:
                reference.ingest(event)
                windows[router.route(event)].ingest(event)
            now = reference.now
            for window in windows:
                window.advance(now)
            # The bytes a snapshot, an mp queue and a TCP drain all carry.
            states = [w.to_state() for w in windows]
            merged = RollingWindow.merge_states(states)
            assert merged.now == reference.now
            assert merged.events_ingested == reference.events_ingested
            _stats_close(merged.snapshot(), reference.batch_recompute())
            assert stats_gap(merged) < 1e-9
            for state, window in zip(states, windows):
                restored = RollingWindow.from_state(state)
                _stats_close(restored.snapshot(), window.batch_recompute())
                assert restored.to_state() == state

    def test_merge_states_rejects_mismatched_window_lengths(self):
        a, b = RollingWindow(100.0), RollingWindow(200.0)
        with pytest.raises(ValueError, match="window lengths"):
            RollingWindow.merge_states([a.to_state(), b.to_state()])

    def test_merge_states_interleaves_split_tenant(self):
        """A tenant split across states (mid-reshard shape) still merges
        to the single-window statistics."""
        events = [
            e
            for e in _events(seed=5, count=200, tenants=("only",), controls=False)
            if isinstance(e, (JobSubmitted, TaskCompleted, JobCompleted))
        ]
        reference = RollingWindow(400.0)
        halves = [RollingWindow(400.0), RollingWindow(400.0)]
        for i, event in enumerate(events):
            reference.ingest(event)
            halves[i % 2].ingest(event)
        for half in halves:
            half.advance(reference.now)
        merged = RollingWindow.merge_states([h.to_state() for h in halves])
        _stats_close(merged.snapshot(), reference.batch_recompute())
        assert stats_gap(merged) < 1e-9
        # Time-ordered interleave: the merged entries are the reference's.
        assert merged.to_state() == reference.to_state()

    def test_tenant_stats_merged_inverts_sums(self):
        window = RollingWindow(600.0)
        events = [
            e
            for e in _events(seed=7, count=120, tenants=("t",), controls=False)
            if isinstance(e, (JobSubmitted, TaskCompleted, JobCompleted))
        ]
        for event in events:
            window.ingest(event)
        whole = window.snapshot()["t"]
        # Split the same entries across two windows and merge the stats.
        halves = [RollingWindow(600.0), RollingWindow(600.0)]
        for i, event in enumerate(events):
            halves[i % 2].ingest(event)
        for half in halves:
            half.advance(window.now)
        parts = [h.snapshot().get("t") for h in halves]
        merged = TenantWindowStats.merged(
            [p for p in parts if p is not None], 600.0
        )
        for field in (
            "jobs",
            "tasks",
            "submitted",
            "duration_samples",
        ):
            assert getattr(merged, field) == getattr(whole, field)
        for field in (
            "arrival_rate",
            "mean_response",
            "log_duration_mean",
            "log_duration_std",
            "preempted_fraction",
            "failed_fraction",
        ):
            assert abs(getattr(merged, field) - getattr(whole, field)) < 1e-9

    def test_merged_rejects_mixed_tenants_and_empty(self):
        a = TenantWindowStats("a", 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        b = TenantWindowStats("b", 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TenantWindowStats.merged([a, b], 100.0)
        with pytest.raises(ValueError):
            TenantWindowStats.merged([], 100.0)


class TestShardedService:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_same_decisions_and_stats_as_single_shard(self, shards):
        """The control plane decides identically however the data plane
        is sharded: same retunes, same reasons, same final config."""
        events = _events(seed=3, count=500)
        single = build_service(_scenario(), _service_config(), seed=0)
        sharded = build_service(
            _scenario(), _service_config(), seed=0, shards=shards
        )
        for i in range(0, len(events), 111):
            single.ingest_batch(events[i : i + 111])
            sharded.ingest_batch(events[i : i + 111])
        assert sharded.num_shards == shards
        assert sharded.retunes == single.retunes >= 1
        assert [(d.time, d.retuned, d.reason) for d in single.decisions] == [
            (d.time, d.retuned, d.reason) for d in sharded.decisions
        ]
        assert (
            single.rm_config.describe() == sharded.rm_config.describe()
        )
        # Merged window view equals the single live window.
        merged = sharded.window
        merged.advance(single.window.now)
        _stats_close(merged.snapshot(), single.window.batch_recompute())
        assert single.active_tenants == sharded.active_tenants
        assert single.lost_capacity == sharded.lost_capacity
        assert sharded.telemetry_ingested == single.telemetry_ingested
        assert sharded.stats_gap_now() < 1e-9

    def test_process_and_ingest_batch_agree_when_sharded(self):
        events = _events(seed=9, count=200)
        by_event = build_service(_scenario(), _service_config(), seed=0, shards=3)
        by_batch = build_service(_scenario(), _service_config(), seed=0, shards=3)
        for event in events:
            by_event.process(event)
        by_batch.ingest_batch(events)
        assert by_event.events_processed == by_batch.events_processed
        assert [(d.time, d.retuned, d.reason) for d in by_event.decisions] == [
            (d.time, d.retuned, d.reason) for d in by_batch.decisions
        ]
        a = by_event.window
        b = by_batch.window
        b.advance(a.now)
        _stats_close(a.snapshot(), b.batch_recompute())

    def test_single_shard_outcomes(self, tmp_path):
        """N = 1 runs the sharded pipeline with the outcomes of the
        dedicated single-shard path it replaced (values recorded from
        that path): mid-chunk capacity and churn events, heartbeats,
        each journal record written once."""
        events = _events(seed=11, count=400)
        mid = events[len(events) // 2].time
        events += [
            NodeLost(mid, pool="map", containers=3),
            NodeRecovered(mid + 40.0, pool="map", containers=1),
            TenantJoined(mid + 1.0, tenant="newbie"),
            TenantLeft(mid + 90.0, tenant="tenant-05"),
        ]
        events += [Heartbeat(t) for t in range(250, int(events[-1].time), 250)]
        events.sort(key=lambda e: e.time)
        state = ServiceState(tmp_path, snapshot_every=200)
        service = build_service(
            make_scenario("steady", scale=1.0, horizon=3600.0),
            _service_config(),
            seed=0,
            state=state,
        )
        for i in range(0, len(events), 97):
            service.ingest_batch(events[i : i + 97])
        kinds = {}
        for record in state.journal.iter_records():
            kind = record.kind
            if kind == "event":
                kind = record.event_type.__name__
            kinds[kind] = kinds.get(kind, 0) + 1
        assert [d.verdict for d in service.decisions] == ["accept"] * 10
        assert config_to_dict(service.rm_config) == {
            "besteffort": {
                "fair_timeout": 600.0,
                "max_share": {"map": 12, "reduce": 9},
                "min_share": {"map": 0, "reduce": 0},
                "min_timeout": 1800.0,
                "weight": 1.0,
            },
            "deadline": {
                "fair_timeout": 299.99999999999994,
                "max_share": {"map": 16, "reduce": 12},
                "min_share": {"map": 4, "reduce": 3},
                "min_timeout": 59.999999999999986,
                "weight": 1.9999999999999998,
            },
        }
        assert (service.events_processed, service.telemetry_ingested) == (1213, 1200)
        assert kinds == {
            "Heartbeat": 7,
            "JobCompleted": 400,
            "JobSubmitted": 400,
            "NodeLost": 2,
            "NodeRecovered": 1,
            "TaskCompleted": 400,
            "TenantJoined": 1,
            "TenantLeft": 2,
            "config": 10,
        }
        totals = service.metrics_snapshot()
        assert totals.counter_value("tempo_journal_records_total") == 1223
        assert totals.counter_value("tempo_ingest_batches_total") == 23
        service.close()
        state.close()

    def test_tenant_left_drops_state_in_owning_shard_only(self):
        service = build_service(_scenario(), _service_config(), seed=0, shards=4)
        events = [
            e for e in _events(seed=4, count=150, controls=False)
        ]
        service.ingest_batch(events)
        victim = TENANTS[0]
        owner = service.router.shard_of(victim)
        assert victim in service.shards[owner].window.tenants()
        service.process(TenantLeft(service.now, tenant=victim))
        assert victim not in service.shards[owner].window.tenants()
        assert victim not in service.active_tenants
        assert service._force  # churn voids the stability conclusion

    def test_state_mismatch_rejected(self, tmp_path):
        state = ServiceState(tmp_path, shards=2)
        with pytest.raises(ValueError, match="reshard"):
            build_service(_scenario(), _service_config(), state=state, shards=4)

    @pytest.mark.parametrize(
        "plane",
        [{"tcp_workers": True}, {"shard_endpoints": [("127.0.0.1", 1)]}],
        ids=["tcp", "endpoints"],
    )
    def test_worker_planes_refused_for_one_shard(self, plane):
        with pytest.raises(ValueError, match="control journal"):
            TempoService(build_controller(_scenario()), _service_config(), **plane)

    def test_resume_refuses_snapshot_without_sharding_record(self, tmp_path):
        state = ServiceState(tmp_path)
        service = build_service(_scenario(), _service_config(), state=state)
        service.ingest_batch(_events(seed=2, count=20))
        snapshot = service.state_dict()
        del snapshot["sharding"]  # what a single-shard earlier build wrote
        state.write_snapshot(snapshot)
        state.close()
        with pytest.raises(JournalError, match="sharding"):
            TempoService.resume(
                build_controller(_scenario()), tmp_path, _service_config()
            )

    def test_resume_refuses_worker_promotion_of_one_shard(self, tmp_path):
        state = ServiceState(tmp_path)
        build_service(_scenario(), _service_config(), state=state).process(
            Heartbeat(1.0)
        )
        state.close()
        with pytest.raises(ValueError, match="control journal"):
            TempoService.resume(
                build_controller(_scenario()),
                tmp_path,
                _service_config(),
                tcp_workers=True,
            )


class TestShardedDurability:
    def _run_durable(self, tmp_path, shards, events, workers=False):
        state = ServiceState(tmp_path, shards=shards, snapshot_every=400)
        service = build_service(
            _scenario(),
            _service_config(),
            seed=0,
            state=state,
            shards=shards,
            tcp_workers=workers,
        )
        for i in range(0, len(events), 113):
            service.ingest_batch(events[i : i + 113])
        service.close()
        state.close()
        return service

    def test_sharded_layout_on_disk(self, tmp_path):
        events = _events(seed=2, count=200)
        self._run_durable(tmp_path, 3, events)
        assert (tmp_path / "journal").is_dir()  # control journal
        for i in range(3):
            assert (tmp_path / f"shard-{i:02d}" / "journal").is_dir()
        # Telemetry lives only in shard journals; the control journal
        # holds control events and decision/config records.
        control = list(EventJournal(tmp_path / "journal").iter_records())
        assert control
        for record in control:
            if record.kind == "event":
                assert record.data["type"] in (
                    "Heartbeat",
                    "NodeLost",
                    "NodeRecovered",
                )

    def test_resume_restores_sharded_state(self, tmp_path):
        """Acceptance: sharded serve -> kill -> resume restores window
        stats and config history across all per-shard journals."""
        events = _events(seed=1, count=500)
        live = self._run_durable(tmp_path, 4, events)
        assert live.retunes >= 2
        resumed = TempoService.resume(
            build_controller(_scenario()), tmp_path, _service_config(), shards=4
        )
        assert resumed.num_shards == 4
        assert resumed.events_processed == live.events_processed
        assert resumed.telemetry_ingested == live.telemetry_ingested
        a, b = live.window.snapshot(), resumed.window.snapshot()
        _stats_close(a, b)
        assert resumed.stats_gap_now() < 1e-9
        assert [(d.time, d.retuned, d.reason) for d in live.decisions] == [
            (d.time, d.retuned, d.reason) for d in resumed.decisions
        ]
        assert [
            (h.index, h.config.describe()) for h in live.config_history
        ] == [(h.index, h.config.describe()) for h in resumed.config_history]
        assert live.rm_config.describe() == resumed.rm_config.describe()
        assert live.active_tenants == resumed.active_tenants
        assert live.lost_capacity == resumed.lost_capacity
        resumed.close()

    def test_resume_without_snapshots_replays_all_tails(self, tmp_path):
        events = _events(seed=6, count=250)
        state = ServiceState(tmp_path, shards=3, snapshot_every=10**9)
        live = build_service(
            _scenario(), _service_config(), seed=0, state=state, shards=3
        )
        live.ingest_batch(events)
        live.close()
        state.close()
        resumed = TempoService.resume(
            build_controller(_scenario()), tmp_path, _service_config(), shards=3
        )
        assert resumed.events_processed == live.events_processed
        _stats_close(live.window.snapshot(), resumed.window.snapshot())
        resumed.close()

    def test_resume_shard_count_mismatch_refused(self, tmp_path):
        events = _events(seed=2, count=200)
        self._run_durable(tmp_path, 2, events)
        state = ServiceState(tmp_path, shards=2)
        with pytest.raises(ValueError, match="reshard"):
            TempoService.resume(
                build_controller(_scenario()), state, _service_config(), shards=4
            )
        state.close()
        # Through a path + mismatching layout: the snapshot's recorded
        # layout must refuse a silently re-routed resume.
        with pytest.raises((JournalError, ValueError)):
            TempoService.resume(
                build_controller(_scenario()), tmp_path, _service_config(), shards=4
            )

    def test_rewind_to_heartbeat_truncates_all_journals(self, tmp_path):
        """A chunk interrupted mid-dispatch rewinds every journal to the
        newest boundary heartbeat all of them share."""
        events = [
            e
            for e in _events(seed=8, count=200, controls=False)
        ]
        boundary_time = events[99].time
        state = ServiceState(tmp_path, shards=2, snapshot_every=10**9)
        service = build_service(
            _scenario(), _service_config(), seed=0, state=state, shards=2
        )
        first = events[:100] + [Heartbeat(boundary_time)]
        service.ingest_batch(first)
        # Partial next chunk: telemetry lands in shard journals, then a
        # heartbeat reaches only shard 0's journal (crash mid-broadcast).
        service.ingest_batch(events[100:150])
        service.shards[0].ingest([Heartbeat(events[149].time)])
        service.close()
        state.close()
        state = ServiceState(tmp_path, shards=2)
        start, dropped = state.rewind_to_heartbeat()
        assert start == boundary_time
        assert dropped > 0
        resumed = TempoService.resume(
            build_controller(_scenario()), state, _service_config()
        )
        # Only the first completed chunk survives the rewind.
        assert resumed.events_processed == len(first)
        resumed.close()
        state.close()

    def test_sharded_compaction_respects_snapshot_coverage(self, tmp_path):
        events = _events(seed=11, count=600, controls=False)
        interval = 300.0
        state = ServiceState(
            tmp_path,
            shards=2,
            snapshot_every=200,
            segment_records=64,
            keep_segments=1,
        )
        service = build_service(
            _scenario(), _service_config(), seed=0, state=state, shards=2
        )
        # Deliver with boundary heartbeats so compaction has anchors.
        chunk = 150
        for i in range(0, len(events), chunk):
            part = events[i : i + chunk]
            service.ingest_batch(part + [Heartbeat(part[-1].time)])
        service.close()
        state.close()
        # Every shard journal's first retained record is covered by a
        # readable snapshot: resume still reconstructs cleanly.
        resumed = TempoService.resume(
            build_controller(_scenario()), tmp_path, _service_config(), shards=2
        )
        assert resumed.stats_gap_now() < 1e-9
        resumed.close()


def _segment_files(root):
    """Every journal segment under a state dir, relative to it."""
    return sorted(
        str(path.relative_to(root)) for path in Path(root).rglob("segment-*")
    )


class TestCheckpointCost:
    """A checkpoint decides from what the writer holds in memory, and
    decides exactly what a cold open of the same directory decides."""

    @staticmethod
    def _serve(root, shards, **state_options):
        options = dict(snapshot_every=250, segment_records=32, keep_segments=1)
        state = ServiceState(root, shards=shards, **{**options, **state_options})
        service = build_service(
            _scenario(),
            _service_config(min_window_jobs=10**9),  # every tick holds
            seed=0,
            state=state,
            shards=shards,
        )
        return state, service

    @staticmethod
    def _feed(service, events, chunk=100):
        """Chunks closed by a broadcast heartbeat (compaction's boundary)."""
        for i in range(0, len(events), chunk):
            part = events[i : i + chunk]
            service.ingest_batch(part + [Heartbeat(part[-1].time)])

    def test_cadence_snapshot_reads_no_segment_and_parses_no_snapshot(
        self, tmp_path, monkeypatch
    ):
        import repro.service.journal as journal_module

        events = _events(seed=21, count=700, controls=False)
        state, service = self._serve(tmp_path, 4)
        self._feed(service, events[:900])  # warm: snapshots retained, compacting
        calls = {"read_segment": 0, "json.loads": 0}
        real_read, real_loads = journal_module.read_segment, json.loads

        def counting_read(path, *, final):
            calls["read_segment"] += 1
            return real_read(path, final=final)

        def counting_loads(*args, **kwargs):
            calls["json.loads"] += 1
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(journal_module, "read_segment", counting_read)
        monkeypatch.setattr(json, "loads", counting_loads)
        snapshots_before = {seq for seq, _ in state.snapshots.retained()}
        segments_before = _segment_files(tmp_path)
        self._feed(service, events[900:])
        monkeypatch.undo()
        written = {seq for seq, _ in state.snapshots.retained()} - snapshots_before
        assert len(written) == 3  # every retained snapshot is a counted one
        deleted = set(segments_before) - set(_segment_files(tmp_path))
        # ... and each was followed by a compaction that reclaimed segments
        # of every shard journal (the control journal is too short to).
        assert {name.split("/")[0] for name in deleted} >= {
            f"shard-{i:02d}" for i in range(4)
        }
        assert calls == {"read_segment": 0, "json.loads": 0}
        service.close()
        state.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_warm_and_cold_compaction_delete_the_same_segments(
        self, tmp_path, shards
    ):
        """In-memory boundary + coverage (the serving process) and a
        header/tail scan (``repro compact`` on a cold dir) agree."""
        events = _events(seed=22, count=1000, controls=False)
        warm_root = tmp_path / "warm"
        state, service = self._serve(warm_root, shards, auto_compact=False)
        compared = 0
        for stop in (len(events) // 2, len(events)):
            self._feed(service, events[compared:stop])
            compared = stop
            for journal in [state.journal] + [
                state.shard_journal(i) for i in range(shards) if shards > 1
            ]:
                journal.flush()
            cold_root = tmp_path / f"cold-{stop}"
            shutil.copytree(warm_root, cold_root)
            before = _segment_files(warm_root)
            assert state.compact() > 0
            cold = ServiceState(
                cold_root,
                shards=shards,
                segment_records=32,
                keep_segments=1,
                auto_compact=False,
            )
            assert cold.snapshots.retained() == state.snapshots.retained()
            cold.compact()
            cold.close()
            assert _segment_files(cold_root) == _segment_files(warm_root)
            assert set(_segment_files(warm_root)) < set(before)
        service.close()
        state.close()
        resumed = TempoService.resume(
            build_controller(_scenario()),
            warm_root,
            _service_config(min_window_jobs=10**9),
            shards=shards,
        )
        assert resumed.events_processed == service.events_processed
        assert resumed.stats_gap_now() < 1e-9
        resumed.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_no_json_on_the_window_path(self, tmp_path, monkeypatch, shards):
        """A checkpoint encodes nothing of the window: 4x the retained
        entries, the same file — header and control line, < 8 KiB, no
        window frame — and no ``to_state`` call; the window comes back
        from the journal, from each shard's mark."""
        jobs = 4000
        events = []
        for i in range(jobs):  # 3 entries a job, all inside one cadence interval
            at, tenant = 200.0 * i / jobs, TENANTS[i % len(TENANTS)]
            events += [
                JobSubmitted(at, tenant=tenant, job_id=f"j{i}"),
                TaskCompleted(
                    at + 1.0, record=_task(f"j{i}", f"j{i}/t0", tenant, at + 1.0, 0.5)
                ),
                JobCompleted(at + 1.0, record=JobRecord(f"j{i}", tenant, at, at + 1.0)),
            ]
        state, service = self._serve(
            tmp_path, shards, snapshot_every=10**9, auto_compact=False
        )

        def to_state(window):
            raise AssertionError("a checkpoint encoded a window")

        monkeypatch.setattr(RollingWindow, "to_state", to_state)
        sizes, fed = [], 0
        for stop in (len(events) // 4, len(events)):  # 1x, then 4x the entries
            service.ingest_batch(events[fed:stop])
            fed = stop
            path = state.write_snapshot(service.state_dict())
            _header, control, rest = path.read_bytes().split(b"\n", 2)
            assert rest == b""
            marks = json.loads(control.split(b" ", 1)[1])["sharding"]["marks"]
            assert len(marks) == shards
            assert sum(events for _, _, events, _ in marks) == stop
            assert all(mark == 1 for *_, mark in marks)  # nothing has slid out
            sizes.append(path.stat().st_size)
        monkeypatch.undo()
        assert not service.decisions  # no tick fired: the control state is still
        size_1x, size_4x = sizes
        assert size_1x < 8192
        assert abs(size_4x - size_1x) <= 16 * shards  # counters gained digits, only
        live = service.window.snapshot()
        service.close()
        state.close()
        resumed = TempoService.resume(
            build_controller(_scenario()),
            tmp_path,
            _service_config(min_window_jobs=10**9),
            shards=shards,
        )
        assert resumed.last_resume.refolded == len(events)
        restored = resumed.window.snapshot()
        assert set(restored) == set(live)
        for name, stats in live.items():
            assert dataclasses.asdict(restored[name]) == pytest.approx(
                dataclasses.asdict(stats), rel=0, abs=1e-9
            )
        resumed.close()
        resumed.state.close()

    def test_rewind_invalidates_cached_shard_boundaries(self, tmp_path):
        """A heartbeat that reached one shard only (crash mid-broadcast)
        is cut away by the rewind; compaction afterwards must not still
        treat it as that shard's boundary."""
        events = _events(seed=23, count=300, controls=False)
        state, service = self._serve(
            tmp_path, 2, snapshot_every=10**9, segment_records=8, auto_compact=False
        )
        boundary = events[299].time
        service.ingest_batch(events[:300] + [Heartbeat(boundary)])
        common = [state.shard_journal(i).last_heartbeat() for i in range(2)]
        service.ingest_batch(events[300:500])
        service.shards[0].ingest([Heartbeat(events[499].time)])  # shard 0 only
        assert state.shard_journal(0).last_heartbeat()[1] == events[499].time
        start, dropped = state.rewind_to_heartbeat()
        assert start == boundary and dropped > 0
        assert [state.shard_journal(i).last_heartbeat() for i in range(2)] == common
        # Telemetry past the common boundary, then a snapshot covering it:
        # no shard journal may be compacted up to that snapshot.
        service.ingest_batch(events[500:700])
        state.write_snapshot(service.state_dict())
        shard_segments = [
            name for name in _segment_files(tmp_path) if name.startswith("shard-")
        ]
        state.compact()
        assert [
            name for name in _segment_files(tmp_path) if name.startswith("shard-")
        ] == shard_segments
        service.close()
        state.close()


class TestWorkerShards:
    def test_worker_journals_hold_the_in_process_records(self, tmp_path):
        events = _events(seed=3, count=300)
        inproc_dir, worker_dir = tmp_path / "inproc", tmp_path / "workers"
        run = TestShardedDurability()
        run._run_durable(inproc_dir, 4, events, workers=False)
        run._run_durable(worker_dir, 4, events, workers=True)
        for i in range(4):
            a_dir = inproc_dir / f"shard-{i:02d}" / "journal"
            b_dir = worker_dir / f"shard-{i:02d}" / "journal"
            a = list(EventJournal(a_dir).iter_records())
            b = list(EventJournal(b_dir).iter_records())
            assert a and a == b, f"shard {i} journal records differ"

    def test_worker_mode_same_decisions_and_stats(self):
        events = _events(seed=12, count=400)
        inproc = build_service(_scenario(), _service_config(), seed=0, shards=4)
        workers = build_service(
            _scenario(), _service_config(), seed=0, shards=4, tcp_workers=True
        )
        try:
            for i in range(0, len(events), 97):
                inproc.ingest_batch(events[i : i + 97])
                workers.ingest_batch(events[i : i + 97])
            assert workers.retunes == inproc.retunes
            assert [(d.time, d.retuned, d.reason) for d in inproc.decisions] == [
                (d.time, d.retuned, d.reason) for d in workers.decisions
            ]
            assert workers.stats_gap_now() < 1e-9
            a = inproc.window
            b = workers.window
            b.advance(a.now)
            _stats_close(a.snapshot(), b.batch_recompute())
        finally:
            workers.close()

    def test_worker_resume_promotion(self, tmp_path):
        events = _events(seed=13, count=300)
        state = ServiceState(tmp_path, shards=2, snapshot_every=400)
        live = build_service(
            _scenario(),
            _service_config(),
            seed=0,
            state=state,
            shards=2,
            tcp_workers=True,
        )
        for i in range(0, len(events), 113):
            live.ingest_batch(events[i : i + 113])
        live_stats = live.window.snapshot()  # drain before stopping workers
        live.close()
        state.close()
        resumed = TempoService.resume(
            build_controller(_scenario()),
            tmp_path,
            _service_config(),
            shards=2,
            tcp_workers=True,
        )
        try:
            assert resumed.tcp_workers
            assert resumed.events_processed == live.events_processed
            _stats_close(live_stats, resumed.window.snapshot())
            # The promoted workers keep ingesting and journaling.
            extra = _events(seed=14, count=40, controls=False)
            resumed.ingest_batch(extra)
            assert resumed.stats_gap_now() < 1e-9
        finally:
            resumed.close()


class TestReshard:
    def test_reshard_preserves_merged_statistics(self, tmp_path):
        events = _events(seed=4, count=400)
        run = TestShardedDurability()
        live = run._run_durable(tmp_path, 2, events)
        before = live.window.snapshot()
        state = ServiceState(tmp_path, shards=2)
        resumed = TempoService.resume(
            build_controller(_scenario()), state, _service_config()
        )
        resumed.reshard(4)
        assert resumed.num_shards == 4
        _stats_close(before, resumed.window.snapshot())
        # Tenants land on their crc32 owner under the new layout.
        for i, shard in enumerate(resumed.shards):
            for tenant in shard.window.tenants():
                assert resumed.router.shard_of(tenant) == i
        resumed.close()
        state.close()
        # The reshard wrote a covering snapshot: a later resume under the
        # new layout reconstructs without touching pre-reshard journals.
        again = TempoService.resume(
            build_controller(_scenario()), tmp_path, _service_config(), shards=4
        )
        _stats_close(before, again.window.snapshot())
        assert [(h.index, h.config.describe()) for h in again.config_history] == [
            (h.index, h.config.describe()) for h in live.config_history
        ]
        again.close()

    def test_resume_after_cli_reshard_keeps_history(self, tmp_path):
        """Regression: a resume arriving after a reshard (before any
        post-reshard chunk completes) must NOT rewind the retained
        history to zero — the fresh, heartbeat-less shard journals are
        anchored by the reshard's broadcast boundary heartbeat."""
        import io

        from repro.cli import main

        state_dir = str(tmp_path / "state")
        code = main(
            [
                "replay",
                "--scenario",
                "steady",
                "--horizon",
                "0.5",
                "--seed",
                "2",
                "--state-dir",
                state_dir,
            ],
            out=io.StringIO(),
        )
        assert code == 0
        out = io.StringIO()
        code = main(
            ["resume", "--state-dir", state_dir, "--shards", "2", "--reshard"],
            out=out,
        )
        assert code == 0
        first = out.getvalue()
        assert "resharded data plane" in first
        events_before = int(
            first.split("events=")[1].split()[0]
        )
        assert events_before > 0
        # Resume again: the full history must still be there.
        out = io.StringIO()
        code = main(["resume", "--state-dir", state_dir], out=out)
        assert code == 0
        text = out.getvalue()
        assert "dropped" not in text
        events_after = int(text.split("events=")[1].split()[0])
        assert events_after >= events_before

    def test_rewind_ignores_empty_shard_journals(self, tmp_path):
        """An empty journal (a shard owning no tenants yet) must not
        drag the common rewind boundary to zero."""
        state = ServiceState(tmp_path, shards=2, snapshot_every=10**9)
        service = build_service(
            _scenario(), _service_config(), seed=0, state=state, shards=2
        )
        # Every tenant hashes to one shard: the other journal gets only
        # what it is explicitly sent — here, nothing (no heartbeats yet).
        lonely = next(
            t
            for t in (f"solo-{i}" for i in range(64))
            if service.router.shard_of(t) == 0
        )
        events = [
            e
            for e in _events(seed=20, count=60, tenants=(lonely,), controls=False)
        ]
        boundary = events[-1].time + 5.0
        service.ingest_batch(events)
        # Broadcast heartbeat reaches both shard journals...
        service.process(Heartbeat(boundary))
        # ...but emulate a crash that tore shard 1's copy away entirely,
        # leaving it a journal with no records at all.
        service.close()
        state.close()
        import shutil

        shard1 = tmp_path / "shard-01" / "journal"
        shutil.rmtree(shard1)
        shard1.mkdir()
        state = ServiceState(tmp_path, shards=2)
        start, dropped = state.rewind_to_heartbeat()
        assert start == boundary  # not wiped to zero
        state.close()

    def test_crash_between_reshard_and_its_first_heartbeat(self, tmp_path):
        """A reshard heads every new shard journal with its moved window:
        a journal holding only that record constrains no rewind, and a
        resume refolds the window from it."""
        events = [Heartbeat(e.time) if i % 97 == 96 else e
                  for i, e in enumerate(_events(seed=5, count=300))]
        TestShardedDurability()._run_durable(tmp_path, 1, events)
        state = ServiceState(tmp_path, shards=1)
        state.rewind_to_heartbeat()  # what `repro resume` does first
        resumed = TempoService.resume(
            build_controller(_scenario()), state, _service_config()
        )
        resumed.reshard(3)  # fresh shard journals: one window record each
        live = resumed.window.snapshot()
        resumed.close()
        state.close()
        for i in range(3):
            kinds = [r.kind for r in EventJournal(
                tmp_path / f"shard-{i:02d}" / "journal").iter_records()]
            assert kinds == ["window"]
        state = ServiceState(tmp_path, shards=3)
        start, dropped = state.rewind_to_heartbeat()
        assert start > 0 and dropped == 0  # not wiped to zero
        again = TempoService.resume(
            build_controller(_scenario()), state, _service_config()
        )
        assert again.last_resume.refolded >= 3  # the window records
        _stats_close(live, again.window.snapshot())
        again.close()
        state.close()

    def test_telemetry_count_survives_reshards(self):
        """One telemetry counter at every shard count: a reshard (which
        re-counts each window as its retained entries) must not move it."""
        events = _events(seed=7, count=600)
        third = len(events) // 3
        thirds = [events[:third], events[third : 2 * third], events[2 * third :]]
        service = build_service(
            _scenario(),
            ServiceConfig(window=60, retune_interval=300, min_window_jobs=3),
            seed=0,
        )
        truth = 0
        for part, layout in zip(thirds, (2, 1, None)):
            service.ingest_batch(part)
            truth += sum(
                isinstance(e, (JobSubmitted, TaskCompleted, JobCompleted)) for e in part
            )
            if layout is not None:
                service.reshard(layout)
            assert service.telemetry_ingested == truth
        assert truth == 1800
        service.close()

    def test_reshard_to_single_pipeline(self, tmp_path):
        events = _events(seed=5, count=300)
        run = TestShardedDurability()
        live = run._run_durable(tmp_path, 3, events)
        state = ServiceState(tmp_path, shards=3)
        resumed = TempoService.resume(
            build_controller(_scenario()), state, _service_config()
        )
        resumed.reshard(1)
        assert resumed.num_shards == 1
        _stats_close(live.window.snapshot(), resumed.window.snapshot())
        assert stats_gap(resumed.window) < 1e-9
        resumed.close()
        state.close()


class TestIngestShard:
    def test_bus_intake_feeds_ingest(self):
        shard = IngestShard(0, 300.0)
        events = [
            e
            for e in _events(seed=6, count=50, tenants=("a",), controls=False)
        ]
        for event in events:
            assert shard.submit(event)
        assert shard.flush_bus() == len(events)
        assert shard.window.events_ingested == len(events)
        assert stats_gap(shard.window) < 1e-9

    def test_fold_applies_churn_at_stream_position(self):
        shard = IngestShard(0, 1000.0)
        events = [
            JobSubmitted(1.0, tenant="x", job_id="x0"),
            TenantLeft(2.0, tenant="x"),
            JobSubmitted(3.0, tenant="x", job_id="x1"),
        ]
        shard.fold(events)
        stats = shard.window.snapshot()["x"]
        # Only the post-rejoin submission survives the drop.
        assert stats.submitted == 1


class TestTraceReplay:
    def test_dump_load_roundtrip(self, tmp_path):
        events = _events(seed=7, count=120)
        path = tmp_path / "trace.jsonl"
        assert dump_trace_events(events, path) == len(events)
        restored = load_trace_events(path)
        assert restored == events

    def test_load_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "Heartbeat", "time": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_trace_events(path)

    def test_recorded_replay_round_trips_through_sharded_pipeline(self):
        """ROADMAP item: record a replay, re-drive it from the file
        through the sharded pipeline, land on the same statistics."""
        scenario = make_scenario("steady", scale=1.0, horizon=1200.0)
        recorded: list = []
        service = build_service(scenario, _service_config(), seed=3)
        ScenarioReplayer(
            scenario, service, seed=3, record_to=recorded
        ).run()
        assert recorded
        replayed = build_service(scenario, _service_config(), seed=3, shards=4)
        summary = replay_trace(replayed, recorded)
        assert summary.scenario == "trace"
        assert summary.events == sum(
            1 for e in recorded if not isinstance(e, Heartbeat)
        )
        assert summary.max_stats_gap < 1e-9
        live = service.window
        merged = replayed.window
        merged.advance(live.now)
        _stats_close(live.snapshot(), merged.batch_recompute())
        # Same telemetry, same cadence: the decisions agree too.
        assert [(d.time, d.retuned) for d in service.decisions] == [
            (d.time, d.retuned) for d in replayed.decisions
        ]

    def test_cli_trace_replay(self, tmp_path):
        import io

        from repro.cli import main

        trace = tmp_path / "steady.jsonl"
        out = io.StringIO()
        code = main(
            [
                "replay",
                "--scenario",
                "steady",
                "--horizon",
                "0.3",
                "--seed",
                "2",
                "--save-trace",
                str(trace),
            ],
            out=out,
        )
        assert code == 0
        assert "trace saved" in out.getvalue()
        out = io.StringIO()
        code = main(
            [
                "replay",
                "--scenario",
                "steady",
                "--trace",
                str(trace),
                "--shards",
                "2",
            ],
            out=out,
        )
        assert code == 0
        assert "trace=" in out.getvalue()

    def test_cli_trace_requires_existing_file(self, tmp_path):
        import io

        from repro.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(
                ["replay", "--trace", str(tmp_path / "nope.jsonl")],
                out=io.StringIO(),
            )

    def test_trace_pacing_uses_trace_local_clock(self):
        """A trace starting at a huge absolute timestamp must not sleep
        the offset away before delivering the first chunk."""
        import time as _time

        scenario = make_scenario("steady", scale=1.0, horizon=1200.0)
        shift = 1.7e9  # epoch-scale offset, as a real RM log would carry
        events = [
            JobSubmitted(shift + float(i), tenant="deadline", job_id=f"j{i}")
            for i in range(20)
        ]
        service = build_service(scenario, _service_config(), seed=0)
        started = _time.perf_counter()
        summary = replay_trace(service, events, speedup=1000.0)
        assert _time.perf_counter() - started < 5.0
        assert summary.events == len(events)

    def test_durable_trace_state_dir_writes_meta_and_refuses_resume(
        self, tmp_path
    ):
        """--trace with --state-dir journals durably, records a meta
        descriptor (so compact stays shard-aware), and resume refuses
        with a pointer back to the trace file."""
        import io

        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        dump_trace_events(_events(seed=21, count=50, controls=False), trace)
        state_dir = tmp_path / "state"
        code = main(
            [
                "replay",
                "--scenario",
                "steady",
                "--trace",
                str(trace),
                "--shards",
                "2",
                "--state-dir",
                str(state_dir),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        meta = json.loads((state_dir / "meta.json").read_text())
        assert meta["transport"] == "trace"
        assert meta["shards"] == 2
        with pytest.raises(SystemExit, match="trace-replay"):
            main(["resume", "--state-dir", str(state_dir)], out=io.StringIO())

    def test_api_resume_detects_sharded_layout_from_path(self, tmp_path):
        """Resuming a sharded dir through a bare path (no shards=) must
        replay the shard journals, not just the control journal."""
        events = _events(seed=22, count=200)
        state = ServiceState(tmp_path, shards=3, snapshot_every=10**9)
        live = build_service(
            _scenario(), _service_config(), seed=0, state=state, shards=3
        )
        live.ingest_batch(events)
        live.close()
        state.close()
        # No meta.json here (API-driven dir): layout detected from the
        # shard-NN trees on disk.
        resumed = TempoService.resume(
            build_controller(_scenario()), tmp_path, _service_config()
        )
        assert resumed.num_shards == 3
        assert resumed.events_processed == live.events_processed
        _stats_close(live.window.snapshot(), resumed.window.snapshot())
        resumed.close()


class TestShardedCli:
    @pytest.mark.parametrize("command", ["serve", "replay", "chaos"])
    @pytest.mark.parametrize("flag", ["--tcp-workers"])
    def test_worker_flags_refused_for_one_shard(self, tmp_path, command, flag):
        import io

        from repro.cli import main

        argv = [command, "--scenario", "steady", "--horizon", "0.1"]
        argv += ["--shards", "1", flag]
        if command == "chaos":
            argv += ["--fault", "kill-shard@t=1"]
        else:
            argv += ["--state-dir", str(tmp_path / "state")]
        with pytest.raises(SystemExit, match="control journal"):
            main(argv, out=io.StringIO())
        assert not (tmp_path / "state").exists()

    def test_serve_shards_then_resume(self, tmp_path):
        import io

        from repro.cli import main

        state_dir = str(tmp_path / "state")
        out = io.StringIO()
        code = main(
            [
                "serve",
                "--scenario",
                "steady",
                "--horizon",
                "0.3",
                "--seed",
                "1",
                "--shards",
                "4",
                "--state-dir",
                state_dir,
            ],
            out=out,
        )
        assert code == 0
        assert "shards=4" in out.getvalue()
        for i in range(4):
            assert (Path(state_dir) / f"shard-{i:02d}" / "journal").is_dir()
        out = io.StringIO()
        code = main(["resume", "--state-dir", state_dir], out=out)
        assert code == 0
        assert "resumed from" in out.getvalue()
        assert "shards=4" in out.getvalue()

    def test_resume_reshard_flow(self, tmp_path):
        import io

        from repro.cli import main

        state_dir = str(tmp_path / "state")
        code = main(
            [
                "replay",
                "--scenario",
                "steady",
                "--horizon",
                "0.3",
                "--seed",
                "2",
                "--shards",
                "2",
                "--state-dir",
                state_dir,
            ],
            out=io.StringIO(),
        )
        assert code == 0
        with pytest.raises(SystemExit, match="--reshard"):
            main(
                ["resume", "--state-dir", state_dir, "--shards", "4"],
                out=io.StringIO(),
            )
        out = io.StringIO()
        code = main(
            ["resume", "--state-dir", state_dir, "--shards", "4", "--reshard"],
            out=out,
        )
        assert code == 0
        assert "resharded data plane: 2 -> 4" in out.getvalue()
        meta = json.loads((Path(state_dir) / "meta.json").read_text())
        assert meta["shards"] == 4
