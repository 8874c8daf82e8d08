"""Tests for the failover plane: fault grammar, failure detector,
dead/faulted shard stand-ins, the deterministic injector, the crash
matrix (fault kind x shard count x plane), the kill -9 mid-replay
acceptance run, the drain-barrier regression, random fault schedules
as hypothesis properties, and the ``repro chaos`` harness."""

import math
import os
import shutil
import signal
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import (
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    TaskCompleted,
)
from repro.service.failover import (
    FAULT_KINDS,
    DeadShard,
    FailoverConfig,
    FailureDetector,
    FaultInjector,
    FaultSpec,
    FaultedShard,
    parse_fault,
    run_chaos,
)
from repro.service.ingest import RollingWindow
from repro.service.journal import canonical_json, decode_event, encode_event
from repro.service.replay import build_controller, build_service, make_scenario
from repro.service.sharding import (
    IngestShard,
    ShardFailedError,
    ShardRouter,
)
from repro.service.snapshot import ServiceState
from repro.service.transport import RemoteShardHandle, start_remote_shards
from repro.workload.trace import JobRecord, TaskRecord

TENANTS = tuple(f"tenant-{i:02d}" for i in range(11))

TELEMETRY = (JobSubmitted, TaskCompleted, JobCompleted)

#: Fast supervision for tests: detection within half a second, and the
#: tightest failover_after the >= 2x heartbeat-interval rule allows.
FAST = FailoverConfig(heartbeat_interval=0.1, failover_after=0.5)


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


def _events(seed=0, count=240, tenants=TENANTS, heartbeat_every=0):
    """Deterministic many-tenant telemetry stream, optionally punctuated
    by broadcast heartbeats (the journal boundaries failover rewinds to)."""
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
    if heartbeat_every:
        beats = [
            Heartbeat(events[i].time + 1e-6)
            for i in range(heartbeat_every - 1, len(events), heartbeat_every)
        ]
        events.extend(beats)
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


def _journaled_telemetry(root, shards):
    """Re-read every shard journal end to end (CRC-checked frame by
    frame) and return the decoded telemetry events per shard."""
    reader = ServiceState(root, shards=shards)
    try:
        out = []
        for i in range(shards):
            out.append(
                [
                    decode_event(record.data)
                    for record in reader.shard_journal(i).iter_records()
                    if record.kind == "event"
                    and record.data.get("type")
                    in ("JobSubmitted", "TaskCompleted", "JobCompleted")
                ]
            )
        return out
    finally:
        reader.close()


def _routed_telemetry(events, shards):
    """The fault-free oracle routing: telemetry per owning shard."""
    router = ShardRouter(shards)
    routed = [[] for _ in range(shards)]
    for event in events:
        if isinstance(event, TELEMETRY):
            routed[router.route(event)].append(event)
    return routed


def _event_keys(events):
    """Canonical identity of each telemetry event (duplicate detector)."""
    return [canonical_json(encode_event(e)) for e in events]


def _kill_worker(service, shard_id):
    """SIGKILL one loopback TCP worker from outside, as a crash would."""
    os.kill(service._launcher._procs[shard_id].pid, signal.SIGKILL)


def _oracle_stats(journaled, window, now):
    """Batch-recompute oracle: fold every journaled telemetry event into
    a fresh window, advance to the merged clock, recompute from scratch."""
    oracle = RollingWindow(window)
    oracle.ingest_many(sorted(journaled, key=lambda e: e.time))
    oracle.advance(now)
    return oracle.batch_recompute()


class TestFaultGrammar:
    def test_parse_round_trips_through_canonical(self):
        for text in (
            "kill-shard@t=2",
            "kill-shard:3@t=0",
            "stall-shard:1@t=3@for=4",
            "drop-batches@t=1.5@for=2",
            "slow-journal:0@t=2@for=3",
        ):
            spec = parse_fault(text)
            assert spec.canonical() == text
            assert parse_fault(spec.canonical()) == spec

    def test_parse_defaults(self):
        spec = parse_fault("kill-shard@t=2")
        assert spec == FaultSpec(kind="kill-shard", at=2.0, shard=None, amount=None)

    @pytest.mark.parametrize(
        "text",
        [
            "explode-shard@t=1",  # unknown kind
            "kill-shard",  # no time
            "kill-shard@t=-1",  # negative time
            "kill-shard:x@t=1",  # non-numeric shard
            "kill-shard@t=1@for=0",  # non-positive amount
            "",
        ],
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nope", at=1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="kill-shard", at=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="kill-shard", at=1.0, shard=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="stall-shard", at=1.0, amount=-2.0)


class TestFailoverConfig:
    def test_defaults_valid(self):
        config = FailoverConfig()
        assert config.failover_after >= 2 * config.heartbeat_interval

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            FailoverConfig(heartbeat_interval=0.0)

    def test_rejects_failover_after_below_two_intervals(self):
        # Between beats a healthy worker's observed age legitimately
        # reaches one full interval; a smaller bound false-positives.
        with pytest.raises(ValueError, match="twice"):
            FailoverConfig(heartbeat_interval=1.0, failover_after=1.5)
        assert FailoverConfig(heartbeat_interval=1.0, failover_after=2.0)


class TestFailureDetector:
    def test_age_and_phi_track_observations(self):
        detector = FailureDetector(FailoverConfig(1.0, 5.0))
        assert detector.age(0) == 0.0
        detector.observe(0, 2.0)
        assert detector.age(0) == 2.0
        assert detector.phi(0) == pytest.approx(2.0 * math.log10(math.e))
        detector.observe(0, 0.0)
        assert detector.age(0) == 0.0
        assert not detector.suspect(0)

    def test_suspect_is_the_configured_timeout(self):
        detector = FailureDetector(FailoverConfig(1.0, 5.0))
        detector.observe(3, 5.0)
        assert not detector.suspect(3)
        detector.observe(3, 5.01)
        assert detector.suspect(3)

    def test_negative_ages_clamp_to_zero(self):
        detector = FailureDetector(FailoverConfig(1.0, 5.0))
        detector.observe(1, -4.0)
        assert detector.age(1) == 0.0


class TestDeadShard:
    def test_every_data_path_raises_shard_failed(self):
        dead = DeadShard(3, reason="killed")
        assert dead.alive is False
        assert dead.pending_batches == 0
        for call in (
            lambda: dead.window,
            lambda: dead.last_seq,
            lambda: dead.ingest([]),
            lambda: dead.fold([]),
            lambda: dead.advance(1.0),
            lambda: dead.drain_state(1.0),
            lambda: dead.drain_stats(1.0),
            lambda: dead.checkpoint(1.0),
            lambda: dead.restore({}),
        ):
            with pytest.raises(ShardFailedError) as exc:
                call()
            assert exc.value.shard_id == 3
            assert exc.value.reason == "killed"
        assert dead.submit(Heartbeat(1.0)) is False
        dead.close()  # no-op, never raises


class TestFaultedShard:
    def _shard(self):
        return IngestShard(0, 600.0)

    def test_stall_raises_at_every_barrier(self):
        faulted = FaultedShard(self._shard(), "stall")
        for call in (
            lambda: faulted.ingest([Heartbeat(1.0)]),
            lambda: faulted.drain_state(1.0),
            lambda: faulted.drain_stats(1.0),
            lambda: faulted.checkpoint(1.0),
        ):
            with pytest.raises(ShardFailedError) as exc:
                call()
            assert exc.value.reason == "stall"

    def test_drop_counts_telemetry_only_and_exhausts(self):
        inner = self._shard()
        faulted = FaultedShard(inner, "drop", batches=1)
        events = _events(seed=1, count=2, heartbeat_every=3)
        telemetry = sum(1 for e in events if isinstance(e, TELEMETRY))
        faulted.ingest(events)  # dropped
        assert faulted.telemetry_dropped == telemetry
        assert inner.window.events_ingested == 0
        assert faulted.exhausted
        faulted.ingest(events)  # budget spent: delegates
        assert inner.window.events_ingested == telemetry

    def test_slow_delegates_every_record(self):
        inner = self._shard()
        faulted = FaultedShard(inner, "slow", batches=1)
        events = [e for e in _events(seed=2, count=3) if isinstance(e, TELEMETRY)]
        faulted.ingest(events)
        assert inner.window.events_ingested == len(events)
        assert faulted.exhausted

    def test_delegation_and_unwrap(self):
        inner = self._shard()
        faulted = FaultedShard(inner, "drop", batches=1)
        assert faulted.shard_id == 0  # __getattr__ delegation
        assert faulted.inner is inner
        with pytest.raises(ValueError):
            FaultedShard(inner, "explode")


class _StubService:
    """Minimal service surface the injector binds to (in-process)."""

    def __init__(self, shards=4, interval=300.0):
        self.config = _service_config(retune_interval=interval)
        self.num_shards = shards
        self.shards = [IngestShard(i, 600.0) for i in range(shards)]
        self.failover = FAST


class TestFaultInjector:
    def test_advance_before_arm_raises(self):
        with pytest.raises(RuntimeError, match="arm"):
            FaultInjector(["kill-shard@t=1"]).advance(1.0)

    def test_times_resolve_in_interval_units(self):
        injector = FaultInjector([FaultSpec("kill-shard", at=2.0, shard=1)])
        injector.arm(_StubService(shards=2, interval=300.0))
        assert injector.advance(599.9) == []
        fired = injector.advance(600.0)
        assert [spec.kind for spec in fired] == ["kill-shard"]
        assert injector.injected == ["kill-shard:1@600s"]
        assert injector.pending == []

    def test_unpinned_shard_is_seed_deterministic(self):
        picks = []
        for _ in range(2):
            injector = FaultInjector(["kill-shard@t=1"], seed=7)
            injector.arm(_StubService(shards=4))
            injector.advance(10**9)
            picks.append(injector.fired[0][2])
        assert picks[0] == picks[1]
        assert 0 <= picks[0] < 4

    def test_pinned_shard_out_of_range_rejected_at_arm(self):
        injector = FaultInjector(["kill-shard:5@t=1"])
        with pytest.raises(ValueError, match="shard 5"):
            injector.arm(_StubService(shards=2))

    def test_kill_and_drop_mutate_the_data_plane(self):
        service = _StubService(shards=2)
        injector = FaultInjector(
            ["kill-shard:0@t=1", "drop-batches:1@t=1@for=1"], seed=0
        )
        injector.arm(service)
        injector.advance(10**9)
        assert isinstance(service.shards[0], DeadShard)
        assert isinstance(service.shards[1], FaultedShard)
        telemetry = [e for e in _events(seed=3, count=2) if isinstance(e, TELEMETRY)]
        service.shards[1].ingest(telemetry)
        assert injector.dropped_by_shard() == {1: len(telemetry)}

    def test_kill_over_an_open_partition_books_the_buffered_tail(self):
        service = _StubService(shards=1)
        injector = FaultInjector(
            [FaultSpec("partition", at=1.0, shard=0, amount=60.0), "kill-shard:0@t=2"]
        )
        injector.arm(service)
        injector.advance(300.0)
        telemetry = [e for e in _events(seed=3, count=2) if isinstance(e, TELEMETRY)]
        service.shards[0].ingest(telemetry)  # buffered: never journaled
        injector.advance(600.0)
        assert isinstance(service.shards[0], DeadShard)
        assert injector.dropped_by_shard() == {0: len(telemetry)}


class TestCrashMatrix:
    """Every fault kind x {1, 2, 4} shards x {in-process, TCP workers}.

    The uniform post-mortem: the journals re-read CRC-clean end to end,
    surviving shards journal exactly the telemetry routed to them (minus
    what drop faults discarded before any shard saw it) and no shard
    journals an event twice, and the merged window statistics equal a
    fresh batch recompute over the journaled survivor set to 1e-9 — the
    same oracle the fault-free sharding tests hold the data plane to.
    The ids name each plane's role: loopback TCP is the worker plane.
    """

    @pytest.mark.parametrize("plane", ["inproc", "tcp"], ids=["inproc", "workers"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_matrix(self, tmp_path, kind, shards, plane):
        tcp = plane == "tcp"
        if tcp and shards == 1:
            pytest.skip("worker data plane requires shards > 1")
        events = _events(seed=3 + shards, count=240, heartbeat_every=60)
        half = len(events) // 2
        victim = 0 if shards == 1 else 1
        amount = {
            "stall-shard": 1.0,
            "drop-batches": 2.0,
            "slow-journal": 2.0,
            # Transient partition: shorter than FAST.failover_after, so
            # it heals instead of failing over; the heal wait below
            # lets the post-mortem barrier flush the partition buffer.
            "partition": 0.3,
            "slow-net": 5.0,  # 5ms per frame: pure latency
            "drop-net": 2.0,
        }.get(kind)
        state = ServiceState(tmp_path, shards=shards)
        service = build_service(
            _scenario(),
            _service_config(),
            seed=0,
            state=state,
            shards=shards,
            tcp_workers=tcp,
            failover=FAST,
        )
        injector = FaultInjector(
            [FaultSpec(kind=kind, at=1.0, shard=victim, amount=amount)], seed=0
        )
        injector.arm(service)
        service.ingest_batch(events[:half])
        assert injector.advance(10**9), "the scheduled fault must fire"
        service.ingest_batch(events[half:])
        if kind == "partition":
            # Wait out the partition window so the barrier below heals
            # the link and flushes the buffered tail to the journal.
            time.sleep(amount + 0.2)
        if kind == "stall-shard" and tcp:
            # Give supervision time to notice the unresponsive worker.
            deadline = time.monotonic() + 5.0
            while not service.failovers and time.monotonic() < deadline:
                service.check_shards()
                time.sleep(0.05)

        merged = service.window  # live merged view: forces a full barrier
        snap, now = merged.snapshot(), merged.now
        failovers = list(service.failovers)
        transport = service.transport_stats()
        service.close()
        state.close()

        failed = {report.shard for report in failovers}
        if kind in ("kill-shard", "stall-shard"):
            assert failed == {victim}
            report = failovers[0]
            if kind == "kill-shard":
                assert report.reason in ("killed", "fenced", "process-exit")
            else:
                assert report.reason in ("stall", "reply-timeout", "heartbeat-timeout")
            assert report.latency >= 0.0
        else:
            assert failed == set()  # non-fatal faults never fail over
        if kind in ("drop-batches", "drop-net"):
            # Every plane, one shard included, has a producer->shard
            # batch boundary: drops must really happen there.
            assert sum(injector.dropped_by_shard().values()) > 0
        if kind == "partition" and tcp:
            # The real transport partitioned and healed by reconnect.
            assert transport[victim].get("partitions", 0) >= 1
            assert transport[victim].get("reconnects", 0) >= 1

        routed = _routed_telemetry(events, shards)
        journaled = _journaled_telemetry(tmp_path, shards)
        dropped = injector.dropped_by_shard()
        for i in range(shards):
            expected = len(routed[i]) - dropped.get(i, 0)
            if i in failed and tcp:
                # A killed worker's queue residue and truncated tail are
                # the failover's bounded loss; never negative, never a
                # survivor's.
                assert 0 <= len(journaled[i]) <= expected
            else:
                assert len(journaled[i]) == expected, f"shard {i} lost events"
            keys = _event_keys(journaled[i])
            assert len(set(keys)) == len(keys), f"shard {i} duplicates"

        _stats_close(
            snap,
            _oracle_stats(
                [e for part in journaled for e in part], service.config.window, now
            ),
        )


class TestKillNineAcceptance:
    def test_sigkill_mid_replay_bounded_recovery(self, tmp_path):
        """kill -9 one loopback worker mid-stream: the service keeps
        serving, the replacement resumes from the shard journal at the
        broadcast heartbeat boundary, survivors lose nothing, merged
        stats match the batch oracle to 1e-9, and a resume restores the
        decision records bit-identically — no sleeps anywhere."""
        events = _events(seed=5, count=300, heartbeat_every=30)
        half = len(events) // 2
        state = ServiceState(tmp_path, shards=4)
        service = build_service(
            _scenario(),
            _service_config(),
            seed=0,
            state=state,
            shards=4,
            tcp_workers=True,
            failover=FAST,
        )
        service.ingest_batch(events[:half])
        assert isinstance(service.shards[1], RemoteShardHandle)
        _kill_worker(service, 1)

        service.ingest_batch(events[half:])  # keeps serving
        assert [report.shard for report in service.failovers] == [1]
        report = service.failovers[0]
        assert report.reason == "process-exit"
        assert report.boundary > 0.0  # rewound to a real heartbeat edge
        assert service.shard_failures == 1
        assert service.shard_recoveries == 1

        merged = service.window
        snap, now = merged.snapshot(), merged.now
        decisions = [(d.time, d.retuned, d.reason) for d in service.decisions]
        assert decisions  # the stream spans multiple cadence ticks
        telemetry_live = service.telemetry_ingested
        service.close()
        state.close()

        routed = _routed_telemetry(events, 4)
        journaled = _journaled_telemetry(tmp_path, 4)
        for i in (0, 2, 3):  # survivors: zero loss, exactly
            assert len(journaled[i]) == len(routed[i])
        assert len(journaled[1]) <= len(routed[1])  # bounded loss
        # The live counter subtracts the truncated tail but cannot see
        # the dead worker's queue residue: journaled <= counted <= routed.
        total_routed = sum(len(part) for part in routed)
        assert sum(len(part) for part in journaled) <= telemetry_live <= total_routed

        _stats_close(
            snap,
            _oracle_stats(
                [e for part in journaled for e in part], service.config.window, now
            ),
        )

        resumed = TempoService.resume(
            build_controller(_scenario()), tmp_path, _service_config(), shards=4
        )
        assert [(d.time, d.retuned, d.reason) for d in resumed.decisions] == decisions
        assert resumed.shard_failures == 1
        assert resumed.shard_recoveries == 1
        _stats_close(resumed.window.snapshot(), snap)
        resumed.close()

    def test_exited_worker_fails_over_in_the_same_call(self, tmp_path):
        """A loopback worker killed from outside is a process exit, not
        a partition: the next ``ingest_batch`` fails it over with
        ``process-exit`` and serves no stale statistics on the way."""
        events = _events(seed=6, count=200, heartbeat_every=20)
        half = len(events) // 2
        state = ServiceState(tmp_path, shards=2)
        service = build_service(
            _scenario(),
            _service_config(),
            seed=0,
            state=state,
            shards=2,
            tcp_workers=True,
            failover=FAST,
        )
        try:
            service.ingest_batch(events[:half])
            process = service._launcher._procs[1]
            _kill_worker(service, 1)
            process.join(10.0)  # exited (and reaped) before the next call
            assert not process.is_alive()
            service.ingest_batch(events[half:])
            assert [(r.shard, r.reason) for r in service.failovers] == [
                (1, "process-exit")
            ]
            assert service.stale_serves == 0
        finally:
            service.close()
            state.close()


class TestDrainBarrierRegression:
    """The latent hang: a worker dying mid-batch left the control plane
    blocked on a reply that would never come.  A launched worker's
    handle probes its process, so a barrier sees the death at once."""

    def test_dead_worker_mid_drain_surfaces_quickly(self):
        handles, launcher = start_remote_shards(1, 600.0)  # unsupervised
        handle = handles[0]
        try:
            handle.ingest([e for e in _events(seed=7, count=5)])
            handle.drain_state(10.0)  # connected, batches applied
            launcher._procs[0].kill()
            started = time.monotonic()
            with pytest.raises(ShardFailedError) as exc:
                handle.drain_state(10.0)
            assert exc.value.reason == "process-exit"
            # Far below the 120s unsupervised reply timeout: the barrier
            # saw the death, it did not wait out the clock.
            assert time.monotonic() - started < 30.0
        finally:
            handle.close()
            launcher.close()

    def test_stalled_worker_hits_the_supervised_reply_bound(self):
        handles, launcher = start_remote_shards(
            1, 600.0, heartbeat_interval=0.1, failover_after=0.5
        )
        handle = handles[0]
        try:
            handle.stall(3.0)
            started = time.monotonic()
            with pytest.raises(ShardFailedError) as exc:
                handle.drain_state(10.0)
            assert exc.value.reason == "reply-timeout"
            assert time.monotonic() - started < 30.0
        finally:
            handle.kill()  # fence it; no need to wait out the stall
            launcher.close()

    def test_service_barrier_fails_over_a_worker_killed_mid_drain(self, tmp_path):
        state = ServiceState(tmp_path, shards=2)
        service = build_service(
            _scenario(),
            _service_config(),
            seed=0,
            state=state,
            shards=2,
            tcp_workers=True,
            failover=FAST,
        )
        try:
            service.ingest_batch(_events(seed=8, count=40))
            _kill_worker(service, 0)
            started = time.monotonic()
            merged = service.window  # drain barrier: must not hang
            assert time.monotonic() - started < 30.0
            assert merged.now >= 0.0
            assert [report.shard for report in service.failovers] == [0]
        finally:
            service.close()
            state.close()


@st.composite
def fault_schedule(draw, shards):
    """A random—but reproducible—fault schedule for one data plane."""
    specs = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        at = draw(
            st.floats(min_value=0.25, max_value=3.0, allow_nan=False).map(
                lambda x: round(x, 2)
            )
        )
        shard = draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=shards - 1))
        )
        amount = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
        specs.append(
            FaultSpec(
                kind=kind,
                at=at,
                shard=shard,
                amount=None if amount is None else float(amount),
            )
        )
    return specs


class TestFaultScheduleProperties:
    """Random fault schedules x random event streams (in-process plane).

    The headline invariants: journaled telemetry for every shard equals
    the routed stream minus injected producer-side drops (the in-process
    plane loses *nothing*, even on failed shards — its journals are
    parent-owned), every scheduled fault either fired or is still
    pending on the virtual clock, and the drain barrier completes in
    bounded wall time with no sleeps anywhere."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_no_survivor_loss_and_bounded_drain(self, data):
        shards = data.draw(st.integers(min_value=1, max_value=3), label="shards")
        specs = data.draw(fault_schedule(shards), label="faults")
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        count = data.draw(st.integers(min_value=20, max_value=80), label="events")
        events = _events(seed=seed, count=count, heartbeat_every=25)
        started = time.monotonic()
        root = tempfile.mkdtemp(prefix="tempo-failover-prop-")
        try:
            state = ServiceState(root, shards=shards)
            service = build_service(
                _scenario(),
                _service_config(),
                seed=0,
                state=state,
                shards=shards,
                failover=FAST,
            )
            injector = FaultInjector(specs, seed=seed)
            injector.arm(service)
            third = max(1, len(events) // 3)
            for i in range(0, len(events), third):
                batch = events[i : i + third]
                injector.advance(batch[-1].time)
                service.ingest_batch(batch)
            injector.advance(10**9)
            merged = service.window  # the drain barrier must complete
            assert merged.now >= 0.0
            service.close()
            state.close()

            assert len(injector.fired) + len(injector.pending) == len(specs)
            routed = _routed_telemetry(events, shards)
            journaled = _journaled_telemetry(root, shards)
            dropped = injector.dropped_by_shard()
            for i in range(shards):
                assert len(journaled[i]) == len(routed[i]) - dropped.get(i, 0)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        # Bounded end to end: virtual-clock injection, no wall sleeps.
        assert time.monotonic() - started < 60.0


class TestChaosHarness:
    def test_inprocess_kill_survives_with_zero_survivor_loss(self, tmp_path):
        report = run_chaos(
            "flash-failure",
            ["kill-shard:1@t=1"],
            shards=2,
            horizon=2 * 3600.0,
            window=600.0,
            interval=300.0,
            heartbeat_interval=0.1,
            failover_after=0.5,
            state_dir=tmp_path,
            seed=0,
        )
        assert report.ok
        assert report.recovered
        assert report.survivor_events_lost == 0
        assert report.survivor_events_expected > 0
        assert report.injected == ("kill-shard:1@300s",)
        assert [r.shard for r in report.failovers] == [1]
        assert report.max_stats_gap < 1e-9
        assert report.lines()[-1].endswith("SURVIVED")

    def test_faults_past_the_horizon_report_unfired(self, tmp_path):
        report = run_chaos(
            "steady",
            ["kill-shard:0@t=99"],
            shards=2,
            horizon=1800.0,
            window=600.0,
            interval=300.0,
            heartbeat_interval=0.1,
            failover_after=0.5,
            state_dir=tmp_path,
            seed=0,
        )
        assert report.injected == ()
        assert report.unfired == ("kill-shard:0@t=99",)
        assert report.failovers == ()
        assert report.ok  # nothing fired, nothing lost
        assert report.retunes_missed == 0
