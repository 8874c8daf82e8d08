"""Tests for the fast durable ingest path: group commit, batch ingest,
heap-driven eviction, journal compaction, and node recovery."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rm.cluster import ClusterSpec
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
from repro.service.ingest import RollingWindow, stats_gap
from repro.service.journal import (
    EventJournal,
    JournalError,
    decode_event,
    encode_event,
)
from repro.service.replay import build_controller, build_service, make_scenario
from repro.service.snapshot import ServiceState
from repro.workload.trace import JobRecord, TaskRecord, Trace


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


def _events(seed=0, count=400, tenants=("deadline", "besteffort"), start=0.0):
    """Deterministic telemetry stream (same shape as the service tests)."""
    rng = np.random.default_rng(seed)
    events, t = [], start
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
            JobCompleted(
                finish,
                record=JobRecord(
                    job_id=job_id, tenant=tenant, submit_time=t, finish_time=finish
                ),
            )
        )
    events.sort(key=lambda e: e.time)
    return events


def _build(state=None, seed=0, **controller_kwargs):
    scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
    return build_service(
        scenario,
        ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3),
        seed=seed,
        state=state,
        **controller_kwargs,
    )


def _service_config():
    return ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3)


class TestGroupCommit:
    def test_append_many_roundtrip_with_rotation(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=3)
        events = _events(seed=5, count=4)  # 12 records -> 4 segments
        seqs = journal.append_many(("event", encode_event(e)) for e in events)
        journal.close()
        assert seqs == list(range(1, len(events) + 1))
        assert len(journal.segments()) == len(events) // 3
        records = list(EventJournal(tmp_path).iter_records())
        assert [r.seq for r in records] == seqs
        assert [decode_event(r.data) for r in records] == events

    def test_one_fsync_per_batch(self, tmp_path, monkeypatch):
        """Group commit pays at most one fsync per segment touched."""
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        journal = EventJournal(tmp_path, segment_records=1000, fsync=True)
        journal.append_events(_events(seed=6, count=10))  # 30 records
        assert len(calls) == 1
        calls.clear()
        for event in _events(seed=6, count=5):  # 15 per-record appends
            journal.append("event", encode_event(event))
        assert len(calls) == 15
        journal.close()

    def test_torn_batch_repaired_as_single_torn_line(self, tmp_path):
        """A batch interrupted mid-write leaves a prefix + one torn frame."""
        journal = EventJournal(tmp_path, segment_records=1000)
        events = _events(seed=7, count=20)
        journal.append_events(events)
        journal.close()
        segment = journal.segments()[-1]
        raw = segment.read_bytes()
        # Cut the file mid-way through the final record, as a crash
        # between write() and the page cache landing would.
        segment.write_bytes(raw[: len(raw) - 25])
        reopened = EventJournal(tmp_path)
        records = list(reopened.iter_records())
        assert len(records) == len(events) - 1
        assert reopened.last_seq == len(events) - 1
        # Appends continue densely after the torn record's seq.
        assert reopened.append("event", encode_event(Heartbeat(1e9))) == len(events)

    def test_no_recount_on_reopen_after_interleaved_read(self, tmp_path, monkeypatch):
        """The read-then-append pattern must not re-scan the segment.

        ``iter_records`` closes the write handle; the next append used
        to pay an O(segment) record-count scan on reopen.  The
        cached tail count makes it O(1) — enforced by making the scan
        explode.
        """
        journal = EventJournal(tmp_path, segment_records=100)
        journal.append_events(_events(seed=8, count=10))
        assert len(list(journal.iter_records())) == 30
        monkeypatch.setattr(
            EventJournal,
            "_count_records",
            staticmethod(lambda path: pytest.fail("tail was re-counted")),
        )
        journal.append("event", encode_event(Heartbeat(1e9)))
        assert len(list(journal.iter_records())) == 31
        journal.append("event", encode_event(Heartbeat(2e9)))
        journal.close()
        assert EventJournal(tmp_path).last_seq == 32

    def test_rotation_preserved_across_interleaved_reads(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=4)
        for i in range(3):
            journal.append_events([Heartbeat(float(i))])
            list(journal.iter_records())
        journal.append_events([Heartbeat(float(i)) for i in range(3, 9)])
        journal.close()
        assert len(journal.segments()) == 3  # 9 records / 4 per segment
        assert [r.seq for r in journal.iter_records()] == list(range(1, 10))


class TestWriterFailure:
    """A failed write is fail-stop: nothing is acknowledged past the hole."""

    @staticmethod
    def _break_writer(journal, monkeypatch):
        monkeypatch.setattr(
            journal,
            "_write_entries",
            lambda entries: (_ for _ in ()).throw(OSError("disk full")),
        )

    def test_writer_failure_surfaces_on_next_append(self, tmp_path, monkeypatch):
        journal = EventJournal(tmp_path)
        self._break_writer(journal, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            journal.append("event", encode_event(Heartbeat(1.0)))
        monkeypatch.undo()
        # Fail-stop: a working disk again does not resume the journal.
        with pytest.raises(JournalError, match="journal writer failed"):
            journal.append("event", encode_event(Heartbeat(2.0)))
        with pytest.raises(JournalError):
            journal.flush()
        with pytest.raises(JournalError):
            journal.close()
        assert journal._fh is None  # the handle is closed all the same
        assert list(EventJournal(tmp_path).iter_records()) == []

    def test_writer_failure_leaves_no_seq_gap(self, tmp_path, monkeypatch):
        """Nothing acknowledged after the hole may land: a reopened
        journal must never show seqs 1, 3, 4 with 2 silently gone."""
        journal = EventJournal(tmp_path)
        journal.append("event", encode_event(Heartbeat(1.0)))
        journal.flush()
        self._break_writer(journal, monkeypatch)
        with pytest.raises(OSError):
            journal.append("event", encode_event(Heartbeat(2.0)))
        monkeypatch.undo()
        for when in (3.0, 4.0, 5.0):
            with pytest.raises(JournalError):
                journal.append("event", encode_event(Heartbeat(when)))
        with pytest.raises(JournalError):
            journal.append_events([Heartbeat(6.0)])
        with pytest.raises(JournalError):
            journal.close()
        reopened = EventJournal(tmp_path)
        assert [r.seq for r in reopened.iter_records()] == [1]
        reopened.close()

    def test_writer_failure_keeps_string_table_readable(
        self, tmp_path, monkeypatch
    ):
        """A failed batch that defined a new tenant string must not let a
        later batch reference the define that never reached the disk."""
        journal = EventJournal(tmp_path)
        journal.append_events(_events(seed=20, count=5, tenants=("old",)))
        journal.flush()
        self._break_writer(journal, monkeypatch)
        with pytest.raises(OSError):
            journal.append_events(_events(seed=21, count=5, tenants=("new",)))
        monkeypatch.undo()
        with pytest.raises(JournalError):
            journal.append_events(_events(seed=22, count=5, tenants=("new",)))
        with pytest.raises(JournalError):
            journal.close()
        reopened = EventJournal(tmp_path)
        assert [r.seq for r in reopened.iter_records()] == list(range(1, 16))
        reopened.close()


class TestHeapEviction:
    def test_many_tenants_forgotten_lazily(self):
        window = RollingWindow(100.0)
        for i in range(50):
            window.ingest(
                JobSubmitted(i * 10.0, tenant=f"t{i:02d}", job_id=f"j{i}")
            )
        # now=490, cutoff=390: tenants with their only entry before the
        # cutoff were already forgotten by the heap-driven eviction.
        assert len(window.tenants()) == 11
        window.advance(10_000.0)
        assert window.tenants() == []
        assert window.tasks_retained == 0

    def test_out_of_order_entry_still_evicted(self):
        """Bounded disorder delays eviction but never strands entries.

        An out-of-order entry sits behind a newer deque head, so (like
        the pre-heap implementation) it is evicted once the head
        expires — the documented delayed-eviction semantics.  The heap
        must deliver that wake-up even though the tenant's scheduled
        key was pushed for the out-of-order time.
        """
        window = RollingWindow(100.0)
        window.ingest(JobSubmitted(200.0, tenant="a", job_id="a1"))
        # Out-of-order entry older than the tenant's scheduled key.
        window.ingest(JobSubmitted(150.0, tenant="a", job_id="a0"))
        assert window.snapshot()["a"].submitted == 2
        window.advance(251.0)  # cutoff 151: the late entry is behind 200
        assert window.snapshot()["a"].submitted == 2  # delayed, by design
        window.advance(301.0)  # cutoff 201: both head and stragglers go
        assert window.tenants() == []
        assert stats_gap(window) < 1e-9

    def test_ingest_many_equivalent_to_sequential(self):
        events = _events(seed=11, count=300)
        one = RollingWindow(600.0)
        for event in events:
            one.ingest(event)
        many = RollingWindow(600.0)
        for i in range(0, len(events), 64):
            many.ingest_many(events[i : i + 64])
        assert stats_gap(many) < 1e-9
        assert one.tenants() == many.tenants()
        assert one.tasks_retained == many.tasks_retained
        assert one.jobs_retained == many.jobs_retained
        a, b = one.snapshot(), many.snapshot()
        for name in a:
            for field in (
                "jobs",
                "tasks",
                "submitted",
                "arrival_rate",
                "mean_response",
                "log_duration_mean",
                "log_duration_std",
            ):
                assert abs(getattr(a[name], field) - getattr(b[name], field)) < 1e-9

    def test_state_roundtrip_keeps_eviction_live(self):
        window = RollingWindow(600.0)
        for event in _events(seed=12, count=100):
            window.ingest(event)
        restored = RollingWindow.from_state(window.to_state())
        restored.advance(restored.now + 10_000.0)
        assert restored.tenants() == []  # heap was rebuilt, eviction works

    def test_control_events_rejected_by_ingest_many(self):
        window = RollingWindow(60.0)
        with pytest.raises(TypeError):
            window.ingest_many([Heartbeat(1.0)])


def _window_trace_by_replace(window, capacity=None):
    """``RollingWindow.trace()`` as it was written with ``dataclasses.replace``."""
    start = max(0.0, window._now - window.window)
    horizon = max(window._now - start, 1e-9)
    tasks, jobs = [], []
    for acc in window._tenants.values():
        for _, record, _ in acc.tasks:
            finish = max(record.finish_time - start, 0.0)
            begin = min(max(record.start_time - start, 0.0), finish)
            submit = min(max(record.submit_time - start, 0.0), begin)
            tasks.append(
                replace(record, submit_time=submit, start_time=begin, finish_time=finish)
            )
        for _, record in acc.jobs:
            if record.submit_time < start:
                continue
            deadline = None if record.deadline is None else record.deadline - start
            jobs.append(
                replace(
                    record,
                    submit_time=record.submit_time - start,
                    finish_time=max(record.finish_time - start, 0.0),
                    deadline=deadline,
                )
            )
    return Trace(tasks, jobs, capacity=capacity, horizon=horizon)


_TIME = st.floats(0.0, 2000.0, allow_nan=False)
_NAME = st.sampled_from(["a", "b", "c"])


@st.composite
def _task_event(draw):
    times = sorted(draw(st.lists(_TIME, min_size=3, max_size=3)))
    record = TaskRecord(
        draw(_NAME),
        draw(st.sampled_from(["t0", "t1", "t2"])),
        draw(_NAME),
        draw(st.sampled_from(["map", "reduce"])),
        draw(st.sampled_from(["s0", "s1"])),
        *times,
        draw(st.integers(1, 4)),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.integers(0, 3)),
    )
    return TaskCompleted(record.finish_time, record)


@st.composite
def _job_event(draw):
    submit, finish = sorted(draw(st.lists(_TIME, min_size=2, max_size=2)))
    record = JobRecord(
        draw(_NAME),
        draw(_NAME),
        submit,
        finish,
        draw(st.one_of(st.none(), _TIME)),
        draw(st.integers(0, 9)),
        draw(st.lists(_NAME, max_size=2).map(tuple)),
        draw(st.sampled_from([(), (("s0", ()), ("s1", ("s0",)))])),
    )
    return JobCompleted(finish, record)


class TestWindowTrace:
    @settings(max_examples=150, deadline=None)
    @given(
        window=st.floats(1.0, 1500.0),
        events=st.lists(st.one_of(_task_event(), _job_event()), max_size=40),
        advance=st.one_of(st.none(), _TIME),
    )
    @example(  # window opens at 70: one job submitted before, one task clamped
        window=100.0,
        events=[
            JobCompleted(150.0, JobRecord("early", "a", 10.0, 150.0, None, 3)),
            TaskCompleted(
                160.0,
                TaskRecord(
                    "early", "t0", "a", "map", "s0", 5.0, 20.0, 160.0, 2, True, False, 2
                ),
            ),
            JobCompleted(170.0, JobRecord("late", "b", 120.0, 170.0, 300.0, 1, ("x",))),
        ],
        advance=None,
    )
    def test_constructor_build_equals_replace(self, window, events, advance):
        """Record for record, including positional field order: jobs
        submitted before the window opens are dropped, tasks started
        before it are clamped to its start, flags keep their places."""
        rolling = RollingWindow(window)
        rolling.ingest_many(events)
        if advance is not None:
            rolling.advance(advance)
        got = rolling.trace(capacity={"map": 8, "reduce": 4})
        want = _window_trace_by_replace(rolling, capacity={"map": 8, "reduce": 4})
        assert got.task_records == want.task_records
        assert got.job_records == want.job_records
        assert (got.horizon, got.capacity) == (want.horizon, want.capacity)


class TestIngestBatchParity:
    def test_one_event_at_a_time_equals_any_chunking(self, tmp_path):
        """``process(e)`` is ``ingest_batch([e])``: a stream fed one event
        at a time and the same stream in chunks of 1/7/512 reach the same
        decisions, window stats and journal record sequence."""
        events = _events(seed=13, count=500)
        mid = events[len(events) // 2].time
        events.append(NodeLost(mid, pool="map", containers=2))
        events.append(TenantJoined(mid + 1.0, tenant="newbie"))
        events.append(TenantLeft(mid + 50.0, tenant="newbie"))
        events.sort(key=lambda e: e.time)

        def run(name, feed):
            state = ServiceState(tmp_path / name, snapshot_every=10**9)
            service = _build(state=state, seed=1)
            feed(service)
            state.close()
            return service, [(r.seq, r.kind) for r in state.journal.iter_records()]

        def one_at_a_time(service):
            for event in events:
                service.process(event)

        one, records = run("one", one_at_a_time)
        assert one.retunes >= 1
        for size in (1, 7, 512):

            def chunked(service, size=size):
                for i in range(0, len(events), size):
                    service.ingest_batch(events[i : i + size])

            batched, batched_records = run(f"chunks-{size}", chunked)
            assert batched_records == records
            assert one.events_processed == batched.events_processed
            assert [(d.time, d.retuned, d.reason) for d in one.decisions] == [
                (d.time, d.retuned, d.reason) for d in batched.decisions
            ]
            assert one.rm_config.describe() == batched.rm_config.describe()
            assert one.active_tenants == batched.active_tenants
            assert one.lost_capacity == batched.lost_capacity
            assert stats_gap(batched.window) < 1e-9
            a, b = one.window.snapshot(), batched.window.snapshot()
            assert set(a) == set(b)
            for name in a:
                assert abs(a[name].arrival_rate - b[name].arrival_rate) < 1e-9
                assert abs(a[name].mean_response - b[name].mean_response) < 1e-9

    def test_resume_from_batch_written_journal(self, tmp_path):
        state = ServiceState(tmp_path, segment_records=64, snapshot_every=300)
        live = _build(state=state)
        events = _events(seed=15, count=400)
        for i in range(0, len(events), 100):
            live.ingest_batch(events[i : i + 100])
        state.close()
        assert live.retunes >= 2
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        assert resumed.events_processed == live.events_processed
        assert stats_gap(resumed.window) < 1e-9
        assert [(d.time, d.retuned, d.reason) for d in live.decisions] == [
            (d.time, d.retuned, d.reason) for d in resumed.decisions
        ]
        assert live.rm_config.describe() == resumed.rm_config.describe()

    def test_empty_batch_is_a_noop(self):
        service = _build()
        assert service.ingest_batch([]) == []
        assert service.events_processed == 0


class TestCompaction:
    def _fill(self, tmp_path, *, auto=False, count=400, segment_records=32):
        state = ServiceState(
            tmp_path,
            segment_records=segment_records,
            snapshot_every=10**9,
            auto_compact=auto,
        )
        live = _build(state=state)
        events = _events(seed=17, count=count)
        # Heartbeats mark chunk boundaries, as the replay driver does.
        hb = [Heartbeat(events[i].time) for i in range(50, len(events), 50)]
        stream = sorted(events + hb, key=lambda e: e.time)
        for i in range(0, len(stream), 64):
            live.ingest_batch(stream[i : i + 64])
        return state, live

    def test_compact_deletes_only_covered_segments(self, tmp_path):
        state, live = self._fill(tmp_path)
        state.write_snapshot(live.state_dict())
        snap_seq = state.journal.last_seq
        # More records after the snapshot.
        live.ingest_batch([Heartbeat(1e7), Heartbeat(1e7 + 1)])
        before = state.journal.segments()
        removed = state.compact(keep_segments=1)
        assert removed > 0
        remaining = state.journal.segments()
        assert len(remaining) == len(before) - removed
        # Every record the snapshot does NOT cover is still present.
        seqs = [r.seq for r in state.journal.iter_records(after=snap_seq)]
        assert seqs == list(range(snap_seq + 1, state.journal.last_seq + 1))
        state.close()

    def test_keep_segments_margin_honored(self, tmp_path):
        state, live = self._fill(tmp_path)
        state.write_snapshot(live.state_dict())
        total = len(state.journal.segments())
        margin = total - 2
        removed = state.compact(keep_segments=margin)
        assert len(state.journal.segments()) >= margin
        assert removed <= 2
        state.close()

    def test_no_compaction_without_snapshot(self, tmp_path):
        state = ServiceState(
            tmp_path, segment_records=8, snapshot_every=10**9, auto_compact=False
        )
        for i in range(100):
            state.record_event(encode_event(Heartbeat(float(i))))
        assert len(state.journal.segments()) > 2
        assert state.compact() == 0
        assert len(state.journal.segments()) > 2
        state.close()

    def test_no_compaction_when_snapshots_past_last_heartbeat(self, tmp_path):
        """Every retained snapshot lies past the heartbeat boundary a
        resume would rewind to — compaction must refuse, because the
        rewind would delete those snapshots and need the whole journal."""
        state = ServiceState(
            tmp_path, segment_records=4, snapshot_every=10**9, auto_compact=False
        )
        state.record_event(encode_event(Heartbeat(1.0)))  # boundary: seq 1
        for i in range(30):
            state.record_event(
                encode_event(JobSubmitted(2.0 + i, tenant="a", job_id=f"j{i}"))
            )
        state.write_snapshot({"x": 1})  # seq 31 > heartbeat seq 1
        assert state.compact(keep_segments=1) == 0
        state.close()

    def test_resume_falls_back_past_corrupt_snapshot_after_compaction(
        self, tmp_path
    ):
        state, live = self._fill(tmp_path, count=600)
        state.write_snapshot(live.state_dict())
        live.ingest_batch([Heartbeat(9e6)])
        state.write_snapshot(live.state_dict())
        assert state.compact(keep_segments=1) > 0
        # The newest snapshot rots; recovery must fall back to the
        # older retained one, whose journal tail compaction preserved.
        newest = state.snapshots.paths()[-1]
        newest.write_text("garbage\n")
        state.close()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        assert resumed.events_processed == live.events_processed
        assert stats_gap(resumed.window) < 1e-9

    def test_resume_refuses_compacted_journal_without_snapshot(self, tmp_path):
        state, live = self._fill(tmp_path)
        state.write_snapshot(live.state_dict())
        live.ingest_batch([Heartbeat(9e6)])
        assert state.compact(keep_segments=1) > 0
        for path in state.snapshots.paths():
            path.unlink()
        state.close()
        with pytest.raises(JournalError, match="compacted"):
            TempoService.resume(
                build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
                tmp_path,
                _service_config(),
            )

    def test_auto_compaction_on_snapshot_write(self, tmp_path):
        state, live = self._fill(tmp_path, auto=True)
        before = state.journal.segments()
        state.write_snapshot(live.state_dict())
        live.ingest_batch([Heartbeat(8e6)])
        state.write_snapshot(live.state_dict())  # auto-compacts
        # The oldest retained snapshot moved on, and so did its mark:
        # the segment it released is gone (a new tail segment may have
        # opened meanwhile).
        assert before[0] not in state.journal.segments()
        state.close()

    def test_newest_segment_never_deleted(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=4)
        journal.append_events([Heartbeat(float(i)) for i in range(4)])
        journal.close()
        assert len(journal.segments()) == 1
        assert journal.compact(10**9, keep_segments=1) == 0

    def test_cli_compact(self, tmp_path):
        import io

        from repro.cli import main

        state, live = self._fill(tmp_path / "state")
        state.write_snapshot(live.state_dict())
        live.ingest_batch([Heartbeat(9e6)])
        state.close()
        out = io.StringIO()
        code = main(
            ["compact", "--state-dir", str(tmp_path / "state"), "--keep-segments", "1"],
            out=out,
        )
        assert code == 0
        assert "removed" in out.getvalue()

    def test_cli_compact_refuses_missing_dir(self, tmp_path):
        import io

        from repro.cli import main

        missing = tmp_path / "nope"
        with pytest.raises(SystemExit, match="journal"):
            main(["compact", "--state-dir", str(missing)], out=io.StringIO())
        assert not missing.exists()

    def test_durable_replay_compacts_and_resumes(self, tmp_path):
        """End-to-end: replay with tight segments, compaction happens,
        kill, resume continues from the boundary."""
        import io

        from repro.cli import main
        from repro.service.replay import ScenarioReplayer

        state_dir = tmp_path / "state"
        state = ServiceState(
            state_dir, segment_records=32, snapshot_every=500
        )
        scenario = make_scenario("steady", scale=1.0, horizon=1800.0)
        config = ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3)
        state.write_meta(
            {
                "scenario": "steady",
                "scale": 1.0,
                "horizon": 1800.0,
                "seed": 1,
                "window": 600.0,
                "interval": 300.0,
                "drift": 0.02,
                "speedup": 0.0,
                "transport": "direct",
                "revert_windows": 1,
                "continuous": True,
            }
        )
        service = build_service(scenario, config, seed=1, state=state)
        # Dies at 1500s: the 600s window has slid past the first
        # segments, so the oldest retained snapshot's mark releases them.
        ScenarioReplayer(scenario, service, seed=1).run(1500.0)
        state.close()
        first_seq = EventJournal._first_seq_of(state.journal.segments()[0])
        assert first_seq > 1  # auto-compaction reclaimed the prefix
        out = io.StringIO()
        assert main(["resume", "--state-dir", str(state_dir)], out=out) == 0
        assert "continuing scenario=steady from t=1500s" in out.getvalue()


class TestNodeRecovered:
    def test_codec_roundtrip(self):
        event = NodeRecovered(5.0, pool="map", containers=3)
        assert decode_event(encode_event(event)) == event

    def test_recovery_restores_effective_cluster(self):
        service = _build()
        base = service.controller.cluster.as_dict()
        service.process(NodeLost(1.0, pool="map", containers=4))
        shrunk = service.effective_cluster().as_dict()
        assert shrunk["map"] == base["map"] - 4
        service.process(NodeRecovered(2.0, pool="map", containers=3))
        assert service.effective_cluster().as_dict()["map"] == base["map"] - 1
        assert service.nodes_recovered == 3
        service.process(NodeRecovered(3.0, pool="map", containers=5))
        assert service.effective_cluster().as_dict() == base
        assert service.lost_capacity == {}

    def test_recovery_clamped_to_observed_loss(self):
        service = _build()
        base = service.controller.cluster.as_dict()
        service.process(NodeRecovered(1.0, pool="map", containers=7))
        assert service.effective_cluster().as_dict() == base
        assert service.nodes_recovered == 0
        assert not service._force  # nothing actually changed

    def test_recovery_forces_retune(self):
        service = _build()
        service.process(NodeLost(1.0, pool="map", containers=2))
        service._force = False  # clear the loss-forced flag
        service.process(NodeRecovered(2.0, pool="map", containers=2))
        assert service._force

    def test_recovery_survives_resume(self, tmp_path):
        state = ServiceState(tmp_path, snapshot_every=10**9)
        live = _build(state=state)
        for event in _events(seed=18, count=120):
            live.process(event)
        live.process(NodeLost(1e6, pool="map", containers=5))
        live.process(NodeRecovered(1e6 + 1, pool="map", containers=2))
        state.close()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        assert resumed.lost_capacity == live.lost_capacity == {"map": 3}
        assert resumed.nodes_recovered == live.nodes_recovered == 2

    def test_cluster_grown(self):
        cluster = ClusterSpec({"map": 10, "reduce": 6})
        grown = cluster.grown({"map": 2, "unknown": 5})
        assert grown.as_dict() == {"map": 12, "reduce": 6}
        with pytest.raises(ValueError):
            cluster.grown({"map": -1})

    def test_session_restore_capacity(self):
        from repro.sim.simulator import ClusterSimulator
        from repro.workload.model import Workload

        scenario = make_scenario("steady", scale=1.0, horizon=600.0)
        workload = scenario.model.generate(0, 600.0)
        sim = ClusterSimulator(scenario.cluster, noise=scenario.noise, seed=0)
        session = sim.session(workload, scenario.initial_config, seed=0)
        lost = session.lose_capacity("map", 4)
        assert lost == 4
        assert session.restore_capacity("map", 2) == 2
        assert session.capacity_lost["map"] == 2
        # Clamped: only what is still lost can come back.
        assert session.restore_capacity("map", 10) == 2
        assert session.capacity_lost["map"] == 0
        assert session.restore_capacity("unknown", 3) == 0
        with pytest.raises(ValueError):
            session.restore_capacity("map", -1)
        assert isinstance(workload, Workload)

    def test_failure_recovery_scenario_replays(self):
        from repro.service.replay import ScenarioReplayer

        scenario = make_scenario("failure-recovery", scale=1.0, horizon=5400.0)
        assert scenario.node_loss and scenario.node_recovery
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=2,
        )
        summary = ScenarioReplayer(scenario, service, seed=2).run()
        assert summary.max_stats_gap < 1e-9
        # Losses happened and recoveries brought capacity back.
        assert service.nodes_lost > 0
        assert service.nodes_recovered > 0
        assert service.nodes_recovered <= service.nodes_lost
