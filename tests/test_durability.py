"""Tests for the durable serving state: journal, snapshots, resume."""

import dataclasses
import json
import math
import os
import shutil
import stat
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.codec import HEADER_FRAME, peek_window_tenant, split_window_state
from repro.service.daemon import ServiceConfig, TempoService
from repro.service.failover import FailoverConfig
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
    canonical_json,
    decode_event,
    encode_event,
    frame_bytes,
)
from repro.service.replay import build_controller, build_service, make_scenario
from repro.service.snapshot import (
    ServiceState,
    SnapshotStore,
    config_from_dict,
    config_to_dict,
)
from repro.workload.trace import JobRecord, TaskRecord


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


def _events(seed=0, count=400, tenants=("deadline", "besteffort")):
    """Deterministic telemetry stream (same shape as the service tests)."""
    rng = np.random.default_rng(seed)
    events, t = [], 0.0
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


ALL_EVENT_SHAPES = [
    JobSubmitted(1.0, tenant="A", job_id="a0", deadline=9.5),
    JobSubmitted(1.5, tenant="A", job_id="a1"),
    TaskCompleted(
        2.0,
        record=_task("a0", "a0/t0", "A", 2.0, 1.0, preempted=True, attempt=1),
    ),
    JobCompleted(
        2.5,
        record=JobRecord(
            job_id="a0",
            tenant="A",
            submit_time=1.0,
            finish_time=2.5,
            deadline=9.5,
            num_tasks=2,
            tags=("etl", "batch"),
            stage_deps=(("map", ()), ("reduce", ("map",))),
        ),
    ),
    NodeLost(3.0, pool="map", containers=2),
    NodeRecovered(3.5, pool="map", containers=1),
    TenantJoined(4.0, tenant="B"),
    TenantLeft(5.0, tenant="B"),
    Heartbeat(6.0),
]


class TestEventCodec:
    def test_roundtrip_every_event_type(self):
        for event in ALL_EVENT_SHAPES:
            assert decode_event(encode_event(event)) == event

    def test_unknown_event_type_rejected(self):
        with pytest.raises(JournalError):
            decode_event({"type": "Mystery", "time": 0.0})


class TestEventJournal:
    def test_append_iter_roundtrip_with_rotation(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=3)
        for event in ALL_EVENT_SHAPES:
            journal.append("event", encode_event(event))
        journal.close()
        assert len(journal.segments()) == 3  # 9 records / 3 per segment
        records = list(EventJournal(tmp_path).iter_records())
        assert [r.seq for r in records] == list(range(1, 10))
        assert [decode_event(r.data) for r in records] == ALL_EVENT_SHAPES

    def test_seq_continues_across_reopen(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=4)
        journal.append("event", encode_event(Heartbeat(1.0)))
        journal.close()
        reopened = EventJournal(tmp_path, segment_records=4)
        assert reopened.append("event", encode_event(Heartbeat(2.0))) == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=100)
        for i in range(5):
            journal.append("event", encode_event(Heartbeat(float(i))))
        journal.close()
        segment = journal.segments()[-1]
        first_frame = segment.read_bytes()[len(HEADER_FRAME):]
        with segment.open("ab") as fh:
            fh.write(first_frame[:20])  # an append interrupted 20 bytes in
        reopened = EventJournal(tmp_path)
        assert reopened.last_seq == 5
        assert len(list(reopened.iter_records())) == 5

    def test_mid_segment_corruption_raises(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=100)
        for i in range(5):
            journal.append("event", encode_event(Heartbeat(float(i))))
        journal.close()
        segment = journal.segments()[-1]
        raw = bytearray(segment.read_bytes())
        raw[len(HEADER_FRAME) + 12] ^= 0xFF  # flip a byte inside the first record
        segment.write_bytes(bytes(raw))
        with pytest.raises(JournalError):
            list(EventJournal(tmp_path).iter_records())

    def test_iter_after_skips_whole_segments(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=2)
        for i in range(7):
            journal.append("event", encode_event(Heartbeat(float(i))))
        journal.close()
        assert [r.seq for r in journal.iter_records(after=5)] == [6, 7]

    def test_truncate_after_rewrites_and_reopens(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=3)
        for i in range(8):
            journal.append("event", encode_event(Heartbeat(float(i))))
        journal.close()
        removed = journal.truncate_after(4)
        assert removed == 4
        assert journal.last_seq == 4
        assert journal.append("event", encode_event(Heartbeat(99.0))) == 5
        seqs = [r.seq for r in EventJournal(tmp_path).iter_records()]
        assert seqs == [1, 2, 3, 4, 5]

    def test_last_heartbeat_finds_chunk_boundary(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append("event", encode_event(JobSubmitted(1.0, tenant="A", job_id="a")))
        hb_seq = journal.append("event", encode_event(Heartbeat(300.0)))
        journal.append("event", encode_event(JobSubmitted(301.0, tenant="A", job_id="b")))
        journal.close()
        assert journal.last_heartbeat() == (hb_seq, 300.0)

    def test_last_heartbeat_none_when_absent(self, tmp_path):
        journal = EventJournal(tmp_path)
        assert journal.last_heartbeat() is None

    def test_last_heartbeat_tracked_on_every_append_path(
        self, tmp_path, monkeypatch
    ):
        """A journal answers from what it appended: no segment is read."""
        import repro.service.journal as journal_module

        def no_reads(path, *, final):
            raise AssertionError(f"warm last_heartbeat() read {path.name}")

        journal = EventJournal(tmp_path, segment_records=4)
        monkeypatch.setattr(journal_module, "read_segment", no_reads)
        submit = JobSubmitted(1.0, tenant="A", job_id="a")
        assert journal.last_heartbeat() is None
        journal.append("event", encode_event(Heartbeat(10.0)))
        assert journal.last_heartbeat() == (1, 10.0)
        journal.append_events([submit, Heartbeat(20.0), submit])
        assert journal.last_heartbeat() == (3, 20.0)
        journal.append_many(
            [("event", encode_event(Heartbeat(30.0))), ("decision", {"time": 31.0})]
        )
        assert journal.last_heartbeat() == (5, 30.0)
        journal.append_events(iter([submit, submit]))  # no heartbeat: unchanged
        assert journal.last_heartbeat() == (5, 30.0)
        monkeypatch.undo()
        # A cold open of the same directory scans to the same answer.
        journal.close()
        assert EventJournal(tmp_path).last_heartbeat() == (5, 30.0)

    def test_truncate_past_cached_heartbeat_rescans(self, tmp_path):
        journal = EventJournal(tmp_path, segment_records=4)
        journal.append_events([Heartbeat(1.0)] + [
            JobSubmitted(2.0 + i, tenant="A", job_id=f"a{i}") for i in range(8)
        ] + [Heartbeat(20.0)])
        assert journal.last_heartbeat() == (10, 20.0)
        journal.truncate_after(10)  # the cached boundary survives the cut
        assert journal.last_heartbeat() == (10, 20.0)
        journal.truncate_after(6)  # ... and this one removes it
        assert journal.last_heartbeat() == (1, 1.0)
        journal.truncate_after(0)
        assert journal.last_heartbeat() is None


class TestSnapshotStore:
    def test_write_load_prune(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for seq in (10, 20, 30):
            store.write(seq, {"value": seq})
        assert len(store.paths()) == 2  # pruned to keep=2
        assert store.load_latest() == (30, {"value": 30})
        assert store.load_latest(max_seq=25) == (20, {"value": 20})

    def test_corrupt_snapshot_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.write(10, {"value": 10})
        newest = store.write(20, {"value": 20})
        newest.write_text("garbage not a snapshot\n")
        assert store.load_latest() == (10, {"value": 10})

    def test_truncate_after_drops_newer(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=5)
        for seq in (10, 20, 30):
            store.write(seq, {"value": seq})
        assert store.truncate_after(15) == 2
        assert store.load_latest() == (10, {"value": 10})

    @staticmethod
    def _damage(path, how):
        """Break one snapshot file the way a bad disk or old build would."""
        header, control, rest = path.read_bytes().split(b"\n", 2)
        header, control = header + b"\n", control + b"\n"
        assert not rest  # a snapshot is its two text lines, nothing after

        def flipped(raw, at=12):
            return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :]

        path.write_bytes(
            {
                "header_truncated": header[: len(header) // 2],
                "header_crc": flipped(header) + control,
                "body_crc": header + flipped(control),
                "body_truncated": header + control[: len(control) // 2],
                "body_missing": header,
                # What an earlier build wrote: the header and one
                # all-JSON body line.  Not a second read path.
                "old_shape": frame_bytes(
                    canonical_json(
                        {"format": "tempo-snapshot/2", "seq": 20, "shard_seqs": [8, 9]}
                    )
                )
                + frame_bytes(canonical_json({"value": 20})),
            }[how]
        )

    @pytest.mark.parametrize(
        "how",
        [
            "header_truncated",
            "header_crc",
            "body_crc",
            "body_truncated",
            "body_missing",
            "old_shape",
        ],
    )
    def test_damaged_frame_falls_back_to_older_snapshot(self, tmp_path, how):
        older = {"value": 10}
        store = SnapshotStore(tmp_path, keep=3)
        store.write(10, older, marks=[(4, 1.0, 3, 2), (5, 1.0, 4, 6)])
        newest = store.write(20, {"value": 20}, marks=[(8, 2.0, 6, 2), (9, 2.0, 7, 6)])
        assert store.load_latest() == (20, {"value": 20})
        self._damage(newest, how)
        assert store.load_latest() == (10, older)
        # A store opened on the damaged directory agrees, still counts
        # the file for retention, and claims no coverage it cannot read.
        reopened = SnapshotStore(tmp_path, keep=3)
        assert reopened.load_latest() == (10, older)
        coverage = {seq: marks and [m.seq for m in marks] for seq, marks in reopened.retained()}
        assert coverage[10] == [4, 5]
        assert coverage[20] == ([8, 9] if how.startswith("body") else None)

    def test_previous_format_and_trailing_window_frames_are_unreadable(self, tmp_path):
        """A ``tempo-snapshot/3`` file (header, control, then window
        frames) and a current file with window frames appended are both
        refused: no snapshot carries a window, and an unreadable newest
        snapshot falls back exactly like a corrupt one."""
        window = RollingWindow(1e6)
        for event in ALL_EVENT_SHAPES[:4]:
            window.ingest(event)
        store = SnapshotStore(tmp_path, keep=3)
        store.write(10, {"value": 10}, marks=[(4, 1.0, 3, 2)])
        newest = store.write(20, {"value": 20}, marks=[(8, 2.0, 6, 2)])
        whole = newest.read_bytes()
        newest.write_bytes(whole + window.to_state())
        assert store.load_latest() == (10, {"value": 10})
        newest.write_bytes(
            frame_bytes(canonical_json(
                {"format": "tempo-snapshot/3", "seq": 20, "shard_seqs": [8]}
            ))
            + frame_bytes(canonical_json({"value": 20, "windows": [len(window.to_state())]}))
            + window.to_state()
        )
        assert store.load_latest() == (10, {"value": 10})
        assert dict(SnapshotStore(tmp_path, keep=3).retained())[20] is None

    def test_retained_coverage_follows_writes_and_deletes(self, tmp_path):
        def marks(*seqs):
            return [(seq, float(seq), seq, 1) for seq in seqs]

        def seqs(store):
            return [(seq, m and [mark.seq for mark in m]) for seq, m in store.retained()]

        store = SnapshotStore(tmp_path, keep=2)
        store.write(10, {"v": 1})
        store.write(20, {"v": 2}, marks=marks(7, 9))
        store.write(30, {"v": 3}, marks=marks(8, 12))
        assert seqs(store) == [(20, [7, 9]), (30, [8, 12])]
        assert [p.name for p in store.paths()] == [
            "snapshot-0000000020.json",
            "snapshot-0000000030.json",
        ]
        store.write(30, {"v": 4}, marks=marks(8, 13))  # same seq: replaced
        assert seqs(store) == [(20, [7, 9]), (30, [8, 13])]
        assert SnapshotStore(tmp_path, keep=2).retained() == store.retained()
        assert store.discard(lambda seq, m: m[1].seq > 12) == 1
        assert seqs(store) == [(20, [7, 9])]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot-0000000020.json"
        ]

    def test_stale_temp_files_removed_on_open(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(10, {"value": 10})
        (tmp_path / "snapshot-0000000020.tmp").write_bytes(b"0123 half a snap")
        reopened = SnapshotStore(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot-0000000010.json"]
        assert reopened.load_latest() == (10, {"value": 10})

    @pytest.mark.parametrize("fsync", [True, False])
    def test_snapshot_is_durable_before_its_journal_prefix_goes(
        self, tmp_path, monkeypatch, fsync
    ):
        """With fsync on: temp file synced, renamed, directory synced —
        and only then may compaction unlink the covered segments.  With
        fsync off the snapshot path makes no sync call at all."""
        state = ServiceState(
            tmp_path, segment_records=4, snapshot_every=10**9, fsync=fsync,
            keep_segments=1,
        )
        for i in range(40):
            state.record_event(encode_event(Heartbeat(float(i))))
        log = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

        def spy_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            log.append(f"fsync-{kind}")
            real_fsync(fd)

        def spy_replace(src, dst):
            log.append("replace")
            real_replace(src, dst)

        def spy_unlink(path, *args, **kwargs):
            log.append(f"unlink-{path.name.split('-')[0]}")
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(Path, "unlink", spy_unlink)
        state.write_snapshot({"x": 1})
        monkeypatch.undo()
        state.close()
        assert "unlink-segment" in log  # compaction did reclaim segments
        prefix = log[: log.index("unlink-segment")]
        assert prefix == (
            ["fsync-file", "replace", "fsync-dir"] if fsync else ["replace"]
        )
        assert ("fsync-file" in log) == fsync


class TestConfigCodec:
    def test_roundtrip_preserves_infinite_timeouts(self):
        scenario = make_scenario("steady", scale=1.0, horizon=600.0)
        config = scenario.initial_config
        restored = config_from_dict(config_to_dict(config))
        assert restored.describe() == config.describe()
        for name in config.tenant_names():
            a, b = config.tenant(name), restored.tenant(name)
            assert math.isinf(a.min_share_preemption_timeout) == math.isinf(
                b.min_share_preemption_timeout
            )


def _assert_stats_close(a, b, tol=1e-9):
    """Two ``RollingWindow.snapshot()`` dicts agree field by field."""
    assert set(a) == set(b)
    for name in a:
        for field in dataclasses.fields(a[name]):
            if field.name != "tenant":
                assert (
                    abs(getattr(a[name], field.name) - getattr(b[name], field.name))
                    < tol
                ), (name, field.name)


class TestWindowState:
    def test_state_roundtrip_matches_batch_recompute(self):
        window = RollingWindow(600.0)
        for event in _events(seed=11):
            if isinstance(event, (JobSubmitted, TaskCompleted, JobCompleted)):
                window.ingest(event)
        restored = RollingWindow.from_state(window.to_state())
        assert restored.now == window.now
        assert restored.events_ingested == window.events_ingested
        assert stats_gap(restored) < 1e-9
        _assert_stats_close(window.snapshot(), restored.snapshot())

    @staticmethod
    def _retained(window):
        """Every retained ``(time, record)`` per tenant, in retention order."""
        return {
            name: (
                [(time, record) for time, record, _ in acc.tasks],
                list(acc.jobs),
                list(acc.submits),
            )
            for name, acc in window._tenants.items()
        }

    @staticmethod
    def _frame_types(state):
        """Record type byte of each tenant frame, by tenant."""
        frames = split_window_state(state)[3]
        return {peek_window_tenant(f)[0]: peek_window_tenant(f)[2] for f in frames}

    def test_every_retained_entry_roundtrips_exactly(self):
        window = RollingWindow(1e6)
        for event in ALL_EVENT_SHAPES[:4]:
            window.ingest(event)
        for i, deadline in enumerate((None, math.inf, -math.inf, 0.0, -0.0)):
            window.ingest(
                JobCompleted(
                    3.0 + i,
                    record=JobRecord("b%d" % i, "B", 1.0, math.inf, deadline, i),
                )
            )
        window.ingest(TaskCompleted(9.0, record=_task("b0", "", "B", math.inf, 1.0)))
        window.ingest(JobSubmitted(4.0, tenant="only-submits", job_id="s0"))
        state = window.to_state()
        assert isinstance(state, bytes)
        assert set(self._frame_types(state).values()) == {0x11}  # typed columns
        restored = RollingWindow.from_state(state)
        assert self._retained(restored) == self._retained(window)
        assert restored._tenants["A"].jobs[0][1] == ALL_EVENT_SHAPES[3].record
        assert restored._tenants["B"].jobs[0][1].deadline is None
        assert math.copysign(1.0, restored._tenants["B"].jobs[4][1].deadline) == -1.0
        assert (restored.window, restored.now, restored.events_ingested) == (
            window.window,
            window.now,
            window.events_ingested,
        )
        assert restored.to_state() == state

    def test_nan_deadline_roundtrips(self):
        window = RollingWindow(1e6)
        window.ingest(
            JobCompleted(2.0, record=JobRecord("n0", "N", 1.0, 2.0, deadline=math.nan))
        )
        state = window.to_state()
        assert self._frame_types(state) == {"N": 0x11}
        restored = RollingWindow.from_state(state)
        assert repr(self._retained(restored)) == repr(self._retained(window))

    _TEXT = st.one_of(
        st.sampled_from(["", "\x00", "\x1f", "a\nb", "\U0001f600", "x\x1fy\x00z"]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    )
    _WHOLE = st.integers(0, 10**6).map(float)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(_TEXT, _TEXT, _TEXT, _TEXT, _TEXT, _WHOLE, _WHOLE, _WHOLE,
                      st.lists(_TEXT, max_size=3), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    def test_fuzzed_strings_and_whole_floats_roundtrip(self, rows):
        window = RollingWindow(1e9)
        for tenant, job, task, pool, stage, submit, wait, run, tags, flag in rows:
            start = submit + wait
            record = TaskRecord(
                job, task, tenant, pool, stage, submit, start, start + run,
                preempted=flag, failed=not flag and run == 0.0,
            )
            window.ingest(JobSubmitted(submit, tenant=tenant, job_id=job))
            window.ingest(TaskCompleted(start + run, record=record))
            window.ingest(
                JobCompleted(
                    start + run,
                    record=JobRecord(
                        job, tenant, submit, start + run, run if flag else None,
                        len(tags), tuple(tags), ((stage, tuple(tags)),),
                    ),
                )
            )
        state = window.to_state()
        assert set(self._frame_types(state).values()) == {0x11}
        restored = RollingWindow.from_state(state)
        assert self._retained(restored) == self._retained(window)
        assert stats_gap(restored) < 1e-9
        _assert_stats_close(restored.snapshot(), window.snapshot())

    def test_values_the_columns_cannot_hold_pass_through_as_rows(self):
        """A lone surrogate or a non-float deadline makes that tenant's
        frame (only) the canonical-JSON row passthrough — still exact."""
        window = RollingWindow(1e6)
        for event in ALL_EVENT_SHAPES[:4]:
            window.ingest(event)
        window.ingest(
            TaskCompleted(3.0, record=_task("s0", "s0/\ud800", "S", 3.0, 1.0, failed=True))
        )
        window.ingest(
            JobCompleted(3.0, record=JobRecord("i0", "I", 1, 3, deadline=7, num_tasks=1))
        )
        window.ingest(JobSubmitted(3.5, tenant="\udfff", job_id="u0"))
        state = window.to_state()
        assert self._frame_types(state) == {
            "A": 0x11, "S": 0x12, "I": 0x12, "\udfff": 0x11,
        }
        restored = RollingWindow.from_state(state)
        assert self._retained(restored) == self._retained(window)
        assert type(restored._tenants["I"].jobs[0][1].deadline) is int
        assert stats_gap(restored) < 1e-9
        assert restored.to_state() == state

    @pytest.mark.parametrize("parts", [1, 3, 4])
    def test_split_then_merge_keeps_the_statistics(self, parts):
        from repro.service.sharding import stable_shard

        window = RollingWindow(600.0)
        tenants = ("a", "bb", "ccc", "dddd", "eeeee")
        for event in _events(seed=13, tenants=tenants):
            if isinstance(event, (JobSubmitted, TaskCompleted, JobCompleted)):
                window.ingest(event)
        state = window.to_state()
        split = RollingWindow.split_state(
            state, parts, lambda name: stable_shard(name, parts)
        )
        assert len(split) == parts and all(isinstance(s, bytes) for s in split)
        merged = RollingWindow.merge_states(split)
        _assert_stats_close(merged.snapshot(), window.snapshot())
        assert stats_gap(merged) < 1e-9
        assert merged.now == window.now
        retained = sum(
            len(tasks) + len(jobs) + len(submits)
            for tasks, jobs, submits in self._retained(window).values()
        )
        assert merged.events_ingested == retained
        for part in split:  # whole tenants moved, nobody duplicated
            assert RollingWindow.from_state(part).window == window.window
        owners = [set(RollingWindow.from_state(part).tenants()) for part in split]
        assert sorted(t for o in owners for t in o) == sorted(window.tenants())

    def test_other_layouts_are_refused_not_guessed_at(self):
        """Row dicts (earlier builds), another layout version, a torn or
        flipped frame: each raises, never yields a partial window."""
        window = RollingWindow(300.0)
        window.ingest(ALL_EVENT_SHAPES[2])
        state = window.to_state()
        with pytest.raises(TypeError, match="bytes-like"):
            RollingWindow.from_state({"window": 300.0, "tenants": {}})
        with pytest.raises(ValueError, match="torn"):
            RollingWindow.from_state(state[: -len(state) // 3])
        header_frame = RollingWindow(300.0).to_state()
        with pytest.raises(ValueError, match="0 of 1 tenant frames"):
            RollingWindow.from_state(state[: len(header_frame)])
        flipped = state[:-5] + bytes([state[-5] ^ 1]) + state[-4:]
        with pytest.raises(ValueError, match="damaged window state"):
            RollingWindow.merge_states([state, flipped])
        other = bytearray(header_frame)
        other[9] = 2  # the header's layout-version byte
        other[:4] = zlib.crc32(bytes(other[8:])).to_bytes(4, "little")
        with pytest.raises(ValueError, match="layout 2.*reads only 1"):
            RollingWindow.from_state(bytes(other))


def _assert_equivalent(live: TempoService, resumed: TempoService) -> None:
    """Full serving-state equivalence between a live and a resumed daemon."""
    assert resumed.events_processed == live.events_processed
    assert stats_gap(resumed.window) < 1e-9
    a, b = live.window.snapshot(), resumed.window.snapshot()
    assert set(a) == set(b)
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
    assert [(d.time, d.retuned, d.reason) for d in live.decisions] == [
        (d.time, d.retuned, d.reason) for d in resumed.decisions
    ]
    assert [(h.index, h.config.describe()) for h in live.config_history] == [
        (h.index, h.config.describe()) for h in resumed.config_history
    ]
    assert live.rm_config.describe() == resumed.rm_config.describe()
    np.testing.assert_allclose(live.controller.x, resumed.controller.x)
    assert live.active_tenants == resumed.active_tenants
    assert live.lost_capacity == resumed.lost_capacity


class TestResume:
    def test_resume_reconstructs_full_state(self, tmp_path):
        """The acceptance property: kill, resume, identical window stats."""
        state = ServiceState(tmp_path, segment_records=64, snapshot_every=300)
        live = _build(state=state)
        events = _events(seed=1)
        mid = events[len(events) // 2].time
        events.append(NodeLost(mid, pool="map", containers=3))
        events.append(TenantJoined(mid + 1.0, tenant="newbie"))
        events.sort(key=lambda e: e.time)
        for event in events:
            live.process(event)
        state.close()
        assert live.retunes >= 2
        assert len(state.journal.segments()) > 1  # rotation actually happened
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        _assert_equivalent(live, resumed)

    def test_resume_after_torn_segment_write(self, tmp_path):
        """Kill mid-journal-append: the torn record is dropped, not fatal."""
        state = ServiceState(tmp_path, segment_records=64, snapshot_every=300)
        live = _build(state=state)
        events = _events(seed=2)
        for event in events[:-1]:
            live.process(event)
        state.close()
        segment = state.journal.segments()[-1]
        with segment.open("a") as fh:
            fh.write('0badc0de {"seq": 1234, "kind": "ev')  # interrupted append
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        # The torn record never counted: the resumed daemon holds
        # exactly the acknowledged prefix, self-consistent to 1e-9.
        assert resumed.events_processed == len(events) - 1
        assert stats_gap(resumed.window) < 1e-9

    def test_resume_without_snapshots_replays_whole_journal(self, tmp_path):
        state = ServiceState(tmp_path, snapshot_every=10**9)
        live = _build(state=state)
        for event in _events(seed=3, count=150):
            live.process(event)
        state.close()
        # Lose every snapshot: recovery must fall back to the journal.
        for path in state.snapshots.paths():
            path.unlink()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        _assert_equivalent(live, resumed)

    def test_resumed_daemon_continues_identically(self, tmp_path):
        """Processing the remaining stream after resume matches the live run."""
        state = ServiceState(tmp_path, segment_records=64, snapshot_every=200)
        live = _build(state=state)
        events = _events(seed=4)
        cut = len(events) // 2
        for event in events[:cut]:
            live.process(event)
        state.close()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        resumed.state = None  # compare pure in-memory continuation
        live.state = None
        for event in events[cut:]:
            live.process(event)
            resumed.process(event)
        assert live.retunes == resumed.retunes
        assert [(d.time, d.retuned, d.reason) for d in live.decisions] == [
            (d.time, d.retuned, d.reason) for d in resumed.decisions
        ]
        assert stats_gap(resumed.window) < 1e-9

    def test_quiesce_waits_for_bus_events_after_resume(self, tmp_path):
        """The drain barrier must count bus deliveries, not total events.

        A resumed daemon's ``events_processed`` already includes the
        journal-restored history, so comparing it against the fresh
        bus's published count would make quiesce return while the last
        delivery is still mid-retune.
        """
        state = ServiceState(tmp_path)
        live = _build(state=state)
        for event in _events(seed=6, count=120):
            live.process(event)
        state.close()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        prior = resumed.events_processed
        extra = _events(seed=7, count=60)
        resumed.start()
        try:
            for event in extra:
                assert resumed.submit(event)
            resumed.quiesce()
            assert resumed.events_processed == prior + len(extra)
            assert resumed._bus_consumed == resumed.bus.published
        finally:
            resumed.stop()

    def test_applied_tune_is_one_atomic_journal_record(self, tmp_path):
        """A retune's decision and config are never split across records.

        If they were two appends, a crash between them would resume
        into a state the live daemon never had (tune logged as applied,
        old config still in force).
        """
        state = ServiceState(tmp_path, snapshot_every=10**9)
        live = _build(state=state)
        for event in _events(seed=8, count=200):
            live.process(event)
        state.close()
        assert live.retunes >= 1
        kinds = {"decision": 0, "config": 0}
        for record in state.journal.iter_records():
            if record.kind == "decision":
                assert record.data["retuned"] is False
                kinds["decision"] += 1
            elif record.kind == "config":
                assert record.data["decision"]["retuned"] is True
                assert "controller" in record.data
                kinds["config"] += 1
        assert kinds["config"] == live.retunes
        assert kinds["decision"] == live.skips

    def test_rollback_is_journaled(self, tmp_path):
        state = ServiceState(tmp_path, snapshot_every=10**9)
        live = _build(state=state)
        for event in _events(seed=5):
            live.process(event)
        assert live.retunes >= 2
        rolled_back_to = live.rollback()
        assert rolled_back_to is not None
        state.close()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
        )
        assert resumed.rm_config.describe() == live.rm_config.describe()
        assert len(resumed.config_history) == len(live.config_history)


def _assert_stats_close(a, b) -> None:
    """Two per-tenant statistics snapshots agree to 1e-9 (or both absent)."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert set(a) == set(b)
    for name in a:
        mine, theirs = dataclasses.asdict(a[name]), dataclasses.asdict(b[name])
        assert mine == pytest.approx(theirs, rel=0, abs=1e-9, nan_ok=True)


class TestReplayIsBatchIngest:
    """Resume folds event runs through the batch apply path."""

    @staticmethod
    def _counters(service):
        return service.metrics_snapshot().to_dict()["counters"]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_replay_restores_event_counts_and_invents_no_batches(
        self, tmp_path, shards
    ):
        """A resumed daemon's metrics agree with the one that never
        crashed on what was ingested, and claim no ingest batch, journal
        append or rotation the replay did not perform."""
        from repro.obs.introspect import snapshot_registry

        config = dataclasses.replace(_service_config(), sample_metrics=True)
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        state = ServiceState(
            tmp_path, segment_records=64, snapshot_every=300, shards=shards
        )
        live = build_service(scenario, config, state=state, shards=shards)
        events = _events(seed=9, count=300)
        mid = events[len(events) // 2].time
        events += [
            NodeLost(mid, pool="map", containers=3),
            NodeRecovered(mid + 40.0, pool="map", containers=1),
            TenantJoined(mid + 1.0, tenant="newbie"),
            TenantLeft(mid + 90.0, tenant="newbie"),
        ]
        events += [Heartbeat(t) for t in np.arange(100.0, events[-1].time, 400.0)]
        events.sort(key=lambda e: e.time)
        for i in range(0, len(events), 50):
            live.ingest_batch(events[i : i + 50])
        live.close()
        state.close()
        snapshot_seq, snapshot = state.load_latest_snapshot()
        at_snapshot = snapshot_registry(snapshot).to_dict()["counters"]
        resumed = TempoService.resume(
            build_controller(scenario), tmp_path, config, shards=shards
        )
        after, replayed, refolded, _ = resumed.last_resume
        assert after == snapshot_seq > 0 and replayed > 0  # snapshot + tail
        assert refolded > 0  # the windows came back from the journal
        assert resumed.events_processed == live.events_processed
        assert resumed.telemetry_ingested == live.telemetry_ingested
        assert resumed.active_tenants == live.active_tenants
        assert resumed.lost_capacity == live.lost_capacity == {"map": 2}
        was, now = self._counters(live), self._counters(resumed)
        assert now["tempo_ingest_events_total"] == was["tempo_ingest_events_total"]
        untouched = ["tempo_ingest_batches_total"] + [
            key for key in at_snapshot if key.startswith("tempo_journal_")
        ]
        for key in untouched:
            assert now[key] == at_snapshot[key] <= was[key], key
        for key in ("tempo_ingest_batches_total", "tempo_journal_records_total"):
            assert now[key] < was[key], key  # the tail was live work
        resumed.close()
        resumed.state.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_resume_says_what_it_cost(self, tmp_path, shards):
        state = ServiceState(tmp_path, snapshot_every=10**9, shards=shards)
        live = _build(state=state, shards=shards)
        for i in range(0, 300, 64):
            live.ingest_batch(_events(seed=3, count=100)[i : i + 64])
        live.close()
        state.close()
        assert live.last_resume is None
        for path in state.snapshots.paths():
            path.unlink()  # an applied tune snapshots: replay it all instead
        journaled = sum(
            journal.last_seq
            for journal in [state.journal]
            + [state.shard_journal(i) for i in range(shards) if shards > 1]
        )
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            tmp_path,
            _service_config(),
            shards=shards,
        )
        after, replayed, refolded, seconds = resumed.last_resume
        assert (after, replayed, refolded) == (0, journaled, 0) and seconds > 0
        gauges = resumed.metrics_snapshot().to_dict()["gauges"]
        assert gauges["tempo_resume_replayed_records"]["value"] == journaled
        assert gauges["tempo_resume_refolded_records"]["value"] == 0
        assert gauges["tempo_resume_seconds"]["value"] == seconds
        resumed.close()
        resumed.state.close()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_replay_equals_live_wherever_the_runs_break(
        self, tmp_path_factory, data
    ):
        """Control records, tenant churn, capacity changes and segment
        edges fall inside, before and after the replayed event runs; the
        resumed service equals the one that never crashed.

        The stream spans several windows, so snapshots are taken after
        the window has slid and each shard window comes back from its
        journal's low-water mark; on top of that a run may compact past
        the marks, fail a shard over in process (its window refolded
        from the mark), or reshard and slide the window again before it
        is resumed.

        Every event has its own instant: across shards, replay orders
        same-instant telemetry before a decision, which only the single
        journal's own order can do better than.
        """
        shards = data.draw(st.sampled_from([1, 3]), label="shards")
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["job", "job", "job", "job", "beat", "left", "joined", "lost",
                     "recovered"]
                ),
                min_size=20,
                max_size=90,
            ),
            label="ops",
        )
        tenants = ("deadline", "besteffort")
        events, t = [], 0.0
        for i, op in enumerate(ops):
            tenant = tenants[i % 2] if i % 7 else "newbie"
            if op == "job":
                job_id = f"{tenants[i % 2]}-{i}"
                record = JobRecord(
                    job_id=job_id, tenant=tenants[i % 2], submit_time=t + 3.0,
                    finish_time=t + 25.0,
                )
                events += [
                    JobSubmitted(t + 3.0, tenant=tenants[i % 2], job_id=job_id),
                    TaskCompleted(
                        t + 24.0,
                        record=_task(job_id, f"{job_id}/t0", tenants[i % 2],
                                     t + 24.0, 5.0 + i % 11),
                    ),
                    JobCompleted(t + 25.0, record=record),
                ]
            elif op == "beat":
                events.append(Heartbeat(t + 3.0))
            elif op in ("left", "joined"):
                cls = TenantLeft if op == "left" else TenantJoined
                events.append(cls(t + 3.0, tenant=tenant))
            else:
                cls = NodeLost if op == "lost" else NodeRecovered
                events.append(cls(t + 3.0, pool="map", containers=1 + i % 3))
            t += 26.0
        assert len({e.time for e in events}) == len(events)
        n = len(events)
        force_at = data.draw(st.integers(0, n), label="force_at")
        rollback_at = data.draw(st.integers(0, n), label="rollback_at")
        failover_at = data.draw(st.none() | st.integers(0, n), label="failover_at")
        reshard_at = data.draw(st.none() | st.integers(0, n // 2), label="reshard_at")
        reshard_to = data.draw(
            st.sampled_from([k for k in (1, 2, 3) if k != shards]), label="reshard_to"
        )
        compact = data.draw(st.booleans(), label="compact")
        marks = {force_at, rollback_at} | ({failover_at, reshard_at} - {None})
        cuts = sorted(
            {0, n}
            | marks
            | set(data.draw(st.lists(st.integers(0, n), max_size=6)))
        )
        root = tmp_path_factory.mktemp("replay")
        state = ServiceState(
            root,
            segment_records=data.draw(st.sampled_from([3, 8, 64]), label="segment"),
            snapshot_every=data.draw(st.sampled_from([10**9, 30]), label="snapshot"),
            keep_segments=1,
            # Without compaction any snapshot may be lost below.
            auto_compact=compact,
            shards=shards,
        )
        live = _build(state=state, shards=shards, failover=FailoverConfig())
        for start, end in zip(cuts, cuts[1:]):
            if start == force_at:
                live.retune(live.now, force=True)
            if start == rollback_at:
                live.rollback()
            if start == failover_at:
                live.failover_shard(failover_at % live.num_shards, "test")
            if start == reshard_at:
                live.reshard(reshard_to)
            live.ingest_batch(events[start:end])
        live.close()
        state.close()
        # Every applied tune snapshots; lose the newest few (or all) so
        # the replayed tail reaches back over tunes and rollbacks.  A
        # compacted journal keeps one (the oldest) to resume from, and a
        # reshard keeps every one: the pre-reshard ones are of the old
        # layout.
        snapshots = state.snapshots.paths()
        if reshard_at is None:
            floor = 1 if compact and snapshots else 0
            kept = data.draw(st.integers(floor, len(snapshots)), label="kept")
            for path in snapshots[kept:]:
                path.unlink()
        resumed = TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
            root,
            _service_config(),
            shards=live.num_shards,
        )
        _assert_equivalent(live, resumed)
        assert resumed.stats_gap_now() < 1e-9
        assert resumed.telemetry_ingested == live.telemetry_ingested
        assert resumed._last_attempt == live._last_attempt
        assert resumed._force == live._force
        _assert_stats_close(live._last_snapshot, resumed._last_snapshot)
        resumed.close()
        resumed.state.close()


class TestCrashAtEveryWriteBoundary:
    """A checkpoint — snapshot write, then the compaction it releases —
    is a sequence of file operations; a crash after any prefix of them
    resumes to the service that never crashed."""

    @staticmethod
    def _record_boundaries(monkeypatch, root, captures):
        """Before each file operation of the checkpoint path, copy the
        state dir as a crash right there would leave it."""
        real_open, real_fsync = Path.open, os.fsync
        real_replace, real_unlink = os.replace, Path.unlink
        ops = []

        def boundary(op):
            copy = root.with_name(f"{root.name}-crash{len(ops)}")
            shutil.copytree(root, copy)
            captures.append(copy)
            ops.append(op)

        def spy_open(path, mode="r", *args, **kwargs):
            if "w" in mode and path.suffix == ".tmp":
                boundary("write-tmp")
            return real_open(path, mode, *args, **kwargs)

        def spy_fsync(fd):
            boundary("fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file")
            real_fsync(fd)

        def spy_replace(src, dst):
            boundary("rename")
            real_replace(src, dst)

        def spy_unlink(path, *args, **kwargs):
            boundary(f"unlink-{path.name.split('-')[0]}")
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spy_open)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(Path, "unlink", spy_unlink)
        return ops

    @pytest.mark.parametrize("shards", [1, 4])
    def test_resume_after_a_crash_after_every_operation(
        self, tmp_path, monkeypatch, shards
    ):
        root = tmp_path / "state"
        state = ServiceState(
            root, segment_records=16, snapshot_every=10**9, fsync=True,
            keep_segments=1, keep_snapshots=2, shards=shards,
        )
        live = _build(state=state, shards=shards)
        events = _events(seed=12, count=240)
        for i in range(0, len(events), 60):  # chunks closed by a heartbeat
            chunk = events[i : i + 60]
            live.ingest_batch(chunk + [Heartbeat(chunk[-1].time)])
        live.ingest_batch([Heartbeat(events[-1].time + 1.0)])  # past the last snapshot
        captures = []
        ops = self._record_boundaries(monkeypatch, root, captures)
        state.write_snapshot(live.state_dict())
        monkeypatch.undo()
        captures.append(root)  # after the last operation
        assert ops[:4] == ["write-tmp", "fsync-file", "rename", "fsync-dir"]
        assert "unlink-snapshot" in ops and "unlink-segment" in ops
        # The slid window released journal prefixes: compaction has
        # deleted every segment wholly before the oldest snapshot's marks.
        _, marks = state.snapshots.retained()[0]
        firsts = []
        for i, mark in enumerate(marks):
            segments = state.shard_journal(i).segments()
            firsts.append(EventJournal._first_seq_of(segments[0]))
            for later in segments[1:2]:
                assert EventJournal._first_seq_of(later) > mark.mark
        assert max(firsts) > 1
        live.close()
        state.close()
        for crashed in captures:
            resumed = TempoService.resume(
                build_controller(make_scenario("steady", scale=1.0, horizon=3600.0)),
                crashed,
                _service_config(),
                shards=shards,
            )
            _assert_equivalent(live, resumed)
            assert resumed.telemetry_ingested == live.telemetry_ingested
            resumed.close()
            resumed.state.close()
        assert len(captures) == len(ops) + 1


class TestServiceState:
    def test_meta_roundtrip(self, tmp_path):
        state = ServiceState(tmp_path)
        assert state.read_meta() is None
        state.write_meta({"scenario": "steady", "seed": 7})
        assert state.read_meta() == {"scenario": "steady", "seed": 7}

    def test_truncate_drops_journal_and_snapshots(self, tmp_path):
        state = ServiceState(tmp_path, snapshot_every=10**9)
        for i in range(6):
            state.record_event(encode_event(Heartbeat(float(i))))
        state.write_snapshot({"at": 6})
        state.record_event(encode_event(Heartbeat(6.0)))
        state.truncate_after(3)
        assert state.journal.last_seq == 3
        assert state.load_latest_snapshot() is None  # snapshot was past seq 3

    def test_compaction_holds_the_boundary_after_truncating_past_it(self, tmp_path):
        """Rewinding below the journal's cached newest heartbeat must
        forget it: a snapshot taken after the rewind lies past the only
        boundary left, so compaction has to refuse — which it would not
        if it still believed in the heartbeat that was cut away."""
        state = ServiceState(
            tmp_path, segment_records=4, snapshot_every=10**9, auto_compact=False
        )
        submits = [
            encode_event(JobSubmitted(2.0 + i, tenant="a", job_id=f"j{i}"))
            for i in range(40)
        ]
        state.record_event(encode_event(Heartbeat(1.0)))  # seq 1
        for data in submits[:19]:
            state.record_event(data)
        state.record_event(encode_event(Heartbeat(30.0)))  # seq 21, cached
        state.truncate_after(10)
        for data in submits[19:24]:
            state.record_event(data)
        state.write_snapshot({"x": 1})  # seq 15: past heartbeat 1, below 21
        assert state.journal.last_heartbeat() == (1, 1.0)
        before = state.journal.segments()
        assert len(before) > 2
        assert state.compact(keep_segments=1) == 0
        assert state.journal.segments() == before
        # Once a boundary past the snapshot exists, the same call compacts.
        state.record_event(encode_event(Heartbeat(40.0)))
        assert state.compact(keep_segments=1) > 0
        state.close()


class TestCliResume:
    def test_serve_state_dir_then_resume(self, tmp_path):
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
                "--state-dir",
                state_dir,
            ],
            out=out,
        )
        assert code == 0
        assert "state-dir" in out.getvalue()
        out = io.StringIO()
        code = main(["resume", "--state-dir", state_dir], out=out)
        assert code == 0
        text = out.getvalue()
        assert "resumed from" in text
        assert "final configuration" in text

    def test_resume_continues_interrupted_run(self, tmp_path):
        """Emulate a crash by journaling only a prefix, then CLI-resume."""
        import io

        from repro.cli import main
        from repro.service.replay import ScenarioReplayer

        state_dir = tmp_path / "state"
        state = ServiceState(state_dir)
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
                # Written by builds that still had codecs, the what-if
                # pool/memo and the async journal writer: ignored.
                "journal_codec": "binary",
                "whatif_workers": 2,
                "whatif_cache_size": 256,
                "async_journal": True,
            }
        )
        service = build_service(scenario, config, seed=1, state=state)
        ScenarioReplayer(scenario, service, seed=1).run(900.0)  # dies at 900s
        state.close()
        out = io.StringIO()
        code = main(["resume", "--state-dir", str(state_dir)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "continuing scenario=steady from t=900s" in text
        assert "final configuration" in text

    def test_drain_crash_resimulates_final_interval(self, tmp_path):
        """A crash during the final drain re-simulates the last interval.

        The horizon heartbeat is only journaled after the drain, so a
        mid-drain kill leaves the boundary at the previous interval and
        resume regenerates the final interval *and* its backlog drain —
        no completion telemetry is silently lost.
        """
        import io

        from repro.cli import main
        from repro.service.replay import ScenarioReplayer

        state_dir = tmp_path / "state"
        state = ServiceState(state_dir)
        state.write_meta(
            {
                "scenario": "steady",
                "scale": 3.0,
                "horizon": 1350.0,
                "seed": 5,
                "window": 900.0,
                "interval": 450.0,
                "drift": 0.02,
                "speedup": 0.0,
                "transport": "direct",
                "revert_windows": 1,
                "continuous": True,
            }
        )
        scenario = make_scenario("steady", scale=3.0, horizon=1350.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=5,
            state=state,
        )
        ScenarioReplayer(scenario, service, seed=5, verify_stats=False).run()
        state.close()
        # The closing heartbeat at the horizon is journaled only after
        # the drain delivered completely.
        boundary = state.journal.last_heartbeat()
        assert boundary is not None and boundary[1] == 1350.0
        # Emulate dying mid-drain: drop the closing heartbeat and the
        # drain tail.  The newest surviving heartbeat is now the last
        # *full* interval's, before the horizon.
        state.truncate_after(boundary[0] - 3)
        rewound = state.journal.last_heartbeat()
        assert rewound is not None and rewound[1] < 1350.0
        out = io.StringIO()
        code = main(["resume", "--state-dir", str(state_dir)], out=out)
        assert code == 0
        assert f"continuing scenario=steady from t={rewound[1]:.0f}s" in out.getvalue()
        # The re-driven run journaled the final interval and its drain.
        assert EventJournal(state_dir / "journal").last_heartbeat()[1] == 1350.0

    def test_resumed_run_summary_covers_only_new_decisions(self, tmp_path):
        from repro.service.replay import ScenarioReplayer

        state_dir = tmp_path / "state"
        state = ServiceState(state_dir)
        scenario = make_scenario("steady", scale=1.0, horizon=1800.0)
        config = ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3)
        service = build_service(scenario, config, seed=1, state=state)
        first = ScenarioReplayer(scenario, service, seed=1).run(900.0)
        state.close()
        assert first.retunes >= 1
        resumed = TempoService.resume(
            build_controller(scenario), state_dir, config
        )
        second = ScenarioReplayer(scenario, resumed, seed=1).run(1800.0, start=900.0)
        assert all(d.time >= 900.0 for d in second.decisions)
        assert second.retunes == sum(1 for d in second.decisions if d.retuned)
        # The daemon's full history still covers both run segments.
        assert resumed.retunes >= first.retunes + second.retunes

    def test_serve_refuses_dirty_state_dir(self, tmp_path):
        import io

        from repro.cli import main

        state_dir = str(tmp_path / "state")
        state = ServiceState(state_dir)
        state.record_event(encode_event(Heartbeat(1.0)))
        state.close()
        with pytest.raises(SystemExit, match="resume"):
            main(
                ["serve", "--scenario", "steady", "--state-dir", state_dir],
                out=io.StringIO(),
            )

    def test_resume_requires_meta(self, tmp_path):
        import io

        from repro.cli import main

        with pytest.raises(SystemExit, match="meta.json"):
            main(["resume", "--state-dir", str(tmp_path)], out=io.StringIO())

    def test_resume_does_not_create_state_dir_on_typo(self, tmp_path):
        """A typo'd --state-dir must not leave a valid-looking state tree."""
        import io

        from repro.cli import main

        missing = tmp_path / "staet"
        with pytest.raises(SystemExit, match="meta.json"):
            main(["resume", "--state-dir", str(missing)], out=io.StringIO())
        assert not missing.exists()
