"""Tests for the journal record codec (struct-packed CRC frames).

The contract under test is the round trip: every event record decodes
to the event that was appended (``record.event == event``) and its dict
view is ``encode_event`` of it — asserted record-type by record-type,
by hypothesis fuzz, and end-to-end through crash-torn tails, rotation,
compaction, rewind, and the wire format the TCP transport reuses.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.codec import (
    BINARY_SUFFIX,
    BinaryEncoder,
    HEADER_FRAME,
    decode_payload,
    decode_wire_batches,
    encode_wire_batches,
    frame_payload,
    split_frames,
)
from repro.service.events import (
    DecisionMade,
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    NodeLost,
    NodeRecovered,
    ShardFailed,
    ShardPartitioned,
    ShardReconnected,
    ShardRecovered,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.service.journal import (
    EventJournal,
    JournalError,
    JournalRecord,
    decode_event,
    encode_event,
    read_segment,
)
from repro.workload.trace import JobRecord, TaskRecord


def _task(job_id="job-0", task_id="job-0/m0", **kwargs):
    fields = dict(
        job_id=job_id,
        task_id=task_id,
        tenant="acme",
        pool="map",
        stage="map",
        submit_time=10.0,
        start_time=11.0,
        finish_time=15.0,
    )
    fields.update(kwargs)
    return TaskRecord(**fields)


#: One instance of every journaled event type (all 13), including the
#: variant shapes the typed binary formats branch on (deadline present
#: or not, tags/stage-deps present or not, flag combinations).
ALL_EVENT_SHAPES = [
    JobSubmitted(time=1.0, tenant="acme", job_id="j-1"),
    JobSubmitted(time=1.5, tenant="acme", job_id="j-2", deadline=250.0),
    TaskCompleted(time=15.0, record=_task()),
    TaskCompleted(
        time=16.0,
        record=_task(
            task_id="job-0/m1", containers=3, preempted=True, failed=True, attempt=2
        ),
    ),
    JobCompleted(
        time=20.0,
        record=JobRecord(
            job_id="j-1",
            tenant="acme",
            submit_time=1.0,
            finish_time=20.0,
            num_tasks=2,
        ),
    ),
    JobCompleted(
        time=21.0,
        record=JobRecord(
            job_id="j-2",
            tenant="acme",
            submit_time=1.5,
            finish_time=21.0,
            num_tasks=4,
            deadline=250.0,
            tags=("adhoc", "prod"),
            stage_deps=(("map", ()), ("reduce", ("map",))),
        ),
    ),
    NodeLost(time=30.0, pool="map", containers=2),
    NodeRecovered(time=31.0, pool="map", containers=2),
    TenantJoined(time=32.0, tenant="acme"),
    TenantLeft(time=33.0, tenant="acme"),
    Heartbeat(time=34.0),
    DecisionMade(time=35.0, verdict="retune", index=3, retuned=True, reason="drift"),
    ShardFailed(time=36.0, shard=1, reason="timeout"),
    ShardRecovered(time=37.0, shard=1, replayed=10, dropped=1, latency=0.5),
    ShardPartitioned(time=38.0, shard=2),
    ShardReconnected(time=39.0, shard=2, outage=3.5),
]

GENERIC_RECORDS = [
    ("decision", {"verdict": "hold", "index": 1}),
    ("config", {"tenants": {"acme": {"weight": 2.0}}}),
    ("rollback", {"reason": "guard", "index": 2}),
    ("metrics", {"p99": 1.25, "backlog": 7}),
]


#: Shapes the typed frames cannot carry and must hand to the JSON
#: passthrough frame intact: strings needing JSON escapes, non-ASCII
#: text, a non-finite deadline, int-valued numeric fields.
ODD_EVENTS = [
    JobSubmitted(1.0, tenant='te"nant', job_id="a\\b", deadline=math.inf),
    JobSubmitted(2.0, tenant="unié", job_id="x"),
    TenantJoined(3.0, tenant="café"),
    TaskCompleted(3.0, record=_task(submit_time=1, start_time=2, finish_time=3)),
    JobCompleted(
        3.0, record=JobRecord(job_id="j", tenant="t", submit_time=1, finish_time=3)
    ),
    Heartbeat(6),
]


def test_every_event_type_round_trips_to_the_original_event(tmp_path):
    """All 13 event types, the odd shapes and every generic record kind
    decode to exactly what was appended."""
    events = ALL_EVENT_SHAPES + ODD_EVENTS
    journal = EventJournal(tmp_path)
    journal.append_events(events)
    for kind, data in GENERIC_RECORDS:
        journal.append(kind, data)
    journal.close()
    records = list(EventJournal(tmp_path).iter_records())
    assert [r.seq for r in records] == list(
        range(1, len(events) + len(GENERIC_RECORDS) + 1)
    )
    for record, event in zip(records, events):
        assert record.kind == "event"
        assert record.event == event
        assert record.event_type is type(event)
        assert record.data == encode_event(event)
    assert [(r.kind, r.data) for r in records[len(events):]] == GENERIC_RECORDS
    assert {r.event_type for r in records[len(events):]} == {None}


def test_binary_segments_use_binl_suffix_and_header(tmp_path):
    journal = EventJournal(tmp_path / "j")
    journal.append_events([Heartbeat(time=1.0)])
    journal.close()
    segments = list((tmp_path / "j").glob("*" + BINARY_SUFFIX))
    assert len(segments) == 1
    assert segments[0].read_bytes().startswith(HEADER_FRAME)
    assert [p.name for p in (tmp_path / "j").iterdir()] == [segments[0].name]


def test_json_segment_of_an_older_build_is_refused(tmp_path):
    """A leftover ``.jsonl`` segment fails the open loudly — globbing
    past it would make acknowledged records disappear."""
    root = tmp_path / "j"
    journal = EventJournal(root)
    journal.append_events([Heartbeat(time=1.0)])
    journal.close()
    stale = root / "segment-0000000002.jsonl"
    stale.write_text('deadbeef {"data":{},"kind":"event","seq":2}\n')
    with pytest.raises(JournalError, match=r"segment-0000000002\.jsonl.*OPERATIONS"):
        EventJournal(root)
    with pytest.raises(JournalError, match="Upgrading"):
        journal.segments()


def test_binary_rotation_reopen_and_dense_seqs(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, segment_records=8)
    events = [Heartbeat(time=float(i)) for i in range(30)]
    journal.append_events(events)
    journal.close()
    # Reopen mid-segment and continue appending.
    journal = EventJournal(root, segment_records=8)
    journal.append_events([Heartbeat(time=100.0 + i) for i in range(10)])
    journal.close()
    records = list(EventJournal(root).iter_records())
    assert [r.seq for r in records] == list(range(1, 41))
    times = [r.data["time"] for r in records]
    assert times == [float(i) for i in range(30)] + [100.0 + i for i in range(10)]
    assert len(list(root.glob("*" + BINARY_SUFFIX))) == 5
    # Every segment decodes standalone (self-contained string table).
    for seg in sorted(root.glob("*" + BINARY_SUFFIX)):
        assert list(read_segment(seg, final=False))


def test_binary_string_table_survives_reopen(tmp_path):
    """Interned ids assigned after reopen must extend the tail's table."""
    root = tmp_path / "j"
    journal = EventJournal(root, segment_records=1000)
    journal.append_events([TaskCompleted(time=15.0, record=_task())])
    journal.close()
    journal = EventJournal(root, segment_records=1000)
    journal.append_events(
        [
            TaskCompleted(time=16.0, record=_task(task_id="job-0/m1")),
            TaskCompleted(
                time=17.0,
                record=_task(job_id="job-9", task_id="job-9/r0", pool="reduce", stage="reduce"),
            ),
        ]
    )
    journal.close()
    records = list(EventJournal(root).iter_records())
    pools = [r.data["record"]["pool"] for r in records]
    jobs = [r.data["record"]["job_id"] for r in records]
    assert pools == ["map", "map", "reduce"]
    assert jobs == ["job-0", "job-0", "job-9"]


def test_binary_compaction_and_heartbeat_rewind(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, segment_records=5)
    events = []
    for i in range(4):
        events.extend(
            [
                JobSubmitted(time=float(10 * i), tenant="acme", job_id=f"j{i}"),
                TaskCompleted(
                    time=10.0 * i + 5,
                    record=_task(job_id=f"j{i}", task_id=f"j{i}/m0"),
                ),
                Heartbeat(time=10.0 * i + 6),
            ]
        )
    journal.append_events(events)
    beat = journal.last_heartbeat()
    assert beat is not None and beat[1] == 36.0
    # Rewind past the last heartbeat, as resume does for partial chunks.
    removed = journal.truncate_after(beat[0] - 2)
    assert removed == 2
    journal.append_events([Heartbeat(time=50.0)])
    journal.close()
    journal = EventJournal(root, segment_records=5)
    records = list(journal.iter_records())
    assert [r.seq for r in records] == list(range(1, 12))
    assert records[-1].data == {"type": "Heartbeat", "time": 50.0}
    # Compaction drops whole covered segments, keeps the live tail.
    before = len(journal.segments())
    dropped = journal.compact(covered=5)
    assert dropped >= 1
    assert len(journal.segments()) == before - dropped
    assert [r.seq for r in journal.iter_records(after=5)] == list(range(6, 12))
    journal.close()


# -- crash matrix --------------------------------------------------------------


_CRASH_CHILD = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    from repro.service.events import Heartbeat
    from repro.service.journal import EventJournal

    journal = EventJournal(Path(sys.argv[1]), segment_records=64)
    print("ready", flush=True)
    n = 0
    while True:
        journal.append_events([Heartbeat(time=float(n + k)) for k in range(17)])
        n += 17
    """
)


def test_kill9_mid_append_leaves_clean_appendable_prefix(tmp_path):
    """SIGKILL during append_many: dense prefix, reopen, append."""
    root = tmp_path / "j"
    child = subprocess.Popen(
        [sys.executable, "-c", _CRASH_CHILD, str(root)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    try:
        assert child.stdout.readline().strip() == b"ready"
        deadline = time.time() + 10.0
        while time.time() < deadline:
            if any(root.glob("*" + BINARY_SUFFIX)):
                break
            time.sleep(0.01)
        time.sleep(0.15)  # let a few hundred batches land
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)
    journal = EventJournal(root, segment_records=64)
    records = list(journal.iter_records())
    count = len(records)
    assert count > 0
    # Clean prefix: dense seqs, payloads are exactly the first N beats.
    assert [r.seq for r in records] == list(range(1, count + 1))
    assert [r.data["time"] for r in records] == [float(i) for i in range(count)]
    # The survivor journal accepts appends at the right sequence.
    assert journal.append_events([Heartbeat(time=1e9)]) == [count + 1]
    journal.close()


def test_torn_tail_matrix_drops_at_most_the_torn_frame(tmp_path):
    """Byte-truncate the tail segment at many offsets (simulated torn
    write): every cut yields the longest clean frame prefix, and the
    journal reopens and appends after each."""
    root = tmp_path / "j"
    journal = EventJournal(root, segment_records=1000)
    journal.append_events(
        [
            TaskCompleted(time=float(i) + 10.0, record=_task(task_id=f"job-0/m{i}"))
            for i in range(8)
        ]
    )
    journal.close()
    (segment,) = root.glob("*" + BINARY_SUFFIX)
    raw = segment.read_bytes()
    payloads, clean_end, error = split_frames(raw)
    assert error is None and clean_end == len(raw)
    # Frame boundaries (byte offset after each frame) paired with how
    # many *records* are complete at that offset.
    boundaries = []
    offset = 0
    records_at = 0
    table: list[str] = []
    for payload in payloads:
        offset += 8 + len(payload)
        if decode_payload(payload, table) is not None:
            records_at += 1
        boundaries.append((offset, records_at))
    cuts = sorted({clean_end - 1, clean_end - 5, clean_end // 2, 3, 11} | {
        b - 1 for b, _ in boundaries[2:5]
    })
    for cut in cuts:
        segment.write_bytes(raw[:cut])
        expected = 0
        for boundary, nrecords in boundaries:
            if boundary <= cut:
                expected = nrecords
        journal = EventJournal(root, segment_records=1000)
        records = list(journal.iter_records())
        assert len(records) == expected, f"cut at {cut}"
        assert [r.seq for r in records] == list(range(1, expected + 1))
        appended = journal.append_events([Heartbeat(time=99.0)])
        assert appended == [expected + 1]
        journal.close()
        segment.write_bytes(raw)  # restore for the next cut


def test_mid_file_corruption_raises_instead_of_skipping(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, segment_records=1000)
    journal.append_events([Heartbeat(time=float(i)) for i in range(50)])
    journal.close()
    (segment,) = root.glob("*" + BINARY_SUFFIX)
    raw = bytearray(segment.read_bytes())
    mid = len(raw) // 2
    raw[mid] ^= 0xFF
    segment.write_bytes(bytes(raw))
    with pytest.raises(JournalError):
        list(EventJournal(root).iter_records())


def test_unreadable_frames_raise_naming_segment_and_frame(tmp_path):
    """Damage never decodes silently on the straight-to-event path: a
    torn tail is tolerated only on the final segment, mid-file damage
    and a string id past the table raise, each naming where."""
    root = tmp_path / "j"
    journal = EventJournal(root, segment_records=4)
    journal.append_events(
        [TaskCompleted(time=10.0 + i, record=_task(task_id=f"job-0/m{i}")) for i in range(8)]
    )
    journal.close()
    first, last = sorted(root.glob("*" + BINARY_SUFFIX))
    pristine = first.read_bytes()

    def read_all():
        return list(EventJournal(root, segment_records=4).iter_records())

    first.write_bytes(pristine[:-3])  # torn, but not the final segment
    with pytest.raises(JournalError, match=rf"{first.name}: torn"):
        read_all()
    damaged = bytearray(pristine)
    damaged[len(HEADER_FRAME) + 12] ^= 0xFF  # first frame behind the header
    first.write_bytes(bytes(damaged))
    with pytest.raises(JournalError, match=rf"{first.name}: crc mismatch at byte"):
        read_all()
    # A CRC-valid task frame whose tenant id points past the string table.
    payloads, _, _ = split_frames(pristine)
    (frame,) = [i for i, p in enumerate(payloads) if p[0] == 0x02][:1]
    stray = bytearray(payloads[frame])
    stray[58:62] = (99).to_bytes(4, "little")
    first.write_bytes(
        b"".join(frame_payload(bytes(p)) for p in payloads[:frame])
        + frame_payload(bytes(stray))
    )
    with pytest.raises(JournalError, match=rf"{first.name} frame {frame + 1}: "):
        read_all()
    first.write_bytes(pristine)
    last.write_bytes(last.read_bytes()[:-3])  # the final segment may be torn
    assert [r.seq for r in read_all()] == list(range(1, 8))


def test_unknown_passthrough_event_lists_but_does_not_replay(tmp_path):
    """A passthrough event of a type this build does not know keeps its
    dict — ``dump-journal`` lists it — and fails only when an event is
    asked of it, which is what replay does."""
    import io

    from repro.cli import main
    from repro.service.daemon import TempoService
    from repro.service.replay import build_controller, make_scenario

    mystery = {"type": "Mystery", "time": 2.0, "payload": [1, 2]}
    journal = EventJournal(tmp_path / "journal")
    journal.append_events([Heartbeat(time=1.0)])
    journal.append("event", mystery)
    journal.close()
    out = io.StringIO()
    assert main(["dump-journal", "--state-dir", str(tmp_path)], out=out) == 0
    assert '"type":"Mystery"' in out.getvalue().splitlines()[1]
    record = list(EventJournal(tmp_path / "journal").iter_records())[1]
    assert (record.kind, record.data, record.event_type) == ("event", mystery, None)
    with pytest.raises(JournalError, match="unknown event type"):
        record.event
    with pytest.raises(JournalError, match="unknown event type"):
        TempoService.resume(
            build_controller(make_scenario("steady", scale=1.0, horizon=600.0)),
            tmp_path,
        )


# -- hypothesis fuzz -----------------------------------------------------------


_text = st.text(min_size=0, max_size=20)
_time = st.floats(min_value=0, allow_nan=False, allow_infinity=False, width=32)
_money = st.floats(allow_nan=False, width=32)  # may be +-inf
_small_int = st.integers(min_value=0, max_value=2**40)
_any_int = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def _events_strategy(draw):
    kind = draw(st.integers(min_value=0, max_value=12))
    t = draw(_time)
    if kind == 0:
        return JobSubmitted(
            time=t,
            tenant=draw(_text),
            job_id=draw(_text),
            deadline=draw(st.none() | _money),
        )
    if kind == 1:
        base = draw(_time)
        d1 = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
        d2 = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
        return TaskCompleted(
            time=t,
            record=TaskRecord(
                job_id=draw(_text),
                task_id=draw(_text),
                tenant=draw(_text),
                pool=draw(_text),
                stage=draw(_text),
                submit_time=base,
                start_time=base + d1,
                finish_time=base + d1 + d2,
                containers=draw(_any_int),
                preempted=draw(st.booleans()),
                failed=draw(st.booleans()),
                attempt=draw(_small_int),
            ),
        )
    if kind == 2:
        base = draw(_time)
        dur = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
        return JobCompleted(
            time=t,
            record=JobRecord(
                job_id=draw(_text),
                tenant=draw(_text),
                submit_time=base,
                finish_time=base + dur,
                num_tasks=draw(_any_int),
                deadline=draw(st.none() | _money),
                tags=tuple(draw(st.lists(_text, max_size=3))),
                stage_deps=tuple(
                    (stage, tuple(deps))
                    for stage, deps in draw(
                        st.lists(
                            st.tuples(_text, st.lists(_text, max_size=2)), max_size=2
                        )
                    )
                ),
            ),
        )
    if kind == 3:
        return Heartbeat(time=t)
    if kind == 4:
        return NodeLost(time=t, pool=draw(_text), containers=draw(_small_int))
    if kind == 5:
        return NodeRecovered(time=t, pool=draw(_text), containers=draw(_small_int))
    if kind == 6:
        return TenantJoined(time=t, tenant=draw(_text))
    if kind == 7:
        return TenantLeft(time=t, tenant=draw(_text))
    if kind == 8:
        return DecisionMade(
            time=t,
            verdict=draw(_text),
            index=draw(_small_int),
            retuned=draw(st.booleans()),
            reason=draw(_text),
        )
    if kind == 9:
        return ShardFailed(time=t, shard=draw(_small_int), reason=draw(_text))
    if kind == 10:
        return ShardRecovered(
            time=t,
            shard=draw(_small_int),
            replayed=draw(_small_int),
            dropped=draw(_small_int),
            latency=draw(_time),
        )
    if kind == 11:
        return ShardPartitioned(time=t, shard=draw(_small_int), reason=draw(_text))
    return ShardReconnected(time=t, shard=draw(_small_int), outage=draw(_time))


@settings(max_examples=60, deadline=None)
@given(st.lists(_events_strategy(), min_size=1, max_size=12))
def test_fuzzed_frames_round_trip_to_the_original_events(events):
    """decode(encode(x)) == x over the frame codec, fuzzed: typed frames
    decode straight to the event, passthrough frames to its dict."""
    encoder = BinaryEncoder()
    entries: list = []
    encoder.encode_event_batch(
        encode_event, events, 1, 0, 1 << 62, HEADER_FRAME, entries
    )
    blob = b"".join(part for entry in entries for part in entry[2])
    payloads, _, error = split_frames(blob)
    assert error is None
    table: list[str] = []
    decoded = [
        out for p in payloads if (out := decode_payload(p, table)) is not None
    ]
    assert len(decoded) == len(events)
    for i, (event, (seq, kind, body)) in enumerate(zip(events, decoded)):
        assert seq == 1 + i
        assert kind == "event"
        assert body == event or body == encode_event(event)
        record = JournalRecord(seq, kind, body)
        assert record.event == event
        assert record.data == encode_event(event)


@settings(max_examples=25, deadline=None)
@given(st.lists(_events_strategy(), min_size=1, max_size=8), st.integers(2, 5))
def test_fuzzed_journal_round_trips_across_rotations(
    tmp_path_factory, events, segment_records
):
    """Full-journal fuzz: what was appended is what a fresh open
    re-reads, across segment rotations."""
    root = tmp_path_factory.mktemp("codec-fuzz")
    journal = EventJournal(root, segment_records=segment_records)
    journal.append_events(events)
    journal.close()
    records = list(EventJournal(root).iter_records())
    assert [r.seq for r in records] == list(range(1, len(events) + 1))
    assert [r.event for r in records] == events
    assert [r.data for r in records] == [encode_event(e) for e in events]


# -- wire format --------------------------------------------------------


def test_wire_batches_roundtrip():
    batches = [(5, ALL_EVENT_SHAPES[:6]), (11, ALL_EVENT_SHAPES[6:])]
    message = encode_wire_batches(batches, encode_event)
    assert message[0] == 0x00  # WIRE_MAGIC: impossible in a JSON frame
    assert decode_wire_batches(message, decode_event) == batches


def test_wire_batches_reject_damage():
    message = encode_wire_batches([(1, ALL_EVENT_SHAPES[:4])], encode_event)
    with pytest.raises(ValueError):
        decode_wire_batches(message[: len(message) - 3], decode_event)
    corrupt = bytearray(message)
    corrupt[len(message) // 2] ^= 0xFF
    with pytest.raises(ValueError):
        decode_wire_batches(bytes(corrupt), decode_event)
