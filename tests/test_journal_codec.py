"""Tests for the versioned binary journal codec.

The contract under test is parity: ``decode(binary_encode(x)) ==
decode(json_encode(x))`` for every record kind — asserted record-type
by record-type, by hypothesis fuzz, and end-to-end through mixed-codec
state directories, crash-torn tails, rotation, compaction, rewind, and
the binary wire format the TCP transport reuses.
"""

from __future__ import annotations

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
    JOURNAL_CODECS,
    EventJournal,
    JournalError,
    canonical_json,
    decode_event,
    encode_event,
    frame_line,
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


def _journal_records(root, codec, events=(), records=()):
    journal = EventJournal(root, codec=codec)
    if events:
        journal.append_events(list(events))
    for kind, data in records:
        journal.append(kind, data)
    journal.close()
    return [(r.seq, r.kind, r.data) for r in EventJournal(root, codec=codec).iter_records()]


def test_every_event_type_decodes_identically_across_codecs(tmp_path):
    """Parity over all 13 event types plus every generic record kind."""
    got_json = _journal_records(
        tmp_path / "json", "json", ALL_EVENT_SHAPES, GENERIC_RECORDS
    )
    got_binary = _journal_records(
        tmp_path / "binary", "binary", ALL_EVENT_SHAPES, GENERIC_RECORDS
    )
    assert got_json == got_binary
    assert len(got_json) == len(ALL_EVENT_SHAPES) + len(GENERIC_RECORDS)
    # And the decoded events reconstruct the originals exactly.
    for (seq, kind, data), event in zip(got_binary, ALL_EVENT_SHAPES):
        assert kind == "event"
        assert decode_event(data) == event


def test_binary_segments_use_binl_suffix_and_header(tmp_path):
    journal = EventJournal(tmp_path / "j", codec="binary")
    journal.append_events([Heartbeat(time=1.0)])
    journal.close()
    segments = list((tmp_path / "j").glob("*" + BINARY_SUFFIX))
    assert len(segments) == 1
    assert segments[0].read_bytes().startswith(HEADER_FRAME)
    assert not list((tmp_path / "j").glob("*.jsonl"))


def test_json_codec_is_byte_identical_to_plain_framing(tmp_path):
    """``--journal-codec json`` must keep the PR 8 on-disk bytes."""
    journal = EventJournal(tmp_path / "j", codec="json")
    journal.append_events(ALL_EVENT_SHAPES)
    for kind, data in GENERIC_RECORDS:
        journal.append(kind, data)
    journal.close()
    segments = sorted((tmp_path / "j").glob("*.jsonl"))
    assert segments
    raw = b"".join(seg.read_bytes() for seg in segments)
    expected = []
    seq = 1
    for event in ALL_EVENT_SHAPES:
        body = canonical_json({"seq": seq, "kind": "event", "data": encode_event(event)})
        expected.append(frame_line(body) + "\n")
        seq += 1
    for kind, data in GENERIC_RECORDS:
        body = canonical_json({"seq": seq, "kind": kind, "data": data})
        expected.append(frame_line(body) + "\n")
        seq += 1
    assert raw.decode("utf-8") == "".join(expected)


def test_codec_validated(tmp_path):
    with pytest.raises(ValueError):
        EventJournal(tmp_path / "j", codec="msgpack")
    assert set(JOURNAL_CODECS) == {"json", "binary"}


def test_binary_rotation_reopen_and_dense_seqs(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, codec="binary", segment_records=8)
    events = [Heartbeat(time=float(i)) for i in range(30)]
    journal.append_events(events)
    journal.close()
    # Reopen mid-segment and continue appending.
    journal = EventJournal(root, codec="binary", segment_records=8)
    journal.append_events([Heartbeat(time=100.0 + i) for i in range(10)])
    journal.close()
    records = list(EventJournal(root, codec="binary").iter_records())
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
    journal = EventJournal(root, codec="binary", segment_records=1000)
    journal.append_events([TaskCompleted(time=15.0, record=_task())])
    journal.close()
    journal = EventJournal(root, codec="binary", segment_records=1000)
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
    records = list(EventJournal(root, codec="binary").iter_records())
    pools = [r.data["record"]["pool"] for r in records]
    jobs = [r.data["record"]["job_id"] for r in records]
    assert pools == ["map", "map", "reduce"]
    assert jobs == ["job-0", "job-0", "job-9"]


def test_binary_compaction_and_heartbeat_rewind(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, codec="binary", segment_records=5)
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
    journal = EventJournal(root, codec="binary", segment_records=5)
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


def test_mixed_codec_state_dir_reads_transparently(tmp_path):
    """JSON then binary segments in one dir — the migration layout."""
    root = tmp_path / "j"
    journal = EventJournal(root, codec="json", segment_records=4)
    journal.append_events([Heartbeat(time=float(i)) for i in range(6)])
    journal.close()
    journal = EventJournal(root, codec="binary", segment_records=4)
    journal.append_events([Heartbeat(time=100.0 + i) for i in range(6)])
    journal.close()
    assert list(root.glob("*.jsonl")) and list(root.glob("*" + BINARY_SUFFIX))
    records = list(EventJournal(root, codec="binary").iter_records())
    assert [r.seq for r in records] == list(range(1, 13))
    assert [r.data["time"] for r in records[:6]] == [float(i) for i in range(6)]
    # Reading the same dir under the json codec sees the same records.
    assert [
        (r.seq, r.data) for r in EventJournal(root, codec="json").iter_records()
    ] == [(r.seq, r.data) for r in records]


def test_switching_to_binary_rotates_rather_than_extends_json_tail(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, codec="json", segment_records=100)
    journal.append_events([Heartbeat(time=1.0)])
    journal.close()
    journal = EventJournal(root, codec="binary", segment_records=100)
    journal.append_events([Heartbeat(time=2.0)])
    journal.close()
    (jsonl,) = root.glob("*.jsonl")
    (binl,) = root.glob("*" + BINARY_SUFFIX)
    assert jsonl.stem.split("-")[1] == "0000000001"
    assert binl.stem.split("-")[1] == "0000000002"


# -- crash matrix --------------------------------------------------------------


_CRASH_CHILD = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    from repro.service.events import Heartbeat
    from repro.service.journal import EventJournal

    journal = EventJournal(Path(sys.argv[1]), codec="binary", segment_records=64)
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
    journal = EventJournal(root, codec="binary", segment_records=64)
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
    journal = EventJournal(root, codec="binary", segment_records=1000)
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
        journal = EventJournal(root, codec="binary", segment_records=1000)
        records = list(journal.iter_records())
        assert len(records) == expected, f"cut at {cut}"
        assert [r.seq for r in records] == list(range(1, expected + 1))
        appended = journal.append_events([Heartbeat(time=99.0)])
        assert appended == [expected + 1]
        journal.close()
        segment.write_bytes(raw)  # restore for the next cut


def test_mid_file_corruption_raises_instead_of_skipping(tmp_path):
    root = tmp_path / "j"
    journal = EventJournal(root, codec="binary", segment_records=1000)
    journal.append_events([Heartbeat(time=float(i)) for i in range(50)])
    journal.close()
    (segment,) = root.glob("*" + BINARY_SUFFIX)
    raw = bytearray(segment.read_bytes())
    mid = len(raw) // 2
    raw[mid] ^= 0xFF
    segment.write_bytes(bytes(raw))
    with pytest.raises(JournalError):
        list(EventJournal(root, codec="binary").iter_records())


def test_service_resume_on_mixed_codec_state_dir(tmp_path):
    """serve (json) → kill → continue (binary) → kill torn → resume.

    The migration scenario: a state dir whose journal holds JSON
    segments followed by binary segments, with a torn binary tail, must
    resume by replaying both transparently."""
    import numpy as np

    from repro.service.daemon import ServiceConfig, TempoService
    from repro.service.ingest import stats_gap
    from repro.service.replay import build_controller, build_service, make_scenario
    from repro.service.snapshot import ServiceState

    rng = np.random.default_rng(7)
    events, t = [], 0.0
    for i in range(120):
        t += float(rng.exponential(20.0))
        tenant = ("deadline", "besteffort")[i % 2]
        job_id = f"{tenant}-{i}"
        duration = float(rng.lognormal(3.0, 0.8))
        finish = t + duration
        events.append(JobSubmitted(t, tenant=tenant, job_id=job_id))
        events.append(
            TaskCompleted(
                finish,
                record=TaskRecord(
                    job_id=job_id,
                    task_id=f"{job_id}/t0",
                    tenant=tenant,
                    pool="map",
                    stage="map",
                    submit_time=t,
                    start_time=max(t, finish - duration),
                    finish_time=finish,
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
    cut = len(events) // 2
    scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
    # No retunes: an applied tune snapshots + compacts, which would let
    # resume skip the JSON prefix — the mixed replay is the point here.
    config = ServiceConfig(window=600.0, retune_interval=10**9, min_window_jobs=3)

    def state_with(codec):
        return ServiceState(
            tmp_path,
            segment_records=64,
            snapshot_every=10**9,
            journal_codec=codec,
        )

    state = state_with("json")
    live = build_service(scenario, config, seed=0, state=state)
    for event in events[:cut]:
        live.process(event)
    state.close()
    assert list(tmp_path.glob("journal/*.jsonl"))

    # The operator flips the codec; the daemon resumes over the JSON
    # history and continues journaling binary segments.
    resumed = TempoService.resume(build_controller(scenario), state_with("binary"), config)
    assert resumed.events_processed == cut
    for event in events[cut:]:
        resumed.process(event)
    resumed.state.close()
    binary_segments = sorted(tmp_path.glob("journal/*" + BINARY_SUFFIX))
    assert binary_segments

    # Crash with a torn binary tail; every snapshot lost: the final
    # resume replays the full mixed journal and drops only the tear.
    with binary_segments[-1].open("ab") as fh:
        fh.write(b"\xde\xad\xbe\xef\x00")
    for snapshot in tmp_path.glob("snapshots/*.json"):
        snapshot.unlink()
    final = TempoService.resume(build_controller(scenario), state_with("binary"), config)
    assert final.events_processed == len(events)
    assert stats_gap(final.window) < 1e-9


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
def test_binary_roundtrip_matches_json_roundtrip(events):
    """decode(binary_encode(x)) == decode(json_encode(x)), fuzzed."""
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
    import json as _json

    for i, (event, (seq, kind, data)) in enumerate(zip(events, decoded)):
        assert seq == 1 + i
        assert kind == "event"
        via_json = _json.loads(
            canonical_json({"seq": seq, "kind": "event", "data": encode_event(event)})
        )
        assert data == via_json["data"]


@settings(max_examples=25, deadline=None)
@given(st.lists(_events_strategy(), min_size=1, max_size=8), st.integers(2, 5))
def test_fuzzed_journal_parity_across_codecs(tmp_path_factory, events, segment_records):
    """Full-journal fuzz: both codecs persist and re-read identically,
    across segment rotations."""
    base = tmp_path_factory.mktemp("codec-fuzz")
    got = {}
    for codec in JOURNAL_CODECS:
        root = base / codec
        journal = EventJournal(root, codec=codec, segment_records=segment_records)
        journal.append_events(events)
        journal.close()
        got[codec] = [
            (r.seq, r.kind, r.data)
            for r in EventJournal(root, codec=codec).iter_records()
        ]
    assert got["json"] == got["binary"]
    assert len(got["binary"]) == len(events)


# -- binary wire format --------------------------------------------------------


def test_wire_batches_roundtrip():
    batches = [(5, ALL_EVENT_SHAPES[:6]), (11, ALL_EVENT_SHAPES[6:])]
    message = encode_wire_batches(batches, encode_event)
    assert message[0] == 0x00  # WIRE_MAGIC: impossible in a JSON frame
    decoded = decode_wire_batches(message)
    assert [(seq, len(events)) for seq, events in decoded] == [(5, 6), (11, 10)]
    for (_, events), (_, originals) in zip(decoded, batches):
        assert events == [encode_event(e) for e in originals]


def test_wire_batches_reject_damage():
    message = encode_wire_batches([(1, ALL_EVENT_SHAPES[:4])], encode_event)
    with pytest.raises(ValueError):
        decode_wire_batches(message[: len(message) - 3])
    corrupt = bytearray(message)
    corrupt[len(message) // 2] ^= 0xFF
    with pytest.raises(ValueError):
        decode_wire_batches(bytes(corrupt))
