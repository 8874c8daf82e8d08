"""Append-only event journal: the durable write-ahead log of the daemon.

A long-running tuner beside a live Resource Manager must survive its own
restarts with its learned state intact (the autonomic-component
requirement H2O argues for).  :class:`EventJournal` is the first half of
that story: every telemetry event, retune decision, applied
configuration, and rollback is appended — *before* it mutates in-memory
state — as one CRC-framed binary record to a segment file under
``<state-dir>/journal/``.  Segments rotate after a configurable record
count so recovery never has to scan one unbounded file and old segments
can be archived or deleted once a snapshot covers them
(:meth:`EventJournal.compact`).

There is one record format, on disk and in TCP ingest frames: the
struct-packed frames of :mod:`repro.service.codec` (``u32 crc32 | u32
len | payload``; ``repro dump-journal`` renders them as JSON lines).
A record read back (:class:`JournalRecord`) carries what its frame
decoded to — the telemetry event of a typed frame, the dict of a
passthrough frame — and derives the other view on demand: ``data`` of
an event is :func:`encode_event` of it, ``event`` of a dict is
:func:`decode_event` of it.
On read, a damaged *final* frame of the *final* segment is treated as
a torn write — the record the process was appending when it died — and
silently dropped; corruption anywhere else raises
:class:`JournalError`, because data already acknowledged must never
silently disappear.

The write side offers two durability/throughput trade-offs:

* :meth:`EventJournal.append` — one record, one ``write()`` + flush
  (+ ``fsync`` when enabled): the strongest ordering, the slowest path.
* :meth:`EventJournal.append_many` — **group commit**: a whole batch is
  encoded in one pass and lands in one buffered ``write()``, one flush,
  and at most one ``fsync`` per segment touched.  A crash mid-batch
  leaves a clean prefix plus at most one torn frame, which the
  tail repair drops — exactly the per-record crash contract, amortized.

A failed write is fail-stop: the append that hit it raises, and every
later append/flush/close raises :class:`JournalError`, so nothing is
acknowledged behind the hole (seq numbers and string-table defines are
assigned at encode time, before the write).

Every record carries a monotonically increasing sequence number, which
is what snapshots reference: resume loads the newest snapshot, refolds
each shard window from its journal's **low-water mark**
(:meth:`EventJournal.low_water`) up to the snapshot's seq, and replays
only the tail with ``seq`` past it (see :mod:`repro.service.snapshot`).
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib
from operator import attrgetter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.service.codec import (
    BINARY_SUFFIX,
    HEADER_FRAME,
    BinaryEncoder,
    decode_payload,
    newest_event_time,
    split_frames,
    split_window_state,
)
from repro.service.events import (
    DecisionMade,
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    NodeLost,
    NodeRecovered,
    ServiceEvent,
    ShardFailed,
    ShardPartitioned,
    ShardReconnected,
    ShardRecovered,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.workload.trace import (
    job_record_from_dict,
    job_record_to_dict,
    task_record_from_dict,
    task_record_to_dict,
)

#: Journal file name pattern: segment-<first seq in file, 10 digits>.binl
_SEGMENT_GLOB = "segment-*"

#: Segment suffix of the JSON text codec earlier builds wrote.  Nothing
#: reads it any more; :func:`segment_paths` refuses a directory that
#: still holds one instead of globbing past acknowledged records.
_JSON_SUFFIX = ".jsonl"

_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        JobSubmitted,
        TaskCompleted,
        JobCompleted,
        NodeLost,
        NodeRecovered,
        TenantJoined,
        TenantLeft,
        Heartbeat,
        DecisionMade,
        ShardFailed,
        ShardRecovered,
        ShardPartitioned,
        ShardReconnected,
    )
}


_event_time = attrgetter("time")

#: ``EventJournal._heartbeat`` before the one-time tail scan of a journal
#: that was opened non-empty (or truncated below its cached boundary).
_UNSCANNED = object()


class JournalError(RuntimeError):
    """Raised when a journal segment is corrupt beyond a torn tail."""


@dataclass(slots=True)
class JournalRecord:
    """One decoded journal entry.

    Attributes:
        seq: Monotonic sequence number (1-based, dense).
        kind: ``"event"``, ``"decision"``, ``"config"``, ``"metrics"``,
            ``"rollback"`` or ``"window"`` (a reshard's moved window).
        body: What the frame decoded to: the :class:`ServiceEvent` of a
            typed frame, the JSON dict of a passthrough frame, the
            window-state ``bytes`` of a window record.
    """

    seq: int
    kind: str
    body: ServiceEvent | dict

    @property
    def data(self) -> dict:
        """The record payload as a dict (shape depends on ``kind``).

        A typed frame's dict is :func:`encode_event` of its event.
        """
        body = self.body
        return encode_event(body) if isinstance(body, ServiceEvent) else body

    @property
    def event_type(self) -> type | None:
        """Event class of an ``"event"`` record, without building it.

        ``None`` for every other kind and for a passthrough dict whose
        ``type`` this build does not know.
        """
        body = self.body
        if isinstance(body, ServiceEvent):
            return type(body)
        return _EVENT_TYPES.get(body.get("type")) if self.kind == "event" else None

    @property
    def event(self) -> ServiceEvent:
        """The telemetry event of an ``"event"`` record.

        A passthrough frame's dict is decoded on demand; an unknown
        event type raises :class:`JournalError` here, not on listing.
        """
        body = self.body
        return body if isinstance(body, ServiceEvent) else decode_event(body)


def encode_event(event: ServiceEvent) -> dict:
    """JSON-ready dict for any telemetry event (inverse of decode)."""
    cls = type(event).__name__
    if cls not in _EVENT_TYPES:
        raise TypeError(f"cannot journal unknown event type {cls}")
    if isinstance(event, TaskCompleted):
        return {"type": cls, "time": event.time, "record": task_record_to_dict(event.record)}
    if isinstance(event, JobCompleted):
        return {"type": cls, "time": event.time, "record": job_record_to_dict(event.record)}
    if isinstance(event, JobSubmitted):
        return {
            "type": cls,
            "time": event.time,
            "tenant": event.tenant,
            "job_id": event.job_id,
            "deadline": event.deadline,
        }
    if isinstance(event, (NodeLost, NodeRecovered)):
        return {
            "type": cls,
            "time": event.time,
            "pool": event.pool,
            "containers": event.containers,
        }
    if isinstance(event, (TenantJoined, TenantLeft)):
        return {"type": cls, "time": event.time, "tenant": event.tenant}
    if isinstance(event, DecisionMade):
        return {
            "type": cls,
            "time": event.time,
            "verdict": event.verdict,
            "index": event.index,
            "retuned": event.retuned,
            "reason": event.reason,
            "record": event.record,
        }
    if isinstance(event, ShardFailed):
        return {
            "type": cls,
            "time": event.time,
            "shard": event.shard,
            "reason": event.reason,
        }
    if isinstance(event, ShardRecovered):
        return {
            "type": cls,
            "time": event.time,
            "shard": event.shard,
            "replayed": event.replayed,
            "dropped": event.dropped,
            "latency": event.latency,
        }
    if isinstance(event, ShardPartitioned):
        return {
            "type": cls,
            "time": event.time,
            "shard": event.shard,
            "reason": event.reason,
        }
    if isinstance(event, ShardReconnected):
        return {
            "type": cls,
            "time": event.time,
            "shard": event.shard,
            "outage": event.outage,
        }
    return {"type": cls, "time": event.time}  # Heartbeat


def decode_event(data: Mapping) -> ServiceEvent:
    """Rebuild a telemetry event from :func:`encode_event` output."""
    row = dict(data)
    cls = _EVENT_TYPES.get(row.pop("type", None))
    if cls is None:
        raise JournalError(f"unknown event type in journal: {data!r}")
    if cls is TaskCompleted:
        return TaskCompleted(row["time"], record=task_record_from_dict(row["record"]))
    if cls is JobCompleted:
        return JobCompleted(row["time"], record=job_record_from_dict(row["record"]))
    return cls(**row)


def frame_line(body: str) -> str:
    """CRC-frame one canonical JSON body as a journal/snapshot line."""
    return f"{zlib.crc32(body.encode('utf-8')):08x} {body}"


def frame_bytes(body: str) -> bytes:
    """CRC-frame one canonical body straight to bytes (one encode pass).

    Same on-disk layout as :func:`frame_line` + newline; encoding to
    UTF-8 exactly once (the CRC is computed over the same bytes the
    file receives) instead of once for the CRC and again in a
    text-mode write.
    """
    raw = body.encode("utf-8")
    return b"%08x " % zlib.crc32(raw) + raw + b"\n"


def unframe_bytes(line: bytes) -> bytes:
    """Validate and strip one :func:`frame_bytes` frame (newline optional).

    The bytes twin of :func:`unframe_line`: the CRC is checked over the
    bytes as read, with no decode/re-encode round trip.  Raises
    ``ValueError`` on a malformed frame or a CRC mismatch.
    """
    crc_hex, sep, body = line.rstrip(b"\n").partition(b" ")
    if not sep or len(crc_hex) != 8:
        raise ValueError("malformed frame")
    if int(crc_hex, 16) != zlib.crc32(body):
        raise ValueError("crc mismatch")
    return body


def unframe_line(line: str) -> str:
    """Validate and strip the CRC frame; raises ``ValueError`` if bad."""
    crc_hex, sep, body = line.partition(" ")
    if not sep or len(crc_hex) != 8:
        raise ValueError("malformed frame")
    if int(crc_hex, 16) != zlib.crc32(body.encode("utf-8")):
        raise ValueError("crc mismatch")
    return body


def canonical_json(payload: dict) -> str:
    """Canonical (sorted-key, compact) JSON used under the CRC frame."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _first_seq_of(path: Path) -> int:
    return int(path.stem.split("-")[1])


def segment_paths(root: Path) -> list[Path]:
    """Segment files under ``root`` in sequence order.

    The one segment-discovery primitive, shared by :class:`EventJournal`
    and the read-only tooling (``repro dump-journal``, ``repro
    status``).  Raises :class:`JournalError` when the directory still
    holds a JSON-codec segment of an earlier build: this build cannot
    read it, and skipping it would make acknowledged records disappear.
    """
    paths = []
    for path in Path(root).glob(_SEGMENT_GLOB):
        if path.suffix == BINARY_SUFFIX:
            paths.append(path)
        elif path.suffix == _JSON_SUFFIX:
            raise JournalError(
                f"{path} is a JSON journal segment, which this build cannot "
                "read; see 'Upgrading' under 'Journal format' in "
                "docs/OPERATIONS.md"
            )
    return sorted(paths, key=_first_seq_of)


def read_segment(path: Path, *, final: bool) -> Iterator[JournalRecord]:
    """Yield the records of one segment file.

    The module-level read primitive shared by :class:`EventJournal` and
    read-only tooling (``repro dump-journal``, ``repro status``): it
    never mutates the segment.  A torn tail is tolerated (skipped) only
    when ``final`` is true; any other damage raises
    :class:`JournalError`.
    """
    payloads, _, error = split_frames(path.read_bytes())
    if error is not None and not (final and error == "torn"):
        raise JournalError(f"corrupt journal segment {path.name}: {error}")
    table: list[str] = []
    for i, payload in enumerate(payloads):
        try:
            decoded = decode_payload(payload, table)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise JournalError(
                f"corrupt journal record in {path.name} frame {i + 1}: {exc}"
            ) from exc
        if decoded is not None:
            yield JournalRecord(*decoded)


def heartbeat_at_or_before(
    journal: "EventJournal", time: float
) -> tuple[int, float] | None:
    """Seq and time of the newest journaled heartbeat with ``time <= t``.

    The sharded rewind primitive: heartbeats are broadcast to every
    journal at every chunk boundary, so rewinding all journals to the
    newest *common* boundary means finding, per journal, its newest
    heartbeat not past that boundary's time.  Scans segments
    newest-first and stops at the first segment containing a qualifying
    heartbeat (heartbeat times are non-decreasing in seq), so the cost
    is bounded by the tail — and zero when the journal's own newest
    heartbeat already qualifies.
    """
    newest = journal.last_heartbeat()
    if newest is None or newest[1] <= time:
        return newest
    journal.close()
    segments = journal.segments()
    for i, path in enumerate(reversed(segments)):
        found = None
        for record in read_segment(path, final=(i == 0)):
            if record.event_type is Heartbeat:
                when = float(record.event.time)
                if when <= time:
                    found = (record.seq, when)
        if found is not None:
            return found
    return None


class EventJournal:
    """Append-only, CRC-checked, segment-rotated binary journal.

    Args:
        root: Directory holding the segment files (created if missing).
        segment_records: Records per segment before rotating to a new
            file.
        fsync: Force every flushed batch to stable storage (crash-safe
            against power loss, much slower).  Off by default: the
            write-ahead contract against *process* death only needs the
            OS page cache, and a torn tail is recovered either way.

    Opening an existing directory scans the last segment once to find
    the next sequence number *and* caches its record count, so later
    reopen-after-read cycles (the daemon reads its own journal between
    appends) are O(1), not O(segment).

    Appends must be externally serialized (the daemon holds its own
    lock).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        segment_records: int = 4096,
        fsync: bool = False,
    ):
        if segment_records < 1:
            raise ValueError(f"segment_records must be >= 1, got {segment_records}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_records = int(segment_records)
        self.fsync = fsync
        self._bin = BinaryEncoder()
        #: Running record count of the tail segment at encode time —
        #: rotation is decided by the encoder (the string table must
        #: reset exactly where a new segment starts), not by the writer.
        self._enc_tail = self.segment_records
        self._fh = None
        #: Path and record count of the newest segment — the reopen
        #: cache that makes read-then-append O(1) instead of a segment scan.
        self._tail_path: Path | None = None
        self._tail_records = 0
        self._next_seq = 1
        self._repair_tail()
        segments = self.segments()
        for i, path in enumerate(reversed(segments)):
            count, last = self._scan_segment(path)
            if i == 0:
                self._tail_path = path
                self._tail_records = count
            if last:
                self._next_seq = last + 1
                break
        self._sync_encoder()
        #: Newest journaled heartbeat ``(seq, time)`` — every append
        #: path keeps it current, so the chunk boundary compaction and
        #: failover ask about is a fact the writer already holds.  A
        #: journal that is empty at open provably holds none (``None``);
        #: a non-empty one is scanned once, on first demand
        #: (:meth:`last_heartbeat`).
        self._heartbeat = None if self._next_seq == 1 else _UNSCANNED
        #: Newest event time per segment (keyed by first seq), never
        #: below the true one, kept current by every append path for
        #: the segments this process opened.  A segment missing here (it was on disk
        #: at open, or was rewritten by a truncation) is scanned once,
        #: on first demand (:meth:`low_water`).
        self._newest: dict[int, float] = {}
        #: The write error that stopped this journal (fail-stop), if any.
        self._failed: BaseException | None = None
        self._metrics = None
        self._m_append = None
        self._m_fsync = None
        self._m_batch = None
        self._m_records = None
        self._m_rotations = None
        self._m_compacted = None

    @property
    def metrics(self):
        """The attached metrics registry, or ``None`` when unobserved."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        """Attach a registry and cache the journal's instrument handles.

        The journal stays import-free of :mod:`repro.obs`: any object
        with ``counter``/``histogram`` factories works.  Set before
        traffic starts — the write path reads the cached handles only.
        """
        self._metrics = registry
        if registry is None:
            self._m_append = self._m_fsync = self._m_batch = None
            self._m_records = self._m_rotations = self._m_compacted = None
            return
        self._m_append = registry.histogram(
            "tempo_journal_append_seconds",
            "Wall time of one group-commit write (write+flush+fsync).",
        )
        self._m_fsync = registry.histogram(
            "tempo_journal_fsync_seconds", "Wall time of each fsync call."
        )
        self._m_batch = registry.histogram(
            "tempo_journal_batch_records",
            "Records committed per group-commit batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
        )
        self._m_records = registry.counter(
            "tempo_journal_records_total", "Records durably appended."
        )
        self._m_rotations = registry.counter(
            "tempo_journal_rotations_total", "Segment files opened by rotation."
        )
        self._m_compacted = registry.counter(
            "tempo_journal_compacted_records_total",
            "Records reclaimed by journal compaction.",
        )

    def _repair_tail(self) -> None:
        """Truncate the tail segment to its clean frame prefix on open.

        A crash mid-batch leaves sequentially-written frames followed
        by at most one torn region (the single buffered ``write()``
        lands sequentially); the clean prefix is kept byte-exact and
        the torn bytes are cut, so later appends never land behind a
        half-written record.  Mid-file damage (valid frames *after* the
        corruption) is left in place for the read path to raise on —
        acknowledged records never silently disappear here.
        """
        segments = self.segments()
        if not segments:
            return
        path = segments[-1]
        data = path.read_bytes()
        if not data:
            path.unlink()
            return
        payloads, clean_end, error = split_frames(data)
        if error != "torn":
            return  # clean, or mid-file damage that must raise on read
        if clean_end == 0 or not payloads:
            path.unlink()
            return
        with path.open("r+b") as fh:
            fh.truncate(clean_end)

    @staticmethod
    def _scan_segment(path: Path) -> tuple[int, int]:
        """Record count and last seq of one segment (``(0, 0)`` if empty).

        Every frame is CRC-checked but only the last record is decoded:
        opening a journal must not cost a replay of its tail.
        """
        payloads, _, error = split_frames(path.read_bytes())
        try:
            if error is not None:
                raise ValueError(error)
            return BinaryEncoder().load_table(payloads)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise JournalError(f"corrupt journal segment {path.name}: {exc}") from exc

    def _sync_encoder(self) -> None:
        """Restore encoder state (string table, tail count) after open.

        Called whenever the tail segment may have changed under the
        encoder (open, truncation): the table is rebuilt from the tail's
        define frames so appends continue it.  With no readable tail the
        encoder is primed to rotate to a fresh segment on the next
        append.
        """
        self._bin.reset()
        self._enc_tail = self.segment_records
        path = self._tail_path
        if path is None:
            return
        payloads, _, error = split_frames(path.read_bytes())
        if error is not None:
            return  # unreadable tail: rotate rather than extend it
        self._enc_tail, _ = self._bin.load_table(payloads)

    # -- write side ---------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will get."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended record (0 if none)."""
        return self._next_seq - 1

    def append(self, kind: str, data: dict) -> int:
        """Append one record; returns its sequence number."""
        return self.append_many([(kind, data)])[0]

    def append_many(self, records: Iterable[tuple[str, dict]]) -> list[int]:
        """Group-commit a batch of ``(kind, data)`` records.

        The whole batch is encoded in one pass and written with one
        buffered ``write()``, one flush, and at most one ``fsync`` per
        segment file it lands in — the per-record syscall tax is paid
        once per batch.  Returns the assigned sequence numbers (dense,
        in order).

        Generic records take the passthrough frame — they are
        decisions, configs, and metrics samples, orders of magnitude
        rarer than the telemetry :meth:`append_events` packs.
        """
        self._check_writable()
        first = seq = self._next_seq
        entries = []
        heartbeat = None
        tail = segment = self._tail_key()
        newest: dict[int, float] = {}
        for kind, data in records:
            # Rotation bookkeeping matches the hot loop: the encoder
            # decides here whether this record starts a fresh segment.
            if self._enc_tail >= self.segment_records:
                self._bin.reset()
                self._enc_tail = 0
                parts, rotate = [HEADER_FRAME], seq
                segment = seq
            else:
                parts, rotate = [], None
            self._enc_tail += 1
            parts.append(self._bin.passthrough(seq, kind, data))
            entries.append((seq, 1, parts, rotate))
            when = None
            if kind == "event":
                when = float(data["time"])
                if data.get("type") == "Heartbeat":
                    heartbeat = (seq, when)
            elif kind == "window":
                when = split_window_state(data)[1]
            if when is not None and when > newest.get(segment, -math.inf):
                newest[segment] = when
            seq += 1
        self._commit(entries)
        self._note_newest(newest, tail)
        if heartbeat is not None:
            self._heartbeat = heartbeat
        return list(range(first, seq))

    def append_events(self, events: Iterable[ServiceEvent]) -> list[int]:
        """Group-commit telemetry events via the struct-packed encoder.

        The batch ingest pipeline's hot path.  Record semantics are
        those of ``append_many(("event", encode_event(e)) for e in
        events)``, but the hot telemetry kinds are packed by
        :meth:`~repro.service.codec.BinaryEncoder.encode_event_batch`
        instead of paying a generic sorted-key ``json.dumps`` per
        record.
        """
        self._check_writable()
        if not isinstance(events, (list, tuple)):
            events = list(events)
        first = self._next_seq
        tail = segment = self._tail_key()
        entries: list = []
        seq, self._enc_tail = self._bin.encode_event_batch(
            encode_event,
            events,
            first,
            self._enc_tail,
            self.segment_records,
            HEADER_FRAME,
            entries,
        )
        self._commit(entries)
        # Each segment the batch landed in gets the newest time of its
        # own slice of the batch (rotation points are the encoder's).
        newest: dict[int, float] = {}
        start = 0
        for rotate in [entry[3] for entry in entries if entry[3] is not None] + [seq]:
            if rotate - first > start:
                newest[segment] = max(map(_event_time, events[start : rotate - first]))
            segment, start = rotate, rotate - first
        self._note_newest(newest, tail)
        # Newest heartbeat of the batch, scanning from its end: replay
        # chunks close with one, so this usually stops at once.
        for offset in range(len(events) - 1, -1, -1):
            if type(events[offset]) is Heartbeat:
                self._heartbeat = (first + offset, float(events[offset].time))
                break
        return list(range(first, seq))

    def _tail_key(self) -> int | None:
        """First seq of the segment the next append extends (``None``:
        the next append opens a fresh segment)."""
        if self._enc_tail >= self.segment_records or self._tail_path is None:
            return None
        return _first_seq_of(self._tail_path)

    def _note_newest(self, newest: dict[int, float], tail: int | None) -> None:
        """Fold a committed batch's newest event time per segment (keyed
        by first seq) into the per-segment values.

        ``tail`` is the segment the batch extended: when this process
        did not open it (no value yet), it is left for the on-demand
        scan, which reads the records appended here too.
        """
        known = self._newest
        for key, when in newest.items():
            if key == tail and key not in known:
                continue
            if when > known.get(key, -math.inf):
                known[key] = when

    def _check_writable(self) -> None:
        # Fail-stop: the error is never cleared.  The failed write left
        # a hole (and possibly an unwritten string-table define the
        # encoder counts as written), so no later record may land.
        if self._failed is not None:
            raise JournalError("journal writer failed") from self._failed

    def _commit(self, entries: list[tuple]) -> None:
        """Write encoded entries; a write error stops the journal."""
        if not entries:
            return
        try:
            self._write_entries(entries)
        except BaseException as exc:
            self._failed = exc
            raise
        self._next_seq = entries[-1][0] + 1

    def flush(self) -> None:
        """Force buffered appends down to the segment file."""
        self._check_writable()
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Close the open segment file handle.

        Appends may follow: the cached tail record count makes the
        reopen O(1) (no segment re-scan).  After a write failure the
        file handle is still closed, then the failure is raised as
        :class:`JournalError`.
        """
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._check_writable()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write_entries(self, entries: list[tuple]) -> None:
        """Write encoded run entries with group commit.

        Each entry is ``(last_seq, nrecords, parts, rotate_seq)`` — see
        :meth:`repro.service.codec.BinaryEncoder.encode_event_batch`.
        Rotation points were already decided at encode time (a rotating
        run's parts begin with the segment header frame); this writer
        just honors them: one ``write()`` + flush (+ at most one
        ``fsync``) per contiguous stretch landing in the same segment.
        """
        observed = self._m_append is not None
        started = time.perf_counter() if observed else 0.0
        total = 0
        i = 0
        n = len(entries)
        while i < n:
            _last, count, parts, rotate = entries[i]
            if rotate is not None:
                if self._fh is not None:
                    self._fh.close()
                    self._fh = None
                path = self.root / f"segment-{rotate:010d}{BINARY_SUFFIX}"
                self._tail_path = path
                self._tail_records = 0
                if self._m_rotations is not None:
                    self._m_rotations.inc()
            if self._fh is None:
                self._fh = self._tail_path.open("ab")
            j = i + 1
            if j < n and entries[j][3] is None:
                parts = list(parts)
                while j < n and entries[j][3] is None:
                    parts.extend(entries[j][2])
                    count += entries[j][1]
                    j += 1
            fh = self._fh
            fh.write(b"".join(parts))
            fh.flush()
            if self.fsync:
                if observed:
                    fsync_started = time.perf_counter()
                    os.fsync(fh.fileno())
                    self._m_fsync.observe(time.perf_counter() - fsync_started)
                else:
                    os.fsync(fh.fileno())
            self._tail_records += count
            total += count
            i = j
        if observed:
            self._m_append.observe(time.perf_counter() - started)
            self._m_batch.observe(total)
            self._m_records.inc(total)

    @staticmethod
    def _count_records(path: Path) -> int:
        """Record count of one segment (define and header frames excluded)."""
        payloads, _, _ = split_frames(path.read_bytes())
        return sum(1 for p in payloads if p[0] not in (0x01, 0x7F))

    # -- read side ----------------------------------------------------------

    def segments(self) -> list[Path]:
        """Segment files in sequence order (see :func:`segment_paths`)."""
        return segment_paths(self.root)

    _first_seq_of = staticmethod(_first_seq_of)

    def iter_records(self, after: int = 0) -> Iterator[JournalRecord]:
        """Yield records with ``seq > after`` across all segments, in order.

        Segments whose entire range falls at or below ``after`` are not
        parsed at all, so snapshot-tail recovery cost is proportional to
        the tail, not the journal's lifetime.
        """
        self.close()  # flush ordering: never read a buffered write stale
        segments = self.segments()
        for i, path in enumerate(segments):
            nxt = self._first_seq_of(segments[i + 1]) if i + 1 < len(segments) else None
            if nxt is not None and nxt - 1 <= after:
                continue
            for record in read_segment(path, final=(i == len(segments) - 1)):
                if record.seq <= after:
                    continue
                yield record

    def last_heartbeat(self) -> tuple[int, float] | None:
        """Seq and time of the newest journaled heartbeat (chunk boundary).

        The replay driver ends every delivered chunk with a heartbeat,
        so this is the last point at which the journal is known to hold
        a chunk's telemetry completely: ``repro resume`` truncates here
        before re-driving the scenario, and compaction never crosses
        it.  O(1) on a journal this process has been appending to (the
        append paths keep the answer current).  A journal opened
        non-empty, or truncated below the cached boundary, is scanned
        once — segments newest-first, stopping at the first one that
        holds a heartbeat, so the cost is bounded by the tail — and the
        answer is cached again.
        """
        if self._heartbeat is _UNSCANNED:
            self.flush()  # never scan past a buffered write
            found = None
            for i, path in enumerate(reversed(self.segments())):
                for record in read_segment(path, final=(i == 0)):
                    if record.event_type is Heartbeat:
                        found = (record.seq, float(record.event.time))
                if found is not None:
                    break
            self._heartbeat = found
        return self._heartbeat

    def low_water(self, earliest: float) -> int:
        """First seq of the first segment holding an event at or after
        ``earliest`` — the journal's low-water mark for a window whose
        earliest retained entry is at ``earliest``.

        Every record before the mark is older than every retained
        entry, so folding this journal from the mark reproduces the
        window's retained entries (see
        :meth:`~repro.service.sharding.IngestShard.rebuild`).  Returns
        :attr:`next_seq` when no segment qualifies.  Answered from the
        per-segment bounds the append paths keep; a segment opened from
        disk is scanned once (frame times only, nothing decoded).
        """
        known = self._newest
        for path in self.segments():
            first = _first_seq_of(path)
            newest = known.get(first)
            if newest is None:
                self.flush()  # never scan past a buffered write
                payloads, _, _ = split_frames(path.read_bytes())
                newest = known[first] = newest_event_time(payloads)
            if newest >= earliest:
                return first
        return self._next_seq

    # -- compaction ---------------------------------------------------------

    def compact(self, covered: int, *, keep_segments: int = 1) -> int:
        """Delete whole segments whose every record has ``seq <= covered``.

        The mechanical half of journal compaction: the caller (see
        :meth:`repro.service.snapshot.ServiceState.compact`) decides
        what ``covered`` is safe — typically the sequence number of the
        oldest retained snapshot, so every possible resume path still
        has its tail.  Only *whole* segments are deleted (records are
        never rewritten), the newest segment is never touched, and at
        least ``keep_segments`` segments survive regardless — a safety
        margin against an operator compacting against a snapshot that
        is about to be pruned.  Returns the number of segments deleted.
        """
        if keep_segments < 1:
            raise ValueError(f"keep_segments must be >= 1, got {keep_segments}")
        self.flush()
        segments = self.segments()
        firsts = [self._first_seq_of(path) for path in segments]
        removable = 0
        for nxt in firsts[1:]:  # never the tail segment
            if nxt - 1 > covered:
                break
            removable += 1
        removable = min(removable, max(0, len(segments) - keep_segments))
        for path, first in zip(segments[:removable], firsts):
            path.unlink()
            self._newest.pop(first, None)
        if removable and self._m_compacted is not None:
            # Seqs are dense, so a removed prefix's record count is the
            # span of its first seqs — no segment is read to learn it.
            self._m_compacted.inc(firsts[removable] - firsts[0])
        return removable

    # -- truncation ---------------------------------------------------------

    def truncate_after(self, seq: int) -> int:
        """Drop every record with sequence number beyond ``seq``.

        Used by ``repro resume`` to cut the journal back to the last
        chunk boundary before re-driving a scenario, so the re-simulated
        partial chunk does not duplicate its already-journaled prefix.
        Returns the number of records removed.
        """
        self.close()
        removed = 0
        for path in reversed(self.segments()):
            if self._first_seq_of(path) > seq:
                removed += self._count_records(path)
                path.unlink()
                continue
            kept, trimmed = [], 0
            for record in read_segment(path, final=True):
                if record.seq <= seq:
                    kept.append(record)
                else:
                    trimmed += 1
            removed += trimmed
            if trimmed:
                if not kept:
                    path.unlink()
                else:
                    # Rewrite as header + passthrough frames: a valid
                    # segment with an empty string table, so later
                    # appends (which re-define strings on first use)
                    # continue it safely.
                    enc = BinaryEncoder()
                    blob = HEADER_FRAME + b"".join(
                        enc.passthrough(r.seq, r.kind, r.data) for r in kept
                    )
                    tmp = path.with_suffix(".tmp")
                    tmp.write_bytes(blob)
                    os.replace(tmp, path)
            break
        self._next_seq = min(self._next_seq, seq + 1)
        # A cut segment's bound may now overshoot: still a valid bound.
        self._newest = {k: v for k, v in self._newest.items() if k <= seq}
        if isinstance(self._heartbeat, tuple) and self._heartbeat[0] > seq:
            self._heartbeat = _UNSCANNED  # cut away: re-scan on demand
        segments = self.segments()
        self._tail_path = segments[-1] if segments else None
        self._tail_records = (
            self._count_records(self._tail_path) if self._tail_path else 0
        )
        self._sync_encoder()
        return removed
