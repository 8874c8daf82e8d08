"""The record codec: struct-packed frames behind CRC framing.

The one representation of a journaled record, on disk
(:mod:`repro.service.journal` segments) and in TCP ingest frames
(:mod:`repro.service.transport`) — and of a rolling window's retained
entries, in shard drain replies, ``restore`` calls and the one journal
record a reshard writes (the ``0x10``-``0x12`` *window state* frames
below).  Rendering
sorted-key JSON text per record is what bounds a durable ingest path,
so a record is a length-prefixed, crc32-checked binary frame, with
per-record-type
precompiled :mod:`struct` pack formats for the hot telemetry kinds
(``TaskCompleted``, ``JobCompleted``, ``JobSubmitted``, ``Heartbeat``)
and an interned string table per segment for the repeated strings
(tenant, pool, stage, tags, and ``job_id`` — every task record of a job
repeats its job id, so the id is defined once and referenced as a fixed
u32 afterwards).  Everything the typed formats cannot express
faithfully falls back to a JSON *passthrough* frame carrying the
canonical JSON body.  A typed frame decodes straight to the event that
was appended (its constructors run again on the way in); a passthrough
frame decodes to the dict that was appended, and the journal builds the
event from it only when one is asked for.  Either way the round trip
is exact — the contract the test suite asserts directly and by
hypothesis fuzz.

Frame layout (all integers little-endian)::

    u32 crc32(payload) | u32 len(payload) | payload

and the payload's first byte is the record type:

=========  ====================================================
``0x00``   JSON passthrough: canonical JSON body bytes follow.
``0x01``   String-table define: UTF-8 bytes follow; the string's
           id is its define order within the segment (dense, 0-based).
``0x02``   ``TaskCompleted`` (struct-packed, interned strings).
``0x03``   ``JobCompleted``.
``0x04``   ``JobSubmitted``.
``0x05``   ``Heartbeat``.
``0x10``   Window-state header: layout version, window length,
           clock, ingest count, number of tenant frames that follow.
``0x11``   One tenant's retained tasks, jobs and submits as typed
           columns (one f64 block, one i64 block, one u32 block of
           string/shape ids, flag bytes, a length-prefixed string
           table).
``0x12``   The same tenant as canonical-JSON rows: the passthrough
           for values the typed columns cannot hold exactly.
``0x13``   Journal record of kind ``"window"``: seq, then one whole
           window state (its own frames, nested).  A reshard writes
           one at the head of each new shard's journal.
``0x7f``   Segment header: magic + format version + codec id.  The
           first frame of every segment.
=========  ====================================================

A **window state** is one ``0x10`` frame followed by exactly the number
of ``0x11``/``0x12`` frames it announces, so a state is self-delimiting
and a missing or damaged tenant frame makes the whole state unreadable.

Corruption detection: every frame is covered by its own crc32, a torn
final write is recognized (nothing parseable follows the failure point)
and dropped by tail repair, and damage *behind* valid frames raises
instead of silently skipping.

Decode is zero-copy up to the final string materialization: a segment
is read as one buffer and every frame payload is a :class:`memoryview`
sliced from it; ``struct.unpack_from`` reads numbers in place and only
the strings that survive into the decoded record are copied out.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import astuple
from itertools import accumulate, chain, islice, repeat
from struct import Struct, pack, unpack_from

from repro.service.events import (
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    ServiceEvent,
    TaskCompleted,
)
from repro.workload.trace import JobRecord, TaskRecord

__all__ = [
    "BINARY_SUFFIX",
    "BinaryEncoder",
    "HEADER_FRAME",
    "decode_payload",
    "decode_wire_batches",
    "decode_window_tenant",
    "encode_wire_batches",
    "encode_window_header",
    "encode_window_tenant",
    "frame_payload",
    "newest_event_time",
    "peek_window_tenant",
    "split_frames",
    "split_window_state",
]

#: Journal segment file extension.
BINARY_SUFFIX = ".binl"

#: Wire/disk frame header: crc32(payload), len(payload).
_HEAD = Struct("<II")
#: TaskCompleted body after the rtype byte is folded in: rtype, seq,
#: time, submit, start, finish, containers, attempt, flags,
#: tenant id, pool id, stage id, job id, len(task_id).
_TASK = Struct("<BQddddqqBIIIIH")
#: JobCompleted fixed prefix: rtype, seq, time, submit, finish,
#: num_tasks, flags (bit0: deadline present), tenant id, job id.
_JOBC = Struct("<BQdddqBII")
#: JobSubmitted: rtype, seq, time, flags (bit0: deadline present),
#: tenant id, job id.
_JOBS = Struct("<BQdBII")
#: Heartbeat: rtype, seq, time.
_HB = Struct("<BQd")
#: Prefix of a ``"window"`` journal record: rtype, seq.
_WIN_RECORD = Struct("<BQ")
#: Event time of every typed event frame sits right after rtype and seq.
_EVENT_TIME = Struct("<9xd")
_DEADLINE = Struct("<d")
_U16 = Struct("<H")
_U32 = Struct("<I")
#: One ``stage_deps`` entry's head: stage id, number of dep ids that follow.
_STAGE = Struct("<IH")

_RT_PASSTHROUGH = 0x00
_RT_DEFINE = 0x01
_RT_TASK = 0x02
_RT_JOBC = 0x03
_RT_JOBS = 0x04
_RT_HB = 0x05
_RT_WIN_RECORD = 0x13
_RT_HEADER = 0x7F

#: Segment header payload: rtype, magic, format version, codec id
#: (``0x01`` = this codec).
_HEADER_PAYLOAD = b"\x7fTEMPOJRNL\x01\x01"

_crc32 = zlib.crc32
_head_pack = _HEAD.pack


def frame_payload(payload: bytes) -> bytes:
    """CRC-frame one binary payload (the binary ``frame_line``)."""
    return _head_pack(_crc32(payload), len(payload)) + payload


#: The ready-framed segment header, written first into every segment.
HEADER_FRAME = frame_payload(_HEADER_PAYLOAD)


def _canonical(payload: dict) -> str:
    """Canonical (sorted-key, compact) JSON of a passthrough body."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- framing / segment scan ----------------------------------------------------


def split_frames(
    data: bytes | memoryview,
) -> tuple[list[memoryview], int, str | None]:
    """Parse a segment buffer into frame payloads.

    Returns ``(payloads, clean_end, error)``: the payloads of every
    valid frame in the clean prefix, the byte offset where that prefix
    ends, and ``None`` when the buffer parsed completely, ``"torn"``
    when trailing bytes look like a torn write (nothing parseable
    follows the failure point — the crash contract), or a description
    when valid frames follow the damage (mid-file corruption, which
    must raise rather than silently drop acknowledged records).
    """
    mv = memoryview(data)
    total = len(mv)
    payloads: list[memoryview] = []
    offset = 0
    while offset < total:
        if total - offset < _HEAD.size:
            return payloads, offset, "torn"
        crc, length = _HEAD.unpack_from(mv, offset)
        end = offset + _HEAD.size + length
        if end > total:
            return payloads, offset, "torn"
        payload = mv[offset + _HEAD.size : end]
        if _crc32(payload) != crc:
            # Distinguish a torn tail from mid-file damage: walk the
            # remaining bytes; any later frame with a valid CRC proves
            # records were acknowledged *after* the damage.
            probe = end
            while probe < total and total - probe >= _HEAD.size:
                pcrc, plen = _HEAD.unpack_from(mv, probe)
                pend = probe + _HEAD.size + plen
                if pend > total:
                    break
                if _crc32(mv[probe + _HEAD.size : pend]) == pcrc:
                    return (
                        payloads,
                        offset,
                        f"crc mismatch at byte {offset} with valid frames after it",
                    )
                probe = pend
            return payloads, offset, "torn"
        payloads.append(payload)
        offset = end
    return payloads, offset, None


# -- decode --------------------------------------------------------------------


def decode_payload(
    payload: memoryview, table: list[str]
) -> tuple[int, str, ServiceEvent | dict] | None:
    """Decode one frame payload into ``(seq, kind, body)``.

    A typed frame's body is its :class:`ServiceEvent`, built
    positionally from the unpacked tuple and the string table (the
    constructors' validation runs); a passthrough frame's body is its
    JSON dict.  ``table`` is the segment's string table, mutated in
    place when the payload is a define frame.  Returns ``None`` for
    frames that carry no record (defines and the segment header).
    Raises ``ValueError`` on unknown record types or references past the
    table — corruption that slipped past the CRC must never decode
    silently.
    """
    rtype = payload[0]
    if rtype == _RT_TASK:
        (
            _,
            seq,
            time,
            submit,
            start,
            finish,
            containers,
            attempt,
            flags,
            tid,
            pid,
            sid,
            jid,
            lk,
        ) = _TASK.unpack_from(payload)
        o = _TASK.size
        record = TaskRecord(
            table[jid],
            str(payload[o : o + lk], "utf-8"),
            table[tid],
            table[pid],
            table[sid],
            submit,
            start,
            finish,
            containers,
            flags & 2 != 0,
            flags & 1 != 0,
            attempt,
        )
        return seq, "event", TaskCompleted(time, record)
    if rtype == _RT_JOBC:
        _, seq, time, submit, finish, num_tasks, flags, tid, jid = _JOBC.unpack_from(
            payload
        )
        o = _JOBC.size
        deadline = None
        if flags & 1:
            (deadline,) = _DEADLINE.unpack_from(payload, o)
            o += _DEADLINE.size
        # The suffix is u16 counts between runs of u32 table ids.
        (ntags,) = _U16.unpack_from(payload, o)
        tags = unpack_from(f"<{ntags}I", payload, o + 2)
        o += 2 + 4 * ntags
        (ndeps,) = _U16.unpack_from(payload, o)
        o += 2
        stage_deps = []
        for _i in range(ndeps):
            sidx, nd = _STAGE.unpack_from(payload, o)
            deps = unpack_from(f"<{nd}I", payload, o + 6)
            o += 6 + 4 * nd
            stage_deps.append((table[sidx], tuple([table[d] for d in deps])))
        record = JobRecord(
            table[jid],
            table[tid],
            submit,
            finish,
            deadline,
            num_tasks,
            tuple([table[t] for t in tags]),
            tuple(stage_deps),
        )
        return seq, "event", JobCompleted(time, record)
    if rtype == _RT_JOBS:
        _, seq, time, flags, tid, jid = _JOBS.unpack_from(payload)
        deadline = None
        if flags & 1:
            (deadline,) = _DEADLINE.unpack_from(payload, _JOBS.size)
        return seq, "event", JobSubmitted(time, table[tid], table[jid], deadline)
    if rtype == _RT_HB:
        _, seq, time = _HB.unpack_from(payload)
        return seq, "event", Heartbeat(time)
    if rtype == _RT_PASSTHROUGH:
        row = json.loads(str(payload[1:], "utf-8"))
        return int(row["seq"]), str(row["kind"]), row["data"]
    if rtype == _RT_WIN_RECORD:
        _, seq = _WIN_RECORD.unpack_from(payload)
        return seq, "window", bytes(payload[_WIN_RECORD.size :])
    if rtype == _RT_DEFINE:
        table.append(str(payload[1:], "utf-8"))
        return None
    if rtype == _RT_HEADER:
        if bytes(payload[:11]) != _HEADER_PAYLOAD[:11]:
            raise ValueError("unrecognized binary segment header")
        return None
    raise ValueError(f"unknown binary record type 0x{rtype:02x}")


def newest_event_time(payloads: list[memoryview]) -> float:
    """Newest event time among a segment's frame payloads (``-inf`` if none).

    What a journal needs to place its low-water mark, read without
    decoding a record: a typed event frame's time is a fixed-offset
    double, a ``"window"`` record counts as its window's clock, and only
    a passthrough frame is parsed — for its kind and ``time``.
    """
    newest = -math.inf
    for payload in payloads:
        rtype = payload[0]
        if _RT_TASK <= rtype <= _RT_HB:
            (when,) = _EVENT_TIME.unpack_from(payload)
        elif rtype == _RT_WIN_RECORD:
            when = split_window_state(payload[_WIN_RECORD.size :])[1]
        elif rtype == _RT_PASSTHROUGH:
            row = json.loads(str(payload[1:], "utf-8"))
            if row["kind"] != "event":
                continue
            when = float(row["data"]["time"])
        else:
            continue
        if when > newest:
            newest = when
    return newest


# -- encode --------------------------------------------------------------------


class BinaryEncoder:
    """Per-segment stateful binary encoder (string table + hot loop).

    One encoder instance belongs to one journal; :meth:`reset` starts a
    fresh string table at every segment rotation (the table is scoped
    to a segment so any segment decodes standalone).  The typed encode
    paths are EAFP: anything the fixed struct formats cannot represent
    (non-numeric where a number is expected, strings over 64KiB,
    surrogates, exotic containers) raises out of the pack call and the
    record falls back to a JSON passthrough frame, which carries the
    record's dict form verbatim.
    """

    __slots__ = ("ids", "suffixes")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        #: ``(tags, stage_deps) -> encoded suffix`` — the tag/dep block
        #: of a JobCompleted record repeats identically across jobs of
        #: the same workload shape, and its encoding is stable within a
        #: segment (it only references interned ids), so it is encoded
        #: once per distinct shape per segment.
        self.suffixes: dict[tuple, bytes] = {}

    def reset(self) -> None:
        """Start a fresh string table (call at segment rotation)."""
        self.ids.clear()
        self.suffixes.clear()

    def load_table(self, payloads: list[memoryview]) -> tuple[int, int]:
        """Rebuild the table from an existing segment's frame payloads.

        Returns ``(record frames seen, seq of the last one)`` — ``(0, 0)``
        when the segment holds none — so a journal re-opening a segment
        learns its encoder state, its record count and its position from
        one scan that decodes a single record.
        """
        self.reset()
        ids = self.ids
        table: list[str] = []
        records, last = 0, None
        for payload in payloads:
            rtype = payload[0]
            if rtype == _RT_DEFINE:
                decode_payload(payload, table)
                ids[table[-1]] = len(ids)
            elif rtype != _RT_HEADER:
                records += 1
                last = payload
        return records, 0 if last is None else decode_payload(last, table)[0]

    def passthrough(self, seq: int, kind: str, data) -> bytes:
        """Encode any record as one CRC-framed payload.

        A ``"window"`` record's data is a window state (``bytes``),
        nested as is; every other record is canonical JSON.
        """
        if kind == "window":
            return frame_payload(_WIN_RECORD.pack(_RT_WIN_RECORD, seq) + data)
        raw = b"\x00" + _canonical({"seq": seq, "kind": kind, "data": data}).encode(
            "utf-8"
        )
        return _head_pack(_crc32(raw), len(raw)) + raw

    def encode_event_batch(
        self,
        encode_event,
        events,
        seq: int,
        tail: int,
        limit: int,
        header: bytes,
        entries: list,
    ) -> tuple[int, int]:
        """Encode a batch of events into write entries (the hot loop).

        Appends ``(last_seq, nrecords, parts, rotate_seq)`` *run*
        entries to ``entries`` — one per contiguous stretch of records
        landing in the same segment, where ``parts`` is the run's frame
        pieces in write order (joined once at write time, so the hot
        loop never materializes per-record blobs) and ``rotate_seq`` is
        the sequence number that opens a new segment (``None`` when the
        run continues the current tail).  The rotation decision is made
        *here*, at encode time, because the string table must reset at
        exactly the byte where a new segment starts.  String-table
        define frames are emitted into ``parts`` the moment a string is
        first interned — a record that later falls back to the JSON
        passthrough frame leaves its defines behind as valid, merely
        unreferenced table entries, keeping the encoder's table and the
        on-disk table identical without any rollback bookkeeping.
        ``encode_event`` is the journal's generic dict encoder, used by
        the passthrough fallback.  Returns the updated ``(seq, tail)``.
        """
        ids = self.ids
        ids_get = ids.get
        suffix_get = self.suffixes.get
        task_pack = _TASK.pack
        jobs_pack = _JOBS.pack
        jobc_pack = _JOBC.pack
        hb_pack = _HB.pack
        deadline_pack = _DEADLINE.pack
        head_pack = _head_pack
        crc = _crc32
        isfinite = math.isfinite
        parts: list[bytes] = []
        parts_append = parts.append
        nrec = 0
        rotate = None

        def intern(text: str) -> int:
            """Intern one string, emitting its define frame (cold path)."""
            raw = b"\x01" + text.encode("utf-8")
            num = ids[text] = len(ids)
            parts_append(head_pack(crc(raw), len(raw)))
            parts_append(raw)
            return num

        for event in events:
            if tail >= limit:
                if nrec:
                    entries.append((seq - 1, nrec, parts, rotate))
                self.reset()
                tail = 1
                parts = [header]
                parts_append = parts.append
                nrec = 0
                rotate = seq
            else:
                tail += 1
            cls = type(event)
            try:
                if cls is TaskCompleted:
                    r = event.record
                    tid = ids_get(r.tenant)
                    if tid is None:
                        tid = intern(r.tenant)
                    pid = ids_get(r.pool)
                    if pid is None:
                        pid = intern(r.pool)
                    sid = ids_get(r.stage)
                    if sid is None:
                        sid = intern(r.stage)
                    jid = ids_get(r.job_id)
                    if jid is None:
                        jid = intern(r.job_id)
                    kb = r.task_id.encode("utf-8")
                    payload = (
                        task_pack(
                            _RT_TASK,
                            seq,
                            event.time,
                            r.submit_time,
                            r.start_time,
                            r.finish_time,
                            r.containers,
                            r.attempt,
                            (r.preempted << 1) | r.failed,
                            tid,
                            pid,
                            sid,
                            jid,
                            len(kb),
                        )
                        + kb
                    )
                elif cls is Heartbeat:
                    payload = hb_pack(_RT_HB, seq, event.time)
                elif cls is JobSubmitted:
                    tid = ids_get(event.tenant)
                    if tid is None:
                        tid = intern(event.tenant)
                    jid = ids_get(event.job_id)
                    if jid is None:
                        jid = intern(event.job_id)
                    deadline = event.deadline
                    if deadline is None:
                        payload = jobs_pack(_RT_JOBS, seq, event.time, 0, tid, jid)
                    elif type(deadline) is float and isfinite(deadline):
                        payload = jobs_pack(
                            _RT_JOBS, seq, event.time, 1, tid, jid
                        ) + deadline_pack(deadline)
                    else:
                        # Non-float deadlines round-trip exactly via
                        # the passthrough frame.
                        payload = None
                elif cls is JobCompleted:
                    r = event.record
                    tid = ids_get(r.tenant)
                    if tid is None:
                        tid = intern(r.tenant)
                    jid = ids_get(r.job_id)
                    if jid is None:
                        jid = intern(r.job_id)
                    deadline = r.deadline
                    if deadline is None:
                        head = jobc_pack(
                            _RT_JOBC,
                            seq,
                            event.time,
                            r.submit_time,
                            r.finish_time,
                            r.num_tasks,
                            0,
                            tid,
                            jid,
                        )
                    elif type(deadline) is float and isfinite(deadline):
                        head = jobc_pack(
                            _RT_JOBC,
                            seq,
                            event.time,
                            r.submit_time,
                            r.finish_time,
                            r.num_tasks,
                            1,
                            tid,
                            jid,
                        ) + deadline_pack(deadline)
                    else:
                        head = None
                    if head is None:
                        payload = None
                    else:
                        suffix = suffix_get((r.tags, r.stage_deps))
                        if suffix is None:
                            suffix = self._job_suffix(r.tags, r.stage_deps, intern)
                        payload = head + suffix
                else:
                    payload = None
            except Exception:
                # struct.error, UnicodeEncodeError, OverflowError, bad
                # attribute shapes — anything the fixed formats cannot
                # represent falls back to the passthrough frame below.
                payload = None
            if payload is None:
                payload = b"\x00" + _canonical(
                    {"seq": seq, "kind": "event", "data": encode_event(event)}
                ).encode("utf-8")
            parts_append(head_pack(crc(payload), len(payload)))
            parts_append(payload)
            nrec += 1
            seq += 1
        if nrec:
            entries.append((seq - 1, nrec, parts, rotate))
        return seq, tail

    def _job_suffix(self, tags, deps_list, intern) -> bytes:
        """Encode (and cache) one ``JobCompleted`` tag/dep suffix.

        Cold path: runs once per distinct ``(tags, stage_deps)`` shape
        per segment; the hot loop serves repeats from the cache.  The
        cache entry is only written after the whole suffix encoded
        cleanly, so a mid-suffix fallback (non-string tag, unhashable
        shape) never leaves a cached suffix behind — any defines it
        already emitted stay valid table entries regardless.
        """
        ids_get = self.ids.get

        def lookup(text: str) -> int:
            if type(text) is not str:
                raise ValueError("non-string tag/stage needs the generic encoder")
            num = ids_get(text)
            return intern(text) if num is None else num

        parts = [_U16.pack(len(tags))]
        for tag in tags:
            parts.append(_U32.pack(lookup(tag)))
        parts.append(_U16.pack(len(deps_list)))
        for stage, deps in deps_list:
            parts.append(_U32.pack(lookup(stage)))
            parts.append(_U16.pack(len(deps)))
            for dep in deps:
                parts.append(_U32.pack(lookup(dep)))
        suffix = self.suffixes[(tags, deps_list)] = b"".join(parts)
        return suffix


# -- window state --------------------------------------------------------------

_RT_WINDOW = 0x10
_RT_WIN_COLUMNS = 0x11
_RT_WIN_ROWS = 0x12

#: Layout version of the window-state frames; a state announcing any
#: other is refused, not guessed at.
_WIN_LAYOUT = 1
#: Window-state header: rtype, layout version, window length, clock,
#: ingest count, tenant frames that follow.
_WIN_HEAD = Struct("<BBddqI")
#: Prefix of both tenant frame kinds: rtype, retained entries,
#: len(tenant name), then the name (UTF-8, ``surrogatepass`` — routing
#: a frame by tenant never needs its body).
_WIN_TENANT = Struct("<BII")
#: Typed tenant body counts: tasks, jobs, submits, strings, shape words.
_WIN_COUNTS = Struct("<IIIII")


def encode_window_header(window: float, now: float, events: int, tenants: int) -> bytes:
    """The framed header that opens a window state."""
    return frame_payload(
        _WIN_HEAD.pack(_RT_WINDOW, _WIN_LAYOUT, window, now, events, tenants)
    )


def split_window_state(data) -> tuple[float, float, int, list[memoryview]]:
    """Parse one window state into ``(window, now, events, tenant payloads)``.

    Every frame is CRC-checked and the header's tenant count must match
    the frames present; ``ValueError`` for anything else — a state is
    read whole or not at all.
    """
    payloads, _, error = split_frames(data)
    if error is not None:
        raise ValueError(f"damaged window state: {error}")
    head = payloads[0] if payloads else b""
    if len(head) != _WIN_HEAD.size or head[0] != _RT_WINDOW:
        raise ValueError("not a window state (no header frame)")
    _, layout, window, now, events, tenants = _WIN_HEAD.unpack(head)
    if layout != _WIN_LAYOUT:
        raise ValueError(
            f"window state layout {layout}; this build reads only {_WIN_LAYOUT}"
        )
    if len(payloads) - 1 != tenants:
        raise ValueError(
            f"window state holds {len(payloads) - 1} of {tenants} tenant frames"
        )
    return window, now, events, payloads[1:]


def _column_body(name, task_times, tasks, job_times, jobs, submits) -> bytes:
    """One tenant's entries as typed columns; raises when they do not fit."""
    t_job = [r.job_id for r in tasks]
    t_id = [r.task_id for r in tasks]
    t_pool = [r.pool for r in tasks]
    t_stage = [r.stage for r in tasks]
    flags = [r.preempted for r in tasks] + [r.failed for r in tasks]
    j_job = [r.job_id for r in jobs]
    j_deadline = [r.deadline for r in jobs]
    j_shape = [(r.tags, r.stage_deps) for r in jobs]
    if {r.tenant for r in tasks}.union(r.tenant for r in jobs) - {name}:
        raise ValueError("record filed under another tenant")
    if not set(flags) <= {False, True}:
        raise ValueError("non-boolean flag")
    if any(type(d) is not float for d in j_deadline if d is not None):
        raise ValueError("non-float deadline")
    # Repeated strings are interned and referenced by id.  Distinct
    # (tags, stage_deps) shapes are few: each is spelled once, as counts
    # and string ids, and jobs refer to it by index.
    repeated = dict.fromkeys(chain(t_job, t_pool, t_stage, j_job))
    ids = {string: i for i, string in enumerate(repeated)}
    shapes = {shape: i for i, shape in enumerate(dict.fromkeys(j_shape))}
    words: list[int] = []
    for tags, deps in shapes:
        if type(tags) is not tuple or type(deps) is not tuple:
            raise ValueError("tags/stage_deps must be tuples")
        words.append(len(tags))
        words.extend(ids.setdefault(tag, len(ids)) for tag in tags)
        words.append(len(deps))
        for stage, after in deps:
            if type(after) is not tuple:
                raise ValueError("stage_deps must hold tuples")
            words += ids.setdefault(stage, len(ids)), len(after)
            words.extend(ids.setdefault(dep, len(ids)) for dep in after)
    # The string table: the interned strings, then the (unique) task ids
    # in task order; a non-str or a lone surrogate raises here.
    text = "".join(chain(ids, t_id)).encode("utf-8")
    nt, nj, ns = len(tasks), len(jobs), len(submits)
    return b"".join((
        _WIN_COUNTS.pack(nt, nj, ns, len(ids), len(words)),
        pack(
            f"<{4 * nt + 4 * nj + ns}d",
            *task_times,
            *[r.submit_time for r in tasks],
            *[r.start_time for r in tasks],
            *[r.finish_time for r in tasks],
            *job_times,
            *[r.submit_time for r in jobs],
            *[r.finish_time for r in jobs],
            *[0.0 if d is None else d for d in j_deadline],
            *submits,
        ),
        pack(
            f"<{2 * nt + nj}q",
            *[r.containers for r in tasks],
            *[r.attempt for r in tasks],
            *[r.num_tasks for r in jobs],
        ),
        pack(
            f"<{4 * nt + 2 * nj + len(ids) + len(words)}I",
            *map(ids.get, t_job), *map(ids.get, t_pool), *map(ids.get, t_stage),
            *map(ids.get, j_job), *map(shapes.get, j_shape),
            *map(len, ids), *map(len, t_id), *words,
        ),
        bytes(flags),
        bytes([d is not None for d in j_deadline]),
        text,
    ))


def encode_window_tenant(name, task_times, tasks, job_times, jobs, submits) -> bytes:
    """One tenant's retained entries as one CRC'd frame.

    ``task_times[i]``/``job_times[i]`` is the entry time of
    ``tasks[i]``/``jobs[i]`` (sequences, retention order).  EAFP like
    :class:`BinaryEncoder`: anything the typed columns cannot hold
    exactly — a non-string id, a lone surrogate, a non-float deadline,
    an integer past 64 bits — makes this tenant's frame the
    canonical-JSON row passthrough instead.
    """
    try:
        rtype = _RT_WIN_COLUMNS
        body = _column_body(name, task_times, tasks, job_times, jobs, submits)
    except Exception:
        rtype = _RT_WIN_ROWS
        # A row is the entry time, then the record's fields in declaration
        # order — its positional constructor call.
        body = _canonical({
            "tasks": [[t, *astuple(r)] for t, r in zip(task_times, tasks)],
            "jobs": [[t, *astuple(r)] for t, r in zip(job_times, jobs)],
            "submits": list(submits),
        }).encode("utf-8")
    raw = name.encode("utf-8", "surrogatepass")
    entries = len(tasks) + len(jobs) + len(submits)
    return frame_payload(_WIN_TENANT.pack(rtype, entries, len(raw)) + raw + body)


def peek_window_tenant(payload: memoryview) -> tuple[str, int, int, int]:
    """``(tenant, retained entries, rtype, body offset)`` of a tenant frame."""
    rtype, entries, size = _WIN_TENANT.unpack_from(payload)
    if rtype not in (_RT_WIN_COLUMNS, _RT_WIN_ROWS):
        raise ValueError(f"unknown window record type 0x{rtype:02x}")
    end = _WIN_TENANT.size + size
    name = str(payload[_WIN_TENANT.size : end], "utf-8", "surrogatepass")
    return name, entries, rtype, end


def _decode_columns(name: str, payload: memoryview, o: int):
    """Inverse of :func:`_column_body`."""
    nt, nj, ns, nstrings, nwords = _WIN_COUNTS.unpack_from(payload, o)
    o += _WIN_COUNTS.size
    f64 = unpack_from(f"<{4 * nt + 4 * nj + ns}d", payload, o)
    o += 8 * len(f64)
    i64 = unpack_from(f"<{2 * nt + nj}q", payload, o)
    o += 8 * len(i64)
    u32 = unpack_from(f"<{4 * nt + 2 * nj + nstrings + nwords}I", payload, o)
    o += 4 * len(u32)
    flags = payload[o : o + 2 * nt + nj].tolist()
    text = str(payload[o + 2 * nt + nj :], "utf-8")
    u = 3 * nt + 2 * nj  # id columns end, string lengths begin
    ends = list(accumulate(u32[u : u + nstrings + nt]))
    if len(flags) != 2 * nt + nj or (ends[-1] if ends else 0) != len(text):
        raise ValueError("columns and string table disagree")
    table = [text[a:b] for a, b in zip([0] + ends, ends)]
    string = table.__getitem__
    shapes = []
    words = iter(u32[len(u32) - nwords :])
    for ntags in words:
        tags = tuple(map(string, islice(words, ntags)))
        deps = tuple([
            (string(next(words)), tuple(map(string, islice(words, next(words)))))
            for _ in range(next(words))
        ])
        shapes.append((tags, deps))
    tasks = list(map(
        TaskRecord,
        map(string, u32[:nt]), table[nstrings:], repeat(name),
        map(string, u32[nt : 2 * nt]), map(string, u32[2 * nt : 3 * nt]),
        f64[nt : 2 * nt], f64[2 * nt : 3 * nt], f64[3 * nt : 4 * nt],
        i64[:nt], map(bool, flags[:nt]), map(bool, flags[nt : 2 * nt]),
        i64[nt : 2 * nt],
    ))
    f = 4 * nt  # job columns begin
    jobs = [
        JobRecord(string(job), name, submit, finish, deadline if has else None,
                  num_tasks, *shapes[shape])
        for job, submit, finish, deadline, has, num_tasks, shape in zip(
            u32[3 * nt : u - nj], f64[f + nj : f + 2 * nj],
            f64[f + 2 * nj : f + 3 * nj], f64[f + 3 * nj : f + 4 * nj],
            flags[2 * nt :], i64[2 * nt :], u32[u - nj : u],
        )
    ]
    return (
        list(f64[:nt]), tasks, list(f64[f : f + nj]), jobs, list(f64[f + 4 * nj :])
    )


def _decode_rows(name: str, payload: memoryview, o: int):
    """Inverse of the row passthrough in :func:`encode_window_tenant`."""
    rows = json.loads(str(payload[o:], "utf-8"))
    jobs = [
        JobRecord(
            *scalars, tuple(tags), tuple((stage, tuple(after)) for stage, after in deps)
        )
        for _, *scalars, tags, deps in rows["jobs"]
    ]
    return (
        [row[0] for row in rows["tasks"]],
        [TaskRecord(*row[1:]) for row in rows["tasks"]],
        [row[0] for row in rows["jobs"]],
        jobs,
        rows["submits"],
    )


def decode_window_tenant(payload: memoryview):
    """Decode one tenant frame of a window state.

    Returns ``(tenant, task_times, tasks, job_times, jobs, submits)``
    — the arguments :func:`encode_window_tenant` took.  ``ValueError``
    when the frame does not decode: damage that slipped past the CRC
    must never restore silently.
    """
    try:
        name, _, rtype, offset = peek_window_tenant(payload)
        decode = _decode_columns if rtype == _RT_WIN_COLUMNS else _decode_rows
        return (name, *decode(name, payload, offset))
    except Exception as exc:
        raise ValueError(f"undecodable window tenant frame: {exc!r}") from exc


# -- wire batches --------------------------------------------------------------

#: First byte of an ingest wire message; the JSON control frames of the
#: transport begin with a lowercase-hex CRC character, so ``0x00`` is
#: unambiguous.
WIRE_MAGIC = 0x00
_WIRE_HEAD = Struct("<BI")
_WIRE_BATCH = Struct("<QI")


def encode_wire_batches(batches, encode_event) -> bytes:
    """Encode ``[(seq, [events])]`` as one binary wire message.

    Reuses the journal's record frames (each self-CRC'd) with a
    message-scoped string table.  ``encode_event`` is the journal's
    generic dict encoder for the passthrough fallback.
    """
    enc = BinaryEncoder()
    parts = [_WIRE_HEAD.pack(WIRE_MAGIC, len(batches))]
    for seq, events in batches:
        parts.append(_WIRE_BATCH.pack(seq, len(events)))
        entries: list = []
        enc.encode_event_batch(
            encode_event, events, 0, 0, 1 << 62, b"", entries
        )
        for entry in entries:
            parts.extend(entry[2])
    return b"".join(parts)


def decode_wire_batches(
    data: bytes | memoryview, decode_event
) -> list[tuple[int, list[ServiceEvent]]]:
    """Decode a binary wire message back to ``[(seq, [events])]``.

    ``decode_event`` is the journal's generic dict decoder, used for
    passthrough frames only.  Raises ``ValueError`` on framing or CRC
    damage.
    """
    mv = memoryview(data)
    magic, nbatches = _WIRE_HEAD.unpack_from(mv, 0)
    if magic != WIRE_MAGIC:
        raise ValueError("not a binary wire message")
    offset = _WIRE_HEAD.size
    table: list[str] = []
    batches: list[tuple[int, list[ServiceEvent]]] = []
    for _ in range(nbatches):
        seq, count = _WIRE_BATCH.unpack_from(mv, offset)
        offset += _WIRE_BATCH.size
        events: list[ServiceEvent] = []
        while len(events) < count:
            if len(mv) - offset < _HEAD.size:
                raise ValueError("truncated binary wire message")
            crc, length = _HEAD.unpack_from(mv, offset)
            end = offset + _HEAD.size + length
            if end > len(mv):
                raise ValueError("truncated binary wire message")
            payload = mv[offset + _HEAD.size : end]
            if _crc32(payload) != crc:
                raise ValueError("crc mismatch in binary wire message")
            offset = end
            decoded = decode_payload(payload, table)
            if decoded is not None:
                body = decoded[2]
                events.append(
                    body if isinstance(body, ServiceEvent) else decode_event(body)
                )
        batches.append((seq, events))
    return batches
