"""The journal record codec: struct-packed frames behind CRC framing.

The one representation of a journaled record, on disk
(:mod:`repro.service.journal` segments) and in TCP ingest frames
(:mod:`repro.service.transport`).  Rendering sorted-key JSON text per
record is what bounds a durable ingest path, so a record is a
length-prefixed, crc32-checked binary frame, with per-record-type
precompiled :mod:`struct` pack formats for the hot telemetry kinds
(``TaskCompleted``, ``JobCompleted``, ``JobSubmitted``, ``Heartbeat``)
and an interned string table per segment for the repeated strings
(tenant, pool, stage, tags, and ``job_id`` — every task record of a job
repeats its job id, so the id is defined once and referenced as a fixed
u32 afterwards).  Everything the typed formats cannot express
faithfully falls back to a JSON *passthrough* frame carrying the
canonical JSON body, so every record decodes to exactly the dict
``encode_event`` produced for it — the round-trip contract the test
suite asserts directly and by hypothesis fuzz.

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
``0x7f``   Segment header: magic + format version + codec id.  The
           first frame of every segment.
=========  ====================================================

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
from struct import Struct

from repro.service.events import (
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    TaskCompleted,
)

__all__ = [
    "BINARY_SUFFIX",
    "BinaryEncoder",
    "HEADER_FRAME",
    "decode_payload",
    "decode_wire_batches",
    "encode_wire_batches",
    "frame_payload",
    "split_frames",
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
_DEADLINE = Struct("<d")
_U16 = Struct("<H")
_U32 = Struct("<I")

_RT_PASSTHROUGH = 0x00
_RT_DEFINE = 0x01
_RT_TASK = 0x02
_RT_JOBC = 0x03
_RT_JOBS = 0x04
_RT_HB = 0x05
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
) -> tuple[int, str, dict] | None:
    """Decode one frame payload into ``(seq, kind, data)``.

    ``table`` is the segment's string table, mutated in place when the
    payload is a define frame.  Returns ``None`` for frames that carry
    no record (defines and the segment header).  Raises ``ValueError``
    on unknown record types or references past the table — corruption
    that slipped past the CRC must never decode silently.
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
        task_id = str(payload[o : o + lk], "utf-8")
        return (
            seq,
            "event",
            {
                "type": "TaskCompleted",
                "time": time,
                "record": {
                    "job_id": table[jid],
                    "task_id": task_id,
                    "tenant": table[tid],
                    "pool": table[pid],
                    "stage": table[sid],
                    "submit_time": submit,
                    "start_time": start,
                    "finish_time": finish,
                    "containers": containers,
                    "preempted": bool(flags & 2),
                    "failed": bool(flags & 1),
                    "attempt": attempt,
                },
            },
        )
    if rtype == _RT_JOBC:
        _, seq, time, submit, finish, num_tasks, flags, tid, jid = _JOBC.unpack_from(
            payload
        )
        o = _JOBC.size
        deadline = None
        if flags & 1:
            (deadline,) = _DEADLINE.unpack_from(payload, o)
            o += _DEADLINE.size
        (ntags,) = _U16.unpack_from(payload, o)
        o += 2
        tags = []
        for _i in range(ntags):
            (idx,) = _U32.unpack_from(payload, o)
            tags.append(table[idx])
            o += 4
        (ndeps,) = _U16.unpack_from(payload, o)
        o += 2
        stage_deps = []
        for _i in range(ndeps):
            (sidx,) = _U32.unpack_from(payload, o)
            o += 4
            (nd,) = _U16.unpack_from(payload, o)
            o += 2
            deps = []
            for _j in range(nd):
                (didx,) = _U32.unpack_from(payload, o)
                deps.append(table[didx])
                o += 4
            stage_deps.append([table[sidx], deps])
        return (
            seq,
            "event",
            {
                "type": "JobCompleted",
                "time": time,
                "record": {
                    "job_id": table[jid],
                    "tenant": table[tid],
                    "submit_time": submit,
                    "finish_time": finish,
                    "deadline": deadline,
                    "num_tasks": num_tasks,
                    "tags": tags,
                    "stage_deps": stage_deps,
                },
            },
        )
    if rtype == _RT_JOBS:
        _, seq, time, flags, tid, jid = _JOBS.unpack_from(payload)
        deadline = None
        if flags & 1:
            (deadline,) = _DEADLINE.unpack_from(payload, _JOBS.size)
        return (
            seq,
            "event",
            {
                "type": "JobSubmitted",
                "time": time,
                "tenant": table[tid],
                "job_id": table[jid],
                "deadline": deadline,
            },
        )
    if rtype == _RT_HB:
        _, seq, time = _HB.unpack_from(payload)
        return (seq, "event", {"type": "Heartbeat", "time": time})
    if rtype == _RT_PASSTHROUGH:
        row = json.loads(str(payload[1:], "utf-8"))
        return (int(row["seq"]), str(row["kind"]), row["data"])
    if rtype == _RT_DEFINE:
        table.append(str(payload[1:], "utf-8"))
        return None
    if rtype == _RT_HEADER:
        if bytes(payload[:11]) != _HEADER_PAYLOAD[:11]:
            raise ValueError("unrecognized binary segment header")
        return None
    raise ValueError(f"unknown binary record type 0x{rtype:02x}")


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

    def load_table(self, payloads: list[memoryview]) -> int:
        """Rebuild the table from an existing segment's frame payloads.

        Returns the number of record frames seen, so a journal
        re-opening a binary tail segment can restore both its encoder
        state and its record count in one scan.
        """
        self.reset()
        ids = self.ids
        records = 0
        for payload in payloads:
            rtype = payload[0]
            if rtype == _RT_DEFINE:
                ids[str(payload[1:], "utf-8")] = len(ids)
            elif rtype != _RT_HEADER:
                records += 1
        return records

    def passthrough(self, seq: int, kind: str, data: dict) -> bytes:
        """Encode any record as a CRC-framed canonical-JSON payload."""
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


def decode_wire_batches(data: bytes | memoryview) -> list[tuple[int, list[dict]]]:
    """Decode a binary wire message back to ``[(seq, [event dicts])]``.

    Raises ``ValueError`` on framing or CRC damage.
    """
    mv = memoryview(data)
    magic, nbatches = _WIRE_HEAD.unpack_from(mv, 0)
    if magic != WIRE_MAGIC:
        raise ValueError("not a binary wire message")
    offset = _WIRE_HEAD.size
    table: list[str] = []
    batches: list[tuple[int, list[dict]]] = []
    for _ in range(nbatches):
        seq, count = _WIRE_BATCH.unpack_from(mv, offset)
        offset += _WIRE_BATCH.size
        events: list[dict] = []
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
                events.append(decoded[2])
        batches.append((seq, events))
    return batches
