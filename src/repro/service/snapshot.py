"""Durable serving state: periodic snapshots over the event journal.

The journal (:mod:`repro.service.journal`) alone is enough to rebuild a
daemon — replay everything from the first event — but recovery time then
grows with the daemon's lifetime.  Snapshots bound it: every so often
the control state (applied-config history, controller tuning state,
decisions, counters) is written as one atomically renamed file under
``<state-dir>/snapshots/``, tagged with the journal sequence number it
covers.  The file is two CRC-framed JSON text lines: a header saying
what the file covers — the seq, and per shard journal a
:class:`~repro.service.sharding.ShardMark` (covered seq, window clock,
ingest count, low-water mark) — then the control state.  No window
entry is in it: every retained entry is a journal record at or past its
shard's low-water mark, so resume refolds each window from its mark up
to the covered seq, window-only, and then replays only the journal tail
past the snapshot
(:meth:`~repro.service.daemon.TempoService.resume`).

:class:`ServiceState` is the facade the daemon talks to — one object
owning the state directory: the journal, the snapshot store, the
snapshot cadence, and the ``meta.json`` scenario descriptor that lets
``repro resume`` rebuild the surrounding service without re-specifying
flags.

What is *not* persisted: the PALD optimizer's cross-iteration QS sample
buffer (a resumed tuner re-accumulates gradient samples over its next
few retunes) and the production-side simulator state of a replay (the
scenario re-seeds from the resumed chunk boundary).  Both degrade
gracefully and are documented in ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.core.decisions import _floats_in, _floats_out
from repro.rm.config import RMConfig, TenantConfig
from repro.service.events import Heartbeat
from repro.service.ingest import TenantWindowStats
from repro.service.journal import (
    EventJournal,
    canonical_json,
    frame_bytes,
    heartbeat_at_or_before,
    unframe_bytes,
)
from repro.service.sharding import _TELEMETRY_EVENTS, ShardMark, shard_dir_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import TempoController

#: Format tag in every snapshot file's header frame.  A file without it
#: — including the ``tempo-snapshot/3`` files (which carried window
#: frames) and the all-JSON ``tempo-snapshot/2`` files earlier builds
#: wrote — is unreadable to this build and handled exactly like a
#: corrupt one.
SNAPSHOT_FORMAT = "tempo-snapshot/4"


# -- RM configuration codec ---------------------------------------------------


def config_to_dict(config: RMConfig) -> dict:
    """JSON-ready dict for an RM configuration (inf timeouts -> null)."""
    out: dict = {}
    for name in config.tenant_names():
        t = config.tenant(name)
        out[name] = {
            "weight": t.weight,
            "min_share": dict(t.min_share),
            "max_share": dict(t.max_share),
            "min_timeout": inf_to_null(t.min_share_preemption_timeout),
            "fair_timeout": inf_to_null(t.fair_share_preemption_timeout),
        }
    return out


def config_from_dict(data: Mapping) -> RMConfig:
    """Rebuild an :class:`RMConfig` from :func:`config_to_dict` output."""
    tenants = {
        name: TenantConfig(
            weight=float(slot["weight"]),
            min_share={k: int(v) for k, v in slot["min_share"].items()},
            max_share={k: int(v) for k, v in slot["max_share"].items()},
            min_share_preemption_timeout=inf_from_null(slot["min_timeout"]),
            fair_share_preemption_timeout=inf_from_null(slot["fair_timeout"]),
        )
        for name, slot in data.items()
    }
    return RMConfig(tenants)


def inf_to_null(value: float) -> float | None:
    """Scalar codec for semantically-absent infinities (timeouts, drift).

    ``inf`` means "disabled"/"no finite measurement" in those fields, so
    null is the honest wire form.  Sign-lossy by design — for signed
    float arrays use :func:`_floats_out`/:func:`_floats_in` instead.
    """
    return None if math.isinf(value) else float(value)


def inf_from_null(value: float | None) -> float:
    """Inverse of :func:`inf_to_null`."""
    return math.inf if value is None else float(value)


# -- window-statistics codec --------------------------------------------------


def stats_to_dict(stats: TenantWindowStats) -> dict:
    """JSON-ready dict for one tenant's window statistics."""
    return asdict(stats)


def stats_from_dict(data: Mapping) -> TenantWindowStats:
    """Rebuild :class:`TenantWindowStats` from its dict form."""
    return TenantWindowStats(**dict(data))


# -- controller tuning-state codec --------------------------------------------


def controller_state_dict(controller: "TempoController") -> dict:
    """The controller state a resumed daemon needs for guard continuity.

    Captures the applied configuration and its encoded vector, the
    revert guard's baseline (``_prev``), the trailing observed-QS
    vectors feeding the multi-window average, and the ratcheted
    best-effort thresholds, the retained selection-time prediction, and
    the decision engine's freeze fuse.  The PALD sample
    buffer is deliberately NOT captured (see the module docstring).
    """
    prev = None
    if controller._prev is not None:
        prev_config, prev_observed, prev_x = controller._prev
        prev = {
            "config": config_to_dict(prev_config),
            "observed": _floats_out(prev_observed),
            "x": [float(v) for v in prev_x],
        }
    ratchet = controller._ratchet_values
    state = {
        "config": config_to_dict(controller.config),
        "x": [float(v) for v in controller.x],
        "prev": prev,
        "observed_recent": [
            _floats_out(obs) for obs in controller._observed_recent
        ],
        "ratchet": None if ratchet is None else _floats_out(ratchet),
    }
    state["guards"] = controller.engine.state_dict()
    predicted = controller._predicted
    if predicted is not None:
        state["predicted"] = _floats_out(predicted)
    return state


def restore_controller_state(controller: "TempoController", state: Mapping) -> None:
    """Apply :func:`controller_state_dict` output to a fresh controller."""
    controller.config = config_from_dict(state["config"])
    controller.x = np.asarray(state["x"], dtype=float)
    prev = state.get("prev")
    if prev is None:
        controller._prev = None
    else:
        controller._prev = (
            config_from_dict(prev["config"]),
            np.asarray(_floats_in(prev["observed"]), dtype=float),
            np.asarray(prev["x"], dtype=float),
        )
    controller._observed_recent.clear()
    for obs in state.get("observed_recent", ()):
        controller._observed_recent.append(
            np.asarray(_floats_in(obs), dtype=float)
        )
    ratchet = state.get("ratchet")
    controller._ratchet_values = (
        None if ratchet is None else np.asarray(_floats_in(ratchet), dtype=float)
    )
    predicted = state.get("predicted")
    controller._predicted = (
        None if predicted is None else np.asarray(_floats_in(predicted), dtype=float)
    )
    controller.engine.restore_state(state.get("guards", {}))


# The infinity-safe float-vector codec is shared with the decision
# plane's DecisionRecord codec, so snapshot and journal encodings can
# never drift apart.


# -- snapshot store -----------------------------------------------------------


def read_snapshot(
    path: Path, *, stop_after: str | None = None
) -> tuple[dict, dict | None]:
    """Read one snapshot file as ``(header, state)`` without touching it.

    The one decoder of the snapshot file format, shared by
    :class:`SnapshotStore` and read-only tooling (``repro status``,
    ``repro dump-snapshot``).  The header carries ``seq`` and ``marks``
    (one :class:`~repro.service.sharding.ShardMark` per shard journal,
    ``None`` when the state covers no shard journal).
    ``stop_after="header"`` reads only the first line and returns
    ``state`` as ``None`` — the cold paths that only ask what a file
    *covers*.  Raises ``ValueError`` for anything that is not a readable
    :data:`SNAPSHOT_FORMAT` file: a damaged, torn or missing frame,
    bytes past the control line, or a file of another format (earlier
    builds' shapes are deliberately not a second read path).
    """
    with path.open("rb") as fh:
        try:
            header = json.loads(unframe_bytes(fh.readline()))
            if header["format"] != SNAPSHOT_FORMAT:
                raise ValueError(f"format {header['format']!r}")
            marks = header["marks"]
            header = {
                "seq": int(header["seq"]),
                "marks": None if marks is None else [ShardMark(*m) for m in marks],
            }
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a {SNAPSHOT_FORMAT} header: {exc!r}") from exc
        if stop_after == "header":
            return header, None
        state = json.loads(unframe_bytes(fh.readline()))
        if fh.read(1):
            raise ValueError("bytes past the control line")
    return header, state


class SnapshotStore:
    """CRC-framed, atomically written snapshot files with pruning.

    Files are named ``snapshot-<seq>.json`` where ``seq`` is the journal
    sequence number the state includes, and hold two CRC-framed text
    lines — a small **header** (format tag, ``seq``, and one
    :class:`~repro.service.sharding.ShardMark` per shard journal) and
    the **control state** (see :func:`read_snapshot`).
    Writes go to a temp file first and are renamed into place, so a
    crash mid-snapshot leaves at worst a stale temp file — removed the
    next time the store opens — never a half snapshot under a valid
    name.  ``load_latest`` walks newest-first and skips unreadable
    files, so a corrupt snapshot costs recovery time (a longer journal
    tail), never correctness.

    The store keeps what its retained files cover in memory
    (:meth:`retained`): read from the header lines when it opens, kept
    current by :meth:`write` and the deletion paths, so the compaction
    that follows every snapshot parses no snapshot.
    """

    def __init__(self, root: str | os.PathLike, *, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        for stale in self.root.glob("snapshot-*.tmp"):
            stale.unlink()  # a crash between the temp write and its rename
        self._retained: list[tuple[int, list[ShardMark] | None]] = []
        for path in sorted(self.root.glob("snapshot-*.json")):
            try:
                marks = read_snapshot(path, stop_after="header")[0]["marks"]
            except ValueError:
                marks = None  # unreadable: still retained, covers nothing
            self._retained.append((int(path.stem.split("-")[1]), marks))

    def _path(self, seq: int) -> Path:
        return self.root / f"snapshot-{seq:010d}.json"

    def paths(self) -> list[Path]:
        """Snapshot files in sequence order."""
        return [self._path(seq) for seq, _ in self._retained]

    def retained(self) -> list[tuple[int, list[ShardMark] | None]]:
        """``(seq, marks)`` of every retained file, oldest first.

        ``seq`` is the file name's; ``marks`` are the per-shard-journal
        facts the file's header records — ``None`` when it records none
        or cannot be read, either of which proves nothing about any
        shard journal.
        """
        return list(self._retained)

    def write(
        self,
        seq: int,
        state: dict,
        *,
        marks: list | None = None,
        fsync: bool = False,
    ) -> Path:
        """Persist one snapshot covering journal records up to ``seq``.

        ``marks`` are the :class:`~repro.service.sharding.ShardMark`
        facts of the shard journals ``state`` includes (any
        4-sequences).  With ``fsync`` the temp file is forced to stable
        storage before the rename and the directory after it — the
        caller is about to delete the journal prefix this file's marks
        release, so the file must survive a power loss first; without
        it no extra syscall is made.
        """
        seq = int(seq)
        if marks is not None:
            marks = [ShardMark(int(m[0]), float(m[1]), int(m[2]), int(m[3])) for m in marks]
        header = {"format": SNAPSHOT_FORMAT, "seq": seq, "marks": marks}
        path = self._path(seq)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            fh.write(frame_bytes(canonical_json(header)) + frame_bytes(canonical_json(state)))
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        kept = [entry for entry in self._retained if entry[0] != seq]
        kept.append((seq, marks))
        kept.sort(key=lambda entry: entry[0])
        for old, _ in kept[: -self.keep]:
            self._path(old).unlink(missing_ok=True)
        self._retained = kept[-self.keep :]
        return path

    def load_latest(self, max_seq: int | None = None) -> tuple[int, dict] | None:
        """Newest readable snapshot as ``(seq, state)``, or ``None``.

        ``max_seq`` skips snapshots past a journal truncation point.
        """
        for seq, _ in reversed(self._retained):
            if max_seq is not None and seq > max_seq:
                continue
            try:
                header, state = read_snapshot(self._path(seq))
                return header["seq"], state
            except (FileNotFoundError, ValueError):
                continue  # unreadable snapshot: fall back to an older one
        return None

    def discard(self, doomed: Callable[[int, list[ShardMark] | None], bool]) -> int:
        """Delete each retained file for which ``doomed(seq, marks)``.

        The arguments are one :meth:`retained` entry.  Returns the
        number of files deleted.
        """
        kept = []
        for seq, marks in self._retained:
            if doomed(seq, marks):
                self._path(seq).unlink(missing_ok=True)
            else:
                kept.append((seq, marks))
        removed = len(self._retained) - len(kept)
        self._retained = kept
        return removed

    def truncate_after(self, seq: int) -> int:
        """Delete snapshots covering journal records beyond ``seq``."""
        return self.discard(lambda snapshot_seq, _: snapshot_seq > seq)


def _holds_events(journal: EventJournal) -> bool:
    """Whether a journal holds any event record (a full read: only asked
    of journals without a heartbeat, which are fresh and short)."""
    return any(record.kind == "event" for record in journal.iter_records())


class ServiceState:
    """The daemon's durable home: journal + snapshots + meta descriptor.

    Layout under ``root`` (single-shard: shard 0's journal is the
    top-level journal, see :meth:`shard_journal_path`)::

        meta.json                    scenario/service descriptor (resume)
        journal/segment-*.binl       CRC-framed write-ahead records
        snapshots/snapshot-*.json    periodic full-state snapshots

    With ``shards > 1`` the data plane is split per tenant-shard: the
    top-level journal becomes the **control journal** (cluster-level
    control events, retune decisions, applied configs, rollbacks, and
    the broadcast chunk heartbeats) while each shard's telemetry lives
    in its own journal::

        journal/segment-*.binl       control journal
        shard-00/journal/...         shard 0 telemetry (+ heartbeats)
        shard-01/journal/...         shard 1 telemetry (+ heartbeats)
        snapshots/snapshot-*.json    one snapshot covering ALL journals
                                     (one ShardMark per shard inside)

    Args:
        root: State directory (created if missing).
        segment_records: Journal records per segment before rotation.
        snapshot_every: Journal records between periodic snapshots (a
            snapshot is also taken after every applied tune, the
            state-change that matters most).  Sharded, the count is the
            total across the control and shard journals.
        keep_snapshots: Snapshot files retained after pruning.
        fsync: Force journal appends to stable storage — and each
            snapshot (file, then directory) before the compaction that
            follows it deletes the journal prefix the snapshot covers.
        keep_segments: Journal segments always retained by
            :meth:`compact` regardless of snapshot coverage (safety
            margin).
        auto_compact: Run :meth:`compact` after every snapshot write,
            so a durable daemon's disk footprint stays bounded by the
            snapshot retention window instead of its lifetime.
        shards: Data-plane shard count this state dir is laid out for.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        segment_records: int = 4096,
        snapshot_every: int = 5000,
        keep_snapshots: int = 3,
        fsync: bool = False,
        keep_segments: int = 2,
        auto_compact: bool = True,
        shards: int = 1,
    ):
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if keep_segments < 1:
            raise ValueError(f"keep_segments must be >= 1, got {keep_segments}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal = EventJournal(
            self.root / "journal",
            segment_records=segment_records,
            fsync=fsync,
        )
        self.snapshots = SnapshotStore(self.root / "snapshots", keep=keep_snapshots)
        self.snapshot_every = int(snapshot_every)
        self.keep_segments = int(keep_segments)
        self.auto_compact = bool(auto_compact)
        self.shards = int(shards)
        #: Lazily opened per-shard journals (parent side).  Worker-mode
        #: daemons never open these while workers run — the workers own
        #: them — which is why :attr:`shard_compaction` is switched off
        #: for the run's duration in that mode.
        self._shard_journals: dict[int, EventJournal] = {}
        self.shard_compaction = True
        self._records_since_snapshot = 0
        retained = self.snapshots.retained()
        self._last_snapshot_seq = retained[-1][0] if retained else 0

    # -- meta descriptor ----------------------------------------------------

    @property
    def meta_path(self) -> Path:
        """Location of the scenario/service descriptor."""
        return self.root / "meta.json"

    def write_meta(self, meta: dict) -> None:
        """Persist the descriptor ``repro resume`` rebuilds from."""
        tmp = self.meta_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.meta_path)

    def read_meta(self) -> dict | None:
        """The descriptor, or ``None`` when this dir has none yet."""
        if not self.meta_path.exists():
            return None
        return json.loads(self.meta_path.read_text())

    # -- shard journals ------------------------------------------------------

    def shard_journal_path(self, shard_id: int) -> Path:
        """On-disk journal directory of one shard.

        Single-shard state dirs have no ``shard-NN`` tree: shard 0's
        journal *is* the top-level journal.
        """
        if self.shards == 1:
            return self.root / "journal"
        return self.root / shard_dir_name(shard_id) / "journal"

    def shard_journal(self, shard_id: int) -> EventJournal:
        """Lazily opened parent-side handle of one shard's journal.

        Never call this while worker processes own the journals — a
        parent-side open would race the worker's torn-tail repair.
        """
        if not 0 <= shard_id < self.shards:
            raise ValueError(
                f"shard {shard_id} out of range for {self.shards}-shard state"
            )
        if self.shards == 1:
            return self.journal
        journal = self._shard_journals.get(shard_id)
        if journal is None:
            journal = self._shard_journals[shard_id] = EventJournal(
                self.shard_journal_path(shard_id),
                segment_records=self.journal.segment_records,
                fsync=self.journal.fsync,
            )
        return journal

    def shard_journal_opts(self) -> dict:
        """Constructor kwargs a worker uses to open its shard journal."""
        return {
            "segment_records": self.journal.segment_records,
            "fsync": self.journal.fsync,
        }

    def note_shard_records(self, count: int) -> None:
        """Count records journaled by the data plane (snapshot cadence).

        Sharded daemons dispatch telemetry to shard journals the
        control plane never re-reads, so the snapshot cadence counts
        what it *dispatched* rather than re-polling N journals.
        """
        self._records_since_snapshot += count

    # -- write-ahead records -------------------------------------------------

    def record_event(self, data: dict) -> int:
        """Journal one telemetry event (write-ahead of processing)."""
        self._records_since_snapshot += 1
        return self.journal.append("event", data)

    def record_events(self, events: list) -> list[int]:
        """Group-commit a whole batch of telemetry events write-ahead.

        Takes the event *objects* (not pre-encoded dicts): one
        specialized encode pass, one buffered write, one flush — the
        batch ingest pipeline's journal half.  Returns the assigned
        sequence numbers in order.
        """
        seqs = self.journal.append_events(events)
        self._records_since_snapshot += len(seqs)
        return seqs

    def record_control(self, events: list) -> None:
        """Group-commit the control plane's share of a routed batch.

        Heartbeats are broadcast: every shard journals its own copy and
        the control journal holds one more — except in the single-shard
        layout, where shard 0's journal *is* the control journal and its
        copy is already there.  Everything else here only the control
        plane journals.
        """
        if self.shards == 1:
            events = [event for event in events if type(event) is not Heartbeat]
        if events:
            self.record_events(events)

    def record_decision(self, data: dict) -> int:
        """Journal one skipped cadence tick (sparse/stable outcome)."""
        self._records_since_snapshot += 1
        return self.journal.append("decision", data)

    def record_config(self, data: dict) -> int:
        """Journal one applied tune: its decision and the controller
        state it produced, as a single atomic record."""
        self._records_since_snapshot += 1
        return self.journal.append("config", data)

    def record_rollback(self) -> int:
        """Journal an operator rollback."""
        self._records_since_snapshot += 1
        return self.journal.append("rollback", {})

    def record_metrics(self, data: dict) -> int:
        """Journal one per-retune metrics sample (kind ``metrics``).

        The payload is a :class:`~repro.service.events.MetricsSampled`
        dict — ``time``, ``index``, and a merged registry dump — giving
        replay and sweep tooling an append-only time series without a
        separate sink.  Samples describe observability state, not
        serving state: resume restores registries from snapshots and
        merely notes the newest sample.
        """
        self._records_since_snapshot += 1
        return self.journal.append("metrics", data)

    # -- snapshot cadence ----------------------------------------------------

    def snapshot_due(self, *, force: bool = False) -> bool:
        """Whether the periodic snapshot cadence has elapsed."""
        if force:
            return True
        if self.shards > 1:
            # Telemetry lands in shard journals the control plane does
            # not poll; the cadence counts dispatched + control records.
            return self._records_since_snapshot >= self.snapshot_every
        return self.journal.last_seq - self._last_snapshot_seq >= self.snapshot_every

    def write_snapshot(self, state: dict) -> Path:
        """Snapshot ``state`` as covering everything journaled so far.

        With ``auto_compact`` enabled (the default) every snapshot write
        also runs :meth:`compact`, so segments the retained snapshots
        fully cover are reclaimed as the daemon runs.
        """
        seq = self.journal.last_seq
        path = self.snapshots.write(
            seq,
            state,
            marks=state.get("sharding", {}).get("marks"),
            fsync=self.journal.fsync,
        )
        self._last_snapshot_seq = seq
        self._records_since_snapshot = 0
        if self.auto_compact:
            self.compact()
        return path

    def load_latest_snapshot(self) -> tuple[int, dict] | None:
        """Newest readable snapshot not past the journal's end."""
        return self.snapshots.load_latest(max_seq=self.journal.last_seq)

    # -- compaction ----------------------------------------------------------

    def compact(self, keep_segments: int | None = None) -> int:
        """Delete journal segments no retained snapshot needs.

        The compaction anchor is the **oldest retained** snapshot, not
        the newest: every resume path — including falling back past a
        corrupt newer snapshot, and the heartbeat-boundary rewind
        ``repro resume`` performs before loading state — must still find
        its journal intact.  A snapshot needs each shard journal from
        its low-water mark (the window is refolded from there) and the
        control journal past its seq (the tail), so a segment is deleted
        only when its entire seq range lies below both — at one shard
        the control journal *is* shard 0's.  If the journal holds
        heartbeats but even the oldest snapshot lies *past* the newest
        heartbeat (resume would rewind to before every snapshot and need
        the journal from the start), nothing is compacted.
        ``keep_segments`` newest segments survive regardless (default:
        the constructor's margin).  Returns the number of segments
        deleted.
        """
        keep = self.keep_segments if keep_segments is None else int(keep_segments)
        retained = self.snapshots.retained()
        if not retained:
            return 0
        anchor, marks = retained[0]
        heartbeat = self.journal.last_heartbeat()
        if heartbeat is not None and anchor > heartbeat[0]:
            return 0
        covered = anchor
        if self.shards == 1 and marks:
            covered = min(covered, marks[0].mark - 1)
        removed = self.journal.compact(covered, keep_segments=keep)
        if self.shards > 1 and self.shard_compaction and heartbeat is not None:
            # Heartbeats are broadcast: none in the control journal
            # means none anywhere, so no completed-chunk boundary
            # protects a rewind yet.
            removed += self._compact_shards(marks, keep)
        return removed

    def _compact_shards(self, marks: list[ShardMark] | None, keep: int) -> int:
        """Compact shard journals below the oldest snapshot's marks.

        Each shard journal ``i`` is compacted up to just before the
        oldest retained snapshot's low-water mark ``marks[i].mark`` —
        and only when that snapshot's position ``marks[i].seq`` is at or
        before the shard journal's newest broadcast heartbeat, the same
        boundary-safety rule the control journal applies: the
        crash-recovery rewind truncates to a completed chunk boundary,
        and the anchor snapshot must survive that rewind for the
        compacted prefix to stay unreachable.  Both facts are in memory
        on a running daemon (the anchor's header marks and each
        journal's own newest heartbeat), so nothing is read to decide.
        """
        if not marks or len(marks) != self.shards:
            return 0  # anchor predates this layout; nothing provable
        removed = 0
        for i, mark in enumerate(marks):
            journal = self.shard_journal(i)
            boundary = journal.last_heartbeat()
            if boundary is None or mark.seq > boundary[0]:
                continue
            removed += journal.compact(mark.mark - 1, keep_segments=keep)
        return removed

    # -- truncation ----------------------------------------------------------

    def truncate_after(self, seq: int) -> int:
        """Cut journal and snapshots back to ``seq`` (chunk-boundary rewind)."""
        removed = self.journal.truncate_after(seq)
        self.snapshots.truncate_after(seq)
        self._last_snapshot_seq = min(self._last_snapshot_seq, seq)
        return removed

    def rewind_to_heartbeat(self) -> tuple[float, int]:
        """Rewind every journal to the newest *common* chunk boundary.

        The crash-recovery primitive behind ``repro resume``.  Returns
        ``(boundary_time, records_dropped)``; a boundary time of 0.0
        means no chunk completed anywhere and everything was rewound.

        Single-shard: truncate the one journal (and snapshots) past its
        newest heartbeat — exactly the PR 2 behavior.  Sharded: the
        boundary is the newest heartbeat time present in **all**
        journals (heartbeats are broadcast at every boundary, so the
        minimum over per-journal newest heartbeats is common); each
        journal is truncated past its own copy of that heartbeat, and
        snapshots are pruned when their control seq *or any recorded
        shard seq* lies past the corresponding boundary — a snapshot
        taken mid-chunk may cover shard telemetry that was just
        truncated, and restoring it would double-deliver the partial
        chunk the resume re-simulates.
        """
        if self.shards == 1:
            boundary = self.journal.last_heartbeat()
            seq, start = boundary if boundary is not None else (0, 0.0)
            return start, self.truncate_after(seq)
        journals = [self.journal] + [
            self.shard_journal(i) for i in range(self.shards)
        ]
        # A journal holding no events constrains nothing: a freshly
        # resharded (or tenant-less) shard journal — empty, or holding
        # only the window record the reshard wrote — must not drag the
        # common boundary, and the whole retained history, down to
        # zero.  Only journals with acknowledged events but no
        # completed chunk boundary force the full rewind.
        quiet = [not (self.journal.last_seq or self.journal.segments())] + [
            j.last_heartbeat() is None and not _holds_events(j) for j in journals[1:]
        ]
        newest = [
            j.last_heartbeat() for j, skip in zip(journals, quiet) if not skip
        ]
        if not newest or any(found is None for found in newest):
            start, control_seq = 0.0, 0
            cuts = [0] * self.shards
            dropped = self.journal.truncate_after(0)
            for i in range(self.shards):
                dropped += self.shard_journal(i).truncate_after(0)
        else:
            start = min(when for _, when in newest)
            control = heartbeat_at_or_before(self.journal, start)
            control_seq = control[0] if control is not None else 0
            dropped = self.journal.truncate_after(control_seq)
            cuts = []
            for i in range(self.shards):
                journal = self.shard_journal(i)
                if quiet[i + 1]:
                    cuts.append(journal.last_seq)
                    continue
                found = heartbeat_at_or_before(journal, start)
                cut = found[0] if found is not None else 0
                cuts.append(cut)
                dropped += journal.truncate_after(cut)
        self.snapshots.discard(
            lambda seq, marks: seq > control_seq
            or any(m.seq > cut for m, cut in zip(marks or (), cuts))
        )
        self._last_snapshot_seq = min(self._last_snapshot_seq, control_seq)
        return start, dropped

    def failover_shard(self, shard_id: int) -> tuple[float, int, int, int]:
        """Rewind ONE shard's journal to its newest chunk boundary.

        The durable half of a shard failover
        (:meth:`~repro.service.daemon.TempoService.failover_shard`).
        Returns ``(boundary_time, boundary_seq, records_dropped,
        telemetry_dropped)`` — the last is the job/task telemetry subset
        of the dropped records, what the control plane subtracts from
        its ingested-telemetry counter.

        The dead worker's journal is reopened (running
        torn-tail repair over whatever the worker managed to ack before
        dying) and truncated back to its newest broadcast heartbeat —
        a *common* boundary, since heartbeats land in every journal at
        every chunk edge.  Surviving shards keep their post-boundary
        records untouched: only the dead shard pays the bounded replay.
        Snapshots whose recorded position for this shard lies past the
        cut are pruned — they cover telemetry that no longer exists in
        any journal, and resuming from one would skip the re-delivered
        records.

        Only worker shards are rewound, and a single-shard layout has
        none: its shard journal *is* the control journal, holding
        decision/config records the control plane still has in memory.
        It is refused (``ValueError``).
        """
        if not 0 <= shard_id < self.shards or self.shards == 1:
            raise ValueError(
                f"no worker journal {shard_id} to rewind in a "
                f"{self.shards}-shard state"
            )
        cached = self._shard_journals.pop(shard_id, None)
        if cached is not None:
            cached.close()
        journal = self.shard_journal(shard_id)
        boundary = journal.last_heartbeat()
        cut, when = boundary if boundary is not None else (0, 0.0)
        telemetry_dropped = sum(
            record.event_type in _TELEMETRY_EVENTS
            for record in journal.iter_records(after=cut)
        )
        dropped = journal.truncate_after(cut)
        self.snapshots.discard(
            lambda _, marks: marks is not None
            and len(marks) > shard_id
            and marks[shard_id].seq > cut
        )
        return when, cut, dropped, telemetry_dropped

    def release_shard_journal(self, shard_id: int) -> None:
        """Close and drop the parent-side handle of one shard journal.

        Worker-mode failover reopens a dead shard's journal in the
        parent just long enough to rewind and replay it; the handle must
        be released before the replacement worker opens the journal, or
        the two opens would race on the tail.
        """
        cached = self._shard_journals.pop(shard_id, None)
        if cached is not None:
            cached.close()

    # -- resharding ----------------------------------------------------------

    def reshard(self, shards: int) -> None:
        """Re-target the state dir at a new shard count.

        Only the *layout pointer* changes: existing journals stay on
        disk (records before the covering snapshot's marks are never
        refolded, and orphaned ``shard-NN`` trees beyond the new count
        are simply ignored).  The caller —
        :meth:`~repro.service.daemon.TempoService.reshard` — must
        journal each new shard's moved window and then write a snapshot
        recording the new layout, so every later resume finds a
        consistent (snapshot, journal) pair under the new routing.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        for journal in self._shard_journals.values():
            journal.close()
        self._shard_journals.clear()
        self.shards = int(shards)

    def close(self) -> None:
        """Close every open journal file handle (control and shards)."""
        self.journal.close()
        for journal in self._shard_journals.values():
            journal.close()
