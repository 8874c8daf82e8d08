"""Per-tenant sharded data plane for the serving pipeline.

PR 3 left the durable ingest path a single-threaded ceiling: one
``EventBus`` feeding one ``RollingWindow`` and one ``EventJournal``.
This module splits the serving stack into two planes:

* **Data plane** — N :class:`IngestShard` instances, each owning its own
  bounded :class:`~repro.service.events.EventBus`, its own
  :class:`~repro.service.ingest.RollingWindow`, and (when durable) its
  own :class:`~repro.service.journal.EventJournal` under
  ``<state-dir>/shard-NN/journal/``.  A :class:`ShardRouter` assigns
  every tenant to exactly one shard with a **stable** hash
  (``crc32(tenant) % shards`` — identical across processes and Python
  runs, unlike the salted builtin ``hash``), so a tenant's whole window
  state lives in one place and shard statistics merge by plain union.
* **Control plane** — :class:`~repro.service.daemon.TempoService` keeps
  the retune cadence, the guards, the controller, and the
  decision/config/rollback journal; at each cadence tick it drains every
  shard's window state, merges them through
  :meth:`~repro.service.ingest.RollingWindow.merge_states`, and tunes
  exactly as the unsharded daemon would.

Shards run **in-process** (the default — same thread, zero IPC) or as
loopback **TCP workers** (:mod:`repro.service.transport`): each worker
process owns its journal and window and receives event batches over a
socket, so journal encoding — the measured ingest bottleneck — runs on
every core instead of one.  Both modes write the same journal records
(same routing, same order, same encoder, same sequence numbers), so
resume never cares how the journals were produced.  In-process shards
hand the control plane their live window at a barrier; only a process
boundary turns it into bytes.

Every shard count runs this one pipeline: a single-shard daemon is a
:class:`ShardRouter` of one and one :class:`IngestShard`, whose journal
is the state dir's top-level journal (see
:meth:`~repro.service.snapshot.ServiceState.shard_journal`).

Crash-recovery coordination: the chunk-boundary ``Heartbeat`` the replay
driver emits is **broadcast** — journaled in the control journal *and*
every shard journal — so recovery can rewind all N+1 journals to one
common completed-chunk boundary (see
``ServiceState.rewind_to_heartbeat``).

**Supervision** (the failover plane, see :mod:`repro.service.failover`):
a failed shard surfaces as a typed :class:`ShardFailedError` whose
``reason`` names the signal — ``process-exit`` (the launcher's probe saw
the worker process exit), ``heartbeat-timeout`` (the failure detector,
fed by replies and idle pings), ``reply-timeout`` (a barrier reply
outlived ``failover_after``: reachable but wedged) or ``partition``
(the link stayed down past ``failover_after``).
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable, NamedTuple, Protocol, runtime_checkable

from repro.service.events import (
    EventBus,
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    ServiceEvent,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.service.ingest import RollingWindow

#: Directory name of shard ``i`` under a state dir.
SHARD_DIR_FMT = "shard-{:02d}"

#: Telemetry event types folded into a shard's rolling window.
_TELEMETRY_EVENTS = (JobSubmitted, TaskCompleted, JobCompleted)

#: Every event type a shard receives: telemetry, tenant churn and the
#: broadcast heartbeats (cluster-level events stay on the control plane).
_SHARD_EVENTS = frozenset(_TELEMETRY_EVENTS + (TenantJoined, TenantLeft, Heartbeat))


class ShardMark(NamedTuple):
    """What a snapshot records of one shard in place of its window.

    Attributes:
        seq: The shard journal's newest seq the snapshot covers.
        clock: The shard window's clock.
        events: The shard window's ingest count.
        mark: The journal's low-water mark: first seq of the first
            segment holding an event at or after the window's earliest
            retained entry (``seq + 1`` for an empty window).  Folding
            the journal from ``mark`` to ``seq`` reproduces the window.
    """

    seq: int
    clock: float
    events: int
    mark: int


class ShardFailedError(RuntimeError):
    """A data-plane shard failed and needs failover.

    Subclasses :class:`RuntimeError` so pre-failover call sites that
    caught the untyped worker error keep working; supervision-aware
    callers (the daemon's drain barriers) catch this type specifically
    and run :meth:`~repro.service.daemon.TempoService.failover_shard`
    instead of crashing the control plane.
    """

    def __init__(self, shard_id: int, reason: str, message: str | None = None):
        super().__init__(message or f"shard {shard_id} failed: {reason}")
        #: Which shard failed.
        self.shard_id = int(shard_id)
        #: Short detection cause: ``process-exit``, ``heartbeat-timeout``,
        #: ``reply-timeout``, ``worker-error``, or an injected fault name.
        self.reason = str(reason)


class ShardPartitionedError(RuntimeError):
    """A shard is unreachable but not (yet) declared failed.

    The transport raises it from synchronous barriers while a network
    partition is in flight and the outage is still inside
    ``failover_after``.  Deliberately **not** a
    :class:`ShardFailedError` subclass: the supervised retry wrapper
    must let it propagate so the control plane can serve stale merged
    statistics (degraded mode) instead of triggering a failover the
    partition policy says is premature.
    """

    def __init__(self, shard_id: int, message: str | None = None):
        super().__init__(message or f"shard {shard_id} partitioned")
        #: Which shard is unreachable.
        self.shard_id = int(shard_id)


@runtime_checkable
class ShardHandle(Protocol):
    """Minimal surface the control plane needs from any shard.

    Implemented by the in-process :class:`IngestShard` and the TCP
    :class:`~repro.service.transport.RemoteShardHandle`, so the daemon,
    its drain barriers, and ``failover_shard`` stay transport-agnostic:
    they call this protocol and probe optional capabilities (``kill``
    for fencing, ``stall``/``slow_journal``/``inject_*`` for fault
    injection) with ``getattr``, never ``isinstance`` on a concrete
    handle class.

    ``alive`` is an attribute/property (liveness), ``heartbeat_age``
    the freshness signal the failure detector consumes, ``ingest`` the
    asynchronous dispatch, ``drain_state``/``drain_stats`` the
    synchronous barriers, and ``restore``/``close`` lifecycle.
    """

    shard_id: int

    def ingest(self, events: list[ServiceEvent]) -> None:
        """Dispatch one event batch (may return before it is applied)."""

    def drain_state(self, now: float) -> dict:
        """Barrier: apply queued batches, advance, return window state.

        ``window`` is the live window in-process and its
        :meth:`~repro.service.ingest.RollingWindow.to_state` bytes
        across a process boundary; merge both with
        :meth:`~repro.service.ingest.RollingWindow.merge_states`.
        """

    def drain_stats(self, now: float) -> dict:
        """Barrier: apply queued batches, return per-tenant statistics."""

    def checkpoint(self, now: float) -> dict:
        """Barrier: apply queued batches, advance, return the shard's
        :class:`ShardMark` (no window bytes) for a snapshot."""

    def heartbeat_age(self) -> float:
        """Seconds since the shard last proved liveness (0 = in-process)."""

    def restore(self, window_state: bytes) -> None:
        """Replace the shard's window with a persisted state."""

    def close(self) -> None:
        """Stop the shard, flushing its journal."""


def shard_dir_name(shard_id: int) -> str:
    """Directory name of one shard's durable home (``shard-NN``)."""
    return SHARD_DIR_FMT.format(shard_id)


def stable_shard(tenant: str, shards: int) -> int:
    """Deterministic tenant-to-shard assignment, stable across processes.

    ``crc32`` rather than ``hash``: the builtin string hash is salted
    per interpreter, and a routing function that changes between runs
    would scatter a resumed daemon's tenants across the wrong journals.
    """
    if shards <= 1:
        return 0
    return zlib.crc32(tenant.encode("utf-8")) % shards


def tenant_of(event: ServiceEvent) -> str | None:
    """The tenant an event is scoped to (None for cluster-level events)."""
    if isinstance(event, (TaskCompleted, JobCompleted)):
        return event.record.tenant
    tenant = getattr(event, "tenant", None)
    return tenant if isinstance(tenant, str) else None


class ShardRouter:
    """Stable tenant-hash routing of telemetry onto N shards.

    Tenant-scoped events (job/task telemetry and tenant churn) route to
    ``crc32(tenant) % shards``; cluster-level control events (node
    loss/recovery) belong to the control plane; heartbeats are broadcast
    (control plane *and* every shard) so all journals share chunk
    boundaries.  Routing decisions are memoized per tenant — the hot
    path is one dict hit.
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self._assignment: dict[str, int] = {}

    def __repr__(self) -> str:
        return f"ShardRouter(shards={self.shards}, tenants={len(self._assignment)})"

    def shard_of(self, tenant: str) -> int:
        """Owning shard of ``tenant`` (memoized stable hash)."""
        shard = self._assignment.get(tenant)
        if shard is None:
            shard = self._assignment[tenant] = stable_shard(tenant, self.shards)
        return shard

    def route(self, event: ServiceEvent) -> int | None:
        """Owning shard of one event, or ``None`` for control-plane events."""
        tenant = tenant_of(event)
        if tenant is None:
            return None
        return self.shard_of(tenant)

    def partition(self, events: Iterable[ServiceEvent]) -> "RoutedBatch":
        """Route a batch in one pass, with the control plane's bookkeeping.

        Relative order is preserved within every output list.
        Heartbeats appear in the control list *and* every shard list
        (the broadcast that keeps chunk boundaries common across
        journals); all other cluster-level events appear only in the
        control list.  The same pass collects what the control plane
        accounts for the batch: the events with a control-plane effect
        (tenant churn and every cluster-level event but heartbeats), the
        telemetry count, and the newest event time.
        """
        parts: list[list[ServiceEvent]] = [[] for _ in range(self.shards)]
        control: list[ServiceEvent] = []
        effects: list[ServiceEvent] = []
        telemetry = 0
        newest = -math.inf
        assignment = self._assignment
        for event in events:
            if event.time > newest:
                newest = event.time
            kind = type(event)
            if kind is JobSubmitted or kind is TaskCompleted or kind is JobCompleted:
                telemetry += 1
                tenant = event.tenant if kind is JobSubmitted else event.record.tenant
            else:
                tenant = tenant_of(event)
                if kind is not Heartbeat:
                    effects.append(event)
                if tenant is None:
                    control.append(event)
                    if kind is Heartbeat:
                        for part in parts:
                            part.append(event)
                    continue
            shard = assignment.get(tenant)
            if shard is None:
                shard = self.shard_of(tenant)
            parts[shard].append(event)
        return RoutedBatch(parts, control, effects, telemetry, newest)


class RoutedBatch(NamedTuple):
    """One batch after :meth:`ShardRouter.partition`.

    Attributes:
        parts: Per-shard event lists (tenant events and heartbeats).
        control: Cluster-level events, heartbeats included — the
            control journal's share of the batch.
        effects: Events the control plane applies (tenant churn and
            cluster-level events other than heartbeats), in order.
        telemetry: Job/task telemetry events in the batch.
        newest: Newest event time in the batch (``-inf`` when empty).
    """

    parts: list
    control: list
    effects: list
    telemetry: int
    newest: float


class IngestShard:
    """One data-plane worker: own bus, own rolling window, own journal.

    A batch is journaled **write-ahead** with one group commit
    (:meth:`~repro.service.journal.EventJournal.append_events`),
    telemetry folds through
    :meth:`~repro.service.ingest.RollingWindow.ingest_many` with one
    eviction pass, and tenant-churn events flush pending telemetry
    before acting, so a departing tenant's window state is dropped at
    exactly its stream position.

    The shard never retunes and never looks at other shards — the
    control plane merges window states at cadence ticks.  ``bus`` is
    the shard's bounded intake queue for daemon-style feeding
    (:meth:`submit` + :meth:`flush_bus`); the batch pipeline bypasses
    it and hands lists straight to :meth:`ingest`.
    """

    #: In-process shards never fail on their own; the fault injector's
    #: :class:`~repro.service.failover.DeadShard` stand-in flips this.
    alive = True

    def __init__(
        self,
        shard_id: int,
        window: float,
        *,
        journal=None,
        queue_capacity: int = 100_000,
        metrics=None,
    ):
        self.shard_id = int(shard_id)
        self.window = RollingWindow(window)
        self.bus = EventBus(queue_capacity)
        self.journal = journal
        #: Shard-local metrics registry (or ``None``): a worker-process
        #: shard counts its journal activity here, and the control plane
        #: merges the dumps riding its drain barriers.
        self.metrics = metrics
        if metrics is not None and journal is not None:
            journal.metrics = metrics

    def __repr__(self) -> str:
        return (
            f"IngestShard(id={self.shard_id}, tenants={len(self.window.tenants())}, "
            f"seq={self.last_seq})"
        )

    @property
    def last_seq(self) -> int:
        """Newest journaled sequence number (0 without a journal)."""
        return 0 if self.journal is None else self.journal.last_seq

    def ingest(self, events: list[ServiceEvent]) -> None:
        """Journal a batch write-ahead, then fold it into the window."""
        if not events:
            return
        if self.journal is not None:
            self.journal.append_events(events)
        self.fold(events)

    def fold(self, events: list[ServiceEvent]) -> None:
        """Apply a batch to the window (the replay path: nothing journaled)."""
        window = self.window
        pending: list[ServiceEvent] = []
        for event in events:
            if isinstance(event, _TELEMETRY_EVENTS):
                pending.append(event)
            else:
                # Control events (heartbeat broadcast, tenant churn)
                # flush pending telemetry first so their effect lands at
                # the exact stream position, then advance the clock.
                if pending:
                    window.ingest_many(pending)
                    pending.clear()
                if isinstance(event, TenantLeft):
                    window.drop_tenant(event.tenant)
                window.advance(event.time)
        if pending:
            window.ingest_many(pending)

    def submit(self, event: ServiceEvent) -> bool:
        """Publish onto the shard's bounded intake bus (False when shed)."""
        return self.bus.publish(event)

    def flush_bus(self, limit: int | None = None) -> int:
        """Ingest everything queued on the intake bus; returns the count."""
        events = self.bus.drain(limit)
        if events:
            self.ingest(events)
        return len(events)

    def advance(self, now: float) -> None:
        """Move the shard clock forward (evicting expired entries)."""
        self.window.advance(now)

    def heartbeat_age(self) -> float:
        """Always fresh: an in-process shard shares the caller's thread."""
        return 0.0

    def drain_state(self, now: float) -> dict:
        """Advance to ``now`` and hand over the shard's mergeable state.

        The control plane calls this when it needs the *full* window —
        an applied tune's trace, a reshard or a worker promotion.  The
        returned dict's ``window`` is the live :class:`RollingWindow`
        (no bytes round trip in-process; a worker encodes it with
        :meth:`RollingWindow.to_state` before it crosses the process
        boundary), beside the shard's journal position.
        """
        self.window.advance(now)
        state = {"shard": self.shard_id, "window": self.window, "seq": self.last_seq}
        if self.metrics is not None:
            state["metrics"] = self.metrics.to_dict()
        return state

    def drain_stats(self, now: float) -> dict:
        """Advance to ``now`` and return per-tenant statistics only.

        The cadence tick's cheap path: O(tenants) running-sums
        snapshots (and, for a TCP worker, a few hundred bytes over the
        socket) instead of the full O(retained-entries) window dump —
        the guards decide on merged statistics, and the full state is
        only drained when a tune actually proceeds.
        """
        self.window.advance(now)
        return self.window.snapshot()

    def checkpoint(self, now: float) -> dict:
        """Advance to ``now`` and return what a snapshot records of the
        shard: its :class:`ShardMark` (plus its metrics dump, like a
        drain).  No window entry is encoded: the journal holds them,
        from the mark on."""
        window = self.window
        window.advance(now)
        seq = self.last_seq
        earliest = window.earliest()
        if earliest is None or self.journal is None:
            mark = seq + 1
        else:
            mark = self.journal.low_water(earliest)
        state = {
            "shard": self.shard_id,
            "mark": ShardMark(seq, window.now, window.events_ingested, mark),
        }
        if self.metrics is not None:
            state["metrics"] = self.metrics.to_dict()
        return state

    def rebuild(self, journal, mark: ShardMark) -> int:
        """Rebuild the window from ``journal`` as a snapshot recorded it.

        Folds the records from ``mark.mark`` through ``mark.seq``
        window-only — the shard's own events through :meth:`fold`, a
        reshard's ``"window"`` record by replacing the window with the
        one it carries, everything else (control events and records of
        a single-shard layout's shared journal) skipped — then settles
        the clock and ingest count the snapshot recorded.  A prefix a
        compaction deleted held no retained entry (compaction is
        anchored on the oldest retained snapshot's marks), so folding
        starts wherever the journal does.  Returns the records refolded.
        """
        self.window = RollingWindow(self.window.window)
        bound = journal.segment_records
        run: list[ServiceEvent] = []
        refolded = 0
        if mark.mark <= mark.seq:
            for record in journal.iter_records(after=mark.mark - 1):
                if record.seq > mark.seq:
                    break
                if record.kind == "window":
                    run = []  # superseded: the record is the whole window
                    self.window = RollingWindow.from_state(record.body)
                elif record.event_type in _SHARD_EVENTS:
                    run.append(record.event)
                    if len(run) >= bound:
                        self.fold(run)
                        run = []
                else:
                    continue
                refolded += 1
        self.fold(run)
        self.window.settle(mark.clock, mark.events)
        return refolded

    def restore(self, window_state: bytes) -> None:
        """Replace the shard's window with a persisted state."""
        self.window = RollingWindow.from_state(window_state)

    def close(self) -> None:
        """Close the shard journal (pending appends are flushed)."""
        if self.journal is not None:
            self.journal.close()
