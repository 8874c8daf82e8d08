"""The streaming Tempo daemon: background retuning beside a live RM.

:class:`TempoService` turns the batch :class:`~repro.core.controller.
TempoController` into an always-on component in the spirit of autonomic
database daemons (H2O) and stability-aware online tuners (SAM):

* telemetry events flow in (in journal-group-committed chunks via
  :meth:`TempoService.ingest_batch` — :meth:`TempoService.process` is a
  batch of one — or asynchronously through a bounded
  :class:`~repro.service.events.EventBus` drained in batches by a
  background thread);
* a :class:`~repro.service.ingest.RollingWindow` keeps per-tenant
  workload statistics current at O(1) per event;
* on a configurable cadence the daemon attempts a retune — guarded by a
  **stability check** (skip when the window statistics have not
  materially drifted since the last applied tune) and a **sparsity
  check** (skip when the window holds too few jobs to carry signal);
* a retune hands the window's trace to
  :meth:`~repro.core.controller.TempoController.tune_from_trace`, whose
  own revert guard compares the multi-window-averaged observed QS
  vector against the previously applied configuration's baseline and
  rolls back regressions before optimizing further;
* observed :class:`~repro.service.events.NodeLost` telemetry shrinks
  the what-if cluster — and :class:`~repro.service.events.NodeRecovered`
  grows it back (clamped to the loss actually observed) — so candidate
  configurations are evaluated on the capacity that actually remains,
  not just used as a forced-retune signal;
* every applied configuration is recorded as an atomic
  :class:`ConfigSnapshot` so operators can :meth:`~TempoService.rollback`
  past that guard.

When constructed with a :class:`~repro.service.snapshot.ServiceState`,
the daemon is **durable**: every event, decision, applied configuration,
and rollback is journaled write-ahead, full-state snapshots are written
periodically, and :meth:`TempoService.resume` rebuilds a killed daemon
from its state directory — replaying the journal tail over the newest
snapshot — with window statistics again verifiable against a batch
recompute and the config history intact.

The service is split into two planes (see
:mod:`repro.service.sharding`).  The **data plane** is N
:class:`~repro.service.sharding.IngestShard` instances — each owning a
bus, a rolling window, and (durable, sharded) its own journal — with
telemetry routed per tenant by a stable hash; shards run in-process or
as loopback TCP worker processes (:mod:`repro.service.transport`).
The **control plane** is this class: it owns the cadence, the guards,
the controller, the rollback history, and the decision/config journal,
and at every cadence tick it drains the shards' window states and
merges them
(:meth:`~repro.service.ingest.RollingWindow.merge_states`) before
deciding exactly as a single window would.  Every shard count runs the
same route → shard ingest → account → drain/merge → snapshot path;
``shards=1`` (the default) is that path with one shard, whose journal
is the state dir's top-level (control) journal.

The daemon's clock is *simulated time carried by the events*, never the
wall clock — a serving run is exactly reproducible from its event
stream.
"""

from __future__ import annotations

import math
import os
import threading
import time as _time
from collections import deque
from dataclasses import dataclass
from operator import methodcaller
from typing import NamedTuple

from repro.core.controller import ControlIteration, TempoController
from repro.core.decisions import DecisionEngine, DecisionRecord, TickSignals
from repro.obs import (
    BACKOFF_BUCKETS,
    BATCH_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    RESIDUAL_BUCKETS,
    Span,
)
from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig
from repro.service.events import (
    DecisionMade,
    EventBus,
    NodeLost,
    NodeRecovered,
    ServiceEvent,
    ShardFailed,
    ShardPartitioned,
    ShardReconnected,
    ShardRecovered,
    TenantJoined,
    TenantLeft,
)
from repro.service.failover import FailoverConfig, FailoverReport, FailureDetector
from repro.service.ingest import (
    RollingWindow,
    TenantWindowStats,
    stats_gap,
    window_drift,
)
from repro.service.journal import JournalError, JournalRecord, encode_event
from repro.service.sharding import (
    IngestShard,
    RoutedBatch,
    ShardFailedError,
    ShardMark,
    ShardPartitionedError,
    ShardRouter,
)
from repro.service.transport import (
    RemoteShardHandle,
    TransportConfig,
    start_remote_shards,
)
from repro.service.snapshot import (
    ServiceState,
    config_from_dict,
    config_to_dict,
    controller_state_dict,
    inf_from_null,
    inf_to_null,
    restore_controller_state,
    stats_from_dict,
    stats_to_dict,
)
from repro.workload.model import capacity_floor

#: Maximum events pulled off the bus per drain-loop iteration; one
#: :meth:`TempoService.ingest_batch` call journals and folds the whole
#: batch, so a backlogged bus is drained at group-commit speed.
_DRAIN_BATCH = 512


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of :class:`TempoService`.

    Attributes:
        window: Rolling statistics window length in seconds (the paper's
            observation interval ``L``).
        retune_interval: Seconds of simulated time between retune
            attempts (the control cadence).
        drift_threshold: Minimum :func:`~repro.service.ingest.
            window_drift` versus the last *applied* tune's snapshot for
            a retune to proceed; below it the guard reports "stable".
        min_window_jobs: Minimum completed jobs in the window for a
            retune to proceed; below it the guard reports "sparse".
        history: Number of applied-configuration snapshots retained for
            rollback.
        decision_history: Retune decisions retained in memory (and in
            state snapshots — every snapshot re-serializes the retained
            deque, so the bound is what keeps snapshot size and write
            time flat over a daemon's lifetime).  The default keeps
            ~six weeks of decisions at a 15-minute cadence; the
            ``retunes``/``skips`` counters only see the retained window.
        queue_capacity: Bound of the daemon's event bus.
        observe: Whether the service carries live metrics (the
            observability plane of :mod:`repro.obs`).  ``False`` swaps
            every registry for a no-op stand-in — the uninstrumented
            baseline ``bench_perf_obs_overhead.py`` measures against.
        sample_metrics: Whether to *persist* metrics: include the merged
            registry dump in state snapshots and journal one
            ``metrics`` record (:class:`~repro.service.events.
            MetricsSampled`) per cadence tick.  Off by default so the
            journal and snapshot bytes of API-constructed services stay
            exactly as before; the CLI turns it on for its state dirs.
    """

    window: float = 1800.0
    retune_interval: float = 900.0
    drift_threshold: float = 0.02
    min_window_jobs: int = 5
    history: int = 16
    decision_history: int = 4096
    queue_capacity: int = 100_000
    observe: bool = True
    sample_metrics: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.retune_interval <= 0:
            raise ValueError(
                f"retune_interval must be positive, got {self.retune_interval}"
            )
        if self.drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if self.min_window_jobs < 0:
            raise ValueError("min_window_jobs must be non-negative")
        if self.history < 2:
            raise ValueError("history must be >= 2 (incumbent + predecessor)")
        if self.decision_history < 1:
            raise ValueError("decision_history must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


@dataclass(frozen=True)
class RetuneDecision:
    """Outcome of one cadence tick of the daemon.

    Attributes:
        time: Simulated time of the attempt.
        index: Control-iteration index (shared with the controller).
        retuned: Whether a tune actually ran.
        reason: ``"initial"``, ``"drift"``, or ``"forced"`` when retuned;
            ``"stable"`` or ``"sparse"`` when skipped.
        drift: The stability signal measured at the attempt.
        record: The decision plane's full
            :class:`~repro.core.decisions.DecisionRecord` (verdict,
            guard votes, prediction/observation/residual).
        latency: Wall-clock seconds the tune took (0.0 when skipped).
        iteration: The controller's record when retuned, else ``None``.
    """

    time: float
    index: int
    retuned: bool
    reason: str
    drift: float
    record: DecisionRecord
    latency: float = 0.0
    iteration: ControlIteration | None = None

    @property
    def verdict(self) -> str:
        """The decision plane's verdict for this cadence tick."""
        return self.record.verdict


class ResumeCost(NamedTuple):
    """What the :meth:`TempoService.resume` that built a service cost.

    Attributes:
        after: Control-journal seq of the snapshot resumed from (0:
            none was readable).
        replayed: Journal records replayed past the snapshot, across
            every journal.
        refolded: Journal records refolded window-only, from each
            shard's low-water mark up to the snapshot's seq.
        seconds: Wall seconds of the whole resume.
    """

    after: int
    replayed: int
    refolded: int
    seconds: float


@dataclass(frozen=True)
class ConfigSnapshot:
    """Atomic record of an applied RM configuration (rollback unit)."""

    index: int
    time: float
    config: RMConfig


class TempoService:
    """Long-running serving loop around a :class:`TempoController`.

    Synchronous use (deterministic; what the replay driver and tests do)::

        service = TempoService(controller)
        for event in telemetry:
            service.process(event)

    Daemon use (asynchronous; a producer publishes to the bus)::

        service.start()
        service.submit(event)   # from any thread
        ...
        service.stop()          # drains the queue, then joins

    Args:
        controller: The tuned control loop; its ``config`` is the live
            RM configuration the service manages.
        config: Operational knobs (cadence, window, guards).
        bus: Optional externally owned event bus.
        state: Optional durable home (journal + snapshots).  When given,
            every event is journaled *before* it is processed and the
            service can later be rebuilt with :meth:`resume`.  Its shard
            layout must match ``shards``.
        shards: Data-plane shard count.  Telemetry routes per tenant
            onto N :class:`~repro.service.sharding.IngestShard`
            instances whose statistics the control plane merges at each
            cadence tick; ``1`` (the default) is the same pipeline with
            one shard, whose journal is the state dir's top-level
            journal.
        tcp_workers: Run the shards as loopback **TCP** worker
            processes (each owning its journal and window) behind
            :class:`~repro.service.transport.RemoteShardHandle` proxies
            instead of in-process objects.  Batches are acknowledged
            when queued to a worker, so durability lags acknowledgement
            by the queue depth; batches lost with a worker are recovered
            by the chunk-boundary rewind.  The transport adds partition
            tolerance (bounded buffering, backoff reconnect,
            degraded-mode serving), and a worker whose process exits is
            failed over at the next supervised touch.  Requires
            ``shards >= 2`` (see :func:`check_worker_plane`).
        shard_endpoints: Addresses of operator-managed ``repro worker``
            processes, one ``(host, port)`` per shard — the service
            connects instead of spawning.  Exclusive with
            ``tcp_workers`` and with durable ``state`` (external workers
            own their journals end to end); requires ``shards >= 2``.
        transport: Optional :class:`~repro.service.transport.
            TransportConfig` tuning the TCP planes' timeouts, backoff,
            and send-queue bound.
        failover: Optional :class:`~repro.service.failover.
            FailoverConfig` enabling shard supervision: worker shards
            emit heartbeats, a :class:`~repro.service.failover.
            FailureDetector` declares dead ones, and every barrier that
            observes a dead shard triggers :meth:`failover_shard` — the
            dead shard's journal rewinds to its newest heartbeat
            boundary, a replacement is spawned and replayed, and the
            failed call is retried once against it.  ``None`` (the
            default) keeps the pre-supervision behavior: a dead shard
            raises :class:`~repro.service.sharding.ShardFailedError`.
    """

    def __init__(
        self,
        controller: TempoController,
        config: ServiceConfig | None = None,
        bus: EventBus | None = None,
        state: ServiceState | None = None,
        *,
        shards: int = 1,
        tcp_workers: bool = False,
        shard_endpoints: list | None = None,
        transport: TransportConfig | None = None,
        failover: FailoverConfig | None = None,
    ):
        self.controller = controller
        self.config = config or ServiceConfig()
        # One decision plane shared with the controller: the daemon
        # consults it at each cadence tick (sparsity/stability phase),
        # the controller in the revert phase of the tune itself.
        self.engine: DecisionEngine = controller.engine
        self._decision_listeners: list = []
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if state is not None and state.shards != shards:
            raise ValueError(
                f"state dir is laid out for {state.shards} shard(s) but the "
                f"service was built with {shards}; resume with --reshard to "
                "change the layout"
            )
        check_worker_plane(
            shards, tcp_workers=tcp_workers, shard_endpoints=shard_endpoints
        )
        self.bus = bus or EventBus(self.config.queue_capacity)
        self.state = state
        self.router = ShardRouter(shards)
        #: TCP loopback worker fleet (see :mod:`repro.service.transport`).
        self.tcp_workers = bool(tcp_workers)
        #: Operator-managed worker addresses (``repro worker`` peers).
        self.shard_endpoints = None
        if shard_endpoints is not None:
            if self.tcp_workers:
                raise ValueError("shard_endpoints is exclusive with tcp_workers")
            if len(shard_endpoints) != shards:
                raise ValueError(
                    f"{len(shard_endpoints)} endpoint(s) for {shards} shard(s)"
                )
            if state is not None:
                raise ValueError(
                    "durable state with external workers is not supported; "
                    "give each `repro worker` its own --journal instead"
                )
            self.shard_endpoints = [
                (str(host), int(port)) for host, port in shard_endpoints
            ]
        self.transport = transport
        self._launcher = None
        self.failover = failover
        self.detector = FailureDetector(failover) if failover is not None else None
        #: Completed failovers, newest last (see ``repro chaos``).
        self.failovers: list[FailoverReport] = []
        self.shard_failures = 0
        self.shard_recoveries = 0
        # Control-plane registry: ingest, the decision plane, the retune
        # loop, and every journal the parent writes count here.  Worker
        # shards keep their own registries (merged at drain barriers).
        self.metrics = MetricsRegistry() if self.config.observe else NullRegistry()
        if state is not None and self.config.observe:
            state.journal.metrics = self.metrics
        #: Latest metrics dump drained from each worker shard, and the
        #: pre-promotion/restored base it accumulates on top of.
        self._shard_metrics: dict[int, dict] = {}
        self._shard_metrics_base: dict[int, dict] = {}
        self._last_metrics_sample: dict | None = None
        #: Partition episodes in flight: shard id -> simulated start time.
        self._partitioned: dict[int, float] = {}
        #: Last successfully drained stats/state per shard (the stale
        #: copies degraded-mode serving hands out through a partition).
        self._stats_cache: dict[int, dict] = {}
        self._state_cache: dict[int, dict] = {}
        self._mark_cache: dict[int, dict] = {}
        #: Barrier calls answered from a stale cache (degraded serves).
        self.stale_serves = 0
        self.shard_partitions = 0
        self.shard_reconnects = 0
        #: Transport counters folded in from handles failover replaced,
        #: and the last totals scraped into the metrics registry.
        self._transport_base: dict[int, dict] = {}
        self._transport_seen: dict[tuple, int] = {}
        if self.tcp_workers:
            if state is not None:
                # Workers own their journals; the parent must neither
                # open nor compact them while the workers run.
                state.shard_compaction = False
                paths = [state.shard_journal_path(i) for i in range(shards)]
                opts = state.shard_journal_opts()
            else:
                paths, opts = None, None
            self.shards, self._launcher = start_remote_shards(
                shards, self.config.window, paths, opts,
                observe=self.config.observe, config=self.transport,
                **self._supervision(),
            )
        elif self.shard_endpoints is not None:
            self.shards = [
                RemoteShardHandle(
                    i, self.shard_endpoints[i], config=self.transport,
                    **self._supervision(),
                )
                for i in range(shards)
            ]
        else:
            self.shards = [self._new_shard(i) for i in range(shards)]
        self._m_ingest_events = self.metrics.counter(
            "tempo_ingest_events_total",
            "Events ingested or replayed (telemetry and control).",
        )
        self._m_ingest_batches = self.metrics.counter(
            "tempo_ingest_batches_total", "Ingest batches processed."
        )
        # Exposed from the start, so a scrape reads 0 — not "absent" —
        # before the first what-if evaluation.
        self._m_whatif_evals = self.metrics.counter(
            "tempo_whatif_evaluations_total",
            "Candidate simulations actually executed (cache misses).",
        )
        self._m_whatif_hits = self.metrics.counter(
            "tempo_whatif_cache_hits_total",
            "What-if candidates served by the retune's model cache "
            "(in-batch duplicates, guard re-evaluations).",
        )
        self._now = 0.0
        self._telemetry = 0
        self.decisions: deque[RetuneDecision] = deque(
            maxlen=self.config.decision_history
        )
        self.active_tenants: set[str] = set()
        self.nodes_lost = 0
        self.nodes_recovered = 0
        self.lost_capacity: dict[str, int] = {}
        self._history: deque[ConfigSnapshot] = deque(maxlen=self.config.history)
        self._history.append(ConfigSnapshot(-1, 0.0, controller.config))
        self._last_attempt: float | None = None
        self._last_snapshot: dict[str, TenantWindowStats] | None = None
        self._index = 0
        self._force = False
        self._events = 0
        self._bus_consumed = 0  # bus-delivered events fully processed
        self._replaying = False
        #: The :class:`ResumeCost` of the :meth:`resume` that built this
        #: service; ``None`` for a fresh one.
        self.last_resume: ResumeCost | None = None
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._drain_error: BaseException | None = None
        # Last-scraped cumulative evalplane counters (metrics deltas).
        self._whatif_seen = {"sim_runs": 0, "hits": 0}

    def __repr__(self) -> str:
        return (
            f"TempoService(shards={self.router.shards}, events={self._events}, "
            f"retunes={self.retunes}, skips={self.skips}, now={self.now:.0f}s)"
        )

    def _new_shard(self, shard_id: int) -> IngestShard:
        """Build one in-process serving shard — the plane's one factory.

        Its journal is the state dir's journal for ``shard_id`` (at one
        shard, the top-level journal itself), counted in the control
        registry: an in-process shard runs on the control plane's
        thread, so one registry needs no merge.
        """
        journal = None
        if self.state is not None:
            journal = self.state.shard_journal(shard_id)
            if self.config.observe:
                journal.metrics = self.metrics
        return IngestShard(
            shard_id,
            self.config.window,
            journal=journal,
            queue_capacity=self.config.queue_capacity,
        )

    # -- data-plane views ---------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Data-plane shard count."""
        return self.router.shards

    @property
    def now(self) -> float:
        """Latest simulated event time the service has seen."""
        return self._now

    @property
    def window(self) -> RollingWindow:
        """The service's rolling window, advanced to :attr:`now`.

        Every shard is drained and the parts merged.  One in-process
        shard hands over its live window, so that is what comes back
        (mutating it mutates the shard); any other plane yields a
        *merged copy* — a consistent read-only view whose mutations do
        not feed back into the shards.  Supervised planes sweep for dead
        shards first, so introspection after a crash triggers the same
        failover an ingest call would.
        """
        if self.failover is not None:
            self.check_shards()
        with self._lock:
            return self._control_window(self._now)

    @property
    def telemetry_ingested(self) -> int:
        """Telemetry events routed to the data plane (control excluded)."""
        return self._telemetry

    def _drain_shards(self, now: float, verb: str = "drain_state") -> list[dict]:
        """Advance every shard to ``now`` and collect their states.

        ``verb`` is the barrier: ``drain_state`` hands over each window,
        ``checkpoint`` only each shard's :class:`ShardMark` (a
        snapshot's view).  For worker shards this is the
        synchronization barrier: the reply necessarily follows every
        batch queued before it.  Shard metrics dumps ride the same
        barrier — the control plane caches the latest one per shard for
        merging, exactly like window stats.
        """
        cache = self._state_cache if verb == "drain_state" else self._mark_cache
        states = []
        for i in range(len(self.shards)):
            try:
                drained = self._supervised(i, methodcaller(verb, now))
            except ShardPartitionedError:
                drained = self._stale_state(i, verb)
            else:
                self._note_reconnected(i)
                cache[i] = drained
            states.append(drained)
        for state in states:
            dump = state.get("metrics")
            if dump:
                self._shard_metrics[int(state["shard"])] = dump
        return states

    def _stale_state(self, shard_id: int, verb: str) -> dict:
        """Degraded mode: the last drained state of a partitioned shard.

        Before the first successful drain there is nothing cached; an
        empty window at journal position 0 is returned instead, which
        is always safe — a snapshot recording seq 0 for the shard just
        replays its journal from the start on resume.
        """
        self._note_partitioned(shard_id)
        if verb == "checkpoint":
            return self._mark_cache.get(shard_id) or {
                "shard": shard_id,
                "mark": ShardMark(0, 0.0, 0, 1),
            }
        return self._state_cache.get(shard_id) or {
            "shard": shard_id,
            "window": RollingWindow(self.config.window).to_state(),
            "seq": 0,
        }

    def _merged_shard_snapshot(self, now: float) -> dict[str, TenantWindowStats]:
        """Per-tenant statistics merged across every shard — O(tenants).

        The cadence tick's guard view: each shard contributes its
        running-sums snapshot (no window entries cross a process
        boundary), and same-tenant parts — which the per-tenant routing
        invariant makes a degenerate single-part case — combine through
        :meth:`TenantWindowStats.merged`.
        """
        at = max(now, self._now)
        merged: dict[str, TenantWindowStats] = {}
        for i in range(len(self.shards)):
            try:
                drained = self._supervised(i, lambda shard: shard.drain_stats(at))
            except ShardPartitionedError:
                self._note_partitioned(i)
                drained = self._stats_cache.get(i, {})
            else:
                self._note_reconnected(i)
                self._stats_cache[i] = dict(drained)
            for name, stats in drained.items():
                mine = merged.get(name)
                if mine is None:
                    merged[name] = stats
                else:
                    merged[name] = TenantWindowStats.merged(
                        [mine, stats], self.config.window
                    )
        return merged

    def _control_window(self, now: float) -> RollingWindow:
        """The window the control plane decides on at a cadence tick.

        Every shard advanced to the global clock and merged into one
        window, so the merged statistics equal what a single window
        ingesting the whole stream would report.  In-process shards hand
        over their live windows (no bytes round trip), and merging one
        part returns it.
        """
        states = self._drain_shards(max(now, self._now))
        return RollingWindow.merge_states([s["window"] for s in states])

    def stats_gap_now(self) -> float:
        """Worst incremental-vs-batch stats deviation across the data plane.

        In-process shards check the live accumulators directly; worker
        shards are checked through their drained state (the
        refold-vs-``fsum`` comparison on the merged window).
        """
        with self._lock:
            if self.failover is not None:
                self.check_shards()
            if any(not hasattr(shard, "window") for shard in self.shards):
                # Worker shards hold their windows behind a process
                # boundary: check the merged drained state.
                return stats_gap(self._control_window(self._now))
            return max(stats_gap(shard.window) for shard in self.shards)

    def close(self) -> None:
        """Shut the data plane down.

        Flushes and closes every shard journal; worker shards are
        stopped and joined.  The control journal belongs to the
        :class:`~repro.service.snapshot.ServiceState` and is closed by
        its owner.
        """
        for shard in self.shards:
            shard.close()
        if self._launcher is not None:
            self._launcher.close()

    # -- failover plane -----------------------------------------------------

    def _supervised(self, shard_id: int, call):
        """Run one shard barrier call; on a shard failure, fail over and retry.

        Every synchronous interaction with a shard flows through here.
        A :class:`~repro.service.sharding.ShardFailedError` — a dead
        worker process, a reply past the supervised bound, an injected
        fault — triggers :meth:`failover_shard` and ONE retry against
        the replacement.  Without a failover config the error
        propagates, preserving the pre-supervision contract.
        """
        try:
            return call(self.shards[shard_id])
        except ShardFailedError as exc:
            if self.failover is None:
                raise
            self.failover_shard(shard_id, exc.reason)
            return call(self.shards[shard_id])

    def _note_partitioned(self, shard_id: int) -> None:
        """Account one stale serve; open a partition episode if needed.

        First stale serve of an episode journals a
        :class:`~repro.service.events.ShardPartitioned` control event
        and raises the per-shard staleness gauge, so dashboards and a
        later resume both see when degraded-mode serving started.
        """
        self.stale_serves += 1
        self.metrics.counter(
            "tempo_shard_stale_serves_total",
            "Barrier calls answered from a stale cache through a partition.",
            shard=str(shard_id),
        ).inc()
        if shard_id in self._partitioned:
            return
        self._partitioned[shard_id] = self._now
        self.metrics.gauge(
            "tempo_shard_partitioned",
            "1 while the shard is unreachable and served from stale stats.",
            shard=str(shard_id),
        ).set(1.0)
        event = ShardPartitioned(max(self._now, 0.0), shard=shard_id)
        if self.state is not None and not self._replaying:
            self.state.record_event(encode_event(event))
        self._apply_control(event)
        self._events += 1

    def _note_reconnected(self, shard_id: int) -> None:
        """Close a partition episode after a successful fresh drain."""
        started = self._partitioned.pop(shard_id, None)
        if started is None:
            return
        self.metrics.gauge(
            "tempo_shard_partitioned",
            "1 while the shard is unreachable and served from stale stats.",
            shard=str(shard_id),
        ).set(0.0)
        event = ShardReconnected(
            max(self._now, 0.0),
            shard=shard_id,
            outage=max(0.0, self._now - started),
        )
        if self.state is not None and not self._replaying:
            self.state.record_event(encode_event(event))
        self._apply_control(event)
        self._events += 1

    def transport_stats(self) -> dict[int, dict]:
        """Per-shard transport counters, cumulative across failovers.

        Empty dicts for shards without a TCP transport.  Counters from
        handles a failover replaced are carried in an additive base, so
        the totals stay monotone across respawns — the same contract as
        the shard metrics dumps.
        """
        totals: dict[int, dict] = {}
        for shard_id, shard in enumerate(self.shards):
            stats_fn = getattr(shard, "transport_stats", None)
            stats = dict(stats_fn()) if callable(stats_fn) else {}
            for key, value in self._transport_base.get(shard_id, {}).items():
                stats[key] = stats.get(key, 0) + value
            totals[shard_id] = stats
        return totals

    def check_shards(self) -> list[FailoverReport]:
        """Sweep the data plane for dead shards and fail each one over.

        Runs at the top of every supervised ingest call (and is safe to
        call from operator code at any time): a shard whose process has
        exited is replaced immediately, and a live worker whose newest
        heartbeat is older than ``failover_after`` is declared dead by
        the :class:`~repro.service.failover.FailureDetector` and
        replaced the same way.  Returns the failovers performed
        (usually an empty list).  No-op without a failover config.
        """
        if self.failover is None:
            return []
        reports: list[FailoverReport] = []
        with self._lock:
            for shard_id in range(len(self.shards)):
                shard = self.shards[shard_id]
                if not getattr(shard, "alive", True):
                    reason = getattr(shard, "reason", "process-exit")
                    reports.append(self.failover_shard(shard_id, reason))
                    continue
                age = getattr(shard, "heartbeat_age", None)
                if age is None or self.detector is None:
                    continue
                self.detector.observe(shard_id, age())
                if self.detector.suspect(shard_id):
                    reports.append(
                        self.failover_shard(shard_id, "heartbeat-timeout")
                    )
        return reports

    def failover_shard(
        self, shard_id: int, reason: str = "process-exit"
    ) -> FailoverReport:
        """Replace a dead shard; bounded journal replay, not a restart.

        The recovery path every detection signal converges on:

        1. the old shard is fenced (worker processes are SIGKILLed and
           reaped, so a merely-wedged worker cannot write after its
           replacement);
        2. *worker mode*: the dead shard's journal — whose unsynced tail
           died with the process — rewinds to its newest broadcast-
           heartbeat boundary (the chunk edge crash recovery already
           uses) and snapshots past the boundary are pruned.  In-process
           shard journals are parent-owned and consistent, so nothing is
           truncated and nothing is lost;
        3. the replacement window is refolded from the shard journal,
           the way :meth:`resume` does it: from the newest surviving
           snapshot's low-water mark up to its seq window-only, then the
           journal tail past it;
        4. a replacement shard (worker or in-process, matching the
           plane's mode) takes the slot, and
           :class:`~repro.service.events.ShardFailed` /
           :class:`~repro.service.events.ShardRecovered` are journaled
           in the control journal and applied (counters, metrics), so a
           later resume replays the failover history.

        Surviving shards are untouched: one dead shard costs one
        bounded replay.  Requires a failover config.
        """
        if self.failover is None:
            raise RuntimeError("failover_shard() requires a FailoverConfig")
        with self._lock:
            started = _time.perf_counter()
            old = self.shards[shard_id]
            fence = getattr(old, "kill", None)
            if callable(fence):
                try:
                    fence()
                except Exception:
                    pass  # already gone; the join reaped what it could
            else:
                # An in-process shard is parent-owned: closing it hands
                # what it still holds (a healed partition buffer) to its
                # journal before the replacement is rebuilt from there.
                old.close()
            old_transport = getattr(old, "transport_stats", None)
            if callable(old_transport):
                # Carry the fenced handle's transport counters so the
                # scraped totals stay monotone across the respawn.
                base = self._transport_base.setdefault(shard_id, {})
                for key, value in old_transport().items():
                    base[key] = base.get(key, 0) + value
            if self._partitioned.pop(shard_id, None) is not None:
                self.metrics.gauge(
                    "tempo_shard_partitioned",
                    "1 while the shard is unreachable and served from "
                    "stale stats.",
                    shard=str(shard_id),
                ).set(0.0)
            state = self.state
            replacement_window = RollingWindow(self.config.window)
            boundary_time = 0.0
            records_dropped = telemetry_dropped = replayed = 0
            if state is not None:
                if self.tcp_workers:
                    # Worker journals lose their unsynced tail with the
                    # process: rewind to the heartbeat boundary.
                    boundary_time, _cut, records_dropped, telemetry_dropped = (
                        state.failover_shard(shard_id)
                    )
                else:
                    # In-process shard journals are parent-owned and
                    # consistent through the last acknowledged append:
                    # replay everything, lose nothing.
                    boundary = state.shard_journal(shard_id).last_heartbeat()
                    if boundary is not None:
                        boundary_time = boundary[1]
                journal = state.shard_journal(shard_id)
                mark = ShardMark(0, 0.0, 0, 1)  # no snapshot: the whole journal
                loaded = state.load_latest_snapshot()
                if loaded is not None:
                    _, snapshot = loaded
                    mark = ShardMark(*snapshot["sharding"]["marks"][shard_id])
                else:
                    segments = journal.segments()
                    if segments and journal._first_seq_of(segments[0]) > 1:
                        raise JournalError(
                            f"shard {shard_id} journal was compacted (first "
                            f"retained seq {journal._first_seq_of(segments[0])}) "
                            "but no readable snapshot covers the deleted "
                            "prefix; cannot fail over"
                        )
                # The window from the snapshot's mark, then the tail past it.
                replayer = IngestShard(shard_id, self.config.window)
                replayer.rebuild(journal, mark)
                tail = [
                    record.event
                    for record in journal.iter_records(after=mark.seq)
                    if record.kind == "event"
                ]
                if tail:
                    replayer.fold(tail)
                replayed = len(tail)
                replacement_window = replayer.window
            if self.tcp_workers:
                if state is not None:
                    # The truncation opened a parent-side handle; the
                    # respawned worker owns the journal from here on.
                    state.release_shard_journal(shard_id)
                address = self._launcher.spawn(shard_id)
                remote = RemoteShardHandle(
                    shard_id,
                    address,
                    heartbeat_interval=self.failover.heartbeat_interval,
                    failover_after=self.failover.failover_after,
                    config=self.transport,
                    launcher=self._launcher,
                )
                if state is not None:
                    remote.restore(replacement_window.to_state())
                self.shards[shard_id] = remote
            elif self.shard_endpoints is not None:
                # Operator-managed worker: reconnect to the same address
                # (the operator restarts the process); no parent-side
                # journal exists, so there is nothing to replay here.
                self.shards[shard_id] = RemoteShardHandle(
                    shard_id,
                    self.shard_endpoints[shard_id],
                    heartbeat_interval=self.failover.heartbeat_interval,
                    failover_after=self.failover.failover_after,
                    config=self.transport,
                )
            else:
                replacement = self._new_shard(shard_id)
                replacement.window = replacement_window
                self.shards[shard_id] = replacement
            # The dead shard's registry died with it; fold its last
            # drained dump into the additive base so merged totals stay
            # monotone across the failover (same move as promotion).
            stale = self._shard_metrics.pop(shard_id, None)
            if stale:
                carried = MetricsRegistry.from_dict(
                    self._shard_metrics_base.get(shard_id, {})
                )
                carried.merge(stale)
                self._shard_metrics_base[shard_id] = carried.to_dict()
            if telemetry_dropped:
                self._telemetry = max(0, self._telemetry - telemetry_dropped)
            if self.detector is not None:
                self.detector.observe(shard_id, 0.0)
            latency = _time.perf_counter() - started
            now = max(self._now, 0.0)
            failed = ShardFailed(now, shard=shard_id, reason=str(reason))
            recovered = ShardRecovered(
                now,
                shard=shard_id,
                replayed=replayed,
                dropped=records_dropped,
                latency=latency,
            )
            if state is not None and not self._replaying:
                state.record_event(encode_event(failed))
                state.record_event(encode_event(recovered))
            self._apply_control(failed)
            self._apply_control(recovered)
            self._events += 2
            report = FailoverReport(
                shard=shard_id,
                time=now,
                reason=str(reason),
                boundary=boundary_time,
                replayed=replayed,
                records_dropped=records_dropped,
                events_lost=telemetry_dropped,
                latency=latency,
            )
            self.failovers.append(report)
            return report

    # -- telemetry ingestion ------------------------------------------------

    def process(self, event: ServiceEvent) -> RetuneDecision | None:
        """Ingest one event: :meth:`ingest_batch` of a batch of one.

        Returns the :class:`RetuneDecision` when this event triggered a
        cadence tick, else ``None``.
        """
        decisions = self.ingest_batch([event])
        return decisions[0] if decisions else None

    def _apply_control(self, event: ServiceEvent) -> None:
        """Apply one control event's state change (no clock advance)."""
        if isinstance(event, TenantJoined):
            self.active_tenants.add(event.tenant)
        elif isinstance(event, TenantLeft):
            # The window half — dropping the tenant's entries — is the
            # owning shard's, which receives the event in stream order.
            self.active_tenants.discard(event.tenant)
            if self._last_snapshot is not None:
                self._last_snapshot.pop(event.tenant, None)
            self._force = True
        elif isinstance(event, NodeLost):
            self.nodes_lost += event.containers
            self.lost_capacity[event.pool] = (
                self.lost_capacity.get(event.pool, 0) + event.containers
            )
            self._force = True
        elif isinstance(event, NodeRecovered):
            # Recovery is clamped to the loss actually observed: a
            # recovery report for capacity this daemon never saw lost
            # must not grow the what-if cluster past its spec.
            restored = min(event.containers, self.lost_capacity.get(event.pool, 0))
            self.nodes_recovered += restored
            if restored:
                remaining = self.lost_capacity[event.pool] - restored
                if remaining:
                    self.lost_capacity[event.pool] = remaining
                else:
                    del self.lost_capacity[event.pool]
                self._force = True  # capacity changed; stability is void
        elif isinstance(event, ShardFailed):
            self.shard_failures += 1
            self.metrics.counter(
                "tempo_shard_failovers_total",
                "Shards declared dead and replaced by the supervision plane.",
                shard=str(event.shard),
            ).inc()
        elif isinstance(event, ShardRecovered):
            self.shard_recoveries += 1
            self.metrics.counter(
                "tempo_shard_recoveries_total",
                "Replacement shards that finished journal replay and rejoined.",
                shard=str(event.shard),
            ).inc()
            if event.latency > 0:
                self.metrics.histogram(
                    "tempo_shard_failover_latency_seconds",
                    "Wall-clock failover latency (rewind + replay + respawn).",
                ).observe(event.latency)
        elif isinstance(event, ShardPartitioned):
            self.shard_partitions += 1
            self.metrics.counter(
                "tempo_shard_partitions_total",
                "Partition episodes: a shard went unreachable and the "
                "control plane began serving stale statistics for it.",
                shard=str(event.shard),
            ).inc()
        elif isinstance(event, ShardReconnected):
            self.shard_reconnects += 1
            self.metrics.counter(
                "tempo_shard_reconnects_total",
                "Partition episodes that healed by reconnect (no failover).",
                shard=str(event.shard),
            ).inc()
            if event.outage > 0:
                self.metrics.histogram(
                    "tempo_shard_outage_seconds",
                    "Simulated seconds each healed partition served stale.",
                    buckets=BACKOFF_BUCKETS,
                ).observe(event.outage)

    def _cadence_chunks(
        self, events: list[ServiceEvent]
    ) -> list[tuple[list[ServiceEvent], float | None]]:
        """Split a batch at the cadence ticks it will trigger.

        Pure pre-scan over event times (the cadence depends on nothing
        else), so :meth:`ingest_batch` can journal each sub-batch
        *before* folding it while keeping journal record order identical
        to the per-event path: every tick's ``decision``/``config``
        record lands right after the event that triggered it, never
        after telemetry the live daemon had not yet seen.
        """
        chunks: list[tuple[list[ServiceEvent], float | None]] = []
        anchor = self._last_attempt
        current: list[ServiceEvent] = []
        for event in events:
            current.append(event)
            if anchor is None:
                anchor = event.time
            elif event.time - anchor >= self.config.retune_interval:
                anchor = event.time
                chunks.append((current, event.time))
                current = []
        if current:
            chunks.append((current, None))
        return chunks

    def ingest_batch(self, events) -> list[RetuneDecision]:
        """Ingest a chunk of telemetry with group-committed durability.

        The one live ingest path: each cadence sub-batch goes through
        :meth:`_apply_events` (journaled write-ahead with one group
        commit, folded with one eviction pass), a tick's retune runs
        right after the sub-batch that triggered it, and the snapshot
        cadence is checked once at the end.  Returns the retune
        decisions of the cadence ticks the batch crossed, in order; the
        outcomes do not depend on how a stream is cut into batches.
        """
        events = list(events)
        decisions: list[RetuneDecision] = []
        if not events:
            return decisions
        with self._lock:
            if self.failover is not None:
                self.check_shards()
            retuned = False
            for chunk, tick in self._cadence_chunks(events):
                self._apply_events(chunk)
                self._m_ingest_batches.inc()
                if tick is not None:
                    decision = self.retune(tick)
                    decisions.append(decision)
                    retuned = retuned or decision.retuned
            if self.state is not None and self.state.snapshot_due(force=retuned):
                self.state.write_snapshot(self.state_dict())
            return decisions

    def _apply_events(self, chunk: list[ServiceEvent]) -> None:
        """Route, journal and fold one run of events: live ingest and replay.

        One routing pass splits the run.  Live, the control plane
        journals its share first (so a tick's decision record lands
        after it), then every shard receives its partition — telemetry,
        tenant churn, and the broadcast heartbeats, each journaled
        write-ahead by the shard that owns it — and finally the control
        plane applies the run's membership/capacity effects.  Replaying,
        the journal stays quiet — and so do the cadence, the snapshots
        and the batch counter, which belong to :meth:`ingest_batch` — so
        a resumed daemon counts the events it restored and nothing else.
        """
        if self._last_attempt is None:
            # Anchor the cadence at the first event's timestamp.
            self._last_attempt = chunk[0].time
        routed = self.router.partition(chunk)
        live = self.state is not None and not self._replaying
        if live:
            self.state.record_control(routed.control)
        verb = "fold" if self._replaying else "ingest"
        dispatched = 0
        for shard_id, part in enumerate(routed.parts):
            if part:
                # On a failover the partition is re-delivered to the
                # replacement: the failed call's records never reached
                # the journal (or were truncated past the boundary), so
                # the retry cannot duplicate anything.
                self._supervised(shard_id, methodcaller(verb, part))
                dispatched += len(part)
        if live and dispatched:
            self.state.note_shard_records(dispatched)
        self._account(len(chunk), routed)

    def _account(self, count: int, routed: RoutedBatch) -> None:
        """Control-plane bookkeeping of ``count`` events the shards got."""
        self._events += count
        self._m_ingest_events.inc(count)
        self._telemetry += routed.telemetry
        if routed.newest > self._now:
            self._now = routed.newest
        for event in routed.effects:
            self._apply_control(event)

    def retune(self, now: float, force: bool = False) -> RetuneDecision:
        """One guarded retune attempt at simulated time ``now``.

        The guards run in order: sparsity first (no signal, nothing to
        tune from), then stability (material drift since the snapshot of
        the last *applied* tune).  ``force=True`` — or a pending forced
        signal from node loss / tenant churn — bypasses the stability
        guard but not the sparsity guard.
        """
        with self._lock:
            self._last_attempt = now
            span = Span()
            with span.phase("drain"):
                # Guards decide on O(tenants) merged statistics; the
                # O(retained-entries) merged window is only materialized
                # below if the tune actually proceeds.
                snapshot = self._merged_shard_snapshot(now)
            jobs = sum(s.jobs for s in snapshot.values())
            force = force or self._force
            # Pre-tune guard phase: the decision plane's sparsity and
            # stability guards vote before any tuning work.  (An empty
            # window is always held by the engine, even with
            # min_window_jobs=0: there is no telemetry to tune from,
            # and an empty trace would read as perfect SLO compliance.)
            signals = TickSignals(
                time=now,
                index=self._index,
                jobs=jobs,
                min_jobs=self.config.min_window_jobs,
                force=force,
                first=self._last_snapshot is None,
                drift_threshold=self.config.drift_threshold,
                drift_fn=lambda: window_drift(self._last_snapshot, snapshot),
            )
            with span.phase("guard"):
                tick = self.engine.tick(signals)
            if not tick.proceed:
                decision = RetuneDecision(
                    now,
                    self._index,
                    False,
                    tick.reason,
                    tick.drift,
                    self.engine.hold_record(self._index, now, tick),
                )
                self._observe_retune(span)
                self._record_decision(decision)
                return decision
            reason, drift = tick.reason, tick.drift
            with span.phase("merge"):
                trace = self._control_window(now).trace()  # full merge: tune input
                cluster = self.effective_cluster(
                    capacity_floor(trace.task_records)
                )
                trace.capacity = cluster.as_dict()
            started = _time.perf_counter()
            with span.phase("whatif"):
                self.engine.begin_tune(now, tick.votes)
                iteration = self.controller.tune_from_trace(
                    self._index, trace, cluster=cluster
                )
            latency = _time.perf_counter() - started
            self._history.append(
                ConfigSnapshot(self._index, now, self.controller.config)
            )
            self._last_snapshot = snapshot
            self._force = False
            decision = RetuneDecision(
                now,
                self._index,
                True,
                reason,
                drift,
                iteration.decision,
                latency,
                iteration,
            )
            self._index += 1
            self._observe_retune(span)
            self._record_decision(decision)
            return decision

    def rollback(self) -> RMConfig | None:
        """Atomically restore the previously applied configuration.

        Pops the newest snapshot and reinstates its predecessor in the
        controller (config and encoded vector together, so the next tune
        starts from the restored point).  Returns the restored config,
        or ``None`` when no predecessor is available.  With durable
        state attached the rollback is journaled, so a resumed daemon
        reconstructs the same post-rollback history.
        """
        with self._lock:
            restored = self._rollback_locked()
            if (
                restored is not None
                and self.state is not None
                and not self._replaying
            ):
                self.state.record_rollback()
            return restored

    def _rollback_locked(self) -> RMConfig | None:
        if len(self._history) < 2:
            return None
        self._history.pop()
        snap = self._history[-1]
        self.controller.config = snap.config
        self.controller.x = self.controller.space.encode(snap.config)
        return snap.config

    def effective_cluster(self, floor: dict[str, int] | None = None) -> ClusterSpec:
        """Cluster capacity remaining after observed node loss.

        This is the cluster the what-if model predicts on.  ``floor``
        (per-pool largest single-task demand, see
        :func:`~repro.workload.model.capacity_floor`) bounds the shrink so
        every observed task stays placeable; every pool keeps at least
        one container regardless.
        """
        cluster = self.controller.cluster
        if not any(self.lost_capacity.values()):
            return cluster
        capacity = cluster.as_dict()
        floor = floor or {}
        losses: dict[str, int] = {}
        for pool, lost in self.lost_capacity.items():
            if pool not in capacity or lost <= 0:
                continue
            allowed = capacity[pool] - max(1, floor.get(pool, 1))
            losses[pool] = min(lost, max(0, allowed))
        return cluster.shrunk(losses)

    def on_decision(self, callback) -> None:
        """Subscribe to decision-plane outcomes.

        ``callback`` receives a :class:`~repro.service.events.
        DecisionMade` event for every cadence-tick decision this daemon
        makes (never for decisions restored by a resume) — the
        observability hook for dashboards and ablation harnesses.
        """
        self._decision_listeners.append(callback)

    # -- observability ------------------------------------------------------

    def _observe_retune(self, span: Span) -> None:
        """Record one cadence tick's phase timings and backlog gauges."""
        m = self.metrics
        m.histogram(
            "tempo_retune_seconds", "Wall time of one full cadence tick."
        ).observe(span.total)
        for phase, seconds in span.durations.items():
            m.histogram(
                "tempo_retune_phase_seconds",
                "Cadence tick wall time by phase (drain/guard/merge/whatif).",
                phase=phase,
            ).observe(seconds)
        m.gauge(
            "tempo_bus_depth", "Events queued on the daemon bus (backlog)."
        ).set(len(self.bus))
        m.gauge(
            "tempo_bus_dropped_total",
            "Events shed by the bounded daemon bus (overflow drops).",
        ).set(self.bus.dropped)
        lag = 0
        for shard_id, shard in enumerate(self.shards):
            pending = getattr(shard, "pending_batches", None)
            lag = max(lag, len(shard.bus) if pending is None else pending)
            age = getattr(shard, "heartbeat_age", None)
            if age is not None:
                m.gauge(
                    "tempo_shard_heartbeat_age_seconds",
                    "Seconds since each worker shard's newest liveness beat.",
                    shard=str(shard_id),
                ).set(age())
        m.gauge(
            "tempo_shard_queue_lag",
            "Worst per-shard intake backlog (batches for workers, "
            "bus events in-process).",
            mode="max",
        ).set(lag)
        self._observe_whatif()
        self._observe_transport()

    def _observe_whatif(self) -> None:
        """Scrape the evaluation plane's counters into the registry.

        The :class:`~repro.whatif.evalpool.CandidateEvaluator` keeps
        cumulative counts plus drainable per-batch samples (the
        single-writer contract: instruments are owned here, fed by
        delta against the last scrape, so nothing double-counts across
        cadence ticks or after a resume).
        """
        evalplane = getattr(self.controller, "evalplane", None)
        if evalplane is None:
            return
        m = self.metrics
        sims = evalplane.sim_runs - self._whatif_seen["sim_runs"]
        hits = evalplane.hits - self._whatif_seen["hits"]
        self._whatif_seen = {
            "sim_runs": evalplane.sim_runs, "hits": evalplane.hits,
        }
        if sims > 0:
            self._m_whatif_evals.inc(sims)
        if hits > 0:
            self._m_whatif_hits.inc(hits)
        batches, eval_seconds = evalplane.drain_observations()
        for size in batches:
            m.histogram(
                "tempo_whatif_batch_size",
                "Candidates submitted per what-if evaluation batch.",
                buckets=BATCH_BUCKETS,
            ).observe(float(size))
        for seconds in eval_seconds:
            m.histogram(
                "tempo_whatif_eval_seconds",
                "Wall time per executed candidate simulation.",
            ).observe(seconds)

    #: Transport counters scraped per shard: handle attribute -> series.
    _TRANSPORT_COUNTERS = (
        ("reconnects", "tempo_transport_reconnects_total",
         "Reconnects that restored a shard connection."),
        ("retries", "tempo_transport_retries_total",
         "Batches re-sent after a reconnect (deduped at the worker)."),
        ("backpressure_dropped", "tempo_transport_backpressure_drops_total",
         "Telemetry events dropped by the bounded send queue."),
        ("connect_attempts", "tempo_transport_connect_attempts_total",
         "TCP connect attempts, successful or not."),
    )

    def _observe_transport(self) -> None:
        """Scrape each TCP handle's counters into the control registry.

        The handles' counters are plain ints owned by their I/O threads
        (the registry's single-writer contract); the control plane owns
        the registry instruments and feeds them by delta against the
        last scraped total, so respawns (whose counters restart under
        an additive base) never double-count.
        """
        m = self.metrics
        totals = None
        for shard_id, shard in enumerate(self.shards):
            if not callable(getattr(shard, "transport_stats", None)):
                continue
            if totals is None:
                totals = self.transport_stats()
            stats = totals[shard_id]
            label = str(shard_id)
            for key, name, help_text in self._TRANSPORT_COUNTERS:
                value = int(stats.get(key, 0))
                prev = self._transport_seen.get((shard_id, key), 0)
                if value > prev:
                    m.counter(name, help_text, shard=label).inc(value - prev)
                    self._transport_seen[(shard_id, key)] = value
            durations = getattr(shard, "reconnect_seconds", None)
            if durations:
                hist = m.histogram(
                    "tempo_transport_reconnect_seconds",
                    "Wall seconds each healed partition stayed disconnected.",
                    buckets=BACKOFF_BUCKETS,
                )
                while True:
                    try:
                        hist.observe(durations.popleft())
                    except IndexError:
                        break

    def _observe_decision(self, decision: RetuneDecision) -> None:
        """Count one decision-plane outcome (live or tail-replayed)."""
        m = self.metrics
        m.counter(
            "tempo_decisions_total",
            "Cadence-tick decisions by verdict.",
            verdict=decision.verdict,
        ).inc()
        m.counter(
            "tempo_decision_reasons_total",
            "Cadence-tick decisions by guard reason.",
            reason=decision.reason or "none",
        ).inc()
        record = decision.record
        for vote in record.votes:
            m.counter(
                "tempo_guard_votes_total",
                "Guard votes by guard and argued verdict.",
                guard=vote.guard,
                verdict=vote.verdict,
            ).inc()
        residual = record.residual
        if residual is not None and math.isfinite(residual):
            m.histogram(
                "tempo_decision_residual",
                "Worst normalized QS residual per applied decision.",
                buckets=RESIDUAL_BUCKETS,
            ).observe(residual)
        m.gauge(
            "tempo_freeze_fuse_reverts",
            "Consecutive reverts counted toward the freeze fuse.",
        ).set(getattr(self.engine, "reverts_in_row", 0))

    def metrics_snapshot(self) -> MetricsRegistry:
        """Merged view of the control-plane and every shard registry.

        Always returns a real :class:`~repro.obs.MetricsRegistry` (empty
        when ``observe=False``).  Worker-shard dumps are as fresh as the
        last drain barrier; in-process shards count in the control
        registry itself.
        """
        merged = MetricsRegistry.from_dict(self.metrics.to_dict())
        for i in range(len(self.shards)):
            merged.merge(self._shard_metrics_dump(i))
        return merged

    def _shard_metrics_dump(self, shard_id: int) -> dict:
        """One shard's counts: carried base plus live or last-drained dump.

        Empty for in-process shards, which count in the control registry.
        """
        merged = MetricsRegistry.from_dict(self._shard_metrics_base.get(shard_id, {}))
        live = getattr(self.shards[shard_id], "metrics", None)
        dump = live.to_dict() if live is not None else self._shard_metrics.get(shard_id)
        if dump:
            merged.merge(dump)
        return merged.to_dict()

    def _metrics_state(self) -> dict:
        """Snapshot payload: the control dump plus one dump per shard."""
        return {
            "control": self.metrics.to_dict(),
            "shards": [self._shard_metrics_dump(i) for i in range(len(self.shards))],
        }

    def _record_decision(self, decision: RetuneDecision) -> None:
        """Append a decision in memory and, when durable, to the journal.

        An applied tune is journaled as ONE ``config`` record carrying
        both the decision and the resulting controller state — a crash
        can never land between "the tune happened" and "this is the
        config it applied", which would resume into a state the live
        daemon never had.  Skipped ticks are plain ``decision`` records.
        With metrics sampling enabled, every tick additionally journals
        one ``metrics`` record — the merged registry dump at that moment
        — so the journal carries an append-only observability series.
        """
        self.decisions.append(decision)
        self._observe_decision(decision)
        if self._decision_listeners and not self._replaying:
            event = DecisionMade(
                decision.time,
                verdict=decision.verdict,
                index=decision.index,
                retuned=decision.retuned,
                reason=decision.reason,
                record=decision.record.to_dict(),
            )
            for callback in self._decision_listeners:
                callback(event)
        if self.state is None or self._replaying:
            return
        if decision.retuned:
            self.state.record_config(
                {
                    "decision": _decision_to_dict(decision),
                    "controller": controller_state_dict(self.controller),
                }
            )
        else:
            self.state.record_decision(_decision_to_dict(decision))
        if self.config.sample_metrics:
            sample = {
                "time": decision.time,
                "index": decision.index,
                "metrics": self.metrics_snapshot().to_dict(),
            }
            self._last_metrics_sample = sample
            self.state.record_metrics(sample)

    # -- durability ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything a resumed daemon needs, as one JSON-ready dict.

        No window entry is in it: ``sharding`` records the shard layout,
        one :class:`~repro.service.sharding.ShardMark` per shard journal
        — covered seq, window clock, ingest count and low-water mark,
        from which :meth:`resume` refolds the window — and the
        telemetry count.  One snapshot covers every journal.
        """
        with self._lock:
            states = self._drain_shards(self._now, "checkpoint")
            return {
                "sharding": {
                    "shards": self.router.shards,
                    "router": "crc32",
                    "marks": [list(s["mark"]) for s in states],
                    "telemetry": self._telemetry,
                },
                "active_tenants": sorted(self.active_tenants),
                "nodes_lost": self.nodes_lost,
                "nodes_recovered": self.nodes_recovered,
                "shard_failures": self.shard_failures,
                "shard_recoveries": self.shard_recoveries,
                "lost_capacity": dict(self.lost_capacity),
                "events": self._events,
                "last_attempt": self._last_attempt,
                "last_stats": None
                if self._last_snapshot is None
                else {
                    name: stats_to_dict(stats)
                    for name, stats in self._last_snapshot.items()
                },
                "index": self._index,
                "force": self._force,
                "history": [
                    {
                        "index": snap.index,
                        "time": snap.time,
                        "config": config_to_dict(snap.config),
                    }
                    for snap in self._history
                ],
                "decisions": [_decision_to_dict(d) for d in self.decisions],
                "controller": controller_state_dict(self.controller),
                # Registry dumps are data: present only when sampled.
                **(
                    {"metrics": self._metrics_state()}
                    if self.config.sample_metrics
                    else {}
                ),
            }

    def _restore_state(self, state: dict) -> int:
        """Restore a snapshot's control state and refold every shard
        window from its journal; returns the records refolded."""
        sharding = state.get("sharding")
        if sharding is None:
            raise JournalError(
                "snapshot has no 'sharding' record (written by an earlier "
                "build); start this build on a fresh state dir"
            )
        marks = [ShardMark(*mark) for mark in sharding["marks"]]
        if len(marks) != self.router.shards:
            raise JournalError(
                f"snapshot records {len(marks)} shard(s) but the service "
                f"was built with {self.router.shards}; resume with "
                "--reshard to change the layout"
            )
        refolded = sum(
            shard.rebuild(self.state.shard_journal(i), mark)
            for i, (shard, mark) in enumerate(zip(self.shards, marks))
        )
        self._now = max(mark.clock for mark in marks)
        self._telemetry = int(sharding["telemetry"])
        self.active_tenants = set(state["active_tenants"])
        self.nodes_lost = int(state["nodes_lost"])
        self.nodes_recovered = int(state.get("nodes_recovered", 0))
        self.shard_failures = int(state.get("shard_failures", 0))
        self.shard_recoveries = int(state.get("shard_recoveries", 0))
        self.lost_capacity = {
            pool: int(n) for pool, n in state["lost_capacity"].items()
        }
        self._events = int(state["events"])
        attempt = state["last_attempt"]
        self._last_attempt = None if attempt is None else float(attempt)
        last = state["last_stats"]
        self._last_snapshot = (
            None
            if last is None
            else {name: stats_from_dict(row) for name, row in last.items()}
        )
        self._index = int(state["index"])
        self._force = bool(state["force"])
        self._history = deque(
            (
                ConfigSnapshot(
                    int(row["index"]),
                    float(row["time"]),
                    config_from_dict(row["config"]),
                )
                for row in state["history"]
            ),
            maxlen=self.config.history,
        )
        self.decisions = deque(
            (_decision_from_dict(row) for row in state["decisions"]),
            maxlen=self.config.decision_history,
        )
        restore_controller_state(self.controller, state["controller"])
        metrics_state = state.get("metrics")
        if metrics_state and self.config.observe:
            self.metrics.restore(metrics_state.get("control", {}))
            for i, dump in enumerate(metrics_state.get("shards", [])):
                if i >= len(self.shards) or not dump:
                    continue
                live = getattr(self.shards[i], "metrics", None)
                if live is not None:
                    live.restore(dump)
                else:
                    # Worker shards restart with fresh registries; keep
                    # the persisted dump as an additive base.
                    self._shard_metrics_base[i] = dump
        return refolded

    def _apply_journal_record(self, record: JournalRecord) -> None:
        """Restore one decision/config/metrics/rollback record on resume."""
        if record.kind == "decision":
            # A skipped cadence tick (sparse/stable): only the cadence
            # anchor and the decision log move.
            decision = _decision_from_dict(record.data)
            self.decisions.append(decision)
            self._observe_decision(decision)
            self._last_attempt = decision.time
        elif record.kind == "config":
            # An applied tune: decision + controller state, atomically.
            decision = _decision_from_dict(record.data["decision"])
            self.decisions.append(decision)
            self._observe_decision(decision)
            self._last_attempt = decision.time
            self._index = decision.index + 1
            self._force = False
            restore_controller_state(self.controller, record.data["controller"])
            self._history.append(
                ConfigSnapshot(decision.index, decision.time, self.controller.config)
            )
            # The window state at this journal position is what the
            # live daemon snapshotted when it applied the tune (the
            # merged per-tenant statistics).
            self._last_snapshot = self._merged_shard_snapshot(decision.time)
        elif record.kind == "metrics":
            # Observability samples restore registries from snapshots,
            # not from the journal; the tail's newest sample is only
            # noted so introspection can cross-check it.
            self._last_metrics_sample = record.data
        elif record.kind == "rollback":
            self._rollback_locked()
        else:
            raise JournalError(f"unknown journal record kind {record.kind!r}")

    @classmethod
    def resume(
        cls,
        controller: TempoController,
        state: ServiceState | str | os.PathLike,
        config: ServiceConfig | None = None,
        bus: EventBus | None = None,
        *,
        shards: int | None = None,
        tcp_workers: bool = False,
        transport: TransportConfig | None = None,
        failover: FailoverConfig | None = None,
    ) -> "TempoService":
        """Rebuild a daemon from its state directory.

        Loads the newest readable snapshot's control state and rebuilds
        every shard window from its journal: the records from the
        shard's low-water mark up to the snapshot's seq are refolded
        window-only (no counters, no control effects), then the clock
        and ingest count the snapshot recorded are settled.  Then the
        journal tail past the snapshot replays: telemetry events re-fold
        into the rolling window (with the retune cadence quiet), while
        decision / config / rollback records restore the outcomes the
        live daemon actually produced — a tune is never recomputed on
        resume, so the restored config history is exactly what was
        applied.  :attr:`last_resume` says what it cost.

        Sharded state dirs replay **all N+1 journal tails**: each
        shard's telemetry re-folds into its own window, the control
        tail restores decisions and configs, and the streams are
        interleaved in event-time order so control effects land at the
        stream position the live daemon applied them.  ``shards`` must
        match the state dir's layout (pass it when ``state`` is a
        path); a mismatch — including a snapshot recorded under a
        different layout — is refused rather than silently re-routed
        (reshard explicitly instead).  ``tcp_workers`` promotes the
        shards to TCP loopback worker processes *after* the replay,
        which always runs in-process (``transport`` tunes their
        :class:`~repro.service.transport.TransportConfig`); it is
        refused for a single-shard dir (:func:`check_worker_plane`).

        ``controller`` must be a freshly built controller for the same
        cluster, SLOs, and config space the daemon was serving (the
        scenario descriptor in ``meta.json`` is how the CLI rebuilds
        one); its tuning state is overwritten from the persisted state.
        """
        started = _time.perf_counter()
        if not isinstance(state, ServiceState):
            if shards is None:
                shards = _detect_shard_layout(state)
            state = ServiceState(state, shards=shards)
        elif shards is not None and shards != state.shards:
            raise ValueError(
                f"state dir is laid out for {state.shards} shard(s), "
                f"asked to resume with {shards}; reshard explicitly"
            )
        check_worker_plane(state.shards, tcp_workers=tcp_workers)
        service = cls(
            controller,
            config,
            bus,
            state=state,
            shards=state.shards,
            failover=failover,
        )
        loaded = state.load_latest_snapshot()
        after = refolded = 0
        shard_after = [0] * state.shards
        if loaded is not None:
            after, snapshot = loaded
            refolded = service._restore_state(snapshot)
            shard_after = [int(mark[0]) for mark in snapshot["sharding"]["marks"]]
        else:
            # A compacted journal no longer starts at seq 1; without a
            # readable snapshot covering the deleted prefix, resuming
            # would silently rebuild from partial history.  Refuse.
            journals = [state.shard_journal(i) for i in range(state.shards)]
            for journal in [state.journal, *journals]:
                segments = journal.segments()
                if segments and journal._first_seq_of(segments[0]) > 1:
                    raise JournalError(
                        "journal was compacted (first retained seq "
                        f"{journal._first_seq_of(segments[0])}) but no "
                        "readable snapshot covers the deleted prefix; cannot resume"
                    )
        service._replaying = True
        try:
            if state.shards == 1:
                replayed = service._replay(after)
            else:
                replayed = service._replay_sharded(after, shard_after)
        finally:
            service._replaying = False
        seconds = _time.perf_counter() - started
        service.last_resume = ResumeCost(after, replayed, refolded, seconds)
        service.metrics.gauge(
            "tempo_resume_replayed_records",
            "Journal records replayed past the snapshot by the last resume.",
        ).set(replayed)
        service.metrics.gauge(
            "tempo_resume_refolded_records",
            "Journal records the last resume refolded window-only, from "
            "each shard's low-water mark up to the snapshot.",
        ).set(refolded)
        service.metrics.gauge(
            "tempo_resume_seconds",
            "Wall seconds the last resume took (snapshot load and replay).",
        ).set(seconds)
        if tcp_workers:
            service.promote_to_remote(transport)
        return service

    def _replay(self, after: int) -> int:
        """Replay the single journal's tail; returns the records replayed.

        Consecutive event records collect into a run that
        :meth:`_apply_events` folds as one batch; a run ends at the next
        decision/config/metrics/rollback record — restored at exactly
        its journal position — and never outgrows a segment.
        """
        journal = self.state.journal
        bound = journal.segment_records
        run: list[ServiceEvent] = []
        replayed = 0
        for replayed, record in enumerate(journal.iter_records(after), 1):
            if record.kind == "event":
                run.append(record.event)
                if len(run) < bound:
                    continue
            if run:
                self._apply_events(run)
                run = []
            if record.kind != "event":
                self._apply_journal_record(record)
        if run:
            self._apply_events(run)
        return replayed

    def _replay_sharded(self, control_after: int, shard_after: list[int]) -> int:
        """Replay N+1 journal tails along the control journal's spine.

        Control records apply in their journal order.  Before each
        decision/config/metrics/rollback record every shard folds, as
        one run, its tail up to that record's time — telemetry before
        the decision that fired at the same instant, each stream's own
        order kept.  Bounded cross-stream disorder (completion telemetry
        carrying timestamps past a chunk edge) only perturbs where the
        stability baseline is re-measured, never the restored decisions,
        configs, or window statistics — all of which are
        order-insensitive or restored verbatim.  Returns the records
        replayed across all journals.
        """
        state = self.state
        bound = state.journal.segment_records
        replayed = 0

        def shard_events(shard_id: int):
            nonlocal replayed
            for record in state.shard_journal(shard_id).iter_records(
                shard_after[shard_id]
            ):
                if record.kind != "event":
                    raise JournalError(
                        f"unexpected {record.kind!r} record in shard journal {shard_id}"
                    )
                replayed += 1
                yield record.event

        tails = [shard_events(i) for i in range(self.router.shards)]
        heads = [next(tail, None) for tail in tails]

        def fold_until(control: list[ServiceEvent], when: float) -> None:
            if self._last_attempt is None:
                # The cadence anchor: the earliest first event of any stream.
                firsts = [e.time for e in control[:1] + heads if e is not None]
                self._last_attempt = min(firsts, default=None)
            self._account(len(control), self.router.partition(control))
            for i, shard in enumerate(self.shards):
                run, event = [], heads[i]
                while event is not None and event.time <= when:
                    run.append(event)
                    event = next(tails[i], None)
                    if len(run) == bound or event is None or event.time > when:
                        shard.fold(run)
                        # Heartbeats here are broadcast copies of control
                        # events: routed to the control list, not counted.
                        routed = self.router.partition(run)
                        self._account(len(run) - len(routed.control), routed)
                        run = []
                heads[i] = event

        run: list[ServiceEvent] = []
        last = 0.0
        for record in state.journal.iter_records(control_after):
            replayed += 1
            if record.kind == "event":
                run.append(record.event)
                last = max(last, run[-1].time)
                continue
            # Rollbacks carry no timestamp: they keep their stream position.
            data = record.data
            last = max(last, data.get("decision", data).get("time", last))
            fold_until(run, last)
            run = []
            self._apply_journal_record(record)
        fold_until(run, math.inf)
        return replayed

    def _release_shards(self) -> tuple[list[bytes], list | None, dict | None]:
        """Drain and close the in-process shards ahead of a promotion.

        Returns every shard's window state plus the journal paths and
        options the workers open.  Every parent-side shard-journal
        handle is closed first, so the workers — which own the journals
        from here on — never race the parent's open.
        """
        check_worker_plane(self.router.shards, tcp_workers=True)
        windows = [_window_bytes(s["window"]) for s in self._drain_shards(self._now)]
        self._shard_metrics.clear()
        for shard in self.shards:
            shard.close()
        state = self.state
        if state is None:
            return windows, None, None
        state.shard_compaction = False
        for journal in state._shard_journals.values():
            journal.close()
        state._shard_journals.clear()
        paths = [state.shard_journal_path(i) for i in range(self.router.shards)]
        return windows, paths, state.shard_journal_opts()

    def _supervision(self) -> dict:
        """Worker liveness settings: the failover config's, else unsupervised."""
        if self.failover is None:
            return {"heartbeat_interval": 1.0, "failover_after": None}
        return {
            "heartbeat_interval": self.failover.heartbeat_interval,
            "failover_after": self.failover.failover_after,
        }

    def promote_to_remote(self, transport: TransportConfig | None = None) -> None:
        """Swap in-process shards for TCP loopback workers (post-replay).

        The in-process shards' windows move into freshly spawned
        ``serve_shard`` processes behind
        :class:`~repro.service.transport.RemoteShardHandle` proxies,
        which own the shard journals from here on.
        """
        windows, paths, opts = self._release_shards()
        if transport is not None:
            self.transport = transport
        self.shards, self._launcher = start_remote_shards(
            self.router.shards, self.config.window, paths, opts,
            observe=self.config.observe, config=self.transport,
            **self._supervision(),
        )
        for shard, window in zip(self.shards, windows):
            shard.restore(window)
        self.tcp_workers = True

    def reshard(self, shards: int) -> None:
        """Redistribute the data plane across a new shard count.

        Every retained window entry is re-routed through a fresh
        :class:`~repro.service.sharding.ShardRouter` for the new count;
        merged statistics are unchanged (the entries are the same, only
        their grouping moves).  With durable state attached the state
        dir is re-targeted, each new shard's moved window is journaled
        as one ``"window"`` record at the head of its journal, and a
        snapshot is written immediately, so the new layout always has a
        consistent (snapshot, journal) pair: every shard journal read
        from its mark reproduces its window, and pre-reshard records
        are never refolded past the window record.  Must run before any
        worker promotion.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if self.tcp_workers or self.shard_endpoints:
            raise RuntimeError("reshard before promoting shards to workers")
        with self._lock:
            merged = self._control_window(self._now).to_state()
            live = self.state is not None and not self._replaying
            # The per-shard attribution cannot survive a re-partition;
            # fold every shard's counts into the control registry so the
            # merged totals stay monotone across the reshard.
            if self.config.observe:
                for i in range(len(self.shards)):
                    self.metrics.merge(self._shard_metrics_dump(i))
            self._shard_metrics.clear()
            self._shard_metrics_base.clear()
            for shard in self.shards:
                shard.close()
            if self.state is not None:
                self.state.reshard(shards)
            self.router = ShardRouter(shards)
            self.shards = [self._new_shard(i) for i in range(shards)]
            parts = RollingWindow.split_state(merged, shards, self.router.shard_of)
            for shard, part in zip(self.shards, parts):
                if live:
                    # The moved window heads the shard's journal, so the
                    # journal read from any later mark reproduces it.
                    shard.journal.append_many([("window", part)])
                shard.restore(part)
            if live:
                self.state.write_snapshot(self.state_dict())

    # -- daemon mode --------------------------------------------------------

    def submit(self, event: ServiceEvent) -> bool:
        """Publish an event to the service's bus (False when shed)."""
        return self.bus.publish(event)

    def submit_blocking(self, event: ServiceEvent, poll: float = 0.001) -> bool:
        """Publish without shedding: block until the bus has room.

        Ordinary telemetry is shed under overload (an RM callback must
        never stall), but control markers whose loss would corrupt
        recovery semantics — the replay driver's chunk heartbeats, which
        ``repro resume`` uses as its journal truncation boundary — must
        reach the daemon.  Raises ``RuntimeError`` if the drain thread
        died or is not running (the bus would never empty).
        """
        while not self.bus.publish(event):
            if self._thread is None:
                raise RuntimeError("cannot submit_blocking: service not running")
            self._check_drain_alive()
            _time.sleep(poll)
        return True

    def start(self) -> None:
        """Start the background thread draining the event bus."""
        if self._thread is not None:
            raise RuntimeError("service already running")
        self._stop.clear()
        self._drain_error = None
        self._thread = threading.Thread(
            target=self._drain_loop, name="tempo-service", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Drain remaining queued events, then stop the background thread.

        Re-raises (wrapped) any error that killed the drain thread
        mid-run — a daemon that died on, say, a full state-dir disk must
        not look like a clean shutdown.
        """
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._drain_error is not None:
            error, self._drain_error = self._drain_error, None
            raise RuntimeError("service drain thread died") from error

    def _check_drain_alive(self) -> None:
        if self._drain_error is not None or (
            self._thread is not None and not self._thread.is_alive()
        ):
            raise RuntimeError("service drain thread died") from self._drain_error

    def quiesce(self, poll: float = 0.002) -> None:
        """Block until the bus is empty and in-flight processing finished.

        Only meaningful in daemon mode where every event flows through
        the bus: completion is detected as the count of *fully processed*
        bus deliveries catching up with ``bus.published`` (a dedicated
        counter — ``events_processed`` also includes events restored
        from a resumed journal, which the bus never saw).  Producers use
        this as a barrier so anything derived from the live config
        (e.g. the replayer's next production chunk) sees all prior
        telemetry applied.  Raises ``RuntimeError`` when no drain thread
        is running — waiting would hang forever — or when the drain
        thread died of an unhandled error (e.g. the state dir's disk
        filled mid-journal-append): a dead consumer can never catch up,
        and the failure must surface instead of spinning silently.
        """
        if self._thread is None:
            raise RuntimeError("cannot quiesce: service not running")
        while len(self.bus) or self._bus_consumed < self.bus.published:
            self._check_drain_alive()
            _time.sleep(poll)

    def _drain_loop(self) -> None:
        try:
            while True:
                event = self.bus.poll(timeout=0.05)
                if event is not None:
                    # Group commit: everything already queued behind the
                    # first event is ingested as one batch, so a
                    # backlogged bus drains at append_many speed instead
                    # of paying the per-record journal tax.
                    batch = [event]
                    batch.extend(self.bus.drain(limit=_DRAIN_BATCH - 1))
                    self.ingest_batch(batch)
                    self._bus_consumed += len(batch)
                elif self._stop.is_set() and not len(self.bus):
                    return
        except BaseException as exc:
            # Stored, not re-raised: quiesce()/stop() surface it (with
            # the original traceback chained) on the caller's thread.
            self._drain_error = exc

    # -- introspection ------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the background drain thread is alive."""
        return self._thread is not None

    @property
    def events_processed(self) -> int:
        """Events ingested or replayed so far (telemetry and control)."""
        return self._events

    @property
    def retunes(self) -> int:
        """Cadence ticks that applied a tune."""
        return sum(1 for d in self.decisions if d.retuned)

    @property
    def skips(self) -> int:
        """Cadence ticks skipped by the sparsity or stability guard."""
        return sum(1 for d in self.decisions if not d.retuned)

    @property
    def rm_config(self) -> RMConfig:
        """The currently applied RM configuration."""
        return self.controller.config

    @property
    def config_history(self) -> tuple[ConfigSnapshot, ...]:
        """Retained applied-configuration snapshots, oldest first."""
        return tuple(self._history)


def check_worker_plane(
    shards: int,
    *,
    tcp_workers: bool = False,
    shard_endpoints: list | None = None,
) -> None:
    """Refuse a worker-process data plane of one shard (``ValueError``).

    A single shard's journal is the control journal: the control plane
    appends decisions, configs and cluster events to it, so no worker
    process — spawned or operator-managed — may own it.
    """
    if shards == 1 and (tcp_workers or shard_endpoints is not None):
        raise ValueError(
            "worker shards (tcp_workers / shard_endpoints) "
            "need shards >= 2: a single shard's journal is the control "
            "journal, which only the control plane writes"
        )


def _window_bytes(window: RollingWindow | bytes) -> bytes:
    """A drained window as its persisted ``bytes`` (in-process shards
    hand over the live window)."""
    return window if isinstance(window, bytes) else window.to_state()


def _detect_shard_layout(root: str | os.PathLike) -> int:
    """Shard count of an existing state dir (meta.json, else the tree).

    Guards :meth:`TempoService.resume` callers who pass a bare path
    without ``shards``: silently opening a sharded state dir as
    single-shard would replay only the control journal and drop every
    shard's telemetry without an error.  ``meta.json`` is authoritative
    when present; otherwise the ``shard-NN/`` trees on disk are
    counted.
    """
    import json as _json
    from pathlib import Path as _Path

    root = _Path(root)
    meta = root / "meta.json"
    if meta.exists():
        try:
            recorded = _json.loads(meta.read_text()).get("shards")
            if recorded is not None:
                return int(recorded)
        except (ValueError, TypeError):
            pass  # unreadable descriptor: fall through to the tree scan
    from repro.service.sharding import shard_dir_name

    count = 0
    while (root / shard_dir_name(count) / "journal").is_dir():
        count += 1
    return max(count, 1)


def _decision_to_dict(decision: RetuneDecision) -> dict:
    """JSON-ready dict for a decision (infinite drift -> null).

    The decision plane's :class:`~repro.core.decisions.DecisionRecord`
    rides along under a ``"record"`` key.
    """
    return {
        "time": decision.time,
        "index": decision.index,
        "retuned": decision.retuned,
        "reason": decision.reason,
        "drift": inf_to_null(decision.drift),
        "latency": decision.latency,
        "record": decision.record.to_dict(),
    }


def _decision_from_dict(row: dict) -> RetuneDecision:
    """Rebuild a decision record (without its in-memory iteration).

    Raises :class:`~repro.service.journal.JournalError` on a row with
    no ``"record"``: only builds that could run without the decision
    plane's records wrote those, and their state dirs are refused.
    """
    if "record" not in row:
        raise JournalError(
            f"decision row at t={row.get('time')} carries no decision "
            "record: it was written by an earlier build, whose state dirs "
            "this build does not resume"
        )
    return RetuneDecision(
        time=float(row["time"]),
        index=int(row["index"]),
        retuned=bool(row["retuned"]),
        reason=str(row["reason"]),
        drift=inf_from_null(row["drift"]),
        record=DecisionRecord.from_dict(row["record"]),
        latency=float(row["latency"]),
    )
