"""Typed telemetry events for the online serving layer.

The paper positions Tempo as a long-running component sitting beside a
live Resource Manager, continuously ingesting job-completion telemetry
(Section 4, Step 1).  This module defines the event vocabulary of that
telemetry stream — job lifecycle, task completions, cluster membership,
and tenant churn — plus a bounded, thread-safe in-memory queue
(:class:`EventBus`) connecting a producer (a real RM, or the scenario
replayer of :mod:`repro.service.replay`) to the consuming daemon.

All event times are simulated seconds from the experiment epoch, like
every other timestamp in the repo; the daemon's cadence is driven by
these event times, never by the wall clock, which keeps serving runs
fully deterministic and replayable.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

from repro.workload.trace import JobRecord, TaskRecord


@dataclass(frozen=True)
class ServiceEvent:
    """Base telemetry event; ``time`` is simulated seconds from epoch."""

    time: float

    def __post_init__(self) -> None:
        if math.isnan(self.time) or self.time < 0:
            raise ValueError(f"event time must be a non-negative number, got {self.time}")


@dataclass(frozen=True)
class JobSubmitted(ServiceEvent):
    """A tenant submitted a job (arrival telemetry for rate estimation)."""

    tenant: str
    job_id: str
    deadline: float | None = None


@dataclass(frozen=True)
class TaskCompleted(ServiceEvent):
    """A task attempt left the cluster — completed, preempted, or failed.

    Carries the full :class:`~repro.workload.trace.TaskRecord` in
    absolute (epoch-relative) time, exactly what an RM's task-finished
    callback exposes.
    """

    record: TaskRecord


@dataclass(frozen=True)
class JobCompleted(ServiceEvent):
    """A job finished; carries its absolute-time completion record."""

    record: JobRecord


@dataclass(frozen=True)
class NodeLost(ServiceEvent):
    """The cluster lost ``containers`` containers of ``pool``.

    The daemon treats node loss as a forced-drift signal: capacity
    changes invalidate the stability guard's "nothing has changed"
    conclusion regardless of workload statistics.
    """

    pool: str
    containers: int = 1


@dataclass(frozen=True)
class NodeRecovered(ServiceEvent):
    """``containers`` containers of ``pool`` came back (repaired node).

    The symmetric partner of :class:`NodeLost` — ROADMAP's "lost
    capacity never returns" gap.  The daemon clamps recovery to the
    capacity it actually observed lost, so a recovery report for
    capacity that was never (observed) lost cannot grow the what-if
    cluster past its provisioned size.  A real recovery is a
    forced-drift signal exactly like a loss: the capacity the tuner
    optimizes against just changed.
    """

    pool: str
    containers: int = 1


@dataclass(frozen=True)
class TenantJoined(ServiceEvent):
    """A new tenant (RM queue) was provisioned."""

    tenant: str


@dataclass(frozen=True)
class TenantLeft(ServiceEvent):
    """A tenant was decommissioned; its window state should be dropped."""

    tenant: str


@dataclass(frozen=True)
class Heartbeat(ServiceEvent):
    """A pure clock-advance tick with no payload.

    Producers emit heartbeats so the daemon's retune cadence keeps
    firing through quiet periods with no job telemetry.
    """


@dataclass(frozen=True)
class ShardFailed(ServiceEvent):
    """A data-plane shard was declared dead by the failure detector.

    A *control* event: journaled in the control journal (never routed to
    a shard) so a resume replays the failover history and the
    observability counters (``tempo_shard_failovers_total``) stay
    monotone across crashes.  ``reason`` is a short operator-facing
    detection cause (``"process-exit"``, ``"heartbeat-timeout"``,
    ``"reply-timeout"``, ...).
    """

    shard: int
    reason: str = ""


@dataclass(frozen=True)
class ShardRecovered(ServiceEvent):
    """A replacement shard finished its journal replay and rejoined.

    The symmetric partner of :class:`ShardFailed`.  ``replayed`` counts
    journal records re-folded into the replacement window, ``dropped``
    counts records past the common heartbeat boundary that were
    truncated (the bounded loss of a failover), and ``latency`` is the
    wall-clock seconds the failover took (detection excluded).
    """

    shard: int
    replayed: int = 0
    dropped: int = 0
    latency: float = 0.0


@dataclass(frozen=True)
class ShardPartitioned(ServiceEvent):
    """A shard became unreachable over the network but is not yet dead.

    A *control* event journaled when the control plane first serves
    stale statistics for a shard whose transport reports a partition
    (:class:`~repro.service.sharding.ShardPartitionedError`).  Marks
    the start of a degraded-mode episode; the episode ends with either
    :class:`ShardReconnected` (transient partition) or
    :class:`ShardFailed` (the outage outlived ``failover_after``).
    """

    shard: int
    reason: str = "partition"


@dataclass(frozen=True)
class ShardReconnected(ServiceEvent):
    """A partitioned shard answered a barrier again without failover.

    The happy ending of a :class:`ShardPartitioned` episode: the
    transport reconnected inside ``failover_after``, replayed its
    unacknowledged batches (deduped at the worker), and fresh
    statistics replaced the stale cache.  ``outage`` is the simulated
    seconds the control plane served stale data for this shard.
    """

    shard: int
    outage: float = 0.0


@dataclass(frozen=True)
class DecisionMade(ServiceEvent):
    """The decision plane resolved one cadence tick.

    An *outbound* event: the daemon never ingests it — it is published
    to :meth:`~repro.service.daemon.TempoService.on_decision`
    subscribers (dashboards, ablation harnesses) and may be archived in
    trace files.  ``record`` carries the full
    :class:`~repro.core.decisions.DecisionRecord` in its dict form, so
    a consumer sees not just the verdict but the prediction,
    observation, residual, and each guard's vote.
    """

    verdict: str
    index: int
    retuned: bool = False
    reason: str = ""
    record: dict | None = None


@dataclass(frozen=True)
class MetricsSampled(ServiceEvent):
    """One per-retune observability sample (journal kind ``metrics``).

    Another *outbound* record: the daemon journals one after every
    cadence tick when metrics sampling is enabled, carrying the merged
    registry dump (:meth:`repro.obs.MetricsRegistry.to_dict`) at that
    moment.  It is never ingested or published on the bus — replay and
    sweep tooling read the journal's ``metrics`` records as an
    append-only time series, and ``repro status`` shows the newest one
    next to the restored snapshot registry.
    """

    index: int
    metrics: dict


class EventBus:
    """Bounded, thread-safe, in-memory FIFO event queue.

    When full, :meth:`publish` drops the *new* event and counts it
    (back-pressure by shedding, never by blocking the producer — an RM
    callback must not stall on the tuner).  The consumer side supports
    both non-blocking polls and blocking polls with a timeout, which is
    what the daemon's background thread uses.
    """

    def __init__(self, maxlen: int = 100_000):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._maxlen = int(maxlen)
        self._queue: deque[ServiceEvent] = deque()
        self._cond = threading.Condition()
        self._published = 0
        self._dropped = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"EventBus(queued={len(self)}, published={self._published}, "
            f"dropped={self._dropped})"
        )

    @property
    def maxlen(self) -> int:
        """Capacity bound of the queue."""
        return self._maxlen

    @property
    def published(self) -> int:
        """Events accepted so far."""
        return self._published

    @property
    def dropped(self) -> int:
        """Events shed because the queue was full."""
        return self._dropped

    def publish(self, event: ServiceEvent) -> bool:
        """Enqueue ``event``; returns False (and counts a drop) when full."""
        with self._cond:
            if len(self._queue) >= self._maxlen:
                self._dropped += 1
                return False
            self._queue.append(event)
            self._published += 1
            self._cond.notify()
            return True

    def poll(self, timeout: float | None = None) -> ServiceEvent | None:
        """Pop the earliest event; block up to ``timeout`` seconds if empty.

        ``timeout=None`` means non-blocking.  Returns ``None`` when no
        event arrived in time.
        """
        with self._cond:
            if not self._queue and timeout:
                self._cond.wait(timeout)
            if not self._queue:
                return None
            return self._queue.popleft()

    def drain(self, limit: int | None = None) -> list[ServiceEvent]:
        """Pop up to ``limit`` queued events (all of them when ``None``)."""
        with self._cond:
            n = len(self._queue) if limit is None else min(limit, len(self._queue))
            return [self._queue.popleft() for _ in range(n)]
