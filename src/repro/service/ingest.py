"""Incremental rolling-window maintenance of per-tenant workload statistics.

The batch control loop recomputes workload statistics from a fully
materialized window trace on every iteration.  A serving daemon cannot
afford that: telemetry arrives one event at a time and windows overlap
almost entirely between consecutive retunes.  :class:`RollingWindow`
maintains the statistics the Workload Generator needs — Poisson arrival
rates and lognormal task-duration parameters (Section 7.1), plus
response-time and preemption summaries — in **O(1) amortized per
event**: running sums are updated when an event is folded in and
subtracted when its entry slides out of the window.

``batch_recompute`` rebuilds the same statistics from the retained raw
records in O(events); it exists so tests (and the replay driver's
``--verify`` path) can assert that the incremental bookkeeping never
drifts from a from-scratch recompute.

A window's mergeable form is one ``bytes`` value
(:meth:`RollingWindow.to_state`): a window-header frame then one frame
per tenant with its retained entries as typed columns, all
:mod:`repro.service.codec` frames.  Shard drains across a process
boundary (``multiprocessing`` queue, TCP), ``restore`` and resharding
carry that value as is; nothing renders a window entry as JSON.  A
snapshot carries no window at all: the journal already holds every
retained entry, so a snapshot records the window's clock, its ingest
count and where in the journal its entries start
(:meth:`RollingWindow.earliest`), and recovery refolds them from there
(:meth:`~repro.service.sharding.IngestShard.rebuild`).

``window_drift`` condenses two snapshots into a scalar change measure —
the stability signal the daemon's retune guard uses to skip tuning when
the workload has not materially moved (the stability idea SAM argues
for in online tuners).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from repro.service.codec import (
    decode_window_tenant,
    encode_window_header,
    encode_window_tenant,
    frame_payload,
    peek_window_tenant,
    split_window_state,
)
from repro.service.events import (
    JobCompleted,
    JobSubmitted,
    ServiceEvent,
    TaskCompleted,
)
from repro.stats.distributions import LognormalModel, PoissonProcessModel
from repro.workload.trace import JobRecord, TaskRecord, Trace

@dataclass(frozen=True)
class TenantWindowStats:
    """O(1)-derived summary of one tenant's rolling window.

    Attributes:
        tenant: Tenant (queue) name.
        jobs: Jobs completed inside the window.
        tasks: Task attempts observed inside the window.
        submitted: Jobs submitted inside the window.
        arrival_rate: Submissions per second over the window length.
        mean_response: Mean response time of the window's completed jobs.
        log_duration_mean: Mean of ``log(service_time)`` over completed
            attempts — the lognormal ``mu`` (Section 7.1).
        log_duration_std: Std of ``log(service_time)`` — the lognormal
            ``sigma``.
        preempted_fraction: Fraction of attempts that were preempted.
        failed_fraction: Fraction of attempts that failed.
        duration_samples: Completed attempts with a positive service
            time — the sample count behind ``log_duration_mean``/``std``
            (distinct from ``tasks``, which also counts preempted and
            failed attempts).  Carried so shard statistics are exactly
            mergeable: :meth:`merged` recovers the underlying log-sums
            from ``(mu, sigma, n)`` per part.
    """

    tenant: str
    jobs: int
    tasks: int
    submitted: int
    arrival_rate: float
    mean_response: float
    log_duration_mean: float
    log_duration_std: float
    preempted_fraction: float
    failed_fraction: float
    duration_samples: int = 0

    def duration_model(self) -> LognormalModel:
        """Lognormal task-duration model implied by the window."""
        return LognormalModel(
            mu=self.log_duration_mean, sigma=self.log_duration_std, minimum=0.01
        )

    def arrival_model(self) -> PoissonProcessModel:
        """Poisson arrival-process model implied by the window."""
        return PoissonProcessModel(rate=self.arrival_rate)

    @classmethod
    def merged(
        cls, parts: "Iterable[TenantWindowStats]", window: float
    ) -> "TenantWindowStats":
        """Combine same-tenant stats from disjoint windows (shards).

        Inverts the sums-to-stats formula per part — ``s_log = mu * n``,
        ``s2_log = (sigma^2 + mu^2) * n``, ``s_resp = mean * jobs`` —
        adds the recovered sums, and re-derives through the shared
        :func:`_stats_from_sums` formula, so merging N shard snapshots
        matches a single window that ingested every part's events to
        floating-point accumulation error.  The parts must describe
        disjoint event sets of the same tenant over the same window
        length (the per-tenant sharding invariant makes a tenant's
        stats live in exactly one shard, so in practice this merges a
        single part — the general form exists for verification and for
        resharding).
        """
        parts = list(parts)
        if not parts:
            raise ValueError("cannot merge zero stats parts")
        tenant = parts[0].tenant
        if any(p.tenant != tenant for p in parts):
            raise ValueError("merged() requires same-tenant parts")
        n_jobs = sum(p.jobs for p in parts)
        n_tasks = sum(p.tasks for p in parts)
        n_submits = sum(p.submitted for p in parts)
        n_dur = sum(p.duration_samples for p in parts)
        s_log = math.fsum(p.log_duration_mean * p.duration_samples for p in parts)
        s2_log = math.fsum(
            (p.log_duration_std**2 + p.log_duration_mean**2) * p.duration_samples
            for p in parts
        )
        n_pre = sum(round(p.preempted_fraction * p.tasks) for p in parts)
        n_fail = sum(round(p.failed_fraction * p.tasks) for p in parts)
        s_resp = math.fsum(p.mean_response * p.jobs for p in parts)
        return _stats_from_sums(
            tenant,
            window,
            n_jobs=n_jobs,
            n_tasks=n_tasks,
            n_submits=n_submits,
            n_dur=n_dur,
            s_log=s_log,
            s2_log=s2_log,
            n_pre=n_pre,
            n_fail=n_fail,
            s_resp=s_resp,
        )


class _KahanSum:
    """Compensated running sum supporting subtraction (eviction).

    Plain ``+=``/``-=`` drifts linearly with the event count (a multi-hour
    replay accumulates ~1e-6 absolute error on large response-time sums);
    Kahan compensation keeps the running value within a few ulps of the
    exact sum of the currently retained entries, which is what lets
    ``snapshot()`` match an ``fsum``-exact batch recompute within 1e-9.
    """

    __slots__ = ("value", "_comp")

    def __init__(self) -> None:
        self.value = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        y = x - self._comp
        t = self.value + y
        self._comp = (t - self.value) - y
        self.value = t

    def subtract(self, x: float) -> None:
        self.add(-x)


class _TenantAccumulator:
    """Per-tenant deques of window entries plus their running sums."""

    __slots__ = (
        "tasks",
        "jobs",
        "submits",
        "n_dur",
        "s_log",
        "s2_log",
        "n_pre",
        "n_fail",
        "s_resp",
        "scheduled",
    )

    def __init__(self) -> None:
        # Entries are (event_time, payload); event time orders eviction.
        self.tasks: deque[tuple[float, TaskRecord, float | None]] = deque()
        self.jobs: deque[tuple[float, JobRecord]] = deque()
        self.submits: deque[float] = deque()
        self.n_dur = 0
        self.s_log = _KahanSum()
        self.s2_log = _KahanSum()
        self.n_pre = 0
        self.n_fail = 0
        self.s_resp = _KahanSum()
        # Key of this tenant's live entry in the window's expiry heap:
        # always equal to the earliest retained entry time (inf when the
        # tenant has no heap entry yet).  Heap entries with other keys
        # are stale and skipped on pop.
        self.scheduled = math.inf

    def add_task(self, time: float, record: TaskRecord) -> None:
        log_dur: float | None = None
        if record.completed and record.service_time > 0:
            log_dur = math.log(record.service_time)
            self.n_dur += 1
            self.s_log.add(log_dur)
            self.s2_log.add(log_dur * log_dur)
        if record.preempted:
            self.n_pre += 1
        if record.failed:
            self.n_fail += 1
        self.tasks.append((time, record, log_dur))

    def add_job(self, time: float, record: JobRecord) -> None:
        self.s_resp.add(record.response_time)
        self.jobs.append((time, record))

    def evict(self, cutoff: float) -> None:
        while self.tasks and self.tasks[0][0] < cutoff:
            _, record, log_dur = self.tasks.popleft()
            if log_dur is not None:
                self.n_dur -= 1
                self.s_log.subtract(log_dur)
                self.s2_log.subtract(log_dur * log_dur)
            if record.preempted:
                self.n_pre -= 1
            if record.failed:
                self.n_fail -= 1
        while self.jobs and self.jobs[0][0] < cutoff:
            _, record = self.jobs.popleft()
            self.s_resp.subtract(record.response_time)
        while self.submits and self.submits[0] < cutoff:
            self.submits.popleft()

    def earliest(self) -> float | None:
        """Time of the earliest retained entry (None when empty)."""
        earliest: float | None = None
        if self.tasks:
            earliest = self.tasks[0][0]
        if self.jobs and (earliest is None or self.jobs[0][0] < earliest):
            earliest = self.jobs[0][0]
        if self.submits and (earliest is None or self.submits[0] < earliest):
            earliest = self.submits[0]
        return earliest


def _stats_from_sums(
    tenant: str,
    window: float,
    *,
    n_jobs: int,
    n_tasks: int,
    n_submits: int,
    n_dur: int,
    s_log: float,
    s2_log: float,
    n_pre: int,
    n_fail: int,
    s_resp: float,
) -> TenantWindowStats:
    """Shared sums-to-stats formula (identical for incremental and batch)."""
    mu = s_log / n_dur if n_dur else 0.0
    var = s2_log / n_dur - mu * mu if n_dur else 0.0
    # Cancellation guard: E[x^2] - E[x]^2 below the fp resolution of the
    # squared sums is indistinguishable from zero, and sqrt would blow
    # the residual up to ~1e-7; clamp it (identically on both the
    # incremental and the batch path) before taking the root.
    if n_dur and var < 1e-12 * max(s2_log / n_dur, 1.0):
        var = 0.0
    return TenantWindowStats(
        tenant=tenant,
        jobs=n_jobs,
        tasks=n_tasks,
        submitted=n_submits,
        arrival_rate=n_submits / window,
        mean_response=s_resp / n_jobs if n_jobs else 0.0,
        log_duration_mean=mu,
        log_duration_std=math.sqrt(max(var, 0.0)),
        preempted_fraction=n_pre / n_tasks if n_tasks else 0.0,
        failed_fraction=n_fail / n_tasks if n_tasks else 0.0,
        duration_samples=n_dur,
    )


class RollingWindow:
    """Per-tenant workload statistics over the trailing ``window`` seconds.

    ``ingest`` folds one telemetry event in with O(1) amortized work;
    entries are evicted as the clock (the maximum event time seen) moves
    past ``entry_time + window``.  Eviction is driven by a lazy min-heap
    of per-tenant earliest-expiry keys, so an advance touches only the
    tenants that actually hold expired entries — per-event cost is flat
    in the number of active tenants (5 or 500 tenants cost the same),
    where a naive sweep would scan every tenant on every event.
    ``ingest_many`` amortizes further: a whole batch is folded with a
    single clock advance at the end.

    Events are expected roughly in time order; bounded disorder (e.g.
    the tail of one replay chunk interleaving with the head of the next)
    only delays eviction of the out-of-order entries, and never
    desynchronizes the running sums from the retained records — the
    equivalence ``snapshot() == batch_recompute()`` holds
    unconditionally.
    """

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self._now = 0.0
        self._tenants: dict[str, _TenantAccumulator] = {}
        self._events = 0
        #: Lazy eviction heap of (earliest entry time, tenant) keys.
        self._expiry: list[tuple[float, str]] = []

    def __repr__(self) -> str:
        return (
            f"RollingWindow(window={self.window:.0f}s, now={self._now:.0f}s, "
            f"tenants={sorted(self._tenants)}, events={self._events})"
        )

    @property
    def now(self) -> float:
        """Latest event/advance time seen."""
        return self._now

    @property
    def events_ingested(self) -> int:
        """Total telemetry events folded in since construction."""
        return self._events

    @property
    def tasks_retained(self) -> int:
        """Task entries currently inside the window."""
        return sum(len(acc.tasks) for acc in self._tenants.values())

    @property
    def jobs_retained(self) -> int:
        """Job entries currently inside the window."""
        return sum(len(acc.jobs) for acc in self._tenants.values())

    def tenants(self) -> list[str]:
        """Tenants with window state, sorted."""
        return sorted(self._tenants)

    def _acc(self, tenant: str) -> _TenantAccumulator:
        acc = self._tenants.get(tenant)
        if acc is None:
            acc = self._tenants[tenant] = _TenantAccumulator()
        return acc

    def _note_entry(self, name: str, acc: _TenantAccumulator, time: float) -> None:
        """Keep the expiry heap keyed by each tenant's earliest entry."""
        if time < acc.scheduled:
            acc.scheduled = time
            heapq.heappush(self._expiry, (time, name))

    def _fold(self, event: ServiceEvent) -> None:
        """Fold one telemetry event in without advancing the clock."""
        if isinstance(event, JobSubmitted):
            acc = self._acc(event.tenant)
            acc.submits.append(event.time)
            self._note_entry(event.tenant, acc, event.time)
        elif isinstance(event, TaskCompleted):
            acc = self._acc(event.record.tenant)
            acc.add_task(event.time, event.record)
            self._note_entry(event.record.tenant, acc, event.time)
        elif isinstance(event, JobCompleted):
            acc = self._acc(event.record.tenant)
            acc.add_job(event.time, event.record)
            self._note_entry(event.record.tenant, acc, event.time)
        else:
            raise TypeError(
                f"RollingWindow cannot ingest {type(event).__name__}; "
                "control events are handled by TempoService"
            )
        self._events += 1

    def ingest(self, event: ServiceEvent) -> None:
        """Fold one telemetry event into the window (O(1) amortized)."""
        self._fold(event)
        self.advance(event.time)

    def ingest_many(self, events: Iterable[ServiceEvent]) -> None:
        """Fold a batch of telemetry events with one clock advance.

        Equivalent to calling :meth:`ingest` per event — the retained
        entry set after the batch is identical, because eviction depends
        only on the final cutoff — but the eviction pass runs once at
        the batch's maximum event time instead of per event.
        """
        latest = self._now
        for event in events:
            self._fold(event)
            if event.time > latest:
                latest = event.time
        self.advance(latest)

    def advance(self, now: float) -> None:
        """Move the clock forward (monotonically) and evict expired entries.

        Amortized O(1) per ingested event: the expiry heap is keyed by
        each tenant's earliest retained entry, so only tenants that
        actually hold expired entries are touched — tenants whose window
        is quiet cost nothing, however many there are.  Tenants whose
        every entry has expired are forgotten entirely, so a
        long-running daemon's footprint stays proportional to the
        *currently active* tenants, not every tenant ever seen.
        """
        if now > self._now:
            self._now = now
        cutoff = self._now - self.window
        heap = self._expiry
        while heap and heap[0][0] < cutoff:
            key, name = heapq.heappop(heap)
            acc = self._tenants.get(name)
            if acc is None or key != acc.scheduled:
                continue  # stale: tenant dropped, or superseded by a smaller key
            acc.evict(cutoff)
            nxt = acc.earliest()
            if nxt is None:
                del self._tenants[name]
            else:
                acc.scheduled = nxt
                heapq.heappush(heap, (nxt, name))

    def earliest(self) -> float | None:
        """Time of the earliest retained entry (``None`` when empty).

        A scan over every retained entry, not just each deque's head:
        an out-of-order entry can sit behind a newer one until the head
        expires.  Checkpoints call it once per snapshot — it is what
        places the journal's low-water mark.
        """
        first = math.inf
        for acc in self._tenants.values():
            if acc.tasks:
                first = min(first, min(map(itemgetter(0), acc.tasks)))
            if acc.jobs:
                first = min(first, min(map(itemgetter(0), acc.jobs)))
            if acc.submits:
                first = min(first, min(acc.submits))
        return None if first == math.inf else first

    def settle(self, clock: float, events: int) -> None:
        """Advance to a recorded ``clock`` and take its ingest count.

        The last step of rebuilding a window from its journal: the
        refold started at a low-water mark, so its own count covers
        only the refolded records, while the checkpoint recorded the
        count the live window had.
        """
        self.advance(clock)
        self._events = int(events)

    def drop_tenant(self, tenant: str) -> None:
        """Forget a departed tenant's window state entirely."""
        self._tenants.pop(tenant, None)

    def snapshot(self) -> dict[str, TenantWindowStats]:
        """Per-tenant stats from the running sums — O(tenants), no scan."""
        return {
            name: _stats_from_sums(
                name,
                self.window,
                n_jobs=len(acc.jobs),
                n_tasks=len(acc.tasks),
                n_submits=len(acc.submits),
                n_dur=acc.n_dur,
                s_log=acc.s_log.value,
                s2_log=acc.s2_log.value,
                n_pre=acc.n_pre,
                n_fail=acc.n_fail,
                s_resp=acc.s_resp.value,
            )
            for name, acc in self._tenants.items()
        }

    def batch_recompute(self) -> dict[str, TenantWindowStats]:
        """Recompute stats from the retained raw records — O(events).

        Verification-only path: a fresh scan over the deques that must
        agree with :meth:`snapshot` to floating-point accumulation error
        (~1e-12), proving the incremental add/subtract bookkeeping exact.
        """
        out: dict[str, TenantWindowStats] = {}
        for name, acc in self._tenants.items():
            log_durs = [
                math.log(record.service_time)
                for _, record, _ in acc.tasks
                if record.completed and record.service_time > 0
            ]
            n_dur = len(log_durs)
            s_log = math.fsum(log_durs)
            s2_log = math.fsum(d * d for d in log_durs)
            n_pre = sum(1 for _, record, _ in acc.tasks if record.preempted)
            n_fail = sum(1 for _, record, _ in acc.tasks if record.failed)
            s_resp = math.fsum(record.response_time for _, record in acc.jobs)
            out[name] = _stats_from_sums(
                name,
                self.window,
                n_jobs=len(acc.jobs),
                n_tasks=len(acc.tasks),
                n_submits=len(acc.submits),
                n_dur=n_dur,
                s_log=s_log,
                s2_log=s2_log,
                n_pre=n_pre,
                n_fail=n_fail,
                s_resp=s_resp,
            )
        return out

    def to_state(self) -> bytes:
        """The retained raw entries as one ``bytes`` value (codec frames).

        A window-header frame (length, clock, ingest count) then one
        CRC'd frame per tenant holding its tasks, jobs and submits as
        typed columns (:func:`~repro.service.codec.encode_window_tenant`).
        This value is the window's only persisted or mergeable form: a
        snapshot file, a shard drain reply and a ``restore`` call all
        carry it as is.  Only the raw records are persisted, never the
        running sums: :meth:`from_state` refolds every retained entry
        through the same accumulator arithmetic, so a restored window's
        incremental statistics are again verifiable against
        ``batch_recompute`` — there is no second, subtly different
        serialization of the sums to drift out of agreement.
        """
        frames = [
            encode_window_header(
                self.window, self._now, self._events, len(self._tenants)
            )
        ]
        for name, acc in self._tenants.items():
            task_times, tasks, _ = zip(*acc.tasks) if acc.tasks else ((), (), ())
            job_times, jobs = zip(*acc.jobs) if acc.jobs else ((), ())
            frames.append(
                encode_window_tenant(
                    name, task_times, tasks, job_times, jobs, acc.submits
                )
            )
        return b"".join(frames)

    def _refold(self, name, task_times, tasks, job_times, jobs, submits) -> None:
        """Fold one tenant's decoded entries back in, in retention order."""
        acc = self._acc(name)
        for time, record in zip(task_times, tasks):
            acc.add_task(time, record)
        for time, record in zip(job_times, jobs):
            acc.add_job(time, record)
        acc.submits.extend(submits)
        earliest = acc.earliest()
        if earliest is not None:
            self._note_entry(name, acc, earliest)

    @classmethod
    def from_state(cls, state: bytes) -> "RollingWindow":
        """Rebuild a window from :meth:`to_state` output.

        Entries are refolded in retention order, so eviction order and
        the running sums are reconstructed from first principles.
        Raises ``ValueError`` for bytes that are not a readable window
        state of this build's layout (``TypeError`` for the row dicts
        earlier builds produced) — refused, never partially restored.
        """
        return cls.merge_states([state])

    @classmethod
    def merge_states(
        cls, states: Iterable["bytes | RollingWindow"]
    ) -> "RollingWindow":
        """Rebuild ONE window from several shards' :meth:`to_state` dumps.

        The control plane's view of a sharded data plane: every shard's
        retained raw entries are refolded through the same accumulator
        arithmetic, so the merged window's incremental statistics are
        verifiable against :meth:`batch_recompute` and — because
        sharding partitions events by tenant — identical (to
        floating-point accumulation error, well under 1e-9) to a single
        window that ingested the whole stream.  A tenant appearing in
        several states (only possible outside the per-tenant routing
        invariant, e.g. mid-reshard) has its entries interleaved in
        time order before refolding.  All states must share the same
        window length; the merged clock is the maximum of the parts'.

        A part may also be a live window (an in-process shard's
        hand-over); merging a single live window returns it as is.
        """
        states = list(states)
        if len(states) == 1 and isinstance(states[0], cls):
            return states[0]
        parsed = [
            split_window_state(
                state.to_state() if isinstance(state, cls) else state
            )
            for state in states
        ]
        if not parsed:
            raise ValueError("cannot merge zero window states")
        if any(part[0] != parsed[0][0] for part in parsed):
            raise ValueError("merge_states requires equal window lengths")
        merged = cls(parsed[0][0])
        slots: dict[str, list] = {}
        for _, _, _, frames in parsed:
            for frame in frames:
                name, *columns = decode_window_tenant(frame)
                mine = slots.get(name)
                if mine is None:
                    slots[name] = columns
                    continue
                # Stable sort on entry time keeps each part's internal
                # order, reconstructing one plausible arrival interleaving.
                for at in (0, 2):
                    pairs = sorted(
                        zip(mine[at] + columns[at], mine[at + 1] + columns[at + 1]),
                        key=itemgetter(0),
                    )
                    mine[at] = [time for time, _ in pairs]
                    mine[at + 1] = [record for _, record in pairs]
                mine[4] = sorted(mine[4] + columns[4])
        for name, columns in slots.items():
            merged._refold(name, *columns)
        merged._now = max(part[1] for part in parsed)
        merged._events = sum(part[2] for part in parsed)
        return merged

    @staticmethod
    def split_state(
        state: bytes, parts: int, part_of: Callable[[str], int]
    ) -> list[bytes]:
        """Partition one :meth:`to_state` dump by tenant (resharding).

        Tenant ``name``'s frame moves, undecoded, to part
        ``part_of(name)``; every part keeps the window length and clock,
        and counts as ingested exactly the entries it received.
        Refolding the parts and merging them again gives the statistics
        of ``state``.
        """
        window, now, _, frames = split_window_state(state)
        out: list[list[bytes]] = [[] for _ in range(parts)]
        received = [0] * parts
        for frame in frames:
            name, entries, _, _ = peek_window_tenant(frame)
            part = part_of(name)
            out[part].append(frame_payload(frame))
            received[part] += entries
        return [
            encode_window_header(window, now, count, len(moved)) + b"".join(moved)
            for moved, count in zip(out, received)
        ]

    def trace(self, capacity: Mapping[str, int] | None = None) -> Trace:
        """The window's retained records as a Trace re-anchored to t=0.

        This is what the daemon hands to
        :meth:`~repro.core.controller.TempoController.tune_from_trace`.
        Jobs *submitted before the window opening* are dropped — the QS
        job set ``J_i`` is defined over jobs submitted and completed
        within the interval (Section 5.1), and clamping their submission
        instant instead would silently truncate exactly the long
        response times the tuner must react to.  Their task records are
        kept (clamped to the window start), since task telemetry still
        informs utilization and preemption within the interval.
        """
        start = max(0.0, self._now - self.window)
        horizon = max(self._now - start, 1e-9)
        tasks: list[TaskRecord] = []
        jobs: list[JobRecord] = []
        for acc in self._tenants.values():
            for _, r, _ in acc.tasks:
                finish = max(r.finish_time - start, 0.0)
                begin = min(max(r.start_time - start, 0.0), finish)
                submit = min(max(r.submit_time - start, 0.0), begin)
                tasks.append(
                    TaskRecord(
                        r.job_id, r.task_id, r.tenant, r.pool, r.stage,
                        submit, begin, finish,
                        r.containers, r.preempted, r.failed, r.attempt,
                    )
                )
            for _, r in acc.jobs:
                if r.submit_time < start:
                    continue
                jobs.append(
                    JobRecord(
                        r.job_id, r.tenant,
                        r.submit_time - start, max(r.finish_time - start, 0.0),
                        None if r.deadline is None else r.deadline - start,
                        r.num_tasks, r.tags, r.stage_deps,
                    )
                )
        return Trace(tasks, jobs, capacity=capacity, horizon=horizon)


def stats_gap(window: "RollingWindow") -> float:
    """Largest deviation between incremental and batch-recomputed stats.

    Scans every tenant and every numeric field of
    :class:`TenantWindowStats`; a healthy window reports a gap at
    floating-point accumulation level (< 1e-9 by a wide margin).
    """
    incremental = window.snapshot()
    batch = window.batch_recompute()
    if set(incremental) != set(batch):
        return math.inf
    gap = 0.0
    fields = (
        "jobs",
        "tasks",
        "submitted",
        "arrival_rate",
        "mean_response",
        "log_duration_mean",
        "log_duration_std",
        "preempted_fraction",
        "failed_fraction",
        "duration_samples",
    )
    for name, inc in incremental.items():
        ref = batch[name]
        for field_name in fields:
            gap = max(gap, abs(getattr(inc, field_name) - getattr(ref, field_name)))
    return gap


def window_drift(
    previous: Mapping[str, TenantWindowStats],
    current: Mapping[str, TenantWindowStats],
) -> float:
    """Scalar drift between two window snapshots (stability signal).

    The maximum, over tenants, of the symmetric relative change in
    arrival rate and the absolute change in the lognormal duration
    parameters (``mu``/``sigma`` live on a log scale, so an absolute
    delta of 0.1 already means ~10% duration change).  A tenant
    appearing or disappearing is infinite drift — churn always warrants
    a retune.  Tenants with no jobs on either side are ignored.
    """
    worst = 0.0
    for name in set(previous) | set(current):
        a, b = previous.get(name), current.get(name)
        if a is None or b is None:
            present = a if b is None else b
            if present.submitted == 0 and present.jobs == 0:
                continue
            return math.inf
        denom = (abs(a.arrival_rate) + abs(b.arrival_rate)) / 2.0 + 1e-12
        worst = max(
            worst,
            abs(b.arrival_rate - a.arrival_rate) / denom,
            abs(b.log_duration_mean - a.log_duration_mean),
            abs(b.log_duration_std - a.log_duration_std),
        )
    return worst
