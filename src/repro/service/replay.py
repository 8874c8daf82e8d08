"""Scenario replay: drive archived or synthetic load through the daemon.

The serving layer is only as good as the situations it has been driven
through.  This module provides a catalog of *scenarios* — named,
seedable stress situations layered on :mod:`repro.workload.patterns` —
and a :class:`ScenarioReplayer` that feeds a scenario's telemetry
through a :class:`~repro.service.daemon.TempoService` end-to-end at a
configurable speedup factor:

* ``steady`` — the two-tenant EC2 mix at stationary load;
* ``flash-crowd`` — a sudden multi-x arrival surge on the best-effort
  tenant (a viral dashboard, a incident-response query storm);
* ``diurnal-wave`` — strong day/night modulation on both tenants
  (Section 2.4's temporal patterns, compressed);
* ``tenant-churn`` — a batch tenant joins mid-run and leaves again,
  emitting :class:`~repro.service.events.TenantJoined`/``TenantLeft``;
* ``failure-storm`` — harsh cluster noise plus periodic
  :class:`~repro.service.events.NodeLost` bursts;
* ``failure-recovery`` — node-loss bursts whose capacity is repaired
  (:class:`~repro.service.events.NodeRecovered`) ~20 minutes later;
* ``flash-failure`` — the compound case: the flash crowd arrives in the
  middle of a failure storm (surge and capacity loss interact);
* ``adversarial`` — an SLO-gaming tenant that inflates its load just
  before every retune boundary, so each window the guards judge looks
  overloaded while the average load is mild — the scenario that makes
  the observed-vs-observed revert guard churn and the predictive
  (load-normalized) guard hold steady.

Recorded telemetry can also be replayed from a JSONL trace file
(:func:`load_trace_events` / :func:`replay_trace`; capture one with
``record_to`` or the CLI's ``--save-trace``) — the scenario-catalog
escape hatch for driving the pipeline with events no generator
produced.

The replayer is the "production side" of the serving loop.  It drives
**one continuous execution**: a single
:class:`~repro.sim.simulator.SimulationSession` spans the whole run,
the applied configuration is swapped into the live simulation at every
retune interval, observed node loss shrinks the simulated capacity, and
— crucially — backlog carries across retune intervals, so a sustained
overload compounds exactly as it would on a real cluster.  Telemetry
is delivered to the service synchronously, or through the event bus in
daemon mode.  With ``speedup <= 0`` the replay runs as fast as
possible; with ``speedup = k`` one wall-clock second carries ``k``
simulated seconds.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.controller import TempoController
from repro.rm.cluster import ClusterSpec
from repro.rm.config import ConfigSpace, RMConfig
from repro.sim.noise import NoiseModel
from repro.sim.simulator import ClusterSimulator, SimulationSession
from repro.slo.objectives import SLOSet
from repro.slo.templates import deadline_slo, response_time_slo
from repro.service.daemon import RetuneDecision, ServiceConfig, TempoService
from repro.service.events import (
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    NodeLost,
    NodeRecovered,
    ServiceEvent,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.service.journal import decode_event, encode_event
from repro.stats.distributions import LognormalModel, PoissonProcessModel
from repro.workload.generator import (
    StageModel,
    StatisticalWorkloadModel,
    TenantWorkloadModel,
)
from repro.workload.model import MAP_POOL, REDUCE_POOL
from repro.workload.patterns import BurstPattern, DiurnalPattern, SpikePattern
from repro.workload.synthetic import (
    BEST_EFFORT_TENANT,
    DEADLINE_TENANT,
    two_tenant_cluster,
    two_tenant_expert_config,
    two_tenant_model,
)
from repro.workload.trace import shift_job, shift_task

#: Tenant name used by the churn scenario's transient batch tenant.
CHURN_TENANT = "batch"

#: Tenant name used by the adversarial scenario's SLO-gaming tenant.
GAMING_TENANT = "gamer"


@dataclass(frozen=True)
class Scenario:
    """A named, seedable situation the serving layer can be driven through.

    Attributes:
        name: Catalog key (e.g. ``"flash-crowd"``).
        description: One-line human summary.
        cluster: The production cluster.
        model: Workload model generating the scenario's jobs.
        slos: SLOs the service tunes against.
        initial_config: Starting RM configuration.
        horizon: Default replay length in simulated seconds.
        noise: Production-side noise profile.
        churn: ``(time, tenant, joined)`` control events to emit.
        node_loss: ``(time, pool, containers)`` loss events to emit.
        node_recovery: ``(time, pool, containers)`` recovery events to
            emit (repaired nodes returning capacity lost earlier).
    """

    name: str
    description: str
    cluster: ClusterSpec
    model: StatisticalWorkloadModel
    slos: SLOSet
    initial_config: RMConfig
    horizon: float
    noise: NoiseModel
    churn: tuple[tuple[float, str, bool], ...] = ()
    node_loss: tuple[tuple[float, str, int], ...] = ()
    node_recovery: tuple[tuple[float, str, int], ...] = ()


def _two_tenant_slos() -> SLOSet:
    return SLOSet(
        [
            deadline_slo(DEADLINE_TENANT, max_violation_fraction=0.05, slack=0.25),
            response_time_slo(BEST_EFFORT_TENANT),
        ]
    )


def steady_scenario(scale: float = 1.0, horizon: float | None = None) -> Scenario:
    """Stationary two-tenant load (the baseline serving situation)."""
    horizon = horizon if horizon is not None else 4 * 3600.0
    return Scenario(
        name="steady",
        description="stationary two-tenant EC2 mix",
        cluster=two_tenant_cluster(),
        model=two_tenant_model(scale),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.production(),
    )


def flash_crowd_scenario(scale: float = 1.5, horizon: float | None = None) -> Scenario:
    """Sudden arrival surge: the best-effort tenant spikes to 5x mid-run."""
    horizon = horizon if horizon is not None else 6 * 3600.0
    base = two_tenant_model(scale)
    best_effort = replace(
        base.tenant_model(BEST_EFFORT_TENANT),
        rate_pattern=SpikePattern(
            start=0.4 * horizon, duration=0.15 * horizon, level=5.0
        ),
    )
    return Scenario(
        name="flash-crowd",
        description="5x best-effort arrival surge over 15% of the run",
        cluster=two_tenant_cluster(),
        model=StatisticalWorkloadModel(
            [base.tenant_model(DEADLINE_TENANT), best_effort]
        ),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.production(),
    )


def diurnal_wave_scenario(scale: float = 1.5, horizon: float | None = None) -> Scenario:
    """Strong day/night wave on both tenants (compressed diurnal cycle)."""
    horizon = horizon if horizon is not None else 6 * 3600.0
    base = two_tenant_model(scale)
    deadline = replace(
        base.tenant_model(DEADLINE_TENANT),
        rate_pattern=DiurnalPattern(base=0.2, amplitude=1.8, peak_hour=2.0),
    )
    best_effort = replace(
        base.tenant_model(BEST_EFFORT_TENANT),
        rate_pattern=DiurnalPattern(base=0.2, amplitude=1.8, peak_hour=5.0),
    )
    return Scenario(
        name="diurnal-wave",
        description="offset day/night waves on both tenants",
        cluster=two_tenant_cluster(),
        model=StatisticalWorkloadModel([deadline, best_effort]),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.production(),
    )


def tenant_churn_scenario(scale: float = 1.5, horizon: float | None = None) -> Scenario:
    """A transient batch tenant joins at 30% and leaves at 70% of the run."""
    horizon = horizon if horizon is not None else 6 * 3600.0
    join, leave = 0.3 * horizon, 0.7 * horizon
    base = two_tenant_model(scale)
    churn_tenant = TenantWorkloadModel(
        tenant=CHURN_TENANT,
        arrival=PoissonProcessModel(rate=20 * scale / 3600.0),
        stages=(
            StageModel(
                "map",
                MAP_POOL,
                LognormalModel(mu=math.log(12), sigma=0.7, minimum=1),
                LognormalModel(mu=math.log(40), sigma=0.9, minimum=1),
            ),
        ),
        rate_pattern=SpikePattern(
            start=join, duration=leave - join, level=1.0, base=0.0
        ),
        tags=("transient", "batch"),
    )
    return Scenario(
        name="tenant-churn",
        description="map-heavy batch tenant joins mid-run and leaves again",
        cluster=two_tenant_cluster(),
        model=StatisticalWorkloadModel(
            [
                base.tenant_model(DEADLINE_TENANT),
                base.tenant_model(BEST_EFFORT_TENANT),
                churn_tenant,
            ]
        ),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.production(),
        churn=((join, CHURN_TENANT, True), (leave, CHURN_TENANT, False)),
    )


def failure_storm_scenario(scale: float = 1.5, horizon: float | None = None) -> Scenario:
    """Harsh noise plus a periodic wave of node-loss telemetry."""
    horizon = horizon if horizon is not None else 6 * 3600.0
    losses = tuple(
        (t, MAP_POOL if i % 2 == 0 else REDUCE_POOL, 2 + (i % 3))
        for i, t in enumerate(
            float(s) for s in range(1800, int(horizon), 2700)
        )
    )
    return Scenario(
        name="failure-storm",
        description="harsh failures/kills/restarts with node-loss bursts",
        cluster=two_tenant_cluster(),
        model=two_tenant_model(scale),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.harsh(),
        node_loss=losses,
    )


def flash_failure_scenario(
    scale: float = 1.5, horizon: float | None = None
) -> Scenario:
    """Compound stress: a flash crowd arriving mid failure-storm.

    Composes the two hardest single-factor scenarios: the best-effort
    tenant spikes to 5x while periodic node-loss bursts (under harsh
    cluster noise) are already shrinking the capacity the surge lands
    on.  The two signals interact — the drift guard sees the arrival
    surge at the same ticks the forced-retune flag fires for capacity
    loss — which is exactly the regime the single-factor scenarios
    cannot produce.
    """
    horizon = horizon if horizon is not None else 6 * 3600.0
    base = two_tenant_model(scale)
    best_effort = replace(
        base.tenant_model(BEST_EFFORT_TENANT),
        rate_pattern=SpikePattern(
            start=0.35 * horizon, duration=0.2 * horizon, level=5.0
        ),
    )
    losses = tuple(
        (t, MAP_POOL if i % 2 == 0 else REDUCE_POOL, 2 + (i % 3))
        for i, t in enumerate(
            float(s) for s in range(1800, int(horizon), 2700)
        )
    )
    return Scenario(
        name="flash-failure",
        description="5x best-effort surge during a node-loss failure storm",
        cluster=two_tenant_cluster(),
        model=StatisticalWorkloadModel(
            [base.tenant_model(DEADLINE_TENANT), best_effort]
        ),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.harsh(),
        node_loss=losses,
    )


def failure_recovery_scenario(
    scale: float = 1.5, horizon: float | None = None
) -> Scenario:
    """Node-loss bursts whose capacity is repaired a while later.

    Exercises the full loss/recovery cycle: each burst removes
    containers mid-run and a staggered repair returns them ~20 minutes
    later, so the tuner must first adapt to the shrunken cluster and
    then notice the capacity coming back (both transitions are
    forced-drift signals).
    """
    horizon = horizon if horizon is not None else 6 * 3600.0
    losses = tuple(
        (t, MAP_POOL if i % 2 == 0 else REDUCE_POOL, 2 + (i % 3))
        for i, t in enumerate(
            float(s) for s in range(1800, int(horizon) - 2400, 3600)
        )
    )
    recoveries = tuple(
        (when + 1200.0, pool, containers) for when, pool, containers in losses
    )
    return Scenario(
        name="failure-recovery",
        description="node-loss bursts repaired ~20 minutes later",
        cluster=two_tenant_cluster(),
        model=two_tenant_model(scale),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.harsh(),
        node_loss=losses,
        node_recovery=recoveries,
    )


def adversarial_scenario(
    scale: float = 1.5,
    horizon: float | None = None,
    *,
    cadence: float = 900.0,
) -> Scenario:
    """An SLO-gaming tenant inflating load just before retune boundaries.

    The ``gamer`` tenant knows the tuner's cadence (the serving
    default, 15 minutes) and bursts through the *last quarter* of every
    retune interval, idling the rest: every window the guards judge at
    a tick closes on a load spike, so observed QS at decision time is
    always worse than the interval's average.  The observed-vs-observed
    revert guard reads that as "the configuration just applied
    regressed" and churns reverts; the predictive guard re-evaluates
    incumbent and revert target on the *observed* (inflated) workload
    and correctly attributes the pain to the tenant, holding steady.

    ``cadence`` is the retune interval the adversary games; drive the
    replay with the same ``--interval`` for the full effect.
    """
    horizon = horizon if horizon is not None else 6 * 3600.0
    base = two_tenant_model(scale)
    gamer = TenantWorkloadModel(
        tenant=GAMING_TENANT,
        arrival=PoissonProcessModel(rate=60 * scale / 3600.0),
        stages=(
            StageModel(
                "map",
                MAP_POOL,
                LognormalModel(mu=math.log(10), sigma=0.6, minimum=1),
                LognormalModel(mu=math.log(45), sigma=0.8, minimum=1),
            ),
        ),
        rate_pattern=BurstPattern(
            period=cadence,
            burst_fraction=0.25,
            burst_level=4.0,
            idle_level=0.05,
            phase=0.75,
        ),
        tags=("adversarial",),
    )
    return Scenario(
        name="adversarial",
        description="SLO-gaming tenant bursting just before retune boundaries",
        cluster=two_tenant_cluster(),
        model=StatisticalWorkloadModel(
            [
                base.tenant_model(DEADLINE_TENANT),
                base.tenant_model(BEST_EFFORT_TENANT),
                gamer,
            ]
        ),
        slos=_two_tenant_slos(),
        initial_config=two_tenant_expert_config(),
        horizon=horizon,
        noise=NoiseModel.production(),
    )


#: Scenario catalog: name -> factory(scale, horizon).
SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "steady": steady_scenario,
    "flash-crowd": flash_crowd_scenario,
    "diurnal-wave": diurnal_wave_scenario,
    "tenant-churn": tenant_churn_scenario,
    "failure-storm": failure_storm_scenario,
    "failure-recovery": failure_recovery_scenario,
    "flash-failure": flash_failure_scenario,
    "adversarial": adversarial_scenario,
}


def make_scenario(
    name: str, scale: float | None = None, horizon: float | None = None
) -> Scenario:
    """Instantiate a catalog scenario by name (KeyError if unknown)."""
    factory = SCENARIOS[name]
    if scale is None:
        return factory(horizon=horizon)
    return factory(scale, horizon=horizon)


def build_controller(
    scenario: Scenario, seed: int = 0, **controller_kwargs
) -> TempoController:
    """A fresh controller wired for ``scenario`` (cluster + SLOs + space).

    This is also what ``repro resume`` rebuilds before handing the
    controller to :meth:`~repro.service.daemon.TempoService.resume`,
    which then overwrites its tuning state from the persisted one.
    """
    space = ConfigSpace(scenario.cluster, sorted(scenario.model.tenants))
    return TempoController(
        scenario.cluster,
        scenario.slos,
        space,
        scenario.initial_config,
        noise=scenario.noise,
        seed=seed,
        **controller_kwargs,
    )


def build_service(
    scenario: Scenario,
    config: ServiceConfig | None = None,
    seed: int = 0,
    state=None,
    shards: int = 1,
    tcp_workers: bool = False,
    failover=None,
    transport=None,
    **controller_kwargs,
) -> TempoService:
    """A TempoService wired for ``scenario`` (controller + config space).

    ``state`` optionally attaches a durable
    :class:`~repro.service.snapshot.ServiceState` home; ``shards`` and
    ``tcp_workers`` configure the data plane (see
    :mod:`repro.service.sharding` and
    :mod:`repro.service.transport`); ``failover`` optionally enables
    shard supervision (a :class:`~repro.service.failover.
    FailoverConfig`); ``transport`` tunes the TCP plane (a
    :class:`~repro.service.transport.TransportConfig`).
    """
    controller = build_controller(scenario, seed=seed, **controller_kwargs)
    return TempoService(
        controller,
        config,
        state=state,
        shards=shards,
        tcp_workers=tcp_workers,
        failover=failover,
        transport=transport,
    )


@dataclass(frozen=True)
class ReplaySummary:
    """Aggregate result of one replay run.

    Attributes:
        scenario: Scenario name.
        horizon: Simulated end time of the replay.
        start: Simulated time the replay began at (resumed runs only).
        events: Telemetry events delivered (excluding heartbeats).
        jobs_submitted: Submission events among them.
        jobs_completed: Completion events among them.
        tasks: Task-completion events among them.
        retunes: Cadence ticks that applied a tune (this run only — a
            resumed daemon's pre-crash decisions are not re-counted).
        skips: Cadence ticks skipped by a guard (this run only).
        reverts: Applied tunes the controller's guard rolled back
            (this run only).
        dropped: Events shed by the bounded bus (bus transport only).
        wall_seconds: Wall-clock duration of the replay.
        events_per_second: Telemetry throughput (events / wall_seconds).
        max_stats_gap: Largest incremental-vs-batch stats deviation seen.
        peak_backlog: Largest (submitted - completed) job count seen in
            delivery order — the signal that backlog compounds across
            retune intervals.
        mean_response: Mean response time of the delivered completions.
        decisions: Every retune decision of this run, in order.
        final_config: The configuration left applied.
    """

    scenario: str
    horizon: float
    start: float
    events: int
    jobs_submitted: int
    jobs_completed: int
    tasks: int
    retunes: int
    skips: int
    reverts: int
    dropped: int
    wall_seconds: float
    events_per_second: float
    max_stats_gap: float
    peak_backlog: int
    mean_response: float
    decisions: tuple[RetuneDecision, ...]
    final_config: RMConfig


class ScenarioReplayer:
    """Feeds a scenario's telemetry through a service end-to-end.

    Args:
        scenario: The situation to replay.
        service: Optionally a pre-built service (default: one wired via
            :func:`build_service` with ``seed``).
        speedup: Simulated seconds per wall-clock second; ``<= 0`` means
            as fast as possible (pacing applied at chunk granularity).
        seed: Seed for workload generation and production simulation.
        transport: ``"direct"`` calls ``service.process`` synchronously
            (deterministic; enables per-chunk verification);
            ``"bus"`` publishes to the service's event bus and runs the
            daemon's background thread.
        verify_stats: Track the incremental-vs-batch stats gap
            (per chunk when direct, once at the end when bus).
        record_to: Optional list collecting every delivered event in
            delivery order — the capture side of trace-file replay
            (write it out with :func:`dump_trace_events`).
        injector: Optional :class:`~repro.service.failover.
            FaultInjector`: armed against the service before the first
            chunk, and advanced to each chunk boundary's simulated time
            so scheduled faults fire deterministically at chunk edges —
            the chaos axis of the replay harness (``repro chaos``).
    """

    def __init__(
        self,
        scenario: Scenario,
        service: TempoService | None = None,
        *,
        speedup: float = 0.0,
        seed: int = 0,
        transport: str = "direct",
        verify_stats: bool = True,
        record_to: list[ServiceEvent] | None = None,
        injector=None,
    ):
        if transport not in ("direct", "bus"):
            raise ValueError(f"unknown transport {transport!r}")
        self.scenario = scenario
        self.service = service or build_service(scenario, seed=seed)
        self.speedup = speedup
        self.seed = seed
        self.transport = transport
        self.verify_stats = verify_stats
        self.record_to = record_to
        self.injector = injector
        self.sim = ClusterSimulator(scenario.cluster, noise=scenario.noise, seed=seed)

    def run(
        self, horizon: float | None = None, start: float = 0.0
    ) -> ReplaySummary:
        """Replay from ``start`` to ``horizon`` simulated seconds.

        ``horizon`` defaults to the scenario's.  A non-zero ``start`` is
        the resume path: the same seed regenerates the same scenario
        workload, jobs submitted before ``start`` are skipped (their
        telemetry is already in the resumed daemon's journal), and the
        production simulation restarts at the boundary.
        """
        horizon = horizon if horizon is not None else self.scenario.horizon
        if not 0.0 <= start < horizon:
            raise ValueError(f"start must be in [0, horizon), got {start}")
        service = self.service
        workload = self.scenario.model.generate(self.seed, horizon)
        if start > 0.0:
            # Session-local clock: 0 is `start`; event times shift back.
            workload = workload.window(start, horizon)
        span = horizon - start
        chunk = service.config.retune_interval
        session = self.sim.session(workload, service.controller.config, seed=self.seed)
        arrivals = sorted(workload, key=lambda j: (j.submit_time, j.job_id))
        # Capacity changes before the resume boundary stay applied: the
        # resumed service's what-if cluster already reflects them
        # (journal replay restored it), so the production session must
        # start in the same shape — without re-emitting the
        # NodeLost/NodeRecovered events.  Losses and recoveries are
        # replayed in time order so interleaved cycles net out.
        changes = sorted(
            [(when, 0, pool, n) for when, pool, n in self.scenario.node_loss]
            + [(when, 1, pool, n) for when, pool, n in self.scenario.node_recovery]
        )
        for when, recovered, pool, containers in changes:
            if when >= start:
                break
            if recovered:
                session.restore_capacity(pool, containers)
            else:
                session.lose_capacity(pool, containers)
        if self.transport == "bus":
            service.start()
        # Decisions made before this run (a resumed daemon restores its
        # whole history) are excluded, so every summary field covers the
        # same scope: what *this* replay drove.  Decision times are
        # strictly increasing, so the cut survives the bounded decision
        # deque evicting old entries mid-run (a length-based slice
        # would not).
        prior_time = service.decisions[-1].time if service.decisions else -math.inf
        if self.injector is not None:
            self.injector.arm(service)
        wall_start = _time.perf_counter()
        counts = {
            "events": 0,
            "submitted": 0,
            "completed": 0,
            "tasks": 0,
            "backlog_peak": 0,
            "response_sum": 0.0,
        }
        max_gap = 0.0
        s0 = 0.0
        arrival_cursor = 0
        while s0 < span:
            s1 = min(s0 + chunk, span)
            events, arrival_cursor = self._continuous_chunk(
                session, arrivals, arrival_cursor, s0, s1, start
            )
            # The final interval's heartbeat is withheld until its drain
            # finishes (below): a journaled heartbeat at the horizon must
            # mean "this run's telemetry is complete", so that a crash
            # during the drain resumes by re-simulating the final
            # interval, not by mistaking the run for finished with its
            # backlog completions missing.
            if s1 < span:
                events.append(Heartbeat(start + s1))
            if self.injector is not None:
                # Faults land at chunk boundaries: every spec whose
                # simulated time has come fires before this chunk's
                # delivery, deterministically.
                self.injector.advance(start + s0)
            self._pace(wall_start, s1)
            self._deliver(events, counts)
            if self.transport == "bus":
                # Barrier: let the daemon drain this chunk before the
                # next one is simulated, so production always runs under
                # the currently applied (possibly just retuned) config.
                service.quiesce()
            if (
                self.verify_stats
                and self.transport == "direct"
                and service.telemetry_ingested
            ):
                max_gap = max(max_gap, service.stats_gap_now())
            s0 = s1
        # Backlog still queued or running at the horizon completes in a
        # final drain; its telemetry (timestamped past the horizon) is
        # exactly the compounded-backlog signal.  The closing heartbeat
        # — the only one at the horizon — marks the whole run, drain
        # included, as journaled.
        drain_events = self._drain_events(session, start) if not session.idle else []
        drain_events.append(Heartbeat(horizon))
        if self.injector is not None:
            self.injector.advance(horizon)
        self._deliver(drain_events, counts)
        if self.transport == "bus":
            service.quiesce()
        if self.transport == "bus":
            service.stop()
            if self.verify_stats and service.telemetry_ingested:
                max_gap = max(max_gap, service.stats_gap_now())
        wall = _time.perf_counter() - wall_start
        decisions = [d for d in service.decisions if d.time > prior_time]
        reverts = sum(
            1
            for d in decisions
            if d.iteration is not None and d.iteration.reverted
        )
        retunes = sum(1 for d in decisions if d.retuned)
        return ReplaySummary(
            scenario=self.scenario.name,
            horizon=horizon,
            start=start,
            events=counts["events"],
            jobs_submitted=counts["submitted"],
            jobs_completed=counts["completed"],
            tasks=counts["tasks"],
            retunes=retunes,
            skips=len(decisions) - retunes,
            reverts=reverts,
            dropped=service.bus.dropped,
            wall_seconds=wall,
            events_per_second=counts["events"] / wall if wall > 0 else math.inf,
            max_stats_gap=max_gap,
            peak_backlog=int(counts["backlog_peak"]),
            mean_response=(
                counts["response_sum"] / counts["completed"]
                if counts["completed"]
                else 0.0
            ),
            decisions=tuple(decisions),
            final_config=service.rm_config,
        )

    # -- internals ----------------------------------------------------------

    def _deliver(self, events: list[ServiceEvent], counts: dict) -> None:
        if self.record_to is not None:
            self.record_to.extend(events)
        if self.transport == "direct":
            # The batch fast path: the whole chunk is journaled with one
            # group commit per cadence sub-batch and folded with one
            # eviction pass — same decisions as per-event delivery.
            self.service.ingest_batch(events)
            for event in events:
                self._count(event, counts)
            return
        for event in events:
            if isinstance(event, Heartbeat):
                # Chunk heartbeats are `repro resume`'s truncation
                # boundary; shedding one would mark a fully-journaled
                # interval as incomplete, so they bypass the lossy path.
                self.service.submit_blocking(event)
            elif not self.service.submit(event):
                continue  # shed by the bounded bus; counted as dropped
            self._count(event, counts)

    def _pace(self, wall_start: float, sim_time: float) -> None:
        if self.speedup <= 0:
            return
        target = sim_time / self.speedup
        delay = target - (_time.perf_counter() - wall_start)
        if delay > 0:
            _time.sleep(delay)

    @staticmethod
    def _count(event: ServiceEvent, counts: dict) -> None:
        if isinstance(event, Heartbeat):
            return
        counts["events"] += 1
        if isinstance(event, JobSubmitted):
            counts["submitted"] += 1
            counts["backlog_peak"] = max(
                counts["backlog_peak"], counts["submitted"] - counts["completed"]
            )
        elif isinstance(event, JobCompleted):
            counts["completed"] += 1
            counts["response_sum"] += event.record.response_time
        elif isinstance(event, TaskCompleted):
            counts["tasks"] += 1

    def _continuous_chunk(
        self,
        session: SimulationSession,
        arrivals: list,
        cursor: int,
        s0: float,
        s1: float,
        offset: float,
    ) -> tuple[list[ServiceEvent], int]:
        """Advance the continuous session through ``[s0, s1)``.

        Scheduled node loss shrinks the session's capacity at the chunk
        boundary (loss timing inside a chunk is approximated to its
        start), and the currently applied configuration is swapped in
        before advancing — the mid-run config swap that makes one
        session span the whole replay.  Times are session-local;
        ``offset`` shifts them back to scenario-absolute.
        """
        events: list[tuple[tuple, ServiceEvent]] = []
        for when, pool, containers in self._losses_in(offset + s0, offset + s1):
            # Telemetry reports what the cluster actually lost — the
            # session clamps removal (a pool keeps >= 1 container), and
            # overstating the loss would make the service's what-if
            # cluster diverge from the simulated truth.
            removed = session.lose_capacity(pool, containers)
            if removed:
                events.append(
                    ((when, 4, pool), NodeLost(when, pool=pool, containers=removed))
                )
        for when, pool, containers in self._recoveries_in(offset + s0, offset + s1):
            # Same truthfulness rule in reverse: telemetry reports what
            # actually came back (clamped to the capacity still lost).
            restored = session.restore_capacity(pool, containers)
            if restored:
                # Sorts after a same-instant loss.
                events.append(
                    (
                        (when, 5, pool),
                        NodeRecovered(when, pool=pool, containers=restored),
                    )
                )
        session.set_config(self.service.controller.config)
        tasks, jobs = session.advance_to(s1)
        while cursor < len(arrivals) and arrivals[cursor].submit_time < s1:
            job = arrivals[cursor]
            when = offset + job.submit_time
            events.append(
                (
                    (when, 0, job.job_id),
                    JobSubmitted(
                        when,
                        tenant=job.tenant,
                        job_id=job.job_id,
                        deadline=None
                        if job.deadline is None
                        else offset + job.deadline,
                    ),
                )
            )
            cursor += 1
        self._append_record_events(events, tasks, jobs, offset)
        self._append_churn_events(events, offset + s0, offset + s1)
        events.sort(key=lambda pair: pair[0])
        return [event for _, event in events], cursor

    def _losses_in(self, lo: float, hi: float) -> list[tuple[float, str, int]]:
        """Scheduled node losses with absolute time in ``[lo, hi)``."""
        return [
            (when, pool, containers)
            for when, pool, containers in self.scenario.node_loss
            if lo <= when < hi
        ]

    def _recoveries_in(self, lo: float, hi: float) -> list[tuple[float, str, int]]:
        """Scheduled node recoveries with absolute time in ``[lo, hi)``."""
        return [
            (when, pool, containers)
            for when, pool, containers in self.scenario.node_recovery
            if lo <= when < hi
        ]

    def _append_churn_events(self, events: list, lo: float, hi: float) -> None:
        """Keyed tenant-churn events with absolute time in ``[lo, hi)``."""
        for when, tenant, joined in self.scenario.churn:
            if lo <= when < hi:
                cls = TenantJoined if joined else TenantLeft
                events.append(((when, 3, tenant), cls(when, tenant=tenant)))

    def _drain_events(
        self, session: SimulationSession, offset: float
    ) -> list[ServiceEvent]:
        """Completion telemetry of the backlog left at the horizon."""
        tasks, jobs = session.drain()
        events: list[tuple[tuple, ServiceEvent]] = []
        self._append_record_events(events, tasks, jobs, offset)
        events.sort(key=lambda pair: pair[0])
        return [event for _, event in events]

    @staticmethod
    def _append_record_events(
        events: list, tasks: list, jobs: list, offset: float
    ) -> None:
        for rec in tasks:
            shifted = shift_task(rec, offset) if offset else rec
            events.append(
                (
                    (shifted.finish_time, 1, shifted.task_id, shifted.attempt),
                    TaskCompleted(shifted.finish_time, record=shifted),
                )
            )
        for jrec in jobs:
            shifted_job = shift_job(jrec, offset) if offset else jrec
            events.append(
                (
                    (shifted_job.finish_time, 2, shifted_job.job_id),
                    JobCompleted(shifted_job.finish_time, record=shifted_job),
                )
            )


# -- trace-file replay --------------------------------------------------------
#
# Recorded telemetry — from a previous replay (`--save-trace`), or from a
# real RM's callback log converted to the event vocabulary — replayed
# through the (optionally sharded) serving pipeline.  The wire format is
# one `encode_event` JSON object per line: the journal's canonical event
# codec without the CRC frame or sequence numbers, so a trace file is
# producible with nothing but `json.dumps`.


def events_from_trace(trace, *, heartbeat_interval: float | None = None):
    """Convert an observed :class:`~repro.workload.trace.Trace` into the
    service's telemetry-event vocabulary.

    This is the bridge from a *real* RM's callback log to the serving
    pipeline: what an RM exposes through its job-submitted /
    task-finished / job-finished callbacks is exactly the job and task
    records an archived trace holds (``repro simulate --save`` writes
    the same format), and this function replays those records as the
    event stream the RM would have emitted live —
    :class:`~repro.service.events.JobSubmitted` at each submission,
    :class:`~repro.service.events.TaskCompleted` /
    :class:`~repro.service.events.JobCompleted` at each completion, in
    timestamp order with the replayer's tie-breaking ranks.

    ``heartbeat_interval`` inserts a :class:`~repro.service.events.
    Heartbeat` every that-many seconds (plus one at the horizon), so
    the daemon's retune cadence keeps firing through quiet stretches
    of the log; ``None`` emits no heartbeats (the raw callbacks only).
    """
    keyed: list[tuple[tuple, ServiceEvent]] = []
    for jrec in trace.job_records:
        keyed.append(
            (
                (jrec.submit_time, 0, jrec.job_id),
                JobSubmitted(
                    jrec.submit_time,
                    tenant=jrec.tenant,
                    job_id=jrec.job_id,
                    deadline=jrec.deadline,
                ),
            )
        )
        keyed.append(
            (
                (jrec.finish_time, 2, jrec.job_id),
                JobCompleted(jrec.finish_time, record=jrec),
            )
        )
    for trec in trace.task_records:
        keyed.append(
            (
                (trec.finish_time, 1, trec.task_id, trec.attempt),
                TaskCompleted(trec.finish_time, record=trec),
            )
        )
    if heartbeat_interval is not None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        horizon = max(
            [trace.horizon]
            + [t.finish_time for t in trace.task_records]
            + [j.finish_time for j in trace.job_records]
        )
        tick = heartbeat_interval
        while tick < horizon:
            keyed.append(((tick, 3, ""), Heartbeat(tick)))
            tick += heartbeat_interval
        keyed.append(((horizon, 3, ""), Heartbeat(horizon)))
    keyed.sort(key=lambda pair: pair[0])
    return [event for _, event in keyed]


def convert_rm_log(
    log_path, out_path, *, heartbeat_interval: float | None = None
) -> int:
    """Convert an RM callback log (archived trace JSONL) to a service
    trace file replayable with ``repro replay --trace``.

    Reads the :meth:`~repro.workload.trace.Trace.to_jsonl` format — the
    ``header``/``job``/``task`` rows a real RM's callback recorder (or
    ``repro simulate --save``) archives; the header row is optional —
    and writes the event-per-line format of :func:`dump_trace_events`.
    Returns the number of events written.
    """
    from pathlib import Path as _Path

    from repro.workload.trace import Trace as _Trace

    trace = _Trace.from_jsonl(_Path(log_path).read_text())
    events = events_from_trace(trace, heartbeat_interval=heartbeat_interval)
    return dump_trace_events(events, out_path)


def dump_trace_events(events, path) -> int:
    """Write telemetry events as a JSONL trace file; returns the count."""
    import json as _json
    from pathlib import Path as _Path

    lines = [
        _json.dumps(encode_event(event), sort_keys=True) for event in events
    ]
    _Path(path).write_text("".join(line + "\n" for line in lines))
    return len(lines)


def load_trace_events(path) -> list[ServiceEvent]:
    """Read a JSONL trace file back into event objects (inverse of dump)."""
    import json as _json
    from pathlib import Path as _Path

    events: list[ServiceEvent] = []
    for i, line in enumerate(_Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            events.append(decode_event(_json.loads(line)))
        except Exception as exc:
            raise ValueError(f"bad trace record at {path} line {i + 1}: {exc}")
    return events


def replay_trace(
    service: TempoService,
    events: list[ServiceEvent],
    *,
    speedup: float = 0.0,
    verify_stats: bool = True,
    batch: int = 512,
) -> ReplaySummary:
    """Feed recorded telemetry through a service (sharded or not).

    The trace-file twin of :meth:`ScenarioReplayer.run`: events are
    delivered in order through :meth:`TempoService.ingest_batch` (the
    group-commit pipeline, which splits batches at the cadence ticks
    they cross), paced by ``speedup`` simulated seconds per wall second
    (``<= 0``: as fast as possible).  Returns a summary whose scenario
    name is ``"trace"``.

    The service must be built for a scenario whose cluster, SLOs, and
    config space cover the trace's tenants — a retune on telemetry from
    unknown tenants has no configuration surface to tune.
    """
    prior_time = service.decisions[-1].time if service.decisions else -math.inf
    counts = {
        "events": 0,
        "submitted": 0,
        "completed": 0,
        "tasks": 0,
        "backlog_peak": 0,
        "response_sum": 0.0,
    }
    max_gap = 0.0
    wall_start = _time.perf_counter()
    # Pace against the trace-local clock: a recorded trace may start at
    # an arbitrary (even epoch-scale) timestamp, and absolute-time
    # pacing would sleep that whole offset away before delivering.
    epoch = events[0].time if events else 0.0
    for i in range(0, len(events), batch):
        chunk = events[i : i + batch]
        if speedup > 0:
            target = (chunk[-1].time - epoch) / speedup
            delay = target - (_time.perf_counter() - wall_start)
            if delay > 0:
                _time.sleep(delay)
        service.ingest_batch(chunk)
        for event in chunk:
            ScenarioReplayer._count(event, counts)
    if verify_stats and service.telemetry_ingested:
        max_gap = service.stats_gap_now()
    wall = _time.perf_counter() - wall_start
    decisions = [d for d in service.decisions if d.time > prior_time]
    retunes = sum(1 for d in decisions if d.retuned)
    reverts = sum(
        1 for d in decisions if d.iteration is not None and d.iteration.reverted
    )
    return ReplaySummary(
        scenario="trace",
        horizon=events[-1].time if events else 0.0,
        start=events[0].time if events else 0.0,
        events=counts["events"],
        jobs_submitted=counts["submitted"],
        jobs_completed=counts["completed"],
        tasks=counts["tasks"],
        retunes=retunes,
        skips=len(decisions) - retunes,
        reverts=reverts,
        dropped=service.bus.dropped,
        wall_seconds=wall,
        events_per_second=counts["events"] / wall if wall > 0 else math.inf,
        max_stats_gap=max_gap,
        peak_backlog=int(counts["backlog_peak"]),
        mean_response=(
            counts["response_sum"] / counts["completed"]
            if counts["completed"]
            else 0.0
        ),
        decisions=tuple(decisions),
        final_config=service.rm_config,
    )


