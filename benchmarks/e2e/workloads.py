"""The five workloads: input streams, the timed passes, the oracles.

A **pass** is one closed-loop drive of a pre-generated, time-ordered
event list through the real serve path, one client, one thread: the
list is fed through :meth:`TempoService.ingest_batch` as fast as the
service accepts it, so the generator never competes with the system
under test.  The service is built the way ``repro serve --state-dir``
builds it — every flag at the CLI parser's default — so a later change
that flips a default moves the numbers; the only overrides are the
documented per-workload ones in :data:`WORKLOADS`.

Everything a pass measures comes from outside the program: wall time
around calls into public methods, and state read back through public
attributes once the timed region has ended.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import inspect
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

from repro.cli import build_parser
from repro.core.controller import TempoController
from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import Heartbeat, JobCompleted, JobSubmitted, TaskCompleted
from repro.service.replay import (
    build_controller,
    build_service,
    events_from_trace,
    make_scenario,
)
from repro.service.sharding import IngestShard
from repro.service.snapshot import ServiceState, config_to_dict
from repro.sim.simulator import ClusterSimulator
from repro.workload.trace import JobRecord, TaskRecord

#: Largest tolerated deviation wherever two windows must agree.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    """One named input + service configuration (see the README table).

    ``tiles > 0`` tiles the simulated base trace into a many-tenant
    firehose; ``tiles == 0`` replays the base trace itself, cut at the
    generation horizon.  ``override`` is the one documented
    ``ServiceConfig`` value the workload sets besides window and
    cadence.  ``resumes > 0`` makes the pass a crash-recovery pass with
    that many timed resumes.
    """

    name: str
    why: str
    scale: float
    hours: float
    window: float
    retune_interval: float
    chunk: int
    override: dict
    shards: int = 1
    tiles: int = 0
    resumes: int = 0

    @property
    def holds(self) -> bool:
        """Whether every tick holds (no tune ever runs)."""
        return "min_window_jobs" in self.override


_HOLD = {"min_window_jobs": 10**9}  # every tick holds as "sparse"
_TUNE = {"drift_threshold": 0.0}  # every tick tunes (memo misses)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "firehose_1shard",
            "ingest-dominated: journal encode/write, window fold and the "
            "snapshot cadence do the work; the what-if plane does none",
            scale=2.0, hours=2.0, window=600.0, retune_interval=300.0,
            chunk=512, override=_HOLD, tiles=20,
        ),
        Workload(
            "firehose_4shard",
            "the same stream through 4 in-process shards: adds partition, "
            "per-shard journals and the tick-time drain/merge",
            scale=2.0, hours=2.0, window=600.0, retune_interval=300.0,
            chunk=512, override=_HOLD, tiles=20, shards=4,
        ),
        Workload(
            "retune_small",
            "decision-dominated, small windows: the fixed per-tick cost "
            "(trace, what-if build, PALD, guards, forced snapshot) is a large share",
            scale=1.0, hours=8.0, window=1800.0, retune_interval=900.0,
            chunk=64, override=_TUNE,
        ),
        Workload(
            "retune_large",
            "decision-dominated, large windows: the five schedule "
            "simulations per tick are by far the largest share",
            scale=2.0, hours=4.0, window=3600.0, retune_interval=900.0,
            chunk=64, override=_TUNE,
        ),
        Workload(
            "resume_replay",
            "reads beside writes: crash before the first snapshot, then "
            "full-journal read/decode/replay and serving on from there",
            scale=2.0, hours=2.0, window=600.0, retune_interval=300.0,
            chunk=512, override=_HOLD, tiles=20, resumes=2,
        ),
    ]
}


def smoke_sized(workload: Workload) -> Workload:
    """The same workload on a tiny stream (checks only, no numbers)."""
    return replace(
        workload,
        hours=workload.hours / 8,
        tiles=min(workload.tiles, 3),
        resumes=min(workload.resumes, 1),
    )


# -- input streams ------------------------------------------------------------


@dataclass
class Stream:
    """A generated input: the scenario it came from and its events."""

    scenario: object
    events: list


#: Generator seed of what the tenants submit.  Fixed, so every run of a
#: workload carries the same offered load; ``--seed`` drives everything
#: that happens to it (see :func:`generate`).
SUBMISSIONS_SEED = 7919


def simulate(scale: float, hours: float, noise_seed: int):
    """The ``steady`` scenario run once through the cluster simulator."""
    scenario = make_scenario("steady", scale=scale, horizon=hours * 3600.0)
    jobs = scenario.model.generate(SUBMISSIONS_SEED, scenario.horizon)
    simulator = ClusterSimulator(scenario.cluster, noise=scenario.noise, seed=noise_seed)
    return scenario, simulator.run(jobs, scenario.initial_config, seed=noise_seed)


def tile_events(
    base: list,
    tiles: int,
    *,
    shift: float = 37.0,
    tenants: int = 128,
    heartbeat: float = 60.0,
) -> list:
    """Tile a time-ordered telemetry list into a many-tenant firehose.

    Tile ``k`` is the whole list shifted by ``shift * k`` seconds with
    job/task ids suffixed ``#k``; a job lands on tenant
    ``(job ordinal + k) mod tenants``, so every tenant sees jobs of
    several overlapping tiles and window eviction stays continuously
    active.  A heartbeat every ``heartbeat`` seconds drives the cadence.
    """
    ordinal: dict[str, int] = {}
    out: list = []
    for k in range(tiles):
        dt, tag = shift * k, f"#{k}"
        names = [f"tenant-{(i + k) % tenants:03d}" for i in range(tenants)]
        for event in base:
            if type(event) is JobSubmitted:
                slot = ordinal.setdefault(event.job_id, len(ordinal))
                deadline = None if event.deadline is None else event.deadline + dt
                out.append(
                    JobSubmitted(
                        event.time + dt, names[slot % tenants], event.job_id + tag, deadline
                    )
                )
                continue
            r = event.record
            tenant = names[ordinal.setdefault(r.job_id, len(ordinal)) % tenants]
            if type(event) is TaskCompleted:
                record = TaskRecord(
                    r.job_id + tag, r.task_id + tag, tenant, r.pool, r.stage,
                    r.submit_time + dt, r.start_time + dt, r.finish_time + dt,
                    r.containers, r.preempted, r.failed, r.attempt,
                )
                out.append(TaskCompleted(event.time + dt, record))
            else:
                record = JobRecord(
                    r.job_id + tag, tenant, r.submit_time + dt, r.finish_time + dt,
                    None if r.deadline is None else r.deadline + dt,
                    r.num_tasks, r.tags, r.stage_deps,
                )
                out.append(JobCompleted(event.time + dt, record))
    end = max(event.time for event in out)
    beat = heartbeat
    while beat < end:
        out.append(Heartbeat(beat))
        beat += heartbeat
    out.sort(key=lambda event: event.time)  # stable: per-tile order survives ties
    return out


def generate(workload: Workload, seed: int, index: int) -> Stream:
    """The input of pass ``index`` of a run seeded ``seed``.

    The seed (a fresh one per pass) drives the simulated cluster's
    noise — task-duration noise, stragglers, failures, node restarts,
    record jitter — so every event time and most window contents differ
    between seeds and passes, while the jobs submitted do not.  With the
    submissions seeded too, the tick latencies of two seeds differed by
    more than any regression bound (a window's cost follows its task
    count), which no run of affordable length averages out.
    """
    scenario, trace = simulate(workload.scale, workload.hours, seed * 1009 + index)
    # Cut at the generation horizon: the sparse straggler tail past it
    # would only add ticks on near-empty windows.
    horizon = workload.hours * 3600.0
    beat = None if workload.tiles else 300.0
    events = [
        event
        for event in events_from_trace(trace, heartbeat_interval=beat)
        if event.time <= horizon
    ]
    if workload.tiles:
        events = tile_events(events, workload.tiles)
    return Stream(scenario, events)


def stream_digest(events: list) -> str:
    """A content hash of an event list (determinism checks)."""
    digest = hashlib.blake2b(digest_size=16)
    for event in events:
        digest.update(repr(event).encode())
    return digest.hexdigest()


# -- the serve path, as `repro serve --state-dir` builds it -------------------


@functools.cache
def _cli_defaults() -> dict:
    return vars(build_parser().parse_args(["serve"]))


def _serve_defaults(target) -> dict:
    """The ``repro serve`` flag defaults that ``target`` takes by name."""
    accepted = inspect.signature(target).parameters
    return {key: value for key, value in _cli_defaults().items() if key in accepted}


def open_state(root: Path, shards: int, **overrides) -> ServiceState:
    """A state dir opened with the CLI's journal/snapshot defaults."""
    options = {**_serve_defaults(ServiceState.__init__), "shards": shards}
    return ServiceState(root, **{**options, **overrides})


def controller_options(seed: int) -> dict:
    """The CLI's controller defaults (guards, what-if workers, memo)."""
    return {**_serve_defaults(TempoController.__init__), "seed": seed}


def service_config(workload: Workload) -> ServiceConfig:
    """The workload's window and cadence; metrics sampled like the CLI."""
    return ServiceConfig(
        window=workload.window,
        retune_interval=workload.retune_interval,
        sample_metrics=True,
        **workload.override,
    )


# -- measurement --------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass measured and checked.

    ``events`` / ``wall_s`` are the throughput parts: events folded by
    ``ingest_batch`` calls that made no decision (plus the closing
    flush), or journal records replayed by ``resume``.  ``tick_ms`` is
    the wall time of every ``ingest_batch`` call that returned a
    decision.  ``timed_s`` is the whole timed region.
    """

    events: int = 0
    wall_s: float = 0.0
    timed_s: float = 0.0
    tick_ms: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one correctness check; keep the message if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@contextmanager
def timed_region(tracer):
    """Collect garbage, then keep every object alive so far out of the
    collector until the region ends (and install ``tracer``, if any).

    The pre-generated stream is about a million objects of the
    benchmark's own: left in the collector's sight, every full
    collection the service triggers walks them (measured: 0.45 s of a
    2.6 s ``firehose_4shard`` pass, 0.07 s with them frozen) — time, and
    cache-miss noise, that no deployment of the service would pay.
    """
    gc.collect()
    gc.freeze()
    try:
        with tracer or nullcontext():
            yield
    finally:
        gc.unfreeze()


def _retained(service: TempoService) -> int:
    return sum(
        shard.window.tasks_retained + shard.window.jobs_retained
        for shard in service.shards
    )


def feed(workload, service, state, events, result: PassResult, tracer, throughput=True):
    """The closed loop: chunks through ``ingest_batch``, then the flush.

    Returns the decisions made.  The timed region ends at the journal
    flush and shard barrier (``close`` of service and state).  With
    ``throughput`` the calls that made no decision, and the flush,
    count into the pass's ``events`` / ``wall_s``.
    """
    decisions: list = []
    crowded = 0
    peak = result.facts.get("retained_peak", 0)
    for batch, start in enumerate(range(0, len(events), workload.chunk)):
        part = events[start : start + workload.chunk]
        if tracer is not None:
            tracer.batch = batch
        began = perf_counter()
        made = service.ingest_batch(part)
        took = perf_counter() - began
        if made:
            result.tick_ms.append(took * 1e3)
            decisions.extend(made)
            crowded += len(made) > 1
        elif throughput:
            result.events += len(part)
            result.wall_s += took
        if tracer is not None:
            peak = max(peak, _retained(service))
    began = perf_counter()
    service.close()
    state.close()
    if throughput:
        result.wall_s += perf_counter() - began
    result.attempted += len(events)
    result.facts["retained_peak"] = peak
    result.check(service.bus.dropped == 0, f"bus dropped {service.bus.dropped} events")
    if not workload.holds:
        result.check(not crowded, f"{crowded} ingest_batch call(s) made >1 decision")
    return decisions


def snapshot_gap(a: dict, b: dict) -> float:
    """Largest numeric field deviation between two window snapshots."""
    if set(a) != set(b):
        return float("inf")
    gap = 0.0
    for name, stats in a.items():
        for f in fields(stats):
            if f.name != "tenant":
                gap = max(gap, abs(getattr(stats, f.name) - getattr(b[name], f.name)))
    return gap


def reference_snapshot(events: list, window: float) -> dict:
    """The stream folded into one bare window (the single-window oracle)."""
    single = IngestShard(0, window)
    single.fold(events)
    return single.window.snapshot()


def audit_journals(state: ServiceState, result: PassResult) -> None:
    """Retained journal records are consecutive and end at ``last_seq``.

    Auto-compaction deletes covered segments, so only the retained tail
    can be read back; ``resume_replay`` (no snapshot, nothing compacted)
    checks the complete journal against the events submitted.
    """
    journals = [state.journal]
    if state.shards > 1:
        journals += [state.shard_journal(i) for i in range(state.shards)]
    records = size = 0
    for journal in journals:
        seqs = [record.seq for record in journal.iter_records()]
        result.check(
            seqs == list(range(journal.last_seq - len(seqs) + 1, journal.last_seq + 1)),
            "journal seqs are not consecutive up to last_seq (gap or duplicate)",
        )
        records += len(seqs)
        size += sum(path.stat().st_size for path in journal.segments())
    snapshots = state.snapshots.paths()
    result.facts.update(
        journal_bytes_per_event=size / records if records else 0.0,
        snapshot_bytes_last=snapshots[-1].stat().st_size if snapshots else 0,
    )


def check_decisions(workload: Workload, events, decisions, result: PassResult) -> None:
    """Tick count and verdicts the workload's configuration implies."""
    span = events[-1].time - events[0].time
    expected = int(span // workload.retune_interval)
    result.check(
        abs(len(decisions) - expected) <= 1,
        f"{len(decisions)} ticks, expected {expected}±1",
    )
    if workload.holds:
        moved = [d.verdict for d in decisions if d.verdict != "hold"]
        result.check(not moved, f"{len(moved)} tick(s) did not hold")
    else:
        # A window that is not yet full may still be too sparse to tune.
        full = events[0].time + workload.window
        held = [d.time for d in decisions if d.time >= full and not d.retuned]
        result.check(not held, f"{len(held)} full-window tick(s) did not retune")
    result.facts.update(
        ticks=len(decisions), ticks_retuned=sum(d.retuned for d in decisions)
    )


def finish_checks(workload, events, fed, service, state, decisions, result) -> None:
    """Oracles shared by every pass, run after the timed region.

    ``events`` is the whole stream the service has seen, ``fed`` the
    part this service instance was fed live (its ticks are
    ``decisions``).
    """
    check_decisions(workload, fed, decisions, result)
    gap = service.stats_gap_now()
    result.check(gap <= TOLERANCE, f"incremental-vs-batch stats gap {gap:.3g}")
    result.check(
        service.events_processed == len(events),
        f"service processed {service.events_processed} of {len(events)} events",
    )
    audit_journals(state, result)
    if workload.shards > 1 or workload.resumes:
        # N-shard merged (or resumed-and-continued) statistics equal one
        # window that folded the whole stream.
        gap = snapshot_gap(
            service.window.snapshot(), reference_snapshot(events, workload.window)
        )
        result.check(gap <= TOLERANCE, f"window differs from single-window fold by {gap:.3g}")
    if workload.shards > 1:
        loads = [shard.window.events_ingested for shard in service.shards]
        result.facts["shard_skew"] = max(loads) / (sum(loads) / len(loads))
    result.facts["outcome"] = (
        [d.verdict for d in decisions],
        config_to_dict(service.rm_config),
    )


def ingest_pass(workload, stream, root: Path, seed: int, tracer=None) -> PassResult:
    """Drive the stream through a fresh durable service (timed)."""
    result = PassResult()
    state = open_state(root, workload.shards)
    service = build_service(
        stream.scenario,
        service_config(workload),
        state=state,
        shards=workload.shards,
        **controller_options(seed),
    )
    with timed_region(tracer):
        began = perf_counter()
        decisions = feed(workload, service, state, stream.events, result, tracer)
        result.timed_s = perf_counter() - began
    events = stream.events
    finish_checks(workload, events, events, service, state, decisions, result)
    return result


def crash_point(events: list, share: float = 0.5) -> int:
    """Index just past the last heartbeat in the first ``share`` of events."""
    cut = int(len(events) * share)
    while cut > 0 and type(events[cut - 1]) is not Heartbeat:
        cut -= 1
    return cut


def prepare_crash(workload, stream, root: Path, seed: int) -> dict:
    """Set-up of ``resume_replay``: a state dir that died before its
    first snapshot (``snapshot_every`` beyond the stream — the one
    set-up-only override), and what the live service looked like."""
    head = stream.events[: crash_point(stream.events)]
    state = open_state(root, 1, snapshot_every=10**9)
    service = build_service(
        stream.scenario, service_config(workload), state=state, **controller_options(seed)
    )
    scratch = PassResult()
    decisions = feed(workload, service, state, head, scratch, None)
    return {
        "head": len(head),
        "journaled": state.journal.last_seq,
        "snapshot": service.window.snapshot(),
        "history": [config_to_dict(s.config) for s in service.config_history],
        "verdicts": [d.verdict for d in decisions],
        "failures": scratch.failures,
    }


def resume_pass(workload, stream, root: Path, live: dict, seed: int, tracer=None):
    """Timed: resume a copy of the crashed dir, then serve on from there.

    Each of the ``resumes`` cycles works on a fresh (untimed) copy.
    Throughput is journal records replayed over the wall of opening the
    state dir and ``TempoService.resume``; the ticks are those of the
    remaining stream fed to the resumed service.
    """
    result = PassResult()
    result.failures += live["failures"]
    tail = stream.events[live["head"] :]
    config = service_config(workload)
    for cycle in range(workload.resumes):
        copy = root.with_name(f"{root.name}-copy{cycle}")
        shutil.copytree(root, copy)
        with timed_region(tracer):
            if tracer is not None:
                tracer.batch = -1  # the resume itself
            began = perf_counter()
            state = open_state(copy, 1)
            controller = build_controller(stream.scenario, **controller_options(seed))
            service = TempoService.resume(controller, state, config)
            result.wall_s += perf_counter() - began
            result.events += live["journaled"]
            restored = (
                service.window.snapshot(),
                service.events_processed,
                [config_to_dict(s.config) for s in service.config_history],
                [d.verdict for d in service.decisions],
            )
            decisions = feed(workload, service, state, tail, result, tracer, throughput=False)
            result.timed_s += perf_counter() - began
        result.attempted += live["journaled"]
        snapshot, processed, history, verdicts = restored
        result.check(
            snapshot_gap(snapshot, live["snapshot"]) <= TOLERANCE,
            "restored window differs from the live service's",
        )
        # Every journaled event re-applied exactly once: a lost or
        # duplicated record would show here.
        result.check(
            processed == live["head"],
            f"restored {processed} events, the live service had {live['head']}",
        )
        result.check(history == live["history"], "restored config history differs")
        result.check(verdicts == live["verdicts"], "restored decision log differs")
        if cycle + 1 < workload.resumes:
            shutil.rmtree(copy)
    finish_checks(workload, stream.events, tail, service, state, decisions, result)
    shutil.rmtree(copy)
    return result
