"""Perf benchmark: serving-layer ingest throughput and retune latency.

Not a paper figure — an operational benchmark for the online serving
layer (`repro.service`).  Measurements:

1. **Raw window ingest** — events/sec folded into a bare
   :class:`~repro.service.ingest.RollingWindow`, per event and batched
   (the O(1) incremental statistics path, no tuning).
2. **Service ingest** — events/sec through
   :meth:`~repro.service.daemon.TempoService.process` (per event) and
   :meth:`~repro.service.daemon.TempoService.ingest_batch` (batched)
   with the retune cadence effectively disabled.
3. **Durable service ingest** — the same with a write-ahead journal and
   periodic snapshots attached, across two durability paths:
   per-record appends and group-committed batches.
   Plus the **journal layer** alone: durable batched events/s of
   `append_events` group commit with no window fold — full runs apply
   the absolute >= 1M events/s target on hosts with enough cores
   (annotated otherwise).
4. **Many-tenant scaling** — per-event window ingest cost at 5 vs 500
   active tenants (the heap-driven eviction keeps it near flat; the old
   per-event sweep over every tenant made it ~linear).
5. **Sharded ingest** — durable batched throughput through the
   per-tenant sharded data plane on a 500-tenant stream: 1 shard (the
   byte-identical baseline), 4 in-process shards (routing overhead
   only), and 4 worker-process shards (journal encode + window fold on
   every core).  The worker-shard speedup is a *parallelism*
   measurement: it needs >= 4 cores to show its >= 2.5x design target,
   and ``cpu_count`` is recorded next to the numbers so a single-core
   CI box's ~0.4x (pure IPC overhead, nothing to overlap) is
   interpretable.
6. **Retune latency** — wall seconds per applied tune during a
   flash-crowd replay (window-trace assembly + what-if + PALD).
7. **Backlog compounding** — an overloaded steady replay in the legacy
   per-interval mode versus the continuous mode: peak job backlog and
   mean response time.

Alongside the human-readable table the benchmark archives a
machine-readable ``benchmarks/results/perf_service_ingest.json``.  The
file holds a ``runs`` list and every full run **appends** a timestamped
record, so the perf trajectory across PRs is preserved instead of
overwritten.  ``--smoke`` gates and prints only: it writes no file, so
a CI or local smoke leaves the tree clean.

Run:  PYTHONPATH=src python benchmarks/bench_perf_service_ingest.py
CI smoke (small event count + regression ceilings):
      PYTHONPATH=src python benchmarks/bench_perf_service_ingest.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from _harness import (
    RESULTS_DIR,
    append_trajectory_run,
    gate_parallel_speedup,
    report,
)
from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import JobCompleted, JobSubmitted, TaskCompleted
from repro.service.ingest import RollingWindow, stats_gap
from repro.service.journal import EventJournal
from repro.service.replay import ScenarioReplayer, build_service, make_scenario
from repro.service.snapshot import ServiceState
from repro.sim.simulator import ClusterSimulator
from repro.workload.trace import JobRecord, TaskRecord

#: Events per ingest_batch call in the batched measurements — the order
#: of magnitude a replay chunk or a backlogged bus drain delivers.
BATCH = 256

#: Machine-readable trajectory file (a ``runs`` list; append-only).
RESULTS_JSON = RESULTS_DIR / "perf_service_ingest.json"


def append_run(record: dict) -> None:
    """Append one timestamped run record to this bench's trajectory."""
    append_trajectory_run(RESULTS_JSON, record)


def telemetry_events(horizon: float = 7200.0, scale: float = 2.0, seed: int = 0):
    """A realistic event stream: simulate a workload, emit its telemetry."""
    scenario = make_scenario("steady", scale=scale, horizon=horizon)
    workload = scenario.model.generate(seed, horizon)
    sim = ClusterSimulator(scenario.cluster, noise=scenario.noise, seed=seed)
    trace = sim.run(workload, scenario.initial_config, seed=seed)
    events = []
    for job in workload:
        events.append(
            JobSubmitted(job.submit_time, tenant=job.tenant, job_id=job.job_id)
        )
    for rec in trace.task_records:
        events.append(TaskCompleted(rec.finish_time, record=rec))
    for jrec in trace.job_records:
        events.append(JobCompleted(jrec.finish_time, record=jrec))
    events.sort(key=lambda e: e.time)
    return events


def synthetic_events(tenants: int, count: int, window: float = 600.0, seed: int = 0):
    """A uniform synthetic stream spread across ``tenants`` tenants.

    Event times span several window lengths so eviction is continuously
    active — the regime where per-event cost used to grow with the
    tenant count.
    """
    rng = np.random.default_rng(seed)
    span = 4.0 * window
    times = np.sort(rng.uniform(0.0, span, size=count))
    events = []
    for i, t in enumerate(times):
        t = float(t)
        tenant = f"tenant-{i % tenants:03d}"
        job_id = f"{tenant}/j{i}"
        duration = float(rng.lognormal(3.0, 0.6))
        start = max(t - duration, 0.0)
        events.append(
            TaskCompleted(
                t,
                record=TaskRecord(
                    job_id=job_id,
                    task_id=f"{job_id}/t0",
                    tenant=tenant,
                    pool="map",
                    stage="map",
                    submit_time=max(start - 1.0, 0.0),
                    start_time=start,
                    finish_time=t,
                ),
            )
        )
        events.append(
            JobCompleted(
                t,
                record=JobRecord(
                    job_id=job_id,
                    tenant=tenant,
                    submit_time=max(t - duration - 1.0, 0.0),
                    finish_time=t,
                ),
            )
        )
    return events


def bench_window_ingest(
    events, window: float = 1800.0, batched: bool = False
) -> tuple[float, float]:
    """(events/sec, final stats gap) for the bare rolling window."""
    rolling = RollingWindow(window)
    start = time.perf_counter()
    if batched:
        for i in range(0, len(events), BATCH):
            rolling.ingest_many(events[i : i + BATCH])
    else:
        for event in events:
            rolling.ingest(event)
    elapsed = time.perf_counter() - start
    return len(events) / elapsed, stats_gap(rolling)


def bench_service_ingest(
    events,
    durable: bool = False,
    batch: int = 0,
) -> float:
    """Events/sec through the service with retuning disabled.

    ``durable=True`` attaches a state directory, so ingest pays the
    write-ahead journal and the periodic snapshot cadence.  ``batch``
    routes events through :meth:`TempoService.ingest_batch` in chunks of
    that size (group-committed journal appends); ``0`` uses the
    per-event :meth:`TempoService.process` path.
    """
    scenario = make_scenario("steady")
    with tempfile.TemporaryDirectory() as tmp:
        state = ServiceState(tmp) if durable else None
        service = build_service(
            scenario,
            ServiceConfig(window=1800.0, retune_interval=1e12),
            seed=0,
            state=state,
        )
        start = time.perf_counter()
        if batch:
            for i in range(0, len(events), batch):
                service.ingest_batch(events[i : i + batch])
        else:
            for event in events:
                service.process(event)
        if state is not None:
            state.journal.flush()
        elapsed = time.perf_counter() - start
        if state is not None:
            state.close()
    assert isinstance(service, TempoService)
    return len(events) / elapsed


def bench_sharded_ingest(
    events,
    shards: int,
    workers: bool = False,
    batch: int = BATCH,
) -> float:
    """Durable batched events/sec through the sharded data plane.

    ``shards=1`` is the byte-identical single-pipeline baseline;
    ``workers=True`` runs the shards as processes (journal encode and
    window fold on every core — the parallel group-commit path).  The
    timed region ends at a full data-plane barrier so queued worker
    batches are included, not just acknowledged.
    """
    scenario = make_scenario("steady")
    with tempfile.TemporaryDirectory() as tmp:
        state = ServiceState(tmp, shards=shards)
        service = build_service(
            scenario,
            ServiceConfig(window=600.0, retune_interval=1e12),
            seed=0,
            state=state,
            shards=shards,
            shard_workers=workers,
        )
        start = time.perf_counter()
        for i in range(0, len(events), batch):
            service.ingest_batch(events[i : i + batch])
        if shards > 1:
            service._drain_shards(service.now)  # barrier: queues empty
        elapsed = time.perf_counter() - start
        service.close()
        state.close()
    return len(events) / elapsed


def bench_journal_append(events, batch: int = 2048) -> float:
    """Durable batched events/s at the journal layer.

    The isolated encode+write hot path (`append_events` group commit,
    no window fold): the service-level durable numbers fold every
    event into the rolling window too, so a change to the record codec
    shows up here first.  The batch is large enough to amortize the
    per-group fsync.  Measured best-of-N by the callers.
    """
    with tempfile.TemporaryDirectory() as tmp:
        journal = EventJournal(Path(tmp) / "journal")
        start = time.perf_counter()
        for i in range(0, len(events), batch):
            journal.append_events(events[i : i + batch])
        journal.close()
        elapsed = time.perf_counter() - start
    return len(events) / elapsed


def bench_many_tenants(
    count: int = 40_000, tenant_counts: tuple[int, ...] = (5, 500)
) -> dict[int, float]:
    """Per-event window ingest throughput at increasing tenant counts."""
    out: dict[int, float] = {}
    for tenants in tenant_counts:
        events = synthetic_events(tenants, count // 2)
        rolling = RollingWindow(600.0)
        start = time.perf_counter()
        for event in events:
            rolling.ingest(event)
        elapsed = time.perf_counter() - start
        assert stats_gap(rolling) < 1e-9
        out[tenants] = len(events) / elapsed
    return out


def bench_backlog_compounding(
    horizon: float = 3600.0, scale: float = 3.0
) -> dict[str, tuple[int, float]]:
    """Peak backlog and mean response: per-interval vs continuous replay."""
    out: dict[str, tuple[int, float]] = {}
    for label, continuous in (("per-interval", False), ("continuous", True)):
        scenario = make_scenario("steady", scale=scale, horizon=horizon)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=5,
        )
        summary = ScenarioReplayer(
            scenario, service, seed=5, continuous=continuous, verify_stats=False
        ).run()
        out[label] = (summary.peak_backlog, summary.mean_response)
    return out


def bench_retune_latency(horizon: float = 3 * 3600.0) -> tuple[int, float, float, float]:
    """(retunes, mean, p50, max) retune latency over a flash-crowd replay.

    A decision's ``latency`` is the wall time of its whatif phase (the
    candidate-evaluation stage the evaluation plane optimizes), so the
    p50 here doubles as the trajectory's median whatif-phase seconds
    per tick.
    """
    scenario = make_scenario("flash-crowd", horizon=horizon)
    service = build_service(
        scenario, ServiceConfig(drift_threshold=0.0), seed=0
    )
    summary = ScenarioReplayer(
        scenario, service, seed=0, verify_stats=False
    ).run()
    latencies = [d.latency for d in summary.decisions if d.retuned]
    if not latencies:
        return 0, float("nan"), float("nan"), float("nan")
    return (
        len(latencies),
        float(np.mean(latencies)),
        float(np.median(latencies)),
        float(np.max(latencies)),
    )


def smoke() -> int:
    """CI regression gate: small event count, generous ceilings.

    Asserts the properties this benchmark exists to protect: the
    group-committed durable path stays within a generous overhead
    ceiling of the non-durable path, per-event ingest cost stays near
    flat from few to many tenants, and the sharded data plane neither
    taxes the in-process path nor (given >= 4 cores) loses the
    worker-shard parallel speedup.  Prints and gates only — nothing is
    archived.  Returns a process exit code.
    """
    events = telemetry_events(horizon=2400.0)
    # Best-of-3: shared CI runners jitter by 2x+; the gates protect
    # against algorithmic regressions, which survive a best-of.
    service_eps = max(
        bench_service_ingest(events, batch=BATCH) for _ in range(3)
    )
    durable_eps = max(
        bench_service_ingest(events, durable=True, batch=BATCH)
        for _ in range(3)
    )
    overhead = service_eps / durable_eps
    flatness = min(
        (lambda eps: eps[5] / eps[500])(bench_many_tenants(count=20_000))
        for _ in range(2)
    )
    sharded_events = synthetic_events(500, 16_000)
    shard1_eps = max(
        bench_sharded_ingest(sharded_events, 1) for _ in range(2)
    )
    inproc4_eps = max(
        bench_sharded_ingest(sharded_events, 4) for _ in range(2)
    )
    workers4_eps = max(
        bench_sharded_ingest(sharded_events, 4, workers=True) for _ in range(2)
    )
    worker_speedup = workers4_eps / shard1_eps
    inproc_ratio = inproc4_eps / shard1_eps
    cores = os.cpu_count() or 1
    journal_eps = max(bench_journal_append(events) for _ in range(3))
    whatif_retunes, _, whatif_p50, _ = bench_retune_latency(horizon=3600.0)
    print(
        f"smoke: {len(events):,} events, batched ingest {service_eps:,.0f}/s, "
        f"durable batched {durable_eps:,.0f}/s (overhead {overhead:.2f}x), "
        f"tenant-scaling 5->500 slowdown {flatness:.2f}x"
    )
    print(f"smoke journal append_events: {journal_eps:,.0f}/s")
    print(
        f"smoke sharded (500 tenants, {len(sharded_events):,} events, "
        f"{cores} cores): 1 shard {shard1_eps:,.0f}/s, 4 in-proc "
        f"{inproc4_eps:,.0f}/s ({inproc_ratio:.2f}x), 4 workers "
        f"{workers4_eps:,.0f}/s ({worker_speedup:.2f}x)"
    )
    print(
        f"smoke whatif phase: {whatif_retunes} retunes, "
        f"median {whatif_p50 * 1e3:.1f} ms/tick"
    )
    failures = []
    # Generous ceilings: measured ~3x and ~1.3x on a noisy container;
    # the gates only catch a reintroduced per-record flush or
    # per-tenant eviction sweep (10x-class regressions), not jitter.
    if overhead > 5.0:
        failures.append(f"durable batched overhead {overhead:.2f}x > 5.0x ceiling")
    if flatness > 3.0:
        failures.append(f"5->500 tenant slowdown {flatness:.2f}x > 3.0x ceiling")
    # In-process sharding must stay near-free (routing only); a big gap
    # means a per-event merge or a journal scan crept onto the hot path.
    if inproc_ratio < 0.5:
        failures.append(
            f"4 in-process shards at {inproc_ratio:.2f}x of 1 shard "
            "(< 0.5x floor)"
        )
    # Parallel group commit: with real cores the worker shards must
    # beat the single pipeline clearly (design target >= 2.5x; the
    # floor leaves headroom for shared-runner jitter).  Sub-core runs
    # are annotated, not silently passed.
    worker_gate = gate_parallel_speedup(
        "4 worker shards vs 1",
        worker_speedup,
        required_cores=4,
        floor=1.8,
        degraded_floor=0.25,
        cpu_count=cores,
    )
    if worker_gate["failure"]:
        failures.append(worker_gate["failure"])
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}")
    return 1 if failures else 0


def main() -> int:
    """Run the measurements; archive the table and the JSON trajectory."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small event count + regression ceilings (CI gate); "
        "prints only, archives nothing",
    )
    args = parser.parse_args()
    if args.smoke:
        return smoke()

    events = telemetry_events()

    def best(fn, trials=2):
        # Shared/virtualized runners jitter by 2x run-to-run; archive
        # the best of a few trials so the trajectory tracks the code,
        # not the neighbor's workload.
        return max(fn() for _ in range(trials))

    window_eps, gap = bench_window_ingest(events)
    window_eps = best(lambda: bench_window_ingest(events)[0])
    window_batched_eps, gap_batched = bench_window_ingest(events, batched=True)
    window_batched_eps = best(lambda: bench_window_ingest(events, batched=True)[0])
    service_eps = best(lambda: bench_service_ingest(events))
    service_batched_eps = best(lambda: bench_service_ingest(events, batch=BATCH))
    durable_eps = best(lambda: bench_service_ingest(events, durable=True))
    durable_batched_eps = best(
        lambda: bench_service_ingest(events, durable=True, batch=BATCH)
    )
    journal_eps = best(lambda: bench_journal_append(events))
    tenant_eps = bench_many_tenants()
    sharded_events = synthetic_events(500, 40_000)
    shard1_eps = best(lambda: bench_sharded_ingest(sharded_events, 1))
    inproc4_eps = best(lambda: bench_sharded_ingest(sharded_events, 4))
    workers4_eps = best(
        lambda: bench_sharded_ingest(sharded_events, 4, workers=True)
    )
    cores = os.cpu_count() or 1
    worker_gate = gate_parallel_speedup(
        "4 worker shards vs 1",
        workers4_eps / shard1_eps,
        required_cores=4,
        floor=1.8,
        degraded_floor=0.25,
        cpu_count=cores,
    )
    retunes, mean_lat, p50_lat, max_lat = bench_retune_latency()
    backlog = bench_backlog_compounding()
    rows = [
        ["window ingest (events/s)", f"{window_eps:,.0f}"],
        ["window ingest_many (events/s)", f"{window_batched_eps:,.0f}"],
        ["service ingest (events/s)", f"{service_eps:,.0f}"],
        ["service ingest batched (events/s)", f"{service_batched_eps:,.0f}"],
        ["durable ingest per-record (events/s)", f"{durable_eps:,.0f}"],
        ["durable ingest batched (events/s)", f"{durable_batched_eps:,.0f}"],
        ["journal append_events (events/s)", f"{journal_eps:,.0f}"],
        [
            "durable batched vs per-record",
            f"{durable_batched_eps / durable_eps:.2f}x",
        ],
        [
            "durability overhead (batched)",
            f"{service_batched_eps / durable_batched_eps:.2f}x",
        ],
        ["incremental-vs-batch gap", f"{max(gap, gap_batched):.3g}"],
        [
            "many-tenant ingest 5 -> 500 (events/s)",
            f"{tenant_eps[5]:,.0f} -> {tenant_eps[500]:,.0f} "
            f"({tenant_eps[5] / tenant_eps[500]:.2f}x slowdown)",
        ],
        [
            "sharded durable 500t, 1 shard (events/s)",
            f"{shard1_eps:,.0f}",
        ],
        [
            "sharded durable 500t, 4 in-proc (events/s)",
            f"{inproc4_eps:,.0f} ({inproc4_eps / shard1_eps:.2f}x)",
        ],
        [
            "sharded durable 500t, 4 workers (events/s)",
            f"{workers4_eps:,.0f} ({workers4_eps / shard1_eps:.2f}x on "
            f"{cores} core(s); parallel speedup needs >= 4 cores)",
        ],
        ["retunes measured", retunes],
        ["retune latency mean (ms)", f"{mean_lat * 1e3:.1f}"],
        ["retune latency p50 (ms)", f"{p50_lat * 1e3:.1f}"],
        ["retune latency max (ms)", f"{max_lat * 1e3:.1f}"],
        ["whatif phase p50 (ms/tick)", f"{p50_lat * 1e3:.1f}"],
        [
            "overload peak backlog (jobs)",
            f"per-interval={backlog['per-interval'][0]}, "
            f"continuous={backlog['continuous'][0]}",
        ],
        [
            "overload mean response (s)",
            f"per-interval={backlog['per-interval'][1]:.0f}, "
            f"continuous={backlog['continuous'][1]:.0f}",
        ],
    ]
    report(
        "perf_service_ingest",
        f"Serving-layer performance ({len(events):,} telemetry events)",
        ["metric", "value"],
        rows,
    )
    failures = []
    # The absolute >= 1M events/s target needs real cores: a 1-core
    # container tops out around the per-core encode ceiling, so the
    # absolute gate is annotated instead of applied there.
    binary_absolute_gated = cores >= 4
    if binary_absolute_gated and journal_eps < 1_000_000:
        failures.append(
            f"journal append_events {journal_eps:,.0f} events/s < 1M absolute "
            f"floor on {cores} cores"
        )
    if worker_gate["failure"]:
        failures.append(worker_gate["failure"])
    for failure in failures:
        print(f"BENCH FAILURE: {failure}")
    machine = {
        "mode": "full",
        "events": len(events),
        "batch_size": BATCH,
        "window_ingest_eps": window_eps,
        "window_ingest_many_eps": window_batched_eps,
        "service_ingest_eps": service_eps,
        "service_ingest_batched_eps": service_batched_eps,
        "durable_ingest_eps": durable_eps,
        "durable_ingest_batched_eps": durable_batched_eps,
        "durable_batched_speedup_vs_per_record": durable_batched_eps / durable_eps,
        "durability_overhead_batched": service_batched_eps / durable_batched_eps,
        "journal_codec": {
            "binary_eps": journal_eps,
            "absolute_1m_gated": binary_absolute_gated,
        },
        "stats_gap": max(gap, gap_batched),
        "many_tenant_eps": {str(k): v for k, v in tenant_eps.items()},
        "sharded_500_tenants": {
            "events": len(sharded_events),
            "shards1_eps": shard1_eps,
            "inproc4_eps": inproc4_eps,
            "workers4_eps": workers4_eps,
            "workers4_speedup": workers4_eps / shard1_eps,
            "parallel_gate": worker_gate,
        },
        "retunes": retunes,
        "retune_latency_mean_s": mean_lat,
        "retune_latency_p50_s": p50_lat,
        "retune_latency_max_s": max_lat,
        "whatif_phase_p50_s": p50_lat,
        "overload_peak_backlog": {
            label: backlog[label][0] for label in backlog
        },
        "overload_mean_response_s": {
            label: backlog[label][1] for label in backlog
        },
        "failures": failures,
    }
    append_run(machine)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
