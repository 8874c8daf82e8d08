"""Command-line interface: simulate, tune, and inspect without code.

Tempo is pitched as a drop-in component for DBAs, so the library ships a
small operational CLI:

``python -m repro simulate``
    Run a built-in workload scenario through the predictor or the noisy
    cluster simulator; print per-tenant statistics; optionally archive
    the trace as JSON-lines.

``python -m repro tune``
    Run the Tempo control loop on a scenario with SLOs declared in a
    JSON file of QS templates (see ``--slos``); prints the per-iteration
    observed QS vector and the final configuration.

``python -m repro report``
    Per-tenant statistics of an archived trace file.

``python -m repro replay``
    Drive a serving-layer scenario (flash crowd, diurnal wave, tenant
    churn, failure storm, flash-failure, steady) through the streaming
    :class:`~repro.service.daemon.TempoService` with the deterministic
    synchronous transport, verifying the incremental window statistics
    against a batch recompute as it goes.  ``--shards N`` routes
    telemetry through the per-tenant sharded data plane
    (``--shard-workers`` runs the shards as processes); ``--trace``
    replays recorded telemetry from a JSONL file instead of simulating
    (``--save-trace`` records one).

``python -m repro serve``
    Same scenarios through daemon mode: telemetry is published to the
    bounded event bus and consumed by the service's background thread.
    With ``--state-dir`` the daemon is durable: every event is
    journaled write-ahead and snapshots are written periodically.

``python -m repro resume``
    Rebuild a killed daemon from its ``--state-dir`` (newest snapshot +
    journal tail), then continue its scenario replay from the last
    completed retune interval.  See ``docs/OPERATIONS.md`` for the
    crash-recovery semantics.

``python -m repro chaos``
    Fault-injection harness: drive a scenario through a durable,
    supervised service while a deterministic schedule of faults
    (``--fault kill-shard@t=2``, ``stall-shard``, ``drop-batches``,
    ``slow-journal``) hits the data plane; print a survival report —
    events lost, retunes missed, recovery latency, decision-verdict
    drift versus the fault-free run.  Exit code 0 iff the service
    recovered with zero surviving-shard event loss.

``python -m repro compact``
    Offline journal compaction: delete segments whose entire seq range
    is covered by the oldest retained snapshot (the daemon also does
    this automatically after every snapshot unless disabled).

``python -m repro convert``
    Convert an RM callback log (the archived trace JSONL format a real
    RM's callback recorder or ``repro simulate --save`` writes) into a
    service trace file replayable with ``repro replay --trace``.

``python -m repro dump-journal``
    Render a state dir's (binary) journal segments as canonical JSON
    lines (one ``{"data":...,"kind":...,"seq":...}`` object per
    record) — the operator's view of the journal.  Read-only like
    ``status``.

``python -m repro dump-snapshot``
    Render one snapshot file (the newest, or ``--seq N``) as JSON
    lines: its header, its control state, then one line per shard
    journal's mark (covered seq, window clock, ingest count, low-water
    mark).  Read-only like ``status``.

``python -m repro status``
    Read-only introspection of a serving state dir: pretty-print the
    freshest persisted metrics registry (newest snapshot vs newest
    journaled ``metrics`` sample), or render it as Prometheus text
    exposition with ``--format prom``.  Safe against a live daemon's
    state dir — it never opens the journal for writing.

The serving subcommands take ``--guards`` — a comma-separated decision
pipeline spec (``legacy``, ``predictive``, ``predictive,stability``,
...).  ``legacy`` (the default) is the byte-compatible
observed-vs-observed revert guard; ``predictive`` swaps in the
load-normalized predicted-vs-predicted comparison so workload growth no
longer reads as config regression.  See ``docs/OPERATIONS.md``.

SLO spec file format — a JSON array of QS-template dictionaries::

    [
      {"queue": "deadline", "slo": "deadline",
       "max_violation_fraction": 0.05, "slack": 0.25},
      {"queue": "besteffort", "slo": "response_time"}
    ]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.controller import TempoController, windows_from_model
from repro.rm.cluster import ClusterSpec
from repro.rm.config import ConfigSpace, RMConfig
from repro.service.daemon import ServiceConfig, TempoService, check_worker_plane
from repro.service.failover import FailoverConfig, parse_fault, run_chaos
from repro.service.journal import JournalError
from repro.service.replay import (
    SCENARIOS as SERVICE_SCENARIOS,
    ReplaySummary,
    ScenarioReplayer,
    build_controller,
    build_service,
    dump_trace_events,
    load_trace_events,
    make_scenario,
    replay_trace,
)
from repro.service.snapshot import ServiceState
from repro.sim.noise import NoiseModel
from repro.sim.predictor import SchedulePredictor
from repro.sim.simulator import ClusterSimulator
from repro.slo.objectives import SLOSet
from repro.slo.templates import QSTemplate
from repro.workload.generator import StatisticalWorkloadModel
from repro.workload.synthetic import (
    company_abc_cluster,
    company_abc_model,
    expert_config,
    two_tenant_cluster,
    two_tenant_expert_config,
    two_tenant_model,
)
from repro.workload.trace import Trace

#: Built-in scenarios: name -> (cluster factory, model factory, config factory).
SCENARIOS: dict[str, tuple[Callable, Callable, Callable]] = {
    "two-tenant": (
        two_tenant_cluster,
        two_tenant_model,
        two_tenant_expert_config,
    ),
    "company-abc": (
        company_abc_cluster,
        company_abc_model,
        expert_config,
    ),
}

NOISE_PROFILES = {
    "quiet": NoiseModel.quiet,
    "production": NoiseModel.production,
    "harsh": NoiseModel.harsh,
}


def load_slos(path: str) -> SLOSet:
    """Parse an SLO spec file (JSON array of QS templates)."""
    specs = json.loads(Path(path).read_text())
    if not isinstance(specs, list):
        raise ValueError("SLO spec file must contain a JSON array")
    return SLOSet([QSTemplate.from_dict(spec).instantiate() for spec in specs])


def default_slos(scenario: str) -> SLOSet:
    """Reasonable SLOs per scenario when no spec file is given."""
    if scenario == "two-tenant":
        specs = [
            {
                "queue": "deadline",
                "slo": "deadline",
                "max_violation_fraction": 0.05,
                "slack": 0.25,
            },
            {"queue": "besteffort", "slo": "response_time"},
        ]
    else:
        specs = [
            {"queue": t, "slo": "deadline", "max_violation_fraction": 0.05, "slack": 0.25}
            for t in ("APP", "MV", "ETL")
        ] + [{"queue": t, "slo": "response_time"} for t in ("BI", "DEV", "STR")]
    return SLOSet([QSTemplate.from_dict(s).instantiate() for s in specs])


def _print_tenant_stats(trace: Trace, out) -> None:
    print(
        f"{'tenant':12s} {'jobs':>6s} {'tasks':>7s} {'AJR(s)':>9s} "
        f"{'p90(s)':>9s} {'preempt':>8s} {'util':>6s}",
        file=out,
    )
    for tenant in sorted(trace.tenants()):
        jobs = trace.jobs_of(tenant)
        responses = [j.response_time for j in jobs]
        tasks = trace.tasks_of(tenant)
        util = trace.utilization(tenant) if trace.capacity else float("nan")
        print(
            f"{tenant:12s} {len(jobs):6d} {len(tasks):7d} "
            f"{np.mean(responses) if responses else 0:9.1f} "
            f"{np.percentile(responses, 90) if responses else 0:9.1f} "
            f"{trace.preemption_fraction(tenant):8.1%} {util:6.2f}",
            file=out,
        )


def cmd_simulate(args: argparse.Namespace, out) -> int:
    """``repro simulate``: run a scenario and print tenant statistics."""
    cluster_fn, model_fn, config_fn = SCENARIOS[args.scenario]
    cluster = cluster_fn()
    model: StatisticalWorkloadModel = model_fn(args.scale)
    config = config_fn(cluster)
    workload = model.generate(args.seed, args.horizon * 3600.0)
    print(
        f"scenario={args.scenario} cluster={cluster} jobs={len(workload)} "
        f"tasks={workload.num_tasks}",
        file=out,
    )
    if args.engine == "predictor":
        trace = SchedulePredictor(cluster).predict(workload, config)
    else:
        noise = NOISE_PROFILES[args.noise]()
        trace = ClusterSimulator(cluster, noise=noise, heartbeat=args.heartbeat).run(
            workload, config, seed=args.seed
        )
    _print_tenant_stats(trace, out)
    if args.save:
        Path(args.save).write_text(trace.to_jsonl())
        print(f"trace saved to {args.save}", file=out)
    return 0


def cmd_tune(args: argparse.Namespace, out) -> int:
    """``repro tune``: run the Tempo control loop on a scenario."""
    cluster_fn, model_fn, config_fn = SCENARIOS[args.scenario]
    cluster = cluster_fn()
    model = model_fn(args.scale)
    config = config_fn(cluster)
    slos = load_slos(args.slos) if args.slos else default_slos(args.scenario)
    space = ConfigSpace(cluster, sorted(model.tenants))
    controller = TempoController(
        cluster,
        slos,
        space,
        config,
        candidates=args.candidates,
        trust_radius=args.trust_radius,
        noise=NOISE_PROFILES[args.noise](),
        seed=args.seed,
    )
    windows = windows_from_model(
        model, args.window * 60.0, args.iterations, seed=args.seed
    )
    header = "iter  reverted  " + "  ".join(f"{l:>14s}" for l in slos.labels)
    print(header, file=out)
    for record in controller.run(windows):
        values = "  ".join(f"{v:14.3f}" for v in record.observed_raw)
        print(f"{record.index:4d}  {str(record.reverted):8s}  {values}", file=out)
    print("\nfinal configuration:", file=out)
    print(controller.config.describe(), file=out)
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    """``repro report``: summarize an archived trace, optionally vs SLOs."""
    trace = Trace.from_jsonl(Path(args.trace).read_text())
    print(f"{trace}", file=out)
    _print_tenant_stats(trace, out)
    if args.slos:
        slos = load_slos(args.slos)
        f = slos.evaluate(trace)
        print("\nSLO QS values:", file=out)
        for label, value, violated in zip(slos.labels, f, slos.violations(f)):
            flag = "  VIOLATED" if violated else ""
            print(f"  {label:20s} {value:10.3f}{flag}", file=out)
    return 0


def _verdict_line(decisions) -> str | None:
    """Tally decision-plane verdicts (``None`` for legacy pipelines)."""
    from repro.core.decisions import VERDICTS, verdict_counts

    counts = verdict_counts(d.record for d in decisions)
    if not counts:
        return None
    parts = [f"{v}:{counts[v]}" for v in VERDICTS if v in counts]
    parts += [f"{v}:{n}" for v, n in sorted(counts.items()) if v not in VERDICTS]
    return "verdicts=" + ",".join(parts)


def _print_replay_summary(summary: ReplaySummary, out) -> None:
    print(
        f"events={summary.events} (submitted={summary.jobs_submitted}, "
        f"completed={summary.jobs_completed}, tasks={summary.tasks}) "
        f"dropped={summary.dropped} "
        f"wall={summary.wall_seconds:.1f}s "
        f"ingest={summary.events_per_second:,.0f} events/s",
        file=out,
    )
    stable = sum(1 for d in summary.decisions if d.reason == "stable")
    sparse = sum(1 for d in summary.decisions if d.reason == "sparse")
    print(
        f"retunes={summary.retunes} skipped={summary.skips} "
        f"(stable={stable}, sparse={sparse}) reverted={summary.reverts}",
        file=out,
    )
    verdicts = _verdict_line(summary.decisions)
    if verdicts:
        print(verdicts, file=out)
    if summary.dropped:
        print(
            f"WARNING: bus shed {summary.dropped} events "
            "(bounded-queue overflow; raise the bus capacity or slow "
            "the producer)",
            file=out,
        )
    print(
        f"peak backlog={summary.peak_backlog} jobs, "
        f"mean response={summary.mean_response:.1f}s",
        file=out,
    )
    latencies = [d.latency for d in summary.decisions if d.retuned]
    if latencies:
        print(
            f"retune latency: mean={np.mean(latencies)*1e3:.0f}ms "
            f"max={np.max(latencies)*1e3:.0f}ms",
            file=out,
        )
    print(
        f"incremental-vs-batch stats gap: {summary.max_stats_gap:.3g}",
        file=out,
    )
    print("\nfinal configuration:", file=out)
    print(summary.final_config.describe(), file=out)


def _json_decision_logger(out):
    """The ``--log-json`` hook: one JSON line per retune decision.

    Subscribed via :meth:`~repro.service.daemon.TempoService.
    on_decision`, so it fires for every cadence-tick decision the live
    daemon makes (never for decisions restored by a resume) — a
    machine-readable decision log replacing ad-hoc prints.
    """

    def _log(event) -> None:
        print(
            json.dumps(
                {
                    "type": "decision",
                    "time": event.time,
                    "index": event.index,
                    "verdict": event.verdict,
                    "retuned": event.retuned,
                    "reason": event.reason,
                },
                sort_keys=True,
            ),
            file=out,
            flush=True,
        )

    return _log


def _check_worker_plane(shards: int, shard_workers, tcp_workers) -> None:
    """:func:`check_worker_plane` with its refusal as a CLI exit."""
    try:
        check_worker_plane(
            shards, shard_workers=bool(shard_workers), tcp_workers=bool(tcp_workers)
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _failover_from_args(heartbeat_interval, failover_after) -> FailoverConfig | None:
    """Supervision config from CLI/meta values (``None``: supervision off)."""
    if failover_after is None:
        return None
    try:
        return FailoverConfig(
            heartbeat_interval=float(heartbeat_interval),
            failover_after=float(failover_after),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _run_scenario(args: argparse.Namespace, out, transport: str) -> int:
    if args.horizon is not None and args.horizon <= 0:
        raise SystemExit(f"--horizon must be positive, got {args.horizon}")
    if args.window <= 0:
        raise SystemExit(f"--window must be positive, got {args.window}")
    if args.interval <= 0:
        raise SystemExit(f"--interval must be positive, got {args.interval}")
    if args.drift < 0:
        raise SystemExit(f"--drift must be non-negative, got {args.drift}")
    if args.revert_windows < 1:
        raise SystemExit(
            f"--revert-windows must be >= 1, got {args.revert_windows}"
        )
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.shard_workers and args.tcp_workers:
        raise SystemExit(
            "--shard-workers and --tcp-workers are mutually exclusive"
        )
    _check_worker_plane(args.shards, args.shard_workers, args.tcp_workers)
    if args.freeze_after is not None and args.freeze_after < 1:
        raise SystemExit(
            f"--freeze-after must be >= 1, got {args.freeze_after}"
        )
    failover = _failover_from_args(args.heartbeat_interval, args.failover_after)
    scenario = make_scenario(
        args.scenario,
        scale=args.scale,
        horizon=args.horizon * 3600.0 if args.horizon is not None else None,
    )
    if args.keep_segments < 1:
        raise SystemExit(
            f"--keep-segments must be >= 1, got {args.keep_segments}"
        )
    state = None
    if args.state_dir:
        state = ServiceState(
            args.state_dir,
            keep_segments=args.keep_segments,
            shards=args.shards,
        )
        if state.journal.last_seq:
            raise SystemExit(
                f"{args.state_dir} already holds serving state; "
                "use `repro resume` to continue it"
            )
        state.write_meta(
            {
                "scenario": args.scenario,
                "scale": args.scale,
                "horizon": scenario.horizon,
                "seed": args.seed,
                "window": args.window * 60.0,
                "interval": args.interval * 60.0,
                "drift": args.drift,
                "speedup": args.speedup,
                "transport": transport,
                "revert_windows": args.revert_windows,
                "continuous": not args.chunked,
                "keep_segments": args.keep_segments,
                "shards": args.shards,
                "shard_workers": args.shard_workers,
                "tcp_workers": args.tcp_workers,
                "heartbeat_interval": args.heartbeat_interval,
                "failover_after": args.failover_after,
                "guards": args.guards,
                "freeze_after": args.freeze_after,
                "log_json": args.log_json,
            }
        )
    service = build_service(
        scenario,
        ServiceConfig(
            window=args.window * 60.0,
            retune_interval=args.interval * 60.0,
            drift_threshold=args.drift,
            sample_metrics=True,
        ),
        seed=args.seed,
        state=state,
        shards=args.shards,
        shard_workers=args.shard_workers,
        tcp_workers=args.tcp_workers,
        failover=failover,
        revert_windows=args.revert_windows,
        guards=args.guards,
        freeze_after=args.freeze_after,
    )
    if args.log_json:
        service.on_decision(_json_decision_logger(out))
    recorded: list | None = [] if getattr(args, "save_trace", None) else None
    replayer = ScenarioReplayer(
        scenario,
        service,
        speedup=args.speedup,
        seed=args.seed,
        transport=transport,
        continuous=not args.chunked,
        record_to=recorded,
    )
    print(
        f"scenario={scenario.name} ({scenario.description}) "
        f"horizon={scenario.horizon:.0f}s transport={transport} "
        f"shards={args.shards}"
        f"{' (workers)' if args.shard_workers else ''}"
        f"{' (tcp-workers)' if args.tcp_workers else ''} "
        f"speedup={'max' if args.speedup <= 0 else f'{args.speedup:g}x'}"
        + (f" state-dir={args.state_dir}" if args.state_dir else ""),
        file=out,
    )
    try:
        summary = replayer.run()
    finally:
        service.close()
    _print_replay_summary(summary, out)
    if recorded is not None:
        count = dump_trace_events(recorded, args.save_trace)
        print(f"trace saved to {args.save_trace} ({count} events)", file=out)
    return 0


def _run_trace(args: argparse.Namespace, out) -> int:
    """``repro replay --trace``: recorded telemetry through the pipeline."""
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.shard_workers and args.tcp_workers:
        raise SystemExit(
            "--shard-workers and --tcp-workers are mutually exclusive"
        )
    _check_worker_plane(args.shards, args.shard_workers, args.tcp_workers)
    if not Path(args.trace).exists():
        raise SystemExit(f"trace file {args.trace} does not exist")
    events = load_trace_events(args.trace)
    if not events:
        raise SystemExit(f"trace file {args.trace} holds no events")
    scenario = make_scenario(args.scenario, scale=args.scale)
    state = None
    if args.state_dir:
        state = ServiceState(args.state_dir, shards=args.shards)
        if state.journal.last_seq:
            raise SystemExit(
                f"{args.state_dir} already holds serving state; "
                "use `repro resume` to continue it"
            )
        # The descriptor keeps `repro compact` shard-aware and lets
        # `repro resume` refuse with a precise message (a trace run has
        # no scenario to re-drive; re-deliver the trace file instead).
        state.write_meta(
            {
                "scenario": args.scenario,
                "transport": "trace",
                "trace": str(Path(args.trace).resolve()),
                "scale": args.scale,
                "seed": args.seed,
                "window": args.window * 60.0,
                "interval": args.interval * 60.0,
                "drift": args.drift,
                "revert_windows": args.revert_windows,
                "shards": args.shards,
                "shard_workers": args.shard_workers,
                "tcp_workers": args.tcp_workers,
                "guards": args.guards,
                "freeze_after": args.freeze_after,
                "log_json": args.log_json,
            }
        )
    service = build_service(
        scenario,
        ServiceConfig(
            window=args.window * 60.0,
            retune_interval=args.interval * 60.0,
            drift_threshold=args.drift,
            sample_metrics=True,
        ),
        seed=args.seed,
        state=state,
        shards=args.shards,
        shard_workers=args.shard_workers,
        tcp_workers=args.tcp_workers,
        failover=_failover_from_args(args.heartbeat_interval, args.failover_after),
        revert_windows=args.revert_windows,
        guards=args.guards,
        freeze_after=args.freeze_after,
    )
    if args.log_json:
        service.on_decision(_json_decision_logger(out))
    print(
        f"trace={args.trace} ({len(events)} events) "
        f"scenario={scenario.name} shards={args.shards}"
        f"{' (workers)' if args.shard_workers else ''}"
        f"{' (tcp-workers)' if args.tcp_workers else ''}",
        file=out,
    )
    try:
        summary = replay_trace(service, events, speedup=args.speedup)
    finally:
        service.close()
    _print_replay_summary(summary, out)
    return 0


def cmd_replay(args: argparse.Namespace, out) -> int:
    """``repro replay``: deterministic scenario replay through the service."""
    if args.trace:
        return _run_trace(args, out)
    return _run_scenario(args, out, transport="direct")


def cmd_serve(args: argparse.Namespace, out) -> int:
    """``repro serve``: scenario replay through daemon mode (bus + thread)."""
    return _run_scenario(args, out, transport="bus")


def cmd_resume(args: argparse.Namespace, out) -> int:
    """``repro resume``: rebuild a killed daemon; continue its replay.

    Recovery sequence: load ``meta.json``, truncate journal and
    snapshots back to the last completed retune interval (heartbeat),
    rebuild the daemon from the newest snapshot plus the journal tail,
    and re-drive the scenario from that boundary with the same seed.
    """
    # Check for the descriptor before constructing ServiceState, which
    # would mkdir a valid-looking empty state tree at a typo'd path.
    if not (Path(args.state_dir) / "meta.json").exists():
        raise SystemExit(
            f"{args.state_dir} has no meta.json — "
            "was it created by `repro serve/replay --state-dir`?"
        )
    meta = json.loads((Path(args.state_dir) / "meta.json").read_text())
    if meta.get("transport") == "trace":
        raise SystemExit(
            f"{args.state_dir} holds a trace-replay run; there is no "
            "scenario to continue — re-drive it with "
            f"`repro replay --trace {meta.get('trace', '<file>')}`"
        )
    shards = int(meta.get("shards", 1))
    reshard_to = args.shards
    if reshard_to is not None and reshard_to != shards and not args.reshard:
        raise SystemExit(
            f"{args.state_dir} is laid out for {shards} shard(s) but "
            f"--shards {reshard_to} was requested; pass --reshard to "
            "redistribute the data plane"
        )
    _check_worker_plane(
        reshard_to or shards, meta.get("shard_workers"), meta.get("tcp_workers")
    )
    try:
        state = ServiceState(
            args.state_dir,
            keep_segments=meta.get("keep_segments", 2),
            shards=shards,
        )
    except JournalError as exc:  # e.g. JSON segments of an older build
        raise SystemExit(str(exc))
    # A heartbeat at the horizon is only journaled once the run — final
    # drain included — delivered completely, so truncating to the last
    # heartbeat is always safe: a crash mid-drain rewinds to the last
    # full interval and re-simulates from there.  Sharded state dirs
    # rewind every journal to the newest *common* broadcast heartbeat.
    start, dropped = state.rewind_to_heartbeat()
    scenario = make_scenario(
        meta["scenario"], scale=meta["scale"], horizon=meta["horizon"]
    )
    config = ServiceConfig(
        window=meta["window"],
        retune_interval=meta["interval"],
        drift_threshold=meta["drift"],
        sample_metrics=True,
    )
    controller = build_controller(
        scenario,
        seed=meta["seed"],
        revert_windows=meta.get("revert_windows", 1),
        guards=meta.get("guards"),
        freeze_after=meta.get("freeze_after"),
    )
    service = TempoService.resume(
        controller,
        state,
        config,
        failover=_failover_from_args(
            meta.get("heartbeat_interval", 1.0), meta.get("failover_after")
        ),
    )
    if meta.get("log_json"):
        service.on_decision(_json_decision_logger(out))
    restored_verdicts = _verdict_line(service.decisions)
    cost = service.last_resume
    print(
        f"resumed from {args.state_dir}: events={service.events_processed} "
        f"retunes={service.retunes} configs={len(service.config_history)} "
        f"shards={service.num_shards} t={start:.0f}s "
        f"refolded={cost.refolded} replayed={cost.replayed} in {cost.seconds:.3f} s"
        + (f" {restored_verdicts}" if restored_verdicts else "")
        + (f" (dropped {dropped} partial-interval records)" if dropped else ""),
        file=out,
    )
    if reshard_to is not None and reshard_to != shards:
        service.reshard(reshard_to)
        meta["shards"] = reshard_to
        state.write_meta(meta)
        # Anchor the new layout at the resume boundary: a broadcast
        # heartbeat gives every fresh shard journal the common chunk
        # boundary a later crash-recovery rewind needs.  Without it, a
        # resume arriving before the first post-reshard chunk completes
        # would find heartbeat-less shard journals and rewind the whole
        # history to zero.
        from repro.service.events import Heartbeat

        service.process(Heartbeat(start))
        print(f"resharded data plane: {shards} -> {reshard_to} shard(s)", file=out)
    if meta.get("shard_workers"):
        service.promote_to_workers()
    elif meta.get("tcp_workers"):
        service.promote_to_remote()
    horizon = scenario.horizon
    if start >= horizon:
        print("replay already complete; nothing to continue", file=out)
        print("\nfinal configuration:", file=out)
        print(service.rm_config.describe(), file=out)
        service.close()
        return 0
    replayer = ScenarioReplayer(
        scenario,
        service,
        speedup=args.speedup if args.speedup is not None else meta["speedup"],
        seed=meta["seed"],
        transport=meta["transport"],
        continuous=meta.get("continuous", True),
    )
    print(
        f"continuing scenario={scenario.name} from t={start:.0f}s to "
        f"horizon={horizon:.0f}s transport={meta['transport']}",
        file=out,
    )
    try:
        summary = replayer.run(horizon, start=start)
    finally:
        service.close()
    _print_replay_summary(summary, out)
    return 0


def cmd_chaos(args: argparse.Namespace, out) -> int:
    """``repro chaos``: scenario x fault schedule -> survival report.

    Drives a scenario through a durable, supervised service while the
    deterministic fault injector kills, stalls, or degrades shards per
    ``--fault`` schedule, then reports what survived: events lost on
    surviving shards (must be zero), the bounded loss on failed shards,
    retunes missed, decision-verdict drift versus the fault-free run,
    and worst-case recovery latency.  Exit code 0 means the service
    recovered from every lethal fault without losing a single
    surviving-shard event.
    """
    if not args.fault:
        raise SystemExit("at least one --fault is required (e.g. kill-shard@t=2)")
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.shard_workers and args.tcp_workers:
        raise SystemExit(
            "--shard-workers and --tcp-workers are mutually exclusive"
        )
    _check_worker_plane(args.shards, args.shard_workers, args.tcp_workers)
    if args.horizon is not None and args.horizon <= 0:
        raise SystemExit(f"--horizon must be positive, got {args.horizon}")
    if args.window <= 0:
        raise SystemExit(f"--window must be positive, got {args.window}")
    if args.interval <= 0:
        raise SystemExit(f"--interval must be positive, got {args.interval}")
    try:
        faults = [parse_fault(text) for text in args.fault]
        report = run_chaos(
            args.scenario,
            faults,
            shards=args.shards,
            shard_workers=args.shard_workers,
            tcp_workers=args.tcp_workers,
            horizon=args.horizon * 3600.0 if args.horizon is not None else None,
            scale=args.scale,
            seed=args.seed,
            window=args.window * 60.0,
            interval=args.interval * 60.0,
            heartbeat_interval=args.heartbeat_interval,
            failover_after=(
                args.failover_after if args.failover_after is not None else 5.0
            ),
            state_dir=args.state_dir,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    for line in report.lines():
        print(line, file=out)
    return 0 if report.ok else 1


def cmd_worker(args: argparse.Namespace, out) -> int:
    """``repro worker``: run one ingest shard behind a TCP listener.

    The standalone face of the socket data plane: binds ``--listen``,
    prints the bound address (port 0 picks an ephemeral port), and
    serves one :class:`~repro.service.sharding.IngestShard` until the
    control plane sends ``stop`` or the process is killed.  Point a
    ``TempoService(shard_endpoints=[...])`` control plane at a fleet
    of these to split the data plane across machines; the locally
    spawned ``--tcp-workers`` plane runs this same loop in-process.
    """
    from repro.service.transport import serve_shard

    host, sep, port_text = args.listen.rpartition(":")
    if not sep or not host:
        raise SystemExit(
            f"--listen must be host:port, got {args.listen!r} "
            "(port 0 binds an ephemeral port)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--listen port must be an integer, got {port_text!r}")
    if args.shard < 0:
        raise SystemExit(f"--shard must be >= 0, got {args.shard}")
    if args.window <= 0:
        raise SystemExit(f"--window must be positive, got {args.window}")

    class _Announce:
        """Ready-queue shim that prints the bound address instead."""

        def put(self, item) -> None:
            print(f"worker shard={args.shard} listening on {host}:{item[1]}", file=out)
            if hasattr(out, "flush"):
                out.flush()

    try:
        serve_shard(
            args.shard,
            args.window * 60.0,
            journal_path=args.journal,
            host=host,
            port=port,
            observe=args.observe,
            ready=_Announce(),
        )
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise SystemExit(f"cannot serve on {args.listen}: {exc}")
    return 0


def cmd_convert(args: argparse.Namespace, out) -> int:
    """``repro convert``: RM callback log -> service trace file.

    The input is the archived trace JSONL format
    (:meth:`~repro.workload.trace.Trace.to_jsonl` — what a real RM's
    callback recorder or ``repro simulate --save`` writes); the output
    is the event-per-line format ``repro replay --trace`` consumes.
    ``--heartbeat`` inserts cadence heartbeats so the daemon retunes
    through quiet stretches of the log.
    """
    from repro.service.replay import convert_rm_log

    if not Path(args.log).exists():
        raise SystemExit(f"log file {args.log} does not exist")
    if args.heartbeat < 0:
        raise SystemExit(
            f"--heartbeat must be non-negative, got {args.heartbeat}"
        )
    count = convert_rm_log(
        args.log,
        args.out,
        heartbeat_interval=None if args.heartbeat == 0 else args.heartbeat * 60.0,
    )
    print(f"converted {args.log} -> {args.out} ({count} events)", file=out)
    return 0


def cmd_compact(args: argparse.Namespace, out) -> int:
    """``repro compact``: drop journal segments a snapshot fully covers.

    Offline companion of the daemon's auto-compaction (useful after
    lowering ``--keep-segments``, or on state dirs written with
    auto-compaction disabled).  Only whole segments whose entire seq
    range is covered by the *oldest retained* snapshot are deleted, so
    every resume path — including falling back past a corrupt newer
    snapshot — keeps its journal tail.
    """
    if args.keep_segments < 1:
        raise SystemExit(
            f"--keep-segments must be >= 1, got {args.keep_segments}"
        )
    root = Path(args.state_dir)
    # Guard before constructing ServiceState, which would mkdir a
    # valid-looking empty state tree at a typo'd path.
    if not (root / "journal").is_dir():
        raise SystemExit(
            f"{args.state_dir} has no journal/ — "
            "was it created by `repro serve/replay --state-dir`?"
        )
    shards = 1
    if (root / "meta.json").exists():
        shards = int(json.loads((root / "meta.json").read_text()).get("shards", 1))
    state = ServiceState(
        args.state_dir, keep_segments=args.keep_segments, shards=shards
    )
    before = len(state.journal.segments())
    removed = state.compact()
    state.close()
    print(
        f"compacted {args.state_dir}: removed {removed} of {before} "
        f"segments ({before - removed} retained, "
        f"keep-segments={args.keep_segments})",
        file=out,
    )
    return 0


#: Canonical ordering of the cadence-tick phases in status output.
_RETUNE_PHASES = ("drain", "guard", "merge", "whatif")


def _hist_quantile(buckets, counts, q: float) -> float:
    """Bucket-estimated quantile of a serialized histogram.

    Returns the upper bound of the bucket holding the ``q``-quantile
    observation (the last finite bound for +Inf overflow) — the usual
    Prometheus-style estimate, good enough to spot a stalled phase.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for i, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return float(buckets[i]) if i < len(buckets) else float(buckets[-1])
    return float(buckets[-1])


def _retune_phase_rows(histograms: dict) -> list[tuple]:
    """Per-phase breakdown rows of ``tempo_retune_phase_seconds``.

    One ``(phase, count, mean, p50, p95)`` row per observed phase, in
    canonical drain/guard/merge/whatif order, so a retune stall is
    attributable to its phase from a state dir alone.
    """
    rows = []
    for phase in _RETUNE_PHASES:
        key = f'tempo_retune_phase_seconds{{phase="{phase}"}}'
        hist = histograms.get(key)
        if hist is None or not hist["count"]:
            continue
        rows.append(
            (
                phase,
                hist["count"],
                hist["sum"] / hist["count"],
                _hist_quantile(hist["buckets"], hist["counts"], 0.5),
                _hist_quantile(hist["buckets"], hist["counts"], 0.95),
            )
        )
    return rows


def cmd_status(args: argparse.Namespace, out) -> int:
    """``repro status``: introspect a state dir's persisted metrics.

    Purely read-only — it never constructs a
    :class:`~repro.service.snapshot.ServiceState` (which would repair
    the journal tail), so it is safe to run against the state dir of a
    *live* daemon.  Shows the freshest persisted registry (newest
    readable snapshot vs newest journaled ``metrics`` sample, whichever
    saw more events); ``--format prom`` renders it as Prometheus text
    exposition instead for scrape-style collection.
    """
    from repro.obs.introspect import read_status

    root = Path(args.state_dir)
    # Guard with a precise message instead of showing an empty status
    # for a typo'd path.
    if not (root / "journal").is_dir():
        raise SystemExit(
            f"{args.state_dir} has no journal/ — "
            "was it created by `repro serve/replay --state-dir`?"
        )
    try:
        status = read_status(root)
    except JournalError as exc:  # e.g. JSON segments of an older build
        raise SystemExit(str(exc))
    registry = status["registry"]
    if args.format == "prom":
        out.write(registry.render())
        return 0
    meta = status["meta"] or {}
    print(
        f"state-dir={args.state_dir} "
        f"scenario={meta.get('scenario', '?')} "
        f"shards={meta.get('shards', 1)} "
        f"snapshot-seq={status['snapshot_seq'] if status['snapshot_seq'] is not None else 'none'}",
        file=out,
    )
    sample = status["sample"]
    if sample is not None:
        print(
            f"last MetricsSampled: t={sample.get('time', 0.0):.0f}s "
            f"index={sample.get('index', '?')}",
            file=out,
        )
    print(f"metrics source: {status['source']}", file=out)
    dump = registry.to_dict()
    replayed = dump["gauges"].get("tempo_resume_replayed_records")
    if replayed is not None:
        seconds = dump["gauges"]["tempo_resume_seconds"]["value"]
        refolded = dump["gauges"].get("tempo_resume_refolded_records", {"value": 0})
        print(
            f"last resume: refolded={refolded['value']:.0f} "
            f"replayed={replayed['value']:.0f} in {seconds:.3f} s",
            file=out,
        )
    if dump["counters"]:
        print("\ncounters:", file=out)
        for key in sorted(dump["counters"]):
            print(f"  {key} = {_fmt_metric(dump['counters'][key])}", file=out)
    if dump["gauges"]:
        print("\ngauges:", file=out)
        for key in sorted(dump["gauges"]):
            gauge = dump["gauges"][key]
            print(
                f"  {key} = {_fmt_metric(gauge['value'])} ({gauge['mode']})",
                file=out,
            )
    if dump["histograms"]:
        print("\nhistograms:", file=out)
        for key in sorted(dump["histograms"]):
            hist = dump["histograms"][key]
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            print(
                f"  {key}: count={count} mean={mean:.6g} sum={hist['sum']:.6g}",
                file=out,
            )
        phases = _retune_phase_rows(dump["histograms"])
        if phases:
            print("\nretune phases (seconds per cadence tick):", file=out)
            print(
                "  phase    count  mean      p50       p95", file=out
            )
            for phase, count, mean, p50, p95 in phases:
                print(
                    f"  {phase:<7}  {count:<5}  {mean:<8.3g}  "
                    f"{p50:<8.3g}  {p95:<8.3g}",
                    file=out,
                )
    if not len(registry):
        print(
            "\nno persisted metrics (run predates metrics sampling, or no "
            "retune completed yet)",
            file=out,
        )
    return 0


def cmd_dump_journal(args: argparse.Namespace, out) -> int:
    """``repro dump-journal``: render journal segments as JSON lines.

    The operator's JSON view of the binary journal: every record of
    every segment (or one segment with ``--segment N``) prints as one
    canonical JSON line ``{"data":...,"kind":...,"seq":...}``.
    Purely read-only, like ``repro status``: it never constructs
    an :class:`~repro.service.snapshot.ServiceState` (which would
    repair the journal tail), so it is safe against a live daemon's
    state dir.  ``--shard N`` selects a shard journal of a sharded
    state dir instead of the control journal.
    """
    from repro.service.codec import split_window_state
    from repro.service.journal import canonical_json, read_segment, segment_paths
    from repro.service.sharding import shard_dir_name

    root = Path(args.state_dir)
    journal_dir = root / "journal"
    if args.shard is not None:
        if args.shard < 0:
            raise SystemExit(f"--shard must be >= 0, got {args.shard}")
        sharded = root / shard_dir_name(args.shard) / "journal"
        # Shard 0 of a single-shard layout *is* the control journal.
        if sharded.is_dir():
            journal_dir = sharded
        elif args.shard != 0:
            raise SystemExit(
                f"{args.state_dir} has no {shard_dir_name(args.shard)}/journal"
            )
    if not journal_dir.is_dir():
        raise SystemExit(
            f"{args.state_dir} has no journal/ — "
            "was it created by `repro serve/replay --state-dir`?"
        )
    try:
        segments = segment_paths(journal_dir)
    except JournalError as exc:  # JSON segments of an older build
        raise SystemExit(str(exc))
    if not segments:
        raise SystemExit(f"{journal_dir} holds no journal segments")
    if args.segment is not None:
        chosen = [p for p in segments if int(p.stem.split("-")[1]) == args.segment]
        if not chosen:
            known = ", ".join(str(int(p.stem.split("-")[1])) for p in segments)
            raise SystemExit(
                f"no segment starting at seq {args.segment} "
                f"(segments start at: {known})"
            )
        segments = chosen
    tail = segments[-1]
    try:
        for path in segments:
            # Only the newest segment may legally carry a torn tail.
            for record in read_segment(path, final=path is tail):
                data = record.data
                if record.kind == "window":  # a reshard's moved window
                    window, clock, events, tenants = split_window_state(data)
                    data = {"window": window, "clock": clock, "events": events,
                            "tenants": len(tenants), "bytes": len(data)}
                print(
                    canonical_json(
                        {"data": data, "kind": record.kind, "seq": record.seq}
                    ),
                    file=out,
                )
    except BrokenPipeError:
        _silence_stdout()
    return 0


def _silence_stdout() -> None:
    """After a ``BrokenPipeError``: `dump-... | head` is the expected
    operator usage, so exit quietly when the consumer stops reading —
    stdout is pointed at devnull so the interpreter's exit-time flush
    stays quiet too."""
    import os as _os

    _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), sys.stdout.fileno())


def cmd_dump_snapshot(args: argparse.Namespace, out) -> int:
    """``repro dump-snapshot``: render one snapshot file as JSON lines.

    Line 1 is the header (format tag, ``seq``, ``marks``), line 2 the
    control state, and every further line one shard journal's
    :class:`~repro.service.sharding.ShardMark` —
    ``{"shard":i,"seq":...,"clock":...,"events":...,"mark":...}``: where
    resume starts refolding that shard's window and what it settles.
    Dumps the newest snapshot, or the one covering journal seq
    ``--seq``.  Purely read-only, like ``repro status``: it never
    constructs a :class:`~repro.service.snapshot.ServiceState`.
    """
    from repro.service.journal import canonical_json
    from repro.service.snapshot import SNAPSHOT_FORMAT, read_snapshot

    paths = sorted((Path(args.state_dir) / "snapshots").glob("snapshot-*.json"))
    if args.seq is not None:
        paths = [p for p in paths if int(p.stem.split("-")[1]) == args.seq]
    if not paths:
        raise SystemExit(
            f"{args.state_dir} holds no snapshot"
            + ("" if args.seq is None else f" at seq {args.seq}")
        )
    try:
        header, state = read_snapshot(paths[-1])
    except ValueError as exc:
        raise SystemExit(f"{paths[-1]} is unreadable to this build: {exc}")
    marks = header["marks"] or []
    try:
        print(
            canonical_json(
                {"format": SNAPSHOT_FORMAT, "seq": header["seq"],
                 "marks": None if header["marks"] is None else [list(m) for m in marks]}
            ),
            file=out,
        )
        print(canonical_json(state), file=out)
        for shard, mark in enumerate(marks):
            print(canonical_json({"shard": shard, **mark._asdict()}), file=out)
    except BrokenPipeError:
        _silence_stdout()
    return 0

def _fmt_metric(value: float) -> str:
    """Render a metric value; integral floats print as integers."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """Shared flags of the ``serve`` and ``replay`` subcommands."""
    parser.add_argument(
        "--scenario", choices=sorted(SERVICE_SCENARIOS), default="steady"
    )
    parser.add_argument(
        "--speedup",
        type=float,
        default=0.0,
        help="simulated seconds per wall second (<= 0: as fast as possible)",
    )
    parser.add_argument(
        "--horizon", type=float, default=None, help="hours to replay"
    )
    parser.add_argument(
        "--scale", type=float, default=None, help="arrival-rate scale"
    )
    parser.add_argument(
        "--window", type=float, default=30.0, help="stats window, minutes"
    )
    parser.add_argument(
        "--interval", type=float, default=15.0, help="retune cadence, minutes"
    )
    parser.add_argument(
        "--drift", type=float, default=0.02, help="stability-guard threshold"
    )
    parser.add_argument(
        "--revert-windows",
        type=int,
        default=3,
        help="windows averaged for the revert-guard comparison",
    )
    parser.add_argument(
        "--guards",
        default="legacy",
        help="decision-plane pipeline: comma-separated guards from "
        "{legacy, predictive, stability, sparsity}; 'legacy' (default) "
        "keeps the observed-vs-observed guard byte-identical to the "
        "pre-decision-plane pipeline, 'predictive' swaps in the "
        "load-normalized comparison",
    )
    parser.add_argument(
        "--freeze-after",
        type=int,
        default=None,
        help="consecutive reverts after which the decision plane "
        "freezes (rolls back and stops proposing candidates); "
        "default: disabled",
    )
    parser.add_argument(
        "--state-dir",
        help="persist journal + snapshots here (enables `repro resume`)",
    )
    parser.add_argument(
        "--chunked",
        action="store_true",
        help="legacy per-interval simulation (no cross-interval backlog)",
    )
    parser.add_argument(
        "--keep-segments",
        type=int,
        default=2,
        help="journal segments compaction always retains (safety margin)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="per-tenant data-plane shards (own window + journal each)",
    )
    parser.add_argument(
        "--shard-workers",
        action="store_true",
        help="run the shards as multiprocessing worker processes",
    )
    parser.add_argument(
        "--tcp-workers",
        action="store_true",
        help="run the shards as socket-fed loopback worker processes "
        "(the `repro worker` transport, spawned and supervised locally)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between worker-shard liveness beats (supervision)",
    )
    parser.add_argument(
        "--failover-after",
        type=float,
        default=None,
        help="declare a shard dead after this many seconds without a "
        "heartbeat (or past a barrier reply) and fail it over to a "
        "replacement; default: supervision off, a dead shard raises",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON line per retune decision (structured logging)",
    )
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tempo: self-tuning RM configuration (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario through a simulator")
    sim.add_argument("--scenario", choices=sorted(SCENARIOS), default="two-tenant")
    sim.add_argument("--engine", choices=["predictor", "cluster"], default="predictor")
    sim.add_argument("--noise", choices=sorted(NOISE_PROFILES), default="quiet")
    sim.add_argument("--horizon", type=float, default=1.0, help="hours of workload")
    sim.add_argument("--scale", type=float, default=1.0, help="arrival-rate scale")
    sim.add_argument("--heartbeat", type=float, default=5.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--save", help="archive the trace as JSON-lines")
    sim.set_defaults(func=cmd_simulate)

    tune = sub.add_parser("tune", help="run the Tempo control loop")
    tune.add_argument("--scenario", choices=sorted(SCENARIOS), default="two-tenant")
    tune.add_argument("--slos", help="JSON file of QS templates")
    tune.add_argument("--iterations", type=int, default=6)
    tune.add_argument("--window", type=float, default=30.0, help="minutes per window")
    tune.add_argument("--candidates", type=int, default=5)
    tune.add_argument("--trust-radius", type=float, default=0.2)
    tune.add_argument("--noise", choices=sorted(NOISE_PROFILES), default="quiet")
    tune.add_argument("--scale", type=float, default=1.0)
    tune.add_argument("--seed", type=int, default=0)
    tune.set_defaults(func=cmd_tune)

    rep = sub.add_parser("report", help="summarize an archived trace")
    rep.add_argument("trace", help="JSON-lines trace file")
    rep.add_argument("--slos", help="JSON file of QS templates to evaluate")
    rep.set_defaults(func=cmd_report)

    replay = sub.add_parser(
        "replay", help="replay a scenario through the streaming service"
    )
    _add_scenario_options(replay)
    replay.add_argument(
        "--trace",
        help="replay recorded telemetry from a JSONL trace file instead of "
        "simulating the scenario (the scenario still supplies cluster/SLOs)",
    )
    replay.add_argument(
        "--save-trace",
        help="record the delivered telemetry to a JSONL trace file",
    )
    replay.set_defaults(func=cmd_replay)

    serve = sub.add_parser(
        "serve", help="run the streaming daemon (event bus + background thread)"
    )
    _add_scenario_options(serve)
    serve.set_defaults(func=cmd_serve)

    resume = sub.add_parser(
        "resume", help="rebuild a killed daemon from its state dir and continue"
    )
    resume.add_argument(
        "--state-dir", required=True, help="state dir of the killed run"
    )
    resume.add_argument(
        "--speedup",
        type=float,
        default=None,
        help="override the original run's pacing",
    )
    resume.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count to continue with (mismatching the state dir's "
        "layout requires --reshard)",
    )
    resume.add_argument(
        "--reshard",
        action="store_true",
        help="redistribute the data plane across --shards before continuing",
    )
    resume.set_defaults(func=cmd_resume)

    chaos = sub.add_parser(
        "chaos",
        help="drive a scenario through a supervised service under a "
        "deterministic fault schedule; report what survived",
    )
    chaos.add_argument(
        "--scenario", choices=sorted(SERVICE_SCENARIOS), default="flash-failure"
    )
    chaos.add_argument(
        "--fault",
        action="append",
        default=[],
        help="fault spec <kind>[:<shard>]@t=<interval-units>[@for=<amount>], "
        "kind one of kill-shard/stall-shard/drop-batches/slow-journal/"
        "partition/slow-net/drop-net; repeatable (t is in retune "
        "intervals: t=2 fires at the second cadence chunk); network "
        "faults take their own magnitude spelling, e.g. "
        "'partition:1@t=2 dur=3' (wall seconds), 'slow-net@t=1 ms=50', "
        "'drop-net@t=1 n=4'",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=4,
        help="per-tenant data-plane shards (own window + journal each)",
    )
    chaos.add_argument(
        "--shard-workers",
        action="store_true",
        help="run the shards as multiprocessing worker processes",
    )
    chaos.add_argument(
        "--tcp-workers",
        action="store_true",
        help="run the shards as socket-fed loopback worker processes "
        "(network faults hit the real transport)",
    )
    chaos.add_argument(
        "--horizon", type=float, default=None, help="hours to replay"
    )
    chaos.add_argument(
        "--scale", type=float, default=None, help="arrival-rate scale"
    )
    chaos.add_argument(
        "--window", type=float, default=30.0, help="stats window, minutes"
    )
    chaos.add_argument(
        "--interval", type=float, default=15.0, help="retune cadence, minutes"
    )
    chaos.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between worker-shard liveness beats",
    )
    chaos.add_argument(
        "--failover-after",
        type=float,
        default=None,
        help="declare a shard dead after this many heartbeat-less "
        "seconds (default 5.0; chaos runs are always supervised)",
    )
    chaos.add_argument(
        "--state-dir",
        help="keep the faulted run's journal + snapshots here for "
        "inspection (default: a temp dir, removed afterwards)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.set_defaults(func=cmd_chaos)

    worker = sub.add_parser(
        "worker",
        help="run one ingest shard behind a TCP listener "
        "(the socket data plane's standalone worker)",
    )
    worker.add_argument(
        "--listen",
        required=True,
        help="host:port to bind (port 0 picks an ephemeral port, "
        "printed on stdout)",
    )
    worker.add_argument(
        "--shard", type=int, default=0, help="shard id this worker serves"
    )
    worker.add_argument(
        "--window", type=float, default=30.0, help="stats window, minutes"
    )
    worker.add_argument(
        "--journal",
        help="journal this shard's events here (worker-owned directory)",
    )
    worker.add_argument(
        "--observe",
        action="store_true",
        help="run a shard-local metrics registry (drained at barriers)",
    )
    worker.set_defaults(func=cmd_worker)

    convert = sub.add_parser(
        "convert",
        help="convert an RM callback log (trace JSONL) to a replayable "
        "service trace file",
    )
    convert.add_argument("log", help="RM callback log / archived trace JSONL")
    convert.add_argument("out", help="output service trace file (JSONL events)")
    convert.add_argument(
        "--heartbeat",
        type=float,
        default=15.0,
        help="minutes between inserted cadence heartbeats "
        "(0: raw callbacks only, no heartbeats)",
    )
    convert.set_defaults(func=cmd_convert)

    compact = sub.add_parser(
        "compact", help="drop journal segments a retained snapshot covers"
    )
    compact.add_argument(
        "--state-dir", required=True, help="state dir to compact"
    )
    compact.add_argument(
        "--keep-segments",
        type=int,
        default=2,
        help="journal segments compaction always retains (safety margin)",
    )
    compact.set_defaults(func=cmd_compact)

    dump = sub.add_parser(
        "dump-journal",
        help="render a state dir's journal segments (JSON or binary) "
        "as canonical JSON lines",
    )
    dump.add_argument(
        "--state-dir", required=True, help="state dir to dump (read-only)"
    )
    dump.add_argument(
        "--segment",
        type=int,
        default=None,
        help="dump only the segment starting at this seq "
        "(default: every segment, in order)",
    )
    dump.add_argument(
        "--shard",
        type=int,
        default=None,
        help="dump a shard journal (shard-NN/journal) instead of the "
        "control journal",
    )
    dump.set_defaults(func=cmd_dump_journal)

    dump_snapshot = sub.add_parser(
        "dump-snapshot",
        help="render a state dir's newest snapshot (header, control state, "
        "shard marks) as JSON lines",
    )
    dump_snapshot.add_argument(
        "--state-dir", required=True, help="state dir to dump (read-only)"
    )
    dump_snapshot.add_argument(
        "--seq",
        type=int,
        default=None,
        help="dump the snapshot covering this journal seq (default: the newest)",
    )
    dump_snapshot.set_defaults(func=cmd_dump_snapshot)

    status = sub.add_parser(
        "status", help="show the persisted metrics of a serving state dir"
    )
    status.add_argument(
        "--state-dir", required=True, help="state dir to introspect (read-only)"
    )
    status.add_argument(
        "--format",
        choices=["text", "prom"],
        default="text",
        help="text summary (default) or Prometheus text exposition",
    )
    status.set_defaults(func=cmd_status)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
