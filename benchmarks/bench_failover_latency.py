"""Perf benchmark: shard failover latency through the supervision plane.

Not a paper figure — an operational benchmark for the failover plane
(`repro.service.failover`).  Measurements:

1. **Journal-replay time vs shard journal size** — wall seconds
   :meth:`~repro.service.daemon.TempoService.failover_shard` spends
   rebuilding a replacement from a ~1k / ~5k / ~20k-record shard
   journal (no snapshot: the worst case, a full-tail replay), and the
   implied records/sec.  Failover cost is bounded by the journal tail,
   not the service lifetime — this row is the bound.
2. **Worker rows** — the same supervision story through the loopback
   TCP worker plane (`repro.service.transport`): wall seconds from a
   SIGKILL of a worker to its dead handle (the launcher's process
   probe, so it lands well inside ``failover_after``), reconnect
   latency past a transient partition window (outage minus the
   injected window = backoff + hello + suffix replay), and the
   journal-replay rate of a worker failover.

Alongside the human-readable table a full run archives a
machine-readable ``benchmarks/results/failover_latency.json``.  The
file holds a ``runs`` list and every full run **appends** a timestamped
record, so the latency trajectory across PRs is preserved instead of
overwritten.  ``--smoke`` gates and prints only: it writes no file, so
a CI or local smoke leaves the tree clean.

The ``--smoke`` gate protects *correctness and boundedness*, not
throughput: a killed worker must be detected inside ``failover_after``,
the failover must recover the full journal tail, and a healed
partition must cost bounded reconnect overhead — numbers are
recorded, ceilings are generous.

Run:  PYTHONPATH=src python benchmarks/bench_failover_latency.py
CI smoke (small journal + boundedness gates):
      PYTHONPATH=src python benchmarks/bench_failover_latency.py --smoke
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import time

import numpy as np

from _harness import RESULTS_DIR, append_trajectory_run, report
from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import Heartbeat, JobCompleted, TaskCompleted
from repro.service.failover import DeadShard, FailoverConfig
from repro.service.replay import build_controller, make_scenario
from repro.service.sharding import ShardPartitionedError
from repro.service.snapshot import ServiceState
from repro.service.transport import start_remote_shards
from repro.workload.trace import JobRecord, TaskRecord

#: Fast supervision: detection bound well under a second, and the
#: tightest failover_after the >= 2x heartbeat-interval rule allows.
FAST = FailoverConfig(heartbeat_interval=0.1, failover_after=0.5)

#: Machine-readable trajectory file (a ``runs`` list; append-only).
RESULTS_JSON = RESULTS_DIR / "failover_latency.json"


def append_run(record: dict) -> None:
    """Append one timestamped run record to this bench's trajectory."""
    append_trajectory_run(RESULTS_JSON, record)


def synthetic_events(tenants: int, count: int, window: float = 600.0, seed: int = 0):
    """A uniform synthetic telemetry stream across ``tenants`` tenants."""
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


def _service(root, shards: int, tcp: bool = False) -> tuple[TempoService, ServiceState]:
    """A supervised durable service over a fresh state dir."""
    scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
    config = ServiceConfig(window=600.0, retune_interval=10**9)
    state = ServiceState(root, shards=shards, snapshot_every=10**12)
    service = TempoService(
        build_controller(scenario),
        config,
        state=state,
        shards=shards,
        tcp_workers=tcp,
        failover=FAST,
    )
    return service, state


def bench_replay_time(records: int) -> dict:
    """Failover wall seconds vs shard journal size (in-process plane).

    Builds a 2-shard durable in-process service, routes ~``records``
    telemetry records into shard 1's journal, swaps the shard for a
    :class:`~repro.service.failover.DeadShard`, and times
    :meth:`~repro.service.daemon.TempoService.failover_shard` — whose
    rebuild is a full-tail journal replay (no snapshot was written).
    """
    with tempfile.TemporaryDirectory(prefix="tempo-bench-failover-") as root:
        service, state = _service(root, shards=2)
        try:
            # Each time point emits two events and ~half the stream
            # routes to the victim: ``records`` points => ~records
            # journal records on shard 1.
            events = synthetic_events(64, records)
            service.ingest_batch(events)
            victim_records = service.shards[1].last_seq
            service.shards[1] = DeadShard(1)
            started = time.perf_counter()
            failover = service.failover_shard(1, "killed")
            elapsed = time.perf_counter() - started
        finally:
            service.close()
            state.close()
    return {
        "journal_records": victim_records,
        "replayed": failover.replayed,
        "failover_seconds": elapsed,
        "replay_internal_seconds": failover.latency,
        "records_per_second": failover.replayed / elapsed if elapsed > 0 else 0.0,
    }


def bench_tcp_detection(trials: int = 3) -> list[float]:
    """SIGKILL of a TCP worker -> dead handle, wall seconds.

    The handle asks its launcher whether the worker process still runs,
    so a killed worker is a process exit, not a partition: detection
    lands well inside ``failover_after`` instead of waiting it out.
    """
    latencies = []
    for trial in range(trials):
        handles, launcher = start_remote_shards(
            1,
            600.0,
            heartbeat_interval=FAST.heartbeat_interval,
            failover_after=FAST.failover_after,
        )
        handle = handles[0]
        try:
            handle.ingest(synthetic_events(50, 400, seed=trial)[:200])
            handle.drain_state(10.0)  # connected, batches applied
            os.kill(launcher._procs[0].pid, signal.SIGKILL)
            started = time.perf_counter()
            while handle.alive and time.perf_counter() - started < 30.0:
                time.sleep(0.005)
            if handle.alive:  # pragma: no cover - supervision regression
                raise RuntimeError("killed TCP worker never fenced")
            latencies.append(time.perf_counter() - started)
        finally:
            handle.kill()
            launcher.close()
    return latencies


def bench_tcp_reconnect(dur: float = 0.2, trials: int = 3) -> list[dict]:
    """Transient-partition heal latency on an unsupervised TCP handle.

    Injects a ``dur``-second partition mid-stream, buffers a tail
    through it, and measures the recorded outage: outage minus the
    injected window is the reconnect overhead — backoff wait, the
    hello exchange, and the deduped replay of the unacknowledged
    suffix.
    """
    results = []
    for trial in range(trials):
        handles, launcher = start_remote_shards(1, 600.0)
        handle = handles[0]
        try:
            events = synthetic_events(50, 600, seed=trial)
            half = len(events) // 2
            handle.ingest(events[:half])
            handle.drain_state(10.0)
            handle.inject_partition(dur)
            handle.ingest(events[half:])  # buffered through the window
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    handle.drain_state(20.0)
                    break
                except ShardPartitionedError:
                    if time.monotonic() > deadline:  # pragma: no cover
                        raise RuntimeError("partition never healed")
                    time.sleep(0.005)
            outage = (
                handle.reconnect_seconds[-1] if handle.reconnect_seconds else 0.0
            )
            results.append(
                {
                    "injected_seconds": dur,
                    "outage_seconds": outage,
                    "reconnect_overhead_seconds": max(0.0, outage - dur),
                    "replayed_batches": handle.retries,
                    "reconnects": handle.reconnects,
                }
            )
        finally:
            handle.close()
            launcher.close()
    return results


def bench_tcp_replay(records: int) -> dict:
    """Failover wall seconds vs journal size through the TCP plane.

    The TCP twin of the in-process replay row: a 2-shard loopback TCP
    service, ~``records`` records drained into the victim's
    worker-owned journal, the handle fenced (SIGKILL + dead), and
    ``failover_shard`` timed end to end — journal rewind, replay, and
    the respawn of a replacement worker process.
    """
    with tempfile.TemporaryDirectory(prefix="tempo-bench-failover-") as root:
        service, state = _service(root, shards=2, tcp=True)
        try:
            events = synthetic_events(64, records)
            # Broadcast heartbeats bound the rewind: a worker-owned
            # journal truncates to its newest heartbeat boundary, so
            # without them a failover would replay nothing.
            beats = [
                Heartbeat(events[i].time + 1e-6)
                for i in range(49, len(events), 50)
            ]
            beats.append(Heartbeat(events[-1].time + 1e-6))
            events = sorted(events + beats, key=lambda e: e.time)
            service.ingest_batch(events)
            now = max(event.time for event in events) + 1.0
            victim_records = service.shards[1].drain_state(now)["seq"]
            service.shards[1].kill()
            started = time.perf_counter()
            failover = service.failover_shard(1, "fenced")
            elapsed = time.perf_counter() - started
        finally:
            service.close()
            state.close()
    return {
        "journal_records": victim_records,
        "replayed": failover.replayed,
        "failover_seconds": elapsed,
        "replay_internal_seconds": failover.latency,
        "records_per_second": failover.replayed / elapsed if elapsed > 0 else 0.0,
    }


def _rows(replays: list[dict]):
    return [
        (
            f"replay {entry['journal_records']:,} records",
            f"{entry['failover_seconds'] * 1000:.0f} ms",
            f"{entry['records_per_second']:,.0f} rec/s",
        )
        for entry in replays
    ]


def _tcp_rows(detection: list[float], reconnects: list[dict], replay: dict):
    overheads = [r["reconnect_overhead_seconds"] for r in reconnects]
    return [
        (
            "tcp detection (SIGKILL -> process-exit)",
            f"{min(detection) * 1000:.0f}-{max(detection) * 1000:.0f} ms",
            f"bound failover_after={FAST.failover_after * 1000:.0f} ms",
        ),
        (
            f"tcp reconnect ({reconnects[0]['injected_seconds'] * 1000:.0f} ms partition)",
            f"{min(overheads) * 1000:.0f}-{max(overheads) * 1000:.0f} ms overhead",
            f"{sum(r['reconnects'] for r in reconnects)} reconnect(s), "
            f"{sum(r['replayed_batches'] for r in reconnects)} batch(es) re-sent",
        ),
        (
            f"tcp replay {replay['journal_records']:,} records",
            f"{replay['failover_seconds'] * 1000:.0f} ms",
            f"{replay['records_per_second']:,.0f} rec/s",
        ),
    ]


def smoke() -> int:
    """CI gate: bounded detection + full-tail recovery, generous ceilings.

    Returns a process exit code; prints its table and writes nothing.
    """
    replay = bench_replay_time(1_000)
    tcp_detection = bench_tcp_detection(trials=2)
    tcp_reconnect = bench_tcp_reconnect(dur=0.2, trials=2)
    tcp_replay = bench_tcp_replay(1_000)
    report(
        "failover_latency_smoke",
        "Shard failover latency (smoke)",
        ("measurement", "latency", "detail"),
        _rows([replay]) + _tcp_rows(tcp_detection, tcp_reconnect, tcp_replay),
        archive=False,
    )
    failures = []
    if replay["replayed"] != replay["journal_records"]:
        failures.append(
            f"failover replayed {replay['replayed']} of "
            f"{replay['journal_records']} journal records (lost tail)"
        )
    # TCP boundedness: a killed worker must be seen by the process
    # probe, inside failover_after (waiting it out means the exit was
    # taken for a partition); a healed transient partition must cost
    # bounded reconnect overhead; the failover must replay the journal.
    if max(tcp_detection) >= FAST.failover_after:
        failures.append(
            f"tcp detection latency {max(tcp_detection):.3f}s >= "
            f"failover_after {FAST.failover_after}s (process exit taken "
            "for a partition?)"
        )
    worst_overhead = max(
        r["reconnect_overhead_seconds"] for r in tcp_reconnect
    )
    if worst_overhead > 10.0:
        failures.append(
            f"tcp reconnect overhead {worst_overhead:.2f}s > 10s bound "
            "(backoff runaway or suffix replay wedged)"
        )
    if tcp_replay["replayed"] <= 0 or tcp_replay["records_per_second"] <= 0:
        failures.append(
            f"tcp failover replayed {tcp_replay['replayed']} records "
            f"of a {tcp_replay['journal_records']}-record journal"
        )
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}")
    return 1 if failures else 0


def main() -> int:
    """Run the measurements; archive the table and the JSON trajectory."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small journal + boundedness gates (CI gate); prints and "
        "archives nothing",
    )
    args = parser.parse_args()
    if args.smoke:
        return smoke()

    replays = [bench_replay_time(n) for n in (1_000, 5_000, 20_000)]
    tcp_detection = bench_tcp_detection(trials=5)
    tcp_reconnect = bench_tcp_reconnect(dur=0.2, trials=5)
    tcp_replay = bench_tcp_replay(5_000)
    report(
        "failover_latency",
        "Shard failover latency",
        ("measurement", "latency", "detail"),
        _rows(replays) + _tcp_rows(tcp_detection, tcp_reconnect, tcp_replay),
    )
    append_run(
        {
            "mode": "full",
            "replay": replays,
            "tcp_detection_seconds": tcp_detection,
            "tcp_reconnect": tcp_reconnect,
            "tcp_replay": tcp_replay,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
