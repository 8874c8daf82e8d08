"""Observability overhead: instrumented vs uninstrumented durable ingest.

The observability plane (``repro.obs``) instruments the durable ingest
hot path — registry counters per batch, journal append/fsync latency
histograms — and the design contract is that this costs almost nothing:
cached instrument handles, one float add per observation, shard-local
registries merged only at drain barriers.  This benchmark measures that
contract directly by running the identical durable batched ingest
workload twice, once with ``ServiceConfig(observe=False)`` (a
``NullRegistry``; the pre-observability hot path) and once with the
default live registry, and gating on the throughput ratio.

The full run archives the measured ratio (target: instrumented >= 0.95x
uninstrumented) plus registry micro-op costs, appending to
``results/perf_obs_overhead.json`` (a ``runs`` list, timestamped and
core-count-stamped like ``perf_service_ingest.json``).  ``--smoke`` is
the CI regression gate with jitter headroom; it gates and prints only,
so a smoke leaves the tree clean.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

from _harness import RESULTS_DIR, append_trajectory_run, report
from bench_perf_service_ingest import BATCH, telemetry_events
from repro.obs import MetricsRegistry
from repro.service.daemon import ServiceConfig
from repro.service.replay import build_service, make_scenario
from repro.service.snapshot import ServiceState

#: Machine-readable trajectory file (a ``runs`` list; append-only).
RESULTS_JSON = RESULTS_DIR / "perf_obs_overhead.json"


def append_run(record: dict) -> None:
    """Append one timestamped run record to this bench's trajectory."""
    append_trajectory_run(RESULTS_JSON, record)


def bench_ingest(events, observe: bool, batch: int = BATCH) -> float:
    """Events/sec through durable batched ingest, retuning disabled.

    The exact workload of ``bench_perf_service_ingest``'s durable
    batched measurement; ``observe`` toggles the live metrics registry
    against the no-op ``NullRegistry`` baseline.
    """
    scenario = make_scenario("steady")
    with tempfile.TemporaryDirectory() as tmp:
        state = ServiceState(tmp)
        service = build_service(
            scenario,
            ServiceConfig(window=1800.0, retune_interval=1e12, observe=observe),
            seed=0,
            state=state,
        )
        start = time.perf_counter()
        for i in range(0, len(events), batch):
            service.ingest_batch(events[i : i + batch])
        state.journal.flush()
        elapsed = time.perf_counter() - start
        state.close()
    return len(events) / elapsed


def bench_registry_ops(n: int = 200_000) -> dict[str, float]:
    """Nanoseconds per registry micro-op with a cached handle."""
    registry = MetricsRegistry()
    counter = registry.counter("bench_counter_total")
    hist = registry.histogram("bench_latency_seconds")
    start = time.perf_counter()
    for _ in range(n):
        counter.inc()
    counter_ns = (time.perf_counter() - start) / n * 1e9
    start = time.perf_counter()
    for _ in range(n):
        hist.observe(2.5e-4)
    observe_ns = (time.perf_counter() - start) / n * 1e9
    return {"counter_inc_ns": counter_ns, "histogram_observe_ns": observe_ns}


def measure(events, trials: int) -> tuple[float, float, float]:
    """Best-of-``trials`` (baseline_eps, instrumented_eps, ratio).

    Trials are interleaved (baseline, instrumented, baseline, ...) so
    slow machine-wide drift — thermal throttling, a neighbor workload
    ramping up — hits both sides equally instead of biasing whichever
    variant ran later.
    """
    baseline = 0.0
    instrumented = 0.0
    for _ in range(trials):
        baseline = max(baseline, bench_ingest(events, observe=False))
        instrumented = max(instrumented, bench_ingest(events, observe=True))
    return baseline, instrumented, instrumented / baseline


def smoke() -> int:
    """CI regression gate: small event count, jitter-tolerant floor.

    The acceptance target is instrumented >= 0.95x uninstrumented; the
    smoke floor leaves headroom for shared-runner jitter (0.90x on >= 4
    cores, 0.75x below, where a noisy neighbor can dominate short
    runs).  Writes nothing.  Returns a process exit code.
    """
    events = telemetry_events(horizon=2400.0)
    baseline, instrumented, ratio = measure(events, trials=3)
    ops = bench_registry_ops(n=50_000)
    cores = os.cpu_count() or 1
    print(
        f"smoke: {len(events):,} events, durable batched ingest "
        f"uninstrumented {baseline:,.0f}/s, instrumented "
        f"{instrumented:,.0f}/s (ratio {ratio:.3f}x); registry ops "
        f"counter.inc {ops['counter_inc_ns']:.0f}ns, "
        f"histogram.observe {ops['histogram_observe_ns']:.0f}ns"
    )
    floor = 0.90 if cores >= 4 else 0.75
    failures = []
    if ratio < floor:
        failures.append(
            f"instrumented ingest at {ratio:.3f}x of uninstrumented "
            f"(< {floor:.2f}x floor on {cores} cores)"
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
        help="small event count + regression floor (CI gate); prints "
        "and archives nothing",
    )
    args = parser.parse_args()
    if args.smoke:
        return smoke()

    events = telemetry_events()
    baseline, instrumented, ratio = measure(events, trials=3)
    ops = bench_registry_ops()
    rows = [
        ["durable batched ingest, uninstrumented (events/s)", f"{baseline:,.0f}"],
        ["durable batched ingest, instrumented (events/s)", f"{instrumented:,.0f}"],
        ["instrumented / uninstrumented", f"{ratio:.3f}x (target >= 0.95x)"],
        ["registry counter.inc (cached handle)", f"{ops['counter_inc_ns']:.0f} ns"],
        [
            "registry histogram.observe (cached handle)",
            f"{ops['histogram_observe_ns']:.0f} ns",
        ],
    ]
    report(
        "perf_obs_overhead",
        "Observability overhead: instrumented vs uninstrumented ingest",
        ["measurement", "value"],
        rows,
    )
    append_run(
        {
            "mode": "full",
            "events": len(events),
            "uninstrumented_eps": baseline,
            "instrumented_eps": instrumented,
            "instrumented_ratio": ratio,
            "registry_ops_ns": ops,
        }
    )
    if ratio < 0.95:
        print(f"TARGET MISS: instrumented ratio {ratio:.3f}x < 0.95x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
