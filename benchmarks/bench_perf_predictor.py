"""Section 8.1 performance claim — schedule prediction throughput.

The paper's C++-grade predictor simulates 35M tasks in 4 minutes
(~150k tasks/s).  This bench measures our pure-Python predictor's
tasks/second across workload sizes and prints each as a share of that
figure; the reproduction bar is the *feasibility* of the what-if loop
(a cold five-candidate retune over an hour-long window completes in a
fraction of a second), not parity with the paper's native-code number.

Every size is timed three times, the rounds interleaved over the sizes
so a slow stretch of the host hits all of them alike, and scored by its
best round.  Alongside the printed table every full run appends one
timestamped record to ``benchmarks/results/perf_predictor.json`` (and
rewrites ``perf_predictor.txt``); ``--smoke`` gates and prints only, so
it leaves the tree clean.

Run:  PYTHONPATH=src python benchmarks/bench_perf_predictor.py
CI smoke (two small sizes + the floor):
      PYTHONPATH=src python benchmarks/bench_perf_predictor.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time

from _harness import RESULTS_DIR, append_trajectory_run, report
from repro.sim.predictor import SchedulePredictor
from repro.workload.synthetic import (
    two_tenant_cluster,
    two_tenant_expert_config,
    two_tenant_model,
)

#: Machine-readable trajectory file (a ``runs`` list; append-only).
RESULTS_JSON = RESULTS_DIR / "perf_predictor.json"

#: The paper's reported rate (35M tasks in 240 s).
PAPER_TASKS_PER_S = 150_000.0

#: Feasibility floor.  The row-emitting predictor measures 50-95k
#: tasks/s on the 2-core reference container on a quiet host, and down
#: to 31-60k when the shared host is busy (the smallest size is the
#: slowest and the noisiest); the floor leaves room for a slower runner
#: and still fails a fall back to the 12-14k tasks/s of rescheduling
#: every pool at every instant.
FLOOR_TASKS_PER_S = 25_000.0

ROUNDS = 3


def run(hours: tuple[float, ...], mode: str) -> int:
    """Measure, print, gate, and archive one invocation."""
    cluster = two_tenant_cluster()
    config = two_tenant_expert_config(cluster)
    predictor = SchedulePredictor(cluster)
    workloads = [two_tenant_model().generate(3, h * 3600.0) for h in hours]
    best = [float("inf")] * len(workloads)
    for _ in range(ROUNDS):
        for i, workload in enumerate(workloads):
            start = time.perf_counter()
            schedule = predictor.predict(workload, config)
            best[i] = min(best[i], time.perf_counter() - start)
            assert len(schedule.job_records) == len(workload)

    sizes = []
    rows = []
    for h, workload, elapsed in zip(hours, workloads, best):
        rate = workload.num_tasks / elapsed
        sizes.append(
            {
                "hours": h,
                "jobs": len(workload),
                "tasks": workload.num_tasks,
                "best_s": elapsed,
                "tasks_per_s": rate,
            }
        )
        rows.append(
            [
                f"{h:g}h",
                len(workload),
                workload.num_tasks,
                f"{elapsed:.3f}s",
                f"{rate:,.0f}",
                f"{rate / PAPER_TASKS_PER_S:.2f}x",
            ]
        )
    rows.append(["paper (700-node, C++-grade)", "60k", "35M", "240s", "~150,000", "1x"])
    report(
        "perf_predictor",
        f"Schedule predictor throughput ({mode}, best of {ROUNDS} interleaved rounds)",
        ["workload", "jobs", "tasks", "time", "tasks/s", "vs paper"],
        rows,
        archive=mode != "smoke",
    )

    slowest = min(size["tasks_per_s"] for size in sizes)
    failures = []
    if slowest < FLOOR_TASKS_PER_S:
        failures.append(
            f"predictor {slowest:,.0f} tasks/s < {FLOOR_TASKS_PER_S:,.0f} floor"
        )
    for failure in failures:
        print(f"BENCH FAILURE: {failure}")
    if mode == "smoke":
        return 1 if failures else 0
    append_trajectory_run(
        RESULTS_JSON,
        {
            "mode": mode,
            "rounds": ROUNDS,
            "sizes": sizes,
            "min_tasks_per_s": slowest,
            "paper_ratio": slowest / PAPER_TASKS_PER_S,
            "floor_tasks_per_s": FLOOR_TASKS_PER_S,
            "failures": failures,
        },
    )
    return 1 if failures else 0


def main() -> int:
    """CLI entry: full measurement or the CI ``--smoke`` gate."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two small workload sizes + the floor (CI); prints only, "
        "archives nothing",
    )
    args = parser.parse_args()
    if args.smoke:
        return run((0.5, 1.0), mode="smoke")
    return run((0.5, 1.0, 2.0, 4.0), mode="full")


if __name__ == "__main__":
    sys.exit(main())
