"""Golden schedule corpus for the Schedule Predictor.

``corpus()`` enumerates seeded prediction cases — workload windows x RM
configuration variants x scheduling policies — and ``digest()`` hashes a
predicted schedule.  ``tests/data/predictor_golden.json`` holds the
digests recorded from the implementation this corpus was first run
against; ``tests/test_predictor.py`` asserts the current predictor
reproduces every one exactly.  It is the oracle that lets a predictor
rewrite replace the old code instead of living beside it.

Re-record (only when a schedule change is intended and understood)::

    PYTHONPATH=src python tests/predictor_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Iterator

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig, TenantConfig
from repro.rm.policies import CapacityPolicy, FairSharePolicy, FifoPolicy
from repro.service.replay import make_scenario
from repro.sim.predictor import SchedulePredictor
from repro.workload.model import JobSpec, StageSpec, TaskSpec, Workload
from repro.workload.synthetic import (
    company_abc_cluster,
    company_abc_model,
    expert_config,
    two_tenant_cluster,
    two_tenant_expert_config,
    two_tenant_model,
)

GOLDEN = Path(__file__).parent / "data" / "predictor_golden.json"

#: Variants whose finite timeouts must actually fire kill volleys under
#: the fair policy (checked when recording).
KILLING = ("preempt", "oversubscribed")


def digest(schedule) -> str:
    """Content hash of everything a prediction returns."""
    content = repr((schedule.task_records, schedule.job_records, schedule.horizon))
    return hashlib.blake2b(content.encode(), digest_size=16).hexdigest()


def _mixed_workload() -> tuple[ClusterSpec, Workload]:
    """Hand-seeded DAG jobs the scenario models never produce.

    Three pools, four tenants, multi-container tasks, three-stage
    chains with slowstart, an empty job and simultaneous submissions.
    """
    rng = random.Random(11)
    cluster = ClusterSpec({"cpu": 9, "io": 5, "gpu": 3}, name="mixed")
    jobs = [JobSpec("empty", "t0", 40.0, (StageSpec("s", ()),))]
    for n in range(60):
        def tasks(pool: str, count: int, widest: int) -> tuple[TaskSpec, ...]:
            return tuple(
                TaskSpec(
                    f"job{n:02d}/{pool}{i}",
                    round(rng.uniform(2.0, 90.0), 1),
                    pool,
                    rng.randint(1, widest),
                )
                for i in range(count)
            )

        stages = [StageSpec("a", tasks("cpu", rng.randint(1, 12), 3))]
        if rng.random() < 0.7:
            fraction = rng.choice((0.5, 0.8, 1.0))
            stages.append(StageSpec("b", tasks("io", rng.randint(1, 6), 2), ("a",), fraction))
            if rng.random() < 0.5:
                stages.append(StageSpec("c", tasks("gpu", rng.randint(1, 3), 1), ("a", "b")))
        submit = float(rng.choice((0, 0, 30, 60)) + 20 * n)
        jobs.append(JobSpec(f"job{n:02d}", f"t{rng.randrange(4)}", submit, tuple(stages)))
    return cluster, Workload(jobs, horizon=1500.0)


def _variants(cluster: ClusterSpec, tenants: list[str], expert: RMConfig):
    """The five (cluster, config) variants of one workload."""

    def per_pool(fraction: float) -> dict[str, int]:
        return {pool: max(1, int(cap * fraction)) for pool, cap in cluster.items()}

    yield "expert", cluster, expert
    yield "preempt", cluster, RMConfig(
        {
            t: TenantConfig(
                weight=1.0 + i,
                min_share=per_pool(0.2),
                min_share_preemption_timeout=10.0 + 5.0 * i,
                fair_share_preemption_timeout=25.0 + 10.0 * i,
            )
            for i, t in enumerate(tenants)
        }
    )
    yield "tight-max", cluster, RMConfig(
        {
            t: TenantConfig(weight=1.0 + 0.5 * i, max_share=per_pool(0.25))
            for i, t in enumerate(tenants)
        }
    )
    yield "oversubscribed", cluster, RMConfig(
        {
            t: TenantConfig(
                weight=1.0,
                min_share=per_pool(0.8),
                min_share_preemption_timeout=30.0,
            )
            for t in tenants
        }
    )
    losses = {pool: cap // 3 for pool, cap in cluster.items()}
    yield "shrunk", cluster.shrunk(losses), expert


def corpus() -> Iterator[tuple[str, ClusterSpec, object, Workload, RMConfig]]:
    """Every ``(name, cluster, policy, workload, config)`` case."""
    windows = [
        (
            "two-tenant",
            two_tenant_cluster(),
            two_tenant_model(3.0).generate(3, 1200.0),
            two_tenant_expert_config(),
        ),
        (
            "abc",
            company_abc_cluster(),
            company_abc_model(5.0).generate(5, 600.0),
            expert_config(),
        ),
    ]
    for seed, name in enumerate(("steady", "flash-crowd", "failure-storm"), start=7):
        scenario = make_scenario(name, scale=3.0, horizon=1800.0)
        windows.append(
            (
                name,
                scenario.cluster,
                scenario.model.generate(seed, scenario.horizon),
                scenario.initial_config,
            )
        )
    mixed_cluster, mixed = _mixed_workload()
    windows.append(
        (
            "mixed",
            mixed_cluster,
            mixed,
            RMConfig({"t0": TenantConfig(weight=2.0), "t1": TenantConfig()}),
        )
    )
    for window, cluster, workload, expert in windows:
        tenants = sorted(workload.tenants())
        policies = {
            "fair": FairSharePolicy(),
            "fifo": FifoPolicy(),
            "capacity": CapacityPolicy({t: 1.0 + i for i, t in enumerate(tenants)}),
        }
        for variant, variant_cluster, config in _variants(cluster, tenants, expert):
            for policy_name, policy in policies.items():
                yield (
                    f"{window}/{variant}/{policy_name}",
                    variant_cluster,
                    policy,
                    workload,
                    config,
                )


def record() -> dict[str, str]:
    """Predict every case; returns ``{name: digest}``."""
    digests = {}
    for name, cluster, policy, workload, config in corpus():
        schedule = SchedulePredictor(cluster, policy).predict(workload, config)
        digests[name] = digest(schedule)
        kills = sum(r.preempted for r in schedule.task_records)
        print(f"{name:40s} tasks={workload.num_tasks:5d} kills={kills:4d}")
        window, variant, policy_name = name.split("/")
        if variant in KILLING and policy_name == "fair" and not kills:
            raise SystemExit(f"{name}: the preemption variant fired no kill")
    return digests


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
