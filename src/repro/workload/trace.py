"""Job traces: the observed task schedule of a workload execution.

The paper (Section 3.2) captures the resources allocated to a tenant in a
fine-grained manner as the start time, end time, and resource allocation
``d`` of each task run on the tenant's behalf.  A :class:`Trace` is exactly
that artifact, plus per-job records, and is what flows around Tempo's
control loop: Step (1) extracts the recent task schedule, Step (2) feeds
job traces to the Workload Generator.

Traces serialize to JSON-lines so they can be archived and replayed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.workload.model import (
    DEFAULT_POOL,
    JobSpec,
    StageSpec,
    TaskSpec,
    Workload,
)


@dataclass(frozen=True)
class TaskRecord:
    """One task attempt as observed in the schedule.

    ``duration`` is the service time the attempt consumed.  For preempted
    (killed) attempts the finish time marks the kill instant and the
    consumed work is wasted — the basis of the effective-utilization
    analysis in Figure 1.
    """

    job_id: str
    task_id: str
    tenant: str
    pool: str
    stage: str
    submit_time: float
    start_time: float
    finish_time: float
    containers: int = 1
    preempted: bool = False
    failed: bool = False
    attempt: int = 0

    def __post_init__(self) -> None:
        if not (self.submit_time <= self.start_time <= self.finish_time):
            raise ValueError(
                f"task {self.task_id} attempt {self.attempt}: require "
                f"submit <= start <= finish, got "
                f"({self.submit_time}, {self.start_time}, {self.finish_time})"
            )

    @property
    def service_time(self) -> float:
        """Container occupancy time of this attempt."""
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def work(self) -> float:
        """Container-seconds consumed by this attempt."""
        return self.service_time * self.containers

    @property
    def completed(self) -> bool:
        return not (self.preempted or self.failed)


@dataclass(frozen=True)
class JobRecord:
    """Completion record for one job."""

    job_id: str
    tenant: str
    submit_time: float
    finish_time: float
    deadline: float | None = None
    num_tasks: int = 0
    tags: tuple[str, ...] = ()
    stage_deps: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.finish_time < self.submit_time:
            raise ValueError(
                f"job {self.job_id}: finish {self.finish_time} before "
                f"submit {self.submit_time}"
            )

    @property
    def response_time(self) -> float:
        """Job latency: finish minus submission (paper eq. (1) summand)."""
        return self.finish_time - self.submit_time

    def missed_deadline(self, slack: float = 0.0) -> bool:
        """Deadline check with the paper's slack ``gamma`` (eq. (2)).

        A job violates only if it finishes later than
        ``deadline + slack * response_time``.
        """
        if self.deadline is None:
            return False
        return self.finish_time > self.deadline + slack * self.response_time


def task_record_to_dict(record: TaskRecord) -> dict:
    """JSON-ready dict for a task record (inverse of :func:`task_record_from_dict`).

    Built field-by-field rather than via ``dataclasses.asdict``: the
    record is flat, and ``asdict``'s recursive deepcopy costs ~20x on
    the journal's encode hot path (every task completion the durable
    daemon ingests passes through here).
    """
    return {
        "job_id": record.job_id,
        "task_id": record.task_id,
        "tenant": record.tenant,
        "pool": record.pool,
        "stage": record.stage,
        "submit_time": record.submit_time,
        "start_time": record.start_time,
        "finish_time": record.finish_time,
        "containers": record.containers,
        "preempted": record.preempted,
        "failed": record.failed,
        "attempt": record.attempt,
    }


def task_record_from_dict(row: Mapping) -> TaskRecord:
    """Rebuild a :class:`TaskRecord` from its dict form."""
    return TaskRecord(**dict(row))


def job_record_to_dict(record: JobRecord) -> dict:
    """JSON-ready dict for a job record (tuples become lists)."""
    return {
        "job_id": record.job_id,
        "tenant": record.tenant,
        "submit_time": record.submit_time,
        "finish_time": record.finish_time,
        "deadline": record.deadline,
        "num_tasks": record.num_tasks,
        "tags": list(record.tags),
        "stage_deps": [[s, list(d)] for s, d in record.stage_deps],
    }


def job_record_from_dict(row: Mapping) -> JobRecord:
    """Rebuild a :class:`JobRecord` from its dict form."""
    row = dict(row)
    row["tags"] = tuple(row.get("tags", ()))
    row["stage_deps"] = tuple((s, tuple(d)) for s, d in row.get("stage_deps", ()))
    return JobRecord(**row)


#: Trace order of task records.
_TASK_ORDER = attrgetter("start_time", "task_id", "attempt")


class Trace:
    """An observed task schedule: task attempts plus job completions.

    Attributes:
        capacity: Container pool capacities of the cluster that produced
            the trace (needed to normalize utilization QS metrics).
        horizon: Length of the observation interval ``L``.
    """

    def __init__(
        self,
        task_records: Iterable[TaskRecord],
        job_records: Iterable[JobRecord],
        *,
        capacity: Mapping[str, int] | None = None,
        horizon: float | None = None,
    ):
        self._tasks: list[TaskRecord] = sorted(task_records, key=_TASK_ORDER)
        self._jobs: list[JobRecord] = sorted(
            job_records, key=lambda r: (r.submit_time, r.job_id)
        )
        self.capacity: dict[str, int] = dict(capacity or {})
        if horizon is None:
            horizon = max(
                (r.finish_time for r in self._tasks),
                default=max((j.finish_time for j in self._jobs), default=0.0),
            )
        self.horizon = float(horizon)

    # -- container protocol -------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Trace(tasks={len(self._tasks)}, jobs={len(self._jobs)}, "
            f"horizon={self.horizon:.0f}s)"
        )

    @property
    def task_records(self) -> Sequence[TaskRecord]:
        return tuple(self._tasks)

    @property
    def job_records(self) -> Sequence[JobRecord]:
        return tuple(self._jobs)

    def __len__(self) -> int:
        return len(self._tasks)

    # -- queries ------------------------------------------------------------

    def tenants(self) -> set[str]:
        """Tenants appearing in the trace."""
        return {j.tenant for j in self._jobs} | {t.tenant for t in self._tasks}

    def pools(self) -> set[str]:
        """Container pools appearing in the trace."""
        return {t.pool for t in self._tasks} or {DEFAULT_POOL}

    def jobs_of(self, tenant: str) -> list[JobRecord]:
        """Job records of ``tenant`` in submit order."""
        return [j for j in self._jobs if j.tenant == tenant]

    def tasks_of(self, tenant: str, pool: str | None = None) -> list[TaskRecord]:
        """Task attempts of ``tenant``, optionally restricted to a pool."""
        return [
            t
            for t in self._tasks
            if t.tenant == tenant and (pool is None or t.pool == pool)
        ]

    def job(self, job_id: str) -> JobRecord:
        """Look up one job record (KeyError if absent)."""
        for j in self._jobs:
            if j.job_id == job_id:
                return j
        raise KeyError(f"no job {job_id!r} in trace")

    def completed_jobs(self, tenant: str, interval: tuple[float, float] | None = None) -> list[JobRecord]:
        """Jobs of ``tenant`` submitted *and* completed within ``interval``.

        This is the job set ``J_i`` over which the QS metrics of
        Section 5.1 are defined.
        """
        lo, hi = interval if interval is not None else (0.0, self.horizon)
        return [
            j
            for j in self._jobs
            if j.tenant == tenant and j.submit_time >= lo and j.finish_time <= hi
        ]

    # -- aggregate measures ---------------------------------------------------

    def container_seconds(
        self,
        tenant: str | None = None,
        pool: str | None = None,
        *,
        include_preempted: bool = True,
    ) -> float:
        """Total container-seconds consumed, optionally excluding killed work.

        ``include_preempted=False`` yields the *effective* usage of
        Figure 1 (region I excluded).
        """
        total = 0.0
        for t in self._tasks:
            if tenant is not None and t.tenant != tenant:
                continue
            if pool is not None and t.pool != pool:
                continue
            if not include_preempted and t.preempted:
                continue
            total += t.work
        return total

    def utilization(
        self,
        tenant: str | None = None,
        pool: str | None = None,
        *,
        include_preempted: bool = True,
    ) -> float:
        """Normalized utilization in [0, 1]: share of pool capacity used.

        Corresponds to the shaded area of Figure 4 divided by the interval
        length and capacity.
        """
        if not self.capacity:
            raise ValueError("trace has no capacity information")
        if self.horizon <= 0:
            return 0.0
        pools = [pool] if pool is not None else sorted(self.capacity)
        cap = sum(self.capacity[p] for p in pools)
        if cap <= 0:
            return 0.0
        used = sum(
            self.container_seconds(tenant, p, include_preempted=include_preempted)
            for p in pools
        )
        return used / (cap * self.horizon)

    def preemption_fraction(self, tenant: str | None = None, pool: str | None = None) -> float:
        """Fraction of task attempts that were preempted (Figure 7)."""
        attempts = [
            t
            for t in self._tasks
            if (tenant is None or t.tenant == tenant)
            and (pool is None or t.pool == pool)
        ]
        if not attempts:
            return 0.0
        return sum(1 for t in attempts if t.preempted) / len(attempts)

    def response_times(self, tenant: str) -> list[float]:
        """Response times of the tenant's completed jobs."""
        return [j.response_time for j in self.jobs_of(tenant)]

    def wait_times(self, tenant: str) -> list[float]:
        """Per-task first-attempt wait times (Figure 5, bottom-right)."""
        first_attempts = [t for t in self.tasks_of(tenant) if t.attempt == 0]
        return [t.wait_time for t in first_attempts]

    # -- slicing --------------------------------------------------------------

    def window(self, start: float, end: float) -> "Trace":
        """Records for jobs submitted in ``[start, end)``, re-anchored to 0.

        Feeds the sliding-window control loop (Section 8.2.3).
        """
        if end < start:
            raise ValueError(f"window end {end} before start {start}")
        keep = {
            j.job_id for j in self._jobs if start <= j.submit_time < end
        }
        tasks = [
            shift_task(t, -start) for t in self._tasks if t.job_id in keep
        ]
        jobs = [shift_job(j, -start) for j in self._jobs if j.job_id in keep]
        return Trace(tasks, jobs, capacity=self.capacity, horizon=end - start)

    # -- replay ---------------------------------------------------------------

    def to_workload(self) -> Workload:
        """Reconstruct a replayable workload from the observed trace.

        Task durations are taken from completed attempts (killed attempts
        do not define a service time for the task; the completed retry
        does).  This is the "replaying historical traces" mode of the
        Workload Generator (Section 7.1).
        """
        tasks_by_job: dict[str, dict[str, TaskRecord]] = defaultdict(dict)
        for t in self._tasks:
            if not t.completed:
                continue
            prev = tasks_by_job[t.job_id].get(t.task_id)
            if prev is None or t.attempt > prev.attempt:
                tasks_by_job[t.job_id][t.task_id] = t

        jobs: list[JobSpec] = []
        for jrec in self._jobs:
            by_stage: dict[str, list[TaskRecord]] = defaultdict(list)
            for t in tasks_by_job.get(jrec.job_id, {}).values():
                by_stage[t.stage].append(t)
            deps = dict(jrec.stage_deps)
            # Deps are filtered to stages actually present: a windowed
            # trace may retain a stage whose upstream slid out of the
            # observation interval (same rule the generator applies when
            # an optional stage samples empty).
            stages = tuple(
                StageSpec(
                    name=stage,
                    tasks=tuple(
                        TaskSpec(
                            task_id=t.task_id,
                            duration=t.service_time,
                            pool=t.pool,
                            containers=t.containers,
                        )
                        for t in sorted(recs, key=lambda r: r.task_id)
                    ),
                    deps=tuple(d for d in deps.get(stage, ()) if d in by_stage),
                )
                for stage, recs in sorted(by_stage.items())
            )
            if not stages:
                continue
            jobs.append(
                JobSpec(
                    job_id=jrec.job_id,
                    tenant=jrec.tenant,
                    submit_time=jrec.submit_time,
                    stages=stages,
                    deadline=jrec.deadline,
                    tags=jrec.tags,
                )
            )
        return Workload(jobs, horizon=self.horizon)

    # -- serialization ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize to JSON-lines: one header, then job and task rows."""
        lines = [
            json.dumps(
                {
                    "kind": "header",
                    "capacity": self.capacity,
                    "horizon": self.horizon,
                }
            )
        ]
        for j in self._jobs:
            row = job_record_to_dict(j)
            row["kind"] = "job"
            lines.append(json.dumps(row))
        for t in self._tasks:
            row = task_record_to_dict(t)
            row["kind"] = "task"
            lines.append(json.dumps(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        capacity: dict[str, int] = {}
        horizon: float | None = None
        tasks: list[TaskRecord] = []
        jobs: list[JobRecord] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            kind = row.pop("kind")
            if kind == "header":
                capacity = {str(k): int(v) for k, v in row["capacity"].items()}
                horizon = float(row["horizon"])
            elif kind == "job":
                jobs.append(job_record_from_dict(row))
            elif kind == "task":
                tasks.append(task_record_from_dict(row))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        return cls(tasks, jobs, capacity=capacity, horizon=horizon)

    @classmethod
    def merge(cls, traces: Sequence["Trace"]) -> "Trace":
        """Concatenate traces observed over the same interval."""
        if not traces:
            return cls([], [])
        capacity = dict(traces[0].capacity)
        tasks: list[TaskRecord] = []
        jobs: list[JobRecord] = []
        for tr in traces:
            tasks.extend(tr.task_records)
            jobs.extend(tr.job_records)
        horizon = max(tr.horizon for tr in traces)
        return cls(tasks, jobs, capacity=capacity, horizon=horizon)


def shift_task(t: TaskRecord, delta: float) -> TaskRecord:
    """Copy of a task record with every timestamp shifted by ``delta``."""
    return replace(
        t,
        submit_time=t.submit_time + delta,
        start_time=t.start_time + delta,
        finish_time=t.finish_time + delta,
    )


def shift_job(j: JobRecord, delta: float) -> JobRecord:
    """Copy of a job record with every timestamp shifted by ``delta``."""
    return replace(
        j,
        submit_time=j.submit_time + delta,
        finish_time=j.finish_time + delta,
        deadline=None if j.deadline is None else j.deadline + delta,
    )
