"""Core workload data model: tasks, stages, jobs, tenants, workloads.

The paper models parallel-database work as DAGs of jobs, each job a set of
parallel tasks run in containers (Section 3.2).  We represent a job as a
small DAG of *stages*; each stage holds parallel tasks that all demand
containers from one named pool.  A classic MapReduce job is the two-stage
special case (``map`` -> ``reduce``); SQL/Spark query plans map onto deeper
stage DAGs.

All times are simulated seconds from the experiment epoch (t=0); no
wall-clock time is used anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

#: Default container pool for single-pool clusters.
DEFAULT_POOL = "slots"

#: Conventional pool names for MapReduce-style two-pool clusters.
MAP_POOL = "map"
REDUCE_POOL = "reduce"


@dataclass(frozen=True)
class TaskSpec:
    """One parallel task: a unit of work that occupies containers.

    Attributes:
        task_id: Identifier unique within the job.
        duration: Service time in seconds while running uninterrupted.
        pool: Name of the container pool the task draws from.
        containers: Resource demand ``d`` — number of containers occupied
            while the task runs (Section 3.2 uses an integer container
            count as the uni-dimensional resource vector).
    """

    task_id: str
    duration: float
    pool: str = DEFAULT_POOL
    containers: int = 1

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.task_id}: negative duration {self.duration}")
        if self.containers < 1:
            raise ValueError(
                f"task {self.task_id}: containers must be >= 1, got {self.containers}"
            )


@dataclass(frozen=True)
class StageSpec:
    """A set of parallel tasks with identical dependencies.

    Attributes:
        name: Stage name, unique within the job (e.g. ``"map"``).
        tasks: The parallel tasks of this stage.
        deps: Names of upstream stages this stage depends on.
        ready_fraction: Fraction of each upstream stage's tasks that must
            have completed before this stage becomes runnable.  1.0 is a
            strict barrier; MapReduce "slowstart" uses values below 1.0 so
            that reduce tasks can be launched while maps still run.
    """

    name: str
    tasks: tuple[TaskSpec, ...]
    deps: tuple[str, ...] = ()
    ready_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ready_fraction <= 1.0:
            raise ValueError(
                f"stage {self.name}: ready_fraction must be in (0, 1], "
                f"got {self.ready_fraction}"
            )
        if self.name in self.deps:
            raise ValueError(f"stage {self.name} depends on itself")

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_work(self) -> float:
        """Total container-seconds demanded by the stage."""
        return sum(t.duration * t.containers for t in self.tasks)


@dataclass(frozen=True)
class JobSpec:
    """A job: a DAG of stages submitted by a tenant at a point in time.

    Attributes:
        job_id: Globally unique job identifier.
        tenant: Name of the tenant (queue) that owns the job.
        submit_time: Simulated submission instant.
        stages: Stages keyed by dependency structure; must form a DAG.
        deadline: Absolute completion deadline, or ``None`` for
            best-effort jobs.  Recurring ETL/MV jobs carry deadlines
            (Section 2.1); ad-hoc BI/DEV/STR jobs usually do not.
        tags: Free-form labels (e.g. ``("recurring", "etl-hourly")``).
    """

    job_id: str
    tenant: str
    submit_time: float
    stages: tuple[StageSpec, ...]
    deadline: float | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: negative submit_time")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"job {self.job_id}: duplicate stage names {names}")
        known = set(names)
        for stage in self.stages:
            missing = set(stage.deps) - known
            if missing:
                raise ValueError(
                    f"job {self.job_id}: stage {stage.name} depends on "
                    f"unknown stages {sorted(missing)}"
                )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject cyclic stage graphs with a topological sweep."""
        deps = {s.name: set(s.deps) for s in self.stages}
        resolved: set[str] = set()
        pending = dict(deps)
        while pending:
            ready = [name for name, d in pending.items() if d <= resolved]
            if not ready:
                raise ValueError(
                    f"job {self.job_id}: stage dependency cycle among "
                    f"{sorted(pending)}"
                )
            for name in ready:
                resolved.add(name)
                del pending[name]

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self.stages)

    @property
    def total_work(self) -> float:
        """Total container-seconds across all stages."""
        return sum(s.total_work for s in self.stages)

    @property
    def pools(self) -> set[str]:
        """Container pools this job draws from."""
        return {t.pool for s in self.stages for t in s.tasks}

    def stage(self, name: str) -> StageSpec:
        """Look up a stage by name (KeyError if absent)."""
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"job {self.job_id} has no stage {name!r}")

    def tasks(self) -> Iterator[tuple[StageSpec, TaskSpec]]:
        """Iterate ``(stage, task)`` pairs in stage order."""
        for s in self.stages:
            for t in s.tasks:
                yield s, t

    def critical_path(self) -> float:
        """Barrier-semantics critical path: longest duration chain.

        Assumes unlimited containers and *strict* stage barriers, so each
        stage's span is the max task duration in the stage.  It is a
        lower bound on any schedule's makespan when every stage has
        ``ready_fraction == 1.0``; slowstart (< 1.0) can legitimately
        finish a job faster by overlapping stages.  Deadline generation
        uses it as a size proxy either way.
        """
        finish: dict[str, float] = {}
        for s in self._topological_stages():
            start = max((finish[d] for d in s.deps), default=0.0)
            span = max((t.duration for t in s.tasks), default=0.0)
            finish[s.name] = start + span
        return max(finish.values(), default=0.0)

    def _topological_stages(self) -> list[StageSpec]:
        order: list[StageSpec] = []
        resolved: set[str] = set()
        pending = list(self.stages)
        while pending:
            progressed = False
            for s in list(pending):
                if set(s.deps) <= resolved:
                    order.append(s)
                    resolved.add(s.name)
                    pending.remove(s)
                    progressed = True
            if not progressed:  # pragma: no cover - guarded by __post_init__
                raise ValueError("cycle")
        return order

    def with_submit_time(self, t: float) -> "JobSpec":
        """Copy of this job submitted at ``t`` (deadline shifted along)."""
        delta = t - self.submit_time
        deadline = None if self.deadline is None else self.deadline + delta
        return replace(self, submit_time=t, deadline=deadline)


@dataclass(frozen=True)
class Tenant:
    """A tenant: one queue in the RM, owning a workload and SLOs.

    Attributes:
        name: Queue name (unique).
        description: Human description, e.g. Table 1's characteristics.
        deadline_driven: Whether this tenant's jobs carry deadlines.
    """

    name: str
    description: str = ""
    deadline_driven: bool = False


class Workload:
    """An ordered collection of jobs over a time horizon.

    The workload is the ``w`` in the paper's QS functions ``f(x; w)``.
    Jobs are kept sorted by submission time.
    """

    def __init__(self, jobs: Iterable[JobSpec], horizon: float | None = None):
        self._jobs: list[JobSpec] = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        ids = [j.job_id for j in self._jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate job ids in workload: {dupes[:5]}")
        if horizon is None:
            horizon = max((j.submit_time for j in self._jobs), default=0.0)
        self.horizon = float(horizon)
        self._floor: dict[str, int] | None = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> JobSpec:
        return self._jobs[index]

    def __repr__(self) -> str:
        return (
            f"Workload(jobs={len(self._jobs)}, tenants={sorted(self.tenants())}, "
            f"horizon={self.horizon:.0f}s)"
        )

    # -- queries ------------------------------------------------------------

    @property
    def jobs(self) -> Sequence[JobSpec]:
        return tuple(self._jobs)

    def tenants(self) -> set[str]:
        """Names of tenants with at least one job."""
        return {j.tenant for j in self._jobs}

    def pools(self) -> set[str]:
        """Container pools the workload draws from."""
        pools: set[str] = set()
        for j in self._jobs:
            pools |= j.pools
        return pools or {DEFAULT_POOL}

    @property
    def num_tasks(self) -> int:
        return sum(j.num_tasks for j in self._jobs)

    def capacity_floor(self) -> dict[str, int]:
        """:func:`capacity_floor` of every task, computed once per workload.

        The returned dict is shared between calls: do not mutate it.
        """
        if self._floor is None:
            self._floor = capacity_floor(t for j in self._jobs for _, t in j.tasks())
        return self._floor

    @property
    def total_work(self) -> float:
        return sum(j.total_work for j in self._jobs)

    def jobs_of(self, tenant: str) -> list[JobSpec]:
        """All jobs belonging to ``tenant`` in submit order."""
        return [j for j in self._jobs if j.tenant == tenant]

    def window(self, start: float, end: float) -> "Workload":
        """Jobs submitted in ``[start, end)``, re-anchored so start -> 0.

        The Tempo control loop feeds a sliding window of the most recent
        traces into each iteration (Section 8.2.3); this is the workload
        analogue of that slicing.
        """
        if end < start:
            raise ValueError(f"window end {end} before start {start}")
        selected = [
            j.with_submit_time(j.submit_time - start)
            for j in self._jobs
            if start <= j.submit_time < end
        ]
        return Workload(selected, horizon=end - start)

    def filter(self, predicate: Callable[[JobSpec], bool]) -> "Workload":
        """Jobs satisfying ``predicate`` (horizon preserved)."""
        return Workload([j for j in self._jobs if predicate(j)], horizon=self.horizon)

    def merged_with(self, other: "Workload") -> "Workload":
        """Union of two workloads (job ids must not collide)."""
        horizon = max(self.horizon, other.horizon)
        return Workload(list(self._jobs) + list(other.jobs), horizon=horizon)


def capacity_floor(tasks: Iterable) -> dict[str, int]:
    """Per-pool minimum capacity for every task to remain placeable.

    ``tasks`` is any iterable of task-shaped objects exposing ``pool``
    and ``containers`` (:class:`~repro.workload.trace.TaskRecord` or
    :class:`TaskSpec`).  The serving daemon clamps node-loss capacity
    shrinkage to this floor before building the what-if cluster:
    shrinking a pool below its largest single-task demand would make
    the window trace unreplayable.  The simulators check a workload
    against it before they run.
    """
    floor: dict[str, int] = {}
    for task in tasks:
        need = int(task.containers)
        if need > floor.get(task.pool, 0):
            floor[task.pool] = need
    return floor


# -- convenience constructors ----------------------------------------------

_job_counter = itertools.count()


def _auto_id(prefix: str) -> str:
    return f"{prefix}-{next(_job_counter):06d}"


def single_stage_job(
    tenant: str,
    submit_time: float,
    durations: Sequence[float],
    *,
    pool: str = DEFAULT_POOL,
    deadline: float | None = None,
    job_id: str | None = None,
    tags: tuple[str, ...] = (),
) -> JobSpec:
    """Build a one-stage job with the given task durations."""
    job_id = job_id or _auto_id(f"{tenant}-job")
    tasks = tuple(
        TaskSpec(task_id=f"{job_id}/t{i}", duration=float(d), pool=pool)
        for i, d in enumerate(durations)
    )
    stage = StageSpec(name="stage0", tasks=tasks)
    return JobSpec(
        job_id=job_id,
        tenant=tenant,
        submit_time=submit_time,
        stages=(stage,),
        deadline=deadline,
        tags=tags,
    )


def mapreduce_job(
    tenant: str,
    submit_time: float,
    map_durations: Sequence[float],
    reduce_durations: Sequence[float],
    *,
    slowstart: float = 1.0,
    deadline: float | None = None,
    job_id: str | None = None,
    tags: tuple[str, ...] = (),
) -> JobSpec:
    """Build a classic two-stage MapReduce job.

    Maps draw from the ``map`` pool and reduces from the ``reduce`` pool,
    mirroring Hadoop-1 slot scheduling which the paper's map/reduce
    preemption statistics (Figures 7-9) imply.
    """
    job_id = job_id or _auto_id(f"{tenant}-mr")
    maps = tuple(
        TaskSpec(task_id=f"{job_id}/m{i}", duration=float(d), pool=MAP_POOL)
        for i, d in enumerate(map_durations)
    )
    stages = [StageSpec(name="map", tasks=maps)]
    if len(reduce_durations) > 0:
        reduces = tuple(
            TaskSpec(task_id=f"{job_id}/r{i}", duration=float(d), pool=REDUCE_POOL)
            for i, d in enumerate(reduce_durations)
        )
        stages.append(
            StageSpec(
                name="reduce",
                tasks=reduces,
                deps=("map",),
                ready_fraction=slowstart,
            )
        )
    return JobSpec(
        job_id=job_id,
        tenant=tenant,
        submit_time=submit_time,
        stages=tuple(stages),
        deadline=deadline,
        tags=tags,
    )
