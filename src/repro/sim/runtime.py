"""Runtime bookkeeping of the simulators.

:class:`JobRun` tracks per-job stage progress (including MapReduce
slowstart via ``ready_fraction``) for both engines.  The per-pool
pending/running queues (:class:`PoolState` and its task records) are the
heartbeat simulator's; the time-warp predictor keeps the same queues in
flat per-run state of its own.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

from repro.workload.model import JobSpec, StageSpec, TaskSpec, Workload


class JobRun:
    """Runtime state of one job: stage progress and task accounting."""

    __slots__ = (
        "spec",
        "stage_total",
        "stage_completed",
        "released",
        "tasks_left",
    )

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.stage_total = {s.name: len(s.tasks) for s in spec.stages}
        self.stage_completed = {s.name: 0 for s in spec.stages}
        self.released: set[str] = set()
        self.tasks_left = spec.num_tasks

    def _stage_ready(self, stage: StageSpec) -> bool:
        """All dependencies have met the stage's slowstart threshold."""
        for dep in stage.deps:
            need = math.ceil(stage.ready_fraction * self.stage_total[dep])
            if self.stage_completed[dep] < need:
                return False
        return True

    def release_ready_stages(self) -> list[StageSpec]:
        """Stages that just became runnable and were not yet released."""
        ready: list[StageSpec] = []
        for stage in self.spec.stages:
            if stage.name in self.released:
                continue
            if self._stage_ready(stage):
                self.released.add(stage.name)
                ready.append(stage)
        return ready

    def complete_task(self, stage_name: str) -> list[StageSpec]:
        """Mark one task of ``stage_name`` complete; return newly ready stages."""
        self.stage_completed[stage_name] += 1
        self.tasks_left -= 1
        return self.release_ready_stages()

    @property
    def done(self) -> bool:
        return self.tasks_left == 0


class PendingTask:
    """A runnable task attempt waiting for containers.

    ``ready_time`` is when the task's stage was released; a restarted
    attempt keeps it, so every attempt's record reports the same
    submission instant.
    """

    __slots__ = ("job", "task", "stage", "ready_time", "attempt")

    def __init__(
        self,
        job: JobRun,
        task: TaskSpec,
        stage: str,
        ready_time: float,
        attempt: int = 0,
    ):
        self.job = job
        self.task = task
        self.stage = stage
        self.ready_time = ready_time
        self.attempt = attempt


class RunningTask:
    """A task attempt occupying containers.

    ``remaining`` is the work left in seconds.  The ``tenant``/
    ``start_time``/``containers`` attribute names satisfy the
    victim-selection protocol in :mod:`repro.rm.preemption`.
    """

    __slots__ = (
        "job",
        "task",
        "stage",
        "tenant",
        "ready_time",
        "start_time",
        "attempt",
        "remaining",
        "speed",
    )

    def __init__(
        self,
        job: JobRun,
        task: TaskSpec,
        stage: str,
        ready_time: float,
        start_time: float,
        attempt: int,
    ):
        self.job = job
        self.task = task
        self.stage = stage
        self.tenant = job.spec.tenant
        self.ready_time = ready_time
        self.start_time = start_time
        self.attempt = attempt
        self.remaining = task.duration
        self.speed = 1.0

    @property
    def containers(self) -> int:
        return self.task.containers


class PoolState:
    """Pending/running queues for one container pool.

    Container counts per tenant are maintained incrementally so that the
    per-event scheduling pass is O(tenants), not O(queued tasks).  All
    queue mutations must go through the methods below.
    """

    __slots__ = (
        "pool",
        "capacity",
        "pending",
        "running",
        "_pending_containers",
        "_running_containers",
        "_total_running",
    )

    def __init__(self, pool: str, capacity: int):
        self.pool = pool
        self.capacity = capacity
        self.pending: dict[str, deque[PendingTask]] = {}
        self.running: dict[str, list[RunningTask]] = {}
        self._pending_containers: dict[str, int] = {}
        self._running_containers: dict[str, int] = {}
        self._total_running = 0

    def add_pending(self, item: PendingTask, *, front: bool = False) -> None:
        """Queue a runnable task (restarts go to the queue head)."""
        tenant = item.job.spec.tenant
        queue = self.pending.setdefault(tenant, deque())
        if front:
            queue.appendleft(item)
        else:
            queue.append(item)
        self._pending_containers[tenant] = (
            self._pending_containers.get(tenant, 0) + item.task.containers
        )

    def peek_pending(self, tenant: str) -> PendingTask | None:
        """Head of the tenant's queue without removing it."""
        queue = self.pending.get(tenant)
        return queue[0] if queue else None

    def pop_pending(self, tenant: str) -> PendingTask:
        """Remove and return the tenant's queue head."""
        item = self.pending[tenant].popleft()
        self._pending_containers[tenant] -= item.task.containers
        return item

    def purge_pending(self, job_id: str) -> int:
        """Drop all pending tasks of one job; returns how many."""
        dropped = 0
        for tenant, queue in self.pending.items():
            kept = [p for p in queue if p.job.spec.job_id != job_id]
            removed = [p for p in queue if p.job.spec.job_id == job_id]
            if removed:
                queue.clear()
                queue.extend(kept)
                self._pending_containers[tenant] -= sum(
                    p.task.containers for p in removed
                )
                dropped += len(removed)
        return dropped

    def tenants(self) -> set[str]:
        """Tenants with any pending or running work in this pool."""
        active = {t for t, q in self.pending.items() if q}
        active |= {t for t, r in self.running.items() if r}
        return active

    def runnable_containers(self, tenant: str) -> int:
        """Containers demanded by the tenant's pending tasks (O(1))."""
        return self._pending_containers.get(tenant, 0)

    def running_containers(self, tenant: str) -> int:
        """Containers the tenant currently occupies (O(1))."""
        return self._running_containers.get(tenant, 0)

    def total_running_containers(self) -> int:
        """Total occupied containers across tenants (O(1))."""
        return self._total_running

    def oldest_pending_submit(self, tenant: str) -> float:
        """Submit time of the queue-head job.

        Queues are FIFO in readiness order (restarted tasks re-enter at
        the front with their original, older job), so the head is the
        oldest job for FIFO-ordering purposes.
        """
        head = self.peek_pending(tenant)
        return head.job.spec.submit_time if head is not None else math.inf

    def all_running(self) -> list[RunningTask]:
        """Every running task in the pool (victim-selection input)."""
        tasks: list[RunningTask] = []
        for runs in self.running.values():
            tasks.extend(runs)
        return tasks

    def start(self, item: PendingTask, now: float) -> RunningTask:
        """Launch a pending task; returns its running record."""
        run = RunningTask(
            item.job, item.task, item.stage, item.ready_time, now, item.attempt
        )
        self.running.setdefault(run.tenant, []).append(run)
        self._running_containers[run.tenant] = (
            self._running_containers.get(run.tenant, 0) + run.containers
        )
        self._total_running += run.containers
        return run

    def remove_running(self, run: RunningTask) -> None:
        """Take a task out of the running set (completion or kill)."""
        runs = self.running.get(run.tenant, [])
        try:
            runs.remove(run)
        except ValueError:  # pragma: no cover - internal invariant
            raise RuntimeError(
                f"task {run.task.task_id} not in running set of {run.tenant}"
            ) from None
        self._running_containers[run.tenant] -= run.containers
        self._total_running -= run.containers


def validate_workload_fits(
    workload: Workload | Iterable[TaskSpec], capacity: dict[str, int]
) -> None:
    """Reject tasks that can never be placed (demand exceeds pool size).

    A :class:`~repro.workload.model.Workload` is checked against its
    memoized per-pool container floor; its tasks are walked only to
    name the first offender.
    """
    if isinstance(workload, Workload):
        floor = workload.capacity_floor()
        if all(capacity.get(pool, 0) >= need for pool, need in floor.items()):
            return
        workload = (t for job in workload for _, t in job.tasks())
    for task in workload:
        cap = capacity.get(task.pool)
        if cap is None:
            raise ValueError(
                f"task {task.task_id} demands pool {task.pool!r} which the "
                f"cluster does not have (pools: {sorted(capacity)})"
            )
        if task.containers > cap:
            raise ValueError(
                f"task {task.task_id} demands {task.containers} containers "
                f"but pool {task.pool!r} only has {cap}"
            )
