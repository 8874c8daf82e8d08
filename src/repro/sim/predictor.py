"""The time-warp Schedule Predictor (Section 7.2).

Tempo needs to evaluate many candidate RM configurations per control
loop, so schedule prediction must be very fast.  Following the paper,
the predictor "computes the cluster resource usage at only the
submission time, tentative finish time, and possible preemption time of
each task" — a discrete-event (time-warp) simulation that never runs
tasks or synchronizes an RM.  It is deterministic: a fixed workload,
cluster, policy, and configuration always yield the identical schedule.

The per-instant semantics are those of a YARN/Mesos-style fair
scheduler (Section 3.2):

* target allocations per pool come from the pluggable
  :class:`~repro.rm.policies.SchedulingPolicy` (weighted max-min fair
  with min/max limits by default);
* tenants below their entitlement start a starvation clock; after the
  configured two-level timeout, the most recently launched tasks of
  over-share tenants are killed (losing their work) and the freed
  containers are handed to the starving tenant;
* killed tasks restart from scratch, re-entering the queue head.

The event loop is incremental: an instant reschedules only the pools
an event touched or whose preemption deadline is due, per-tenant
settings are resolved from the configuration once per run, and target
allocations are cached per pool and demand vector.  Each finished or
killed attempt is emitted as a plain row; the returned
:class:`~repro.sim.schedule.TaskSchedule` builds ``TaskRecord``s only
when something reads task-level data.  Each shortcut is exact — see
:class:`_PredictorRun`.
"""

from __future__ import annotations

import math
from collections import deque

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig
from repro.rm.policies import (
    DemandKernel,
    FairSharePolicy,
    SchedulingPolicy,
    TenantDemand,
)
from repro.rm.preemption import StarvationClock, select_victims
from repro.sim.events import EventQueue
from repro.sim.runtime import JobRun, validate_workload_fits
from repro.sim.schedule import TaskSchedule
from repro.workload.model import JobSpec, StageSpec, TaskSpec, Workload
from repro.workload.trace import JobRecord

#: Event kinds used by the predictor.
_ARRIVAL, _FINISH, _PREEMPT = range(3)


class SchedulePredictor:
    """Fast deterministic task-schedule prediction for a workload.

    Args:
        cluster: The cluster whose RM is being simulated.
        policy: Instantaneous allocation policy (fair share by default,
            matching the RMs the paper tunes).

    Usage::

        predictor = SchedulePredictor(cluster)
        schedule = predictor.predict(workload, rm_config)
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: SchedulingPolicy | None = None,
    ):
        self.cluster = cluster
        self.policy = policy or FairSharePolicy()

    def predict(self, workload: Workload, config: RMConfig) -> TaskSchedule:
        """Simulate ``workload`` under ``config`` and return the schedule."""
        run = _PredictorRun(self.cluster, self.policy, workload, config)
        return run.execute()


class _Task:
    """One task across all its attempts.

    The ``tenant`` (a position in the run's sorted tenant list),
    ``start_time`` and ``containers`` attributes satisfy the
    victim-selection protocol in :mod:`repro.rm.preemption`.  ``event``
    is the sequence number of the finish event of the running attempt;
    a finish event carrying any other number belongs to a killed
    attempt and is dropped.
    """

    __slots__ = (
        "job",
        "spec",
        "stage",
        "pool",
        "tenant",
        "containers",
        "ready_time",
        "start_time",
        "attempt",
        "event",
    )

    def __init__(
        self,
        job: JobRun,
        spec: TaskSpec,
        stage: str,
        pool: "_Pool",
        tenant: int,
        now: float,
    ):
        self.job = job
        self.spec = spec
        self.stage = stage
        self.pool = pool
        self.tenant = tenant
        self.containers = spec.containers
        self.ready_time = now
        self.start_time = now
        self.attempt = 0
        self.event = -1


class _Pool:
    """Queues, counters and resolved settings of one container pool.

    Every per-tenant list is indexed by the tenant's position in the
    run's sorted tenant list.  ``demand`` (pending plus running
    containers) is the vector the allocation kernel sees; ``running``
    maps a tenant to its running tasks in launch order, tenants in
    first-launch order (the tie-break order of victim selection).
    """

    __slots__ = (
        "name",
        "capacity",
        "kernel",
        "targets",
        "pending",
        "running",
        "held",
        "demand",
        "used",
        "clocks",
        "dirty",
        "deadline",
    )

    def __init__(
        self,
        name: str,
        capacity: int,
        tenants: list[str],
        kernel: DemandKernel | None,
        config: RMConfig,
    ):
        self.name = name
        self.capacity = capacity
        self.kernel = kernel
        self.targets: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        self.pending: list[deque[_Task]] = [deque() for _ in tenants]
        self.running: dict[int, dict[_Task, None]] = {}
        self.held = [0] * len(tenants)
        self.demand = [0] * len(tenants)
        self.used = 0
        # (tenant, clock, min share, min timeout, fair timeout).  A
        # tenant with both timeouts infinite never preempts: its clock
        # would be written and never read.
        self.clocks = [
            (
                i,
                StarvationClock(),
                s.min_for(name),
                s.min_share_preemption_timeout,
                s.fair_share_preemption_timeout,
            )
            for i, s in enumerate(map(config.tenant, tenants))
            if not (
                math.isinf(s.min_share_preemption_timeout)
                and math.isinf(s.fair_share_preemption_timeout)
            )
        ]
        self.dirty = kernel is None
        self.deadline = math.inf


class _PredictorRun:
    """One prediction: all mutable simulation state lives here.

    Four shortcuts keep the loop fast; each reproduces the schedule of
    rescheduling every pool from scratch at every instant.

    * **Dirty pools.**  A pool is rescheduled at an instant only if an
      arrival, finish or stage release touched it, or its earliest
      preemption deadline is due.  Otherwise its queues are as the last
      pass left them: the targets (a function of the demand vector) are
      the same, the launch loop already ran until nothing fitted, and no
      clock can trigger before the deadline — the pass would change
      nothing and report the same deadline.  This needs targets that
      depend on demand alone, which a policy states by providing a
      :meth:`~repro.rm.policies.SchedulingPolicy.demand_kernel` (kills
      and launches move containers between pending and running, never
      the sum); for other policies every pool stays dirty.
    * **Resolved configuration.**  Tenant positions, the kernel's
      weights and limits and the preemption settings are read from the
      :class:`RMConfig` once, in ``__init__``.
    * **Target cache.**  Per pool, targets are memoized by the demand
      vector clamped at the kernel's saturation points; the kernel is a
      pure function of exactly that.
    * **Rows, not records.**  An attempt is emitted as a tuple in
      ``TaskRecord`` field order; the schedule builds the records on
      first read.  ``_stop`` checks ``ready <= start <= now`` inline, so
      the check holds even when no record is ever built.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: SchedulingPolicy,
        workload: Workload,
        config: RMConfig,
    ):
        self.cluster = cluster
        self.policy = policy
        self.workload = workload
        self.config = config
        validate_workload_fits(workload, cluster.as_dict())
        self.tenants = sorted(workload.tenants())
        self.tenant_index = {t: i for i, t in enumerate(self.tenants)}
        self.pools = [
            _Pool(
                pool,
                cap,
                self.tenants,
                policy.demand_kernel(pool, cap, self.tenants, config),
                config,
            )
            for pool, cap in cluster.items()
        ]
        self.pool_index = {pool.name: pool for pool in self.pools}
        self.events = EventQueue()
        self.task_rows: list[tuple] = []
        self.job_records: list[JobRecord] = []
        self._scheduled_preempt = math.inf

    # -- main loop -----------------------------------------------------------

    def execute(self) -> TaskSchedule:
        events = self.events
        for job in self.workload:
            events.push(job.submit_time, _ARRIVAL, job)
        now = 0.0
        while events:
            batch = events.pop_batch()
            now = batch[0][0]
            if now >= self._scheduled_preempt - 1e-9:
                self._scheduled_preempt = math.inf
            for _, seq, kind, payload in batch:
                if kind == _FINISH:
                    if payload.event == seq:
                        self._handle_finish(payload, now)
                elif kind == _ARRIVAL:
                    self._handle_arrival(payload, now)
                # _PREEMPT events carry no state change; the reschedule
                # below performs the starvation check.
            self._reschedule(now)
        horizon = max(now, self.workload.horizon)
        return TaskSchedule(
            self.task_rows,
            self.job_records,
            cluster=self.cluster,
            config=self.config,
            horizon=horizon,
        )

    # -- event handlers --------------------------------------------------------

    def _handle_arrival(self, spec: JobSpec, now: float) -> None:
        job = JobRun(spec)
        if job.tasks_left == 0:
            self._record_job(job, now)
            return
        self._release_stages(job, job.release_ready_stages(), now)

    def _handle_finish(self, task: _Task, now: float) -> None:
        self._stop(task, now, preempted=False)
        task.pool.demand[task.tenant] -= task.containers
        task.pool.dirty = True
        job = task.job
        self._release_stages(job, job.complete_task(task.stage), now)
        if job.done:
            self._record_job(job, now)

    def _stop(self, task: _Task, now: float, *, preempted: bool) -> None:
        """Take the running attempt off its pool and emit its row."""
        pool = task.pool
        del pool.running[task.tenant][task]
        pool.held[task.tenant] -= task.containers
        pool.used -= task.containers
        task.event = -1
        if not task.ready_time <= task.start_time <= now:
            raise ValueError(
                f"task {task.spec.task_id} attempt {task.attempt}: require "
                f"submit <= start <= finish, got "
                f"({task.ready_time}, {task.start_time}, {now})"
            )
        spec = task.job.spec
        self.task_rows.append(
            (
                spec.job_id,
                task.spec.task_id,
                spec.tenant,
                pool.name,
                task.stage,
                task.ready_time,
                task.start_time,
                now,
                task.containers,
                preempted,
                False,
                task.attempt,
            )
        )

    def _record_job(self, job: JobRun, now: float) -> None:
        spec = job.spec
        self.job_records.append(
            JobRecord(
                job_id=spec.job_id,
                tenant=spec.tenant,
                submit_time=spec.submit_time,
                finish_time=max(now, spec.submit_time),
                deadline=spec.deadline,
                num_tasks=spec.num_tasks,
                tags=spec.tags,
                stage_deps=tuple((s.name, s.deps) for s in spec.stages),
            )
        )

    def _release_stages(self, job: JobRun, stages: list[StageSpec], now: float) -> None:
        tenant = self.tenant_index[job.spec.tenant]
        for stage in stages:
            for spec in stage.tasks:
                pool = self.pool_index[spec.pool]
                pool.pending[tenant].append(
                    _Task(job, spec, stage.name, pool, tenant, now)
                )
                pool.demand[tenant] += spec.containers
                pool.dirty = True

    # -- scheduling core ----------------------------------------------------------

    def _reschedule(self, now: float) -> None:
        next_deadline = math.inf
        for pool in self.pools:
            if pool.dirty or now >= pool.deadline - 1e-9:
                pool.dirty = pool.kernel is None
                pool.deadline = self._reschedule_pool(pool, now)
            if pool.deadline < next_deadline:
                next_deadline = pool.deadline
        if next_deadline < self._scheduled_preempt - 1e-9:
            self._scheduled_preempt = next_deadline
            self.events.push(next_deadline, _PREEMPT)

    def _reschedule_pool(self, pool: _Pool, now: float) -> float:
        """Allocate, launch, update starvation clocks, maybe preempt.

        Returns the earliest future preemption deadline for this pool.
        """
        order, targets = self._compute_targets(pool)
        self._launch(pool, order, targets, now)
        kills, deadline = self._starvation_pass(pool, targets, now, allow_kills=True)
        if kills:
            # Freed containers: recompute targets (demand shifted) and
            # hand them out, then refresh the clocks once more.
            order, targets = self._compute_targets(pool)
            self._launch(pool, order, targets, now)
            _, deadline = self._starvation_pass(pool, targets, now, allow_kills=False)
        return deadline

    def _compute_targets(self, pool: _Pool) -> tuple[list[int], list[int]]:
        """Launch order (ties keep it) and the target of every tenant."""
        if pool.kernel is None:
            return self._allocate(pool)
        key = tuple(map(min, pool.demand, pool.kernel.saturation))
        cached = pool.targets.get(key)
        if cached is None:
            active = [i for i, demand in enumerate(key) if demand]
            targets = [0] * len(key)
            if active:
                shares = pool.kernel.shares(active, [key[i] for i in active])
                for i, share in zip(active, shares):
                    targets[i] = share
            cached = pool.targets[key] = (active, targets)
        return cached

    def _allocate(self, pool: _Pool) -> tuple[list[int], list[int]]:
        """Targets of a policy without a demand kernel."""
        targets = [0] * len(self.tenants)
        demands = []
        for i, demand in enumerate(pool.demand):
            if demand:
                queue = pool.pending[i]
                demands.append(
                    TenantDemand(
                        tenant=self.tenants[i],
                        runnable=demand - pool.held[i],
                        running=pool.held[i],
                        oldest_pending_submit=(
                            queue[0].job.spec.submit_time if queue else math.inf
                        ),
                    )
                )
        if not demands:
            return [], targets
        allocation = self.policy.allocate(
            pool.name, pool.capacity, demands, self.config
        )
        order = [self.tenant_index[t] for t in allocation if t in self.tenant_index]
        for i in order:
            targets[i] = allocation[self.tenants[i]]
        return order, targets

    def _launch(
        self, pool: _Pool, order: list[int], targets: list[int], now: float
    ) -> None:
        """Hand free containers to tenants below target, round-robin."""
        free = pool.capacity - pool.used
        held = pool.held
        progressed = True
        while free > 0 and progressed:
            progressed = False
            # One task per tenant per round, largest deficit first.
            ranked = (
                sorted(order, key=lambda i: targets[i] - held[i], reverse=True)
                if len(order) > 1
                else order
            )
            for i in ranked:
                queue = pool.pending[i]
                if not queue or held[i] >= targets[i]:
                    continue
                task = queue[0]
                if task.containers > free:
                    continue
                queue.popleft()
                task.start_time = now
                pool.running.setdefault(i, {})[task] = None
                held[i] += task.containers
                pool.used += task.containers
                task.event = self.events.push(now + task.spec.duration, _FINISH, task)
                free -= task.containers
                progressed = True
                if free <= 0:
                    break

    def _starvation_pass(
        self, pool: _Pool, targets: list[int], now: float, *, allow_kills: bool
    ) -> tuple[int, float]:
        """Step clocks; fire due preemptions.

        Returns the kill count and the pool's earliest preemption deadline.
        """
        total_kills = 0
        deadline = math.inf
        for tenant, clock, min_share, min_timeout, fair_timeout in pool.clocks:
            demand = pool.demand[tenant]
            running = pool.held[tenant]
            min_ent = min(min_share, demand)
            fair_ent = targets[tenant]
            level, due = clock.step(
                now, running, demand, min_ent, fair_ent,
                min_timeout, fair_timeout, allow_kills,
            )
            if level is not None:
                needed = (min_ent if level == "min" else fair_ent) - running
                if needed > 0:
                    victims = select_victims(
                        [task for tasks in pool.running.values() for task in tasks],
                        needed,
                        allocations={t: pool.held[t] for t in pool.running},
                        fair_entitlements=dict(enumerate(targets)),
                        protected={tenant},
                    )
                    for victim in victims:
                        self._kill(victim, now)
                    total_kills += len(victims)
            if due < deadline:
                deadline = due
        return total_kills, deadline

    def _kill(self, task: _Task, now: float) -> None:
        """Preempt a running task: record the wasted attempt, requeue it."""
        self._stop(task, now, preempted=True)
        task.attempt += 1
        task.pool.pending[task.tenant].appendleft(task)
