"""Heartbeat-granularity cluster simulator: the noisy "ground truth".

The paper validates Tempo's Schedule Predictor against a real 700-node
production cluster (Section 8.1) and runs its end-to-end experiments on
a 20-node EC2 cluster (Section 8.2).  Neither is available here, so this
simulator plays the production side: it executes a workload under a
YARN-fair-scheduler-like RM at fixed heartbeat granularity while a
:class:`~repro.sim.noise.NoiseModel` injects task failures, user/DBA job
kills, node restarts (temporary capacity loss), stragglers, duration
variability, and measurement jitter on killed/failed attempts' recorded
timestamps — the exact disturbances Section 8.1 enumerates.

With a quiet noise model and a small heartbeat it converges to the same
schedule as the time-warp predictor, which is the predictor's
correctness oracle in the test suite.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig
from repro.rm.policies import FairSharePolicy, SchedulingPolicy, TenantDemand
from repro.rm.preemption import StarvationClock, select_victims
from repro.sim.noise import NoiseModel
from repro.sim.runtime import (
    JobRun,
    PendingTask,
    PoolState,
    RunningTask,
    validate_workload_fits,
)
from repro.sim.schedule import TaskSchedule
from repro.workload.model import JobSpec, Workload
from repro.workload.trace import JobRecord, TaskRecord


class ClusterSimulator:
    """Execute a workload on a simulated noisy cluster.

    Args:
        cluster: Cluster being simulated.
        policy: Instantaneous allocation policy (fair share by default).
        noise: Disturbance model; ``NoiseModel.quiet()`` for exactness.
        heartbeat: Scheduling interval in seconds (YARN-style).
        seed: Default RNG seed for the noise draws.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: SchedulingPolicy | None = None,
        noise: NoiseModel | None = None,
        heartbeat: float = 5.0,
        seed: int = 0,
    ):
        if heartbeat <= 0:
            raise ValueError(f"heartbeat must be positive, got {heartbeat}")
        self.cluster = cluster
        self.policy = policy or FairSharePolicy()
        self.noise = noise or NoiseModel.quiet()
        self.heartbeat = heartbeat
        self.seed = seed

    def run(
        self,
        workload: Workload,
        config: RMConfig,
        *,
        seed: int | None = None,
        max_time: float | None = None,
    ) -> TaskSchedule:
        """Execute ``workload`` under ``config``; returns the observed trace.

        ``max_time`` bounds the drain phase after the last submission
        (default: three times the horizon plus two hours); jobs still
        incomplete at that point are dropped from the job records, like
        jobs that never finished within an observation window.
        """
        return self.session(workload, config, seed=seed, max_time=max_time).execute()

    def session(
        self,
        workload: Workload,
        config: RMConfig,
        *,
        seed: int | None = None,
        max_time: float | None = None,
    ) -> "SimulationSession":
        """Open a stepwise simulation of ``workload`` starting at t=0.

        Unlike :meth:`run`, the returned :class:`SimulationSession` is
        advanced in slices by the caller (``advance_to``/``drain``) and
        supports swapping the RM configuration and shrinking capacity
        *mid-run* — the continuous-replay mode of the serving layer,
        where backlog carries across retune intervals instead of every
        interval starting from an empty cluster.
        """
        return SimulationSession(
            self.cluster,
            self.policy,
            self.noise,
            self.heartbeat,
            workload,
            config,
            np.random.default_rng(self.seed if seed is None else seed),
            max_time,
        )


class SimulationSession:
    """One (possibly stepwise) simulation run and all its mutable state.

    :meth:`execute` runs the whole workload to completion — that is what
    :meth:`ClusterSimulator.run` does.  The session API advances the
    same heartbeat loop in caller-controlled slices instead:

    * :meth:`advance_to` runs every heartbeat strictly before a target
      time and returns the task/job records observed since the last
      call — pending and running work *carries over* to the next slice;
    * :meth:`set_config` swaps the live RM configuration between
      heartbeats (the next allocation pass sees the new shares, limits,
      and preemption timeouts);
    * :meth:`lose_capacity` permanently removes containers from a pool
      (observed node loss), evicting freshly started tasks that no
      longer fit exactly like a node-restart capacity dip does —
      :meth:`restore_capacity` is its inverse (node recovery), clamped
      so a pool never exceeds its provisioned size;
    * :meth:`drain` runs until all admitted work completes (bounded by
      ``max_time``).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: SchedulingPolicy,
        noise: NoiseModel,
        heartbeat: float,
        workload: Workload,
        config: RMConfig,
        rng: np.random.Generator,
        max_time: float | None,
    ):
        self.cluster = cluster
        self.policy = policy
        self.noise = noise
        self.dt = heartbeat
        self.workload = workload
        self.config = config
        self.rng = rng
        validate_workload_fits(workload, cluster.as_dict())
        self.max_time = (
            max_time
            if max_time is not None
            else workload.horizon * 3.0 + 7200.0
        )
        self.pools: dict[str, PoolState] = {
            pool: PoolState(pool, cap) for pool, cap in cluster.items()
        }
        self.clocks: dict[tuple[str, str], StarvationClock] = {}
        self.capacity_penalty: dict[str, int] = {p: 0 for p in cluster.pool_names}
        self.penalty_until: float = -math.inf
        self.capacity_lost: dict[str, int] = {p: 0 for p in cluster.pool_names}
        self.task_rows: list[tuple] = []  # see _emit
        self.job_records: list[JobRecord] = []
        self.killed_jobs: set[str] = set()
        self.now = 0.0
        self._arrivals: list[JobSpec] = sorted(
            workload, key=lambda j: (j.submit_time, j.job_id), reverse=True
        )
        self._outstanding = 0  # tasks not yet completed across live jobs
        self._task_cursor = 0
        self._job_cursor = 0

    # -- main loop ---------------------------------------------------------

    def execute(self) -> TaskSchedule:
        """Run the whole workload to completion (the one-shot mode)."""
        while self.now <= self.max_time:
            self._heartbeat(self.now)
            if self.idle:
                break
            self.now += self.dt
        horizon = max(self.now, self.workload.horizon)
        return TaskSchedule(
            self.task_rows,
            self.job_records,
            cluster=self.cluster,
            config=self.config,
            horizon=horizon,
        )

    def _heartbeat(self, now: float) -> None:
        self._admit_arrivals(now)
        self._advance_running(now)
        self._apply_noise(now)
        self._schedule(now)

    # -- session API ----------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No arrivals pending and no admitted task left incomplete."""
        return not self._arrivals and self._outstanding == 0

    def advance_to(
        self, until: float
    ) -> tuple[list[TaskRecord], list[JobRecord]]:
        """Run every heartbeat with time strictly below ``until``.

        Returns the task and job records produced since the previous
        ``advance_to``/``drain`` call.  Incomplete jobs stay queued or
        running in the session — the backlog the next slice inherits.
        """
        while self.now < until:
            self._heartbeat(self.now)
            self.now += self.dt
        return self._new_records()

    def drain(
        self, max_time: float | None = None
    ) -> tuple[list[TaskRecord], list[JobRecord]]:
        """Run until all admitted work completes (bounded by ``max_time``)."""
        limit = self.max_time if max_time is None else max_time
        while self.now <= limit:
            self._heartbeat(self.now)
            if self.idle:
                break
            self.now += self.dt
        return self._new_records()

    def set_config(self, config: RMConfig) -> None:
        """Swap the live RM configuration; takes effect next heartbeat."""
        self.config = config

    def lose_capacity(self, pool: str, containers: int) -> int:
        """Permanently remove ``containers`` from ``pool`` (node loss).

        Every pool retains at least one container (a cluster that loses
        its last container would strand its queued tasks forever).
        Tasks that no longer fit are evicted newest-first and requeued,
        exactly like a transient node-restart dip.  Returns the
        containers actually removed after clamping; unknown pools are
        ignored (a real RM may report losses for pools the tuner does
        not manage).
        """
        if containers < 0:
            raise ValueError(f"containers must be >= 0, got {containers}")
        pool_state = self.pools.get(pool)
        if pool_state is None:
            return 0
        already = self.capacity_lost[pool]
        allowed = max(0, min(containers, pool_state.capacity - 1 - already))
        if allowed == 0:
            return 0
        self.capacity_lost[pool] = already + allowed
        self._evict_overflow(pool_state, self._effective_capacity(pool), self.now)
        return allowed

    def restore_capacity(self, pool: str, containers: int) -> int:
        """Return previously lost containers to ``pool`` (node recovery).

        The symmetric partner of :meth:`lose_capacity`: restoration is
        clamped to the capacity currently lost, so a pool can never grow
        past its provisioned size.  The freed containers are picked up
        by the next heartbeat's allocation pass — no eviction or
        requeue is needed when capacity grows.  Returns the containers
        actually restored; unknown pools are ignored.
        """
        if containers < 0:
            raise ValueError(f"containers must be >= 0, got {containers}")
        if pool not in self.pools:
            return 0
        restored = min(containers, self.capacity_lost[pool])
        if restored == 0:
            return 0
        self.capacity_lost[pool] -= restored
        return restored

    def _new_records(self) -> tuple[list[TaskRecord], list[JobRecord]]:
        tasks = [TaskRecord(*row) for row in self.task_rows[self._task_cursor :]]
        jobs = self.job_records[self._job_cursor :]
        self._task_cursor = len(self.task_rows)
        self._job_cursor = len(self.job_records)
        return tasks, jobs

    # -- phases ----------------------------------------------------------------

    def _admit_arrivals(self, now: float) -> None:
        while self._arrivals and self._arrivals[-1].submit_time <= now:
            spec = self._arrivals.pop()
            job = JobRun(spec)
            if job.tasks_left == 0:
                self._record_job(job, now)
                continue
            self._outstanding += job.tasks_left
            self._release_stages(job, job.release_ready_stages(), now)

    def _advance_running(self, now: float) -> None:
        """Progress running tasks by one heartbeat; complete the done ones."""
        for pool_state in self.pools.values():
            completed: list[RunningTask] = []
            for runs in pool_state.running.values():
                for run in runs:
                    run.remaining -= self.dt
                    if run.remaining <= 1e-9:
                        completed.append(run)
            for run in completed:
                self._complete(pool_state, run, now + run.remaining)

    def _complete(self, pool_state: PoolState, run: RunningTask, finish: float) -> None:
        pool_state.remove_running(run)
        finish = max(finish, run.start_time)
        self._emit(run, run.ready_time, run.start_time, finish)
        self._outstanding -= 1
        newly_ready = run.job.complete_task(run.stage)
        self._release_stages(run.job, newly_ready, finish)
        if run.job.done:
            self._record_job(run.job, finish)

    def _apply_noise(self, now: float) -> None:
        if self.noise.is_quiet:
            return
        self._fail_random_tasks(now)
        self._kill_random_jobs(now)
        self._maybe_restart_nodes(now)

    def _fail_random_tasks(self, now: float) -> None:
        for pool_state in self.pools.values():
            victims = [
                run
                for run in pool_state.all_running()
                if self.noise.task_fails(self.rng, self.dt)
            ]
            for run in victims:
                self._fail(pool_state, run, now, requeue=True)

    def _kill_random_jobs(self, now: float) -> None:
        live_jobs: dict[str, JobRun] = {}
        for pool_state in self.pools.values():
            for run in pool_state.all_running():
                live_jobs.setdefault(run.job.spec.job_id, run.job)
        for job_id, job in live_jobs.items():
            if job_id in self.killed_jobs:
                continue
            if self.noise.job_killed(self.rng, self.dt):
                self._kill_job(job, now)

    def _kill_job(self, job: JobRun, now: float) -> None:
        """A user/DBA kills the whole job: purge its tasks everywhere."""
        job_id = job.spec.job_id
        self.killed_jobs.add(job_id)
        for pool_state in self.pools.values():
            for run in [
                r for r in pool_state.all_running() if r.job.spec.job_id == job_id
            ]:
                self._fail(pool_state, run, now, requeue=False)
            self._outstanding -= pool_state.purge_pending(job_id)
        # Tasks not yet released to any queue also leave the system.
        unreleased = sum(
            len(s.tasks)
            for s in job.spec.stages
            if s.name not in job.released
        )
        self._outstanding -= unreleased

    def _maybe_restart_nodes(self, now: float) -> None:
        if now >= self.penalty_until:
            for pool in self.capacity_penalty:
                self.capacity_penalty[pool] = 0
        if not self.noise.node_restarts(self.rng, self.dt):
            return
        self.penalty_until = now + self.noise.node_restart_duration
        for pool, pool_state in self.pools.items():
            lost = int(pool_state.capacity * self.noise.node_restart_capacity_fraction)
            if lost <= 0:
                continue
            self.capacity_penalty[pool] = lost
            self._evict_overflow(pool_state, self._effective_capacity(pool), now)

    def _evict_overflow(
        self, pool_state: PoolState, effective: int, now: float
    ) -> None:
        """Kill newest-started tasks until the pool fits its capacity."""
        overflow = pool_state.total_running_containers() - effective
        if overflow <= 0:
            return
        victims = sorted(
            pool_state.all_running(), key=lambda r: r.start_time, reverse=True
        )
        freed = 0
        for run in victims:
            if freed >= overflow:
                break
            self._fail(pool_state, run, now, requeue=True)
            freed += run.containers

    def _fail(
        self, pool_state: PoolState, run: RunningTask, now: float, *, requeue: bool
    ) -> None:
        """A task attempt dies (failure/kill); optionally restarts."""
        pool_state.remove_running(run)
        ready = run.ready_time
        start = self.noise.jittered(self.rng, run.start_time, ready)
        finish = self.noise.jittered(self.rng, now, start)
        self._emit(run, ready, start, finish, failed=True)
        if requeue:
            pool_state.add_pending(
                PendingTask(run.job, run.task, run.stage, run.ready_time, run.attempt + 1),
                front=True,
            )
        else:
            self._outstanding -= 1

    # -- scheduling ---------------------------------------------------------------

    def _effective_capacity(self, pool: str) -> int:
        return max(
            0,
            self.pools[pool].capacity
            - self.capacity_penalty[pool]
            - self.capacity_lost[pool],
        )

    def _schedule(self, now: float) -> None:
        for pool, pool_state in self.pools.items():
            capacity = self._effective_capacity(pool)
            targets, demands = self._compute_targets(pool_state, capacity, now)
            if demands:
                self._launch(pool_state, capacity, targets, now)
            kills = self._starvation_pass(pool_state, capacity, targets, demands, now)
            if kills:
                targets, demands = self._compute_targets(pool_state, capacity, now)
                if demands:
                    self._launch(pool_state, capacity, targets, now)
                self._starvation_pass(
                    pool_state, capacity, targets, demands, now, allow_kills=False
                )

    def _compute_targets(
        self, pool_state: PoolState, capacity: int, now: float
    ) -> tuple[dict[str, int], dict[str, TenantDemand]]:
        demands: dict[str, TenantDemand] = {}
        for tenant in sorted(pool_state.tenants()):
            demands[tenant] = TenantDemand(
                tenant=tenant,
                runnable=pool_state.runnable_containers(tenant),
                running=pool_state.running_containers(tenant),
                oldest_pending_submit=pool_state.oldest_pending_submit(tenant),
            )
        if not demands:
            return {}, {}
        targets = self.policy.allocate(
            pool_state.pool, capacity, list(demands.values()), self.config
        )
        return targets, demands

    def _launch(
        self,
        pool_state: PoolState,
        capacity: int,
        targets: Mapping[str, int],
        now: float,
    ) -> None:
        free = capacity - pool_state.total_running_containers()
        progressed = True
        while free > 0 and progressed:
            progressed = False
            for tenant in sorted(
                targets,
                key=lambda t: targets[t] - pool_state.running_containers(t),
                reverse=True,
            ):
                if free <= 0:
                    break
                item = pool_state.peek_pending(tenant)
                if item is None:
                    continue
                if pool_state.running_containers(tenant) >= targets.get(tenant, 0):
                    continue
                if item.task.containers > free:
                    continue
                pool_state.pop_pending(tenant)
                run = pool_state.start(item, now)
                run.remaining = self.noise.actual_duration(self.rng, item.task.duration)
                free -= item.task.containers
                progressed = True

    def _starvation_pass(
        self,
        pool_state: PoolState,
        capacity: int,
        targets: Mapping[str, int],
        demands: Mapping[str, TenantDemand],
        now: float,
        *,
        allow_kills: bool = True,
    ) -> int:
        total_kills = 0
        for (pool, tenant), clock in self.clocks.items():
            if pool == pool_state.pool and tenant not in demands:
                clock.below_min_since = None
                clock.below_fair_since = None
        for tenant in demands:
            cfg = self.config.tenant(tenant)
            clock = self.clocks.setdefault((pool_state.pool, tenant), StarvationClock())
            running = pool_state.running_containers(tenant)
            runnable = pool_state.runnable_containers(tenant)
            total_demand = running + runnable
            min_ent = min(cfg.min_for(pool_state.pool), total_demand)
            fair_ent = targets.get(tenant, 0)
            level, _ = clock.step(
                now, running, total_demand, min_ent, fair_ent,
                cfg.min_share_preemption_timeout,
                cfg.fair_share_preemption_timeout,
                allow_kills,
            )
            if level is None:
                continue
            entitlement = min_ent if level == "min" else fair_ent
            needed = entitlement - running
            if needed > 0:
                victims = select_victims(
                    pool_state.all_running(),
                    needed,
                    allocations={
                        t: pool_state.running_containers(t) for t in pool_state.running
                    },
                    fair_entitlements=dict(targets),
                    protected={tenant},
                )
                for victim in victims:
                    self._preempt(pool_state, victim, now)
                total_kills += len(victims)
        return total_kills

    def _preempt(self, pool_state: PoolState, run: RunningTask, now: float) -> None:
        pool_state.remove_running(run)
        ready = run.ready_time
        start = self.noise.jittered(self.rng, run.start_time, ready)
        finish = self.noise.jittered(self.rng, now, start)
        self._emit(run, ready, start, finish, preempted=True)
        pool_state.add_pending(
            PendingTask(run.job, run.task, run.stage, run.ready_time, run.attempt + 1),
            front=True,
        )

    # -- bookkeeping -----------------------------------------------------------

    def _emit(
        self,
        run: RunningTask,
        submit: float,
        start: float,
        finish: float,
        *,
        preempted: bool = False,
        failed: bool = False,
    ) -> None:
        """Append one attempt row, in ``TaskRecord`` field order."""
        self.task_rows.append(
            (
                run.job.spec.job_id,
                run.task.task_id,
                run.tenant,
                run.task.pool,
                run.stage,
                submit,
                start,
                finish,
                run.containers,
                preempted,
                failed,
                run.attempt,
            )
        )

    def _release_stages(self, job: JobRun, stages, now: float) -> None:
        if job.spec.job_id in self.killed_jobs:
            return
        for stage in stages:
            for task in stage.tasks:
                self.pools[task.pool].add_pending(
                    PendingTask(job, task, stage.name, now)
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
