"""Unit tests for the shared simulator runtime bookkeeping."""

import math

import pytest

from repro.sim.runtime import (
    JobRun,
    PendingTask,
    PoolState,
    RunningTask,
    validate_workload_fits,
)
from repro.workload.model import (
    JobSpec,
    StageSpec,
    TaskSpec,
    mapreduce_job,
    single_stage_job,
)


def make_pending(job_run, index=0, stage=None, containers=1):
    stage = stage or job_run.spec.stages[0]
    task = stage.tasks[index]
    return PendingTask(job_run, task, stage.name, 0.0)


class TestJobRun:
    def test_initial_release(self):
        job = JobRun(mapreduce_job("A", 0.0, [5.0, 5.0], [7.0], job_id="j"))
        ready = job.release_ready_stages()
        assert [s.name for s in ready] == ["map"]
        assert job.release_ready_stages() == []  # idempotent

    def test_barrier_release_after_all_maps(self):
        job = JobRun(mapreduce_job("A", 0.0, [5.0, 5.0], [7.0], job_id="j"))
        job.release_ready_stages()
        assert job.complete_task("map") == []
        newly = job.complete_task("map")
        assert [s.name for s in newly] == ["reduce"]

    def test_slowstart_release(self):
        job = JobRun(
            mapreduce_job("A", 0.0, [5.0] * 4, [7.0], slowstart=0.5, job_id="j")
        )
        job.release_ready_stages()
        assert job.complete_task("map") == []
        newly = job.complete_task("map")  # 2/4 = 50% done
        assert [s.name for s in newly] == ["reduce"]

    def test_done_accounting(self):
        job = JobRun(single_stage_job("A", 0.0, [1.0, 2.0], job_id="j"))
        job.release_ready_stages()
        job.complete_task("stage0")
        assert not job.done
        job.complete_task("stage0")
        assert job.done


class TestPoolStateCounters:
    @pytest.fixture
    def state(self):
        return PoolState("slots", capacity=4)

    @pytest.fixture
    def job(self):
        run = JobRun(single_stage_job("A", 0.0, [10.0] * 3, job_id="j"))
        run.release_ready_stages()
        return run

    def test_pending_counters(self, state, job):
        for i in range(3):
            state.add_pending(make_pending(job, i))
        assert state.runnable_containers("A") == 3
        state.pop_pending("A")
        assert state.runnable_containers("A") == 2

    def test_running_counters(self, state, job):
        state.add_pending(make_pending(job, 0))
        item = state.pop_pending("A")
        run = state.start(item, now=1.0)
        assert state.running_containers("A") == 1
        assert state.total_running_containers() == 1
        state.remove_running(run)
        assert state.running_containers("A") == 0
        assert state.total_running_containers() == 0

    def test_front_requeue_order(self, state, job):
        first = make_pending(job, 0)
        second = make_pending(job, 1)
        state.add_pending(first)
        state.add_pending(second, front=True)
        assert state.peek_pending("A") is second

    def test_purge_pending(self, state, job):
        other = JobRun(single_stage_job("B", 0.0, [5.0], job_id="k"))
        other.release_ready_stages()
        state.add_pending(make_pending(job, 0))
        state.add_pending(make_pending(job, 1))
        state.add_pending(make_pending(other, 0))
        dropped = state.purge_pending("j")
        assert dropped == 2
        assert state.runnable_containers("A") == 0
        assert state.runnable_containers("B") == 1

    def test_tenants_reflect_activity(self, state, job):
        assert state.tenants() == set()
        state.add_pending(make_pending(job, 0))
        assert state.tenants() == {"A"}
        item = state.pop_pending("A")
        assert state.tenants() == set()
        state.start(item, 0.0)
        assert state.tenants() == {"A"}

    def test_oldest_pending_submit(self, state, job):
        assert state.oldest_pending_submit("A") == math.inf
        state.add_pending(make_pending(job, 0))
        assert state.oldest_pending_submit("A") == 0.0

    def test_remove_unknown_running_raises(self, state, job):
        run = RunningTask(job, job.spec.stages[0].tasks[0], "stage0", 0.0, 0.0, 0)
        with pytest.raises(RuntimeError):
            state.remove_running(run)


class TestValidateWorkloadFits:
    def test_rejects_oversized(self):
        task = TaskSpec("t", 1.0, pool="slots", containers=9)
        with pytest.raises(ValueError, match="demands"):
            validate_workload_fits([task], {"slots": 4})

    def test_rejects_unknown_pool(self):
        task = TaskSpec("t", 1.0, pool="gpu")
        with pytest.raises(ValueError, match="does not have"):
            validate_workload_fits([task], {"slots": 4})

    def test_accepts_fitting(self):
        task = TaskSpec("t", 1.0, pool="slots", containers=4)
        validate_workload_fits([task], {"slots": 4})
