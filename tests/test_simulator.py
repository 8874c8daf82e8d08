"""Unit tests for the heartbeat ClusterSimulator and noise injection."""

import numpy as np
import pytest

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig, TenantConfig
from repro.sim.noise import NoiseModel
from repro.sim.predictor import SchedulePredictor
from repro.sim.simulator import ClusterSimulator
from repro.workload.model import (
    JobSpec,
    StageSpec,
    TaskSpec,
    Workload,
    mapreduce_job,
    single_stage_job,
)


@pytest.fixture
def cluster():
    return ClusterSpec({"slots": 4})


@pytest.fixture
def config():
    return RMConfig({"A": TenantConfig(), "B": TenantConfig()})


@pytest.fixture
def workload():
    return Workload(
        [
            single_stage_job("A", 0.0, [30.0] * 4, job_id="a"),
            single_stage_job("B", 10.0, [20.0] * 2, job_id="b"),
        ],
        horizon=120.0,
    )


class TestNoiseModel:
    def test_quiet_is_quiet(self):
        assert NoiseModel.quiet().is_quiet

    def test_production_is_not(self):
        assert not NoiseModel.production().is_quiet

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(task_failure_rate=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(straggler_slowdown=0.5)
        with pytest.raises(ValueError):
            NoiseModel(node_restart_capacity_fraction=1.5)

    def test_quiet_duration_passthrough(self, rng):
        assert NoiseModel.quiet().actual_duration(rng, 10.0) == 10.0

    def test_duration_noise_perturbs(self, rng):
        noise = NoiseModel(duration_noise=0.3)
        draws = {noise.actual_duration(rng, 10.0) for _ in range(5)}
        assert len(draws) == 5

    def test_straggler_slowdown(self):
        noise = NoiseModel(straggler_probability=1.0, straggler_slowdown=3.0)
        rng = np.random.default_rng(0)
        assert noise.actual_duration(rng, 10.0) == pytest.approx(30.0)

    def test_jitter_floors(self, rng):
        noise = NoiseModel(record_jitter=100.0)
        assert noise.jittered(rng, 5.0, lo=4.0) >= 4.0


class TestQuietSimulation:
    def test_matches_predictor_within_heartbeat(self, cluster, config, workload):
        sim = ClusterSimulator(cluster, heartbeat=1.0)
        truth = sim.run(workload, config)
        pred = SchedulePredictor(cluster).predict(workload, config)
        t_by_job = {j.job_id: j.finish_time for j in truth.job_records}
        p_by_job = {j.job_id: j.finish_time for j in pred.job_records}
        assert set(t_by_job) == set(p_by_job)
        for job_id in t_by_job:
            assert t_by_job[job_id] == pytest.approx(p_by_job[job_id], abs=3.0)

    def test_all_jobs_complete(self, cluster, config, workload):
        truth = ClusterSimulator(cluster, heartbeat=2.0).run(workload, config)
        assert len(truth.job_records) == len(workload)
        assert len(truth.task_records) == workload.num_tasks

    def test_determinism_with_seed(self, cluster, config, workload):
        sim = ClusterSimulator(cluster, noise=NoiseModel.production(), heartbeat=2.0)
        t1 = sim.run(workload, config, seed=7)
        t2 = sim.run(workload, config, seed=7)
        assert [
            (r.task_id, r.attempt, r.finish_time) for r in t1.task_records
        ] == [(r.task_id, r.attempt, r.finish_time) for r in t2.task_records]

    def test_heartbeat_validation(self, cluster):
        with pytest.raises(ValueError):
            ClusterSimulator(cluster, heartbeat=0.0)

    def test_task_ids_may_repeat_across_jobs(self):
        # TaskSpec.task_id is unique within its job only (converted
        # traces name every job's tasks M1, R2_1, ...): two in-flight
        # jobs that both have a "t0" keep their own ready times.
        jobs = [
            JobSpec(job_id, "A", submit, (StageSpec("map", (TaskSpec("t0", 20.0),)),))
            for job_id, submit in (("j1", 0.0), ("j2", 5.0))
        ]
        truth = ClusterSimulator(ClusterSpec({"slots": 1})).run(
            Workload(jobs), RMConfig({"A": TenantConfig()})
        )
        assert [
            (r.job_id, r.submit_time, r.start_time, r.finish_time)
            for r in truth.task_records
        ] == [("j1", 0.0, 0.0, 20.0), ("j2", 5.0, 20.0, 40.0)]


class TestNoiseEffects:
    def test_task_failures_produce_retries(self, cluster, config):
        w = Workload([single_stage_job("A", 0.0, [50.0] * 4, job_id="a")])
        noise = NoiseModel(task_failure_rate=2e-2)
        truth = ClusterSimulator(cluster, noise=noise, heartbeat=1.0).run(
            w, config, seed=1
        )
        failed = [r for r in truth.task_records if r.failed]
        assert failed, "expected at least one failure at this rate"
        completed = {r.task_id for r in truth.task_records if r.completed}
        assert len(completed) == 4  # every task eventually completes

    def test_job_kills_remove_jobs(self, cluster, config):
        w = Workload(
            [single_stage_job("A", 0.0, [200.0] * 2, job_id=f"j{i}") for i in range(6)]
        )
        noise = NoiseModel(job_kill_rate=5e-3)
        truth = ClusterSimulator(cluster, noise=noise, heartbeat=1.0).run(
            w, config, seed=3
        )
        assert len(truth.job_records) < 6

    def test_node_restart_fails_tasks(self, config):
        cluster = ClusterSpec({"slots": 10})
        w = Workload([single_stage_job("A", 0.0, [300.0] * 10, job_id="a")])
        noise = NoiseModel(
            node_restart_rate=2e-3,
            node_restart_capacity_fraction=0.4,
            node_restart_duration=60.0,
        )
        truth = ClusterSimulator(cluster, noise=noise, heartbeat=1.0).run(
            w, config, seed=5
        )
        assert any(r.failed for r in truth.task_records)

    def test_duration_noise_changes_service_times(self, cluster, config):
        w = Workload([single_stage_job("A", 0.0, [30.0] * 4, job_id="a")])
        noise = NoiseModel(duration_noise=0.3)
        truth = ClusterSimulator(cluster, noise=noise, heartbeat=0.5).run(
            w, config, seed=2
        )
        services = sorted(r.service_time for r in truth.task_records)
        assert services[0] != pytest.approx(services[-1], abs=0.01)

    def test_max_time_bounds_run(self, cluster, config):
        w = Workload([single_stage_job("A", 0.0, [1e5], job_id="a")])
        truth = ClusterSimulator(cluster, heartbeat=10.0).run(
            w, config, max_time=100.0
        )
        assert len(truth.job_records) == 0  # never finished within bound


class TestPreemptionParity:
    """Simulator preemption semantics mirror the predictor's."""

    def test_kill_then_restart(self):
        cluster = ClusterSpec({"slots": 10})
        cfg = RMConfig(
            {
                "A": TenantConfig(),
                "B": TenantConfig(
                    min_share={"slots": 5}, min_share_preemption_timeout=60.0
                ),
            }
        )
        w = Workload(
            [
                single_stage_job("A", 0.0, [500.0] * 10, job_id="a"),
                single_stage_job("B", 5.0, [100.0] * 5, job_id="b"),
            ]
        )
        truth = ClusterSimulator(cluster, heartbeat=1.0).run(w, cfg)
        killed = [r for r in truth.task_records if r.preempted]
        assert len(killed) == 5
        assert all(r.tenant == "A" for r in killed)
        b_fin = truth.job("b").finish_time
        assert b_fin == pytest.approx(165.0, abs=5.0)


class TestMapReduce:
    def test_stage_ordering_respected(self, config):
        cluster = ClusterSpec({"map": 4, "reduce": 2})
        w = Workload([mapreduce_job("A", 0.0, [10.0] * 4, [20.0], job_id="mr")])
        truth = ClusterSimulator(cluster, heartbeat=1.0).run(w, config)
        maps = [r for r in truth.task_records if r.stage == "map"]
        reduces = [r for r in truth.task_records if r.stage == "reduce"]
        assert max(m.finish_time for m in maps) <= min(r.start_time for r in reduces) + 1e-6


class TestSimulationSession:
    def test_sliced_advance_matches_one_shot_run(self, cluster, config, workload):
        """advance_to in slices reproduces run() exactly under quiet noise."""
        sim = ClusterSimulator(cluster, heartbeat=5.0)
        reference = sim.run(workload, config, seed=0)
        session = sim.session(workload, config, seed=0)
        tasks, jobs = [], []
        for until in (20.0, 40.0, 90.0):
            t, j = session.advance_to(until)
            tasks.extend(t)
            jobs.extend(j)
        t, j = session.drain()
        tasks.extend(t)
        jobs.extend(j)
        assert sorted(tasks, key=lambda r: (r.task_id, r.attempt)) == sorted(
            reference.task_records, key=lambda r: (r.task_id, r.attempt)
        )
        assert sorted(jobs, key=lambda r: r.job_id) == sorted(
            reference.job_records, key=lambda r: r.job_id
        )

    def test_backlog_carries_between_slices(self, cluster, config, workload):
        """Work not finished in one slice completes in a later one."""
        session = ClusterSimulator(cluster, heartbeat=5.0).session(workload, config)
        tasks_early, _ = session.advance_to(10.0)
        assert not session.idle
        tasks_late, jobs_late = session.drain()
        assert len(tasks_early) < len(tasks_early) + len(tasks_late)
        assert {j.job_id for j in jobs_late} == {"a", "b"}

    def test_set_config_swaps_live(self, cluster, config, workload):
        session = ClusterSimulator(cluster, heartbeat=5.0).session(workload, config)
        session.advance_to(10.0)
        tightened = RMConfig(
            {"A": TenantConfig(max_share={"slots": 1}), "B": TenantConfig()}
        )
        session.set_config(tightened)
        assert session.config is tightened
        session.drain()
        assert session.idle

    def test_lose_capacity_evicts_and_clamps(self, cluster, config):
        jobs = [single_stage_job("A", 0.0, [50.0] * 4, job_id="long")]
        session = ClusterSimulator(cluster, heartbeat=5.0).session(
            Workload(jobs, horizon=60.0), config
        )
        session.advance_to(10.0)  # all four tasks running
        removed = session.lose_capacity("slots", 2)
        assert removed == 2
        evicted, _ = session.advance_to(15.0)
        assert sum(1 for r in evicted if r.failed) >= 1  # overflow was killed
        # Clamped: a pool never drops below one container.
        assert session.lose_capacity("slots", 100) == 1
        assert session.lose_capacity("slots", 5) == 0
        # Unknown pools are ignored.
        assert session.lose_capacity("gpu", 3) == 0
        session.drain()
        assert session.idle  # requeued work finishes on the single container

    def test_lose_capacity_rejects_negative(self, cluster, config, workload):
        session = ClusterSimulator(cluster).session(workload, config)
        with pytest.raises(ValueError):
            session.lose_capacity("slots", -1)
