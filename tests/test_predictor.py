"""Unit tests for the time-warp Schedule Predictor."""

import json

import pytest
from predictor_golden import GOLDEN, corpus, digest

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig, TenantConfig
from repro.rm.policies import FairSharePolicy, FifoPolicy
from repro.service.replay import make_scenario
from repro.sim.predictor import SchedulePredictor, _PredictorRun, _Task
from repro.sim.runtime import JobRun
from repro.sim.schedule import TaskSchedule
from repro.slo.objectives import SLOSet
from repro.slo.templates import fairness_slo, throughput_slo, utilization_slo
from repro.whatif.model import WhatIfModel
from repro.workload.model import (
    JobSpec,
    StageSpec,
    TaskSpec,
    Workload,
    mapreduce_job,
    single_stage_job,
)
from repro.workload.trace import TaskRecord, Trace


def predict(cluster, workload, config=None, policy=None):
    config = config or RMConfig({t: TenantConfig() for t in workload.tenants()})
    return SchedulePredictor(cluster, policy).predict(workload, config)


class TestSingleJobTiming:
    def test_one_task(self, small_cluster):
        w = Workload([single_stage_job("A", 2.0, [10.0], job_id="j")])
        s = predict(small_cluster, w)
        rec = s.task_records[0]
        assert rec.start_time == pytest.approx(2.0)
        assert rec.finish_time == pytest.approx(12.0)
        assert s.job_records[0].response_time == pytest.approx(10.0)

    def test_waves_when_capacity_limited(self):
        cluster = ClusterSpec({"slots": 2})
        w = Workload([single_stage_job("A", 0.0, [10.0] * 4, job_id="j")])
        s = predict(cluster, w)
        # Two waves of two tasks: finish at 20.
        assert s.job_records[0].finish_time == pytest.approx(20.0)

    def test_job_finish_is_max_task_finish(self, small_cluster):
        w = Workload([single_stage_job("A", 0.0, [3.0, 9.0, 6.0], job_id="j")])
        s = predict(small_cluster, w)
        assert s.job_records[0].finish_time == pytest.approx(9.0)

    def test_critical_path_is_lower_bound(self, small_cluster, mr_workload):
        s = predict(small_cluster if False else ClusterSpec({"map": 8, "reduce": 8}), mr_workload)
        for job in mr_workload:
            rec = s.job(job.job_id)
            assert rec.response_time >= job.critical_path() - 1e-6


class TestStageDependencies:
    def test_reduce_waits_for_maps(self, mr_cluster):
        w = Workload([mapreduce_job("A", 0.0, [10.0, 10.0], [5.0], job_id="mr")])
        s = predict(mr_cluster, w)
        reduce_rec = [r for r in s.task_records if r.stage == "reduce"][0]
        assert reduce_rec.start_time == pytest.approx(10.0)
        assert s.job_records[0].finish_time == pytest.approx(15.0)

    def test_slowstart_launches_reduces_early(self, mr_cluster):
        # Two maps finish at 10 and 20; slowstart 0.5 releases the
        # reduce once half the maps are done.
        job = mapreduce_job("A", 0.0, [10.0, 20.0], [5.0], slowstart=0.5, job_id="mr")
        s = predict(mr_cluster, Workload([job]))
        reduce_rec = [r for r in s.task_records if r.stage == "reduce"][0]
        assert reduce_rec.start_time == pytest.approx(10.0)

    def test_three_stage_chain(self, small_cluster):
        stages = (
            StageSpec("a", (TaskSpec("t-a", 5.0),)),
            StageSpec("b", (TaskSpec("t-b", 5.0),), deps=("a",)),
            StageSpec("c", (TaskSpec("t-c", 5.0),), deps=("b",)),
        )
        job = JobSpec("chain", "A", 0.0, stages)
        s = predict(small_cluster, Workload([job]))
        assert s.job_records[0].finish_time == pytest.approx(15.0)


class TestFairSharing:
    def test_equal_split_between_tenants(self):
        cluster = ClusterSpec({"slots": 4})
        w = Workload(
            [
                single_stage_job("A", 0.0, [10.0] * 4, job_id="a"),
                single_stage_job("B", 0.0, [10.0] * 4, job_id="b"),
            ]
        )
        s = predict(cluster, w)
        # Each gets 2 slots -> both finish in two waves of 10s.
        assert s.job_records[0].finish_time == pytest.approx(20.0)
        assert s.job_records[1].finish_time == pytest.approx(20.0)

    def test_weight_bias(self):
        cluster = ClusterSpec({"slots": 4})
        cfg = RMConfig(
            {"A": TenantConfig(weight=3.0), "B": TenantConfig(weight=1.0)}
        )
        w = Workload(
            [
                single_stage_job("A", 0.0, [10.0] * 3, job_id="a"),
                single_stage_job("B", 0.0, [10.0] * 3, job_id="b"),
            ]
        )
        s = predict(cluster, w, cfg)
        a_fin = s.job("a").finish_time
        b_fin = s.job("b").finish_time
        assert a_fin < b_fin  # A gets 3 slots, B gets 1

    def test_max_share_leaves_capacity_idle(self):
        cluster = ClusterSpec({"slots": 4})
        cfg = RMConfig({"A": TenantConfig(max_share={"slots": 2})})
        w = Workload([single_stage_job("A", 0.0, [10.0] * 4, job_id="a")])
        s = predict(cluster, w, cfg)
        assert s.job("a").finish_time == pytest.approx(20.0)

    def test_idle_capacity_redistributed(self):
        cluster = ClusterSpec({"slots": 4})
        # B has nothing to run: A should use all four slots.
        w = Workload([single_stage_job("A", 0.0, [10.0] * 4, job_id="a")])
        cfg = RMConfig({"A": TenantConfig(weight=1.0), "B": TenantConfig(weight=9.0)})
        s = predict(cluster, w, cfg)
        assert s.job("a").finish_time == pytest.approx(10.0)


class TestPreemption:
    def _config(self, min_share=5, timeout=60.0):
        return RMConfig(
            {
                "A": TenantConfig(weight=1.0),
                "B": TenantConfig(
                    weight=1.0,
                    min_share={"slots": min_share},
                    min_share_preemption_timeout=timeout,
                ),
            }
        )

    def _workload(self):
        return Workload(
            [
                single_stage_job("A", 0.0, [500.0] * 10, job_id="a"),
                single_stage_job("B", 5.0, [100.0] * 5, job_id="b"),
            ]
        )

    def test_kill_after_timeout(self):
        cluster = ClusterSpec({"slots": 10})
        s = SchedulePredictor(cluster).predict(self._workload(), self._config())
        killed = [r for r in s.task_records if r.preempted]
        assert len(killed) == 5
        assert all(r.tenant == "A" for r in killed)
        assert all(r.finish_time == pytest.approx(65.0) for r in killed)

    def test_killed_tasks_restart_from_scratch(self):
        cluster = ClusterSpec({"slots": 10})
        s = SchedulePredictor(cluster).predict(self._workload(), self._config())
        retries = [r for r in s.task_records if r.attempt == 1 and r.tenant == "A"]
        assert len(retries) == 5
        # B's tasks run 65..165; A's retries start at 165 with full 500s.
        for r in retries:
            assert r.start_time == pytest.approx(165.0)
            assert r.finish_time == pytest.approx(665.0)

    def test_no_preemption_without_timeout(self):
        cluster = ClusterSpec({"slots": 10})
        cfg = RMConfig({"A": TenantConfig(), "B": TenantConfig(min_share={"slots": 5})})
        s = SchedulePredictor(cluster).predict(self._workload(), cfg)
        assert not any(r.preempted for r in s.task_records)

    def test_fair_level_preemption(self):
        cluster = ClusterSpec({"slots": 10})
        cfg = RMConfig(
            {
                "A": TenantConfig(),
                "B": TenantConfig(fair_share_preemption_timeout=100.0),
            }
        )
        s = SchedulePredictor(cluster).predict(self._workload(), cfg)
        killed = [r for r in s.task_records if r.preempted]
        # Fair share of B is 5; it preempts at ~105.
        assert len(killed) == 5
        assert killed[0].finish_time == pytest.approx(105.0)

    def test_effective_utilization_below_raw(self):
        cluster = ClusterSpec({"slots": 10})
        s = SchedulePredictor(cluster).predict(self._workload(), self._config())
        assert s.utilization(include_preempted=False) < s.utilization()


class TestPolicies:
    def test_fifo_starves_latecomer(self):
        cluster = ClusterSpec({"slots": 4})
        w = Workload(
            [
                single_stage_job("A", 0.0, [50.0] * 4, job_id="a"),
                single_stage_job("B", 1.0, [10.0] * 2, job_id="b"),
            ]
        )
        s = predict(cluster, w, policy=FifoPolicy())
        assert s.job("b").finish_time == pytest.approx(60.0)


class TestRecordConsistency:
    def test_every_task_recorded_once_per_attempt(self, mr_cluster, mr_workload):
        s = predict(mr_cluster, mr_workload)
        keys = [(r.task_id, r.attempt) for r in s.task_records]
        assert len(keys) == len(set(keys))
        assert len(s.task_records) == mr_workload.num_tasks

    def test_ordering_invariants(self, mr_cluster, mr_workload):
        s = predict(mr_cluster, mr_workload)
        for r in s.task_records:
            assert r.submit_time <= r.start_time <= r.finish_time

    def test_determinism(self, mr_cluster, mr_workload, two_tenant_config):
        s1 = SchedulePredictor(mr_cluster).predict(mr_workload, two_tenant_config)
        s2 = SchedulePredictor(mr_cluster).predict(mr_workload, two_tenant_config)
        assert [
            (r.task_id, r.start_time, r.finish_time) for r in s1.task_records
        ] == [(r.task_id, r.start_time, r.finish_time) for r in s2.task_records]

    def test_oversized_task_rejected(self, small_cluster):
        job = JobSpec(
            "big",
            "A",
            0.0,
            (StageSpec("s", (TaskSpec("t", 1.0, containers=99),)),),
        )
        with pytest.raises(ValueError, match="demands"):
            predict(small_cluster, Workload([job]))

    def test_unknown_pool_rejected(self, small_cluster):
        job = JobSpec(
            "gpu",
            "A",
            0.0,
            (StageSpec("s", (TaskSpec("t", 1.0, pool="gpu"),)),),
        )
        with pytest.raises(ValueError, match="pool"):
            predict(small_cluster, Workload([job]))

    def test_task_ids_may_repeat_across_jobs(self):
        # TaskSpec.task_id is unique within its job only: two in-flight
        # jobs that both name a task "t0" keep their own ready times.
        cluster = ClusterSpec({"slots": 1})
        jobs = [
            JobSpec(job_id, "A", submit, (StageSpec("map", (TaskSpec("t0", 20.0),)),))
            for job_id, submit in (("j1", 0.0), ("j2", 5.0))
        ]
        s = predict(cluster, Workload(jobs))
        assert [
            (r.job_id, r.submit_time, r.start_time, r.finish_time)
            for r in s.task_records
        ] == [("j1", 0.0, 0.0, 20.0), ("j2", 5.0, 20.0, 40.0)]


class TestGoldenCorpus:
    def test_reproduces_every_recorded_schedule(self):
        """The oracle of the event loop: digests recorded before its rewrite."""
        golden = json.loads(GOLDEN.read_text())
        seen = {}
        for name, cluster, policy, workload, config in corpus():
            seen[name] = digest(SchedulePredictor(cluster, policy).predict(workload, config))
        assert seen.keys() == golden.keys()
        assert [name for name in seen if seen[name] != golden[name]] == []


class TestRowBackedSchedule:
    """The predictor emits attempt rows; its schedule builds records lazily."""

    @staticmethod
    def _fresh(schedule):
        """An unread schedule over the same rows (each query reads first)."""
        return TaskSchedule(
            schedule._rows,
            schedule.job_records,
            cluster=schedule.cluster,
            config=schedule.config,
            horizon=schedule.horizon,
        )

    def test_every_query_equals_an_eager_trace(self):
        def queries(cluster, tenant, pool, cut):
            def replay(trace):
                workload = trace.to_workload()
                return workload.jobs, workload.horizon

            def window(trace):
                part = trace.window(cut, 2 * cut)
                return part.task_records, part.job_records, part.horizon

            def plain_repr(trace):
                text = repr(trace).replace("TaskSchedule(", "Trace(")
                return text.replace(f", cluster={cluster.name}", "")

            return [
                ("task_records", lambda t: t.task_records),
                ("len", len),
                ("tenants", lambda t: t.tenants()),
                ("pools", lambda t: t.pools()),
                ("tasks_of", lambda t: t.tasks_of(tenant)),
                ("tasks_of pool", lambda t: t.tasks_of(tenant, pool)),
                ("container_seconds", lambda t: t.container_seconds()),
                (
                    "container_seconds effective",
                    lambda t: t.container_seconds(tenant, pool, include_preempted=False),
                ),
                ("to_workload", replay),
                ("window", window),
                ("repr", plain_repr),
            ]

        for case, (name, cluster, policy, workload, config) in enumerate(corpus()):
            schedule = SchedulePredictor(cluster, policy).predict(workload, config)
            lazy = self._fresh(schedule)
            eager = Trace(
                schedule.task_records,
                schedule.job_records,
                capacity=schedule.capacity,
                horizon=schedule.horizon,
            )
            asked = queries(
                cluster,
                sorted(eager.tenants())[0],
                sorted(eager.pools())[-1],
                schedule.horizon / 3,
            )
            # Rotate which query reads the unbuilt schedule first.
            shift = case % len(asked)
            for query, ask in asked[shift:] + asked[:shift]:
                assert ask(lazy) == ask(eager), (name, query)

    @staticmethod
    def _steady():
        scenario = make_scenario("steady", scale=3.0, horizon=1800.0)
        return scenario, scenario.model.generate(7, scenario.horizon)

    @staticmethod
    def _count_builds(monkeypatch):
        built = [0]
        check = TaskRecord.__post_init__

        def counting(record):
            built[0] += 1
            check(record)

        monkeypatch.setattr(TaskRecord, "__post_init__", counting)
        return built

    def test_job_level_slos_build_no_records(self, monkeypatch):
        scenario, workload = self._steady()
        built = self._count_builds(monkeypatch)
        model = WhatIfModel(scenario.cluster, scenario.slos, [workload])
        model.evaluate(scenario.initial_config)
        # Job-level QS with no named tenant read job records only, too.
        anyone = SLOSet([throughput_slo(None), *scenario.slos])
        WhatIfModel(scenario.cluster, anyone, [workload]).evaluate(
            scenario.initial_config
        )
        assert built[0] == 0
        schedule = model.predict_schedules(scenario.initial_config)[0]
        assert len(schedule.task_records) == built[0] > 0

    def test_task_level_slos_keep_their_values(self):
        scenario, workload = self._steady()
        slos = SLOSet(
            [
                *scenario.slos,
                utilization_slo(0.5),
                utilization_slo(0.3, tenant="besteffort", pool="map"),
                fairness_slo("deadline", 0.4),
                throughput_slo("besteffort"),
            ]
        )
        qs = WhatIfModel(scenario.cluster, slos, [workload]).evaluate(
            scenario.initial_config
        )
        # Recorded from the predictor that built every record eagerly.
        assert [float(v) for v in qs] == [
            0.0,
            1705.0489625303312,
            -0.605889664098079,
            -0.35873312447876265,
            0.2772912440680676,
            -78.0,
        ]

    def test_emitting_a_disordered_attempt_raises(self, small_cluster):
        workload = Workload([single_stage_job("A", 0.0, [10.0], job_id="j")])
        config = RMConfig({"A": TenantConfig()})
        run = _PredictorRun(small_cluster, FairSharePolicy(), workload, config)
        pool = run.pool_index["slots"]
        spec = workload[0].stages[0].tasks[0]
        for ready, start, now in ((10.0, 5.0, 20.0), (0.0, 30.0, 20.0)):
            task = _Task(JobRun(workload[0]), spec, "s", pool, 0, ready)
            task.start_time = start
            pool.running[0] = {task: None}
            with pytest.raises(ValueError, match="submit <= start <= finish"):
                run._stop(task, now, preempted=False)
        assert run.task_rows == []

    def test_a_disordered_row_raises_when_read(self, small_cluster):
        row = ("j", "t", "A", "slots", "s", 10.0, 5.0, 20.0, 1, False, False, 0)
        schedule = TaskSchedule([row], [], cluster=small_cluster, horizon=20.0)
        with pytest.raises(ValueError, match="submit <= start <= finish"):
            schedule.task_records


class TestDirtyPools:
    """A pool no event touches is skipped — never at the cost of its schedule."""

    CONFIG = RMConfig(
        {
            "A": TenantConfig(),
            "B": TenantConfig(
                min_share={"slots": 5}, min_share_preemption_timeout=60.0
            ),
            "C": TenantConfig(),
        }
    )

    def _starved_workload(self):
        # "slots": B starves behind A from t=5, no event there until A
        # finishes at 500.  "side": C's tasks finish around, never at, the
        # preemption deadline t=65.
        side = [TaskSpec(f"c/{i}", d, pool="side") for i, d in enumerate((64.5, 65.5))]
        return Workload(
            [
                single_stage_job("A", 0.0, [500.0] * 10, job_id="a"),
                single_stage_job("B", 5.0, [100.0] * 5, job_id="b"),
                JobSpec("c", "C", 0.0, (StageSpec("s", tuple(side)),)),
            ]
        )

    def test_deadline_fires_in_a_pool_without_events(self):
        cluster = ClusterSpec({"slots": 10, "side": 2})
        s = SchedulePredictor(cluster).predict(self._starved_workload(), self.CONFIG)
        killed = [r for r in s.task_records if r.preempted]
        assert len(killed) == 5
        assert {(r.pool, r.tenant, r.finish_time) for r in killed} == {("slots", "A", 65.0)}

    def test_kill_is_followed_by_the_relaunch_pass(self):
        cluster = ClusterSpec({"slots": 10, "side": 2})
        s = SchedulePredictor(cluster).predict(self._starved_workload(), self.CONFIG)
        # The freed containers go to B at the kill instant itself, and
        # the victims restart the moment B's tasks finish.
        assert {r.start_time for r in s.task_records if r.tenant == "B"} == {65.0}
        retries = [r for r in s.task_records if r.tenant == "A" and r.attempt == 1]
        assert {(r.submit_time, r.start_time) for r in retries} == {(0.0, 165.0)}

    def test_stage_release_dirties_the_downstream_pool(self, mr_cluster):
        # The reduce pool is rescheduled at t=0 (B's reduce-only job) and
        # then sees no event of its own: A's map finishing at t=10 in the
        # map pool must launch A's reduce in that same instant.
        reduce_only = JobSpec(
            "b", "B", 0.0, (StageSpec("reduce", (TaskSpec("b/r0", 3.0, "reduce"),)),)
        )
        w = Workload(
            [reduce_only, mapreduce_job("A", 0.0, [10.0, 10.0], [5.0], job_id="mr")]
        )
        s = predict(mr_cluster, w)
        reduce = [r for r in s.task_records if r.job_id == "mr" and r.stage == "reduce"]
        assert [(r.submit_time, r.start_time) for r in reduce] == [(10.0, 10.0)]

    def test_target_cache_is_per_pool(self):
        # Both pools see the demand vector (3, 3) at t=0; a cache shared
        # between them would hand one pool the other's shares.
        cluster = ClusterSpec({"big": 6, "small": 3})
        config = RMConfig({"A": TenantConfig(weight=2.0), "B": TenantConfig()})
        jobs = [
            JobSpec(
                f"j{t}",
                t,
                0.0,
                tuple(
                    StageSpec(pool, tuple(TaskSpec(f"{t}/{pool}{i}", 10.0, pool) for i in range(3)))
                    for pool in ("big", "small")
                ),
            )
            for t in "AB"
        ]
        run = _PredictorRun(cluster, FairSharePolicy(), Workload(jobs), config)
        schedule = run.execute()
        big, small = run.pools
        assert big.targets[(3, 3)][1] == [3, 3]
        assert small.targets[(3, 3)][1] == [2, 1]
        for pool in run.pools:
            kernel = FairSharePolicy().demand_kernel(
                pool.name, pool.capacity, run.tenants, config
            )
            for key, (active, targets) in pool.targets.items():
                assert [targets[i] for i in active] == kernel.shares(
                    active, [key[i] for i in active]
                )
        started = [(r.pool, r.tenant) for r in schedule.task_records if r.start_time == 0.0]
        assert sorted(started) == (
            [("big", "A")] * 3 + [("big", "B")] * 3 + [("small", "A")] * 2 + [("small", "B")]
        )
