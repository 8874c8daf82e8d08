"""Tests for the decision plane (repro.core.decisions).

Covers the guard pipeline's construction and verdict combination, the
DecisionRecord codec (bit-exact round trip), the legacy pipeline's wire
format (byte-compatible with the pre-decision-plane journal), the
predictive guard's load-normalized behavior (identical verdicts to
legacy on a stationary stream for N ∈ {1, 4} shards, churn-free under
the adversarial scenario, still reverting genuine sabotage), the freeze
churn breaker, decision durability through journal → snapshot → resume,
and the RM-callback-log converter round trip.
"""

import json
import math

import numpy as np
import pytest

from repro.core.decisions import (
    VERDICT_ACCEPT,
    VERDICT_FREEZE,
    VERDICT_HOLD,
    VERDICT_REVERT,
    VERDICTS,
    DecisionEngine,
    DecisionRecord,
    Guard,
    GuardVote,
    LegacyRevertGuard,
    PredictiveGuard,
    RevertSignals,
    SparsityGuard,
    StabilityGuard,
    TickSignals,
    verdict_counts,
)
from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import Heartbeat, JobCompleted, JobSubmitted, TaskCompleted
from repro.service.replay import (
    ScenarioReplayer,
    build_controller,
    build_service,
    convert_rm_log,
    dump_trace_events,
    events_from_trace,
    load_trace_events,
    make_scenario,
    replay_trace,
)
from repro.service.snapshot import ServiceState
from repro.slo.qs import normalized_residual, worst_residual
from repro.workload.trace import JobRecord, TaskRecord, Trace


def stationary_stream(horizon=7200.0, seed=1, heartbeat=450.0):
    """A genuinely steady telemetry stream: stable rates and durations.

    Unlike the catalog scenarios (whose production noise makes the
    observed-vs-observed guard churn), this stream's QS is stationary
    window to window, so both revert guards should agree everywhere —
    the property-test workload.
    """
    rng = np.random.default_rng(seed)
    events = []
    t, i = 5.0, 0
    while t < horizon - 300:
        for tenant in ("deadline", "besteffort"):
            job_id = f"{tenant}-{i}"
            dur = float(rng.lognormal(np.log(40), 0.2))
            resp = max(5.0, float(rng.normal(120.0, 6.0)))
            deadline = t + 1200.0 if tenant == "deadline" else None
            events.append(
                JobSubmitted(t, tenant=tenant, job_id=job_id, deadline=deadline)
            )
            record = TaskRecord(
                job_id, f"{job_id}/t0", tenant, "map", "map", t, t + 2.0, t + 2.0 + dur
            )
            events.append(TaskCompleted(record.finish_time, record=record))
            jrec = JobRecord(
                job_id, tenant, t, t + resp, deadline=deadline, num_tasks=1
            )
            events.append(JobCompleted(jrec.finish_time, record=jrec))
        t += float(rng.exponential(25.0))
        i += 1
    tick = heartbeat
    while tick <= horizon:
        events.append(Heartbeat(float(tick)))
        tick += heartbeat
    events.sort(key=lambda e: (e.time, e.__class__.__name__))
    return events


def verdict_sequence(summary):
    """Accept/revert/hold sequence of a replay's decisions."""
    out = []
    for d in summary.decisions:
        if not d.retuned:
            out.append("hold")
        elif d.iteration is not None and d.iteration.reverted:
            out.append("revert")
        else:
            out.append("accept")
    return out


class TestEngineConstruction:
    def test_default_spec_is_legacy_stack(self):
        engine = DecisionEngine.from_spec(None)
        assert [g.name for g in engine.guards] == ["sparsity", "stability", "legacy"]
        assert engine.legacy
        assert not engine.emit_records
        assert not engine.wants_prediction

    def test_predictive_spec_expands_full_stack(self):
        engine = DecisionEngine.from_spec("predictive")
        assert [g.name for g in engine.guards] == [
            "sparsity",
            "stability",
            "predictive",
        ]
        assert not engine.legacy
        assert engine.emit_records
        assert engine.wants_prediction

    def test_explicit_list_taken_literally(self):
        engine = DecisionEngine.from_spec("predictive,stability")
        assert [g.name for g in engine.guards] == ["stability", "predictive"]

    def test_freeze_after_breaks_legacy_wire_format(self):
        assert DecisionEngine.from_spec("legacy").legacy
        assert not DecisionEngine.from_spec("legacy", freeze_after=3).legacy

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown guard"):
            DecisionEngine.from_spec("psychic")
        with pytest.raises(ValueError, match="at most one revert guard"):
            DecisionEngine.from_spec("legacy,predictive")
        with pytest.raises(ValueError, match="duplicate"):
            DecisionEngine.from_spec("stability,stability")
        with pytest.raises(ValueError, match="freeze_after"):
            DecisionEngine.from_spec("legacy", freeze_after=0)

    def test_verdict_vocabulary(self):
        assert VERDICTS == ("accept", "revert", "hold", "freeze")


class TestTickPhase:
    def _signals(self, **kwargs):
        defaults = dict(
            time=900.0,
            index=0,
            jobs=10,
            min_jobs=5,
            force=False,
            first=False,
            drift_threshold=0.02,
            drift_fn=lambda: 0.5,
        )
        defaults.update(kwargs)
        return TickSignals(**defaults)

    def test_empty_window_always_held(self):
        engine = DecisionEngine([])  # no guards at all
        tick = engine.tick(self._signals(jobs=0))
        assert not tick.proceed and tick.reason == "sparse"

    def test_sparse_then_stable_then_drift(self):
        engine = DecisionEngine.from_spec("legacy")
        assert engine.tick(self._signals(jobs=3)).reason == "sparse"
        stable = engine.tick(self._signals(drift_fn=lambda: 0.001))
        assert not stable.proceed and stable.reason == "stable"
        assert stable.drift == pytest.approx(0.001)
        drifted = engine.tick(self._signals(drift_fn=lambda: 0.5))
        assert drifted.proceed and drifted.reason == "drift"
        assert drifted.drift == pytest.approx(0.5)

    def test_first_and_forced_bypass_stability(self):
        engine = DecisionEngine.from_spec("legacy")
        first = engine.tick(self._signals(first=True, drift_fn=lambda: 0.0))
        assert first.proceed and first.reason == "initial"
        assert math.isinf(first.drift)
        forced = engine.tick(self._signals(force=True, drift_fn=lambda: 0.0))
        assert forced.proceed and forced.reason == "forced"

    def test_disabled_sparsity_keeps_empty_window_floor(self):
        engine = DecisionEngine.from_spec("predictive,stability")
        assert engine.tick(self._signals(jobs=0)).reason == "sparse"
        # min_jobs floor is off: 3 < 5 jobs still proceeds.
        assert engine.tick(self._signals(jobs=3)).proceed


class TestRecordCodec:
    def _record(self):
        return DecisionRecord(
            index=7,
            time=6300.0,
            verdict=VERDICT_REVERT,
            votes=(
                GuardVote("stability", VERDICT_ACCEPT, "drift", 0.4),
                GuardVote("predictive", VERDICT_REVERT, "config-regression", 0.31),
                GuardVote("freeze", VERDICT_FREEZE, "revert-churn", math.inf),
            ),
            predicted=(1.5, -2.0),
            observed=(2.5, -1.0),
            normalized=(2.4, -1.1),
            reference=(1.9, -1.4),
            residual=0.66,
        )

    def test_round_trip_bit_identical(self):
        record = self._record()
        rebuilt = DecisionRecord.from_dict(record.to_dict())
        assert rebuilt == record
        # And the dict form is stable through a JSON round trip.
        assert (
            DecisionRecord.from_dict(json.loads(json.dumps(record.to_dict())))
            == record
        )

    def test_infinities_survive(self):
        record = DecisionRecord(
            index=0,
            time=None,
            verdict=VERDICT_HOLD,
            predicted=(math.inf, -math.inf, 1.0),
            residual=math.inf,
        )
        rebuilt = DecisionRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record

    def test_verdict_counts(self):
        records = [self._record(), None, DecisionRecord(0, None, VERDICT_HOLD)]
        assert verdict_counts(records) == {"revert": 1, "hold": 1}


class TestResidualHelpers:
    def test_normalized_residual_sign_convention(self):
        res = normalized_residual([2.0, 1.0], [1.0, 2.0])
        assert res[0] > 0  # worse than reference
        assert res[1] < 0  # better than reference

    def test_worst_residual_scalar(self):
        # Symmetric normalization: (2 - 1) / ((2 + 1) / 2) = 2/3.
        assert worst_residual([2.0, 1.0], [1.0, 2.0]) == pytest.approx(
            2.0 / 3.0, abs=1e-6
        )

    def test_zero_against_zero_is_zero(self):
        assert worst_residual([0.0], [0.0]) == 0.0
        assert abs(worst_residual([0.3], [0.0])) <= 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            normalized_residual([1.0], [1.0, 2.0])


class TestFreezeBreaker:
    class _AlwaysRevert(Guard):
        """Votes revert whenever a revert target exists (test stub)."""

        name = "always-revert"

        def revert_vote(self, signals):
            if signals.prev is None:
                return None
            return GuardVote(self.name, VERDICT_REVERT, "forced")

    def _signals(self, prev="baseline"):
        return RevertSignals(
            index=0,
            config=None,
            prev=None if prev is None else (None, np.array([1.0]), None),
            observed=np.array([1.0]),
            smoothed=np.array([1.0]),
            predicted=None,
            evaluate=lambda config: np.array([1.0]),
            revert_mode="regression",
            tol=0.05,
        )

    def test_freeze_after_consecutive_reverts(self):
        engine = DecisionEngine([self._AlwaysRevert()], freeze_after=2)
        verdicts = [engine.judge(self._signals()).verdict for _ in range(4)]
        assert verdicts == ["revert", "revert", "freeze", "freeze"]
        assert engine.reverts_in_row == 4

    def test_accept_resets_fuse(self):
        engine = DecisionEngine([LegacyRevertGuard()], freeze_after=1)
        engine.reverts_in_row = 5
        signals = self._signals(prev=None)  # no baseline -> accept
        assert engine.judge(signals).verdict == VERDICT_ACCEPT
        assert engine.reverts_in_row == 0

    def test_freeze_keeps_controller_config_fixed(self):
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        controller = build_controller(scenario, seed=0)
        controller.engine = DecisionEngine([self._AlwaysRevert()], freeze_after=1)
        stream = stationary_stream(horizon=2400.0)
        service = TempoService(
            controller,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
        )
        replay_trace(service, stream[: len(stream) // 2])
        # Prime a baseline, then every subsequent tick reverts/freezes.
        controller._prev = (
            controller.config,
            np.array([0.0, 0.0]),
            controller.x.copy(),
        )
        x_before = controller.x.copy()
        replay_trace(service, stream[len(stream) // 2 :])
        frozen = [
            d
            for d in service.decisions
            if d.record is not None and d.record.verdict == VERDICT_FREEZE
        ]
        assert frozen, "freeze verdicts expected after consecutive reverts"
        np.testing.assert_allclose(controller.x, x_before)


class TestLegacyWireFormat:
    """`--guards legacy` keeps the PR 4 decision wire format exactly."""

    _PR4_KEYS = {"time", "index", "retuned", "reason", "drift", "latency"}

    def _durable_run(self, tmp_path, guards, name):
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        state = ServiceState(tmp_path / name)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=3,
            state=state,
            guards=guards,
        )
        ScenarioReplayer(
            scenario, service, seed=3, continuous=True, verify_stats=False
        ).run()
        service.close()
        return state

    def test_legacy_journal_rows_have_pr4_shape(self, tmp_path):
        state = self._durable_run(tmp_path, "legacy", "legacy")
        rows = 0
        for record in state.journal.iter_records():
            if record.kind == "decision":
                assert set(record.data) == self._PR4_KEYS
                rows += 1
            elif record.kind == "config":
                assert set(record.data["decision"]) == self._PR4_KEYS
                assert "predicted" not in record.data["controller"]
                assert "guards" not in record.data["controller"]
                rows += 1
        assert rows > 0
        state.close()

    def test_predictive_journal_rows_carry_records(self, tmp_path):
        state = self._durable_run(tmp_path, "predictive", "predictive")
        carried = 0
        for record in state.journal.iter_records():
            if record.kind in ("decision", "config"):
                data = (
                    record.data
                    if record.kind == "decision"
                    else record.data["decision"]
                )
                assert "record" in data
                assert data["record"]["verdict"] in VERDICTS
                carried += 1
        assert carried > 0
        state.close()

    def test_legacy_decision_sequence_matches_default_pipeline(self, tmp_path):
        """An explicitly-built legacy engine and the default spec journal
        the same decision and config records (same scenario, same seed)."""
        a = self._durable_run(tmp_path, "legacy", "a")
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        state_b = ServiceState(tmp_path / "b")
        engine = DecisionEngine(
            [SparsityGuard(), StabilityGuard(), LegacyRevertGuard()]
        )
        controller = build_controller(scenario, seed=3, guards=engine)
        service = TempoService(
            controller,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            state=state_b,
        )
        ScenarioReplayer(
            scenario, service, seed=3, continuous=True, verify_stats=False
        ).run()
        service.close()
        rows_a = [
            (r.kind, {k: v for k, v in _payload(r).items() if k != "latency"})
            for r in a.journal.iter_records()
            if r.kind in ("decision", "config")
        ]
        rows_b = [
            (r.kind, {k: v for k, v in _payload(r).items() if k != "latency"})
            for r in state_b.journal.iter_records()
            if r.kind in ("decision", "config")
        ]
        assert rows_a == rows_b
        a.close()
        state_b.close()


def _payload(record):
    """The decision half of a decision/config journal record."""
    return record.data if record.kind == "decision" else record.data["decision"]


class TestSteadyParityProperty:
    """Satellite property: on a steady workload the predictive guard's
    accept/revert verdicts equal the legacy guard's for N ∈ {1, 4}
    shards."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_verdicts_identical_on_stationary_stream(self, shards):
        stream = stationary_stream()
        sequences = {}
        for guards in ("legacy", "predictive"):
            scenario = make_scenario("steady", scale=1.0)
            service = build_service(
                scenario,
                ServiceConfig(
                    window=900.0, retune_interval=450.0, min_window_jobs=3
                ),
                seed=0,
                guards=guards,
                shards=shards,
            )
            summary = replay_trace(service, list(stream))
            sequences[guards] = verdict_sequence(summary)
            service.close()
        assert sequences["legacy"] == sequences["predictive"]
        assert "accept" in sequences["legacy"]

    def test_shard_count_does_not_change_predictive_verdicts(self):
        stream = stationary_stream()
        per_shards = {}
        for shards in (1, 4):
            scenario = make_scenario("steady", scale=1.0)
            service = build_service(
                scenario,
                ServiceConfig(
                    window=900.0, retune_interval=450.0, min_window_jobs=3
                ),
                seed=0,
                guards="predictive",
                shards=shards,
            )
            per_shards[shards] = verdict_sequence(replay_trace(service, list(stream)))
            service.close()
        assert per_shards[1] == per_shards[4]


class TestPredictiveGuardBehavior:
    def test_adversarial_scenario_churns_legacy_not_predictive(self):
        """Satellite: the SLO-gaming tenant makes the observed-vs-
        observed guard churn while the predictive guard holds steady."""
        results = {}
        for guards in ("legacy", "predictive"):
            scenario = make_scenario("adversarial", scale=1.5, horizon=7200.0)
            service = build_service(
                scenario,
                ServiceConfig(
                    window=1800.0, retune_interval=900.0, min_window_jobs=3
                ),
                seed=0,
                guards=guards,
                revert_windows=1,
            )
            results[guards] = ScenarioReplayer(
                scenario, service, seed=0, continuous=True, verify_stats=False
            ).run()
        assert results["legacy"].reverts >= 3, "premise: legacy guard churns"
        assert results["predictive"].reverts <= results["legacy"].reverts // 3
        holds = [
            d.record
            for d in results["predictive"].decisions
            if d.retuned and d.record is not None and d.record.verdict == "hold"
        ]
        assert holds, "workload-driven regressions must be recorded as holds"
        assert any(
            vote.reason == "workload-drift"
            for record in holds
            for vote in record.votes
        )

    def test_predictive_still_reverts_sabotage(self):
        """Load normalization must not cost genuine robustness: a
        pathological configuration applied behind the tuner's back is
        still rolled back."""
        from repro.rm.config import RMConfig, TenantConfig
        from repro.core.controller import windows_from_model
        from repro.workload.synthetic import (
            BEST_EFFORT_TENANT,
            DEADLINE_TENANT,
            two_tenant_model,
        )

        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        controller = build_controller(
            scenario, seed=0, guards="predictive", candidates=4
        )
        windows = windows_from_model(two_tenant_model(), 1800.0, 4, seed=3)
        reverted = []
        for i, window in enumerate(windows):
            record = controller.run_iteration(i, window)
            reverted.append(record.reverted)
            if i % 2 == 0:
                bad = RMConfig(
                    {
                        DEADLINE_TENANT: TenantConfig(weight=8.0),
                        BEST_EFFORT_TENANT: TenantConfig(
                            weight=0.25, max_share={"map": 2, "reduce": 1}
                        ),
                    }
                )
                controller.config = bad
                controller.x = controller.space.encode(bad)
        assert any(reverted[1::2]), "sabotaged configs must still revert"
        assert controller.last_decision is not None

    def test_decision_records_expose_prediction_chain(self):
        stream = stationary_stream(horizon=5400.0)
        scenario = make_scenario("steady", scale=1.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=0,
            guards="predictive",
        )
        summary = replay_trace(service, stream)
        tuned = [d for d in summary.decisions if d.retuned]
        assert all(d.record is not None for d in summary.decisions)
        later = [d for d in tuned if d.record.predicted is not None]
        assert later, "selection-time predictions must be retained"
        judged = [d for d in tuned if d.record.reference is not None]
        assert judged, "the revert target must be re-evaluated"
        for d in judged:
            assert d.record.normalized is not None
            assert len(d.record.normalized) == len(d.record.reference)
        assert any(d.record.residual is not None for d in tuned)

    def test_on_decision_listener_sees_every_tick(self):
        stream = stationary_stream(horizon=3600.0)
        scenario = make_scenario("steady", scale=1.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=0,
            guards="predictive",
        )
        seen = []
        service.on_decision(seen.append)
        summary = replay_trace(service, stream)
        assert len(seen) == len(summary.decisions)
        assert all(event.verdict in VERDICTS for event in seen)
        assert all(event.record is not None for event in seen)


class TestDecisionDurability:
    """Satellite: DecisionRecords survive journal → snapshot → resume
    bit-identically."""

    def _drive(self, tmp_path, kill_fraction=0.6):
        scenario = make_scenario("steady", scale=1.0, horizon=5400.0)
        state = ServiceState(tmp_path / "state")
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
            seed=3,
            state=state,
            guards="predictive",
            freeze_after=4,
        )
        stream = stationary_stream(horizon=5400.0)
        cut = int(len(stream) * kill_fraction)
        replay_trace(service, stream[:cut])
        return scenario, state, service, stream, cut

    def test_records_round_trip_resume(self, tmp_path):
        scenario, state, live, stream, cut = self._drive(tmp_path)
        live_rows = [
            None if d.record is None else d.record.to_dict()
            for d in live.decisions
        ]
        assert any(row is not None for row in live_rows)
        predicted = live.controller._predicted
        live.close()
        state.close()

        state2 = ServiceState(tmp_path / "state")
        controller = build_controller(
            scenario, seed=3, guards="predictive", freeze_after=4
        )
        resumed = TempoService.resume(
            controller,
            state2,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
        )
        resumed_rows = [
            None if d.record is None else d.record.to_dict()
            for d in resumed.decisions
        ]
        assert resumed_rows == live_rows
        if predicted is not None:
            np.testing.assert_array_equal(controller._predicted, predicted)
        assert controller.engine.reverts_in_row == live.controller.engine.reverts_in_row
        resumed.close()
        state2.close()

    def test_resumed_daemon_continues_judging(self, tmp_path):
        scenario, state, live, stream, cut = self._drive(tmp_path)
        live.close()
        state.close()
        state2 = ServiceState(tmp_path / "state")
        controller = build_controller(
            scenario, seed=3, guards="predictive", freeze_after=4
        )
        resumed = TempoService.resume(
            controller,
            state2,
            ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
        )
        before = len(resumed.decisions)
        replay_trace(resumed, stream[cut:])
        after = [d for d in list(resumed.decisions)[before:]]
        assert after, "the resumed daemon must keep deciding"
        assert all(d.record is not None for d in after)
        resumed.close()
        state2.close()


class TestConverterRoundTrip:
    """Satellite: real RM callback logs -> service trace files."""

    def _fixture_trace(self):
        tasks, jobs = [], []
        t = 0.0
        for i in range(12):
            tenant = "deadline" if i % 2 == 0 else "besteffort"
            job_id = f"j{i}"
            deadline = t + 500.0 if tenant == "deadline" else None
            tasks.append(
                TaskRecord(
                    job_id,
                    f"{job_id}/t0",
                    tenant,
                    "map",
                    "map",
                    t,
                    t + 3.0,
                    t + 3.0 + 40.0 + i,
                )
            )
            jobs.append(
                JobRecord(
                    job_id,
                    tenant,
                    t,
                    t + 80.0 + i,
                    deadline=deadline,
                    num_tasks=1,
                )
            )
            t += 60.0
        return Trace(tasks, jobs, capacity={"map": 16, "reduce": 12}, horizon=900.0)

    def test_round_trip_through_fixture_log(self, tmp_path):
        trace = self._fixture_trace()
        log = tmp_path / "callbacks.jsonl"
        log.write_text(trace.to_jsonl())
        out = tmp_path / "events.jsonl"
        count = convert_rm_log(log, out, heartbeat_interval=300.0)
        events = load_trace_events(out)
        assert len(events) == count
        # Every callback survives: submissions, task and job completions.
        submits = [e for e in events if isinstance(e, JobSubmitted)]
        task_records = [e.record for e in events if isinstance(e, TaskCompleted)]
        job_records = [e.record for e in events if isinstance(e, JobCompleted)]
        assert len(submits) == len(trace.job_records)
        assert sorted(task_records, key=lambda r: r.task_id) == sorted(
            trace.task_records, key=lambda r: r.task_id
        )
        assert sorted(job_records, key=lambda r: r.job_id) == sorted(
            trace.job_records, key=lambda r: r.job_id
        )
        # Heartbeats cover the log's span, including the closing one.
        beats = [e.time for e in events if isinstance(e, Heartbeat)]
        assert beats and beats[-1] >= 900.0
        # Events arrive in delivery order.
        assert all(a.time <= b.time for a, b in zip(events, events[1:]))

    def test_converted_log_replays_through_the_service(self, tmp_path):
        trace = self._fixture_trace()
        log = tmp_path / "callbacks.jsonl"
        log.write_text(trace.to_jsonl())
        out = tmp_path / "events.jsonl"
        convert_rm_log(log, out, heartbeat_interval=300.0)
        scenario = make_scenario("steady", scale=1.0)
        service = build_service(
            scenario,
            ServiceConfig(window=900.0, retune_interval=300.0, min_window_jobs=3),
            seed=0,
            guards="predictive",
        )
        summary = replay_trace(service, load_trace_events(out))
        assert summary.jobs_completed == len(trace.job_records)
        assert summary.tasks == len(trace.task_records)
        assert summary.decisions, "heartbeats must drive the cadence"

    def test_events_from_trace_without_heartbeats(self):
        trace = self._fixture_trace()
        events = events_from_trace(trace)
        assert not any(isinstance(e, Heartbeat) for e in events)

    def test_bad_heartbeat_interval_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            events_from_trace(self._fixture_trace(), heartbeat_interval=0.0)

    def test_dump_load_round_trip_keeps_events(self, tmp_path):
        trace = self._fixture_trace()
        events = events_from_trace(trace, heartbeat_interval=450.0)
        path = tmp_path / "events.jsonl"
        dump_trace_events(events, path)
        assert load_trace_events(path) == events
