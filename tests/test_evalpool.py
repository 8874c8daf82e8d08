"""Tests for the what-if evaluation plane (:mod:`repro.whatif.evalpool`).

The load-bearing property: the evaluation *backend* must be invisible.
Serial, fork-pooled, and memo-warmed evaluation of the same candidate
pool must return identical objective vectors (to 1e-12 — in practice
bit-identical, since the predictor is deterministic and the memo stores
the arrays it computed), and nothing the plane does — deduplication,
cross-retune cache hits, pooling — may inflate the simulation counters
PALD and the journal report.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pald import PALD
from repro.rm.cluster import ClusterSpec
from repro.rm.config import ConfigSpace
from repro.slo.objectives import SLOSet
from repro.slo.templates import deadline_slo, response_time_slo
from repro.whatif import CandidateEvaluator, WhatIfModel, workload_signature
from repro.whatif.model import _config_key
from repro.workload.model import Workload, single_stage_job


def _slos():
    return SLOSet(
        [
            deadline_slo("A", max_violation_fraction=0.1, slack=0.0),
            response_time_slo("B"),
        ]
    )


def _workloads(replicas=2, seed=0):
    """``replicas`` small deterministic workload replicas."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(replicas):
        out.append(
            Workload(
                [
                    single_stage_job(
                        "A",
                        0.0,
                        [float(rng.uniform(8.0, 14.0))] * 2,
                        job_id=f"a{r}",
                        deadline=30.0,
                    ),
                    single_stage_job(
                        "B",
                        float(rng.uniform(0.0, 5.0)),
                        [float(rng.uniform(15.0, 22.0))] * 2,
                        job_id=f"b{r}",
                    ),
                ]
            )
        )
    return out


def _problem(replicas=2, seed=0):
    """(model, space) over a tiny two-tenant cluster."""
    cluster = ClusterSpec({"slots": 4})
    model = WhatIfModel(cluster, _slos(), _workloads(replicas, seed))
    space = ConfigSpace(cluster, ["A", "B"])
    return model, space


def _fresh_model_like(model):
    return WhatIfModel(model.cluster, model.slos, model.workloads)


class TestParity:
    """Serial == pooled == memo-warm, over random pools and replicas."""

    def test_pooled_matches_serial_bitwise(self):
        model, space = _problem()
        rng = np.random.default_rng(3)
        batch = [rng.uniform(size=space.dim) for _ in range(6)]
        batch.append(batch[2].copy())  # in-batch duplicate

        serial = CandidateEvaluator(workers=0).bind(model, space)
        expected = serial.evaluate_batch(batch)

        pooled = CandidateEvaluator(workers=2).bind(
            _fresh_model_like(model), space
        )
        got = pooled.evaluate_batch(batch)
        assert got.sim_runs == expected.sim_runs == 6
        for want, have in zip(expected.vectors, got.vectors):
            assert np.array_equal(want, have)

    def test_memo_warm_matches_serial_bitwise(self):
        model, space = _problem()
        rng = np.random.default_rng(4)
        batch = [rng.uniform(size=space.dim) for _ in range(5)]
        evaluator = CandidateEvaluator(workers=0)
        expected = evaluator.bind(model, space).evaluate_batch(batch)

        warm = evaluator.bind(_fresh_model_like(model), space)
        got = warm.evaluate_batch(batch)
        assert got.sim_runs == 0  # everything served from the memo
        for want, have in zip(expected.vectors, got.vectors):
            assert np.array_equal(want, have)

    @settings(max_examples=15, deadline=None)
    @given(
        pool=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
            ),
            min_size=1,
            max_size=5,
        ),
        replicas=st.integers(min_value=1, max_value=3),
        workers=st.sampled_from([0, 2]),
    )
    def test_backend_invariance_property(self, pool, replicas, workers):
        """Random pools: every backend within 1e-12 of fresh serial."""
        model, space = _problem(replicas=replicas)
        batch = [np.asarray(x, dtype=float)[: space.dim] for x in pool]
        batch = [
            np.pad(x, (0, space.dim - len(x))) if len(x) < space.dim else x
            for x in batch
        ]
        reference = (
            CandidateEvaluator(workers=0).bind(model, space).evaluate_batch(batch)
        )

        evaluator = CandidateEvaluator(workers=workers)
        cold = evaluator.bind(_fresh_model_like(model), space).evaluate_batch(batch)
        warm = evaluator.bind(_fresh_model_like(model), space).evaluate_batch(batch)
        assert warm.sim_runs == 0
        for want, have_cold, have_warm in zip(
            reference.vectors, cold.vectors, warm.vectors
        ):
            np.testing.assert_allclose(have_cold, want, atol=1e-12, rtol=0)
            np.testing.assert_allclose(have_warm, want, atol=1e-12, rtol=0)

    def test_pald_trajectory_identical_across_backends(self):
        """Full PALD runs agree step-for-step on every backend."""

        def run(workers, warm_owner=None):
            model, space = _problem()
            owner = warm_owner or CandidateEvaluator(workers=workers)
            bound = owner.bind(model, space)
            opt = PALD(
                space, bound, model.slos.thresholds(), seed=11, candidates=4
            )
            result = opt.optimize(np.full(space.dim, 0.5), iterations=3)
            return result, owner

        serial, owner = run(0)
        pooled, _ = run(2)
        warmed, _ = run(0, warm_owner=owner)  # memo filled by the serial run
        np.testing.assert_array_equal(serial.trajectory(), pooled.trajectory())
        np.testing.assert_array_equal(serial.trajectory(), warmed.trajectory())
        np.testing.assert_array_equal(serial.x, pooled.x)
        np.testing.assert_array_equal(serial.x, warmed.x)
        # The memo-warmed rerun resimulated nothing, yet reported the
        # same trajectory — and its evaluation count says so honestly.
        assert warmed.total_evaluations == 0
        assert serial.total_evaluations == pooled.total_evaluations > 0


class TestCounting:
    """Dedup and cache hits must never inflate simulation counters."""

    def test_in_batch_duplicates_deduped(self):
        model, space = _problem()
        x = np.full(space.dim, 0.25)
        batch = [x, x.copy(), np.full(space.dim, 0.75), x.copy()]
        result = CandidateEvaluator(workers=0).bind(model, space).evaluate_batch(batch)
        assert result.sim_runs == 2
        assert result.hits == 2
        assert model.evaluations == 2  # the sim-run counter agrees
        assert np.array_equal(result.vectors[0], result.vectors[1])
        assert np.array_equal(result.vectors[0], result.vectors[3])

    def test_pald_total_evaluations_counts_sim_runs(self):
        model, space = _problem()
        evaluator = CandidateEvaluator(workers=0)
        bound = evaluator.bind(model, space)
        opt = PALD(space, bound, model.slos.thresholds(), seed=2, candidates=4)
        result = opt.optimize(np.full(space.dim, 0.5), iterations=4)
        # Pool entries >= simulations (revisited incumbents dedupe), and
        # the reported count is exactly what the model executed.
        assert result.total_evaluations == model.evaluations
        assert evaluator.sim_runs == model.evaluations

    def test_evaluate_singletons_share_model_cache(self):
        model, space = _problem()
        bound = CandidateEvaluator(workers=0).bind(model, space)
        x = np.full(space.dim, 0.4)
        first = bound(x)
        again = bound(x)
        assert np.array_equal(first, again)
        assert model.evaluations == 1


class TestMemo:
    """Cross-retune LRU: bounded, scoped by workload signature."""

    def test_lru_evicts_oldest(self):
        model, space = _problem()
        evaluator = CandidateEvaluator(workers=0, cache_size=2)
        bound = evaluator.bind(model, space)
        configs = [np.full(space.dim, v) for v in (0.1, 0.5, 0.9)]
        for x in configs:
            bound.evaluate_batch([x])
        assert len(evaluator) == 2
        oldest = _config_key(space.decode(configs[0]))
        assert evaluator.memo_get(bound.signature, oldest) is None
        newest = _config_key(space.decode(configs[2]))
        assert evaluator.memo_get(bound.signature, newest) is not None

    def test_cache_size_zero_disables_memo_not_correctness(self):
        model, space = _problem()
        evaluator = CandidateEvaluator(workers=0, cache_size=0)
        x = np.full(space.dim, 0.3)
        first = evaluator.bind(model, space).evaluate_batch([x])
        second = evaluator.bind(_fresh_model_like(model), space).evaluate_batch([x])
        assert len(evaluator) == 0
        assert second.sim_runs == 1  # no memo to hit — re-simulated
        assert np.array_equal(first.vectors[0], second.vectors[0])

    def test_signature_scopes_memo_to_workload_window(self):
        model_a, space = _problem(seed=0)
        model_b, _ = _problem(seed=99)  # different window, same shape
        assert workload_signature(model_a) != workload_signature(model_b)
        evaluator = CandidateEvaluator(workers=0)
        x = np.full(space.dim, 0.5)
        evaluator.bind(model_a, space).evaluate_batch([x])
        crossed = evaluator.bind(model_b, space).evaluate_batch([x])
        assert crossed.sim_runs == 1  # no leakage across windows

    def test_memo_hits_do_not_inflate_model_evaluations(self):
        model, space = _problem()
        evaluator = CandidateEvaluator(workers=0)
        x = np.full(space.dim, 0.6)
        evaluator.bind(model, space).evaluate_batch([x])
        fresh = _fresh_model_like(model)
        evaluator.bind(fresh, space).evaluate_batch([x, x.copy()])
        assert fresh.evaluations == 0
        assert evaluator.hits >= 2


class TestServiceIntegration:
    """End-to-end: the pooled plane through the CLI/service surface."""

    def _replay(self, state_dir, workers):
        import io

        from repro.cli import main

        code = main(
            [
                "replay",
                "--scenario", "flash-crowd",
                "--horizon", "0.5",
                "--seed", "7",
                "--whatif-workers", str(workers),
                "--state-dir", str(state_dir),
            ],
            out=io.StringIO(),
        )
        assert code == 0

    def _journal_records(self, state_dir):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["dump-journal", "--state-dir", str(state_dir)], out=out) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_workers_flag_does_not_change_journal(self, tmp_path):
        """``--whatif-workers`` is a performance knob, not a behavior one.

        Every journaled record except wall-clock artifacts — the
        ``latency`` field (phase timing) and ``metrics`` records
        (histograms of those timings) — must be equal, record for
        record, between a serial and a pooled run of the same scenario
        and seed.
        """

        def comparable(record):
            if record.get("kind") == "metrics":
                return None
            data = dict(record.get("data", {}))
            data.pop("latency", None)
            if isinstance(data.get("decision"), dict):
                data = {**data, "decision": dict(data["decision"])}
                data["decision"].pop("latency", None)
            return {**record, "data": data}

        serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
        self._replay(serial_dir, workers=0)
        self._replay(pooled_dir, workers=2)
        serial = [r for r in map(comparable, self._journal_records(serial_dir)) if r]
        pooled = [r for r in map(comparable, self._journal_records(pooled_dir)) if r]
        assert serial == pooled
        assert len(serial) > 50  # the run actually journaled a stream

    def test_meta_persists_whatif_settings(self, tmp_path):
        self._replay(tmp_path / "s", workers=2)
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        assert meta["whatif_workers"] == 2
        assert meta["whatif_cache_size"] == 256

    def test_status_renders_retune_phase_table(self, tmp_path):
        import io

        from repro.cli import main

        self._replay(tmp_path / "s", workers=2)
        out = io.StringIO()
        assert main(["status", "--state-dir", str(tmp_path / "s")], out=out) == 0
        text = out.getvalue()
        assert "retune phases" in text
        for phase in ("drain", "guard", "merge", "whatif"):
            assert phase in text
        prom = io.StringIO()
        assert (
            main(
                ["status", "--state-dir", str(tmp_path / "s"), "--format", "prom"],
                out=prom,
            )
            == 0
        )
        assert any(
            line.startswith("tempo_retune_phase_seconds_bucket{")
            and 'phase="whatif"' in line
            for line in prom.getvalue().splitlines()
        )


_KILL_CHILD = textwrap.dedent(
    """
    import io, sys
    from repro.cli import main

    main(
        [
            "replay",
            "--scenario", "flash-crowd",
            "--horizon", "48",
            "--seed", "5",
            "--whatif-workers", "2",
            "--state-dir", sys.argv[1],
        ],
        out=io.StringIO(),
    )
    """
)


class TestKillDuringPooledWhatif:
    def test_kill9_mid_run_leaves_resumable_state(self, tmp_path):
        """SIGKILL with the fork pool in flight: ticks stay atomic.

        The pooled whatif phase commits nothing durable until the tick's
        decision record is journaled, so a kill -9 at an arbitrary point
        of a pooled run must leave a journal that parses cleanly and a
        state directory ``TempoService.resume`` accepts.
        """
        state_dir = tmp_path / "state"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
        }
        child = subprocess.Popen(
            [sys.executable, "-c", _KILL_CHILD, str(state_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            journal_dir = state_dir / "journal"
            deadline = time.monotonic() + 60.0
            # Wait until the run is past initialization and journaling
            # retune ticks, so the kill lands mid-stream.
            while time.monotonic() < deadline:
                segments = sorted(journal_dir.glob("*")) if journal_dir.exists() else []
                if segments and sum(p.stat().st_size for p in segments) > 4096:
                    break
                if child.poll() is not None:
                    pytest.fail(
                        "replay child exited before kill: "
                        + child.stderr.read().decode()
                    )
                time.sleep(0.05)
            else:
                pytest.fail("replay child never started journaling")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)

        from repro.service.daemon import ServiceConfig, TempoService
        from repro.service.replay import build_controller, make_scenario

        meta = json.loads((state_dir / "meta.json").read_text())
        assert meta["whatif_workers"] == 2
        scenario = make_scenario(
            meta["scenario"], scale=meta["scale"], horizon=meta["horizon"]
        )
        resumed = TempoService.resume(
            build_controller(
                scenario,
                seed=meta["seed"],
                whatif_workers=meta["whatif_workers"],
                whatif_cache_size=meta["whatif_cache_size"],
            ),
            state_dir,
            ServiceConfig(),
        )
        # Every restored tick is complete: each retuned decision has its
        # applied config in the history, and the stream folded cleanly.
        retuned = [d for d in resumed.decisions if d.retuned]
        assert resumed.events_processed > 0
        assert len(resumed.config_history) >= len(retuned) - 1
        assert resumed.controller.evalplane.workers == 2
