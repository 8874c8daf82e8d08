"""Tests for the what-if evaluation plane (:mod:`repro.whatif.evalpool`).

The load-bearing property: the batch seam must be invisible.
Evaluating a candidate pool through :meth:`BoundWhatIf.evaluate_batch`
must return the vectors per-candidate ``WhatIfModel.evaluate`` returns
(bit-identical: the predictor is deterministic and the model cache
stores the arrays it computed), PALD must follow the same trajectory
through the seam as through a plain callable, and nothing the seam
does — in-batch dedupe, model-cache hits — may inflate the simulation
counters PALD and the journal report.
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
from repro.whatif import CandidateEvaluator, WhatIfModel
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


def _pad(pool, dim):
    """Hypothesis float lists as ``dim``-long unit-cube vectors."""
    batch = [np.asarray(x, dtype=float)[:dim] for x in pool]
    return [np.pad(x, (0, dim - len(x))) for x in batch]


class TestParity:
    """Batch seam == serial per-candidate evaluation, bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(
        pool=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
            ),
            min_size=1,
            max_size=5,
        ),
        duplicates=st.lists(st.integers(min_value=0, max_value=4), max_size=3),
        replicas=st.integers(min_value=1, max_value=3),
    )
    def test_backend_invariance_property(self, pool, duplicates, replicas):
        """Random pools with duplicates: the seam equals plain serial calls."""
        model, space = _problem(replicas=replicas)
        batch = _pad(pool, space.dim)
        batch += [batch[i % len(batch)].copy() for i in duplicates]
        reference = _fresh_model_like(model)
        expected = [reference.evaluate(space.decode(x)) for x in batch]

        got = CandidateEvaluator().bind(model, space).evaluate_batch(batch)
        assert got.sim_runs == model.evaluations == reference.evaluations
        assert got.hits == len(batch) - got.sim_runs
        for want, have in zip(expected, got.vectors):
            assert np.array_equal(want, have)

    def test_memo_warm_matches_serial_bitwise(self):
        """A batch re-submitted in the same retune is served by the
        model's memo: same vectors, no simulation."""
        model, space = _problem()
        rng = np.random.default_rng(4)
        batch = [rng.uniform(size=space.dim) for _ in range(5)]
        bound = CandidateEvaluator().bind(model, space)
        expected = bound.evaluate_batch(batch)
        got = bound.evaluate_batch(batch)
        assert expected.sim_runs == 5
        assert got.sim_runs == 0 and got.hits == 5
        for want, have in zip(expected.vectors, got.vectors):
            assert np.array_equal(want, have)

    def test_pald_trajectory_identical_across_backends(self):
        """PALD agrees step for step through the batch seam and through
        a plain ``model.evaluator(space)`` callable (its fallback)."""

        def run(seam):
            model, space = _problem()
            evaluator = (
                CandidateEvaluator().bind(model, space)
                if seam
                else model.evaluator(space)
            )
            opt = PALD(
                space, evaluator, model.slos.thresholds(), seed=11, candidates=4
            )
            return opt.optimize(np.full(space.dim, 0.5), iterations=3)

        batched, plain = run(True), run(False)
        np.testing.assert_allclose(
            batched.trajectory(), plain.trajectory(), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(batched.x, plain.x, atol=1e-12, rtol=0)
        assert batched.total_evaluations == plain.total_evaluations > 0


class TestCounting:
    """Dedup and cache hits must never inflate simulation counters."""

    def test_in_batch_duplicates_deduped(self):
        model, space = _problem()
        x = np.full(space.dim, 0.25)
        batch = [x, x.copy(), np.full(space.dim, 0.75), x.copy()]
        result = CandidateEvaluator().bind(model, space).evaluate_batch(batch)
        assert result.sim_runs == 2
        assert result.hits == 2
        assert model.evaluations == 2  # the sim-run counter agrees
        assert np.array_equal(result.vectors[0], result.vectors[1])
        assert np.array_equal(result.vectors[0], result.vectors[3])

    def test_pald_total_evaluations_counts_sim_runs(self):
        model, space = _problem()
        evaluator = CandidateEvaluator()
        bound = evaluator.bind(model, space)
        opt = PALD(space, bound, model.slos.thresholds(), seed=2, candidates=4)
        result = opt.optimize(np.full(space.dim, 0.5), iterations=4)
        # Pool entries >= simulations (revisited incumbents dedupe), and
        # the reported count is exactly what the model executed.
        assert result.total_evaluations == model.evaluations
        assert evaluator.sim_runs == model.evaluations

    def test_evaluate_singletons_share_model_cache(self):
        model, space = _problem()
        bound = CandidateEvaluator().bind(model, space)
        x = np.full(space.dim, 0.4)
        first = bound(x)
        again = bound(x)
        assert np.array_equal(first, again)
        assert model.evaluations == 1


class TestMemo:
    """The model's per-retune memo serves guard re-evaluations."""

    def test_memo_hits_do_not_inflate_model_evaluations(self):
        model, space = _problem()
        evaluator = CandidateEvaluator()
        x = np.full(space.dim, 0.6)
        evaluator.bind(model, space).evaluate_batch([x])
        guard = evaluator.bind(model, space)  # same retune, same model
        guard.evaluate(space.decode(x.copy()))
        guard.evaluate_batch([x, x.copy()])
        assert model.evaluations == evaluator.sim_runs == 1
        assert evaluator.hits == 3
        # The next retune binds a new model: nothing carries over.
        fresh = _fresh_model_like(model)
        assert evaluator.bind(fresh, space).evaluate_batch([x]).sim_runs == 1


class TestServiceIntegration:
    """End-to-end: the evaluation plane through the CLI/service surface."""

    def _replay(self, state_dir):
        import io

        from repro.cli import main

        code = main(
            [
                "replay",
                "--scenario", "flash-crowd",
                "--horizon", "0.5",
                "--seed", "7",
                "--state-dir", str(state_dir),
            ],
            out=io.StringIO(),
        )
        assert code == 0

    def test_status_renders_retune_phase_table(self, tmp_path):
        import io

        from repro.cli import main

        self._replay(tmp_path / "s")
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
        series = {
            line.split("{")[0].split()[0]
            for line in prom.getvalue().splitlines()
            if line and not line.startswith("#")
        }
        assert "tempo_whatif_evaluations_total" in series
        # One series per fact: no pool, and misses are the evaluations.
        assert not any(
            name.startswith(("tempo_whatif_pool_size", "tempo_whatif_cache_misses"))
            for name in series
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
            "--state-dir", sys.argv[1],
        ],
        out=io.StringIO(),
    )
    """
)


class TestKillDuringPooledWhatif:
    """Kill -9 at any point of a replay, whatif phases included.

    (The class name is kept from when whatif phases could run pooled.)
    """

    def test_kill9_mid_run_leaves_resumable_state(self, tmp_path):
        """SIGKILL at an arbitrary point of a replay: ticks stay atomic.

        The whatif phase commits nothing durable until the tick's
        decision record is journaled, so a kill -9 at an arbitrary point
        of a run must leave a journal that parses cleanly and a state
        directory ``TempoService.resume`` accepts.
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
        scenario = make_scenario(
            meta["scenario"], scale=meta["scale"], horizon=meta["horizon"]
        )
        resumed = TempoService.resume(
            build_controller(scenario, seed=meta["seed"]),
            state_dir,
            ServiceConfig(),
        )
        # Every restored tick is complete: each retuned decision has its
        # applied config in the history, and the stream folded cleanly.
        retuned = [d for d in resumed.decisions if d.retuned]
        assert resumed.events_processed > 0
        assert len(resumed.config_history) >= len(retuned) - 1
