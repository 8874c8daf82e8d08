"""Ablation — the revert guard (robustness guarantee 5).

Two experiments:

1. **Sabotage** (the original ablation): the paper's guard
   (``LegacyRevertGuard``) reverts a newly applied configuration whose
   observed QS vector the previous configuration's observation
   Pareto-dominates.  To expose its value
   we sabotage the what-if model (a misleading evaluator that
   periodically recommends strangling the best-effort tenant) and
   compare the observed AJR trajectory with the guard on and off.

2. **Sustained overload** (the decision-plane ablation): under the 3x
   sustained-overload continuous replay session, backlog compounds
   across retune intervals and observed QS deteriorates monotonically,
   so the paper's observed-vs-observed guard reverts good
   configurations in a churn loop.  The predictive guard of the default
   pipeline re-evaluates the incumbent and its revert target on each
   window's *observed* workload
   (predicted-vs-observed, load-normalized) and holds steady — the
   table prints the predicted-vs-observed chain per decision, and the
   run appends to the machine-readable trajectory
   (``results/ablation_revert_guard.json``).
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _harness import RESULTS_DIR, append_trajectory_run, report

from repro.core.controller import TempoController, windows_from_model
from repro.core.decisions import (
    DecisionEngine,
    LegacyRevertGuard,
    SparsityGuard,
    StabilityGuard,
)
from repro.rm.config import ConfigSpace, RMConfig, TenantConfig
from repro.service.daemon import ServiceConfig
from repro.service.replay import ScenarioReplayer, build_service, make_scenario
from repro.slo.objectives import SLOSet
from repro.slo.templates import deadline_slo, response_time_slo
from repro.workload.synthetic import (
    BEST_EFFORT_TENANT,
    DEADLINE_TENANT,
    two_tenant_cluster,
    two_tenant_expert_config,
    two_tenant_model,
)

ITERATIONS = 6

#: The 3x sustained-overload session (steady arrivals at 3x capacity).
OVERLOAD_SCALE = 3.0
OVERLOAD_HORIZON = 7200.0
OVERLOAD_SEED = 0

#: Machine-readable trajectory (a ``runs`` list; append-only).
RESULTS_JSON = RESULTS_DIR / "ablation_revert_guard.json"


def _paper_guard_engine() -> DecisionEngine:
    """The paper's observed-vs-observed pipeline, built from classes."""
    return DecisionEngine([SparsityGuard(), StabilityGuard(), LegacyRevertGuard()])


class _SabotagingController(TempoController):
    """Every other iteration, applies a pathological configuration
    directly — standing in for a what-if model misled by a corrupted
    trace window (the failure mode the guard defends against)."""

    def run_iteration(self, index, window):
        record = super().run_iteration(index, window)
        if index % 2 == 0:
            bad = RMConfig(
                {
                    DEADLINE_TENANT: TenantConfig(weight=8.0),
                    BEST_EFFORT_TENANT: TenantConfig(
                        weight=0.25, max_share={"map": 2, "reduce": 1}
                    ),
                }
            )
            self.config = bad
            self.x = self.space.encode(bad)
        return record


def _run(revert_mode: str):
    cluster = two_tenant_cluster()
    expert = two_tenant_expert_config(cluster)
    slos = SLOSet(
        [
            deadline_slo(DEADLINE_TENANT, max_violation_fraction=0.05, slack=0.25),
            response_time_slo(BEST_EFFORT_TENANT),
        ]
    )
    space = ConfigSpace(cluster, [DEADLINE_TENANT, BEST_EFFORT_TENANT])
    controller = _SabotagingController(
        cluster,
        slos,
        space,
        expert,
        candidates=4,
        trust_radius=0.2,
        seed=0,
        revert_mode=revert_mode,
        engine=_paper_guard_engine(),
    )
    windows = windows_from_model(two_tenant_model(), 1800.0, ITERATIONS, seed=3)
    records = controller.run(windows)
    return [float(r.observed_raw[1]) for r in records], [r.reverted for r in records]


def test_ablation_revert_guard(benchmark):
    def run_both():
        return {"regression": _run("regression"), "off": _run("off")}

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    ajr_on, reverted_on = out["regression"]
    ajr_off, reverted_off = out["off"]
    rows = []
    for i in range(ITERATIONS):
        rows.append(
            [
                i,
                f"{ajr_on[i]:.0f}",
                "yes" if reverted_on[i] else "",
                f"{ajr_off[i]:.0f}",
            ]
        )
    rows.append(
        [
            "mean after iter 0",
            f"{np.mean(ajr_on[1:]):.0f}",
            f"{sum(reverted_on)} reverts",
            f"{np.mean(ajr_off[1:]):.0f}",
        ]
    )
    report(
        "ablation_revert_guard",
        "Ablation: observed best-effort AJR per iteration under a "
        "sabotaged what-if model, revert guard on vs off",
        ["iter", "AJR guard=on", "reverted", "AJR guard=off"],
        rows,
    )
    # The guard fires at least once and the guarded trajectory's mean
    # AJR is no worse than the unguarded one.
    assert any(reverted_on)
    assert np.mean(ajr_on[1:]) <= np.mean(ajr_off[1:]) * 1.05


def _overload_session(engine: DecisionEngine | None):
    """One 3x sustained-overload continuous replay judged by ``engine``
    (``None``: the default predictive pipeline)."""
    scenario = make_scenario(
        "steady", scale=OVERLOAD_SCALE, horizon=OVERLOAD_HORIZON
    )
    service = build_service(
        scenario,
        ServiceConfig(window=900.0, retune_interval=450.0, min_window_jobs=3),
        seed=OVERLOAD_SEED,
        engine=engine,
        revert_windows=1,
    )
    return ScenarioReplayer(
        scenario, service, seed=OVERLOAD_SEED, verify_stats=False
    ).run()


def test_ablation_predictive_guard_overload(benchmark):
    """Predicted-vs-observed rows under the 3x sustained-overload session.

    The acceptance property: the predictive (load-normalized) guard
    produces >= 3x fewer reverts than the legacy observed-vs-observed
    guard on the same session, because compounding backlog makes every
    window *observe* worse QS than the last while the configuration is
    not at fault.
    """

    def run_both():
        return {
            "legacy": _overload_session(_paper_guard_engine()),
            "predictive": _overload_session(None),
        }

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    legacy, predictive = out["legacy"], out["predictive"]

    # Per-decision predicted-vs-observed chain of the predictive run
    # (best-effort AJR dimension, index 1: the metric overload moves).
    rows = []
    for decision in predictive.decisions:
        if not decision.retuned:
            continue
        rec = decision.record
        observed = f"{rec.observed[1]:.0f}" if rec.observed else ""
        normalized = f"{rec.normalized[1]:.0f}" if rec.normalized else ""
        reference = f"{rec.reference[1]:.0f}" if rec.reference else ""
        residual = "" if rec.residual is None else f"{rec.residual:+.2f}"
        rows.append(
            [int(decision.time), observed, normalized, reference, residual, rec.verdict]
        )
    rows.append(
        [
            "total",
            f"{legacy.reverts} legacy reverts",
            "",
            "",
            "",
            f"{predictive.reverts} predictive reverts",
        ]
    )
    report(
        "ablation_predictive_guard",
        "Decision-plane ablation: predicted vs observed QS per retune "
        "under 3x sustained overload (predictive guard run; AJR seconds)",
        ["t(s)", "observed", "pred(cur)", "pred(prev)", "residual", "verdict"],
        rows,
    )
    append_trajectory_run(
        RESULTS_JSON,
        {
            "experiment": "overload_revert_churn",
            "scale": OVERLOAD_SCALE,
            "horizon_s": OVERLOAD_HORIZON,
            "seed": OVERLOAD_SEED,
            "legacy": {
                "retunes": legacy.retunes,
                "reverts": legacy.reverts,
                "mean_response_s": round(legacy.mean_response, 1),
                "peak_backlog": legacy.peak_backlog,
            },
            "predictive": {
                "retunes": predictive.retunes,
                "reverts": predictive.reverts,
                "holds": sum(
                    1
                    for d in predictive.decisions
                    if d.retuned and d.verdict == "hold"
                ),
                "mean_response_s": round(predictive.mean_response, 1),
                "peak_backlog": predictive.peak_backlog,
            },
        }
    )
    # Acceptance: >= 3x fewer reverts, guard still live (retunes ran).
    assert legacy.reverts >= 3, "premise: the legacy guard churns under overload"
    assert predictive.reverts * 3 <= legacy.reverts
    assert predictive.retunes >= legacy.retunes - 2
