"""Tempo's core: the PALD optimizer and the self-tuning control loop.

This package is the paper's primary contribution:

* :mod:`repro.core.pareto` — dominance, Pareto archives, max-min regret;
* :mod:`repro.core.gradients` — LOESS-based Jacobian estimation from
  noisy QS samples;
* :mod:`repro.core.scalarization` — weighted-sum, conic, and MGDA
  min-norm scalarizations (the related-work comparators);
* :mod:`repro.core.fairness` — the linear program choosing the weight
  vector ``c`` that improves the most-violated SLO (max-min fairness);
* :mod:`repro.core.proxy` — the proxy objective (SP2) and the
  closed-form ``rho*`` (problem RHO);
* :mod:`repro.core.pald` — PAreto Local Descent (Section 6);
* :mod:`repro.core.baselines` — random search, NSGA-II-lite,
  weighted-sum descent baselines;
* :mod:`repro.core.decisions` — the decision plane: one guard pipeline
  (sparsity, stability, load-normalized predictive revert; the paper's
  observed-vs-observed revert guard stays as the ablation comparator)
  with typed verdicts (accept / revert / hold / freeze) and journaled
  :class:`~repro.core.decisions.DecisionRecord` s;
* :mod:`repro.core.controller` — the eight-step Tempo control loop with
  trust region and decision plane (Section 4); it averages observed QS
  vectors over several windows to stay calm under noisy telemetry, and
  :meth:`~repro.core.controller.TempoController.tune_from_trace` is the
  serving layer's entry point.
"""

from repro.core.pareto import ParetoArchive, dominates, pareto_front, weakly_dominates
from repro.core.gradients import GradientEstimator, SampleBuffer
from repro.core.scalarization import (
    conic_scalarize,
    mgda_direction,
    min_norm_weights,
    weighted_sum,
)
from repro.core.fairness import max_min_fair_weights
from repro.core.proxy import descent_direction, proxy_value, rho_star
from repro.core.pald import PALD, OptimizationResult, PALDStep
from repro.core.baselines import (
    NSGAIILite,
    RandomSearchOptimizer,
    WeightedSumOptimizer,
)
from repro.core.decisions import (
    VERDICTS,
    DecisionEngine,
    DecisionRecord,
    GuardVote,
    LegacyRevertGuard,
    PredictiveGuard,
    SparsityGuard,
    StabilityGuard,
    verdict_counts,
)
from repro.core.controller import ControlIteration, TempoController

__all__ = [
    "dominates",
    "weakly_dominates",
    "pareto_front",
    "ParetoArchive",
    "SampleBuffer",
    "GradientEstimator",
    "weighted_sum",
    "conic_scalarize",
    "min_norm_weights",
    "mgda_direction",
    "max_min_fair_weights",
    "proxy_value",
    "rho_star",
    "descent_direction",
    "PALD",
    "PALDStep",
    "OptimizationResult",
    "RandomSearchOptimizer",
    "WeightedSumOptimizer",
    "NSGAIILite",
    "TempoController",
    "ControlIteration",
    "VERDICTS",
    "DecisionEngine",
    "DecisionRecord",
    "GuardVote",
    "SparsityGuard",
    "StabilityGuard",
    "LegacyRevertGuard",
    "PredictiveGuard",
    "verdict_counts",
]
