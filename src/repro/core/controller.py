"""The Tempo control loop (Section 4, Figure 3).

Each iteration performs the paper's Steps (1)-(8):

1. extract the recent task schedule from the RM (here: run the
   production-side :class:`~repro.sim.simulator.ClusterSimulator` on the
   window's workload under the current configuration);
2. hand the window's job traces to the Workload Generator (trace replay
   or a freshly fitted statistical model);
3-7. the Optimizer (PALD) proposes candidate configurations inside the
   trust region, the What-if Model predicts their schedules with the
   time-warp Schedule Predictor and evaluates the QS metrics;
8. the Pareto-improving configuration is applied to the RM.

Two robustness mechanisms frame the loop: the **trust region** bounds
each move's normalized-l2 distance (the DBA's risk tolerance), and the
**decision plane** (:mod:`repro.core.decisions`) judges every applied
configuration before the loop optimizes further.  The default
``legacy`` pipeline reproduces the paper's revert guard exactly — roll
back a configuration whose observed QS vector regresses the previously
observed one — while the ``predictive`` pipeline re-evaluates both the
incumbent and its revert target on the *fresh* window's observed
workload, so workload growth no longer reads as config regression.
Thresholds of best-effort SLOs are *ratcheted*: the best value observed
so far becomes the constraint for the next iteration (Section 6.1), so
the loop keeps improving on the incumbent rather than merely not
regressing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.decisions import (
    VERDICT_FREEZE,
    VERDICT_REVERT,
    DecisionEngine,
    DecisionRecord,
    RevertSignals,
)
from repro.core.pald import PALD
from repro.rm.cluster import ClusterSpec
from repro.rm.config import ConfigSpace, RMConfig
from repro.rm.policies import SchedulingPolicy
from repro.sim.noise import NoiseModel
from repro.sim.schedule import TaskSchedule
from repro.sim.simulator import ClusterSimulator
from repro.slo.objectives import SLOSet
from repro.whatif.evalpool import CandidateEvaluator
from repro.whatif.model import WhatIfModel
from repro.workload.generator import StatisticalWorkloadModel, fit_workload_model
from repro.workload.model import Workload
from repro.workload.trace import Trace


@dataclass
class ControlIteration:
    """Record of one pass through the control loop."""

    index: int
    config: RMConfig
    x: np.ndarray
    observed: np.ndarray
    observed_raw: np.ndarray
    thresholds: np.ndarray
    reverted: bool
    whatif_evaluations: int
    trace: TaskSchedule | None = None
    #: The decision plane's full record of this iteration's verdict
    #: (prediction, observation, residual, guard votes).
    decision: DecisionRecord | None = None

    @property
    def verdict(self) -> str:
        """The decision plane's verdict for this iteration."""
        if self.decision is not None:
            return self.decision.verdict
        return "revert" if self.reverted else "accept"

    @property
    def feasible(self) -> bool:
        finite = np.isfinite(self.thresholds)
        return bool(np.all(self.observed[finite] <= self.thresholds[finite]))


def windows_from_model(
    model: StatisticalWorkloadModel,
    window: float,
    iterations: int,
    seed: int = 0,
) -> list[Workload]:
    """Independent same-distribution workload windows (stationary load)."""
    return [model.generate(seed + 101 * i, window) for i in range(iterations)]


def windows_from_workload(workload: Workload, window: float) -> list[Workload]:
    """Slice one long workload into consecutive control windows.

    Preserves temporal patterns (diurnal drift, weekly cycles) — the
    input to the adaptivity experiment (Section 8.2.3).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    count = max(1, int(workload.horizon // window))
    return [workload.window(i * window, (i + 1) * window) for i in range(count)]


class TempoController:
    """Drop-in self-tuning loop around a (simulated) production RM.

    Args:
        cluster: The production cluster.
        slos: Tenant SLOs (QS metrics + thresholds + priorities).
        space: Tunable RM configuration space (the trust-region geometry).
        initial_config: Starting configuration (e.g. the DBA's expert one).
        policy: RM allocation policy (fair share by default).
        noise: Production-side disturbances for the ground-truth runs.
        whatif_mode: ``"replay"`` re-simulates the window's observed jobs;
            ``"fit"`` fits a statistical model to the window trace and
            samples ``replicas`` synthetic workloads (noise averaging,
            the expectation in (SP1)).
        replicas: What-if workload replicas in ``"fit"`` mode.
        candidates: Configurations explored per loop (paper: 5).
        trust_radius: Maximum normalized-l2 move per loop.
        revert_mode: ``"regression"`` reverts when the previous observed
            QS vector Pareto-dominates the new one (noise-tolerant);
            ``"strict"`` reverts whenever the new vector does not
            dominate the previous one (the paper's letter); ``"off"``
            disables the guard.
        revert_tol: Relative tolerance for the revert comparison.
        revert_windows: Number of recent observation windows averaged
            into the QS vectors the revert guard compares (SAM-style
            smoothing).  With noisy telemetry a single window makes the
            guard fire on most applied tunes; averaging ``k > 1``
            windows trades reaction speed for far less revert churn.
            ``1`` reproduces the single-window guard.
        guards: Decision-plane pipeline judging every applied
            configuration — a spec string (``"legacy"``,
            ``"predictive"``, ``"predictive,stability"``, ...) or a
            pre-built :class:`~repro.core.decisions.DecisionEngine`.
            The default ``"legacy"`` pipeline is byte-identical to the
            pre-decision-plane controller; ``"predictive"`` swaps the
            observed-vs-observed revert comparison for the
            load-normalized predicted-vs-predicted one.
        freeze_after: Consecutive reverts after which the decision
            plane freezes (roll back and stop proposing candidates
            until the workload moves).  ``None`` disables the churn
            breaker; ignored when ``guards`` is a pre-built engine.
        ratchet: Ratchet best-effort thresholds to the best observed QS.
        heartbeat: Production simulator heartbeat seconds.
        seed: Base RNG seed shared by production runs and PALD.
        store_traces: Keep each iteration's full trace on the record
            (memory-heavy; useful for analysis).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        slos: SLOSet,
        space: ConfigSpace,
        initial_config: RMConfig,
        *,
        policy: SchedulingPolicy | None = None,
        noise: NoiseModel | None = None,
        whatif_mode: str = "replay",
        replicas: int = 2,
        candidates: int = 5,
        trust_radius: float = 0.15,
        step_size: float = 0.7,
        loess_frac: float = 0.6,
        revert_mode: str = "regression",
        revert_tol: float = 0.05,
        revert_windows: int = 1,
        guards: str | DecisionEngine | None = None,
        freeze_after: int | None = None,
        ratchet: bool = True,
        heartbeat: float = 5.0,
        seed: int = 0,
        store_traces: bool = False,
    ):
        if whatif_mode not in ("replay", "fit"):
            raise ValueError(f"unknown whatif_mode {whatif_mode!r}")
        if revert_mode not in ("regression", "strict", "off"):
            raise ValueError(f"unknown revert_mode {revert_mode!r}")
        self.cluster = cluster
        self.slos = slos
        self.space = space
        self.policy = policy
        self.noise = noise or NoiseModel.quiet()
        self.whatif_mode = whatif_mode
        self.replicas = max(1, replicas)
        self.revert_mode = revert_mode
        self.revert_tol = revert_tol
        self.revert_windows = max(1, int(revert_windows))
        self.ratchet = ratchet
        self.seed = seed
        self.store_traces = store_traces

        self.production = ClusterSimulator(
            cluster, policy, self.noise, heartbeat=heartbeat, seed=seed
        )
        self.config = initial_config
        self.x = space.encode(initial_config)
        self._prev: tuple[RMConfig, np.ndarray, np.ndarray] | None = None
        self._ratchet_values: np.ndarray | None = None
        # Trailing observed-QS vectors feeding the revert guard's
        # multi-window average (len <= revert_windows).
        self._observed_recent: deque[np.ndarray] = deque(maxlen=self.revert_windows)
        if isinstance(guards, DecisionEngine):
            self.engine = guards
        else:
            self.engine = DecisionEngine.from_spec(guards, freeze_after=freeze_after)
        # Selection-time what-if prediction for the currently applied
        # configuration (retained only for prediction-hungry pipelines).
        self._predicted: np.ndarray | None = None
        self.last_decision: DecisionRecord | None = None
        # The what-if evaluation plane: the batch seam every candidate
        # evaluation goes through, and its cumulative counters.
        self.evalplane = CandidateEvaluator()

        # One persistent PALD: its sample buffer accumulates QS
        # observations across control iterations (the workload is
        # statistically stable per tenant — Section 10's assumption),
        # which is what lets LOESS gradients converge despite only
        # `candidates` evaluations per loop.
        self._pald = PALD(
            space,
            evaluator=lambda x: np.zeros(len(slos)),  # replaced per iteration
            thresholds=slos.thresholds(),
            trust_radius=trust_radius,
            step_size=step_size,
            candidates=candidates,
            loess_frac=loess_frac,
            seed=seed,
        )

    # -- public API ---------------------------------------------------------

    @property
    def pald(self) -> PALD:
        return self._pald

    def run(self, windows: Sequence[Workload]) -> list[ControlIteration]:
        """Run one control iteration per workload window."""
        return [self.run_iteration(i, w) for i, w in enumerate(windows)]

    def run_iteration(self, index: int, window: Workload) -> ControlIteration:
        """One pass of Steps (1)-(8) on this window's workload."""
        # Step (1): observe the production task schedule under the
        # currently applied configuration.
        trace = self.production.run(
            window, self.config, seed=self.seed + 31 * index + 1
        )
        return self.tune_from_trace(index, trace, window=window)

    def tune_from_trace(
        self,
        index: int,
        trace: Trace,
        window: Workload | None = None,
        cluster: ClusterSpec | None = None,
    ) -> ControlIteration:
        """Steps (2)-(8) from an externally observed task schedule.

        This is the entry point of the online serving layer
        (:mod:`repro.service`): a live RM's telemetry, assembled into a
        window :class:`~repro.workload.trace.Trace`, replaces the Step (1)
        production simulation.  ``window`` optionally supplies the
        submitted workload as a fallback when the trace is too sparse to
        replay or fit.  ``cluster`` overrides the what-if cluster for
        this iteration — the serving daemon passes the capacity that
        remains after observed node loss, so candidate configurations
        are evaluated on the cluster that actually exists.
        """
        observed = self.slos.evaluate(trace)
        observed_raw = self.slos.evaluate_raw(trace)

        # Decision plane: judge the applied configuration before
        # optimizing further (Section 4's robustness mechanism,
        # extracted into :mod:`repro.core.decisions`).  The legacy
        # guard compares averages over the trailing `revert_windows`
        # observations; the predictive guard re-evaluates the incumbent
        # and its revert target on this window's observed workload
        # through the what-if model, which is why the model is built
        # before the verdict.
        evicted = (
            self._observed_recent[0]
            if len(self._observed_recent) == self._observed_recent.maxlen
            else None
        )
        self._observed_recent.append(observed)
        smoothed = self.smoothed_observation()
        whatif = self._build_whatif(trace, window, index, cluster)
        # Bind the model into the evaluation plane once per iteration:
        # the bound evaluator serves the decision plane, the incumbent
        # evaluation, and PALD's candidate batches from the model's
        # one cache.
        bound = self.evalplane.bind(whatif, self.space)
        decision = self.engine.judge(
            RevertSignals(
                index=index,
                config=self.config,
                prev=self._prev,
                observed=observed,
                smoothed=smoothed,
                predicted=self._predicted,
                evaluate=bound.evaluate,
                revert_mode=self.revert_mode,
                tol=self.revert_tol,
            )
        )
        self.last_decision = decision
        # A revert without a baseline has nothing to restore: built-in
        # guards never vote revert before an accepted application, but
        # the pipeline is pluggable and a custom guard might.
        reverted = (
            decision.verdict in (VERDICT_REVERT, VERDICT_FREEZE)
            and self._prev is not None
        )
        if reverted:
            prev_config, _, prev_x = self._prev
            self.config = prev_config
            self.x = prev_x.copy()
            # The window was measured under the configuration the guard
            # just rejected; keeping it would poison the average for the
            # next `revert_windows` comparisons and trigger a revert
            # storm against the restored incumbent.  Only that window is
            # dropped: the observation its append evicted comes back, so
            # the guard keeps averaging the configured k windows.
            self._observed_recent.pop()
            if evicted is not None:
                self._observed_recent.appendleft(evicted)

        # Ratchet best-effort thresholds to the best observed QS so far.
        thresholds = self._current_thresholds(observed)
        self._pald.set_thresholds(thresholds)

        # Steps (2)-(7): workload generation + what-if + PALD.  A
        # freeze verdict (revert churn breaker) rolls back *without*
        # proposing a new candidate: the restored incumbent stands
        # until the workload moves.
        self._pald.evaluator = bound
        if decision.verdict == VERDICT_FREEZE:
            step_x = self.x.copy()
        else:
            step = self._pald.step(self.x, f_x=bound.evaluate(self.config))
            step_x = step.x

        record = ControlIteration(
            index=index,
            config=self.config,
            x=self.x.copy(),
            observed=observed,
            observed_raw=observed_raw,
            thresholds=thresholds.copy(),
            reverted=reverted,
            whatif_evaluations=whatif.evaluations,
            trace=trace if self.store_traces else None,
            decision=decision,
        )

        # Step (8): apply the Pareto-improving configuration.  After a
        # revert the incumbent keeps its original observation as the
        # baseline for the next guard comparison.
        if not reverted:
            self._prev = (self.config, smoothed, self.x.copy())
        self.x = step_x
        self.config = self.space.decode(step_x)
        if self.engine.wants_prediction:
            # Retain what the what-if model promised for the configura-
            # tion just applied — a cache hit for any candidate PALD
            # evaluated, so this costs no extra simulation in practice.
            predicted = whatif.evaluate_cached(self.config)
            self._predicted = (
                predicted if predicted is not None else bound.evaluate(self.config)
            )
        return record

    def smoothed_observation(self) -> np.ndarray:
        """Mean observed QS vector over the trailing revert windows.

        This is the vector the revert guard compares (and the baseline
        it stores when a configuration is applied).  With
        ``revert_windows=1`` it is simply the latest observation.
        """
        if not self._observed_recent:
            raise ValueError("no observations recorded yet")
        if len(self._observed_recent) == 1:
            return self._observed_recent[0].copy()
        return np.mean(np.vstack(list(self._observed_recent)), axis=0)

    # -- internals -------------------------------------------------------------

    def _current_thresholds(self, observed: np.ndarray) -> np.ndarray:
        base = self.slos.thresholds()
        if not self.ratchet:
            return base
        unconstrained = ~np.isfinite(base)
        if self._ratchet_values is None:
            self._ratchet_values = np.where(unconstrained, observed, base)
        else:
            self._ratchet_values = np.where(
                unconstrained,
                np.minimum(self._ratchet_values, observed),
                base,
            )
        return self._ratchet_values.copy()

    def _build_whatif(
        self,
        trace: TaskSchedule,
        window: Workload | None,
        index: int,
        cluster: ClusterSpec | None = None,
    ) -> WhatIfModel:
        workloads: list[Workload]
        horizon = window.horizon if window is not None else trace.horizon
        if self.whatif_mode == "fit":
            try:
                model = fit_workload_model(trace)
                workloads = model.replicas(
                    self.seed + 977 * index, horizon, self.replicas
                )
            except ValueError:
                # Sparse window: fall back to replaying the observations.
                workloads = [trace.to_workload()]
        else:
            workloads = [trace.to_workload()]
        if not any(len(w) for w in workloads) and window is not None:
            workloads = [window]
        return WhatIfModel(
            cluster if cluster is not None else self.cluster,
            self.slos,
            workloads,
            self.policy,
        )
