"""PALD: PAreto Local Descent (Section 6).

The optimizer behind Tempo's control loop.  Each step:

1. evaluates the current configuration and a small set of candidate
   configurations inside the trust region (the noisy samples);
2. estimates the QS Jacobian at the current point with LOESS;
3. chooses the weight vector ``c`` — the max-min-fairness LP over the
   violated constraints, or MGDA min-norm weights when all constraints
   hold;
4. computes the closed-form penalty ``rho*`` and the proxy-gradient
   descent direction ``d = J^T c - rho * J_V^T c_V``;
5. takes a (normalized) SGD step along ``-d``, projected into the trust
   region and the unit cube;
6. moves to the evaluated candidate with the best proxy value,
   preferring feasible candidates, with max-regret as the tie-breaking
   criterion when none is feasible (max-min fairness over SLOs).

Guarantees inherited from the theory: every proxy minimizer solves (SP1)
(Theorem 1); when constraints cannot all hold, the ``c`` choice improves
the most-violated constraint first; candidate moves are bounded by the
normalized-l2 trust region, limiting production risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.fairness import max_min_fair_weights
from repro.core.gradients import GradientEstimator, SampleBuffer
from repro.core.pareto import ParetoArchive
from repro.core.proxy import descent_direction, proxy_value, rho_star
from repro.rm.config import ConfigSpace

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass
class PALDStep:
    """Diagnostics of one PALD iteration.

    ``evaluations`` counts *simulations actually executed* for this
    step, not candidate-pool entries: duplicates deduplicated inside
    the step and candidates served from an evaluator cache (see
    :class:`~repro.whatif.evalpool.BoundWhatIf`) do not inflate it.
    """

    iteration: int
    x: np.ndarray
    f: np.ndarray
    c: np.ndarray | None
    rho: float
    feasible: bool
    max_regret: float
    proxy: float
    evaluations: int
    moved: bool


@dataclass
class OptimizationResult:
    """Trajectory of an optimizer run."""

    steps: list[PALDStep] = field(default_factory=list)

    @property
    def x(self) -> np.ndarray:
        """Final configuration vector."""
        if not self.steps:
            raise ValueError("no steps recorded")
        return self.steps[-1].x

    @property
    def f(self) -> np.ndarray:
        if not self.steps:
            raise ValueError("no steps recorded")
        return self.steps[-1].f

    def trajectory(self) -> np.ndarray:
        """QS vectors over iterations, one row per step."""
        return np.vstack([s.f for s in self.steps])

    @property
    def total_evaluations(self) -> int:
        """Simulations executed across the run (cache hits excluded)."""
        return sum(s.evaluations for s in self.steps)


class PALD:
    """PAreto Local Descent over a configuration space.

    Args:
        space: The RM configuration space ``X`` (vector codec + geometry).
        evaluator: Maps a unit-cube vector to a (noisy) QS vector —
            typically :meth:`repro.whatif.model.WhatIfModel.evaluator`.
        thresholds: Constraint vector ``r`` (``inf`` = unconstrained).
        trust_radius: Maximum normalized-l2 move per step (the DBA's
            risk tolerance, Section 4).
        step_size: SGD step length as a fraction of the trust radius.
        candidates: Configurations evaluated per step (the paper's
            end-to-end loops explore 5).
        loess_frac: Neighborhood fraction for LOESS gradient fits.
        seed: RNG seed for candidate sampling.
    """

    def __init__(
        self,
        space: ConfigSpace,
        evaluator: Evaluator,
        thresholds: Sequence[float],
        *,
        trust_radius: float = 0.15,
        step_size: float = 0.7,
        candidates: int = 5,
        loess_frac: float = 0.6,
        seed: int = 0,
        buffer_size: int = 512,
    ):
        if trust_radius <= 0:
            raise ValueError(f"trust_radius must be positive, got {trust_radius}")
        if not 0 < step_size <= 1:
            raise ValueError(f"step_size must be in (0, 1], got {step_size}")
        if candidates < 2:
            raise ValueError(f"need at least 2 candidates per step, got {candidates}")
        self.space = space
        self.evaluator = evaluator
        #: The user's original constraints (feasibility is reported
        #: against these).
        self.base_r = np.asarray(thresholds, dtype=float)
        #: Working thresholds: the control loop ratchets best-effort
        #: entries to the best QS observed so far (Section 6.1).
        self.r = self.base_r.copy()
        self.trust_radius = trust_radius
        self.step_size = step_size
        self.candidates = candidates
        self.rng = np.random.default_rng(seed)
        self.buffer = SampleBuffer(space.dim, len(self.r), max_size=buffer_size)
        self.estimator = GradientEstimator(self.buffer, frac=loess_frac)
        self.archive = ParetoArchive()
        self._iteration = 0

    # -- helpers ------------------------------------------------------------

    def set_thresholds(self, thresholds: Sequence[float]) -> None:
        """Update the working ``r`` (ratcheted best-effort SLOs)."""
        r = np.asarray(thresholds, dtype=float)
        if r.shape != self.r.shape:
            raise ValueError(f"thresholds shape {r.shape} != {self.r.shape}")
        self.r = r

    def ratchet(self, f: Sequence[float]) -> None:
        """Tighten best-effort thresholds to the attained QS values.

        Constrained objectives keep their user-given ``r_i``; originally
        unconstrained ones get ``min(previous working r_i, f_i)``, so the
        next step must improve on the incumbent (Section 6.1).
        """
        f = np.asarray(f, dtype=float)
        unconstrained = ~np.isfinite(self.base_r)
        self.r = np.where(
            unconstrained, np.minimum(self.r, f), self.base_r
        )

    def _violated(self, f: np.ndarray) -> np.ndarray:
        finite = np.isfinite(self.r)
        return (f >= self.r) & finite

    def _max_regret(self, f: np.ndarray, r: np.ndarray | None = None) -> float:
        r = self.r if r is None else r
        finite = np.isfinite(r)
        if not np.any(finite):
            return -math.inf
        return float(np.max(f[finite] - r[finite]))

    def _record(self, x: np.ndarray, f: np.ndarray) -> None:
        self.buffer.add(x, f)
        self.archive.add(x, f)

    def _evaluate_batch(
        self, xs: list[np.ndarray]
    ) -> tuple[list[np.ndarray], int]:
        """Evaluate a candidate batch through the evaluator seam.

        Batch-capable evaluators (:class:`~repro.whatif.evalpool.
        BoundWhatIf`) receive the whole pool at once and report how
        many simulations actually ran.  Plain callables fall back to
        per-vector calls with in-batch dedupe: identical vectors (the
        incumbent often reappears in the perturbation pool) are
        evaluated once and counted once.  Either way the returned QS
        vectors are in submission order and bit-identical to serial
        evaluation; samples are *not* recorded here so callers control
        buffer/archive insertion order.
        """
        batch_eval = getattr(self.evaluator, "evaluate_batch", None)
        if batch_eval is not None:
            result = batch_eval(xs)
            fs = [np.asarray(f, dtype=float) for f in result.vectors]
            return fs, int(result.sim_runs)
        unique: dict[bytes, np.ndarray] = {}
        fs = []
        for x in xs:
            key = np.asarray(x, dtype=float).tobytes()
            if key not in unique:
                unique[key] = np.asarray(self.evaluator(x), dtype=float)
            fs.append(unique[key].copy())
        return fs, len(unique)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        fs, _ = self._evaluate_batch([x])
        self._record(x, fs[0])
        return fs[0]

    # -- the step -----------------------------------------------------------

    def step(self, x: Sequence[float], f_x: np.ndarray | None = None) -> PALDStep:
        """One PALD iteration from ``x``; returns the chosen next point."""
        x = self.space.clip(x)

        # Draw the whole exploration pool up front (evaluation never
        # touches the RNG, so the stream is identical to drawing and
        # evaluating alternately), then submit incumbent + perturbations
        # as ONE batch through the evaluator seam.
        n_random = max(self.candidates - 2, 1)
        neighbors = [
            self.space.random_neighbor(x, self.trust_radius, self.rng)
            for _ in range(n_random)
        ]
        batch = ([x] if f_x is None else []) + neighbors
        fs, evaluations = self._evaluate_batch(batch)
        if f_x is None:
            f_x, neighbor_fs = fs[0], fs[1:]
        else:
            f_x = np.asarray(f_x, dtype=float)
            neighbor_fs = fs
        # Samples enter buffer and archive in the historical serial
        # order (incumbent first), keeping LOESS fits bit-identical.
        self._record(x, f_x)
        pool: list[tuple[np.ndarray, np.ndarray]] = [(x, f_x)]
        for xc, fc in zip(neighbors, neighbor_fs):
            self._record(xc, fc)
            pool.append((xc, fc))

        # Gradient-guided SGD candidate (needs enough samples for LOESS).
        c: np.ndarray | None = None
        rho = 0.0
        if self.estimator.ready:
            jacobian = self.estimator.jacobian(x)
            f_smooth = self.estimator.smoothed(x)
            violated = self._violated(f_smooth)
            c = max_min_fair_weights(jacobian, violated)
            rho = rho_star(jacobian, c, violated)
            direction = descent_direction(jacobian, c, rho, violated)
            norm = float(np.linalg.norm(direction))
            if norm > 1e-12:
                #

                # step_size is a fraction of the trust radius; the raw
                # step is scaled by sqrt(dim) because the trust radius is
                # a *normalized* l2 distance.
                raw = (
                    self.step_size
                    * self.trust_radius
                    * math.sqrt(self.space.dim)
                    * direction
                    / norm
                )
                x_sgd = self.space.project(x - raw, x, self.trust_radius)
                if self.space.distance(x_sgd, x) > 1e-9:
                    sgd_fs, sgd_evals = self._evaluate_batch([x_sgd])
                    self._record(x_sgd, sgd_fs[0])
                    pool.append((x_sgd, sgd_fs[0]))
                    evaluations += sgd_evals

        chosen_x, chosen_f = self._select(pool, c, rho)
        moved = bool(self.space.distance(chosen_x, x) > 1e-9)
        self._iteration += 1
        finite_base = np.isfinite(self.base_r)
        feasible = bool(np.all(chosen_f[finite_base] <= self.base_r[finite_base]))
        return PALDStep(
            iteration=self._iteration,
            x=chosen_x,
            f=chosen_f,
            c=c,
            rho=rho,
            feasible=feasible,
            max_regret=self._max_regret(chosen_f, self.base_r),
            proxy=self._proxy(chosen_f, c, rho),
            evaluations=evaluations,
            moved=moved,
        )

    def _proxy(self, f: np.ndarray, c: np.ndarray | None, rho: float) -> float:
        if c is None:
            c = np.ones_like(f) / math.sqrt(len(f))
        return proxy_value(f, self.r, c, rho)

    def _select(
        self,
        pool: list[tuple[np.ndarray, np.ndarray]],
        c: np.ndarray | None,
        rho: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pick the best evaluated candidate.

        Feasible candidates are ranked by proxy value; when none is
        feasible, candidates are ranked by max regret first (max-min
        fairness: improve the most violated SLO) with the proxy value
        breaking ties.
        """
        feasible = [
            (x, f) for x, f in pool if not bool(np.any(self._violated(f)))
        ]
        if feasible:
            return min(feasible, key=lambda p: self._proxy(p[1], c, rho))
        return min(
            pool,
            key=lambda p: (self._max_regret(p[1]), self._proxy(p[1], c, rho)),
        )

    # -- full runs -------------------------------------------------------------

    def optimize(
        self, x0: Sequence[float], iterations: int, *, ratchet: bool = True
    ) -> OptimizationResult:
        """Run ``iterations`` PALD steps from ``x0``.

        With ``ratchet=True`` (the paper's control-loop behavior), the QS
        attained for each best-effort SLO becomes its threshold for the
        next iteration, so the optimizer keeps descending on best-effort
        objectives once the hard constraints are met instead of stalling
        at the first feasible point.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        result = OptimizationResult()
        x = self.space.clip(x0)
        f: np.ndarray | None = None
        for _ in range(iterations):
            step = self.step(x, f)
            result.steps.append(step)
            x, f = step.x, step.f
            if ratchet:
                self.ratchet(f)
        return result
