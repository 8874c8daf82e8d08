"""The what-if evaluation plane: the batch seam candidate runs go through.

Tempo's control loop is simulation-bound: every retune evaluates a pool
of candidate RM configurations through the discrete-event Schedule
Predictor.  :class:`CandidateEvaluator` binds one retune's
:class:`~repro.whatif.model.WhatIfModel` + config space into a
:class:`BoundWhatIf` that optimizers call either vector-at-a-time (the
plain ``Evaluator`` protocol) or with a whole candidate batch
(:meth:`BoundWhatIf.evaluate_batch`).  PALD submits each step's pool
(incumbent, perturbations, SGD probe) through this seam, and the
decision plane's guard re-evaluations go through
:meth:`BoundWhatIf.evaluate`.

Candidates are simulated serially, in submission order.  The bound
model's own per-retune cache serves in-batch duplicates and guard
re-evaluations, so each distinct configuration is simulated at most
once per retune.  Accounting stays honest: ``sim_runs`` counts
discrete-event simulations actually executed (the model's
``evaluations`` delta); cache-served candidates are counted as hits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.rm.config import ConfigSpace, RMConfig
from repro.whatif.model import WhatIfModel

__all__ = [
    "BatchResult",
    "BoundWhatIf",
    "CandidateEvaluator",
]


@dataclass
class BatchResult:
    """Outcome of one batched candidate evaluation.

    ``vectors`` holds one QS vector per submitted candidate, in
    submission order.  ``sim_runs`` is the number of discrete-event
    simulations actually executed; ``hits`` counts candidates served
    from the bound model's cache (including in-batch duplicates).
    """

    vectors: list[np.ndarray]
    sim_runs: int
    hits: int


class CandidateEvaluator:
    """Factory and counters for bound what-if evaluators.

    One instance lives on the controller for the lifetime of the
    process (surviving resume, reshard, and failover, which rebuild
    models but not the controller).  It holds cumulative counters plus
    drainable per-batch observations that the serving daemon turns into
    metrics deltas each cadence tick.
    """

    def __init__(self):
        #: Cumulative simulations actually executed.
        self.sim_runs = 0
        #: Cumulative candidates served without a simulation.
        self.hits = 0
        self._pending_batches: list[int] = []
        self._pending_eval_seconds: list[float] = []

    # -- instrumentation ----------------------------------------------------

    def record_batch(self, size: int, sim_seconds: float, sim_runs: int) -> None:
        """Queue one batch's size and per-simulation latency samples."""
        self._pending_batches.append(size)
        if sim_runs > 0:
            self._pending_eval_seconds.extend([sim_seconds / sim_runs] * sim_runs)

    def drain_observations(self) -> tuple[list[int], list[float]]:
        """Pop pending (batch sizes, per-eval seconds) for the metrics.

        The daemon calls this once per cadence tick, observing the
        returned samples into its histograms; counters are read from the
        cumulative ``sim_runs``/``hits`` attributes by delta.
        """
        batches, self._pending_batches = self._pending_batches, []
        seconds, self._pending_eval_seconds = self._pending_eval_seconds, []
        return batches, seconds

    # -- binding ------------------------------------------------------------

    def bind(self, model: WhatIfModel, space: ConfigSpace) -> "BoundWhatIf":
        """Bind one retune's what-if model into a batch-capable evaluator."""
        return BoundWhatIf(self, model, space)


class BoundWhatIf:
    """One what-if model bound to the evaluation plane for a retune.

    Satisfies PALD's plain ``Evaluator`` protocol (``__call__`` maps a
    unit-cube vector to a QS vector) and additionally exposes the
    batch seam (:meth:`evaluate_batch`) and the config-level entry
    point (:meth:`evaluate`) the decision plane uses.  Every path
    resolves through the bound model's cache, so it and the model's
    counters end exactly as plain serial ``model.evaluate`` calls would
    leave them.
    """

    def __init__(
        self, owner: CandidateEvaluator, model: WhatIfModel, space: ConfigSpace
    ):
        self.owner = owner
        self.model = model
        self.space = space

    # -- single-candidate paths ---------------------------------------------

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate one unit-cube vector (the plain optimizer protocol)."""
        return self.evaluate(self.space.decode(np.asarray(x, dtype=float)))

    def evaluate(self, config: RMConfig) -> np.ndarray:
        """QS vector for ``config`` through model cache -> sim."""
        result = self.evaluate_batch([config], decoded=True)
        return result.vectors[0]

    # -- the batch seam -----------------------------------------------------

    def evaluate_batch(
        self, candidates: Sequence, decoded: bool = False
    ) -> BatchResult:
        """Evaluate a whole candidate batch; results in submission order.

        ``candidates`` are unit-cube vectors (default) or already
        decoded :class:`~repro.rm.config.RMConfig` objects
        (``decoded=True``).  Each candidate is served from the bound
        model's cache when an earlier candidate of this retune (in this
        batch or a previous one) had the same configuration, and
        simulated otherwise.
        """
        owner, model = self.owner, self.model
        configs = (
            list(candidates)
            if decoded
            else [
                self.space.decode(np.asarray(x, dtype=float)) for x in candidates
            ]
        )
        before = model.evaluations
        started = time.perf_counter()
        vectors = []
        for config in configs:
            cached = model.evaluate_cached(config)
            vectors.append(cached if cached is not None else model.evaluate(config))
        sim_seconds = time.perf_counter() - started
        sim_runs = model.evaluations - before
        hits = len(configs) - sim_runs
        owner.sim_runs += sim_runs
        owner.hits += hits
        owner.record_batch(len(configs), sim_seconds, sim_runs)
        return BatchResult(vectors, sim_runs, hits)
