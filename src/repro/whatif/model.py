"""The What-if Model: workload x RM configuration -> expected QS vector.

Each prediction runs the time-warp Schedule Predictor on one or more
workload replicas under the candidate configuration and averages the
QS vectors — the sample estimate of the expectations in (SP1).  Using
the *same* replicas for every candidate (common random numbers) makes
candidate comparisons much less noisy, which matters for PALD's
gradient estimation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.rm.cluster import ClusterSpec
from repro.rm.config import ConfigSpace, RMConfig
from repro.rm.policies import SchedulingPolicy
from repro.sim.predictor import SchedulePredictor
from repro.sim.schedule import TaskSchedule
from repro.slo.objectives import SLOSet
from repro.workload.model import Workload


class WhatIfModel:
    """Evaluate candidate RM configurations against workload replicas.

    Args:
        cluster: Cluster whose RM is being tuned.  The online serving
            layer passes a capacity-shrunken variant
            (:meth:`~repro.rm.cluster.ClusterSpec.shrunk`) after
            observed node loss, so predictions reflect the capacity
            that actually remains; callers shrinking capacity should
            keep every pool at or above
            :func:`~repro.workload.model.capacity_floor` of the
            workloads, or prediction will reject unplaceable tasks.
        slos: The SLO vector to evaluate.
        workloads: Workload replicas (historical replay and/or samples
            from a fitted statistical model).
        policy: Allocation policy of the simulated RM.

    The model memoizes evaluations per decoded configuration, since
    optimizers frequently revisit configurations.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        slos: SLOSet,
        workloads: Sequence[Workload],
        policy: SchedulingPolicy | None = None,
    ):
        if not workloads:
            raise ValueError("what-if model needs at least one workload replica")
        self.cluster = cluster
        self.slos = slos
        self.workloads = list(workloads)
        self.predictor = SchedulePredictor(cluster, policy)
        self._cache: dict[str, np.ndarray] = {}
        self.evaluations = 0
        self.predicted_tasks = 0

    def predict_schedules(self, config: RMConfig) -> list[TaskSchedule]:
        """Predicted schedules for every replica under ``config``."""
        return [self.predictor.predict(w, config) for w in self.workloads]

    def evaluate(self, config: RMConfig) -> np.ndarray:
        """Mean QS vector across replicas (the E[f(x; w)] estimate)."""
        key = _config_key(config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached.copy()
        vectors = []
        for workload in self.workloads:
            schedule = self.predictor.predict(workload, config)
            self.predicted_tasks += workload.num_tasks
            vectors.append(self.slos.evaluate(schedule))
        self.evaluations += 1
        mean = np.mean(np.vstack(vectors), axis=0)
        self._cache[key] = mean
        return mean.copy()

    def evaluate_cached(self, config: RMConfig) -> np.ndarray | None:
        """Memoized QS vector for ``config``, or ``None`` on a miss.

        A pure cache read: never runs the predictor and never counts an
        evaluation.  The control loop uses it to retain the prediction
        of the configuration it just applied — PALD already evaluated
        every candidate it considered, so the retained vector is free.
        :class:`~repro.whatif.evalpool.BoundWhatIf` reads it the same
        way to serve in-batch duplicates and guard re-evaluations.
        """
        cached = self._cache.get(_config_key(config))
        return None if cached is None else cached.copy()

    def evaluator(self, space: ConfigSpace) -> Callable[[np.ndarray], np.ndarray]:
        """A vector-in, QS-vector-out callable for the optimizers."""

        def evaluate_vector(x: np.ndarray) -> np.ndarray:
            return self.evaluate(space.decode(x))

        return evaluate_vector


def _config_key(config: RMConfig) -> str:
    parts = []
    for name in config.tenant_names():
        t = config.tenant(name)
        parts.append(
            f"{name}|{t.weight:.6g}|{sorted(t.min_share.items())}|"
            f"{sorted(t.max_share.items())}|{t.min_share_preemption_timeout:.6g}|"
            f"{t.fair_share_preemption_timeout:.6g}"
        )
    return ";".join(parts)
