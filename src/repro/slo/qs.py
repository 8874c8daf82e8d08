"""QS metrics for the popular SLO classes (Section 5.1).

Every metric is a function of the task schedule over an interval ``L``:
``J_i`` is the set of the tenant's jobs submitted *and* completed within
the interval, ``T_i`` its tasks.  Lower is always better — Tempo's
optimizer minimizes QS vectors — so "more is better" quantities
(utilization, throughput) enter negated, exactly as the paper defines
them.

One deviation from the paper text: eq. (5.1)'s fairness metric is
written ``-|c_i + QS_UTIL|``, whose *minimization* would maximize the
deviation from the desired share.  That is an evident sign typo (QS
metrics are losses); we implement ``+|c_i + QS_UTIL|``.  See DESIGN.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.workload.trace import Trace

Interval = tuple[float, float]


def normalized_residual(
    observed: Sequence[float], reference: Sequence[float], floor: float = 1e-9
) -> np.ndarray:
    """Per-metric symmetric relative residual, ``(o - r) / scale``.

    The scale is the symmetric mean magnitude ``(|o| + |r|) / 2 + floor``
    (the same normalization the stability guard's drift signal uses), so
    the residual is unitless, bounded in ``[-2, 2]``, and well behaved
    when the reference is near zero — a QS of exactly zero against a
    zero reference is a residual of zero, not an explosion.  QS metrics
    are losses (lower is better), so a positive residual means *worse
    than the reference* — the sign convention the decision plane's
    guards and records rely on.
    """
    observed = np.asarray(observed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if observed.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: {observed.shape} vs {reference.shape}"
        )
    scale = (np.abs(observed) + np.abs(reference)) / 2.0 + floor
    return (observed - reference) / scale


def worst_residual(
    observed: Sequence[float], reference: Sequence[float], floor: float = 1e-9
) -> float:
    """Largest per-metric normalized residual (the worst regression).

    This is the scalar the decision plane journals with every verdict:
    ``> 0`` means at least one QS metric ran worse than the reference,
    and its magnitude is the relative excess.
    """
    return float(np.max(normalized_residual(observed, reference, floor)))


class QSMetric(ABC):
    """A quantitative SLO-satisfaction metric over a task schedule.

    ``evaluate`` returns the QS value (lower = better SLO satisfaction).
    ``empty_value`` is returned when the interval contains no relevant
    jobs (a schedule with no completions carries no signal about the
    SLO).
    """

    #: Short machine name, set by subclasses.
    kind: str = "abstract"

    def __init__(self, tenant: str | None, empty_value: float = 0.0):
        self.tenant = tenant
        self.empty_value = empty_value

    @abstractmethod
    def evaluate(self, trace: Trace, interval: Interval | None = None) -> float:
        """The QS value of the SLO under the observed ``trace``."""

    @property
    def name(self) -> str:
        scope = self.tenant if self.tenant is not None else "*"
        return f"{self.kind}({scope})"

    def __repr__(self) -> str:
        return self.name

    def _jobs(self, trace: Trace, interval: Interval | None):
        if self.tenant is None:
            # Tenants of job records only: no other tenant has a job,
            # and task-level reads would build a schedule's records.
            jobs = []
            for tenant in sorted({j.tenant for j in trace.job_records}):
                jobs.extend(trace.completed_jobs(tenant, interval))
            return jobs
        return trace.completed_jobs(self.tenant, interval)

    @staticmethod
    def _span(trace: Trace, interval: Interval | None) -> Interval:
        return interval if interval is not None else (0.0, trace.horizon)


class AverageResponseTime(QSMetric):
    """QS_AJR (eq. 1): mean job response time in seconds."""

    kind = "ajr"

    def evaluate(self, trace: Trace, interval: Interval | None = None) -> float:
        jobs = self._jobs(trace, interval)
        if not jobs:
            return self.empty_value
        return sum(j.response_time for j in jobs) / len(jobs)


class DeadlineViolationFraction(QSMetric):
    """QS_DL (eq. 2): fraction of jobs missing their deadline.

    ``slack`` is the tolerance ``gamma``: a job violates only if it
    finishes later than ``deadline + gamma * response_time``, making the
    metric robust to system variability (the paper uses 25% / 50%).
    Jobs without a deadline are ignored.
    """

    kind = "deadline"

    def __init__(
        self, tenant: str | None, slack: float = 0.0, empty_value: float = 0.0
    ):
        super().__init__(tenant, empty_value)
        if slack < 0:
            raise ValueError(f"slack must be non-negative, got {slack}")
        self.slack = slack

    def evaluate(self, trace: Trace, interval: Interval | None = None) -> float:
        jobs = [j for j in self._jobs(trace, interval) if j.deadline is not None]
        if not jobs:
            return self.empty_value
        misses = sum(1 for j in jobs if j.missed_deadline(self.slack))
        return misses / len(jobs)

    @property
    def name(self) -> str:
        scope = self.tenant if self.tenant is not None else "*"
        return f"{self.kind}({scope},slack={self.slack:g})"


class NegativeUtilization(QSMetric):
    """QS_UTIL (eq. 3): negative normalized resource usage.

    The utilization is the fraction of pool capacity occupied over the
    interval (the shaded area of Figure 4, normalized); minimizing its
    negation maximizes utilization.  ``effective=True`` excludes work of
    preempted attempts, measuring the *effective* utilization of
    Figure 1 (region I excluded).
    """

    kind = "util"

    def __init__(
        self,
        tenant: str | None = None,
        pool: str | None = None,
        *,
        effective: bool = False,
        empty_value: float = 0.0,
    ):
        super().__init__(tenant, empty_value)
        self.pool = pool
        self.effective = effective

    def evaluate(self, trace: Trace, interval: Interval | None = None) -> float:
        lo, hi = self._span(trace, interval)
        if hi <= lo or not trace.capacity:
            return self.empty_value
        pools = [self.pool] if self.pool is not None else sorted(trace.capacity)
        cap = sum(trace.capacity[p] for p in pools)
        if cap <= 0:
            return self.empty_value
        used = 0.0
        for rec in trace.task_records:
            if self.tenant is not None and rec.tenant != self.tenant:
                continue
            if rec.pool not in pools:
                continue
            if self.effective and rec.preempted:
                continue
            overlap = min(rec.finish_time, hi) - max(rec.start_time, lo)
            if overlap > 0:
                used += overlap * rec.containers
        return -used / (cap * (hi - lo))

    @property
    def name(self) -> str:
        scope = self.tenant if self.tenant is not None else "*"
        pool = self.pool if self.pool is not None else "*"
        eff = ",eff" if self.effective else ""
        return f"{self.kind}({scope},{pool}{eff})"


class NegativeThroughput(QSMetric):
    """QS_THR (eq. 4): negative count of jobs completed in the interval."""

    kind = "throughput"

    def evaluate(self, trace: Trace, interval: Interval | None = None) -> float:
        jobs = self._jobs(trace, interval)
        return -float(len(jobs))


class FairnessDeviation(QSMetric):
    """QS_FAIR: absolute deviation of the tenant's usage from its
    desired share ``c_i`` (long-term fairness).

    Implemented as ``|c_i + QS_UTIL|`` = ``|desired - actual|`` — see the
    module docstring for the sign-typo note.
    """

    kind = "fairness"

    def __init__(
        self,
        tenant: str,
        desired_share: float,
        pool: str | None = None,
        empty_value: float = 0.0,
    ):
        super().__init__(tenant, empty_value)
        if not 0.0 <= desired_share <= 1.0:
            raise ValueError(
                f"desired_share must be in [0, 1], got {desired_share}"
            )
        self.desired_share = desired_share
        self._util = NegativeUtilization(tenant, pool)

    def evaluate(self, trace: Trace, interval: Interval | None = None) -> float:
        neg_util = self._util.evaluate(trace, interval)
        return abs(self.desired_share + neg_util)

    @property
    def name(self) -> str:
        return f"{self.kind}({self.tenant},c={self.desired_share:g})"
