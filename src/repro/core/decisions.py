"""The decision plane: one journaled guard pipeline.

Tempo's promise is *robust* self-tuning: a configuration survives only
when the configuration — not the workload — is responsible for the QS
the operator observes.  Before this module, the logic making that call
was interleaved across :meth:`~repro.core.controller.TempoController.
tune_from_trace` (the revert comparison) and
:meth:`~repro.service.daemon.TempoService.retune` (the sparsity and
stability skips), and its only durable footprint was a terse
``reason`` string.  This module extracts all of it into one seam:

* a small vocabulary of typed **verdicts** — ``accept`` (the incumbent
  passed the guards; a new candidate may be applied), ``revert`` (the
  guards attribute a regression to the configuration and roll it back),
  ``hold`` (no rollback — at a cadence tick, a sparse or stable window
  skipped the tune entirely; in the revert phase, an observed
  regression was attributed to workload growth rather than the
  configuration, so the incumbent is retained as the baseline while
  optimization continues), and ``freeze`` (the churn breaker: after
  repeated consecutive reverts the engine rolls back *and* stops
  proposing new candidates until the workload moves);

* **guards** — small policy objects voting on a shared context.
  :class:`SparsityGuard` and :class:`StabilityGuard` vote at the
  cadence tick (before any tuning work); :class:`PredictiveGuard` (or
  the :class:`LegacyRevertGuard` comparator) votes after the window's
  observation.

* a :class:`DecisionEngine` that runs the pipeline, combines votes,
  applies the freeze breaker, and emits a first-class
  :class:`DecisionRecord` — prediction, observation, load-normalized
  reference, residual, verdict, and every guard's vote — which the
  serving layer journals write-ahead, snapshots, and replays, so
  ``serve -> kill -> resume`` reproduces not just state but *why* each
  configuration was kept or reverted.

The pipeline is sparsity + stability + predictive.  The predictive
guard re-evaluates both the incumbent and its revert target through
the what-if model **on the fresh window's observed workload**: the two
predictions share the workload and the predictor's bias, so their
difference is attributable to the configuration alone.  Workload growth moves both predictions
together and reads as ``hold``, never ``revert``.  The paper's
observed-vs-observed comparison (:class:`LegacyRevertGuard`) compares
two different workloads instead, so under sustained overload (backlog
compounding across retune intervals) every window looks worse than the
last and good configurations are reverted in a churn loop; it stays a
plain :class:`Guard` as the ablation comparator, reachable only by
building an engine from classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.pareto import dominates
from repro.rm.config import RMConfig
from repro.slo.qs import normalized_residual, worst_residual

#: The incumbent configuration passed the guards; a new candidate may
#: be applied on top of it.
VERDICT_ACCEPT = "accept"
#: The guards attribute an observed regression to the configuration;
#: it is rolled back to the revert target.
VERDICT_REVERT = "revert"
#: No rollback.  At a cadence tick: a sparse/stable window, no tune
#: runs.  In the revert phase: the regression is attributed to workload
#: growth — the incumbent stays the baseline and optimization continues.
VERDICT_HOLD = "hold"
#: Churn breaker: roll back *and* stop proposing new candidates.
VERDICT_FREEZE = "freeze"

#: Every verdict the decision plane can emit.
VERDICTS = (VERDICT_ACCEPT, VERDICT_REVERT, VERDICT_HOLD, VERDICT_FREEZE)

def _floats_out(values) -> list:
    """Float vector -> JSON list with infinities made round-trippable."""
    return [
        {"inf": 1 if v > 0 else -1} if math.isinf(v) else float(v)
        for v in values
    ]


def _floats_in(values) -> tuple[float, ...]:
    """Inverse of :func:`_floats_out`."""
    return tuple(
        math.inf * v["inf"] if isinstance(v, dict) else float(v) for v in values
    )


def _opt_floats_out(values) -> list | None:
    """``_floats_out`` tolerating ``None`` (absent vectors stay absent)."""
    return None if values is None else _floats_out(values)


def _opt_floats_in(values) -> tuple[float, ...] | None:
    """Inverse of :func:`_opt_floats_out`."""
    return None if values is None else _floats_in(values)


@dataclass(frozen=True)
class GuardVote:
    """One guard's opinion about one decision.

    Attributes:
        guard: The voting guard's name (``"sparsity"``, ``"stability"``,
            ``"legacy"``, ``"predictive"``, ``"freeze"``).
        verdict: The verdict the guard argues for (one of
            :data:`VERDICTS`).
        reason: Short machine-readable ground (``"sparse"``,
            ``"config-regression"``, ``"workload-drift"``, ...).
        residual: Optional scalar evidence — the stability guard's
            drift, a revert guard's worst normalized QS residual.
    """

    guard: str
    verdict: str
    reason: str
    residual: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict (infinite residuals -> null-free codec)."""
        residual = self.residual
        if residual is not None and math.isinf(residual):
            residual = {"inf": 1 if residual > 0 else -1}
        return {
            "guard": self.guard,
            "verdict": self.verdict,
            "reason": self.reason,
            "residual": residual,
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "GuardVote":
        """Rebuild a vote from :meth:`to_dict` output."""
        residual = row.get("residual")
        if isinstance(residual, dict):
            residual = math.inf * residual["inf"]
        elif residual is not None:
            residual = float(residual)
        return cls(
            guard=str(row["guard"]),
            verdict=str(row["verdict"]),
            reason=str(row["reason"]),
            residual=residual,
        )


@dataclass(frozen=True)
class DecisionRecord:
    """The durable, first-class record of one control-plane decision.

    Attributes:
        index: Control-iteration index the decision belongs to.
        time: Simulated time of the cadence tick (``None`` when the
            controller ran standalone, outside a serving daemon).
        verdict: The combined verdict (one of :data:`VERDICTS`).
        votes: Every guard's vote, pipeline order.
        predicted: QS vector the what-if model predicted for the
            incumbent configuration when it was *selected* (the
            retained selection-time prediction).
        observed: Raw observed QS vector of this window.
        normalized: The incumbent re-evaluated by the what-if model on
            this window's observed workload — the load-normalized twin
            of ``observed`` the predictive guard compares.
        reference: What the guard compared against: the revert target
            re-evaluated on the same fresh window (predictive), or the
            previous smoothed observation (the observed-vs-observed
            comparator).
        residual: Worst normalized prediction residual, observed vs the
            selection-time prediction — the accountability number: how
            far reality ran from what the tuner promised.
    """

    index: int
    time: float | None
    verdict: str
    votes: tuple[GuardVote, ...] = ()
    predicted: tuple[float, ...] | None = None
    observed: tuple[float, ...] | None = None
    normalized: tuple[float, ...] | None = None
    reference: tuple[float, ...] | None = None
    residual: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict; canonical under sorted-key encoding."""
        residual = self.residual
        if residual is not None and math.isinf(residual):
            residual = {"inf": 1 if residual > 0 else -1}
        return {
            "index": self.index,
            "time": self.time,
            "verdict": self.verdict,
            "votes": [v.to_dict() for v in self.votes],
            "predicted": _opt_floats_out(self.predicted),
            "observed": _opt_floats_out(self.observed),
            "normalized": _opt_floats_out(self.normalized),
            "reference": _opt_floats_out(self.reference),
            "residual": residual,
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "DecisionRecord":
        """Rebuild a record from :meth:`to_dict` output, bit-exact."""
        residual = row.get("residual")
        if isinstance(residual, dict):
            residual = math.inf * residual["inf"]
        elif residual is not None:
            residual = float(residual)
        when = row.get("time")
        return cls(
            index=int(row["index"]),
            time=None if when is None else float(when),
            verdict=str(row["verdict"]),
            votes=tuple(GuardVote.from_dict(v) for v in row.get("votes", ())),
            predicted=_opt_floats_in(row.get("predicted")),
            observed=_opt_floats_in(row.get("observed")),
            normalized=_opt_floats_in(row.get("normalized")),
            reference=_opt_floats_in(row.get("reference")),
            residual=residual,
        )


def _no_drift_signal() -> float:
    """Default drift source: no baseline yet, so drift is infinite."""
    return math.inf


@dataclass
class TickSignals:
    """Inputs of the pre-tune (cadence tick) guard phase.

    Attributes:
        time: Simulated time of the tick.
        index: Control-iteration index the tick would run as.
        jobs: Completed jobs in the current window.
        min_jobs: The daemon's sparsity floor.
        force: A forced-retune signal (node loss/recovery, churn) is
            pending; bypasses the stability guard, not the sparsity one.
        first: No tune has been applied yet (the baseline snapshot is
            absent).
        drift_threshold: The daemon's stability threshold.
        drift_fn: Lazily computes the window drift vs the last applied
            tune's snapshot (memoized via :meth:`drift`).
    """

    time: float
    index: int
    jobs: int
    min_jobs: int
    force: bool
    first: bool
    drift_threshold: float
    drift_fn: Callable[[], float] = _no_drift_signal
    _drift: float | None = None

    def drift(self) -> float:
        """Window drift vs the last applied tune, computed once."""
        if self._drift is None:
            self._drift = float(self.drift_fn())
        return self._drift


@dataclass(frozen=True)
class TickDecision:
    """Outcome of the pre-tune guard phase at one cadence tick.

    ``proceed`` is whether a tune should run; ``reason`` and ``drift``
    carry the daemon's tick vocabulary (``"sparse"``/``"stable"`` when
    held, ``"initial"``/``"forced"``/``"drift"`` when proceeding).
    """

    proceed: bool
    reason: str
    drift: float
    votes: tuple[GuardVote, ...] = ()


@dataclass
class RevertSignals:
    """Inputs (and scratch outputs) of the post-observe guard phase.

    The controller fills the inputs; revert-phase guards write the
    ``normalized``/``reference``/``residual`` scratch fields so the
    engine can fold them into the :class:`DecisionRecord`.

    Attributes:
        index: Control-iteration index.
        config: The currently applied (judged) configuration.
        prev: The revert target: ``(config, smoothed observation,
            encoded vector)`` of the last accepted application, or
            ``None`` before any.
        observed: This window's raw observed QS vector.
        smoothed: Mean observation over the trailing revert windows
            (what the observed-vs-observed comparator compares, and
            the predictive guard's workload-drift evidence).
        predicted: Retained selection-time prediction for ``config``
            (``None`` before the first applied tune).
        evaluate: Fresh-window what-if evaluation, config -> QS vector
            (memoized per configuration by the what-if model).
        revert_mode: ``"regression"`` / ``"strict"`` / ``"off"``.
        tol: Relative tolerance of the revert comparison.
    """

    index: int
    config: RMConfig
    prev: tuple | None
    observed: np.ndarray
    smoothed: np.ndarray
    predicted: np.ndarray | None
    evaluate: Callable[[RMConfig], np.ndarray]
    revert_mode: str
    tol: float
    normalized: np.ndarray | None = None
    reference: np.ndarray | None = None
    residual: float | None = None


class Guard:
    """One pluggable policy in the decision pipeline.

    A guard may vote in either phase (or both): :meth:`tick_vote` runs
    at the cadence tick before any tuning work, :meth:`revert_vote`
    after the window's observation.  Returning ``None`` abstains.
    """

    name = "guard"

    def tick_vote(self, signals: TickSignals) -> GuardVote | None:
        """Pre-tune vote (``None`` = abstain)."""
        return None

    def revert_vote(self, signals: RevertSignals) -> GuardVote | None:
        """Post-observe vote (``None`` = abstain)."""
        return None


class SparsityGuard(Guard):
    """Hold when the window carries too little signal to tune from."""

    name = "sparsity"

    def tick_vote(self, signals: TickSignals) -> GuardVote | None:
        """Hold (``"sparse"``) below the daemon's job floor."""
        if signals.jobs < signals.min_jobs:
            return GuardVote(self.name, VERDICT_HOLD, "sparse", float(signals.jobs))
        return GuardVote(self.name, VERDICT_ACCEPT, "dense", float(signals.jobs))


class StabilityGuard(Guard):
    """Hold when the workload has not materially drifted (SAM-style)."""

    name = "stability"

    def tick_vote(self, signals: TickSignals) -> GuardVote | None:
        """Hold (``"stable"``) below the drift threshold.

        Abstains on the first tick and under a forced signal — capacity
        changes void any "nothing has changed" conclusion.
        """
        if signals.first or signals.force:
            return None
        drift = signals.drift()
        if drift < signals.drift_threshold:
            return GuardVote(self.name, VERDICT_HOLD, "stable", drift)
        return GuardVote(self.name, VERDICT_ACCEPT, "drift", drift)


class LegacyRevertGuard(Guard):
    """The paper's observed-vs-observed revert comparison.

    Reverts when the previous application's (smoothed) observation
    Pareto-dominates this one — exactly the pre-decision-plane
    behavior, and therefore confounded by workload change: under
    sustained overload every window observes worse QS than the last
    and the guard churns.  Kept as the ablation comparator; no
    default pipeline contains it.
    """

    name = "legacy"

    def revert_vote(self, signals: RevertSignals) -> GuardVote | None:
        """Compare the smoothed observation against the stored baseline."""
        if signals.revert_mode == "off" or signals.prev is None:
            return GuardVote(self.name, VERDICT_ACCEPT, "no-baseline")
        _, prev_observed, _ = signals.prev
        tol = signals.tol * (np.abs(prev_observed) + 1e-9)
        if signals.revert_mode == "regression":
            regress = dominates(prev_observed, signals.smoothed, tol)
        else:  # strict: revert unless the new observation dominates.
            regress = not dominates(
                signals.smoothed, prev_observed, tol
            ) and not np.allclose(signals.smoothed, prev_observed)
        signals.reference = np.asarray(prev_observed, dtype=float)
        residual = worst_residual(signals.smoothed, prev_observed)
        if regress:
            return GuardVote(self.name, VERDICT_REVERT, "observed-regression", residual)
        return GuardVote(self.name, VERDICT_ACCEPT, "no-regression", residual)


class PredictiveGuard(Guard):
    """Load-normalized revert comparison: predicted-vs-predicted on the
    *fresh* window's observed workload.

    Both the incumbent configuration and its revert target are
    re-evaluated through the what-if model on the workload the window
    actually observed.  The two predictions share the workload and the
    predictor's bias, so their difference is attributable to the
    configuration alone; the guard reverts only when the revert target
    is predicted to do better *on the same workload*.  An observed
    regression the predictions do not reproduce — workload growth,
    compounding backlog — yields ``hold``: the incumbent is kept and
    the churn loop the legacy guard falls into never starts.

    The retained selection-time prediction feeds the record's
    ``residual`` (observed vs promised), the accountability number for
    diagnosing what-if model drift.
    """

    name = "predictive"

    def revert_vote(self, signals: RevertSignals) -> GuardVote | None:
        """Judge the incumbent against its revert target, load-normalized."""
        if signals.predicted is not None:
            signals.residual = worst_residual(signals.observed, signals.predicted)
        if signals.revert_mode == "off" or signals.prev is None:
            return GuardVote(self.name, VERDICT_ACCEPT, "no-baseline", signals.residual)
        prev_config, prev_observed, _ = signals.prev
        normalized = np.asarray(signals.evaluate(signals.config), dtype=float)
        reference = np.asarray(signals.evaluate(prev_config), dtype=float)
        signals.normalized = normalized
        signals.reference = reference
        tol = signals.tol * (np.abs(reference) + 1e-9)
        if signals.revert_mode == "regression":
            regress = dominates(reference, normalized, tol)
        else:  # strict: keep only a predicted-dominating incumbent.
            regress = not dominates(normalized, reference, tol) and not np.allclose(
                normalized, reference
            )
        if regress:
            return GuardVote(
                self.name,
                VERDICT_REVERT,
                "config-regression",
                worst_residual(normalized, reference),
            )
        # The observed-vs-observed comparison: when it would
        # have reverted but the load-normalized one does not, the
        # regression is the workload's doing — record a hold so the
        # divergence is visible in the decision history.
        raw_tol = signals.tol * (np.abs(prev_observed) + 1e-9)
        if dominates(prev_observed, signals.smoothed, raw_tol):
            return GuardVote(
                self.name,
                VERDICT_HOLD,
                "workload-drift",
                worst_residual(signals.smoothed, prev_observed),
            )
        return GuardVote(
            self.name,
            VERDICT_ACCEPT,
            "no-regression",
            worst_residual(normalized, reference),
        )


class DecisionEngine:
    """Runs the guard pipeline and emits :class:`DecisionRecord` s.

    One engine is shared by a controller and the daemon serving it: the
    daemon consults :meth:`tick` at each cadence tick (sparsity /
    stability phase) and the controller consults :meth:`judge` after
    the window's observation (revert phase); :meth:`begin_tune` carries
    the tick's votes and timestamp across the two phases so a tuned
    tick yields one coherent record.

    Args:
        guards: Pipeline, in vote order.  ``None`` (the default) is
            the one pipeline: sparsity, stability, predictive.  Passing
            guards is the seam tests and the ablation benchmark use to
            substitute a pipeline.
        freeze_after: Consecutive reverts after which further reverts
            become ``freeze`` verdicts (roll back *and* skip candidate
            application).  ``None`` disables the churn breaker.
    """

    def __init__(
        self,
        guards: Sequence[Guard] | None = None,
        *,
        freeze_after: int | None = None,
    ):
        if freeze_after is not None and freeze_after < 1:
            raise ValueError(f"freeze_after must be >= 1, got {freeze_after}")
        if guards is None:
            guards = (SparsityGuard(), StabilityGuard(), PredictiveGuard())
        self.guards = list(guards)
        self.freeze_after = freeze_after
        #: Consecutive revert/freeze verdicts so far (the freeze fuse).
        self.reverts_in_row = 0
        self._pending: tuple[float | None, tuple[GuardVote, ...]] = (None, ())
        self.last_record: DecisionRecord | None = None

    def __repr__(self) -> str:
        names = ",".join(g.name for g in self.guards)
        return (
            f"DecisionEngine({names!r}, freeze_after={self.freeze_after}, "
            f"reverts_in_row={self.reverts_in_row})"
        )

    def state_dict(self) -> dict:
        """Engine state a resumed daemon needs (the freeze fuse)."""
        return {"reverts_in_row": self.reverts_in_row}

    def restore_state(self, state: Mapping) -> None:
        """Apply :meth:`state_dict` output."""
        self.reverts_in_row = int(state.get("reverts_in_row", 0))

    # -- the two phases -----------------------------------------------------

    def tick(self, signals: TickSignals) -> TickDecision:
        """Pre-tune phase: should this cadence tick tune at all?

        An empty window is always held regardless of pipeline — there
        is no telemetry to tune from, and an empty trace would read as
        perfect SLO compliance.
        """
        if signals.jobs == 0:
            vote = GuardVote("sparsity", VERDICT_HOLD, "sparse", 0.0)
            return TickDecision(False, "sparse", 0.0, (vote,))
        votes: list[GuardVote] = []
        for guard in self.guards:
            vote = guard.tick_vote(signals)
            if vote is None:
                continue
            votes.append(vote)
            if vote.verdict == VERDICT_HOLD:
                drift = vote.residual if vote.reason == "stable" else 0.0
                return TickDecision(False, vote.reason, drift, tuple(votes))
        if signals.first:
            return TickDecision(True, "initial", math.inf, tuple(votes))
        if signals.force:
            return TickDecision(True, "forced", math.inf, tuple(votes))
        return TickDecision(True, "drift", signals.drift(), tuple(votes))

    def hold_record(
        self, index: int, time: float | None, tick: TickDecision
    ) -> DecisionRecord:
        """The record of a tick the pre-tune guards held."""
        record = DecisionRecord(
            index=index, time=time, verdict=VERDICT_HOLD, votes=tick.votes
        )
        self.last_record = record
        return record

    def begin_tune(self, time: float | None, votes: Sequence[GuardVote]) -> None:
        """Carry a tick's votes and timestamp into the revert phase."""
        self._pending = (time, tuple(votes))

    def judge(self, signals: RevertSignals) -> DecisionRecord:
        """Revert phase: combine the pipeline's votes into one verdict.

        Any guard voting ``revert`` reverts; ``hold`` votes (an
        observed regression attributed to workload) downgrade the
        verdict from ``accept``; once ``freeze_after`` consecutive
        reverts have happened, every further revert becomes ``freeze``.
        """
        time, tick_votes = self._pending
        self._pending = (None, ())
        votes = list(tick_votes)
        verdict = VERDICT_ACCEPT
        for guard in self.guards:
            vote = guard.revert_vote(signals)
            if vote is None:
                continue
            votes.append(vote)
            if vote.verdict == VERDICT_REVERT:
                verdict = VERDICT_REVERT
            elif vote.verdict == VERDICT_HOLD and verdict == VERDICT_ACCEPT:
                verdict = VERDICT_HOLD
        if verdict == VERDICT_REVERT:
            self.reverts_in_row += 1
            if (
                self.freeze_after is not None
                and self.reverts_in_row > self.freeze_after
            ):
                verdict = VERDICT_FREEZE
                votes.append(
                    GuardVote(
                        "freeze",
                        VERDICT_FREEZE,
                        "revert-churn",
                        float(self.reverts_in_row),
                    )
                )
        else:
            self.reverts_in_row = 0
        record = DecisionRecord(
            index=signals.index,
            time=time,
            verdict=verdict,
            votes=tuple(votes),
            predicted=_as_tuple(signals.predicted),
            observed=_as_tuple(signals.observed),
            normalized=_as_tuple(signals.normalized),
            reference=_as_tuple(signals.reference),
            residual=signals.residual,
        )
        self.last_record = record
        return record


def _as_tuple(values) -> tuple[float, ...] | None:
    """Optional float vector -> plain tuple (JSON- and compare-friendly)."""
    if values is None:
        return None
    return tuple(float(v) for v in values)


def verdict_counts(records) -> dict[str, int]:
    """Tally verdicts over an iterable of records."""
    counts: dict[str, int] = {}
    for record in records:
        counts[record.verdict] = counts.get(record.verdict, 0) + 1
    return counts
