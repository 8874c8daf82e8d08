"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation at laptop scale: it prints the same rows/series the paper
reports and archives them under ``benchmarks/results/`` so
EXPERIMENTS.md can cite stable numbers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig, TenantConfig
from repro.stats.distributions import LognormalModel
from repro.workload.generator import StatisticalWorkloadModel
from repro.workload.model import MAP_POOL, REDUCE_POOL
from repro.workload.synthetic import (
    BEST_EFFORT_TENANT,
    DEADLINE_TENANT,
    two_tenant_cluster,
    two_tenant_model,
)

RESULTS_DIR = Path(__file__).parent / "results"


def _normalize_trajectory_run(run: dict) -> dict:
    """Backfill the stamp keys a pre-stamping run is missing.

    Early trajectory rows (the legacy-migration wrap of a flat results
    file) carry ``"timestamp": null`` and no ``cpu_count`` at all;
    readers that sort or group on those keys used to break on them.
    Normalization makes both keys always present (``None`` when the
    run predates stamping) without inventing history.
    """
    normalized = dict(run)
    normalized.setdefault("timestamp", None)
    normalized.setdefault("cpu_count", None)
    return normalized


def load_trajectory_runs(results_json: Path) -> list[dict]:
    """Read a trajectory file's runs, normalized and in time order.

    The backfill-tolerant reader: every returned run has ``timestamp``
    and ``cpu_count`` keys (``None`` for pre-stamping rows), and runs
    sort by timestamp with undated rows kept first in file order —
    they are, by construction, the oldest.
    """
    import json as _json

    if not results_json.exists():
        return []
    data = _json.loads(results_json.read_text())
    runs = data.get("runs", []) if isinstance(data, dict) else []
    normalized = [_normalize_trajectory_run(run) for run in runs]
    return sorted(
        normalized,
        key=lambda run: (run["timestamp"] is not None, run["timestamp"] or ""),
    )


def append_trajectory_run(results_json: Path, record: dict) -> None:
    """Append one timestamped run to a machine-readable trajectory file.

    The file holds a ``runs`` list and every benchmark invocation
    **appends** a record stamped with UTC time and the host's core
    count, so the trajectory across PRs (and CI runs) is preserved
    instead of overwritten.  A pre-trajectory file (one flat dict of
    metrics) is migrated by wrapping it as the first, undated run;
    existing rows missing the stamp keys are backfilled with explicit
    ``None`` so every archived run carries the same schema.
    """
    import json as _json
    import os as _os
    from datetime import datetime, timezone

    history = {"runs": []}
    if results_json.exists():
        data = _json.loads(results_json.read_text())
        if "runs" in data:
            history = data
        else:  # legacy flat layout: keep it as the first (undated) run
            history = {"runs": [{"mode": "full", **data}]}
    history["runs"] = [_normalize_trajectory_run(run) for run in history["runs"]]
    history["runs"].append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "cpu_count": _os.cpu_count() or 1,
            **record,
        }
    )
    results_json.parent.mkdir(parents=True, exist_ok=True)
    results_json.write_text(_json.dumps(history, indent=2, sort_keys=True) + "\n")


def gate_parallel_speedup(
    name: str,
    speedup: float,
    *,
    required_cores: int,
    floor: float,
    degraded_floor: float,
    cpu_count: int | None = None,
) -> dict:
    """Core-count-aware pass/fail for one parallel-speedup measurement.

    The shared gate behind every sharded/worker speedup check: on a
    host with at least ``required_cores`` cores the measurement must
    clear ``floor``; below that core count a parallel speedup is
    physically impossible (the recorded sub-1x rows are pure IPC
    overhead), so only ``degraded_floor`` — a pathological-regression
    backstop — applies, and the returned annotation marks the run as
    ``sub_core_run`` instead of letting it pass silently.  Archive the
    annotation next to the numbers in the results JSON.

    Returns ``{"name", "speedup", "cpu_count", "required_cores",
    "gated", "sub_core_run", "floor", "failure"}`` where ``failure``
    is ``None`` or the gate's human-readable message.
    """
    import os as _os

    cores = cpu_count if cpu_count is not None else (_os.cpu_count() or 1)
    gated = cores >= required_cores
    active_floor = floor if gated else degraded_floor
    failure = None
    if gated and speedup < floor:
        failure = (
            f"{name} speedup {speedup:.2f}x < {floor}x floor "
            f"on {cores} cores"
        )
    elif not gated and speedup < degraded_floor:
        failure = (
            f"{name} speedup {speedup:.2f}x < {degraded_floor}x "
            f"pathological floor ({cores} < {required_cores} cores)"
        )
    return {
        "name": name,
        "speedup": speedup,
        "cpu_count": cores,
        "required_cores": required_cores,
        "gated": gated,
        "sub_core_run": not gated,
        "floor": active_floor,
        "failure": failure,
    }


def report(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    *,
    archive: bool = True,
) -> str:
    """Format, print, and (unless ``archive`` is false) archive one
    experiment's table under ``results/<name>.txt``."""
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append(
            "  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths))
        )
    text = "\n".join(lines)
    print("\n" + text)
    if archive:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 0.01 or abs(cell) >= 1e5):
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def contended_two_tenant_model(scale: float = 1.0) -> StatisticalWorkloadModel:
    """The two-tenant mix pushed into the preemption regime.

    Longer best-effort reduce tasks (matching Figure 8's heavy tail)
    clog the reduce pool so the deadline tenant regularly starves below
    its minimum share and preempts — the dynamics behind Figures 7/9.
    """
    base = two_tenant_model(scale)
    best_effort = base.tenant_model(BEST_EFFORT_TENANT)
    stages = []
    for stage in best_effort.stages:
        if stage.pool == REDUCE_POOL:
            stages.append(
                replace(
                    stage,
                    task_duration=LognormalModel(
                        mu=math.log(300.0), sigma=1.1, minimum=5.0
                    ),
                )
            )
        else:
            stages.append(stage)
    best_effort = replace(best_effort, stages=tuple(stages))
    return StatisticalWorkloadModel([base.tenant_model(DEADLINE_TENANT), best_effort])


def preemption_prone_config(cluster: ClusterSpec | None = None) -> RMConfig:
    """Expert-style config with aggressive deadline-tenant preemption."""
    cluster = cluster or two_tenant_cluster()
    reduce_cap = cluster.capacity(REDUCE_POOL)
    map_cap = cluster.capacity(MAP_POOL)
    return RMConfig(
        {
            DEADLINE_TENANT: TenantConfig(
                weight=2.0,
                min_share={
                    MAP_POOL: max(1, map_cap // 3),
                    REDUCE_POOL: max(1, reduce_cap // 2),
                },
                min_share_preemption_timeout=60.0,
                fair_share_preemption_timeout=300.0,
            ),
            BEST_EFFORT_TENANT: TenantConfig(
                weight=1.0,
                fair_share_preemption_timeout=900.0,
            ),
        }
    )


def moving_average(times: np.ndarray, values: np.ndarray, window: float, step: float):
    """(t, mean of values whose time falls in [t - window, t]) series."""
    if times.size == 0:
        return np.empty(0), np.empty(0)
    grid = np.arange(window, float(times.max()) + step, step)
    means = []
    for t in grid:
        mask = (times > t - window) & (times <= t)
        means.append(float(np.mean(values[mask])) if np.any(mask) else np.nan)
    return grid, np.asarray(means)
