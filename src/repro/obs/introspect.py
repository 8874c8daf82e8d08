"""Read-only state-dir introspection: the engine of ``repro status``.

A live daemon owns its state directory — its journal handles are open,
its tail-repair runs on open — so an operator tool must *never*
construct a :class:`~repro.service.snapshot.ServiceState` just to look.
Everything here reads bytes off disk without touching them: the newest
readable snapshot (same framing the snapshot store writes), the newest
``metrics`` journal record (the :class:`~repro.service.events.
MetricsSampled` tail), and the ``meta.json`` descriptor.  A torn final
journal frame — the write a crash interrupted — is skipped exactly like
the journal's own tail repair would, just without repairing anything.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.service.journal import read_segment, segment_paths
from repro.service.snapshot import read_snapshot

_INGEST_TOTAL = "tempo_ingest_events_total"


def load_latest_snapshot(root: str | Path) -> tuple[int, dict] | None:
    """Newest readable snapshot under ``root/snapshots`` as ``(seq, state)``.

    A snapshot is its header and control frames — counters, registries
    and each shard's mark, never a window entry.  Files whose header or
    control frame is torn or corrupt fall back to older ones, the
    policy resume uses; ``None`` when no snapshot is readable.
    """
    snapshots = sorted(Path(root).glob("snapshots/snapshot-*.json"))
    for path in reversed(snapshots):
        try:
            header, state = read_snapshot(path)
            return header["seq"], state
        except ValueError:
            continue
    return None


def last_metrics_sample(root: str | Path) -> dict | None:
    """Newest ``metrics`` journal record's data, scanning tail-first.

    Returns the :class:`~repro.service.events.MetricsSampled` payload
    (``time``, ``index``, ``metrics``) of the newest sample in the
    control journal, or ``None`` when the run never sampled metrics.
    """
    segments = segment_paths(Path(root) / "journal")
    for i, path in enumerate(reversed(segments)):
        newest = None
        for record in read_segment(path, final=(i == 0)):
            if record.kind == "metrics":
                newest = record.data
        if newest is not None:
            return newest
    return None


def snapshot_registry(state: dict) -> MetricsRegistry:
    """Merge a snapshot's persisted registry dumps (control + shards).

    Returns an empty registry when the snapshot carries no ``metrics``
    key (a run with sampling off).
    """
    merged = MetricsRegistry()
    payload = state.get("metrics") or {}
    control = payload.get("control")
    if control:
        merged.merge(control)
    for dump in payload.get("shards", []):
        if dump:
            merged.merge(dump)
    return merged


def pick_registry(
    snapshot_state: dict | None, sample: dict | None
) -> tuple[MetricsRegistry, str]:
    """The freshest persisted registry and where it came from.

    Snapshots and journal samples are written on different cadences, so
    whichever saw more ingested events is the newer view.  Returns
    ``(registry, source)`` with ``source`` one of ``"snapshot"``,
    ``"journal"``, or ``"none"``.
    """
    from_snapshot = (
        snapshot_registry(snapshot_state) if snapshot_state else MetricsRegistry()
    )
    from_sample = MetricsRegistry()
    if sample:
        from_sample.merge(sample.get("metrics", {}))
    snap_total = _total_events(from_snapshot)
    sample_total = _total_events(from_sample)
    if not len(from_snapshot) and not len(from_sample):
        return MetricsRegistry(), "none"
    if sample_total > snap_total:
        return from_sample, "journal"
    return from_snapshot, "snapshot"


def _total_events(registry: MetricsRegistry) -> float:
    return sum(
        value
        for key, value in registry.counters()
        if key.startswith(_INGEST_TOTAL)
    )


def read_status(root: str | Path) -> dict:
    """Everything ``repro status`` shows, as one dict.

    Keys: ``meta`` (descriptor or ``None``), ``snapshot_seq``,
    ``registry`` (the freshest persisted :class:`MetricsRegistry`),
    ``source`` (where it came from), and ``sample`` (the newest
    journaled :class:`~repro.service.events.MetricsSampled` payload or
    ``None``).
    """
    root = Path(root)
    meta = None
    if (root / "meta.json").exists():
        meta = json.loads((root / "meta.json").read_text())
    loaded = load_latest_snapshot(root)
    snapshot_seq, snapshot_state = loaded if loaded else (None, None)
    sample = last_metrics_sample(root)
    registry, source = pick_registry(snapshot_state, sample)
    return {
        "meta": meta,
        "snapshot_seq": snapshot_seq,
        "registry": registry,
        "source": source,
        "sample": sample,
    }
