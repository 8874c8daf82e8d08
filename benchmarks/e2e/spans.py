"""In-memory span tracing of the serve path, installed from outside.

The benchmark measures layers without touching ``src/``: a
:class:`Tracer` swaps each layer's public entry point (a class
attribute) for a timing wrapper, records one span per call while a
traced pass runs, and puts the original attributes back afterwards.
End-to-end numbers are never taken from a traced pass.

A span row is ``[name, start, end, busy, parent, batch, count]``:

* ``name`` is ``<layer>.<operation>``; the layer is the module under
  ``src/repro/`` that owns the entry point.
* ``busy`` is the time spent inside the call.  For a plain call that is
  ``end - start``; for a generator (``EventJournal.iter_records``) it is
  the time spent producing items, not the consumer's time between them.
* ``parent`` is the row index of the span that caused this one (``-1``
  for a root) and ``batch`` the id of the enclosing ``ingest_batch`` /
  ``resume`` call as set by the driver loop.
* ``count`` is the work the call did in the layer's own unit (records
  appended, events folded, tasks predicted, ...).

A span's **self time** is its ``busy`` minus the ``busy`` of its direct
children, so self times over the whole tree add up to the time covered
by root spans — the per-layer budget whose parts sum to the whole.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from time import perf_counter

NAME, START, END, BUSY, PARENT, BATCH, COUNT = range(7)
COLUMNS = ["name", "start", "end", "busy", "parent", "batch", "count"]


def _one(args, result) -> int:
    return 1


def _batch_len(args, result) -> int:
    """Length of the batch a method was handed as its first argument."""
    return len(args[1]) if len(args) > 1 and hasattr(args[1], "__len__") else 0


def entry_points() -> list[tuple]:
    """``(owner class, attribute, span name, count function)`` per layer.

    Imported lazily so this module stays importable (for the span
    arithmetic tests) without ``repro`` on the path.  A count function
    maps ``(args, result)`` to the work done, ``args[0]`` being the
    instance (or class).
    """
    from repro.core.controller import TempoController
    from repro.core.decisions import DecisionEngine
    from repro.core.pald import PALD
    from repro.service.daemon import TempoService
    from repro.service.ingest import RollingWindow
    from repro.service.journal import EventJournal
    from repro.service.sharding import IngestShard, ShardRouter
    from repro.service.snapshot import ServiceState
    from repro.sim.predictor import SchedulePredictor
    from repro.slo.objectives import SLOSet
    from repro.whatif.evalpool import BoundWhatIf
    from repro.whatif.model import WhatIfModel

    return [
        (TempoService, "ingest_batch", "daemon.ingest_batch", None),
        (TempoService, "retune", "daemon.retune", None),
        (TempoService, "state_dict", "daemon.state_dict", None),
        (TempoService, "resume", "daemon.resume", None),
        (ServiceState, "record_events", "snapshot.record_events", None),
        (ServiceState, "write_snapshot", "snapshot.write", None),
        (ServiceState, "load_latest_snapshot", "snapshot.load", None),
        (EventJournal, "append_events", "journal.append",
         lambda args, result: len(result)),
        (EventJournal, "append", "journal.append", _one),
        (EventJournal, "iter_records", "journal.read", None),  # counts items
        (RollingWindow, "ingest_many", "ingest.fold", _batch_len),
        (RollingWindow, "ingest", "ingest.fold", _one),
        (RollingWindow, "advance", "ingest.advance", None),
        (RollingWindow, "snapshot", "ingest.snapshot", None),
        (RollingWindow, "trace", "ingest.trace", None),
        (RollingWindow, "to_state", "ingest.to_state", None),
        (RollingWindow, "from_state", "ingest.from_state", None),
        (RollingWindow, "merge_states", "ingest.merge", None),
        (ShardRouter, "partition", "sharding.partition", None),
        (IngestShard, "ingest", "sharding.shard_ingest", _batch_len),
        (IngestShard, "drain_state", "sharding.drain", None),
        (IngestShard, "drain_stats", "sharding.drain", None),
        (DecisionEngine, "tick", "decisions.tick", None),
        (DecisionEngine, "judge", "decisions.judge", None),
        (TempoController, "tune_from_trace", "controller.tune", None),
        (PALD, "step", "pald.step", None),
        (SLOSet, "evaluate", "slo.evaluate", None),
        (BoundWhatIf, "evaluate", "evalpool.batch", _one),
        (BoundWhatIf, "evaluate_batch", "evalpool.batch", _batch_len),
        (WhatIfModel, "evaluate", "whatif.evaluate", None),
        (SchedulePredictor, "predict", "predictor.predict",
         lambda args, result: args[1].num_tasks),
    ]


class Tracer:
    """Records spans for wrapped callables; restores them on uninstall."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.batch = -1
        self._open: list[int] = []
        self._originals: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, count=None):
        """A timing wrapper around ``fn`` (function or generator function)."""
        rows, stack = self.rows, self._open

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                row = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.batch, 0]
                index = len(rows)
                rows.append(row)
                items = fn(*args, **kwargs)
                row[START] = perf_counter()
                while True:
                    stack.append(index)
                    began = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        row[END] = perf_counter()
                        row[BUSY] += row[END] - began
                        stack.pop()
                    row[COUNT] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.batch, 0]
            stack.append(len(rows))
            rows.append(row)
            row[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = perf_counter()
                row[BUSY] = row[END] - row[START]
                stack.pop()
            if count is not None:
                row[COUNT] = count(args, result)
            return result

        return traced

    def install(self, points=None) -> None:
        """Swap every entry point's class attribute for its wrapper."""
        for owner, attr, name, count in entry_points() if points is None else points:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(original.__func__, name, count))
            else:
                wrapper = self.wrap(original, name, count)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original class attributes back (newest first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- arithmetic ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-row self time: busy minus the busy of direct children."""
        selfs = [row[BUSY] for row in self.rows]
        for row in self.rows:
            if row[PARENT] >= 0:
                selfs[row[PARENT]] -= row[BUSY]
        return selfs

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``busy_s``, ``self_s`` and ``count``.

        ``busy_s`` and ``count`` skip spans nested under a span of the
        same name (``BoundWhatIf.evaluate`` re-enters
        ``evaluate_batch``), so re-entrant calls are not counted twice;
        ``self_s`` needs no such rule.
        """
        rows = self.rows
        out: dict[str, dict] = {}
        for row, self_s in zip(rows, self.self_times()):
            entry = out.setdefault(
                row[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0}
            )
            entry["calls"] += 1
            entry["self_s"] += self_s
            parent = row[PARENT]
            while parent >= 0 and rows[parent][NAME] != row[NAME]:
                parent = rows[parent][PARENT]
            if parent < 0:  # outermost span of its name
                entry["busy_s"] += row[BUSY]
                entry["count"] += row[COUNT]
        return out

    def covered(self) -> float:
        """Seconds inside root spans (equals the sum of all self times)."""
        return sum(row[BUSY] for row in self.rows if row[PARENT] < 0)

    # -- output -------------------------------------------------------------

    def waterfall(self, wall: float) -> str:
        """The per-span table: calls, busy, self, share of ``wall``."""
        lines = [f"{'span':<26}{'calls':>9}{'busy_s':>10}{'self_s':>10}{'self %':>8}"]
        summary = self.summary()
        for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
            entry = summary[name]
            lines.append(
                f"{name:<26}{entry['calls']:>9}{entry['busy_s']:>10.4f}"
                f"{entry['self_s']:>10.4f}{100 * entry['self_s'] / wall:>7.1f}%"
            )
        untraced = wall - self.covered()
        lines.append(
            f"{'(outside spans)':<26}{'':>9}{'':>10}{untraced:>10.4f}"
            f"{100 * untraced / wall:>7.1f}%"
        )
        return "\n".join(lines)

    def dump(self, path: Path, **header) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        names = sorted({row[NAME] for row in self.rows})
        index = {name: i for i, name in enumerate(names)}
        epoch = self.rows[0][START] if self.rows else 0.0
        spans = [
            [
                index[row[NAME]],
                round(row[START] - epoch, 7),
                round(row[END] - epoch, 7),
                round(row[BUSY], 7),
                row[PARENT],
                row[BATCH],
                row[COUNT],
            ]
            for row in self.rows
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({**header, "columns": COLUMNS, "names": names, "spans": spans})
        )
