"""Discrete-event primitives: a deterministic priority event queue."""

from __future__ import annotations

import heapq
import math
from typing import Any

#: One scheduled event: ``(time, seq, kind, payload)``.  ``seq`` is
#: unique, so heap comparisons never reach ``kind`` or ``payload``.
Event = tuple[float, int, Any, Any]


class EventQueue:
    """Min-heap of :data:`Event` tuples with deterministic FIFO ties.

    Events at equal timestamps pop in insertion order, which keeps the
    time-warp simulation fully deterministic for a fixed input.  Entries
    are plain tuples because the heap compares them in C — the
    predictor's event loop is the floor of every retune.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: Any, payload: Any = None) -> int:
        """Schedule an event; returns its sequence number."""
        if math.isnan(time):
            raise ValueError("event time must not be NaN")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, kind, payload))
        return seq

    def pop_batch(self, epsilon: float = 1e-9) -> list[Event]:
        """Pop every event sharing the earliest timestamp (within eps).

        Processing simultaneous events as one batch lets the simulator
        recompute allocations once per instant instead of once per event.
        """
        heap = self._heap
        if not heap:
            return []
        batch = [heapq.heappop(heap)]
        limit = batch[0][0] + epsilon
        while heap and heap[0][0] <= limit:
            batch.append(heapq.heappop(heap))
        return batch
