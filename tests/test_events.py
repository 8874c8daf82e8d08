"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventQueue


def kinds(batch):
    return [kind for _, _, kind, _ in batch]


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [kinds(q.pop_batch()) for _ in range(3)] == [["a"], ["c"], ["b"]]
        assert not q

    def test_fifo_on_ties(self):
        q = EventQueue()
        seqs = [q.push(1.0, kind) for kind in ("first", "second", "third")]
        assert seqs == sorted(seqs)
        assert kinds(q.pop_batch()) == ["first", "second", "third"]

    def test_pop_batch_collects_simultaneous(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.push(1.0, "b")
        q.push(2.0, "c")
        batch = q.pop_batch()
        assert kinds(batch) == ["a", "b"]
        assert len(q) == 1

    def test_pop_batch_empty(self):
        assert EventQueue().pop_batch() == []

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), "x")

    def test_payload_carried(self):
        q = EventQueue()
        seq = q.push(1.0, "x", payload={"k": 1})
        assert q.pop_batch() == [(1.0, seq, "x", {"k": 1})]
