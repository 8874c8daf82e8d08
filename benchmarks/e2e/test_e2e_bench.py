"""Fast checks of the benchmark's own machinery (rides tier-1).

Span-tree arithmetic on a fake clock, stream determinism, tiling
invariants, and a ``--smoke`` run of all five workloads end to end.
No timing is asserted anywhere.
"""

from __future__ import annotations

import itertools

import pytest

import run
import spans
import workloads
from repro.service.daemon import TempoService
from repro.service.events import Heartbeat, JobSubmitted, TaskCompleted


@pytest.fixture
def tracer(monkeypatch):
    """A tracer on a clock that advances one second per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(ticks)))
    return spans.Tracer()


def test_nested_and_sibling_self_time(tracer):
    leaf = tracer.wrap(lambda: None, "leaf")
    outer = tracer.wrap(lambda: (leaf(), leaf()), "outer")
    outer()  # outer 0..5, leaves 1..2 and 3..4
    assert [row[spans.BUSY] for row in tracer.rows] == [5.0, 1.0, 1.0]
    assert [row[spans.PARENT] for row in tracer.rows] == [-1, 0, 0]
    assert tracer.self_times() == [3.0, 1.0, 1.0]
    assert tracer.covered() == sum(tracer.self_times()) == 5.0


def test_reentrant_span_counts_once(tracer):
    def countdown(n):
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap(countdown, "f", count=lambda args, result: 1)
    wrapped(2)  # 0..5, 1..4, 2..3
    entry = tracer.summary()["f"]
    assert entry["calls"] == 3
    assert entry["busy_s"] == 5.0  # the outermost span only
    assert entry["self_s"] == 5.0  # 2 + 2 + 1
    assert entry["count"] == 1


def test_generator_span_times_production_only(tracer):
    def numbers():
        yield 1
        yield 2

    assert list(tracer.wrap(numbers, "gen")()) == [1, 2]
    (row,) = tracer.rows
    # Three resumptions of one second each; the consumer's time between
    # them (also one second each on this clock) is not the generator's.
    assert row[spans.BUSY] == 3.0
    assert row[spans.COUNT] == 2


def test_install_restores_every_kind_of_attribute():
    class Layer:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls

        def items(self):
            yield from (1, 2)

    before = dict(vars(Layer))
    tracer = spans.Tracer()
    points = [(Layer, name, f"layer.{name}", None) for name in ("method", "build", "items")]
    tracer.install(points)
    assert Layer().method() == "m" and Layer.build() is Layer
    assert list(Layer().items()) == [1, 2]
    assert {row[spans.NAME] for row in tracer.rows} == {
        "layer.method", "layer.build", "layer.items"
    }
    tracer.uninstall()
    assert all(vars(Layer)[name] is before[name] for name in ("method", "build", "items"))


def test_same_seed_same_stream():
    tiny = workloads.smoke_sized(workloads.WORKLOADS["firehose_1shard"])
    digest = workloads.stream_digest(workloads.generate(tiny, 7, 0).events)
    assert workloads.stream_digest(workloads.generate(tiny, 7, 0).events) == digest
    assert workloads.stream_digest(workloads.generate(tiny, 8, 0).events) != digest
    assert workloads.stream_digest(workloads.generate(tiny, 7, 1).events) != digest


def test_tiling_invariants():
    _, trace = workloads.simulate(2.0, 0.25, 3)
    base = workloads.events_from_trace(trace)
    events = workloads.tile_events(base, 5, tenants=16)
    assert len(events) > 5 * len(base)  # five tiles plus heartbeats
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))
    jobs = [e.job_id for e in events if type(e) is JobSubmitted]
    tasks = [
        (e.record.task_id, e.record.attempt) for e in events if type(e) is TaskCompleted
    ]
    assert len(set(jobs)) == len(jobs) and len(set(tasks)) == len(tasks)
    tenants = {e.tenant for e in events if type(e) is JobSubmitted}
    assert len(tenants) == 16
    assert type(events[workloads.crash_point(events) - 1]) is Heartbeat


def test_smoke_runs_all_five_workloads_and_restores_wrappers(capsys):
    original = TempoService.ingest_batch
    assert run.main(["--smoke"]) == 0
    assert TempoService.ingest_batch is original
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert all(w["name"] in out for w in run.SPEC["workloads"])
