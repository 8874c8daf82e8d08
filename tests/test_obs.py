"""Tests for the observability plane: registry, spans, persistence, CLI."""

import io
import json
import re

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
)
from repro.obs.introspect import (
    last_metrics_sample,
    load_latest_snapshot,
    read_status,
)
from repro.obs.metrics import parse_series_key, series_key
from repro.service.daemon import ServiceConfig, TempoService
from repro.service.events import JobCompleted, JobSubmitted, TaskCompleted
from repro.service.replay import (
    ScenarioReplayer,
    build_controller,
    build_service,
    make_scenario,
)
from repro.service.snapshot import ServiceState
from repro.workload.trace import JobRecord, TaskRecord

#: One line of the Prometheus text exposition format (comment, HELP/TYPE,
#: or a sample with optional labels); used to validate ``render()``.
PROM_LINE = re.compile(
    r"^(?:"
    r"# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (?:NaN|[+-]Inf|[-+]?[0-9.eE+-]+)"
    r")$"
)


def _telemetry(seed=0, count=120, tenants=("deadline", "besteffort")):
    """Pure telemetry events (no control-plane events, no heartbeats)."""
    rng = np.random.default_rng(seed)
    events, t = [], 0.0
    for i in range(count):
        t += float(rng.exponential(15.0))
        tenant = tenants[i % len(tenants)]
        job_id = f"{tenant}-{i}"
        events.append(JobSubmitted(t, tenant=tenant, job_id=job_id))
        duration = float(rng.lognormal(3.0, 0.6))
        finish = t + duration
        start = finish - duration
        events.append(
            TaskCompleted(
                finish,
                record=TaskRecord(
                    job_id=job_id,
                    task_id=f"{job_id}/t0",
                    tenant=tenant,
                    pool="map",
                    stage="map",
                    submit_time=max(start - 1.0, 0.0),
                    start_time=start,
                    finish_time=finish,
                ),
            )
        )
        events.append(
            JobCompleted(
                finish,
                record=JobRecord(
                    job_id=job_id, tenant=tenant, submit_time=t, finish_time=finish
                ),
            )
        )
    events.sort(key=lambda e: e.time)
    return events


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", help="things")
        c.inc()
        c.inc(3)
        assert registry.counter_value("x_total") == 4.0
        # Same (name, labels) returns the same instrument.
        assert registry.counter("x_total") is c

    def test_counter_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("v_total", verdict="accept").inc()
        registry.counter("v_total", verdict="revert").inc(2)
        assert registry.counter_value("v_total", verdict="accept") == 1.0
        assert registry.counter_value("v_total", verdict="revert") == 2.0

    def test_gauge_set_replaces_and_modes_govern_merge(self):
        """``set`` always replaces; ``mode`` decides how merges combine."""
        a = MetricsRegistry()
        a.gauge("g_last").set(5.0)
        a.gauge("g_last").set(2.0)
        assert a.gauge_value("g_last") == 2.0
        a.gauge("g_max", mode="max").set(5.0)
        a.gauge("g_sum", mode="sum").set(5.0)
        b = MetricsRegistry()
        b.gauge("g_last").set(9.0)
        b.gauge("g_max", mode="max").set(2.0)
        b.gauge("g_sum", mode="sum").set(2.0)
        a.merge(b.to_dict())
        assert a.gauge_value("g_last") == 9.0  # incoming wins
        assert a.gauge_value("g_max") == 5.0  # worst-of
        assert a.gauge_value("g_sum") == 7.0  # additive

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        h = registry.histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # last bucket is implicit +Inf
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("bad2_seconds", buckets=(2.0, 1.0))

    def test_span_phases(self):
        span = Span()
        with span.phase("drain"):
            pass
        with span.phase("merge"):
            pass
        with span.phase("drain"):  # re-entering accumulates
            pass
        assert set(span.durations) == {"drain", "merge"}
        assert all(d >= 0.0 for d in span.durations.values())
        assert span.total == pytest.approx(sum(span.durations.values()))

    def test_series_key_round_trip(self):
        key = series_key("m_total", {"b": "2", "a": "1"})
        assert key == 'm_total{a="1",b="2"}'  # labels sorted
        name, labels = parse_series_key(key)
        assert name == "m_total"
        assert labels == {"a": "1", "b": "2"}
        assert parse_series_key("bare_total") == ("bare_total", {})


class TestRegistrySerialization:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="c", verdict="accept").inc(3)
        registry.gauge("g_depth", help="g").set(7.0)
        registry.gauge("g_lag", mode="max").set(2.0)
        h = registry.histogram("h_seconds", help="h", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return registry

    def test_to_dict_from_dict_round_trip(self):
        registry = self._populated()
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_restore_overwrites(self):
        registry = self._populated()
        other = MetricsRegistry()
        other.counter("c_total", verdict="accept").inc(100)
        other.restore(registry.to_dict())
        assert other.counter_value("c_total", verdict="accept") == 3.0

    def test_merge_adds_counters_and_histograms(self):
        a = self._populated()
        b = self._populated()
        a.merge(b.to_dict())
        assert a.counter_value("c_total", verdict="accept") == 6.0
        h = a.to_dict()["histograms"]["h_seconds"]
        assert h["count"] == 4
        assert h["counts"] == [2, 2, 0]
        # Gauge modes: "last" takes the incoming value, "max" the max.
        assert a.gauge_value("g_depth") == 7.0
        assert a.gauge_value("g_lag") == 2.0

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h_seconds", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.to_dict())

    def test_n_shard_merge_equals_single_registry(self):
        """Shard-local registries merged at drain == one global registry."""
        rng = np.random.default_rng(7)
        single = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(4)]
        for _ in range(500):
            shard = shards[int(rng.integers(4))]
            amount = int(rng.integers(1, 10))
            for reg in (single, shard):
                reg.counter("e_total").inc(amount)
                reg.histogram("b_records", buckets=(2.0, 8.0)).observe(amount)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard.to_dict())
        assert merged.to_dict() == single.to_dict()

    def test_render_prometheus_grammar(self):
        registry = self._populated()
        text = registry.render()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert PROM_LINE.match(line), f"bad exposition line: {line!r}"
        # HELP/TYPE exactly once per metric name.
        assert text.count("# TYPE c_total ") == 1
        assert text.count("# HELP c_total ") == 1
        # Histograms expose cumulative buckets plus _sum/_count.
        assert '+Inf"} 2' in text
        assert "h_seconds_count 2" in text

    def test_null_registry_is_inert(self):
        registry = NullRegistry()
        registry.counter("c_total").inc()
        registry.gauge("g").set(5.0)
        registry.histogram("h_seconds").observe(1.0)
        assert len(registry) == 0
        assert registry.counter_value("c_total") == 0.0
        assert registry.to_dict() == {}
        assert registry.render() == ""


class TestServiceMetrics:
    def _config(self, **kwargs):
        return ServiceConfig(
            window=600.0, retune_interval=1e12, min_window_jobs=3, **kwargs
        )

    def test_sharded_totals_match_single_shard(self):
        """3-shard merged ingest totals == the single-shard count: every
        event and every ingest batch is counted once, at the control
        plane, whatever the shard count."""
        events = _telemetry(count=150)
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        totals, batches = [], []
        for shards in (1, 3):
            service = build_service(
                scenario, self._config(), seed=0, shards=shards
            )
            for i in range(0, len(events), 25):
                service.ingest_batch(events[i : i + 25])
            snap = service.metrics_snapshot()
            totals.append(snap.counter_value("tempo_ingest_events_total"))
            batches.append(snap.counter_value("tempo_ingest_batches_total"))
            service.close()
        assert totals[0] == totals[1] == len(events)
        assert batches[0] == batches[1] == -(-len(events) // 25)

    def test_observe_false_keeps_registry_null(self):
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        service = build_service(
            scenario, self._config(observe=False), seed=0
        )
        for event in _telemetry(count=30):
            service.process(event)
        assert isinstance(service.metrics, NullRegistry)
        assert len(service.metrics_snapshot()) == 0
        service.close()

    def test_default_config_journals_no_metrics_records(self, tmp_path):
        """API-built services keep journal bytes identical: no sampling."""
        scenario = make_scenario("steady", scale=1.0, horizon=3600.0)
        state = ServiceState(tmp_path)
        service = build_service(scenario, self._config(), seed=0, state=state)
        for event in _telemetry(count=60):
            service.process(event)
        service.close()
        assert last_metrics_sample(tmp_path) is None
        loaded = load_latest_snapshot(tmp_path)
        if loaded is not None:
            assert "metrics" not in loaded[1]

    def test_metrics_survive_kill_and_resume(self, tmp_path):
        """snapshot -> kill -9 -> resume: counters monotone, histograms exact."""
        scenario = make_scenario("steady", scale=1.0, horizon=7200.0)
        config = ServiceConfig(
            window=600.0,
            retune_interval=300.0,
            min_window_jobs=3,
            sample_metrics=True,
        )
        state = ServiceState(tmp_path)
        service = build_service(scenario, config, seed=1, state=state)
        ScenarioReplayer(scenario, service, seed=1, verify_stats=False).run(3600.0)
        live = service.metrics_snapshot().to_dict()
        # kill -9: abandon without close(); the sync journal is durable.
        del service, state

        loaded = load_latest_snapshot(tmp_path)
        assert loaded is not None
        persisted = loaded[1]["metrics"]["control"]
        assert last_metrics_sample(tmp_path) is not None

        resumed = TempoService.resume(
            build_controller(scenario), ServiceState(tmp_path), config
        )
        restored = resumed.metrics.to_dict()
        resumed.close()
        # Counters are monotone across the crash: the journal tail is
        # re-observed on top of the snapshot registry, so every restored
        # counter >= its snapshot value, and none regressed vs the live
        # pre-kill view by more than the un-snapshotted suffix allows.
        for key, value in persisted["counters"].items():
            assert restored["counters"][key] >= value
        for key, value in restored["counters"].items():
            assert value <= live["counters"].get(key, float("inf"))
        # Histograms restore bit-identically from the snapshot: nothing
        # observes latency during journal replay.
        assert restored["histograms"] == persisted["histograms"]

    def test_decision_counters_cover_journal_tail(self, tmp_path):
        """Decisions journaled after the last snapshot still count."""
        scenario = make_scenario("steady", scale=1.0, horizon=7200.0)
        config = ServiceConfig(
            window=600.0,
            retune_interval=300.0,
            min_window_jobs=3,
            sample_metrics=True,
        )
        state = ServiceState(tmp_path, snapshot_every=10**9)  # never snapshot
        service = build_service(scenario, config, seed=1, state=state)
        ScenarioReplayer(scenario, service, seed=1, verify_stats=False).run(2400.0)
        decisions = len(service.decisions)
        assert decisions > 0
        del service, state
        resumed = TempoService.resume(
            build_controller(scenario), ServiceState(tmp_path), config
        )
        total = sum(
            value
            for key, value in resumed.metrics.counters()
            if key.startswith("tempo_decisions_total")
        )
        assert total == len(resumed.decisions) > 0
        resumed.close()


class TestStatusCli:
    def _run_state_dir(self, tmp_path):
        from repro.cli import main

        state_dir = tmp_path / "state"
        out = io.StringIO()
        code = main(
            [
                "replay",
                "--scenario",
                "steady",
                "--horizon",
                "1",
                "--state-dir",
                str(state_dir),
            ],
            out=out,
        )
        assert code == 0
        return state_dir, out.getvalue()

    def test_replay_summary_reports_drops(self, tmp_path):
        _, text = self._run_state_dir(tmp_path)
        assert "dropped=0" in text

    def test_status_text(self, tmp_path):
        from repro.cli import main

        state_dir, _ = self._run_state_dir(tmp_path)
        out = io.StringIO()
        assert main(["status", "--state-dir", str(state_dir)], out=out) == 0
        text = out.getvalue()
        assert "tempo_ingest_events_total" in text
        assert "last MetricsSampled" in text
        assert "metrics source:" in text

    def test_status_prom_grammar(self, tmp_path):
        from repro.cli import main

        state_dir, _ = self._run_state_dir(tmp_path)
        out = io.StringIO()
        code = main(
            ["status", "--state-dir", str(state_dir), "--format", "prom"],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        assert any(line.startswith("tempo_ingest_events_total") for line in lines)
        for line in lines:
            assert PROM_LINE.match(line), f"bad exposition line: {line!r}"

    def test_whatif_counters_are_exposed_from_the_start(self, tmp_path):
        """Zero is a reading, not an absence: the what-if counters exist
        from construction, and a scrape of a steady run shows both."""
        from repro.cli import main

        fresh = build_service(
            make_scenario("steady", scale=1.0, horizon=600.0), ServiceConfig()
        )
        counters = fresh.metrics_snapshot().to_dict()["counters"]
        assert counters["tempo_whatif_evaluations_total"] == 0
        assert counters["tempo_whatif_cache_hits_total"] == 0
        state_dir, _ = self._run_state_dir(tmp_path)
        out = io.StringIO()
        assert (
            main(["status", "--state-dir", str(state_dir), "--format", "prom"], out=out)
            == 0
        )
        samples = {
            line.split()[0]: float(line.split()[1])
            for line in out.getvalue().splitlines()
            if line.startswith("tempo_whatif_")
        }
        assert samples["tempo_whatif_cache_hits_total"] >= 0
        assert samples["tempo_whatif_evaluations_total"] >= 0

    def test_status_refuses_non_state_dir(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no journal"):
            main(["status", "--state-dir", str(tmp_path / "nope")], out=io.StringIO())

    def test_log_json_emits_decision_lines(self, tmp_path):
        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["replay", "--scenario", "steady", "--horizon", "1", "--log-json"],
            out=out,
        )
        assert code == 0
        decisions = [
            json.loads(line)
            for line in out.getvalue().splitlines()
            if line.startswith("{")
        ]
        assert decisions
        for record in decisions:
            assert record["type"] == "decision"
            assert set(record) == {
                "type",
                "time",
                "index",
                "verdict",
                "retuned",
                "reason",
            }

    def test_status_matches_journal_tail_sample(self, tmp_path):
        """`repro status` is consistent with the newest MetricsSampled."""
        state_dir, _ = self._run_state_dir(tmp_path)
        status = read_status(state_dir)
        sample = status["sample"]
        assert sample is not None
        tail = MetricsRegistry.from_dict(sample["metrics"])
        shown = status["registry"]
        # Whichever source was picked, it saw at least as many events as
        # the journal's newest sample (the snapshot may be newer).
        assert shown.counter_value(
            "tempo_ingest_events_total"
        ) >= tail.counter_value("tempo_ingest_events_total")
