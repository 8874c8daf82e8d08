"""Tests for the operational CLI."""

import io
import json

import pytest

from repro.cli import build_parser, default_slos, load_slos, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scenario == "two-tenant"
        assert args.engine == "predictor"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "nope"])


class TestSloSpecs:
    def test_load_slos(self, tmp_path):
        spec = [
            {
                "queue": "deadline",
                "slo": "deadline",
                "max_violation_fraction": 0.1,
                "slack": 0.25,
            },
            {"queue": "besteffort", "slo": "response_time"},
        ]
        path = tmp_path / "slos.json"
        path.write_text(json.dumps(spec))
        slos = load_slos(str(path))
        assert len(slos) == 2
        assert slos[0].threshold == 0.1

    def test_load_slos_rejects_non_array(self, tmp_path):
        path = tmp_path / "slos.json"
        path.write_text('{"queue": "a"}')
        with pytest.raises(ValueError, match="JSON array"):
            load_slos(str(path))

    def test_default_slos_cover_scenarios(self):
        assert len(default_slos("two-tenant")) == 2
        assert len(default_slos("company-abc")) == 6


class TestSimulateCommand:
    def test_predictor_run(self, tmp_path):
        out = io.StringIO()
        save = tmp_path / "trace.jsonl"
        code = main(
            [
                "simulate",
                "--horizon", "0.3",
                "--seed", "1",
                "--save", str(save),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "deadline" in text and "besteffort" in text
        assert save.exists()

    def test_cluster_engine_with_noise(self):
        out = io.StringIO()
        code = main(
            [
                "simulate",
                "--engine", "cluster",
                "--noise", "production",
                "--horizon", "0.2",
            ],
            out=out,
        )
        assert code == 0
        assert "tenant" in out.getvalue()


class TestReportCommand:
    def test_roundtrip_report(self, tmp_path):
        out = io.StringIO()
        save = tmp_path / "trace.jsonl"
        main(["simulate", "--horizon", "0.3", "--save", str(save)], out=out)

        spec = tmp_path / "slos.json"
        spec.write_text(
            json.dumps([{"queue": "besteffort", "slo": "response_time", "threshold": 1.0}])
        )
        out = io.StringIO()
        code = main(["report", str(save), "--slos", str(spec)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "SLO QS values" in text
        assert "VIOLATED" in text  # 1s AJR threshold is surely violated


class TestGuardsFlag:
    def test_replay_with_predictive_guards_prints_verdicts(self):
        out = io.StringIO()
        code = main(
            [
                "replay",
                "--scenario", "steady",
                "--horizon", "1",
                "--guards", "predictive",
            ],
            out=out,
        )
        assert code == 0
        assert "verdicts=" in out.getvalue()

    def test_legacy_guards_print_no_verdict_line(self):
        out = io.StringIO()
        code = main(
            ["replay", "--scenario", "steady", "--horizon", "1"], out=out
        )
        assert code == 0
        assert "verdicts=" not in out.getvalue()

    def test_unknown_guard_rejected(self):
        with pytest.raises((SystemExit, ValueError)):
            main(
                [
                    "replay",
                    "--scenario", "steady",
                    "--horizon", "1",
                    "--guards", "psychic",
                ],
                out=io.StringIO(),
            )

    def test_bad_freeze_after_rejected(self):
        with pytest.raises(SystemExit, match="freeze-after"):
            main(
                [
                    "replay",
                    "--scenario", "steady",
                    "--horizon", "1",
                    "--freeze-after", "0",
                ],
                out=io.StringIO(),
            )


class TestConvertCommand:
    def test_convert_then_trace_replay(self, tmp_path):
        log = tmp_path / "callbacks.jsonl"
        out = io.StringIO()
        main(
            [
                "simulate",
                "--engine", "cluster",
                "--horizon", "0.5",
                "--save", str(log),
            ],
            out=out,
        )
        events = tmp_path / "events.jsonl"
        out = io.StringIO()
        code = main(
            ["convert", str(log), str(events), "--heartbeat", "10"], out=out
        )
        assert code == 0
        assert "converted" in out.getvalue()
        assert events.exists()
        out = io.StringIO()
        code = main(
            [
                "replay",
                "--scenario", "steady",
                "--trace", str(events),
                "--guards", "predictive",
            ],
            out=out,
        )
        assert code == 0
        assert "events=" in out.getvalue()

    def test_heartbeat_zero_emits_raw_callbacks_only(self, tmp_path):
        from repro.service.events import Heartbeat
        from repro.service.replay import load_trace_events

        log = tmp_path / "callbacks.jsonl"
        main(
            ["simulate", "--horizon", "0.3", "--save", str(log)],
            out=io.StringIO(),
        )
        events = tmp_path / "events.jsonl"
        code = main(
            ["convert", str(log), str(events), "--heartbeat", "0"],
            out=io.StringIO(),
        )
        assert code == 0
        assert not any(
            isinstance(e, Heartbeat) for e in load_trace_events(events)
        )

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(
                ["convert", str(tmp_path / "nope.jsonl"), str(tmp_path / "o")],
                out=io.StringIO(),
            )


class TestTuneCommand:
    def test_small_tune_run(self):
        out = io.StringIO()
        code = main(
            [
                "tune",
                "--iterations", "2",
                "--window", "10",
                "--candidates", "4",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "final configuration" in text
        assert "DL[deadline]" in text


class TestDumpJournal:
    """`repro dump-journal` renders the binary segments as JSON lines."""

    @staticmethod
    def _events():
        from repro.service.events import Heartbeat, JobSubmitted

        events = []
        for i in range(6):
            events.append(JobSubmitted(float(i), tenant="acme", job_id=f"j{i}"))
            events.append(Heartbeat(float(i) + 0.5))
        return events

    @classmethod
    def _state_dir(cls, tmp_path, name="st", segment_records=4):
        from repro.service.journal import EventJournal

        root = tmp_path / name
        journal = EventJournal(root / "journal", segment_records=segment_records)
        journal.append_events(cls._events())
        journal.close()
        return root

    def _dump(self, argv):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_dumps_every_record_as_a_json_line(self, tmp_path):
        from repro.service.journal import encode_event

        root = self._state_dir(tmp_path)
        records = self._dump(["dump-journal", "--state-dir", str(root)])
        assert records == [
            {"data": encode_event(event), "kind": "event", "seq": seq}
            for seq, event in enumerate(self._events(), 1)
        ]

    def test_json_segment_of_an_older_build_refused(self, tmp_path):
        root = self._state_dir(tmp_path)
        (root / "meta.json").write_text("{}")
        (root / "journal" / "segment-0000000013.jsonl").write_text("")
        for argv in (["dump-journal"], ["status"], ["resume"]):
            with pytest.raises(SystemExit, match=r"segment-0000000013\.jsonl"):
                main(argv + ["--state-dir", str(root)], out=io.StringIO())

    def test_segment_filter(self, tmp_path):
        root = self._state_dir(tmp_path)
        records = self._dump(
            ["dump-journal", "--state-dir", str(root), "--segment", "5"]
        )
        assert [r["seq"] for r in records] == [5, 6, 7, 8]

    def test_unknown_segment_rejected(self, tmp_path):
        root = self._state_dir(tmp_path)
        with pytest.raises(SystemExit, match="segments start at"):
            main(
                ["dump-journal", "--state-dir", str(root), "--segment", "3"],
                out=io.StringIO(),
            )

    def test_missing_journal_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="has no journal"):
            main(
                ["dump-journal", "--state-dir", str(tmp_path)], out=io.StringIO()
            )

    def test_missing_shard_rejected(self, tmp_path):
        root = self._state_dir(tmp_path)
        with pytest.raises(SystemExit, match="has no shard"):
            main(
                ["dump-journal", "--state-dir", str(root), "--shard", "2"],
                out=io.StringIO(),
            )

    def test_shard_journal_selected(self, tmp_path):
        from repro.service.events import Heartbeat
        from repro.service.journal import EventJournal
        from repro.service.sharding import shard_dir_name

        root = self._state_dir(tmp_path)
        shard = EventJournal(root / shard_dir_name(1) / "journal")
        shard.append_events([Heartbeat(42.0)])
        shard.close()
        records = self._dump(
            ["dump-journal", "--state-dir", str(root), "--shard", "1"]
        )
        assert len(records) == 1
        assert records[0]["data"]["time"] == 42.0


class TestDumpSnapshot:
    """`repro dump-snapshot` is the JSON view of a snapshot's binary frames."""

    @staticmethod
    def _windows():
        from repro.service.events import JobCompleted, JobSubmitted, TaskCompleted
        from repro.service.ingest import RollingWindow
        from repro.workload.trace import JobRecord, TaskRecord

        first, second = RollingWindow(600.0), RollingWindow(600.0)
        first.ingest(JobSubmitted(1.0, tenant="acme", job_id="j0"))
        first.ingest(
            TaskCompleted(
                2.0,
                record=TaskRecord("j0", "j0/t0", "acme", "map", "m", 1.0, 1.5, 2.0),
            )
        )
        first.ingest(
            JobCompleted(
                2.5,
                record=JobRecord("j0", "acme", 1.0, 2.5, None, 1, ("etl",), (("m", ()),)),
            )
        )
        second.ingest(JobSubmitted(3.0, tenant="zeta", job_id="z0"))
        return first, second

    @classmethod
    def _state_dir(cls, tmp_path):
        from repro.service.snapshot import SnapshotStore

        first, second = cls._windows()
        store = SnapshotStore(tmp_path / "snapshots")
        store.write(10, {"events": 3, "windows": [first.to_state()]})
        store.write(
            20,
            {"events": 4, "windows": [first.to_state(), second.to_state()]},
            shard_seqs=[3, 1],
        )
        return tmp_path

    @staticmethod
    def _dump(argv):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_header_control_then_one_line_per_retained_entry(self, tmp_path):
        from repro.workload.trace import job_record_to_dict, task_record_to_dict

        root = self._state_dir(tmp_path)
        first, second = self._windows()
        header, control, *entries = self._dump(
            ["dump-snapshot", "--state-dir", str(root)]
        )
        assert header == {"format": "tempo-snapshot/3", "seq": 20, "shard_seqs": [3, 1]}
        assert control == {
            "events": 4,
            "windows": [len(first.to_state()), len(second.to_state())],
        }
        task = first._tenants["acme"].tasks[0][1]
        job = first._tenants["acme"].jobs[0][1]
        assert entries == [
            {"window": 0, "tenant": "acme", "kind": "task", "time": 2.0,
             "record": task_record_to_dict(task)},
            {"window": 0, "tenant": "acme", "kind": "job", "time": 2.5,
             "record": json.loads(json.dumps(job_record_to_dict(job)))},
            {"window": 0, "tenant": "acme", "kind": "submit", "time": 1.0,
             "record": None},
            {"window": 1, "tenant": "zeta", "kind": "submit", "time": 3.0,
             "record": None},
        ]

    def test_seq_selects_an_older_snapshot(self, tmp_path):
        root = self._state_dir(tmp_path)
        header, control, *entries = self._dump(
            ["dump-snapshot", "--state-dir", str(root), "--seq", "10"]
        )
        assert (header["seq"], header["shard_seqs"], control["events"]) == (10, None, 3)
        assert {entry["window"] for entry in entries} == {0}
        with pytest.raises(SystemExit, match="no snapshot at seq 15"):
            main(
                ["dump-snapshot", "--state-dir", str(root), "--seq", "15"],
                out=io.StringIO(),
            )

    def test_missing_and_unreadable_snapshots_are_named(self, tmp_path):
        with pytest.raises(SystemExit, match="holds no snapshot"):
            main(["dump-snapshot", "--state-dir", str(tmp_path)], out=io.StringIO())
        root = self._state_dir(tmp_path)
        newest = root / "snapshots" / "snapshot-0000000020.json"
        newest.write_bytes(newest.read_bytes()[:-7])  # a torn window frame
        with pytest.raises(SystemExit, match=r"snapshot-0000000020\.json is unreadable"):
            main(["dump-snapshot", "--state-dir", str(root)], out=io.StringIO())

    def test_status_reads_counters_without_loading_a_window(
        self, tmp_path, monkeypatch
    ):
        """`repro status` stops after the control frame: window bytes are
        neither read nor CRC-checked, so even a torn window tail does
        not hide the counters."""
        import repro.service.snapshot as snapshot_module
        from repro.obs.introspect import load_latest_snapshot

        root = self._state_dir(tmp_path)
        newest = root / "snapshots" / "snapshot-0000000020.json"
        newest.write_bytes(newest.read_bytes()[:-7])

        def forbidden(data):
            raise AssertionError("status parsed a window state")

        monkeypatch.setattr(snapshot_module, "split_window_state", forbidden)
        seq, state = load_latest_snapshot(root)
        assert (seq, state["events"]) == (20, 4)
        assert all(isinstance(size, int) for size in state["windows"])

    def test_piped_into_head_exits_zero(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.service.events import JobSubmitted
        from repro.service.ingest import RollingWindow
        from repro.service.snapshot import SnapshotStore

        root = self._state_dir(tmp_path)
        big = RollingWindow(1e9)  # far more output than a pipe buffer holds
        big.ingest_many(
            JobSubmitted(float(i), tenant="acme", job_id=f"j{i}") for i in range(20000)
        )
        SnapshotStore(root / "snapshots").write(30, {"windows": [big.to_state()]})
        src = Path(__file__).parent.parent / "src"
        done = subprocess.run(
            f"{sys.executable} -m repro dump-snapshot --state-dir {root} | head -1",
            shell=True,
            executable="/bin/bash",
            env={**os.environ, "PYTHONPATH": str(src), "SHELLOPTS": "pipefail"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "tempo-snapshot/3" in done.stdout
        assert done.stderr == ""
