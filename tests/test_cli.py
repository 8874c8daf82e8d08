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
    """`repro dump-snapshot` renders a snapshot: header, control state,
    then one line per shard journal's mark."""

    MARKS = [(3, 2.5, 3, 1), (1, 3.0, 1, 2)]

    @classmethod
    def _state_dir(cls, tmp_path):
        from repro.service.snapshot import SnapshotStore

        store = SnapshotStore(tmp_path / "snapshots")
        store.write(10, {"events": 3})
        store.write(20, {"events": 4}, marks=cls.MARKS)
        return tmp_path

    @staticmethod
    def _dump(argv):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_header_control_then_one_line_per_shard_mark(self, tmp_path):
        root = self._state_dir(tmp_path)
        header, control, *marks = self._dump(
            ["dump-snapshot", "--state-dir", str(root)]
        )
        assert header == {
            "format": "tempo-snapshot/4",
            "seq": 20,
            "marks": [list(mark) for mark in self.MARKS],
        }
        assert control == {"events": 4}
        assert marks == [
            {"shard": 0, "seq": 3, "clock": 2.5, "events": 3, "mark": 1},
            {"shard": 1, "seq": 1, "clock": 3.0, "events": 1, "mark": 2},
        ]

    def test_seq_selects_an_older_snapshot(self, tmp_path):
        root = self._state_dir(tmp_path)
        header, control, *marks = self._dump(
            ["dump-snapshot", "--state-dir", str(root), "--seq", "10"]
        )
        assert (header["seq"], header["marks"], control["events"]) == (10, None, 3)
        assert marks == []
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
        newest.write_bytes(newest.read_bytes()[:-7])  # a torn control frame
        with pytest.raises(SystemExit, match=r"snapshot-0000000020\.json is unreadable"):
            main(["dump-snapshot", "--state-dir", str(root)], out=io.StringIO())

    def test_status_reads_counters_without_loading_a_window(
        self, tmp_path, monkeypatch
    ):
        """`repro status` reads the snapshot's two text lines: no window
        is decoded or refolded, and no journal is read to get them."""
        import repro.service.codec as codec_module
        import repro.service.journal as journal_module
        from repro.obs.introspect import load_latest_snapshot

        root = self._state_dir(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("status touched a window or a journal")

        monkeypatch.setattr(codec_module, "split_window_state", forbidden)
        monkeypatch.setattr(journal_module, "read_segment", forbidden)
        seq, state = load_latest_snapshot(root)
        assert (seq, state) == (20, {"events": 4})

    def test_piped_into_head_exits_zero(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.service.snapshot import SnapshotStore

        root = self._state_dir(tmp_path)
        # Far more output than a pipe buffer holds.
        marks = [(i, float(i), i, 1) for i in range(20000)]
        SnapshotStore(root / "snapshots").write(30, {"events": 5}, marks=marks)
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
        assert "tempo-snapshot/4" in done.stdout
        assert done.stderr == ""
