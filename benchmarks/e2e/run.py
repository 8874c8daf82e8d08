"""One end-to-end budget benchmark for the Tempo serving path.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

runs one workload in this process: it generates the input from the
seed, drives the real serve path for about ``T`` seconds of timed work,
checks the outputs against the oracles and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``
(tracing off), the per-layer metrics with ``--trace 1`` (a traced pass
beside an untraced one).  ``BENCHMARK.json`` at the repository root
names every metric, its unit, direction and regression bound.

Without ``--workload`` every workload runs in its own child process
(fresh heap, own ``setup_s`` and ``peak_rss_mb``) and the metrics are
printed as a table.  ``--selfcheck`` runs two sets of the same code and
reports whether they agree within the benchmark's own bounds;
``--smoke`` runs every workload once on a tiny stream, checks only.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402  (needs src/ on the path)
    WORKLOADS,
    generate,
    ingest_pass,
    prepare_crash,
    resume_pass,
    smoke_sized,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that are not ``<span>.<busy_s|self_s|calls>``:
#: the span, and which of its summary fields, they report.
SPAN_COUNTS = {
    "journal.append.records": ("journal.append", "count"),
    "journal.read.records": ("journal.read", "count"),
    "ingest.fold.events": ("ingest.fold", "count"),
    "pald.steps": ("pald.step", "calls"),
    "predictor.calls": ("predictor.predict", "calls"),
    "predictor.tasks": ("predictor.predict", "count"),
    "evalpool.candidates": ("evalpool.batch", "count"),
    # Every what-if evaluation the pool lets through is a simulation run.
    "evalpool.sim_runs": ("whatif.evaluate", "calls"),
}

#: Counts that must repeat exactly for a fixed seed: across the traced
#: passes of one run, and between two runs (``--selfcheck``).
EXACT_COUNTS = [
    "daemon.ticks",
    "evalpool.sim_runs",
    "evalpool.hits",
    "predictor.tasks",
    "journal.append.records",
    "snapshot.write.calls",
]


def host() -> dict:
    """The reference-host note recorded in every result file."""
    return {"nproc": os.cpu_count(), "python": platform.python_version()}


def percentile_75(samples: list) -> float:
    """Third quartile (the sample itself when there is only one)."""
    if len(samples) < 2:
        return samples[0]
    return quantiles(samples, n=4)[2]


# -- one workload, in this process --------------------------------------------


def prepare(workload, seed: int, index: int, tmp: Path):
    """Set-up of one stream: its generation + state-dir preparation."""
    began = perf_counter()
    stream = generate(workload, seed, index)
    root = tmp / f"stream{index}"
    live = prepare_crash(workload, stream, root, seed) if workload.resumes else None
    return stream, live, root, perf_counter() - began


def one_pass(workload, stream, live, root: Path, seed: int, tracer=None):
    """One timed pass over ``stream`` (fresh state; ``root`` is reusable)."""
    if workload.resumes:
        return resume_pass(workload, stream, root, live, seed, tracer)
    try:
        return ingest_pass(workload, stream, root, seed, tracer)
    finally:
        shutil.rmtree(root, ignore_errors=True)


#: Streams generated (and set-ups timed) in one end-to-end run.
SETUPS = 3


def measure_end_to_end(workload, seed: int, seconds: float, tmp: Path, setups: int = SETUPS):
    """``setups`` fresh streams share ``seconds`` of timed passes.

    Stream ``i`` is passed over (fresh service and state dir each time)
    until the timed work reaches its share ``(i + 1) / setups`` of
    ``seconds``, so a run overshoots by less than one pass.
    """
    passes, setup_s, timed = [], [], 0.0
    for index in range(setups):
        stream, live, root, took = prepare(workload, seed, index, tmp)
        setup_s.append(took)
        first = len(passes)
        while len(passes) == first or timed < seconds * (index + 1) / setups:
            passes.append(one_pass(workload, stream, live, root, seed))
            timed += passes[-1].timed_s
        shutil.rmtree(root, ignore_errors=True)  # a resume pass's crashed dir
        # Same input, same outcome on every pass over one stream.
        passes[first].check(
            all(p.facts["outcome"] == passes[first].facts["outcome"] for p in passes[first:]),
            "verdict sequence or final RMConfig differs between passes of one stream",
        )
        del stream, live
    ticks = [ms for p in passes for ms in p.tick_ms]
    rates = [p.events / p.wall_s for p in passes]
    metrics = {
        "setup_s": median(setup_s),
        "events_per_s": median(rates),
        "tick_latency_p50_ms": median(ticks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "passes": len(passes),
        "tick_samples": len(ticks),
        "setup_s": setup_s,
        "events_per_s": rates,
        "tick_ms": [p.tick_ms for p in passes],
        "timed_s": [p.timed_s for p in passes],
    }
    print(
        f"{workload.name}: {setups} streams, {len(passes)} passes, {timed:.1f}s timed, "
        f"{len(ticks)} tick samples"
    )
    return metrics, passes, raw


def layer_metrics(summaries, traced, untraced, covered) -> dict:
    """Every per-layer metric, as medians over the traced passes."""

    def span(name: str, key: str) -> float:
        return median([s.get(name, {}).get(key, 0) for s in summaries])

    def fact(key: str) -> float:
        return median([p.facts.get(key, 0) for p in traced])

    out = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        stem, _, last = name.rpartition(".")
        if name in SPAN_COUNTS:
            out[name] = span(*SPAN_COUNTS[name])
        elif last in ("busy_s", "self_s", "calls"):
            out[name] = span(stem, last)
    wall_traced = median([p.timed_s for p in traced])
    wall_untraced = median([p.timed_s for p in untraced])
    hits = out["evalpool.candidates"] - out["evalpool.sim_runs"]
    busy = out["predictor.predict.busy_s"]
    out.update(
        {
            "daemon.ticks": fact("ticks"),
            "daemon.ticks_retuned": fact("ticks_retuned"),
            # The tail, tracing off.  No bound: its spread between runs of
            # the same code is wider than any (see README, "Why no tail").
            "daemon.tick_p75_ms": percentile_75([ms for p in untraced for ms in p.tick_ms]),
            "snapshot.bytes_last": fact("snapshot_bytes_last"),
            "journal.bytes_per_event": fact("journal_bytes_per_event"),
            "ingest.retained_entries_peak": fact("retained_peak"),
            "sharding.skew": fact("shard_skew"),
            "evalpool.hits": hits,
            "evalpool.hit_ratio": hits / out["evalpool.candidates"]
            if out["evalpool.candidates"]
            else 0.0,
            "predictor.tasks_per_s": out["predictor.tasks"] / busy if busy else 0.0,
            "trace.coverage": median(covered) / wall_traced,
            "trace.overhead_pct": 100.0 * (wall_traced / wall_untraced - 1.0),
        }
    )
    return out


def measure_layers(workload, seed: int, seconds: float, tmp: Path, record: bool):
    """Untraced/traced pass pairs over one stream until ``seconds``."""
    if workload.resumes:  # one resume cycle keeps the span file small
        workload = replace(workload, resumes=1)
    stream, live, root, _ = prepare(workload, seed, 0, tmp)
    untraced, traced, summaries, covered, timed = [], [], [], [], 0.0
    while not traced or timed < seconds:
        untraced.append(one_pass(workload, stream, live, root, seed))
        tracer = Tracer()
        traced.append(one_pass(workload, stream, live, root, seed, tracer))
        summaries.append(tracer.summary())
        covered.append(tracer.covered())
        timed += untraced[-1].timed_s + traced[-1].timed_s
    metrics = layer_metrics(summaries, traced, untraced, covered)
    passes = untraced + traced
    # Same input, same outcome — with and without the wrappers installed.
    first = passes[0]
    first.check(
        all(p.facts["outcome"] == first.facts["outcome"] for p in passes),
        "verdict sequence or final RMConfig differs between passes of one stream",
    )
    per_pass = [layer_metrics([s], [t], [t], [c]) for s, t, c in zip(summaries, traced, covered)]
    for name in EXACT_COUNTS:
        values = {p[name] for p in per_pass}
        first.check(len(values) == 1, f"{name} does not repeat exactly: {sorted(values)}")
    print(f"{workload.name}: waterfall of the last traced pass ({traced[-1].timed_s:.3f}s)")
    print(tracer.waterfall(traced[-1].timed_s))
    if record:
        tracer.dump(
            RESULTS / f"trace-{workload.name}.json",
            workload=workload.name,
            seed=seed,
            host=host(),
            wall_s=traced[-1].timed_s,
            layers=metrics,
        )
    return metrics, passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload here; returns the result object the driver reads."""
    workload = smoke_sized(WORKLOADS[name]) if smoke else WORKLOADS[name]
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        if trace:
            metrics, passes = measure_layers(workload, seed, seconds, tmp, not smoke)
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        else:
            metrics, passes, raw = measure_end_to_end(
                workload, seed, seconds, tmp, 1 if smoke else SETUPS
            )
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    failures = [message for p in passes for message in p.failures]
    for message in failures:
        print(f"FAILED {name}: {message}")
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if not trace and not smoke:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}.json").write_text(
            json.dumps(
                {"workload": name, "seed": seed, "seconds": seconds, "host": host(),
                 "result": result, "failures": failures, "raw": raw},
                indent=1,
            )
        )
    return result


# -- every workload, each in its own child process ----------------------------


def child(name: str, seed: int, seconds: float, trace: int, echo: bool = False) -> dict:
    """Run one workload in a fresh process; returns its result object."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{name}: no result (exit {done.returncode})\n{done.stderr}")
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def print_table(title: str, specs: list, results: dict) -> None:
    """Every metric by name with unit and direction, one column per workload."""
    names = list(results)
    print(f"\n{title}")
    print(f"{'metric':<30}{'unit':>9}{'better':>8}" + "".join(f"{n:>17}" for n in names))
    for spec in specs:
        cells = "".join(
            f"{results[n]['metrics'][spec['name']]['value']:>17.6g}" for n in names
        )
        print(f"{spec['name']:<30}{spec['unit']:>9}{spec['better']:>8}{cells}")
    print(
        f"{'failed_ops_share':<30}{'ratio':>9}{'lower':>8}"
        + "".join(f"{results[n]['failed'] / results[n]['attempted']:>17.6g}" for n in names)
    )


def run_all(seed: int, seconds: float) -> int:
    """Both modes of every workload, printed as two tables."""
    names = [w["name"] for w in SPEC["workloads"]]
    plain = {name: child(name, seed, seconds, 0) for name in names}
    traced = {name: child(name, seed, seconds, 1, echo=True) for name in names}
    print(f"\nhost: {host()}  seed: {seed}  seconds: {seconds}")
    print_table("end to end (tracing off)", SPEC["end_to_end"], plain)
    print_table("per layer (traced pass)", SPEC["per_layer"], traced)
    return 0 if all(r["correct"] for r in [*plain.values(), *traced.values()]) else 1


def selfcheck(seeds: list, seconds: float) -> int:
    """A/A: two sets of the same code must agree within the bounds.

    The sets alternate which runs first and reverse the workload order.
    A pair whose quartile spread exceeds the bound is *unresolved*: the
    benchmark cannot tell a regression of that size from noise there.
    """
    names = [w["name"] for w in SPEC["workloads"]]
    sets = ({n: [] for n in names}, {n: [] for n in names})
    for i, seed in enumerate(seeds):
        order = names if i % 2 == 0 else names[::-1]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            for name in order:
                sets[side][name].append(child(name, seed, seconds, 0))
    bad = 0
    print(f"\nA/A over seeds {seeds}: median A, median B, worse by, IQR/median, verdict")
    for spec in SPEC["end_to_end"]:
        for name in names:
            a, b = ([r["metrics"][spec["name"]]["value"] for r in s[name]] for s in sets)
            med_a, med_b = median(a), median(b)
            worse = (med_b / med_a - 1.0) * (1 if spec["better"] == "lower" else -1)
            q = quantiles(a + b, n=4) if len(a + b) > 1 else [med_a] * 3
            spread = (q[2] - q[0]) / q[1]
            if spec["name"] != "setup_s" and spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "agree" if abs(worse) <= spec["bound"] else "DISAGREE"
            bad += verdict != "agree"
            print(
                f"{spec['name']:<22}{name:<17}{med_a:>12.5g}{med_b:>12.5g}"
                f"{100 * worse:>+8.1f}%{100 * spread:>7.1f}%  {verdict}"
            )
    for name in names:
        first, second = (child(name, seeds[0], seconds, 1) for _ in range(2))
        for count in EXACT_COUNTS:
            a, b = (r["metrics"][count]["value"] for r in (first, second))
            bad += a != b
            print(f"{count:<26}{name:<17}{a:>12g}{b:>12g}  {'exact' if a == b else 'DIFFERS'}")
    failed = sum(r["failed"] for s in sets for runs in s.values() for r in runs)
    print(f"failed operations: {failed}")
    return 1 if bad or failed else 0


def main(argv=None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        results = [
            run_workload(w["name"], args.seed, 0.0, trace, smoke=True)
            for w in SPEC["workloads"]
            for trace in (False, True)
        ]
        return 0 if all(r["correct"] for r in results) else 1
    if args.selfcheck:
        return selfcheck([args.seed, args.seed + 1, args.seed + 2], args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
