"""End-to-end benchmark of sqlscout: search, value index and harness.

Run from the repository root:

    python3 e2ebench/run.py --workload search_latency --seed 0 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload generates its inputs from the seed, then alternates whole
rounds of its question set through `run_benchmark` with repetitions of the
set-up (`sqlscout index build`, then the catalog and index loading of
`sqlscout run`) until `--seconds` have passed. The model is an in-process
simulated endpoint (see endpoint.py). Every output is checked (see
checks.py). The last line of standard output is one JSON object: end-to-end
metrics with `--trace 0`, per-layer metrics from a traced run with
`--trace 1`.

End-to-end timings are scaled to a reference machine speed measured by a
probe interleaved with the work (see speed.py). The time a question spends
inside the simulated endpoint is not scaled: it counts as the latency the
endpoint was told to simulate plus any wait for a serving slot, so neither
the simulator's own work nor the oversleep of `time.sleep` enters it. The unscaled figures are printed in
the `#` lines above the result. Per-layer timings are not scaled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# untraced questions a full-scale run times at least, so that question_s_p90
# has ten questions beyond it
MIN_QUESTIONS = 100
# set-up (index build plus load) repeats at least this often, two more times
# when one set-up takes less than SLOW_SETUP_S; medians are reported
SETUP_REPS = 3
SLOW_SETUP_S = 5.0
# speed probes taken before and after each set-up step
SETUP_PROBES = 16
# between two question rounds, set-up repeats until this much time has passed
# (once at least), so that a quick set-up gets a steady median too
SETUP_SLOT_S = 3.0


def _import_program():
    """Import sqlscout from this checkout's `src`, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sqlscout
    except ImportError as exc:
        sys.exit(f"cannot import sqlscout from {ROOT / 'src'}: {exc}")
    where = Path(sqlscout.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"sqlscout imported from {where}, not from this checkout")


def _settle(paths) -> None:
    """Flush written files to disk and collect garbage, outside any timing.

    Write-back of an index just saved, or a collection owed by earlier work,
    would otherwise fall into whichever timed section runs next.
    """
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    gc.collect()


@dataclass(frozen=True)
class Workload:
    shape: str  # key of inputs.SHAPES
    latency_s: float  # mean simulated latency per model call
    slots: int  # calls the endpoint serves at once
    workers: int  # harness workers: a closed loop with this many clients
    why: str


WORKLOADS = {
    "search_latency": Workload(
        "narrow", 0.0015, 8, 2,
        "model wait dominates: call fan-out, duplicate calls and slot scheduling show here"),
    "wide_schema": Workload(
        "wide", 0.0, 8, 1,
        "instant endpoint on a BIRD-scale schema: prompt rendering and search CPU show here"),
    "large_db": Workload(
        "large", 0.0, 8, 1,
        "100k-row tables, 30k values: index build, save, load and SQL execution show here"),
}

class TimedRound(NamedTuple):
    """One untraced round, probes taken out."""

    wall: float
    cpu: float
    factor: float  # scales the round's wall-clock timings to reference seconds
    cpu_factor: float  # scales its CPU time
    # per question: wall clock, time inside the endpoint, and the model's
    # share as a real endpoint would give it (slot wait plus latency)
    questions: list[tuple[float, float, float]]


END_TO_END = {
    "question_s_p50": "s", "question_s_p90": "s", "questions_per_s": "1/s",
    "cpu_s_per_question": "s", "model_calls_per_question": "calls",
    "prompt_kchars_per_question": "kchar", "setup_s": "s", "index_build_s": "s",
    "index_file_mb": "MB", "peak_rss_mb": "MB",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    _import_program()
    from sqlscout import SearchConfig
    from sqlscout.core.catalog import load_catalog
    from sqlscout.harness import RunEnvironment, load_dataset, load_report_records, run_benchmark
    from sqlscout.value_index import MinHashParams, build_value_index, save_index

    import checks
    import layers
    from endpoint import SimEndpoint
    from inputs import SHAPES, generate
    from speed import REFERENCE_S, SpeedProbe, to_reference
    from tracing import Patches, Tracer

    spec = WORKLOADS[name]
    work = ROOT / ".e2ebench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer()
    patches = Patches()
    problems: list[str] = []
    notes: list[str] = []
    try:
        inputs = generate(SHAPES[spec.shape](scale), seed, work)
        _settle(p for p in work.rglob("*") if p.is_file())
        endpoint = SimEndpoint(inputs.scripts, spec.latency_s, spec.slots)
        index_path = work / "indexes" / f"{inputs.db_id}.jsonl"
        build = build_value_index
        save = save_index
        if trace:
            build = tracer.wrap("value_index.build_value_index", build_value_index)
            save = tracer.wrap("value_index.save_index", save_index)

        probe = SpeedProbe()
        build_s: list[float] = []
        setup_s: list[float] = []
        build_scaled: list[float] = []
        setup_scaled: list[float] = []

        def set_up(check_roundtrip: bool = False):
            """One `sqlscout index build`, then what `sqlscout run` loads."""
            _settle(())
            before = probe.sample(SETUP_PROBES)
            if trace:
                layers.install_setup_tracing(patches, tracer)
            try:
                start = time.perf_counter()
                catalog = load_catalog(inputs.db_path, db_id=inputs.db_id,
                                       value_examples=False)
                built = build(catalog, params=MinHashParams())
                save(built, index_path)
                build_s.append(time.perf_counter() - start)
                if not check_roundtrip:
                    built = None  # hold one index in memory at a time
                _settle([index_path])
                between = probe.sample(SETUP_PROBES)
                start = time.perf_counter()
                env = RunEnvironment(model=endpoint, db_root=inputs.db_root,
                                     index_dir=index_path.parent)
                items = load_dataset(inputs.dataset_path, fmt="bird")
                for db_id in sorted({item.db_id for item in items}):
                    env.catalog(db_id)
                    env.value_index(db_id)
                setup_s.append(time.perf_counter() - start)
            finally:
                patches.restore()
            after = probe.sample(SETUP_PROBES)
            build_scaled.append(to_reference(build_s[-1], (before + between) / 2))
            setup_scaled.append(to_reference(setup_s[-1], (between + after) / 2))
            if check_roundtrip:
                problems.extend(checks.check_roundtrip(built, env.value_index(inputs.db_id)))
            return env, items

        env, items = set_up(check_roundtrip=True)
        reps = 1 if scale != "full" else (
            SETUP_REPS if build_s[0] + setup_s[0] > SLOW_SETUP_S else SETUP_REPS + 2)
        qid_key = {script.qid: key for key, script in inputs.scripts.items()}

        # Question rounds and set-up repetitions alternate until `seconds`
        # have passed since the first set-up ended, so that both sample the
        # same stretch of the machine's speed drift; then whatever minimum is
        # still short is made up. With tracing, untraced and traced rounds
        # alternate.
        cfg = SearchConfig(rng_seed=seed)
        timed: list[TimedRound] = []
        traced_calls: list[dict] = []
        rounds: list[tuple[dict, dict]] = []  # (records, endpoint calls)
        retrieved: dict[tuple[str, ...], list] = {}
        max_in_flight = 0
        floor = MIN_QUESTIONS if scale == "full" and not trace else 0
        phase_start = time.perf_counter()

        def running() -> bool:
            return time.perf_counter() - phase_start < seconds

        def questions_due() -> bool:
            return (running() or not rounds
                    or sum(len(r.questions) for r in timed) < floor
                    or (trace and len(rounds) < 2))

        def setup_due() -> bool:
            return running() or len(setup_s) < reps

        while questions_due() or setup_due():
            if questions_due():
                _settle(())
                traced = trace and len(rounds) % 2 == 1
                endpoint.reset()
                times: list[tuple[str, float]] = []
                if traced:
                    layers.install_tracing(patches, tracer, retrieved)
                    env.model = layers.traced_model(tracer, endpoint)
                else:
                    layers.install_timing(patches, times, retrieved, before=probe.sample)
                    env.model = endpoint
                probes_before = len(probe.wall)
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    run_benchmark(items, env, cfg, work / "run", workers=spec.workers,
                                  resume=False)
                finally:
                    patches.restore()
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu_start
                if traced:
                    traced_calls.append(endpoint.calls)
                    max_in_flight = max(max_in_flight, endpoint.max_in_flight)
                else:
                    # the probes ran in the workers' turns, one at a time
                    calls = {qid: endpoint.calls.get(key, ()) for qid, key in qid_key.items()}
                    probe_wall, probe_cpu = probe.wall[probes_before:], probe.cpu[probes_before:]
                    timed.append(TimedRound(
                        wall - sum(probe_wall) / spec.workers,
                        cpu - sum(probe_cpu),
                        to_reference(1.0, statistics.fmean(
                            probe_wall if spec.workers == 1 else probe_cpu)),
                        to_reference(1.0, statistics.fmean(probe_cpu)),
                        [(t, sum(c.end - c.start for c in calls[qid]),
                          sum(c.served - c.start + c.latency for c in calls[qid]))
                         for qid, t in times]))
                rounds.append((load_report_records(work / "run" / "report.jsonl"),
                               endpoint.calls))
            slot_start = time.perf_counter()
            while setup_due() and time.perf_counter() - slot_start < SETUP_SLOT_S:
                env = None  # free the loaded index before loading the next
                env, items = set_up()

        problems += _check_rounds(rounds, inputs, cfg, retrieved, checks)
        attempted = sum(len(records) for records, _ in rounds)
        failed = sum(1 for records, _ in rounds for r in records.values() if r["error"])
        raw_times = [q[0] for r in timed for q in r.questions]
        if trace:
            metrics = layers.setup_metrics([s for s in tracer.spans if s.qid is None])
            question, more = layers.question_metrics(
                tracer.spans, traced_calls, max_in_flight, statistics.median(raw_times))
            metrics.update(question)
            problems += more
            out = ROOT / ".e2ebench_out" / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(out)
            units = layers.PER_LAYER
        else:
            def scaled(r: TimedRound, t: float, in_model: float, model: float) -> float:
                """The program's share of a question scaled; the model's
                share counted as its slot wait plus its simulated latency."""
                return (t - in_model) * r.factor + model

            questions = [scaled(r, *q) for r in timed for q in r.questions]
            rounds_s = [r.wall * sum(scaled(r, *q) for q in r.questions)
                        / sum(q[0] for q in r.questions) for r in timed]
            n = len(questions)
            untraced_calls = [c for _, calls in rounds
                              for qcalls in calls.values() for c in qcalls]
            metrics = {
                "question_s_p50": statistics.median(questions),
                "question_s_p90": statistics.quantiles(questions, n=10, method="inclusive")[8]
                if n > 1 else questions[0],
                "questions_per_s": n / sum(rounds_s),
                "cpu_s_per_question": sum(r.cpu * r.cpu_factor for r in timed) / n,
                "model_calls_per_question": len(untraced_calls) / n,
                "prompt_kchars_per_question": sum(c.plen for c in untraced_calls) / 1e3 / n,
                "setup_s": statistics.median(setup_scaled),
                "index_build_s": statistics.median(build_scaled),
                "index_file_mb": index_path.stat().st_size / 1e6,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = END_TO_END
            notes += [
                "speed factor per round: " + ", ".join(f"{r.factor:.3f}" for r in timed)
                + f"; probe mean {statistics.fmean(probe.wall) * 1e3:.2f} ms wall, "
                f"{statistics.fmean(probe.cpu) * 1e3:.2f} ms CPU over {len(probe.wall)} probes, "
                f"reference {REFERENCE_S * 1e3:.1f} ms",
                f"unscaled: question_s_p50 {statistics.median(raw_times):.6g} s, "
                f"setup_s {statistics.median(setup_s):.6g} s, "
                f"index_build_s {statistics.median(build_s):.6g} s",
            ]
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
        "notes": notes,
    }


def _check_rounds(rounds, inputs, cfg, retrieved, checks) -> list[str]:
    """Check the first round in full; every later round must repeat it."""
    problems: list[str] = []
    first_records, first_calls = rounds[0]
    oracle = checks.Oracle(inputs.db_path)
    try:
        for key, script in inputs.scripts.items():
            record = first_records.get(script.qid)
            if record is None:
                problems.append(f"q{script.qid}: no record")
                continue
            if record["error"]:
                continue  # counted as failed, not checked
            calls = first_calls.get(key, [])
            problems += checks.check_calls(record, script, calls)
            problems += checks.check_ex(record, script, oracle)
            problems += checks.check_selection(record, script, oracle)
            problems += checks.check_rewards(record, script, calls, oracle,
                                             cfg.n_reward, cfg.t_reward)
            found = retrieved.get(tuple(script.keywords))
            if found is None:
                problems.append(f"q{script.qid}: value retrieval never ran")
            else:
                problems += checks.check_retrieval(found, script, oracle, cfg.eps_edit)
    finally:
        oracle.close()
    strip = lambda records: {q: {k: v for k, v in r.items() if k != "elapsed_secs"}
                             for q, r in records.items()}
    calls_of = lambda calls: {q: [c[:6] for c in cs] for q, cs in calls.items()}
    for i, (records, calls) in enumerate(rounds[1:], start=2):
        if strip(records) != strip(first_records):
            problems.append(f"round {i} records differ from round 1")
        if calls_of(calls) != calls_of(first_calls):
            problems.append(f"round {i} model calls differ from round 1")
    return problems


def _print_table(name: str, result: dict) -> None:
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    for note in result.get("notes", []):
        print(f"#   {note}")
    for problem in result.get("problems", [])[:20]:
        print(f"#   PROBLEM {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few rows and questions, for the smoke test")
    args = parser.parse_args(argv)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale)
        _print_table(args.workload, result)
        del result["problems"], result["notes"]
        print(json.dumps(result))
        return 0

    # each workload in its own process, so peak memory belongs to it
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
