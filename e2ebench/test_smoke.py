"""Smoke test of the benchmark itself; runs in well under a minute.

    python3 -m pytest -q e2ebench/test_smoke.py

Every workload runs on tiny inputs, traced and untraced, and must print every
metric that BENCHMARK.json names, with its unit. Each correctness check must
pass on the program's real output and fail on a deliberately wrong one.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from endpoint import SimEndpoint  # noqa: E402
from inputs import SHAPES, generate  # noqa: E402
from speed import REFERENCE_S, SpeedProbe, to_reference  # noqa: E402
from tracing import Patches, Span, self_times  # noqa: E402

from sqlscout import SearchConfig  # noqa: E402
from sqlscout.core.catalog import load_catalog  # noqa: E402
from sqlscout.harness import (  # noqa: E402
    RunEnvironment, load_dataset, load_report_records, run_benchmark,
)
from sqlscout.value_index import build_value_index, load_index, save_index  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_benchmark_json_matches_the_code() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One round of the tiny narrow workload, run in this process."""
    work = tmp_path_factory.mktemp("tiny")
    inputs = generate(SHAPES["narrow"]("tiny"), 11, work)
    endpoint = SimEndpoint(inputs.scripts, 0.0, 8)
    built = build_value_index(
        load_catalog(inputs.db_path, db_id=inputs.db_id, value_examples=False))
    save_index(built, work / "indexes" / f"{inputs.db_id}.jsonl")
    env = RunEnvironment(model=endpoint, db_root=inputs.db_root,
                         index_dir=work / "indexes")
    items = load_dataset(inputs.dataset_path, fmt="bird")
    cfg = SearchConfig(rng_seed=11)
    patches, times, retrieved = Patches(), [], {}
    layers.install_timing(patches, times, retrieved)
    try:
        run_benchmark(items, env, cfg, work / "run", resume=False)
    finally:
        patches.restore()
    records = load_report_records(work / "run" / "report.jsonl")
    oracle = checks.Oracle(inputs.db_path)
    yield inputs, cfg, records, endpoint.calls, retrieved, oracle, built
    oracle.close()


def _each(tiny_run):
    inputs, cfg, records, calls, retrieved, oracle, _ = tiny_run
    for key, script in inputs.scripts.items():
        yield script, records[script.qid], calls[key], oracle


def test_checks_pass_on_the_programs_output(tiny_run) -> None:
    inputs, cfg, records, calls, retrieved, oracle, _ = tiny_run
    assert run._check_rounds([(records, calls)] * 2, inputs, cfg, retrieved, checks) == []


def test_ex_check_catches_a_flipped_ex(tiny_run) -> None:
    for script, record, _, oracle in _each(tiny_run):
        wrong = dict(record, ex=1 - record["ex"])
        assert checks.check_ex(wrong, script, oracle)


def test_selection_check_catches_a_minority_choice(tiny_run) -> None:
    script, _, _, oracle = next(_each(tiny_run))
    gold, equal, wrong = script.gold, script.generate[1].sql, script.generate[3].sql
    assert oracle.rows(gold) == oracle.rows(equal) != oracle.rows(wrong)
    candidates = [{"sql": s, "reward": 0.0} for s in (gold, equal, wrong)]
    right = {"sql": gold, "candidates": candidates, "class_size": 2,
             "low_confidence": False}
    assert checks.check_selection(right, script, oracle) == []
    assert checks.check_selection(dict(right, sql=wrong), script, oracle)


def test_reward_check_catches_a_reward_off_by_one_sample(tiny_run) -> None:
    inputs, cfg, *_ = tiny_run
    tampered = 0
    for script, record, calls, oracle in _each(tiny_run):
        assert checks.check_rewards(record, script, calls, oracle,
                                    cfg.n_reward, cfg.t_reward) == []
        wrong = copy.deepcopy(record)
        for cand in wrong["candidates"]:
            if oracle.rows(cand["sql"]) is not None:
                step = 1 / cfg.n_reward
                cand["reward"] += step if cand["reward"] + step <= 1 else -step
                break
        else:
            continue
        tampered += 1
        assert checks.check_rewards(wrong, script, calls, oracle,
                                    cfg.n_reward, cfg.t_reward)
        assert checks.check_rewards(record, script, calls[:-1], oracle,
                                    cfg.n_reward, cfg.t_reward)
    assert tampered


def test_call_count_check_catches_a_lost_call(tiny_run) -> None:
    for script, record, calls, _ in _each(tiny_run):
        assert checks.check_calls(record, script, calls) == []
        assert checks.check_calls(record, script, calls[1:])


def test_retrieval_check_catches_bad_values(tiny_run) -> None:
    inputs, cfg, records, calls, retrieved, oracle, _ = tiny_run
    for script in inputs.scripts.values():
        found = retrieved[tuple(script.keywords)]
        assert checks.check_retrieval(found, script, oracle, cfg.eps_edit) == []
        table, column, value = script.planted[0]
        for wrong in (
            [r for r in found if r != script.planted[0]],  # an exact hit lost
            found + [(table, column, value + "zz")],  # not in the column
            found + [(table, column, "Q")],  # fails the edit gate
        ):
            assert checks.check_retrieval(wrong, script, oracle, cfg.eps_edit)


def test_roundtrip_check_catches_changed_index(tiny_run, tmp_path) -> None:
    *_, built = tiny_run
    save_index(built, tmp_path / "index.jsonl")
    loaded = load_index(tmp_path / "index.jsonl")
    assert checks.check_roundtrip(built, loaded) == []
    loaded.signatures = loaded.signatures.copy()
    loaded.signatures[0, 0] ^= np.uint64(1)
    assert checks.check_roundtrip(built, loaded)
    loaded = load_index(tmp_path / "index.jsonl")
    loaded.buckets.pop(next(iter(loaded.buckets)))
    assert checks.check_roundtrip(built, loaded)


def test_repeated_rounds_must_agree(tiny_run) -> None:
    inputs, cfg, records, calls, retrieved, oracle, _ = tiny_run
    changed = copy.deepcopy(records)
    next(iter(changed.values()))["sql"] += " "
    assert run._check_rounds([(records, calls), (changed, calls)], inputs, cfg,
                             retrieved, checks)


def test_speed_probe_scales_to_the_reference() -> None:
    probe = SpeedProbe()
    mean = probe.sample(3)
    assert len(probe.wall) == len(probe.cpu) == 3
    assert mean == pytest.approx(sum(probe.wall) / 3)
    assert all(cpu > 0 for cpu in probe.cpu)
    # a timing taken while the probe ran at half speed counts half
    assert to_reference(1.0, 2 * REFERENCE_S) == pytest.approx(0.5)


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [Span(1, "a.x", 0.0, 10.0, None, "q", None),
             Span(2, "b.y", 1.0, 3.0, 1, "q", None),
             Span(3, "b.y", 2.0, 5.0, 1, "q", None),
             Span(4, "c.z", 2.5, 3.5, 3, "q", None)]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_fails_without_the_program(tmp_path) -> None:
    bare = tmp_path / "bare"
    (bare / "e2ebench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for f in HERE.glob("*.py"):
        (bare / "e2ebench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "large_db", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
