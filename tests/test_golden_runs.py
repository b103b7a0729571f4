"""Golden scripted runs: whole-benchmark outputs pinned byte for byte.

Each run is `run_benchmark` over the four-question BIRD layout with the
scripted benchmark model and traces on, for seeds 0-2, with and without a
value index. Everything but the model-call counts is pinned by digest; the
call totals are pinned as exact numbers, so a change that only saves calls
shows up there and nowhere else.
"""

import hashlib
import json

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import SearchConfig
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark
from sqlscout.harness.runner import (
    PREDICTIONS_NAME,
    REPORT_NAME,
    SUMMARY_NAME,
    TRACES_DIR,
)
from sqlscout.llm_client import HashEmbedder
from sqlscout.value_index import build_value_index, save_index

from conftest import make_bird_dataset, scripted_benchmark_model

RUNS = [(seed, indexed) for seed in range(3) for indexed in (False, True)]

GOLDEN_SHA256 = {
    "summary": "8a39d49d5b3599b6ea4670b6f5a815345b1f989418f91762eb67268bae75a2e1",
    "predictions": "449f47c61972106fc925de4dc8ff9bf6b156403e2f20e2922c4af44db6bad747",
    "traces": "676fbfee2670716cc4473eb826dac8974f819620de402c3cd298322c492deae0",
    "report": "1e21cf79a384401d91b6b712ed7f5596fd98905a4ec0ad6e2cdfae9bdf3e7b0b",
}
# endpoint calls per run; each action sample is asked once per question
MODEL_CALLS = {
    (0, False): 885, (0, True): 889,
    (1, False): 893, (1, True): 897,
    (2, False): 884, (2, True): 888,
}


def scripted_run(root, seed: int, indexed: bool) -> dict[str, bytes]:
    """Run the benchmark once; return its artifacts in a canonical byte form."""
    dataset, db_root = make_bird_dataset(root)
    index_dir = None
    if indexed:
        index_dir = root / "indexes"
        index_dir.mkdir()
        catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                               db_id="restaurants")
        save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    env = RunEnvironment(model=scripted_benchmark_model(), db_root=db_root,
                         index_dir=index_dir,
                         embedder=HashEmbedder(dim=64) if indexed else None)
    out = root / "run"
    run_benchmark(load_dataset(dataset), env,
                  SearchConfig(sql_timeout_secs=5.0, rng_seed=seed), out,
                  write_traces=True)
    summary = json.loads((out / SUMMARY_NAME).read_text(encoding="utf-8"))
    records = [json.loads(line) for line in
               (out / REPORT_NAME).read_text(encoding="utf-8").splitlines()]
    model_calls = summary.pop("model_calls")
    assert model_calls == sum(r["model_calls"] for r in records)
    for record in records:
        del record["elapsed_secs"], record["model_calls"]
    traces = sorted((out / TRACES_DIR).glob("*.json"))
    assert len(traces) == len(records) == 4
    return {
        "model_calls": model_calls,
        "summary": json.dumps(summary, sort_keys=True).encode(),
        "predictions": (out / PREDICTIONS_NAME).read_bytes(),
        "traces": b"".join(p.name.encode() + b"\0" + p.read_bytes() + b"\0"
                           for p in traces),
        "report": json.dumps(sorted(records, key=lambda r: r["question_id"]),
                             sort_keys=True).encode(),
    }


def test_scripted_runs_are_golden(tmp_path):
    digests = {name: hashlib.sha256() for name in GOLDEN_SHA256}
    calls = {}
    for seed, indexed in RUNS:
        root = tmp_path / f"seed{seed}-{'index' if indexed else 'plain'}"
        root.mkdir()
        run = scripted_run(root, seed, indexed)
        calls[(seed, indexed)] = run.pop("model_calls")
        for name, data in run.items():
            digests[name].update(data)
    assert {name: d.hexdigest() for name, d in digests.items()} == GOLDEN_SHA256
    assert calls == MODEL_CALLS
