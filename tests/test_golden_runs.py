"""Golden scripted runs: whole-benchmark outputs pinned byte for byte.

Each run is `run_benchmark` over the four-question BIRD layout with the
scripted benchmark model and traces on, for seeds 0-2, with and without a
value index. Everything but the model-call counts is pinned by digest; the
call totals are pinned as exact numbers, so a change that only saves calls
shows up there and nowhere else.

The reward gets the prompt it re-samples in one of two ways: from the
producer node, which kept it, or, for a revision that ran no round, by
building the prompt that round would have sent. The scripted model always
generates working SQL, so those runs revise in no round; one more pinned
run answers one generation sample with broken SQL, so that its search also
scores terminals whose revision ran a round.
"""

import hashlib
import json
from collections import Counter

import sqlscout.mcts as mcts
from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import ActionKind, SearchConfig
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
    "summary": "9dc3c318ad9a4f774e14dd5c147902a6cdb159964d269dcb9cd854498309742a",
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


# seed 0, no index, generation sample 1 broken for every question
REVISING_SHA256 = "ee217d842bb0a7142e0e98a2f4861bb914eb1015df5d042afa54e136ee9f9626"
REVISING_MODEL_CALLS = 779


def scripted_run(root, seed: int, indexed: bool,
                 model=None) -> dict[str, bytes]:
    """Run the benchmark once; return its artifacts in a canonical byte form."""
    dataset, db_root = make_bird_dataset(root)
    index_dir = None
    if indexed:
        index_dir = root / "indexes"
        index_dir.mkdir()
        catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                               db_id="restaurants")
        save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    env = RunEnvironment(model=model or scripted_benchmark_model(), db_root=db_root,
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


def count_sampled_revisions(monkeypatch) -> Counter:
    """Revision terminals whose reward draws samples, by whether the
    revision kept a prompt ("revised") or ran no round ("zero_round")."""
    revisions: Counter = Counter()
    reward = mcts.compute_reward

    def counting_reward(ctx, path):
        producer = path[-2]
        if (producer.producing_action is ActionKind.SQL_REVISE
                and ctx.execute(path[-1].state.sql).is_rows):
            revisions["zero_round" if producer.prompt is None else "revised"] += 1
        return reward(ctx, path)

    monkeypatch.setattr(mcts, "compute_reward", counting_reward)
    return revisions


def test_scripted_runs_are_golden(tmp_path, monkeypatch):
    revisions = count_sampled_revisions(monkeypatch)
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
    assert revisions["zero_round"] and not revisions["revised"], revisions


def test_scripted_run_with_revision_rounds_is_golden(tmp_path, monkeypatch):
    revisions = count_sampled_revisions(monkeypatch)
    run = scripted_run(tmp_path, 0, False,
                       model=scripted_benchmark_model(broken_a5_sample=1))
    assert run.pop("model_calls") == REVISING_MODEL_CALLS
    digest = hashlib.sha256(b"".join(run[name] for name in sorted(run)))
    assert digest.hexdigest() == REVISING_SHA256
    assert revisions["zero_round"] and revisions["revised"], revisions
