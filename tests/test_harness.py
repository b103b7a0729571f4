"""Dataset ingestion, benchmark orchestration, and the CLI."""

import configparser
import dataclasses
import itertools
import json
import math
import re
import signal
import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import NLQuestion, SearchConfig
from sqlscout.errors import (
    ContractViolation,
    EndpointUnavailable,
    IngestionError,
    ProtocolError,
    TransportError,
)
from sqlscout.harness import (
    BenchmarkItem,
    RunEnvironment,
    baseline_generate,
    difficulty_counts,
    estimate_spider_hardness,
    filter_by_ids,
    item_seed,
    load_config,
    load_dataset,
    load_question_ids,
    load_report_records,
    run_benchmark,
    run_one_item,
    subsample_sds,
    summarize,
    write_predictions,
)
from sqlscout.harness import runner as runner_module
from sqlscout.harness.cli import main as cli_main
from sqlscout.harness.runner import (
    PREDICTIONS_NAME,
    REPORT_NAME,
    SUMMARY_NAME,
    TRACES_DIR,
)
import sqlscout.llm_client as llm_module
from sqlscout.llm_client import (
    EndpointConfig,
    HashEmbedder,
    OpenAIChatClient,
    ScriptedModel,
)
from sqlscout.mcts import audit_tree, prepare_context, run_search
from sqlscout.sql_exec import Sandbox, results_equal
from sqlscout.value_index import build_value_index, save_index

from test_connection_leaks import (
    SPIN_SQL,
    FailsMidSearch,
    is_closed,
    recorded_connections,
)
from test_llm_client import FakeResponse, chat_payload

from conftest import (
    A5_MARK,
    BASELINE_MARK,
    BENCH_QUESTIONS,
    GOLD_SQL,
    KEYWORD_MARK,
    QUESTION,
    make_bird_dataset,
    make_restaurant_db,
    scripted_benchmark_model,
    sql_json,
)


# ---- dataset loading ----

def test_load_bird_dataset(bird_dataset):
    dataset, _ = bird_dataset
    items = load_dataset(dataset, fmt="bird")
    assert len(items) == 4
    first = items[0]
    assert first.question_id == "0"
    assert first.question.question == QUESTION
    assert first.question.hint.startswith("thai restaurant refers")
    assert first.db_id == "restaurants"
    assert first.gold_sql == GOLD_SQL
    assert first.difficulty == "simple"


def test_load_dataset_jsonl(tmp_path):
    path = tmp_path / "q.jsonl"
    rows = [
        {"question": "How many?", "db_id": "d", "SQL": "SELECT 1"},
        {"question": "Which?", "db_id": "d", "SQL": "SELECT 2",
         "question_id": 7, "difficulty": "moderate"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    items = load_dataset(path, fmt="bird")
    assert [i.question_id for i in items] == ["0", "7"]
    assert items[0].difficulty == "unknown"
    assert items[1].difficulty == "moderate"


def test_load_dataset_missing_field_names_record(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([
        {"question": "ok", "db_id": "d", "SQL": "SELECT 1"},
        {"question": "broken", "SQL": "SELECT 2"},
    ]), encoding="utf-8")
    with pytest.raises(IngestionError, match=r"record 1 missing field 'db_id'"):
        load_dataset(path, fmt="bird")


def test_load_dataset_rejects_unknown_format(tmp_path):
    path = tmp_path / "q.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(IngestionError, match="unknown dataset format"):
        load_dataset(path, fmt="wikisql")


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_dataset(tmp_path / "absent.json")


def test_load_spider_dataset(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([
        {"question": "How many heads?", "db_id": "dept",
         "query": "SELECT COUNT(*) FROM head"},
        {"question": "Names?", "db_id": "dept",
         "query": "SELECT name FROM head", "hardness": "easy"},
    ]), encoding="utf-8")
    items = load_dataset(path, fmt="spider")
    assert items[0].gold_sql == "SELECT COUNT(*) FROM head"
    assert items[0].difficulty == "easy"  # estimated: single bare select
    assert items[1].difficulty == "easy"  # taken from the record
    assert items[0].question.hint == ""


def test_spider_hardness_buckets():
    assert estimate_spider_hardness("SELECT name FROM head") == "easy"
    assert estimate_spider_hardness(
        "SELECT name FROM head WHERE age > 50") == "easy"
    assert estimate_spider_hardness(
        "SELECT name, age FROM head WHERE age > 50 ORDER BY age") == "medium"
    hard = estimate_spider_hardness(
        "SELECT name, count(*) FROM head WHERE age > 5 AND born = 'CA' "
        "GROUP BY name ORDER BY count(*) LIMIT 3")
    assert hard in ("hard", "extra")
    assert estimate_spider_hardness(
        "SELECT name FROM head WHERE id IN (SELECT head_id FROM mgmt) "
        "INTERSECT SELECT name FROM head WHERE age < 30 ORDER BY name"
    ) == "extra"


# ---- subsampling and id filtering ----

def many_items(n_per_db: int, dbs: tuple[str, ...]) -> list[BenchmarkItem]:
    items = []
    for db in dbs:
        for i in range(n_per_db):
            items.append(BenchmarkItem(
                question_id=f"{db}-{i}",
                question=NLQuestion(question=f"q {i}?", db_id=db),
                gold_sql="SELECT 1",
            ))
    return items


def test_subsample_is_deterministic_and_stratified():
    items = many_items(10, ("alpha", "beta"))
    picked = subsample_sds(items, fraction=0.10, seed=0)
    again = subsample_sds(items, fraction=0.10, seed=0)
    assert [i.question_id for i in picked] == [i.question_id for i in again]
    assert len(picked) == 2  # one from each database
    assert {i.db_id for i in picked} == {"alpha", "beta"}
    other = subsample_sds(items, fraction=0.10, seed=1)
    assert [i.question_id for i in picked] != [i.question_id for i in other]


def test_subsample_preserves_dataset_order():
    items = many_items(20, ("alpha",))
    picked = subsample_sds(items, fraction=0.25, seed=3)
    ids = [i.question_id for i in picked]
    positions = [int(q.split("-")[1]) for q in ids]
    assert positions == sorted(positions)
    assert len(picked) == 5


def test_subsample_modes():
    # the fraction of each group rounds up: at least one, at most the group
    items = many_items(15, ("alpha",))
    assert len(subsample_sds(items, fraction=0.10)) == 2
    items5 = many_items(5, ("alpha",))
    assert len(subsample_sds(items5, fraction=0.10)) == 1


@pytest.mark.parametrize("fraction", [math.nan, 5.0, 1.0001, 0.0, -1.0])
def test_subsample_rejects_a_fraction_outside_zero_to_one(fraction):
    # NaN failed inside math.ceil, 5.0 kept every item and -1 one per database
    with pytest.raises(ContractViolation, match="fraction"):
        subsample_sds(many_items(10, ("alpha", "beta")), fraction=fraction)
    assert len(subsample_sds(many_items(10, ("alpha",)), fraction=1.0)) == 10


def test_filter_by_ids_keeps_order_and_validates():
    items = many_items(5, ("alpha",))
    kept = filter_by_ids(items, ["alpha-3", "alpha-1"])
    assert [i.question_id for i in kept] == ["alpha-1", "alpha-3"]
    with pytest.raises(IngestionError, match="not in dataset: alpha-9"):
        filter_by_ids(items, ["alpha-1", "alpha-9"])


def test_load_question_ids(tmp_path):
    as_json = tmp_path / "ids.json"
    as_json.write_text('["3", "14", "15"]', encoding="utf-8")
    assert load_question_ids(as_json) == ["3", "14", "15"]
    as_lines = tmp_path / "ids.txt"
    as_lines.write_text("3\n\n14\n15\n", encoding="utf-8")
    assert load_question_ids(as_lines) == ["3", "14", "15"]


def test_difficulty_counts():
    items = load_dataset_rows = [
        BenchmarkItem(question_id=str(i),
                      question=NLQuestion(question="q?", db_id="d"),
                      gold_sql="SELECT 1", difficulty=d)
        for i, d in enumerate(["simple", "moderate", "simple"])
    ]
    assert difficulty_counts(items) == {"moderate": 1, "simple": 2}


# ---- config ----

def test_load_config_defaults_without_file(monkeypatch):
    monkeypatch.delenv("SQLSCOUT_CHAT_MODEL", raising=False)
    cfg, endpoint = load_config(None)
    assert cfg == SearchConfig()
    assert endpoint.chat_model == ""


def test_load_config_file_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("SQLSCOUT_CHAT_MODEL", "env-model")
    path = tmp_path / "run.ini"
    path.write_text(
        "[search]\n"
        "n_rollout = 8\n"
        "t_reward = 0.5\n"
        "uct_c = sqrt2\n"
        "[endpoint]\n"
        "chat_model = file-model\n",
        encoding="utf-8",
    )
    cfg, endpoint = load_config(path)
    assert cfg.n_rollout == 8
    assert cfg.t_reward == 0.5
    assert cfg.uct_c == pytest.approx(math.sqrt(2))
    assert cfg.n_reward == 5  # untouched keys keep defaults
    assert endpoint.chat_model == "file-model"  # file beats env
    # rows are always compared as sets; no key selects another comparison
    path.write_text("[search]\nmultiset_compare = true\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="'multiset_compare' in \\[search\\]"):
        load_config(path)


def test_readme_config_block_loads_as_the_defaults(tmp_path, monkeypatch):
    # the README's `--config` example, inline comments and all, must load,
    # and it lists every search setting at its default
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0], encoding="utf-8")
    monkeypatch.delenv("SQLSCOUT_CHAT_MODEL", raising=False)
    cfg, endpoint = load_config(path)
    assert cfg == SearchConfig()
    assert endpoint.chat_model == "qwen2.5-coder-32b-instruct"
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(blocks[0])
    assert set(parser["search"]) == {f.name for f in dataclasses.fields(SearchConfig)}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(IngestionError):
        load_config(tmp_path / "absent.ini")


@pytest.mark.parametrize("section, key", [("search", "n_rollouts"),
                                          ("endpoint", "chat_modle")])
def test_load_config_rejects_unknown_keys(tmp_path, section, key):
    # a misspelt key must not run silently with the default it meant to change
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{key} = 8\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=f"'{key}' in \\[{section}\\]"):
        load_config(path)


# ---- per-item seeds ----

def test_item_seed_stable_and_distinct():
    assert item_seed(0, "q1") == item_seed(0, "q1")
    assert item_seed(0, "q1") != item_seed(0, "q2")
    assert item_seed(0, "q1") != item_seed(1, "q1")
    assert 0 <= item_seed(0, "q1") < 2**32


# ---- baseline generation ----

def test_baseline_single_call(restaurant_catalog):
    model = scripted_benchmark_model()
    q = NLQuestion(question=QUESTION, db_id="restaurants")
    sql = baseline_generate(q, restaurant_catalog, model, 2048)
    assert sql == GOLD_SQL
    assert len(model.calls) == 1
    prompt, temperature, index, tag = model.calls[0]
    assert temperature == 0.0
    assert tag == "baseline"


def test_baseline_unparseable_returns_empty(restaurant_catalog):
    model = ScriptedModel()
    model.add(BASELINE_MARK, "I cannot write SQL today.")
    q = NLQuestion(question=QUESTION, db_id="restaurants")
    assert baseline_generate(q, restaurant_catalog, model, 2048) == ""


# ---- run_one_item and run_benchmark ----

def bench_env(db_root, model=None) -> RunEnvironment:
    return RunEnvironment(model=model or scripted_benchmark_model(),
                          db_root=db_root)


def bench_cfg(**kw) -> SearchConfig:
    kw.setdefault("n_rollout", 6)
    kw.setdefault("sql_timeout_secs", 5.0)
    return SearchConfig(**kw)


def two_database_env(bird_dataset, tmp_path) -> RunEnvironment:
    """restaurants and a copy of it named eateries, each with an index file."""
    _, db_root = bird_dataset
    (db_root / "eateries").mkdir()
    make_restaurant_db(db_root / "eateries" / "eateries.sqlite")
    index_dir = tmp_path / "indexes"
    index_dir.mkdir()
    for db_id in ("restaurants", "eateries"):
        (index_dir / f"{db_id}.jsonl").write_text("", encoding="utf-8")
    return RunEnvironment(model=ScriptedModel(), db_root=db_root,
                          index_dir=index_dir)


@pytest.mark.parametrize("loader", ["load_index", "load_catalog"])
def test_environment_loads_each_database_once_under_threads(
        bird_dataset, tmp_path, monkeypatch, loader):
    loads = []

    def slow_load(*args, **kwargs):
        loads.append(Path(args[0]).stem)
        time.sleep(0.1)
        return object()

    monkeypatch.setattr(runner_module, loader, slow_load)
    env = two_database_env(bird_dataset, tmp_path)
    get = env.value_index if loader == "load_index" else env.catalog
    start = threading.Barrier(4)

    def ask(i):
        start.wait(timeout=10)
        # half the threads ask in the other order
        order = ("restaurants", "eateries")[::1 if i % 2 else -1]
        return {db_id: get(db_id) for db_id in order}

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(ask, i) for i in range(4)]
        got = [f.result(timeout=10) for f in futures]
    assert sorted(loads) == ["eateries", "restaurants"]
    for db_id in ("restaurants", "eateries"):
        assert all(g[db_id] is got[0][db_id] for g in got)
    assert got[0]["restaurants"] is not got[0]["eateries"]


@pytest.mark.parametrize("loader", ["load_index", "load_catalog"])
def test_environment_caches_no_failed_load(bird_dataset, tmp_path, monkeypatch,
                                           loader):
    loads = []

    def fails_first(*args, **kwargs):
        loads.append(args)
        if len(loads) == 1:
            raise IngestionError("disk hiccup")
        return object()

    monkeypatch.setattr(runner_module, loader, fails_first)
    env = two_database_env(bird_dataset, tmp_path)
    get = env.value_index if loader == "load_index" else env.catalog
    with pytest.raises(IngestionError, match="disk hiccup"):
        get("restaurants")
    loaded = get("restaurants")  # loads again
    assert len(loads) == 2
    assert get("restaurants") is loaded and len(loads) == 2


def test_run_one_item_mcts(bird_dataset):
    dataset, db_root = bird_dataset
    item = load_dataset(dataset)[0]
    record = run_one_item(item, bench_env(db_root), bench_cfg(), mode="mcts")
    assert record["ex"] == 1
    assert record["sql"] == GOLD_SQL
    assert record["error"] is None
    assert not record["broken_gold"]
    assert record["class_size"] >= 1
    assert record["candidates"]
    assert record["model_calls"] > 0
    assert record["mode"] == "mcts"


def test_run_one_item_baseline(bird_dataset):
    dataset, db_root = bird_dataset
    item = load_dataset(dataset)[1]
    env = bench_env(db_root)
    record = run_one_item(item, env, bench_cfg(), mode="baseline")
    assert record["ex"] == 1
    assert record["model_calls"] == 1  # exactly one chat call per item
    assert record["candidates"] == []


def test_run_one_item_isolates_failures(bird_dataset):
    dataset, db_root = bird_dataset

    class ExplodingModel:
        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            raise RuntimeError("model caught fire")

    item = load_dataset(dataset)[0]
    record = run_one_item(item, bench_env(db_root, ExplodingModel()),
                          bench_cfg(), mode="baseline")
    assert record["ex"] == 0
    assert "model caught fire" in record["error"]


def recorded_sandboxes(monkeypatch) -> tuple[list, list]:
    """The sandboxes `run_one_item` opens, and the sandbox of each statement."""
    opened, used = [], []

    class Recorded(Sandbox):
        def __init__(self, db_path, **kwargs):
            super().__init__(db_path, **kwargs)
            self.closed = False
            self.threads = set()
            opened.append(self)

        def run(self, *args, **kwargs):
            self.threads.add(threading.get_ident())
            return super().run(*args, **kwargs)

        def close(self):
            super().close()
            self.closed = True

    execute_sql = runner_module.execute_sql

    def recording(sql, *args, sandbox=None, **kwargs):
        used.append(sandbox)
        return execute_sql(sql, *args, sandbox=sandbox, **kwargs)

    monkeypatch.setattr(runner_module, "Sandbox", Recorded)
    monkeypatch.setattr(runner_module, "execute_sql", recording)
    return opened, used


def test_run_one_item_runs_every_statement_on_one_sandbox(bird_dataset,
                                                           monkeypatch):
    dataset, db_root = bird_dataset
    opened, used = recorded_sandboxes(monkeypatch)
    # a gold text no candidate shares: the gold query runs apart from them
    item = dataclasses.replace(load_dataset(dataset)[0], gold_sql="SELECT 4")
    record = run_one_item(item, bench_env(db_root), bench_cfg())
    assert record["error"] is None and record["ex"] == 1
    assert len(opened) == 1 and len(used) > 1
    assert all(sandbox is opened[0] for sandbox in used)
    assert opened[0].closed
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        opened[0].run("SELECT 1")


def test_run_one_item_closes_its_sandbox_when_the_search_raises(bird_dataset,
                                                                monkeypatch):
    dataset, db_root = bird_dataset
    opened, _ = recorded_sandboxes(monkeypatch)

    def explode(*args, **kwargs):
        raise RuntimeError("search blew up")

    monkeypatch.setattr(runner_module, "run_search", explode)
    item = load_dataset(dataset)[0]
    record = run_one_item(item, bench_env(db_root), bench_cfg())
    assert record["error"] == "RuntimeError: search blew up"
    assert len(opened) == 1 and opened[0].closed


def test_workers_never_share_a_sandbox(bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    opened, used = recorded_sandboxes(monkeypatch)
    items = load_dataset(dataset)
    summary = run_benchmark(items, bench_env(db_root), bench_cfg(),
                            tmp_path / "run", workers=2)
    assert summary["item_errors"] == 0 and summary["ex_overall"] == 1.0
    # each worker keeps its own sandbox for the run; sqlite3's same-thread
    # check is off on them, so the run itself must keep each to one thread
    assert 1 <= len(opened) <= 2
    assert {id(s) for s in used} == {id(s) for s in opened}
    assert all(len(sandbox.threads) == 1 for sandbox in opened)
    assert len(set.union(*(sandbox.threads for sandbox in opened))) == len(opened)
    assert threading.get_ident() not in opened[0].threads
    assert all(sandbox.closed for sandbox in opened)


def eight_items(dataset: Path) -> list[BenchmarkItem]:
    """The four restaurants items, then each again under another id."""
    items = load_dataset(dataset)
    return items + [dataclasses.replace(i, question_id=f"{i.question_id}-again")
                    for i in items]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_run_opens_one_connection_per_worker(bird_dataset, tmp_path,
                                               monkeypatch, workers):
    dataset, db_root = bird_dataset
    env = bench_env(db_root)
    env.catalog("restaurants")  # loaded first, so that only sandboxes connect below
    opened = recorded_connections(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often: a lost update shows
    try:
        summary = run_benchmark(eight_items(dataset), env, bench_cfg(),
                                tmp_path / "run", workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert summary["completed"] == 8 and summary["ex_overall"] == 1.0
    assert 1 <= len(opened) <= workers
    assert all(map(is_closed, opened))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_whose_items_raise_leaves_no_connection_open(bird_dataset, tmp_path,
                                                           monkeypatch, workers):
    dataset, db_root = bird_dataset
    env = bench_env(db_root, FailsMidSearch(after=40))
    env.catalog("restaurants")  # as above
    opened = recorded_connections(monkeypatch)
    summary = run_benchmark(eight_items(dataset), env, bench_cfg(),
                            tmp_path / "run", workers=workers)
    assert summary["item_errors"] > 0
    assert opened and all(map(is_closed, opened))


def test_an_item_on_a_missing_database_is_recorded_and_the_run_goes_on(
        bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)[:2]
    absent = dataclasses.replace(
        items[0], question_id="absent",
        question=dataclasses.replace(items[0].question, db_id="absent"))
    summary = run_benchmark([absent, *items], bench_env(db_root), bench_cfg(),
                            tmp_path / "run")
    assert (summary["completed"], summary["item_errors"]) == (3, 1)
    record = load_report_records(tmp_path / "run" / REPORT_NAME)["absent"]
    alone = run_one_item(absent, bench_env(db_root), bench_cfg())
    assert record["error"] == alone["error"]
    assert record["error"].startswith("IngestionError: no database file for 'absent'")


class WatchedSandbox(Sandbox):
    """A sandbox that keeps the kind of each result it returns."""

    def __init__(self, db_path):
        super().__init__(db_path)
        self.outcomes = []

    def run(self, *args, **kwargs):
        result = super().run(*args, **kwargs)
        self.outcomes.append("truncated" if result.truncated else result.kind)
        return result


# a gold query, and the bounds under which it ends so
FAILING_GOLD = {
    "timeout": (SPIN_SQL, bench_cfg(sql_timeout_secs=0.2)),
    "truncated": ("SELECT label FROM generalinfo", bench_cfg(row_cap=2)),
    "error": ("SELECT label FROM nowhere", bench_cfg()),
}


@pytest.mark.parametrize("outcome", FAILING_GOLD)
def test_a_failed_statement_leaves_the_next_item_as_on_a_fresh_sandbox(
        bird_dataset, outcome):
    dataset, db_root = bird_dataset
    gold, cfg = FAILING_GOLD[outcome]
    items = load_dataset(dataset)
    failing = dataclasses.replace(items[1], question_id="failing", gold_sql=gold)
    env = bench_env(db_root)
    with WatchedSandbox(env.db_path("restaurants")) as sandbox:
        first = run_one_item(failing, env, cfg, mode="baseline", sandbox=sandbox)
        assert outcome in sandbox.outcomes
        assert first["broken_gold"] == (outcome != "truncated")
        shared = run_one_item(items[0], env, bench_cfg(), sandbox=sandbox)
    fresh = run_one_item(items[0], bench_env(db_root), bench_cfg())
    assert shared["ex"] == 1 and shared["error"] is None
    del shared["elapsed_secs"], fresh["elapsed_secs"]
    assert shared == fresh


def test_run_one_item_broken_gold(bird_dataset):
    dataset, db_root = bird_dataset
    item = load_dataset(dataset)[0]
    broken = BenchmarkItem(question_id=item.question_id, question=item.question,
                           gold_sql="SELECT * FROM no_table",
                           difficulty=item.difficulty)
    record = run_one_item(broken, bench_env(db_root), bench_cfg(),
                          mode="baseline")
    assert record["broken_gold"] is True
    assert record["ex"] == 0
    # a broken gold item scores 0 in the overall and per-difficulty split
    items = [broken] + load_dataset(dataset)[1:]
    records = {i.question_id: run_one_item(i, bench_env(db_root), bench_cfg(),
                                           mode="baseline") for i in items[1:]}
    records[broken.question_id] = record
    summary = summarize(items, records, bench_cfg(), mode="baseline")
    assert summary["broken_gold"] == 1
    assert summary["ex_overall"] == 0.75
    assert summary["ex_by_difficulty"] == {
        "challenging": {"n": 1, "correct": 1, "ex": 1.0},
        "moderate": {"n": 1, "correct": 1, "ex": 1.0},
        "simple": {"n": 2, "correct": 1, "ex": 0.5},
    }


def test_run_one_item_transport_down_falls_back(bird_dataset, caplog):
    # a dead endpoint yields no trajectories; the item degrades to the
    # single-shot path, which also fails: the item loses its SQL, not itself.
    # Baseline mode makes the same guarded single-shot call.
    dataset, db_root = bird_dataset
    item = load_dataset(dataset)[0]
    for mode, lost in itertools.product(
            ("mcts", "baseline"),
            (TransportError("refused"),
             ProtocolError("chat response content is not text"))):

        class DownModel:
            def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
                raise lost

        caplog.clear()
        with caplog.at_level("WARNING"):
            record = run_one_item(item, bench_env(db_root, DownModel()), bench_cfg(),
                                  mode=mode)
        assert (record["sql"], record["ex"], record["error"]) == ("", 0, None)
        assert record["low_confidence"] is True
        assert any(item.question_id in r.message
                   and type(lost).__name__ in r.message for r in caplog.records)


def test_a_sample_without_utf8_form_costs_that_sample(bird_dataset):
    # one of the five samples of each generation prompt answers a query
    # holding a lone surrogate; it is dropped as a sample that does not parse
    dataset, db_root = bird_dataset
    item = load_dataset(dataset)[0]
    inner = scripted_benchmark_model()

    class SurrogateSample:
        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            if A5_MARK in prompt and sample_index == 1:
                return sql_json("SELECT '\ud800'")
            return inner.sample(prompt, temperature, max_tokens, sample_index, tag)

    record = run_one_item(item, bench_env(db_root, SurrogateSample()),
                          bench_cfg(), mode="mcts")
    assert record["error"] is None
    assert (record["sql"], record["ex"]) == (GOLD_SQL, 1)
    json.dumps(record, ensure_ascii=False).encode("utf-8")  # the journal can write it


def test_a_gold_query_without_utf8_form_is_broken_gold(bird_dataset):
    dataset, db_root = bird_dataset
    item = dataclasses.replace(load_dataset(dataset)[0],
                               gold_sql="SELECT '\ud800'")
    record = run_one_item(item, bench_env(db_root), bench_cfg(), mode="baseline")
    assert record["error"] is None
    assert (record["broken_gold"], record["ex"]) == (True, 0)


def test_run_one_item_sends_the_configured_max_tokens_single_shot(bird_dataset):
    # the search loses every call and yields no trajectory; the single-shot
    # fallback, like baseline mode, asks for SearchConfig.max_tokens
    dataset, db_root = bird_dataset
    item = load_dataset(dataset)[0]
    inner = scripted_benchmark_model()
    sent: list[tuple[str, int]] = []

    class SearchDownModel:
        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            sent.append((tag, max_tokens))
            if tag != "baseline":
                raise TransportError("refused")
            return inner.sample(prompt, temperature, max_tokens, sample_index, tag)

    cfg = bench_cfg(max_tokens=512)
    for mode in ("mcts", "baseline"):
        sent.clear()
        record = run_one_item(item, bench_env(db_root, SearchDownModel()), cfg,
                              mode=mode)
        assert record["ex"] == 1, record
        assert ("baseline", 512) in sent and {n for _, n in sent} == {512}


def test_run_one_item_survives_protocol_errors(bird_dataset, tmp_path):
    # a server answering `content: null` once, at the keyword call, at call
    # 40 and at the first reward call, costs those samples, not the question
    dataset, db_root = bird_dataset
    index_dir = tmp_path / "indexes"
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")

    class FlakyModel:
        def __init__(self):
            self.inner = scripted_benchmark_model()
            self.calls = 0
            self.failed: list[str] = []

        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            self.calls += 1
            if (tag == "keywords" or self.calls == 40
                    or (tag == "reward" and "reward" not in self.failed)):
                self.failed.append(tag)
                raise ProtocolError("chat response content is not text")
            return self.inner.sample(prompt, temperature, max_tokens,
                                     sample_index, tag=tag)

    item = load_dataset(dataset)[0]
    model = FlakyModel()
    env = RunEnvironment(model=model, db_root=db_root, index_dir=index_dir)
    record = run_one_item(item, env, SearchConfig(sql_timeout_secs=5.0))
    assert record["error"] is None
    assert record["ex"] == 1
    assert model.failed[0] == "keywords" and "reward" in model.failed
    assert len(model.failed) == 3 and model.calls > 40

    model = FlakyModel()
    ctx = prepare_context(item.question, SearchConfig(sql_timeout_secs=5.0), model,
                          env.catalog(item.db_id),
                          env.executor(item.db_id, SearchConfig()),
                          value_index=env.value_index(item.db_id))
    trajectories = run_search(ctx)
    assert trajectories
    audit_tree(trajectories[0].nodes[0])


def test_a_keyword_with_no_utf8_form_costs_only_that_keyword(bird_dataset,
                                                             tmp_path):
    # "\ud83d" is half of an escaped emoji: a lone surrogate, which has no
    # utf-8 form and so no MinHash signature
    dataset, db_root = bird_dataset
    index_dir = tmp_path / "indexes"
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    item = load_dataset(dataset)[0]
    cfg = SearchConfig(sql_timeout_secs=5.0)

    def env_answering(keywords: str) -> RunEnvironment:
        model = scripted_benchmark_model()
        model.rules.insert(0, (KEYWORD_MARK, keywords))
        return RunEnvironment(model=model, db_root=db_root, index_dir=index_dir,
                              embedder=HashEmbedder(dim=64))

    maps, records = [], []
    for keywords in ('["thai", "\\ud83d", "albany"]', '["thai", "albany"]'):
        env = env_answering(keywords)
        ctx = prepare_context(item.question, cfg, env.model,
                              env.catalog(item.db_id),
                              env.executor(item.db_id, cfg),
                              embedder=env.embedder,
                              value_index=env.value_index(item.db_id))
        maps.append((ctx.keywords, ctx.retrieved_map))
        record = run_one_item(item, env_answering(keywords), cfg)
        del record["elapsed_secs"]
        records.append(record)
    assert maps[0][0] == ["thai", "\ud83d", "albany"]
    assert maps[0][1] and maps[0][1] == maps[1][1]
    assert records[0]["error"] is None and records[0]["ex"] == 1
    assert records[0] == records[1]


@pytest.mark.parametrize("keywords", [
    "[" + "-" * 5000 + "1]",   # overflows the parser's recursion limit
    "[" + "-" * 10000 + "1]",  # overflows the parser's stack: MemoryError
    "[{[]: 1}]",               # an unhashable dict key: TypeError
], ids=["recursion", "parser-stack", "unhashable"])
def test_a_degenerate_keyword_answer_costs_only_the_retrieval(bird_dataset,
                                                              tmp_path, keywords):
    dataset, db_root = bird_dataset
    index_dir = tmp_path / "indexes"
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    item = load_dataset(dataset)[0]
    cfg = SearchConfig(sql_timeout_secs=5.0)
    records = []
    for answer in (keywords, "[]"):
        model = scripted_benchmark_model()
        model.rules.insert(0, (KEYWORD_MARK, answer))
        env = RunEnvironment(model=model, db_root=db_root, index_dir=index_dir,
                             embedder=HashEmbedder(dim=64))
        record = run_one_item(item, env, cfg)
        del record["elapsed_secs"]
        records.append(record)
    assert records[0]["error"] is None and records[0]["ex"] == 1
    assert records[0] == records[1]


def large_result_item(root: Path, rows: int) -> tuple[BenchmarkItem, Path]:
    """A database whose table `t` holds `rows` rows, and an item whose gold
    query returns them all."""
    db_root = root / "databases"
    (db_root / "big").mkdir(parents=True)
    conn = sqlite3.connect(db_root / "big" / "big.sqlite")
    conn.execute("CREATE TABLE t (x INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?)", ((i,) for i in range(rows)))
    conn.commit()
    conn.close()
    item = BenchmarkItem(
        question_id="big-0", gold_sql="SELECT x FROM t",
        question=NLQuestion(question="List every x.", db_id="big"))
    return item, db_root


@pytest.mark.parametrize("predicted, ex", [
    ("SELECT x FROM t", 1),
    ("SELECT x FROM t ORDER BY x DESC;", 1),           # order and `;` ignored
    ("SELECT x FROM t UNION ALL SELECT 0 -- twice", 1),  # a set, as in BIRD
    ("SELECT x FROM t; -- every x", 1),                # cut at the statement's end
    ("SELECT x FROM t WHERE 'a; -- b' <> '' ; /* ; */", 1),
    ("SELECT x FROM t WHERE x > 0", 0),
    ("SELECT x FROM t LIMIT 5", 0),                    # not truncated itself
    ("SELECT x, x FROM t", 0),                         # other arity: an error
    ("SELECT x FROM nowhere", 0),
])
def test_truncated_results_score_as_whole_row_sets(tmp_path, predicted, ex):
    # 12,000 rows pass the 10,000-row cap: the result is truncated
    item, db_root = large_result_item(tmp_path, 12_000)
    model = ScriptedModel()
    model.add(BASELINE_MARK, f"<sql>{predicted}</sql>")
    record = run_one_item(item, bench_env(db_root, model), bench_cfg(),
                          mode="baseline")
    assert (record["sql"], record["ex"], record["error"]) == (predicted, ex, None)


@pytest.mark.parametrize("gold, predicted, ex", [
    ("SELECT 0.1+0.2", "SELECT 0.3", 0),
    ("SELECT '1'", "SELECT 1", 0),
    ("SELECT ' a'", "SELECT 'a'", 0),
    ("SELECT 1.0000001", "SELECT 1", 0),
    ("SELECT 1.0", "SELECT 1", 1),  # equal as Python compares them
])
def test_ex_compares_rows_as_sqlite_returned_them(bird_dataset, gold, predicted, ex):
    # BIRD's set(pred) == set(gold); the search's folding calls each pair equal
    _, db_root = bird_dataset
    env = bench_env(db_root, ScriptedModel())
    env.model.add(BASELINE_MARK, f"<sql>{predicted}</sql>")
    item = BenchmarkItem(question_id="fold", gold_sql=gold,
                         question=NLQuestion(question="Which value?",
                                             db_id="restaurants"))
    record = run_one_item(item, env, bench_cfg(), mode="baseline")
    assert (record["sql"], record["ex"], record["error"]) == (predicted, ex, None)
    executor = env.executor("restaurants", bench_cfg())
    assert results_equal(executor(gold), executor(predicted))


def test_run_benchmark_end_to_end(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    out = tmp_path / "run"
    summary = run_benchmark(items, bench_env(db_root), bench_cfg(), out,
                            mode="mcts")
    assert summary["ex_overall"] == 1.0
    assert summary["completed"] == 4
    assert summary["ex_by_difficulty"] == {
        "challenging": {"n": 1, "correct": 1, "ex": 1.0},
        "moderate": {"n": 1, "correct": 1, "ex": 1.0},
        "simple": {"n": 2, "correct": 2, "ex": 1.0},
    }
    assert summary["config"]["n_rollout"] == 6
    assert (out / REPORT_NAME).exists()
    assert (out / SUMMARY_NAME).exists()
    records = load_report_records(out / REPORT_NAME)
    assert set(records) == {"0", "1", "2", "3"}
    predictions = (out / PREDICTIONS_NAME).read_text(encoding="utf-8")
    lines = predictions.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split("\t") == ["0", GOLD_SQL]



def test_write_predictions_keeps_string_literals(tmp_path):
    # collapsing every whitespace run would turn 'New  York' into another
    # query; inside quotes only what would break the line becomes a space
    sqls = {
        "0": "SELECT id\n  FROM t   WHERE city = 'New  York'  ",
        "1": 'SELECT "two  words" FROM `a  b` WHERE x = \'a\tb\r\nc\'',
        "2": "SELECT 'it''s  here',\t'x\u2028y'",
        "3": "SELECT 'open  to the\nend",
    }
    items = [BenchmarkItem(question_id=qid,
                           question=NLQuestion(question="q?", db_id="d"),
                           gold_sql="SELECT 1")
             for qid in [*sqls, "4"]]
    path = tmp_path / PREDICTIONS_NAME
    write_predictions(items, {qid: {"sql": sql} for qid, sql in sqls.items()},
                      path)
    assert path.read_text(encoding="utf-8").split("\n") == [
        "0\tSELECT id FROM t WHERE city = 'New  York'",
        '1\tSELECT "two  words" FROM `a  b` WHERE x = \'a b c\'',
        "2\tSELECT 'it''s  here', 'x y'",
        "3\tSELECT 'open  to the end",
        "4\t",  # no record
        "",
    ]

def test_run_benchmark_resume_skips_done(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    out = tmp_path / "run"
    run_benchmark(items[:2], bench_env(db_root), bench_cfg(), out, mode="baseline")
    first_records = load_report_records(out / REPORT_NAME)
    assert set(first_records) == {"0", "1"}

    model = scripted_benchmark_model()
    env = RunEnvironment(model=model, db_root=db_root)
    summary = run_benchmark(items, env, bench_cfg(), out, mode="baseline")
    assert summary["completed"] == 4
    assert summary["ex_overall"] == 1.0
    # items 0 and 1 were not rerun: two new items, one call each
    assert len(model.calls) == 2


def test_run_benchmark_resume_tolerates_torn_line(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    out = tmp_path / "run"
    run_benchmark(items, bench_env(db_root), bench_cfg(), out, mode="baseline")
    report = out / REPORT_NAME
    with open(report, "a", encoding="utf-8") as fh:
        fh.write('{"question_id": "torn')  # interrupted write
    summary = run_benchmark(items, bench_env(db_root), bench_cfg(), out,
                            mode="baseline")
    assert summary["completed"] == 4


def test_run_benchmark_no_resume_restarts(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)[:2]
    out = tmp_path / "run"
    run_benchmark(items, bench_env(db_root), bench_cfg(), out, mode="baseline")
    model = scripted_benchmark_model()
    env = RunEnvironment(model=model, db_root=db_root)
    run_benchmark(items, env, bench_cfg(), out, mode="baseline", resume=False)
    assert len(model.calls) == 2  # both items rerun
    assert len(load_report_records(out / REPORT_NAME)) == 2


def test_run_benchmark_refuses_to_resume_a_run_of_another_mode(bird_dataset,
                                                              tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    out = tmp_path / "run"
    run_benchmark(items[:2], bench_env(db_root), bench_cfg(), out, mode="baseline")
    model = scripted_benchmark_model()
    env = RunEnvironment(model=model, db_root=db_root)
    with pytest.raises(IngestionError,
                       match="question 0 run in 'baseline' mode, not 'mcts'"):
        run_benchmark(items, env, bench_cfg(n_rollout=24), out, mode="mcts")
    assert model.calls == []  # no item ran
    assert set(load_report_records(out / REPORT_NAME)) == {"0", "1"}
    summary = run_benchmark(items, env, bench_cfg(), out, mode="mcts", resume=False)
    assert summary["completed"] == 4
    records = load_report_records(out / REPORT_NAME).values()
    assert {record["mode"] for record in records} == {"mcts"}


def stale_index_dir(tmp_path, db_root):
    """An index directory whose restaurants index has an older format version."""
    index_dir = tmp_path / "indexes"
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    path = index_dir / "restaurants.jsonl"
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), "version": 3}).encode()
                     + b"\n" + rest)
    return index_dir


def test_run_benchmark_stale_index_fails_once_and_writes_nothing(
        bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    index_dir = stale_index_dir(tmp_path, db_root)
    loads = []
    load_index = runner_module.load_index

    def counting_load(path):
        loads.append(path)
        return load_index(path)

    monkeypatch.setattr(runner_module, "load_index", counting_load)
    out = tmp_path / "run"
    env = RunEnvironment(model=scripted_benchmark_model(), db_root=db_root,
                         index_dir=index_dir)
    with pytest.raises(IngestionError, match="rerun `sqlscout index build`"):
        run_benchmark(items, env, bench_cfg(), out, mode="mcts")
    assert len(loads) == 1
    assert load_report_records(out / REPORT_NAME) == {}
    # after a rebuild, the default resume runs every item
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    env = RunEnvironment(model=scripted_benchmark_model(), db_root=db_root,
                         index_dir=index_dir)
    summary = run_benchmark(items, env, bench_cfg(), out, mode="mcts")
    assert summary["completed"] == 4 and summary["item_errors"] == 0


def test_run_benchmark_summary_is_reproducible(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_benchmark(items, bench_env(db_root), bench_cfg(), out_a, mode="mcts")
    run_benchmark(items, bench_env(db_root), bench_cfg(), out_b, mode="mcts")
    assert (out_a / SUMMARY_NAME).read_bytes() == (out_b / SUMMARY_NAME).read_bytes()
    assert (out_a / PREDICTIONS_NAME).read_bytes() == \
        (out_b / PREDICTIONS_NAME).read_bytes()


def test_run_benchmark_workers_match_serial(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    run_benchmark(items, bench_env(db_root), bench_cfg(), serial, mode="mcts")
    run_benchmark(items, bench_env(db_root), bench_cfg(), threaded,
                  mode="mcts", workers=3)
    assert (serial / SUMMARY_NAME).read_bytes() == \
        (threaded / SUMMARY_NAME).read_bytes()


def test_run_benchmark_interrupt_under_workers_drops_the_queue(bird_dataset,
                                                               tmp_path,
                                                               monkeypatch):
    _, db_root = bird_dataset
    items = [BenchmarkItem(question_id=str(i), gold_sql="SELECT 1",
                           question=NLQuestion(question=f"q {i}?",
                                               db_id="restaurants"))
             for i in range(40)]

    class InterruptedModel:
        """Ctrl-C on the third call; later calls are slow, so a worker
        that takes a queued item is still busy when the run ends."""

        def __init__(self):
            self.calls = 0
            self.lock = threading.Lock()

        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            with self.lock:
                self.calls += 1
                calls = self.calls
            if calls == 3:
                raise KeyboardInterrupt
            if calls > 3:
                time.sleep(0.1)
            return "<sql>SELECT 1</sql>"

    model = InterruptedModel()
    env = bench_env(db_root, model)
    env.catalog("restaurants")  # so that only sandboxes connect below
    opened = recorded_connections(monkeypatch)
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(items, env, bench_cfg(), out, mode="baseline", workers=2)
    # the items in flight finish; the queued ones never start
    assert model.calls <= 3 + 2 * 2
    assert len(load_report_records(out / REPORT_NAME)) < model.calls
    assert opened and all(map(is_closed, opened))


def test_workers_journal_every_record_once_under_contention(bird_dataset, tmp_path):
    _, db_root = bird_dataset
    items = many_items(60, ("restaurants",))
    model = ScriptedModel()
    model.add(BASELINE_MARK, "<sql>SELECT 1</sql>")
    out = tmp_path / "run"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        summary = run_benchmark(items, bench_env(db_root, model), bench_cfg(),
                                out, mode="baseline", workers=8)
    finally:
        sys.setswitchinterval(interval)
    lines = (out / REPORT_NAME).read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["question_id"] for line in lines) == \
        sorted(i.question_id for i in items)
    assert summary["completed"] == summary["ex_overall"] * 60 == 60


@pytest.mark.parametrize("workers", [0, -1])
def test_run_benchmark_rejects_fewer_than_one_worker(bird_dataset, tmp_path,
                                                     workers):
    # checked before `resume=False` clears the journal
    dataset, db_root = bird_dataset
    out = tmp_path / "run"
    items = load_dataset(dataset)
    run_benchmark(items[:1], bench_env(db_root), bench_cfg(), out, mode="baseline")
    journal = (out / REPORT_NAME).read_bytes()
    with pytest.raises(ContractViolation, match="workers"):
        run_benchmark(items, bench_env(db_root), bench_cfg(), out,
                      mode="baseline", workers=workers, resume=False)
    assert (out / REPORT_NAME).read_bytes() == journal


def test_run_benchmark_interrupt_with_one_worker_finishes_the_item_in_flight(
        bird_dataset, tmp_path):
    _, db_root = bird_dataset
    items = [BenchmarkItem(question_id=str(i), gold_sql="SELECT 1",
                           question=NLQuestion(question=f"q {i}?",
                                               db_id="restaurants"))
             for i in range(5)]

    class CtrlCModel:
        """Ctrl-C reaches the main thread during the first call, which then
        goes on to its end."""

        def __init__(self):
            self.calls = self.finished = 0

        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            self.calls += 1
            if self.calls == 1:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.2)
            self.finished += 1
            return "<sql>SELECT 1</sql>"

    model = CtrlCModel()
    out = tmp_path / "run"
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(items, bench_env(db_root, model), bench_cfg(), out,
                          mode="baseline")
    finally:
        signal.signal(signal.SIGINT, previous)
    # the item in flight was not cut short, and the queued ones never started
    assert (model.calls, model.finished) == (1, 1)
    # and its record is kept, so a resume does not pay for its call again
    records = load_report_records(out / REPORT_NAME)
    assert list(records) == ["0"] and records["0"]["ex"] == 1


def test_run_benchmark_stops_on_an_endpoint_outage_and_records_nothing(
        bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    posts, naps = [], []
    monkeypatch.setattr(llm_module.requests.Session, "request",
                        lambda *a, **k: (posts.append(1),
                                         FakeResponse(status_code=503))[1])
    monkeypatch.setattr(llm_module.time, "sleep", naps.append)
    client = OpenAIChatClient(EndpointConfig(chat_model="m",
                                             base_url="http://x/v1"))
    # the outage is not a lost sample: the item ends at its first call
    with pytest.raises(EndpointUnavailable, match="HTTP 503"):
        run_one_item(items[0], bench_env(db_root, client), bench_cfg())
    assert len(posts) == 1 + llm_module.MAX_RETRIES
    assert naps == list(llm_module.BACKOFF_SECS)
    del posts[:], naps[:]

    out = tmp_path / "run"
    with pytest.raises(EndpointUnavailable, match="HTTP 503") as stopped:
        run_benchmark(items, bench_env(db_root, client), bench_cfg(), out)
    client.close()
    assert f"item {items[0].question_id} " in str(stopped.value)
    assert naps == list(llm_module.BACKOFF_SECS)  # one call's retries, no more
    assert load_report_records(out / REPORT_NAME) == {}
    # with the endpoint back, the default resume runs every item
    summary = run_benchmark(items, bench_env(db_root), bench_cfg(), out)
    assert (summary["completed"], summary["ex_overall"]) == (4, 1.0)
    assert len(load_report_records(out / REPORT_NAME)) == 4


def test_run_benchmark_records_an_item_whose_request_the_endpoint_refuses(
        bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    refused = items[1]
    scripted = scripted_benchmark_model()

    def post(session, method, url, json=None, **kwargs):
        prompt = json["messages"][0]["content"]
        if refused.question.question in prompt:  # this question's prompt is too long
            return FakeResponse(status_code=400,
                                text="maximum context length exceeded")
        return FakeResponse(payload=chat_payload(scripted.sample(
            prompt, json["temperature"], json["max_tokens"], 0)))

    monkeypatch.setattr(llm_module.requests.Session, "request", post)
    monkeypatch.setattr(llm_module.time, "sleep", lambda secs: None)
    client = OpenAIChatClient(EndpointConfig(chat_model="m",
                                             base_url="http://x/v1"))
    try:
        summary = run_benchmark(items, bench_env(db_root, client), bench_cfg(),
                                tmp_path / "run", mode="baseline")
    finally:
        client.close()
    # a refused request is the item's own failure, not an outage: the run
    # goes on and journals every item, the refused one as EX 0
    records = load_report_records(tmp_path / "run" / REPORT_NAME)
    assert sorted(records) == sorted(i.question_id for i in items)
    assert summary["completed"] == len(items)
    assert [records[i.question_id]["ex"] for i in items] == [
        int(i is not refused) for i in items]
    assert records[refused.question_id]["model_calls"] == 1


def refusing_session(monkeypatch, status: int) -> tuple[list, list]:
    """Every POST answers `status`, as to a wrong API key: the POSTs and the
    sleeps between retries, recorded."""
    posts, naps = [], []
    monkeypatch.setattr(llm_module.requests.Session, "request",
                        lambda *a, **k: (posts.append(1), FakeResponse(
                            status_code=status, text="invalid api key"))[1])
    monkeypatch.setattr(llm_module.time, "sleep", naps.append)
    return posts, naps


def test_run_benchmark_stops_when_the_endpoint_refuses_the_api_key(
        bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    posts, naps = refusing_session(monkeypatch, 401)
    client = OpenAIChatClient(EndpointConfig(chat_model="m",
                                             base_url="http://x/v1"))
    out = tmp_path / "run"
    try:
        with pytest.raises(EndpointUnavailable, match="HTTP 401") as stopped:
            run_benchmark(load_dataset(dataset), bench_env(db_root, client),
                          bench_cfg(), out)
    finally:
        client.close()
    assert "failed item 0 " in str(stopped.value)
    assert posts == [1] and naps == []  # one refusal, not retried
    assert load_report_records(out / REPORT_NAME) == {}


class GoesDown:
    """The scripted model, until its endpoint goes down for good after
    `after` calls; the calls it saw are kept, per question marker."""

    def __init__(self, after: int):
        self.inner = scripted_benchmark_model()
        self.after = after
        self.asked: list[str] = []  # the marker of each call's question
        self.lock = threading.Lock()

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        with self.lock:
            self.asked.append(next((q["marker"] for q in BENCH_QUESTIONS
                                    if q["marker"] in prompt.lower()), ""))
            if len(self.asked) > self.after:
                raise EndpointUnavailable("retries exhausted")
        return self.inner.sample(prompt, temperature, max_tokens,
                                 sample_index, tag)


def test_run_benchmark_keeps_the_finished_items_of_a_stopped_run(bird_dataset,
                                                                 tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    out = tmp_path / "run"
    with pytest.raises(EndpointUnavailable, match=f"item {items[2].question_id} "):
        run_benchmark(items, bench_env(db_root, GoesDown(after=2)), bench_cfg(),
                      out, mode="baseline")
    assert list(load_report_records(out / REPORT_NAME)) == [
        items[0].question_id, items[1].question_id]


@pytest.mark.parametrize("after", [0, 3, 30])
def test_an_endpoint_outage_ends_the_item_at_its_first_lost_call(
        bird_dataset, tmp_path, after):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)
    model = GoesDown(after)
    out = tmp_path / "run"
    with pytest.raises(EndpointUnavailable, match=f"item {items[0].question_id} "):
        run_benchmark(items, bench_env(db_root, model), bench_cfg(), out)
    # no search step takes the outage for a lost sample and asks again
    assert len(model.asked) == after + 1
    assert load_report_records(out / REPORT_NAME) == {}


def test_an_endpoint_outage_journals_neither_item_in_flight(bird_dataset,
                                                            tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)

    class BothInFlight(GoesDown):
        """Each worker's first call waits for the other's, so the endpoint
        goes down with both workers' items in flight."""

        def __init__(self, after: int):
            super().__init__(after)
            self.started = threading.Barrier(2, timeout=10)
            self.local = threading.local()

        def sample(self, *args, **kwargs):
            if not getattr(self.local, "started", False):
                self.local.started = True
                self.started.wait()
            return super().sample(*args, **kwargs)

    after = 20
    model = BothInFlight(after)
    out = tmp_path / "run"
    with pytest.raises(EndpointUnavailable, match="retries exhausted"):
        run_benchmark(items, bench_env(db_root, model), bench_cfg(), out,
                      workers=2)
    assert load_report_records(out / REPORT_NAME) == {}
    # each item in flight lost one call; the queued ones never started
    lost = sorted(model.asked[after:])
    assert lost == sorted(q["marker"] for q in BENCH_QUESTIONS[:2])


def restaurants_index_dir(db_root: Path, tmp_path: Path) -> Path:
    """A directory holding the value index of the restaurants database."""
    index_dir = tmp_path / "indexes"
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    return index_dir


def test_an_outage_on_the_keyword_call_stops_the_item(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)

    class KeywordsDown:
        def __init__(self):
            self.inner, self.tags = scripted_benchmark_model(), []

        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            self.tags.append(tag)
            if tag == "keywords":
                raise EndpointUnavailable("retries exhausted: HTTP 503")
            return self.inner.sample(prompt, temperature, max_tokens,
                                     sample_index, tag)

    model = KeywordsDown()
    env = RunEnvironment(model=model, db_root=db_root,
                         index_dir=restaurants_index_dir(db_root, tmp_path))
    out = tmp_path / "run"
    with pytest.raises(EndpointUnavailable, match=f"item {items[0].question_id} "):
        run_benchmark(items, env, bench_cfg(), out)
    assert model.tags == ["keywords"]  # no search ran without its values
    assert load_report_records(out / REPORT_NAME) == {}


def test_run_benchmark_stops_on_an_embedding_outage(bird_dataset, tmp_path):
    # the chat endpoint answers; the embedding endpoint is down for good
    dataset, db_root = bird_dataset
    index_dir = restaurants_index_dir(db_root, tmp_path)

    class Down:
        def __init__(self):
            self.calls = 0

        def embed(self, texts):
            self.calls += 1
            raise EndpointUnavailable("retries exhausted: HTTP 503")

    items, embedder = load_dataset(dataset), Down()
    env = RunEnvironment(model=scripted_benchmark_model(), db_root=db_root,
                         index_dir=index_dir, embedder=embedder)
    out = tmp_path / "run"
    with pytest.raises(EndpointUnavailable, match="HTTP 503") as stopped:
        run_benchmark(items, env, bench_cfg(), out)
    assert items[0].question_id in str(stopped.value)
    assert embedder.calls == 1  # no later keyword or item waits on it
    assert load_report_records(out / REPORT_NAME) == {}


def test_run_benchmark_traces(bird_dataset, tmp_path):
    dataset, db_root = bird_dataset
    items = load_dataset(dataset)[:1]
    out = tmp_path / "run"
    run_benchmark(items, bench_env(db_root), bench_cfg(), out, mode="mcts",
                  write_traces=True)
    trace = out / TRACES_DIR / "0.json"
    assert trace.exists()
    tree = json.loads(trace.read_text(encoding="utf-8"))
    assert tree["nodes"][0]["parent"] is None


def test_summarize_partial_records():
    items = many_items(3, ("alpha",))
    records = {
        "alpha-0": {"question_id": "alpha-0", "ex": 1, "difficulty": "unknown",
                    "model_calls": 5},
        "alpha-2": {"question_id": "alpha-2", "ex": 0, "difficulty": "unknown",
                    "model_calls": 7, "error": "boom"},
    }
    summary = summarize(items, records, SearchConfig(), mode="mcts")
    assert summary["total_items"] == 3
    assert summary["completed"] == 2
    assert summary["ex_overall"] == 0.5
    assert summary["item_errors"] == 1
    assert summary["model_calls"] == 12


# ---- CLI ----

@pytest.fixture
def cli_env(monkeypatch):
    # the run command builds a network client; tests run offline, so patch
    # the client class with the scripted model factory
    import sqlscout.harness.cli as cli_mod

    monkeypatch.setattr(cli_mod, "OpenAIChatClient",
                        lambda endpoint: scripted_benchmark_model())
    monkeypatch.setenv("SQLSCOUT_CHAT_MODEL", "scripted")
    monkeypatch.delenv("SQLSCOUT_EMBED_MODEL", raising=False)
    monkeypatch.delenv("SQLSCOUT_CACHE_DIR", raising=False)
    return CliRunner()


def test_cli_index_build(bird_dataset, tmp_path, cli_env):
    _, db_root = bird_dataset
    out_dir = tmp_path / "indexes"
    result = cli_env.invoke(cli_main, [
        "index", "build", "--db-root", str(db_root), "--out-dir", str(out_dir),
    ])
    assert result.exit_code == 0, result.output
    assert (out_dir / "restaurants.jsonl").exists()
    assert "restaurants:" in result.output


def test_cli_index_build_reports_a_file_that_is_no_database(tmp_path, cli_env):
    db_root = tmp_path / "databases"
    db_root.mkdir()
    (db_root / "broken.sqlite").write_bytes(b"plain text, not a database\n" * 100)
    result = cli_env.invoke(cli_main, [
        "index", "build", "--db-root", str(db_root),
        "--out-dir", str(tmp_path / "indexes"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    error = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(error) == 1 and "not a database" in error[0], result.output


def test_cli_index_build_finds_both_layouts(tmp_path, cli_env):
    db_root = tmp_path / "databases"
    (db_root / "nested").mkdir(parents=True)
    make_restaurant_db(db_root / "nested" / "nested.sqlite")
    make_restaurant_db(db_root / "flat.sqlite")
    out_dir = tmp_path / "indexes"
    result = cli_env.invoke(cli_main, [
        "index", "build", "--db-root", str(db_root), "--out-dir", str(out_dir),
    ])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out_dir.iterdir()) == ["flat.jsonl",
                                                        "nested.jsonl"]


def test_cli_run_and_report(bird_dataset, tmp_path, cli_env):
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "mcts", "--traces",
    ])
    assert result.exit_code == 0, result.output
    assert "EX overall: 1.0000" in result.output

    report = cli_env.invoke(cli_main, ["report", str(out_dir)])
    assert report.exit_code == 0, report.output
    assert report.output == (
        "difficulty        n  correct      EX\n"
        "challenging       1        1  1.0000\n"
        "moderate          1        1  1.0000\n"
        "simple            2        2  1.0000\n"
        "overall           4        4  1.0000\n"
        "mode: mcts  seed: 0\n"
    )

    inspect = cli_env.invoke(cli_main, [
        "inspect", str(out_dir), "--question-id", "0",
    ])
    assert inspect.exit_code == 0, inspect.output
    assert "root" in inspect.output
    assert "A7" in inspect.output


def test_cli_run_requires_chat_model(bird_dataset, tmp_path, cli_env,
                                     monkeypatch):
    monkeypatch.delenv("SQLSCOUT_CHAT_MODEL", raising=False)
    dataset, db_root = bird_dataset
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert result.exit_code != 0
    assert "no chat model configured" in result.output


@pytest.mark.parametrize("line, key", [
    ("n_rollout = abc", "n_rollout"),     # not an int
    ("n_rollouts = 8", "n_rollouts"),     # unknown key
    ("n_rollout = 0", "n_rollout"),       # out of range
    ("max_tokens = 0", "max_tokens"),     # sent with every request
    ("top_m_per_column = -1", "top_m_per_column"),  # drops every value
])
def test_cli_run_reports_a_bad_config(bird_dataset, tmp_path, cli_env, line, key):
    dataset, db_root = bird_dataset
    config = tmp_path / "run.ini"
    config.write_text(f"[search]\n{line}\n", encoding="utf-8")
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(tmp_path / "run"), "--config", str(config),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    error = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(error) == 1 and key in error[0], result.output


def test_cli_run_reports_a_stale_index(bird_dataset, tmp_path, cli_env):
    dataset, db_root = bird_dataset
    index_dir = stale_index_dir(tmp_path, db_root)
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--index-dir", str(index_dir),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    error = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(error) == 1 and "sqlscout index build" in error[0], result.output
    assert load_report_records(out_dir / REPORT_NAME) == {}


def test_cli_run_refuses_to_resume_a_run_of_another_mode(bird_dataset, tmp_path,
                                                         cli_env):
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    args = ["run", "--dataset", str(dataset), "--db-root", str(db_root),
            "--out-dir", str(out_dir), "--limit", "2"]
    assert cli_env.invoke(cli_main, [*args, "--mode", "baseline"]).exit_code == 0
    result = cli_env.invoke(cli_main, [*args, "--mode", "mcts"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    error = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(error) == 1 and "'baseline' mode, not 'mcts'" in error[0], result.output


def test_cli_run_stops_on_an_endpoint_outage(bird_dataset, tmp_path, cli_env,
                                            monkeypatch):
    import sqlscout.harness.cli as cli_mod

    class Down:
        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            raise EndpointUnavailable("retries exhausted: HTTP 503")

    monkeypatch.setattr(cli_mod, "OpenAIChatClient", lambda endpoint: Down())
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline",
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    error = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(error) == 1 and "HTTP 503" in error[0], result.output
    assert load_report_records(out_dir / REPORT_NAME) == {}


def test_cli_run_stops_when_the_endpoint_refuses_the_api_key(
        bird_dataset, tmp_path, cli_env, monkeypatch):
    import sqlscout.harness.cli as cli_mod

    monkeypatch.setattr(cli_mod, "OpenAIChatClient", OpenAIChatClient)
    refusing_session(monkeypatch, 401)
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    error = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(error) == 1 and "HTTP 401" in error[0], result.output
    assert load_report_records(out_dir / REPORT_NAME) == {}


def test_cli_run_with_limit_and_baseline(bird_dataset, tmp_path, cli_env):
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline", "--limit", "2",
    ])
    assert result.exit_code == 0, result.output
    assert len(load_report_records(out_dir / REPORT_NAME)) == 2


@pytest.mark.parametrize("option, value", [
    ("--limit", "-1"), ("--workers", "0"), ("--workers", "-2"),
])
def test_cli_run_rejects_out_of_range_counts(bird_dataset, tmp_path, cli_env,
                                             option, value):
    # `items[:-1]` would drop the last item, and fewer than one worker would
    # silently run in series
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline", option, value,
    ])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not (out_dir / REPORT_NAME).exists()


def test_cli_run_limit_zero_runs_nothing(bird_dataset, tmp_path, cli_env):
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline", "--limit", "0",
    ])
    assert result.exit_code == 0, result.output
    assert load_report_records(out_dir / REPORT_NAME) == {}


def test_cli_report_empty_dir(tmp_path, cli_env):
    result = cli_env.invoke(cli_main, ["report", str(tmp_path)])
    assert result.exit_code != 0
    assert "no records" in result.output


@pytest.mark.parametrize("value, code", [("nan", 1), ("5.0", 2), ("-1", 2), ("0", 2),
                                         ("--sds=-1", 2)])
def test_cli_run_rejects_a_subsample_fraction_outside_zero_to_one(
        bird_dataset, tmp_path, cli_env, value, code):
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    sds = [value] if value.startswith("--sds=") else ["--sds", value]
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline", *sds,
    ])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    assert "--sds" in result.output and "No such option" not in result.output
    assert not (out_dir / REPORT_NAME).exists()


@pytest.mark.parametrize("fraction, kept", [([], 1), (["0.5"], 2), (["1"], 4)])
def test_cli_run_sds_takes_an_optional_fraction(bird_dataset, tmp_path, cli_env,
                                                fraction, kept):
    # a bare --sds is 10%: one of the four items, rounded up
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline", "--sds", *fraction,
    ])
    assert result.exit_code == 0, result.output
    assert f"subsampled {kept}:" in result.output
    assert len(load_report_records(out_dir / REPORT_NAME)) == kept


def test_cli_run_rejects_sds_with_an_id_file(bird_dataset, tmp_path, cli_env):
    dataset, db_root = bird_dataset
    ids = tmp_path / "ids.json"
    ids.write_text('["0"]', encoding="utf-8")
    out_dir = tmp_path / "run"
    for fraction in ([], ["0.5"]):
        result = cli_env.invoke(cli_main, [
            "run", "--dataset", str(dataset), "--db-root", str(db_root),
            "--out-dir", str(out_dir), "--mode", "baseline", "--sds", *fraction,
            "--sds-file", str(ids),
        ])
        assert result.exit_code == 2, result.output
        assert "--sds and --sds-file" in result.output
        assert "loaded" not in result.output  # nothing ran
        assert not out_dir.exists()


@pytest.mark.parametrize("command", [["run"], ["index", "build"]])
def test_cli_has_no_seed_option(cli_env, command):
    # the search seed is `[search] rng_seed`; an index build uses the default
    # hash seed, and `load_index` reads whatever seed an index names
    result = cli_env.invoke(cli_main, [*command, "--seed", "3"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--seed" in result.output


def test_cli_inspect_truncates_sql_to_max_sql(tmp_path, cli_env):
    sql = "SELECT COUNT(*) FROM generalinfo WHERE id_restaurant > 7"
    node = {"id": 0, "parent": None, "action": None, "visits": 1, "edge_q": None,
            "edge_n": None, "reward": None, "dead": False, "sql": sql}
    (tmp_path / TRACES_DIR).mkdir()
    (tmp_path / TRACES_DIR / "7.json").write_text(json.dumps({"nodes": [node]}),
                                                   encoding="utf-8")

    def shown(max_sql: str):
        return cli_env.invoke(cli_main, ["inspect", str(tmp_path),
                                         "--question-id", "7", "--max-sql", max_sql])

    for limit in (4, 10, len(sql)):
        result = shown(str(limit))
        assert result.exit_code == 0, result.output
        shown_sql = re.search(r"sql='(.*)'", result.output).group(1)
        assert len(shown_sql) == min(limit, len(sql))
    for limit in ("3", "0", "-2"):  # `sql[:max_sql - 3]` would keep too much
        result = shown(limit)
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--max-sql'" in result.output


def test_cli_inspect_missing_trace(tmp_path, cli_env):
    result = cli_env.invoke(cli_main, [
        "inspect", str(tmp_path), "--question-id", "42",
    ])
    assert result.exit_code != 0
    assert "--traces" in result.output
