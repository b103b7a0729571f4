"""Dataset ingestion, benchmark orchestration, and the CLI."""

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from click.testing import CliRunner

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import NLQuestion, SearchConfig
from sqlscout.errors import IngestionError, ProtocolError, TransportError
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
)
from sqlscout.harness import runner as runner_module
from sqlscout.harness.cli import main as cli_main
from sqlscout.harness.runner import (
    PREDICTIONS_NAME,
    REPORT_NAME,
    SUMMARY_NAME,
    TRACES_DIR,
)
from sqlscout.llm_client import ScriptedModel
from sqlscout.mcts import SearchDeps, audit_tree, run_search
from sqlscout.value_index import build_value_index, save_index

from conftest import (
    BASELINE_MARK,
    BENCH_QUESTIONS,
    GOLD_SQL,
    QUESTION,
    make_bird_dataset,
    make_restaurant_db,
    scripted_benchmark_model,
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
    items = many_items(15, ("alpha",))
    assert len(subsample_sds(items, fraction=0.10, mode="ceil")) == 2
    assert len(subsample_sds(items, fraction=0.10, mode="round")) == 2
    items5 = many_items(5, ("alpha",))
    assert len(subsample_sds(items5, fraction=0.10, mode="ceil")) == 1
    assert len(subsample_sds(items5, fraction=0.10, mode="round")) == 1


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
        "multiset_compare = true\n"
        "retrieval_mode = or\n"
        "[endpoint]\n"
        "chat_model = file-model\n",
        encoding="utf-8",
    )
    cfg, endpoint = load_config(path)
    assert cfg.n_rollout == 8
    assert cfg.t_reward == 0.5
    assert cfg.uct_c == pytest.approx(math.sqrt(2))
    assert cfg.multiset_compare is True
    assert cfg.retrieval_mode == "or"
    assert cfg.n_reward == 5  # untouched keys keep defaults
    assert endpoint.chat_model == "file-model"  # file beats env


def test_load_config_missing_file(tmp_path):
    with pytest.raises(IngestionError):
        load_config(tmp_path / "absent.ini")


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
    sql = baseline_generate(q, restaurant_catalog, model)
    assert sql == GOLD_SQL
    assert len(model.calls) == 1
    prompt, temperature, index, tag = model.calls[0]
    assert temperature == 0.0
    assert tag == "baseline"


def test_baseline_unparseable_returns_empty(restaurant_catalog):
    model = ScriptedModel()
    model.add(BASELINE_MARK, "I cannot write SQL today.")
    q = NLQuestion(question=QUESTION, db_id="restaurants")
    assert baseline_generate(q, restaurant_catalog, model) == ""


# ---- run_one_item and run_benchmark ----

def bench_env(db_root, model=None) -> RunEnvironment:
    return RunEnvironment(model=model or scripted_benchmark_model(),
                          db_root=db_root)


def bench_cfg(**kw) -> SearchConfig:
    kw.setdefault("n_rollout", 6)
    kw.setdefault("sql_timeout_secs", 5.0)
    return SearchConfig(**kw)


@pytest.mark.parametrize("loader", ["load_index", "load_catalog"])
def test_environment_loads_each_database_once_under_threads(
        bird_dataset, tmp_path, monkeypatch, loader):
    _, db_root = bird_dataset
    index_dir = tmp_path / "indexes"
    index_dir.mkdir()
    (index_dir / "restaurants.jsonl").write_text("", encoding="utf-8")
    loads = []

    def slow_load(*args, **kwargs):
        loads.append(args)
        time.sleep(0.2)
        return object()

    monkeypatch.setattr(runner_module, loader, slow_load)
    env = RunEnvironment(model=ScriptedModel(), db_root=db_root,
                         index_dir=index_dir)
    get = env.value_index if loader == "load_index" else env.catalog
    start = threading.Barrier(4)

    def ask(_):
        start.wait(timeout=10)
        return get("restaurants")

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(ask, i) for i in range(4)]
        got = [f.result(timeout=10) for f in futures]
    assert len(loads) == 1
    assert all(g is got[0] for g in got)


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


def test_run_one_item_transport_down_falls_back(bird_dataset):
    # a dead endpoint yields no trajectories; the item degrades to the
    # single-shot path, which also fails, and the record captures EX=0
    dataset, db_root = bird_dataset

    class DownModel:
        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            raise TransportError("refused")

    item = load_dataset(dataset)[0]
    record = run_one_item(item, bench_env(db_root, DownModel()), bench_cfg())
    assert record["ex"] == 0
    assert record["error"]


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
    deps = SearchDeps(model=model, catalog=env.catalog(item.db_id),
                      executor=env.executor(item.db_id, SearchConfig()),
                      value_index=env.value_index(item.db_id))
    trajectories = run_search(item.question, deps, SearchConfig(sql_timeout_secs=5.0))
    assert trajectories
    audit_tree(trajectories[0].nodes[0])


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
                                                               tmp_path):
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
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(items, bench_env(db_root, model), bench_cfg(), out,
                      mode="baseline", workers=2)
    # the items in flight finish; the queued ones never start
    assert model.calls <= 3 + 2 * 2
    assert len(load_report_records(out / REPORT_NAME)) < model.calls


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


def test_cli_run_with_limit_and_baseline(bird_dataset, tmp_path, cli_env):
    dataset, db_root = bird_dataset
    out_dir = tmp_path / "run"
    result = cli_env.invoke(cli_main, [
        "run", "--dataset", str(dataset), "--db-root", str(db_root),
        "--out-dir", str(out_dir), "--mode", "baseline", "--limit", "2",
    ])
    assert result.exit_code == 0, result.output
    assert len(load_report_records(out_dir / REPORT_NAME)) == 2


def test_cli_report_empty_dir(tmp_path, cli_env):
    result = cli_env.invoke(cli_main, ["report", str(tmp_path)])
    assert result.exit_code != 0
    assert "no records" in result.output


def test_cli_inspect_missing_trace(tmp_path, cli_env):
    result = cli_env.invoke(cli_main, [
        "inspect", str(tmp_path), "--question-id", "42",
    ])
    assert result.exit_code != 0
    assert "--traces" in result.output
