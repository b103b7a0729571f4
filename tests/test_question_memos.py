"""Per-question memos: schema text once per slice, each SQL once per item."""

import dataclasses
from collections import Counter

import sqlscout.action_model.prompts as prompts
import sqlscout.action_model.runner as action_runner
import sqlscout.reward_select as reward_select
from sqlscout.core.types import NLQuestion, SearchConfig
from sqlscout.harness import RunEnvironment, load_dataset, run_one_item
from sqlscout.mcts import SearchDeps, run_search

from conftest import (
    BROKEN_SQL,
    GOLD_SQL,
    GOLD_SQL_ALT,
    QUESTION,
    scripted_benchmark_model,
    scripted_pipeline_model,
)

# generator samples, one per index up to N_reward: two equivalent queries and
# one that needs revision
BRANCHING_A5 = [GOLD_SQL, GOLD_SQL_ALT, BROKEN_SQL, GOLD_SQL, GOLD_SQL_ALT]


def slice_key(selected):
    if selected is None:
        return None
    return tuple((t, tuple(cols)) for t, cols in selected.items())


def test_search_renders_each_slice_once(monkeypatch, restaurant_catalog,
                                        restaurant_executor, restaurant_index):
    renders: list = []
    render = prompts.render_schema_context

    def counting_render(catalog, selected=None, retrieved_values=None):
        renders.append(slice_key(selected))
        return render(catalog, selected=selected, retrieved_values=retrieved_values)

    built: list[tuple[tuple, dict, str]] = []
    build = prompts.build_action_prompt

    def recording_build(*args, **kwargs):
        prompt = build(*args, **kwargs)
        built.append((args, kwargs, prompt))
        return prompt

    monkeypatch.setattr(prompts, "render_schema_context", counting_render)
    for owner in (action_runner, reward_select):
        monkeypatch.setattr(owner, "build_action_prompt", recording_build)

    deps = SearchDeps(model=scripted_pipeline_model(a5_sql=BRANCHING_A5),
                      catalog=restaurant_catalog, executor=restaurant_executor,
                      value_index=restaurant_index)
    q = NLQuestion(question=QUESTION, hint="", db_id="restaurants")
    for seed in range(3):
        renders.clear()
        built.clear()
        run_search(q, deps, SearchConfig(sql_timeout_secs=5.0, rng_seed=seed))
        counts = Counter(renders)
        assert counts and max(counts.values()) == 1, counts
        assert len(counts) >= 2  # the full catalog and the selected slice
        assert len(built) > 10 * len(counts)
        assert any(kw.get("retrieved_values") for _, kw, _ in built)
        monkeypatch.setattr(prompts, "render_schema_context", render)
        for args, kwargs, prompt in built:
            assert kwargs.get("schema_cache") is not None
            uncached = {k: v for k, v in kwargs.items() if k != "schema_cache"}
            assert build(*args, **uncached) == prompt
        monkeypatch.setattr(prompts, "render_schema_context", counting_render)


def counting_env(monkeypatch) -> list[str]:
    """Record every SQL string that reaches a database through the run environment."""
    ran: list[str] = []
    make_executor = RunEnvironment.executor

    def executor(self, db_id, cfg):
        inner = make_executor(self, db_id, cfg)

        def run(sql):
            ran.append(sql)
            return inner(sql)

        return run

    monkeypatch.setattr(RunEnvironment, "executor", executor)
    return ran


def test_run_one_item_executes_each_sql_once(monkeypatch, bird_dataset):
    dataset, db_root = bird_dataset
    ran = counting_env(monkeypatch)
    # a gold query whose text no candidate shares, with the same result
    item = dataclasses.replace(load_dataset(dataset)[0], gold_sql="SELECT 4")
    env = RunEnvironment(model=scripted_pipeline_model(a5_sql=BRANCHING_A5),
                         db_root=db_root)
    record = run_one_item(item, env, SearchConfig(sql_timeout_secs=5.0))
    assert record["error"] is None and record["ex"] == 1
    assert len(record["candidates"]) > 1
    counts = Counter(ran)
    assert counts["SELECT 4"] == 1
    assert {GOLD_SQL, GOLD_SQL_ALT, BROKEN_SQL} <= set(counts)
    assert max(counts.values()) == 1, counts


def test_gold_query_bypasses_the_memo(monkeypatch, bird_dataset):
    dataset, db_root = bird_dataset
    ran = counting_env(monkeypatch)
    item = load_dataset(dataset)[1]  # scripted to generate the gold text itself
    cfg = SearchConfig(n_rollout=6, sql_timeout_secs=5.0)
    record = run_one_item(item, RunEnvironment(model=scripted_benchmark_model(),
                                               db_root=db_root), cfg)
    assert record["sql"] == item.gold_sql and record["ex"] == 1
    assert Counter(ran)[item.gold_sql] == 2  # once in the search, once as gold
    # every result truncated: a truncated result equals only the same object,
    # so the chosen query must not score against the memo's copy of itself
    record = run_one_item(item, RunEnvironment(model=scripted_benchmark_model(),
                                               db_root=db_root),
                          dataclasses.replace(cfg, row_cap=0))
    assert record["sql"] == item.gold_sql and record["ex"] == 0
