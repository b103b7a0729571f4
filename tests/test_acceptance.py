"""Acceptance checks: one test per shipping criterion, each printing a
PASS/FAIL line so the run log reads as a checklist."""

import hashlib
import json
import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sqlscout.core.actions import enumerate_trajectories
from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import ActionKind, NLQuestion, SearchConfig, SearchNode
from sqlscout.llm_client import ScriptedModel
from sqlscout.mcts import (
    SearchDeps,
    audit_tree,
    expand_node,
    prepare_context,
    run_search,
    select_path,
    uct_value,
)
from sqlscout.reward_select import compute_reward, select_final
from sqlscout.sql_exec import execute_sql, results_equal, rows_result
from sqlscout.value_index.minhash import (
    MinHashParams,
    estimate_jaccard,
    permutation_salts,
    signature,
)
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark

from conftest import (
    A1_MARK,
    A2_MARK,
    A3_MARK,
    A4_MARK,
    A5_MARK,
    A6_MARK,
    BROKEN_SQL,
    GOLD_SQL,
    HINT,
    QUESTION,
    make_bird_dataset,
    make_restaurant_db,
    scripted_pipeline_model,
    sql_json,
)

A = ActionKind


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[C{number:02d}] FAIL  {label}")
        raise
    print(f"[C{number:02d}] PASS  {label}")


@pytest.fixture(scope="module")
def accept_db(tmp_path_factory):
    return make_restaurant_db(
        tmp_path_factory.mktemp("accept") / "restaurants.sqlite")


@pytest.fixture(scope="module")
def accept_catalog(accept_db):
    return load_catalog(accept_db, db_id="restaurants")


# ---- 1. the action space ----

def test_criterion_01_trajectory_space():
    with criterion(1, "64 legal trajectories enumerated in under a second"):
        started = time.monotonic()
        trajectories = enumerate_trajectories()
        elapsed = time.monotonic() - started
        assert len(trajectories) == 64
        assert len({tuple(t) for t in trajectories}) == 64
        for t in trajectories:
            assert t[-1] is A.TERMINATE
            assert t.count(A.SQL_GENERATE) == 1
            assert len(t) == len(set(t))  # each action at most once
        assert min(trajectories, key=len) == [A.SQL_GENERATE, A.TERMINATE]
        assert elapsed < 1.0


# ---- 2. selection math ----

def test_criterion_02_uct_and_unvisited_priority():
    with criterion(2, "UCT matches the closed form at 1e-9; unvisited first"):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randrange(1, 100)
            nv = rng.randrange(n, 500)
            q = rng.uniform(0.0, n)
            c = rng.uniform(0.0, 3.0)
            expected = q / n + c * math.sqrt(math.log(nv) / n)
            assert abs(uct_value(q, n, nv, c) - expected) <= 1e-9

        for seed in range(10):
            root = SearchNode.root()
            root.expanded = True
            root.visit_count = 20
            for fp, action in (("hot1", A.REPHRASE), ("hot2", A.SCHEMA_SELECT)):
                child = SearchNode(state=root.state.copy(),
                                   producing_action=action, fingerprint=fp,
                                   parent=root)
                child.state.reasoning_log.append((action, ""))
                child.visit_count = 10
                root.children[(action, fp)] = child
                stats = root.stats_for((action, fp))
                stats.q, stats.n = 10.0, 10
            fresh = SearchNode(state=root.state.copy(),
                               producing_action=A.VALUE_IDENT, fingerprint="new",
                               parent=root)
            fresh.state.reasoning_log.append((A.VALUE_IDENT, ""))
            root.children[(A.VALUE_IDENT, "new")] = fresh
            picked = select_path(root, SearchConfig(), random.Random(seed))
            assert picked is fresh  # absolute priority over any UCT score


# ---- 3. convergence on a scripted environment ----

MARKER = "quartzline"


def convergence_model() -> ScriptedModel:
    """Gold SQL is reachable only through the rephrase gate.

    The rephrased question carries a marker token; only prompts holding the
    marker are answered with the gold query, so every terminal outside the
    rephrase subtree fails to execute and scores zero.
    """
    def with_marker(mark):
        return lambda p: mark in p and MARKER in p.lower()

    model = ScriptedModel()
    model.add(A1_MARK,
              "Split the conditions.\nRephrased Question: How many "
              f"{MARKER} thai restaurants are on san pablo ave in albany?")
    model.add(A2_MARK,
              '```json\n{"generalinfo": ["id_restaurant", "food_type", '
              '"city"], "location": ["id_restaurant", "street_name"]}\n```')
    model.add(A3_MARK, "Filter values are stored lowercase.")
    model.add(A4_MARK, "COUNT is the only function needed.")
    model.add(with_marker(A6_MARK), sql_json(GOLD_SQL))
    model.add(A6_MARK, sql_json(BROKEN_SQL))
    model.add(with_marker(A5_MARK), sql_json(GOLD_SQL))
    model.add(A5_MARK, sql_json(BROKEN_SQL))
    return model


def test_criterion_03_search_converges_across_seeds(accept_db, accept_catalog):
    with criterion(3, "rewarded root action wins visits and the final SQL "
                      "in at least 95 of 100 seeds"):
        assert MARKER not in QUESTION.lower()
        question = NLQuestion(question=QUESTION, hint=HINT, db_id="restaurants")
        started = time.monotonic()
        successes = 0
        for seed in range(100):
            deps = SearchDeps(
                model=convergence_model(),
                catalog=accept_catalog,
                executor=lambda sql: execute_sql(sql, accept_db,
                                                 timeout_secs=5.0),
            )
            cfg = SearchConfig(n_rollout=24, n_revision=2,
                               sql_timeout_secs=5.0, rng_seed=seed)
            trajectories = run_search(question, deps, cfg)
            if not trajectories:
                continue
            root = trajectories[0].nodes[0]
            visits: dict[ActionKind, int] = {}
            for (action, _), child in root.children.items():
                visits[action] = visits.get(action, 0) + child.visit_count
            rephrase_visits = visits.pop(A.REPHRASE, 0)
            strictly_max = all(rephrase_visits > v for v in visits.values())
            chosen = select_final(trajectories, deps.executor).sql
            if strictly_max and chosen == GOLD_SQL:
                successes += 1
        elapsed = time.monotonic() - started
        assert successes >= 95, f"only {successes}/100 seeds converged"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---- 4. reward exactness ----

def terminal_with_sql(sql: str) -> SearchNode:
    root = SearchNode.root()
    state = root.state.copy()
    state.reasoning_log.append((A.SQL_GENERATE, ""))
    state.sql = sql
    gen = SearchNode(state=state, producing_action=A.SQL_GENERATE,
                     fingerprint="g", parent=root)
    root.children[gen.edge_key] = gen
    term_state = gen.state.copy()
    term_state.reasoning_log.append((A.TERMINATE, ""))
    term = SearchNode(state=term_state, producing_action=A.TERMINATE,
                      fingerprint="", parent=gen)
    gen.children[term.edge_key] = term
    return term


def test_criterion_04_reward_is_exact_match_fraction(accept_db, accept_catalog):
    with criterion(4, "reward equals m/5 exactly; failing final SQL scores 0"):
        question = NLQuestion(question=QUESTION, hint=HINT, db_id="restaurants")
        executor = lambda sql: execute_sql(sql, accept_db, timeout_secs=5.0)
        for m in range(6):
            responses = [sql_json(GOLD_SQL)] * m + [
                sql_json(f"SELECT {90 + i}") for i in range(5 - m)
            ]
            model = ScriptedModel()
            model.add(A5_MARK, responses)
            ctx = prepare_context(
                question,
                SearchDeps(model=model, catalog=accept_catalog,
                           executor=executor),
                SearchConfig(n_reward=5, sql_timeout_secs=5.0),
            )
            assert compute_reward(ctx, terminal_with_sql(GOLD_SQL)) == m / 5

        ctx = prepare_context(
            question,
            SearchDeps(model=ScriptedModel(), catalog=accept_catalog,
                       executor=executor),
            SearchConfig(n_reward=5, sql_timeout_secs=5.0),
        )
        assert compute_reward(ctx, terminal_with_sql(BROKEN_SQL)) == 0.0


# ---- 5. expansion deduplication ----

def test_criterion_05_identical_samples_collapse(accept_db, accept_catalog):
    with criterion(5, "three identical expansion samples yield one child"):
        model = scripted_pipeline_model()
        ctx = prepare_context(
            NLQuestion(question=QUESTION, hint=HINT, db_id="restaurants"),
            SearchDeps(model=model, catalog=accept_catalog,
                       executor=lambda sql: execute_sql(
                           sql, accept_db, timeout_secs=5.0)),
            SearchConfig(n_expansion=3, sql_timeout_secs=5.0),
        )
        root = SearchNode.root()
        expand_node(root, ctx)
        generate_prompts = [c for c in model.calls if A5_MARK in c[0]]
        assert len(generate_prompts) == 3  # three samples were drawn
        a5_children = [c for (a, _), c in root.children.items()
                       if a is A.SQL_GENERATE]
        assert len(a5_children) == 1  # but only one child survives
        per_action = {}
        for (action, _), _child in root.children.items():
            per_action[action] = per_action.get(action, 0) + 1
        assert all(count == 1 for count in per_action.values())
        audit_tree(root)


# ---- 6. value-signature fidelity ----

def exact_jaccard(a: str, b: str, k: int = 3) -> float:
    def sh(t: str) -> set:
        return {t} if len(t) < k else {t[i: i + k] for i in range(len(t) - k + 1)}

    sa, sb = sh(a), sh(b)
    return len(sa & sb) / len(sa | sb) if (sa or sb) else 1.0


VOCAB = [
    "san pablo ave", "san pablo avenue", "restaurant", "restaurants",
    "thai food", "thai street food", "golden gate bridge", "albany",
    "berkeley public library", "monte carlo tree search", "database value",
    "execution accuracy", "select count from table", "query revision",
]


def test_criterion_06_minhash_tracks_jaccard():
    with criterion(6, "signature estimates stay near exact Jaccard"):
        started = time.monotonic()
        rng = random.Random(2024)
        salts = permutation_salts(MinHashParams())
        within = 0
        for _ in range(100):
            a = rng.choice(VOCAB)
            b = list(rng.choice(VOCAB))
            for _ in range(rng.randrange(0, 6)):
                pos = rng.randrange(0, len(b))
                b[pos] = rng.choice("abcdefgh ")
            b = "".join(b)
            est = estimate_jaccard(signature(a, salts), signature(b, salts))
            if abs(est - exact_jaccard(a, b)) <= 0.15:
                within += 1
        assert within >= 95, f"only {within}/100 pairs within 0.15"

        a, b = "monte carlo tree search", "monte carlo search"
        exact = exact_jaccard(a, b)
        estimates = []
        for trial in range(1000):
            trial_salts = permutation_salts(MinHashParams(seed=trial))
            estimates.append(estimate_jaccard(
                signature(a, trial_salts), signature(b, trial_salts)))
        mean = sum(estimates) / len(estimates)
        assert abs(mean - exact) <= 0.02, f"mean {mean:.4f} vs exact {exact:.4f}"
        assert time.monotonic() - started < 10.0


# ---- 7. execution semantics ----

def test_criterion_07_execution_semantics(accept_db):
    with criterion(7, "result equality is an equivalence; reads only; "
                      "timeout honored"):
        rng = random.Random(41)
        cells = [None, 0, 1, True, "1", "a", " a ", 2.5, "2.5", "b"]
        results = []
        for _ in range(1000):
            rows = [
                tuple(rng.choice(cells) for _ in range(rng.randrange(1, 3)))
                for _ in range(rng.randrange(0, 3))
            ]
            results.append(rows_result(rows))
        for r in results:
            assert results_equal(r, r)
        reps, classes = [], []
        for r in results:
            for gi, rep in enumerate(reps):
                if results_equal(r, rep):
                    classes[gi].append(r)
                    break
            else:
                reps.append(r)
                classes.append([r])
        for _ in range(3000):
            x, y = rng.choice(results), rng.choice(results)
            assert results_equal(x, y) == results_equal(y, x)
        for members in classes:
            if len(members) < 3:
                continue
            for _ in range(50):
                x, y = rng.choice(members), rng.choice(members)
                assert results_equal(x, y)  # within-class: all equal
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not results_equal(a, b)  # across classes: never equal

        before = hashlib.sha256(accept_db.read_bytes()).hexdigest()
        for sql in ("DELETE FROM generalinfo", "DROP TABLE location",
                    "UPDATE generalinfo SET review = 0",
                    "INSERT INTO generalinfo VALUES (9, 'x', 'y', 'z', 1)"):
            assert execute_sql(sql, accept_db).kind == "error"
        assert hashlib.sha256(accept_db.read_bytes()).hexdigest() == before

        slow = ("WITH RECURSIVE spin(n) AS (SELECT 1 UNION ALL SELECT n + 1 "
                "FROM spin) SELECT COUNT(*) FROM spin")
        started = time.monotonic()
        outcome = execute_sql(slow, accept_db, timeout_secs=1.0)
        elapsed = time.monotonic() - started
        assert outcome.kind == "timeout"
        assert elapsed <= 2.0  # timeout plus one second of slack


# ---- 8. end to end on the toy database ----

def strip_volatile(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "elapsed_secs"}


def test_criterion_08_end_to_end_with_repair(tmp_path):
    with criterion(8, "scripted full pipeline with one repair reaches EX 1.0 "
                      "and reruns byte-identical"):
        started = time.monotonic()
        dataset, db_root = make_bird_dataset(tmp_path, n_questions=1)
        items = load_dataset(dataset)
        cfg = SearchConfig(n_rollout=24, sql_timeout_secs=5.0)

        def fresh_env() -> RunEnvironment:
            return RunEnvironment(
                model=scripted_pipeline_model(a5_sql=BROKEN_SQL,
                                              a6_sql=GOLD_SQL),
                db_root=db_root,
            )

        out_a = tmp_path / "run_a"
        summary = run_benchmark(items, fresh_env(), cfg, out_a, mode="mcts",
                                write_traces=True)
        assert summary["ex_overall"] == 1.0

        trace = json.loads(
            (out_a / "traces" / "0.json").read_text(encoding="utf-8"))
        nodes = {n["id"]: n for n in trace["nodes"]}
        repaired = [n for n in nodes.values()
                    if n["action"] == "A6" and n["sql"] == GOLD_SQL]
        assert repaired, "no revision node carrying the repaired SQL"
        assert all(nodes[n["parent"]]["sql"] == BROKEN_SQL for n in repaired)

        out_b = tmp_path / "run_b"
        summary_b = run_benchmark(items, fresh_env(), cfg, out_b, mode="mcts",
                                  write_traces=True)
        assert summary_b == summary
        assert (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()
        assert (out_a / "predictions.txt").read_bytes() == \
            (out_b / "predictions.txt").read_bytes()
        records_a = [strip_volatile(json.loads(line)) for line in
                     (out_a / "report.jsonl").read_text().splitlines()]
        records_b = [strip_volatile(json.loads(line)) for line in
                     (out_b / "report.jsonl").read_text().splitlines()]
        assert records_a == records_b
        assert (out_a / "traces" / "0.json").read_bytes() == \
            (out_b / "traces" / "0.json").read_bytes()
        assert time.monotonic() - started < 10.0


# ---- 9. optional live smoke test ----

LIVE_VARS = ("SQLSCOUT_LIVE_SMOKE", "SQLSCOUT_CHAT_MODEL",
             "SQLSCOUT_BIRD_DATASET", "SQLSCOUT_BIRD_DB_ROOT")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in LIVE_VARS),
    reason="live smoke disabled; set " + ", ".join(LIVE_VARS),
)
def test_criterion_09_live_endpoint_smoke(tmp_path):
    with criterion(9, "live endpoint answers at least one of ten items"):
        from sqlscout.llm_client import EndpointConfig, OpenAIChatClient

        endpoint = EndpointConfig.from_env()
        items = load_dataset(os.environ["SQLSCOUT_BIRD_DATASET"])[:10]
        env = RunEnvironment(
            model=OpenAIChatClient(endpoint),
            db_root=Path(os.environ["SQLSCOUT_BIRD_DB_ROOT"]),
            endpoint=endpoint,
        )
        cfg = SearchConfig(n_rollout=4)
        summary = run_benchmark(items, env, cfg, tmp_path / "live", mode="mcts")
        correct = round(summary["ex_overall"] * summary["completed"])
        assert correct >= 1, "no live item scored EX=1"


# ---- 10. shipped defaults ----

def test_criterion_10_default_parameters():
    with criterion(10, "benchmark defaults ship unchanged"):
        cfg = SearchConfig()
        assert cfg.n_rollout == 24
        assert cfg.n_expansion == 3
        assert cfg.t_expansion == 0.8
        assert cfg.n_reward == 5
        assert cfg.t_reward == 1.0
        assert cfg.n_revision == 10
        assert cfg.eps_edit == 0.3
        assert cfg.eps_semantic == 0.6
        assert cfg.uct_c == pytest.approx(math.sqrt(2), abs=1e-12)
