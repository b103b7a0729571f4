"""Tree search mechanics: selection math, expansion dedup, accounting."""

import json
import math
import random

import pytest

import sqlscout.mcts as mcts
from sqlscout.core.types import (
    ActionKind,
    NLQuestion,
    NodeState,
    SearchConfig,
    SearchNode,
)
from sqlscout.errors import ContractViolation, TransportError
from sqlscout.mcts import (
    RolloutContext,
    SearchDeps,
    Trajectory,
    audit_tree,
    backpropagate,
    expand_node,
    prepare_context,
    run_search,
    select_path,
    serialize_tree,
    simulate,
    uct_value,
)

from conftest import GOLD_SQL, scripted_pipeline_model

A = ActionKind


def oracle_uct(q: float, n: int, nv: int, c: float) -> float:
    return q / n + c * math.sqrt(math.log(nv) / n)


def make_deps(model, catalog, executor, **kw) -> SearchDeps:
    return SearchDeps(model=model, catalog=catalog, executor=executor, **kw)


def test_search_config_rejects_bad_sample_counts_and_temperatures():
    # run_action and compute_reward draw samples 0..n-1 and check no bounds
    for bad in ({"n_expansion": 0}, {"n_reward": 0},
                {"t_expansion": -0.1}, {"t_reward": -0.1}):
        with pytest.raises(ContractViolation):
            SearchConfig(**bad)


# ---- the selection formula ----

def test_uct_value_known_point():
    # independently computed: 2/4 + 1.41421356 * sqrt(ln(10)/4)
    got = uct_value(2.0, 4, 10, 1.41421356)
    assert got == pytest.approx(1.5729832, abs=1e-6)


def test_uct_value_against_oracle_randomized():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randrange(1, 50)
        nv = rng.randrange(n, 200)
        q = rng.uniform(0, n)
        c = rng.choice([0.0, 1.0, math.sqrt(2), 2.5])
        assert uct_value(q, n, nv, c) == pytest.approx(
            oracle_uct(q, n, nv, c), abs=1e-9)


def test_uct_value_rejects_unvisited_edge():
    with pytest.raises(ContractViolation):
        uct_value(0.0, 0, 5, math.sqrt(2))


def child_of(parent: SearchNode, action: ActionKind, fp: str) -> SearchNode:
    state = parent.state.copy()
    state.reasoning_log.append((action, ""))
    if action is A.SQL_GENERATE:
        state.sql = "SELECT 1"
    node = SearchNode(state=state, producing_action=action, fingerprint=fp,
                      parent=parent)
    parent.children[(action, fp)] = node
    return node


def test_select_path_prefers_unvisited_child():
    root = SearchNode.root()
    root.expanded = True
    root.visit_count = 10
    seen = child_of(root, A.REPHRASE, "a")
    seen.visit_count = 9
    root.stats_for(seen.edge_key).q = 9.0
    root.stats_for(seen.edge_key).n = 9
    fresh = child_of(root, A.SCHEMA_SELECT, "b")
    picked = select_path(root, SearchConfig(), random.Random(0))
    assert picked is fresh


def test_select_path_takes_uct_argmax():
    # two visited edges: (Q=3, N=3) vs (Q=0, N=1) at a node with N(v)=4
    root = SearchNode.root()
    root.expanded = True
    root.visit_count = 4
    a1 = child_of(root, A.REPHRASE, "x")
    a1.visit_count = 3
    root.stats_for(a1.edge_key).q = 3.0
    root.stats_for(a1.edge_key).n = 3
    a2 = child_of(root, A.SCHEMA_SELECT, "y")
    a2.visit_count = 1
    root.stats_for(a2.edge_key).q = 0.0
    root.stats_for(a2.edge_key).n = 1
    c = math.sqrt(2)
    assert oracle_uct(3, 3, 4, c) > oracle_uct(0, 1, 4, c)
    picked = select_path(root, SearchConfig(), random.Random(0))
    assert picked is a1  # the higher-UCT edge, and a1 is unexpanded so it stops there


def test_select_path_breaks_ties_with_seeded_rng():
    root = SearchNode.root()
    root.expanded = True
    root.visit_count = 2
    for fp, action in (("p", A.REPHRASE), ("q", A.SCHEMA_SELECT)):
        ch = child_of(root, action, fp)
        ch.visit_count = 1
        root.stats_for(ch.edge_key).q = 0.5
        root.stats_for(ch.edge_key).n = 1
    picks = {select_path(root, SearchConfig(), random.Random(s)).fingerprint
             for s in range(20)}
    assert picks == {"p", "q"}  # both reachable across seeds
    one = select_path(root, SearchConfig(), random.Random(3))
    again = select_path(root, SearchConfig(), random.Random(3))
    assert one is again  # same seed, same choice


def test_select_path_returns_terminal_and_dead_nodes():
    root = SearchNode.root()
    root.expanded = True
    term = child_of(root, A.TERMINATE, "")
    term.visit_count = 1
    root.stats_for(term.edge_key).n = 1
    root.visit_count = 1
    assert select_path(root, SearchConfig(), random.Random(0)) is term

    lone = SearchNode.root()
    assert select_path(lone, SearchConfig(), random.Random(0)) is lone


# ---- backpropagation accounting ----

def test_backpropagate_updates_path_only():
    root = SearchNode.root()
    mid = child_of(root, A.SQL_GENERATE, "m")
    term = child_of(mid, A.TERMINATE, "")
    other = child_of(root, A.REPHRASE, "o")

    backpropagate(term, 0.75)
    assert root.visit_count == 1
    assert mid.visit_count == 1
    assert term.visit_count == 1
    assert other.visit_count == 0
    assert root.action_stats[mid.edge_key].q == 0.75
    assert root.action_stats[mid.edge_key].n == 1
    assert mid.action_stats[term.edge_key].q == 0.75
    assert other.edge_key not in root.action_stats

    backpropagate(term, 0.25)
    assert root.visit_count == 2
    assert root.action_stats[mid.edge_key].q == 1.0
    assert root.action_stats[mid.edge_key].n == 2


# ---- expansion ----

def pipeline_ctx(catalog, executor, model=None, **cfg_kw) -> RolloutContext:
    cfg = SearchConfig(sql_timeout_secs=5.0, **cfg_kw)
    deps = make_deps(model or scripted_pipeline_model(), catalog, executor)
    return prepare_context(NLQuestion(
        question="How many Thai restaurants can be found in San Pablo Ave, Albany?",
        hint="", db_id="restaurants"), deps, cfg)


def test_expand_collapses_identical_samples(restaurant_catalog, restaurant_executor):
    # the scripted model answers every action with one fixed string, so the
    # three expansion samples parse to the same artifact: one child per action
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor, n_expansion=3)
    root = SearchNode.root()
    created = expand_node(root, ctx)
    actions = sorted(a.value for a, _ in root.children)
    assert actions == ["A1", "A2", "A3", "A4", "A5"]
    assert len(created) == 5
    assert root.expanded and not root.dead


def test_expand_distinct_samples_make_distinct_children(
        restaurant_catalog, restaurant_executor):
    model = scripted_pipeline_model(
        a5_sql=[GOLD_SQL, "SELECT COUNT(*) FROM generalinfo", GOLD_SQL])
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor, model=model,
                       n_expansion=3)
    root = SearchNode.root()
    expand_node(root, ctx)
    a5_children = [c for (a, _), c in root.children.items() if a is A.SQL_GENERATE]
    assert len(a5_children) == 2  # two distinct SQL texts among three samples


def test_expand_terminal_node_rejected(restaurant_catalog, restaurant_executor):
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor)
    root = SearchNode.root()
    term = child_of(child_of(root, A.SQL_GENERATE, "s"), A.TERMINATE, "")
    with pytest.raises(ContractViolation):
        expand_node(term, ctx)


class DownModel:
    """Chat model whose endpoint is unreachable."""

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        raise TransportError("connection refused")


def test_expand_marks_dead_when_no_action_survives(
        restaurant_catalog, restaurant_executor):
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor, model=DownModel())
    root = SearchNode.root()
    created = expand_node(root, ctx)
    assert created == []
    assert root.dead


def test_run_search_survives_total_transport_failure(
        restaurant_catalog, restaurant_executor):
    deps = make_deps(DownModel(), restaurant_catalog, restaurant_executor)
    q = NLQuestion(question="How many?", db_id="restaurants")
    out = run_search(q, deps, SearchConfig(n_rollout=3, sql_timeout_secs=5.0))
    assert out == []


# ---- simulation and full search ----

def test_simulate_reaches_terminal(restaurant_catalog, restaurant_executor):
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor)
    root = SearchNode.root()
    terminal = simulate(root, ctx, random.Random(1))
    assert terminal.is_terminal
    assert terminal.state.sql
    history = terminal.state.history()
    assert history[-1] is A.TERMINATE
    assert history.count(A.SQL_GENERATE) == 1


def search_fixture(catalog, executor, n_rollout=8, seed=0):
    deps = make_deps(scripted_pipeline_model(), catalog, executor)
    q = NLQuestion(
        question="How many Thai restaurants can be found in San Pablo Ave, Albany?",
        hint="", db_id="restaurants")
    cfg = SearchConfig(n_rollout=n_rollout, sql_timeout_secs=5.0, rng_seed=seed)
    return q, deps, cfg


def test_run_search_trajectory_shape(restaurant_catalog, restaurant_executor):
    q, deps, cfg = search_fixture(restaurant_catalog, restaurant_executor)
    out = run_search(q, deps, cfg)
    assert out
    for traj in out:
        assert traj.nodes[0].parent is None  # starts at the root
        assert traj.nodes[-1].is_terminal
        assert traj.final_sql == GOLD_SQL
        assert 0.0 <= traj.reward <= 1.0
    # distinct terminals only
    terminal_ids = [id(t.nodes[-1]) for t in out]
    assert len(terminal_ids) == len(set(terminal_ids))
    assert [t.rollout_index for t in out] == sorted(t.rollout_index for t in out)


def test_run_search_visit_accounting(restaurant_catalog, restaurant_executor):
    q, deps, cfg = search_fixture(restaurant_catalog, restaurant_executor,
                                  n_rollout=12)
    out = run_search(q, deps, cfg)
    assert out
    root = out[0].nodes[0]
    assert root.visit_count == cfg.n_rollout
    assert sum(s.n for s in root.action_stats.values()) == cfg.n_rollout
    for child in root.children.values():
        assert child.visit_count == root.action_stats[child.edge_key].n


def test_run_search_rewards_once_per_terminal(restaurant_catalog,
                                              restaurant_executor, monkeypatch):
    calls = []

    def counting_reward(ctx, terminal):
        calls.append(terminal)
        return 1.0

    monkeypatch.setattr(mcts, "compute_reward", counting_reward)
    q, deps, cfg = search_fixture(restaurant_catalog, restaurant_executor,
                                  n_rollout=16)
    out = run_search(q, deps, cfg)
    assert len(calls) == len(out)  # cached reward on revisits
    assert len({id(t) for t in calls}) == len(calls)


def test_run_search_deterministic_per_seed(restaurant_catalog,
                                           restaurant_executor):
    q, deps, cfg = search_fixture(restaurant_catalog, restaurant_executor)
    first = [(t.final_sql, t.reward, t.rollout_index,
              [n.producing_action for n in t.nodes[1:]])
             for t in run_search(q, deps, cfg)]
    q2, deps2, cfg2 = search_fixture(restaurant_catalog, restaurant_executor)
    second = [(t.final_sql, t.reward, t.rollout_index,
               [n.producing_action for n in t.nodes[1:]])
              for t in run_search(q2, deps2, cfg2)]
    assert first == second


def test_prepare_context_runs_retrieval_once(restaurant_catalog, restaurant_index,
                                             restaurant_executor):
    model = scripted_pipeline_model()
    deps = make_deps(model, restaurant_catalog, restaurant_executor,
                     value_index=restaurant_index)
    q = NLQuestion(question="How many Thai restaurants can be found in "
                            "San Pablo Ave, Albany?", db_id="restaurants")
    ctx = prepare_context(q, deps, SearchConfig(sql_timeout_secs=5.0))
    assert ctx.keywords == ["Thai restaurants", "San Pablo Ave", "Albany"]
    # without an embedder retrieval degrades to the edit gate alone
    assert ctx.retrieved_map[("location", "street_name")] == ["san pablo ave"]
    assert ctx.retrieved_map[("generalinfo", "city")] == ["albany"]
    keyword_calls = [c for c in model.calls if c[3] == "keywords"]
    assert len(keyword_calls) == 1


def test_prepare_context_without_index_skips_model(restaurant_catalog,
                                                   restaurant_executor):
    model = scripted_pipeline_model()
    deps = make_deps(model, restaurant_catalog, restaurant_executor)
    q = NLQuestion(question="How many?", db_id="restaurants")
    ctx = prepare_context(q, deps, SearchConfig(sql_timeout_secs=5.0))
    assert ctx.keywords == [] and ctx.retrieved_map == {}
    assert model.calls == []


def test_context_execute_memoizes(restaurant_catalog, restaurant_db):
    hits = []

    def executor(sql):
        hits.append(sql)
        from sqlscout.sql_exec import execute_sql
        return execute_sql(sql, restaurant_db, timeout_secs=5.0)

    ctx = pipeline_ctx(restaurant_catalog, executor)
    ctx.execute("SELECT 1")
    ctx.execute("SELECT 1")
    ctx.execute("SELECT 2")
    assert hits == ["SELECT 1", "SELECT 2"]


# ---- invariants, traces, trajectory validation ----

def test_audit_flags_misfiled_child():
    root = SearchNode.root()
    bad = child_of(root, A.REPHRASE, "fp")
    del root.children[(A.REPHRASE, "fp")]
    root.children[(A.SCHEMA_SELECT, "fp")] = bad
    with pytest.raises(ContractViolation):
        audit_tree(root)


def test_audit_flags_q_outside_bounds():
    root = SearchNode.root()
    ch = child_of(root, A.REPHRASE, "fp")
    stats = root.stats_for(ch.edge_key)
    stats.q, stats.n = 2.0, 1
    with pytest.raises(ContractViolation):
        audit_tree(root)


def test_serialize_tree_json_ready(restaurant_catalog, restaurant_executor):
    q, deps, cfg = search_fixture(restaurant_catalog, restaurant_executor)
    out = run_search(q, deps, cfg)
    dump = serialize_tree(out[0].nodes[0])
    text = json.dumps(dump)  # must be serializable as-is
    assert text
    nodes = dump["nodes"]
    assert nodes[0]["parent"] is None and nodes[0]["action"] is None
    for node in nodes[1:]:
        assert node["parent"] is not None
        assert node["parent"] < node["id"]  # parents precede children
        assert node["action"] in ("A1", "A2", "A3", "A4", "A5", "A6", "A7")
    terminals = [n for n in nodes if n["terminal"]]
    assert terminals
    assert all(n["sql"] for n in terminals)
    assert nodes[0]["visits"] == cfg.n_rollout


def test_trajectory_validates_shape():
    root = SearchNode.root()
    gen = child_of(root, A.SQL_GENERATE, "g")
    term = child_of(gen, A.TERMINATE, "")
    Trajectory(nodes=(root, gen, term), final_sql="SELECT 1", reward=0.5,
               rollout_index=0)
    with pytest.raises(ContractViolation):
        Trajectory(nodes=(root, gen), final_sql="SELECT 1", reward=0.5,
                   rollout_index=0)
    with pytest.raises(ContractViolation):
        Trajectory(nodes=(root, gen, term), final_sql="", reward=0.5,
                   rollout_index=0)
