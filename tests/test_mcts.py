"""Tree search mechanics: selection math, expansion dedup, accounting."""

import gc
import json
import math
import random
import weakref
import zlib
from types import SimpleNamespace

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
    Trajectory,
    audit_tree,
    backpropagate,
    expand_node,
    prepare_context,
    rollout_path,
    run_search,
    select_child,
    serialize_tree,
    uct_value,
)
from sqlscout.sql_exec import execute_sql

from conftest import BROKEN_SQL, GOLD_SQL, GOLD_SQL_ALT, scripted_pipeline_model

A = ActionKind


def oracle_uct(q: float, n: int, nv: int, c: float) -> float:
    return q / n + c * math.sqrt(math.log(nv) / n)


def test_search_config_rejects_bad_sample_counts_and_temperatures():
    # run_action and compute_reward draw samples 0..n-1 and check no bounds
    for bad in ({"n_expansion": 0}, {"n_reward": 0},
                {"t_expansion": -0.1}, {"t_reward": -0.1}):
        with pytest.raises(ContractViolation):
            SearchConfig(**bad)


@pytest.mark.parametrize("name", ["uct_c", "t_expansion", "t_reward"])
def test_search_config_rejects_non_finite_settings(name):
    # a NaN exploration constant leaves UCT no maximum to select, and a NaN
    # temperature cannot be sent in a JSON request
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractViolation, match=name):
            SearchConfig(**{name: bad})


def test_search_config_rejects_out_of_range_sql_bounds():
    # a negative row cap would turn the cap off; a zero timeout fails every query
    for bad in ({"row_cap": -1}, {"sql_timeout_secs": 0},
                {"sql_timeout_secs": -1.0}, {"sql_timeout_secs": math.nan}):
        with pytest.raises(ContractViolation):
            SearchConfig(**bad)
    assert SearchConfig(row_cap=0).row_cap == 0  # legal: truncates every result


def test_search_config_rejects_out_of_range_prompt_bounds():
    # a request for zero tokens can hold no answer, and a negative per-column
    # budget silently drops every retrieved value
    for bad in ({"max_tokens": 0}, {"max_tokens": -1},
                {"top_m_per_column": -1}):
        with pytest.raises(ContractViolation, match=next(iter(bad))):
            SearchConfig(**bad)
    assert SearchConfig(top_m_per_column=0).top_m_per_column == 0  # legal


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
    state.history += (action,)
    if action is A.SQL_GENERATE:
        state.sql = "SELECT 1"
    node = SearchNode(state=state)
    parent.children[(action, fp)] = node
    return node


def test_select_path_prefers_unvisited_child():
    root = SearchNode.root()
    root.expanded = True
    root.visit_count = 10
    seen = child_of(root, A.REPHRASE, "a")
    seen.value_sum, seen.visit_count = 9.0, 9
    fresh = child_of(root, A.SCHEMA_SELECT, "b")
    assert select_child(root, SearchConfig(), random.Random(0)) is fresh


def test_select_path_takes_uct_argmax():
    # two visited edges: (Q=3, N=3) vs (Q=0, N=1) at a node with N(v)=4
    root = SearchNode.root()
    root.expanded = True
    root.visit_count = 4
    a1 = child_of(root, A.REPHRASE, "x")
    a1.value_sum, a1.visit_count = 3.0, 3
    a2 = child_of(root, A.SCHEMA_SELECT, "y")
    a2.value_sum, a2.visit_count = 0.0, 1
    c = math.sqrt(2)
    assert oracle_uct(3, 3, 4, c) > oracle_uct(0, 1, 4, c)
    assert select_child(root, SearchConfig(), random.Random(0)) is a1


def test_select_path_breaks_ties_with_seeded_rng():
    root = SearchNode.root()
    root.expanded = True
    root.visit_count = 2
    for fp, action in (("p", A.REPHRASE), ("q", A.SCHEMA_SELECT)):
        ch = child_of(root, action, fp)
        ch.value_sum, ch.visit_count = 0.5, 1
    picks = {select_child(root, SearchConfig(), random.Random(s)).producing_action
             for s in range(20)}
    assert picks == {A.REPHRASE, A.SCHEMA_SELECT}  # both reachable across seeds
    one = select_child(root, SearchConfig(), random.Random(3))
    again = select_child(root, SearchConfig(), random.Random(3))
    assert one is again  # same seed, same choice


def test_select_path_returns_terminal_and_dead_nodes(
        restaurant_catalog, restaurant_executor):
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor, model=DownModel())
    root = SearchNode.root()
    root.expanded = True
    term = child_of(root, A.TERMINATE, "")
    term.visit_count = 1
    root.visit_count = 1
    assert rollout_path(root, ctx, random.Random(0)) == [root, term]

    # an unexpanded root is expanded; no action survives, so it is dead
    lone = SearchNode.root()
    assert rollout_path(lone, ctx, random.Random(0)) == [lone]
    assert lone.dead

    # a dead node: expanded, but no action gave it a child
    root = SearchNode.root()
    root.expanded = True
    dead = child_of(root, A.REPHRASE, "d")
    dead.expanded = True
    dead.visit_count = root.visit_count = 1
    assert dead.dead and not root.dead
    assert rollout_path(root, ctx, random.Random(0)) == [root, dead]
    assert rollout_path(root, ctx, random.Random(1)) == [root, dead]
    flags = {n["id"]: n["dead"] for n in serialize_tree(root)["nodes"]}
    assert flags == {0: False, 1: True}


# ---- backpropagation accounting ----

def test_backpropagate_updates_path_only():
    root = SearchNode.root()
    mid = child_of(root, A.SQL_GENERATE, "m")
    term = child_of(mid, A.TERMINATE, "")
    other = child_of(root, A.REPHRASE, "o")

    backpropagate([root, mid, term], 0.75)
    assert root.visit_count == 1
    assert mid.visit_count == 1
    assert term.visit_count == 1
    assert other.visit_count == 0
    assert mid.value_sum == 0.75
    assert term.value_sum == 0.75
    assert other.value_sum == 0.0

    backpropagate([root, mid, term], 0.25)
    assert root.visit_count == 2
    assert (mid.value_sum, mid.visit_count) == (1.0, 2)
    assert (other.value_sum, other.visit_count) == (0.0, 0)


# ---- expansion ----

def pipeline_ctx(catalog, executor, model=None, **cfg_kw) -> RolloutContext:
    cfg = SearchConfig(sql_timeout_secs=5.0, **cfg_kw)
    return prepare_context(NLQuestion(
        question="How many Thai restaurants can be found in San Pablo Ave, Albany?",
        hint="", db_id="restaurants"), cfg, model or scripted_pipeline_model(),
        catalog, executor)


def test_expand_collapses_identical_samples(restaurant_catalog, restaurant_executor):
    # the scripted model answers every action with one fixed string, so the
    # three expansion samples parse to the same artifact: one child per action
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor, n_expansion=3)
    root = SearchNode.root()
    expand_node(root, ctx)
    actions = sorted(a.value for a, _ in root.children)
    assert actions == ["A1", "A2", "A3", "A4", "A5"]
    assert all(c.producing_action is a for (a, _), c in root.children.items())
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
    expand_node(root, ctx)
    assert root.children == {}
    assert root.dead


def test_run_search_survives_total_transport_failure(
        restaurant_catalog, restaurant_executor):
    q = NLQuestion(question="How many?", db_id="restaurants")
    out = run_search(prepare_context(
        q, SearchConfig(n_rollout=3, sql_timeout_secs=5.0), DownModel(),
        restaurant_catalog, restaurant_executor))
    assert out == []


# ---- the rollout walk and full search ----

def test_simulate_reaches_terminal(restaurant_catalog, restaurant_executor):
    ctx = pipeline_ctx(restaurant_catalog, restaurant_executor)
    root = SearchNode.root()
    path = rollout_path(root, ctx, random.Random(1))
    assert path[0] is root
    terminal = path[-1]
    assert terminal.is_terminal
    # each node on the path is a child of the one before it
    assert all(child in node.children.values()
               for node, child in zip(path, path[1:]))
    assert terminal.state.sql
    history = terminal.state.history
    assert history[-1] is A.TERMINATE
    assert history.count(A.SQL_GENERATE) == 1


def search_fixture(catalog, executor, n_rollout=8, seed=0) -> RolloutContext:
    return pipeline_ctx(catalog, executor, n_rollout=n_rollout, rng_seed=seed)


def test_run_search_trajectory_shape(restaurant_catalog, restaurant_executor):
    ctx = search_fixture(restaurant_catalog, restaurant_executor)
    out = run_search(ctx)
    assert out
    for traj in out:
        assert traj.nodes[0] is out[0].nodes[0]  # starts at the one root
        assert traj.nodes[0].producing_action is None
        assert traj.nodes[-1].is_terminal
        assert traj.final_sql == GOLD_SQL
        assert 0.0 <= traj.reward <= 1.0
    # distinct terminals only
    terminal_ids = [id(t.nodes[-1]) for t in out]
    assert len(terminal_ids) == len(set(terminal_ids))


def test_run_search_visit_accounting(restaurant_catalog, restaurant_executor):
    ctx = search_fixture(restaurant_catalog, restaurant_executor, n_rollout=12)
    out = run_search(ctx)
    assert out
    root = out[0].nodes[0]
    assert root.visit_count == ctx.cfg.n_rollout
    children = root.children.values()
    assert sum(child.visit_count for child in children) == ctx.cfg.n_rollout
    # every rollout's reward is folded into the root and one child alike
    assert sum(child.value_sum for child in children) == pytest.approx(
        root.value_sum)


def test_run_search_rewards_once_per_terminal(restaurant_catalog,
                                              restaurant_executor, monkeypatch):
    calls = []

    def counting_reward(ctx, path):
        calls.append(path[-1])
        return 1.0

    monkeypatch.setattr(mcts, "compute_reward", counting_reward)
    ctx = search_fixture(restaurant_catalog, restaurant_executor, n_rollout=16)
    out = run_search(ctx)
    assert len(calls) == len(out)  # cached reward on revisits
    assert len({id(t) for t in calls}) == len(calls)


def test_run_search_deterministic_per_seed(restaurant_catalog,
                                           restaurant_executor):
    ctx = search_fixture(restaurant_catalog, restaurant_executor)
    first = [(t.final_sql, t.reward, [n.producing_action for n in t.nodes[1:]])
             for t in run_search(ctx)]
    ctx2 = search_fixture(restaurant_catalog, restaurant_executor)
    second = [(t.final_sql, t.reward, [n.producing_action for n in t.nodes[1:]])
              for t in run_search(ctx2)]
    assert first == second


# the two-phase descent that `rollout_path` replaced, verbatim, as the
# reference the one walk must reproduce draw for draw

def select_path(root: SearchNode, cfg: SearchConfig,
                rng: random.Random) -> list[SearchNode]:
    """The path that argmax-UCT walks from the root to a frontier node.

    Unvisited children take priority over UCT: the walk stops at the first
    node with one and ends with one of them, chosen uniformly at random. A
    terminal, dead or unexpanded node ends the path itself.
    """
    node = root
    path = [root]
    while True:
        if node.is_terminal or node.dead or not node.expanded:
            return path
        children = list(node.children.values())
        unvisited = [c for c in children if c.visit_count == 0]
        if unvisited:
            path.append(rng.choice(unvisited))
            return path
        best_score = -math.inf
        best: list[SearchNode] = []
        for child in children:
            score = uct_value(child.value_sum, child.visit_count,
                              node.visit_count, cfg.uct_c)
            if score > best_score:
                best_score, best = score, [child]
            elif score == best_score:
                best.append(child)
        node = rng.choice(best)
        path.append(node)


def simulate(path: list[SearchNode], ctx: RolloutContext,
             rng: random.Random) -> None:
    """Extend the path with random unexplored children until it ends at a
    terminal (or dead) node, expanding each unexpanded node on the way."""
    node = path[-1]
    while not (node.is_terminal or node.dead):
        if not node.expanded:
            expand_node(node, ctx)
            if node.dead:
                return
        unvisited = [c for c in node.children.values() if c.visit_count == 0]
        node = rng.choice(unvisited or list(node.children.values()))
        path.append(node)


def reference_search(ctx: RolloutContext) -> tuple[dict, list, tuple]:
    """`run_search`'s loop over `select_path` and `simulate`: its serialized
    tree, its trajectories and its final rng state."""
    cfg = ctx.cfg
    rng = random.Random(cfg.rng_seed)
    root = SearchNode.root()
    trajectories: list[Trajectory] = []
    for _ in range(cfg.n_rollout):
        path = select_path(root, cfg, rng)
        simulate(path, ctx, rng)
        terminal = path[-1]
        if terminal.dead:
            backpropagate(path, 0.0)
            continue
        if terminal.reward is None:
            terminal.reward = mcts.compute_reward(ctx, path)
            trajectories.append(Trajectory(nodes=tuple(path)))
        backpropagate(path, terminal.reward)
    audit_tree(root)
    return serialize_tree(root), trajectory_keys(trajectories), rng.getstate()


def trajectory_keys(trajectories: list[Trajectory]) -> list[tuple]:
    return [(t.final_sql, t.reward, len(t.nodes)) for t in trajectories]


class LossyModel:
    """The scripted model, with about one call in six lost, chosen by (salt,
    prompt, sample index), so that some actions fail and some nodes die."""

    def __init__(self, inner, salt: int):
        self.inner = inner
        self.salt = salt

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        if zlib.crc32(f"{self.salt}:{sample_index}:{prompt}".encode()) % 6 == 0:
            raise TransportError("connection reset")
        return self.inner.sample(prompt, temperature, max_tokens, sample_index,
                                 tag=tag)


@pytest.mark.parametrize("lossy", [False, True])
def test_run_search_matches_the_two_phase_reference(
        restaurant_catalog, restaurant_executor, monkeypatch, lossy):
    made: list[random.Random] = []
    roots: list[SearchNode] = []

    class RecordedRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    def recorded_audit(root):
        audit_tree(root)
        roots.append(root)

    monkeypatch.setattr(mcts, "random", SimpleNamespace(Random=RecordedRandom))
    monkeypatch.setattr(mcts, "audit_tree", recorded_audit)

    def context(seed):
        model = scripted_pipeline_model(a5_sql=[
            GOLD_SQL, BROKEN_SQL, "SELECT COUNT(*) FROM generalinfo", GOLD_SQL_ALT,
            BROKEN_SQL])
        return pipeline_ctx(restaurant_catalog, restaurant_executor,
                            model=LossyModel(model, seed) if lossy else model,
                            rng_seed=seed)

    dead = 0
    for seed in range(20):
        tree, trajectories, rng_state = reference_search(context(seed))
        made.clear()
        roots.clear()
        got = run_search(context(seed))
        assert serialize_tree(roots[0]) == tree
        assert trajectory_keys(got) == trajectories
        assert [r.getstate() for r in made] == [rng_state]
        dead += sum(n["dead"] for n in tree["nodes"])
    assert (dead > 0) is lossy


def test_finished_tree_is_freed_without_the_cycle_collector(
        restaurant_catalog, restaurant_executor):
    # no node points back up the tree, so reference counting alone frees a
    # finished tree (and the prompts its nodes keep) once its trajectories go
    ctx = search_fixture(restaurant_catalog, restaurant_executor)
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = run_search(ctx)
        root = weakref.ref(out[0].nodes[0])
        assert root() is not None
        del out
        assert root() is None
    finally:
        if enabled:
            gc.enable()


def test_prepare_context_runs_retrieval_once(restaurant_catalog, restaurant_index,
                                             restaurant_executor):
    model = scripted_pipeline_model()
    q = NLQuestion(question="How many Thai restaurants can be found in "
                            "San Pablo Ave, Albany?", db_id="restaurants")
    ctx = prepare_context(q, SearchConfig(sql_timeout_secs=5.0), model,
                          restaurant_catalog, restaurant_executor,
                          value_index=restaurant_index)
    assert ctx.keywords == ["Thai restaurants", "San Pablo Ave", "Albany"]
    # without an embedder retrieval degrades to the edit gate alone
    assert ctx.retrieved_map[("location", "street_name")] == ["san pablo ave"]
    assert ctx.retrieved_map[("generalinfo", "city")] == ["albany"]
    keyword_calls = [c for c in model.calls if c[3] == "keywords"]
    assert len(keyword_calls) == 1


def test_prepare_context_without_index_skips_model(restaurant_catalog,
                                                   restaurant_executor):
    model = scripted_pipeline_model()
    q = NLQuestion(question="How many?", db_id="restaurants")
    ctx = prepare_context(q, SearchConfig(sql_timeout_secs=5.0), model,
                          restaurant_catalog, restaurant_executor)
    assert ctx.keywords == [] and ctx.retrieved_map == {}
    assert model.calls == []


def test_context_execute_memoizes(restaurant_catalog, restaurant_db):
    hits = []

    def executor(sql):
        hits.append(sql)
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


def test_audit_flags_node_reached_by_two_edges():
    root = SearchNode.root()
    gen = child_of(root, A.SQL_GENERATE, "g")
    child_of(gen, A.TERMINATE, "")
    audit_tree(root)
    # a second A5 edge to the very same node: every check but reachability holds
    root.children[(A.SQL_GENERATE, "h")] = gen
    with pytest.raises(ContractViolation, match="more than one edge"):
        audit_tree(root)


def test_audit_flags_q_outside_bounds():
    root = SearchNode.root()
    ch = child_of(root, A.REPHRASE, "fp")
    ch.value_sum, ch.visit_count = 1.0, 1
    audit_tree(root)  # Q = N is in bounds
    for q in (2.0, -0.5):
        ch.value_sum = q
        with pytest.raises(ContractViolation):
            audit_tree(root)


def test_serialize_tree_json_ready(restaurant_catalog, restaurant_executor):
    ctx = search_fixture(restaurant_catalog, restaurant_executor)
    out = run_search(ctx)
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
    assert nodes[0]["visits"] == ctx.cfg.n_rollout


def test_trajectory_validates_shape():
    root = SearchNode.root()
    gen = child_of(root, A.SQL_GENERATE, "g")
    term = child_of(gen, A.TERMINATE, "")
    term.reward = 0.5
    traj = Trajectory(nodes=(root, gen, term))
    assert (traj.final_sql, traj.reward) == ("SELECT 1", 0.5)
    with pytest.raises(ContractViolation):
        Trajectory(nodes=(root, gen))
    with pytest.raises(ContractViolation):  # SQL never generated
        Trajectory(nodes=(root, child_of(root, A.TERMINATE, "")))
    term.state.sql = ""
    with pytest.raises(ContractViolation):
        Trajectory(nodes=(root, gen, term))
