"""Consistency reward and execution-majority final selection."""

import logging
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import pytest

import sqlscout.mcts as mcts
import sqlscout.reward_select as reward_select
from sqlscout.action_model import build_action_prompt
from sqlscout.core.types import ActionKind, NLQuestion, SearchConfig, SearchNode
from sqlscout.errors import ContractViolation, TransportError
from sqlscout.llm_client import ScriptedModel
from sqlscout.mcts import RolloutContext, prepare_context, run_search
from sqlscout.reward_select import SelectionOutcome, compute_reward, select_final
from sqlscout.sql_exec import (
    ExecutionResult,
    error_result,
    execute_sql,
    rows_result,
    timeout_result,
)

from conftest import (
    A5_MARK,
    A6_MARK,
    BROKEN_SQL,
    GOLD_SQL,
    GOLD_SQL_ALT,
    HINT,
    QUESTION,
    scripted_pipeline_model,
    sql_json,
)

A = ActionKind


def node_after(path: list[SearchNode], action: ActionKind, *, sql=None,
               prompt=None) -> list[SearchNode]:
    """The path extended by a new child of its last node."""
    parent = path[-1]
    state = parent.state.copy()
    state.history += (action,)
    if sql is not None:
        state.sql = sql
    node = SearchNode(state=state, prompt=prompt)
    parent.children[(action, f"fp-{action.value}")] = node
    return [*path, node]


def generate_terminal(ctx, final_sql: str) -> list[SearchNode]:
    """Path to a terminal after a generation node that keeps the prompt it
    answered."""
    root = SearchNode.root()
    prompt = build_action_prompt(A.SQL_GENERATE, ctx.q, root.state, ctx.catalog)
    gen = node_after([root], A.SQL_GENERATE, sql=final_sql, prompt=prompt)
    return node_after(gen, A.TERMINATE)


def revise_terminal(ctx, bad_sql: str, fixed_sql: str,
                    feedback: tuple | None) -> list[SearchNode]:
    """Path to a terminal after a revision of `bad_sql`; with `feedback`, the
    revision keeps the prompt built from it, else it ran no round and keeps
    none."""
    gen = node_after([SearchNode.root()], A.SQL_GENERATE, sql=bad_sql)
    prompt = None if feedback is None else build_action_prompt(
        A.SQL_REVISE, ctx.q, gen[-1].state, ctx.catalog,
        execution_feedback=feedback)
    rev = node_after(gen, A.SQL_REVISE, sql=fixed_sql, prompt=prompt)
    return node_after(rev, A.TERMINATE)


def make_ctx(model, catalog, executor, **cfg_kw) -> RolloutContext:
    cfg = SearchConfig(n_reward=5, t_reward=1.0, sql_timeout_secs=5.0, **cfg_kw)
    q = NLQuestion(question=QUESTION, hint=HINT, db_id="restaurants")
    return prepare_context(q, cfg, model, catalog, executor)


# ---- compute_reward ----

def test_reward_counts_matches_over_obtained(restaurant_catalog,
                                             restaurant_executor):
    model = ScriptedModel()
    model.add(A5_MARK, [
        sql_json(GOLD_SQL),        # matches
        sql_json(GOLD_SQL_ALT),    # same rows: matches
        sql_json("SELECT 99"),     # different rows
        "no payload here",         # parse failure: stays in the denominator
        sql_json(BROKEN_SQL),      # executes to an error: no match
    ])
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    reward = compute_reward(ctx, generate_terminal(ctx, GOLD_SQL))
    assert reward == pytest.approx(2 / 5)
    reward_calls = [c for c in model.calls if c[3] == "reward"]
    assert len(reward_calls) == 5
    assert all(c[1] == 1.0 for c in reward_calls)  # sampled at t_reward


def test_reward_unanimous_is_exactly_one(restaurant_catalog,
                                         restaurant_executor):
    model = ScriptedModel()
    model.add(A5_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    assert compute_reward(ctx, generate_terminal(ctx, GOLD_SQL)) == 1.0


def test_reward_erroring_final_scores_zero_without_sampling(
        restaurant_catalog, restaurant_executor):
    model = ScriptedModel()  # no rules: any model call would raise
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    assert compute_reward(ctx, generate_terminal(ctx, BROKEN_SQL)) == 0.0
    assert model.calls == []


class FlakyModel:
    """Drops the given sample indexes with a transport error."""

    def __init__(self, response: str, drop: set[int]):
        self.response = response
        self.drop = drop
        self.calls = 0

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        self.calls += 1
        if sample_index in self.drop:
            raise TransportError("gateway timeout")
        return self.response


def test_reward_transport_losses_shrink_denominator(restaurant_catalog,
                                                    restaurant_executor):
    model = FlakyModel(sql_json(GOLD_SQL), drop={1, 3})
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    assert compute_reward(ctx, generate_terminal(ctx, GOLD_SQL)) == 1.0  # 3/3
    assert model.calls == 5


def test_reward_zero_obtained_scores_zero(restaurant_catalog,
                                          restaurant_executor, caplog):
    model = FlakyModel(sql_json(GOLD_SQL), drop={0, 1, 2, 3, 4})
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    with caplog.at_level(logging.WARNING):
        assert compute_reward(ctx, generate_terminal(ctx, GOLD_SQL)) == 0.0
    assert any("no reward samples" in r.message for r in caplog.records)


def test_reward_requires_final_sql(restaurant_catalog, restaurant_executor):
    gen = node_after([SearchNode.root()], A.SQL_GENERATE)  # no SQL recorded
    term = node_after(gen, A.TERMINATE)
    ctx = make_ctx(ScriptedModel(), restaurant_catalog, restaurant_executor)
    with pytest.raises(ContractViolation):
        compute_reward(ctx, term)


def test_reward_requires_termination_right_after_the_sql(restaurant_catalog,
                                                         restaurant_executor):
    gen = node_after([SearchNode.root()], A.SQL_GENERATE, sql=GOLD_SQL)
    term = node_after(node_after(gen, A.VALUE_IDENT), A.TERMINATE)
    ctx = make_ctx(ScriptedModel(), restaurant_catalog, restaurant_executor)
    with pytest.raises(ContractViolation):
        compute_reward(ctx, term)


def test_reward_reissues_generator_prompt_verbatim(restaurant_catalog,
                                                   restaurant_executor):
    model = ScriptedModel()
    model.add(A5_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    terminal = generate_terminal(ctx, GOLD_SQL)
    compute_reward(ctx, terminal)
    assert {c[0] for c in model.calls} == {terminal[-2].prompt}


def test_reward_generation_without_its_prompt_rejected(restaurant_catalog,
                                                       restaurant_executor):
    gen = node_after([SearchNode.root()], A.SQL_GENERATE, sql=GOLD_SQL)
    term = node_after(gen, A.TERMINATE)
    ctx = make_ctx(ScriptedModel(), restaurant_catalog, restaurant_executor)
    with pytest.raises(ContractViolation):
        compute_reward(ctx, term)


def test_reward_revision_producer_is_one_shot(restaurant_catalog,
                                              restaurant_executor):
    model = ScriptedModel()
    model.add(A6_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    feedback = (BROKEN_SQL, 'Error: near "SELEC": syntax error')
    terminal = revise_terminal(ctx, BROKEN_SQL, GOLD_SQL, feedback)
    assert compute_reward(ctx, terminal) == 1.0
    reward_calls = [c for c in model.calls if c[3] == "reward"]
    assert len(reward_calls) == 5  # one call per sample, no inner repair loop
    prompt = reward_calls[0][0]
    assert prompt == terminal[-2].prompt
    assert BROKEN_SQL in prompt
    assert 'near "SELEC"' in prompt


def test_reward_zero_round_revision_builds_its_first_round_prompt(
        restaurant_catalog, restaurant_executor):
    model = ScriptedModel()
    model.add(A6_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    terminal = revise_terminal(ctx, GOLD_SQL, GOLD_SQL, None)
    assert compute_reward(ctx, terminal) == 1.0
    rows = ctx.execute(GOLD_SQL)
    expected = build_action_prompt(
        A.SQL_REVISE, ctx.q, terminal[-3].state, restaurant_catalog,
        execution_feedback=(GOLD_SQL, rows.brief))
    assert {c[0] for c in model.calls} == {expected}
    assert rows.brief.startswith("Rows:") and rows.brief in expected


def test_reward_revision_without_feedback_rejected(restaurant_catalog,
                                                   restaurant_executor):
    # no prompt kept, yet the query changed: the chain must have run a round
    ctx = make_ctx(ScriptedModel(), restaurant_catalog, restaurant_executor)
    terminal = revise_terminal(ctx, BROKEN_SQL, GOLD_SQL, None)
    with pytest.raises(ContractViolation):
        compute_reward(ctx, terminal)


def test_search_rewards_resample_the_prompt_each_producer_kept(
        monkeypatch, restaurant_catalog, restaurant_executor):
    sampled: list[list[SearchNode]] = []  # paths whose reward draws samples
    reward = mcts.compute_reward

    def recording_reward(ctx, path):
        if ctx.execute(path[-1].state.sql).is_rows:
            sampled.append(path)
        return reward(ctx, path)

    built: list[str] = []
    build = reward_select.build_action_prompt

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(mcts, "compute_reward", recording_reward)
    monkeypatch.setattr(reward_select, "build_action_prompt", recording_build)
    # one sample per index up to n_reward; the third of the three expansion
    # samples needs one revision round, the others none
    model = scripted_pipeline_model(
        a5_sql=[GOLD_SQL, GOLD_SQL_ALT, BROKEN_SQL, GOLD_SQL, GOLD_SQL_ALT])
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    run_search(ctx)

    n = ctx.cfg.n_reward
    rewards = [c for c in model.calls if c[3] == "reward"]
    asked = {(c[0], c[3]) for c in model.calls if c[3] != "reward"}
    assert len(rewards) == n * len(sampled)
    zero_round: list[str] = []
    revised = 0
    for i, path in enumerate(sampled):
        group = rewards[i * n:(i + 1) * n]
        assert [c[1:] for c in group] == [(1.0, j, "reward") for j in range(n)]
        prompt = group[0][0]
        assert {c[0] for c in group} == {prompt}
        producer = path[-2]
        if producer.prompt is None:  # a revision chain that ran no round
            assert producer.producing_action is A.SQL_REVISE
            assert producer.state.sql == path[-3].state.sql
            assert "Rows: " in prompt
            zero_round.append(prompt)
        else:
            assert prompt is producer.prompt
            assert (prompt, producer.producing_action.value) in asked
            revised += producer.producing_action is A.SQL_REVISE
    # the reward builds a prompt for the zero-round revisions only
    assert zero_round and built == zero_round
    assert revised


# ---- select_final ----

@dataclass(frozen=True)
class Cand:
    final_sql: str
    reward: float


def test_select_majority_class_wins(restaurant_executor):
    out = select_final(
        [Cand(GOLD_SQL, 0.4), Cand(GOLD_SQL_ALT, 0.2), Cand("SELECT 99", 1.0)],
        restaurant_executor,
    )
    assert out.sql == GOLD_SQL  # class of two beats the reward-1.0 singleton
    assert out.class_size == 2
    assert not out.low_confidence


def test_select_repeats_count_as_votes(restaurant_executor):
    out = select_final(
        [Cand(GOLD_SQL, 0.5)] * 3 + [Cand("SELECT 99", 0.9)],
        restaurant_executor,
    )
    assert out.sql == GOLD_SQL
    assert out.class_size == 3


def test_select_tied_classes_prefer_reward(restaurant_executor):
    out = select_final(
        [Cand("SELECT 99", 0.9), Cand("SELECT 42", 0.1)], restaurant_executor)
    assert out.sql == "SELECT 99"
    assert out.class_size == 1


def test_select_tied_rewards_prefer_shorter_then_lexicographic(
        restaurant_executor):
    out = select_final(
        [Cand("SELECT 100", 0.5), Cand("SELECT 99", 0.5)], restaurant_executor)
    assert out.sql == "SELECT 99"  # shorter text
    out = select_final(
        [Cand("SELECT 2", 0.5), Cand("SELECT 1", 0.5)], restaurant_executor)
    assert out.sql == "SELECT 1"  # lexicographic at equal length


def test_select_failures_never_join_classes(restaurant_db):
    executor = partial(execute_sql, db_path=restaurant_db, timeout_secs=0.4)
    slow = ("WITH RECURSIVE spin(n) AS (SELECT 1 UNION ALL SELECT n + 1 "
            "FROM spin) SELECT COUNT(*) FROM spin")
    out = select_final(
        [Cand(GOLD_SQL, 0.2), Cand(BROKEN_SQL, 0.9), Cand(slow, 0.9)],
        executor,
    )
    assert out.sql == GOLD_SQL
    assert not out.low_confidence
    by_sql = {c.sql: c for c in out.candidates}
    assert by_sql[BROKEN_SQL].outcome == "error"
    assert by_sql[BROKEN_SQL].class_size == 0
    assert by_sql[slow].outcome == "timeout"
    assert by_sql[GOLD_SQL].outcome == "rows"


def test_select_all_failed_flags_low_confidence(restaurant_executor):
    out = select_final(
        [Cand(BROKEN_SQL, 0.3), Cand("SELEC 2 FROM nothing", 0.7)],
        restaurant_executor,
    )
    assert out.low_confidence
    assert out.sql == "SELEC 2 FROM nothing"  # highest reward among failures
    assert out.class_size == 0


def test_select_empty_rejected(restaurant_executor):
    with pytest.raises(ContractViolation):
        select_final([], restaurant_executor)


def test_select_executes_each_sql_once(restaurant_db):
    seen = []

    def executor(sql):
        seen.append(sql)
        return execute_sql(sql, restaurant_db, timeout_secs=5.0)

    select_final([Cand(GOLD_SQL, 0.5)] * 4 + [Cand("SELECT 1", 0.5)], executor)
    assert sorted(seen) == sorted({GOLD_SQL, "SELECT 1"})


def test_empty_result_sets_form_a_class(restaurant_executor):
    a = "SELECT label FROM generalinfo WHERE food_type = 'sushi'"
    b = "SELECT label FROM generalinfo WHERE city = 'nowhere'"
    out = select_final([Cand(a, 0.1), Cand(b, 0.1), Cand(GOLD_SQL, 0.9)],
                       restaurant_executor)
    # two empty results agree with each other and outvote the gold singleton
    assert out.class_size == 2
    assert out.sql in (a, b)


# ---- select_final against the selection it replaced ----
#
# Before results had a match key, selection put candidates in two buckets,
# grouped the ones with rows by comparing each with every class
# representative, and took the all-failed case in a branch of its own. That
# code is kept here verbatim, its names aside, as the reference.

@dataclass(frozen=True)
class ReferenceCandidate:
    sql: str
    reward: float
    outcome: str  # "rows" | "error" | "timeout"
    class_id: int | None
    class_size: int


def reference_results_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    if a.kind != "rows" or b.kind != "rows":
        return False
    if a.truncated or b.truncated:
        return a is b
    return a.rows == b.rows


def reference_select_final(
    trajectories: Sequence[Cand],
    executor: Callable[[str], ExecutionResult],
) -> SelectionOutcome:
    if not trajectories:
        raise ContractViolation("final selection requires at least one trajectory")
    results = {sql: executor(sql)
               for sql in dict.fromkeys(t.final_sql for t in trajectories)}
    rows_candidates: list[tuple[str, float, ExecutionResult]] = []
    failed_candidates: list[tuple[str, float, ExecutionResult]] = []
    for traj in trajectories:
        result = results[traj.final_sql]
        bucket = rows_candidates if result.is_rows else failed_candidates
        bucket.append((traj.final_sql, traj.reward, result))

    # group rows candidates into result-equivalence classes
    class_reps: list[ExecutionResult] = []
    class_of: list[int] = []
    for sql, reward, result in rows_candidates:
        for cid, rep in enumerate(class_reps):
            if reference_results_equal(result, rep):
                class_of.append(cid)
                break
        else:
            class_of.append(len(class_reps))
            class_reps.append(result)
    class_sizes = [class_of.count(cid) for cid in range(len(class_reps))]

    candidates: list[ReferenceCandidate] = []
    for (sql, reward, result), cid in zip(rows_candidates, class_of):
        candidates.append(ReferenceCandidate(
            sql=sql, reward=reward, outcome=result.kind,
            class_id=cid, class_size=class_sizes[cid],
        ))
    for sql, reward, result in failed_candidates:
        candidates.append(ReferenceCandidate(
            sql=sql, reward=reward, outcome=result.kind,
            class_id=None, class_size=0,
        ))

    if not rows_candidates:
        best = min(candidates, key=lambda c: (-c.reward, len(c.sql), c.sql))
        return SelectionOutcome(sql=best.sql, class_size=0, low_confidence=True,
                                candidates=candidates)
    classed = [c for c in candidates if c.class_id is not None]
    best = min(classed,
               key=lambda c: (-c.class_size, -c.reward, len(c.sql), c.sql))
    return SelectionOutcome(sql=best.sql, class_size=best.class_size,
                            low_confidence=False, candidates=candidates)


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# few row values, so that distinct queries often return equal row sets
RESULTS = st.one_of(
    st.builds(rows_result,
              st.lists(st.tuples(st.sampled_from([0, 1, 1.0, None, "a"])),
                       max_size=3),
              truncated=st.booleans()),
    st.builds(error_result, st.sampled_from(["no such table: t", ""])),
    st.builds(timeout_result),
)
# equal lengths and shared prefixes exercise both text tie-breaks
SQLS = st.sampled_from(["SELECT 1", "SELECT 2", "SELECT 10", "SELECT 1 ",
                        "S", "T", "SELECT 99"])
REWARDS = st.sampled_from([0.0, 0.2, 0.5, 1.0])


@st.composite
def selection_inputs(draw):
    """Trajectories and the result each of their SQL strings executes to;
    distinct strings may share one result object, truncated ones too."""
    trajectories = draw(st.lists(st.builds(Cand, SQLS, REWARDS),
                                 min_size=1, max_size=12))
    pool = draw(st.lists(RESULTS, min_size=1, max_size=6))
    results = {t.final_sql: draw(st.sampled_from(pool)) for t in trajectories}
    return trajectories, results


def outcome_fields(out: SelectionOutcome) -> tuple:
    return (out.sql, out.class_size, out.low_confidence,
            [(c.sql, c.reward, c.outcome, c.class_size) for c in out.candidates])


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(selection_inputs())
def test_select_final_matches_the_two_bucket_reference(inputs):
    trajectories, results = inputs
    got = select_final(trajectories, results.__getitem__)
    want = reference_select_final(trajectories, results.__getitem__)
    assert outcome_fields(got) == outcome_fields(want)
