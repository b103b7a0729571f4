"""Consistency reward and execution-majority final selection."""

import logging
from dataclasses import dataclass
from functools import partial

import pytest

from sqlscout.action_model import build_action_prompt
from sqlscout.core.types import ActionKind, NLQuestion, SearchConfig, SearchNode
from sqlscout.errors import ContractViolation, TransportError
from sqlscout.llm_client import ScriptedModel
from sqlscout.mcts import RolloutContext, SearchDeps, prepare_context
from sqlscout.reward_select import compute_reward, select_final
from sqlscout.sql_exec import execute_sql

from conftest import (
    A5_MARK,
    A6_MARK,
    BROKEN_SQL,
    GOLD_SQL,
    GOLD_SQL_ALT,
    HINT,
    QUESTION,
    sql_json,
)

A = ActionKind


def node_after(parent: SearchNode, action: ActionKind, *, sql=None,
               revision_context=None, raw="") -> SearchNode:
    state = parent.state.copy()
    state.reasoning_log.append((action, raw))
    if sql is not None:
        state.sql = sql
    if action is A.SQL_REVISE:
        state.revision_context = revision_context
    node = SearchNode(state=state, producing_action=action,
                      fingerprint=f"fp-{action.value}", parent=parent)
    parent.children[node.edge_key] = node
    return node


def generate_terminal(final_sql: str) -> SearchNode:
    root = SearchNode.root()
    gen = node_after(root, A.SQL_GENERATE, sql=final_sql)
    return node_after(gen, A.TERMINATE)


def revise_terminal(bad_sql: str, fixed_sql: str, feedback: tuple | None):
    root = SearchNode.root()
    gen = node_after(root, A.SQL_GENERATE, sql=bad_sql)
    rev = node_after(gen, A.SQL_REVISE, sql=fixed_sql,
                     revision_context=feedback)
    return node_after(rev, A.TERMINATE)


def make_ctx(model, catalog, executor, **cfg_kw) -> RolloutContext:
    cfg = SearchConfig(n_reward=5, t_reward=1.0, sql_timeout_secs=5.0, **cfg_kw)
    deps = SearchDeps(model=model, catalog=catalog, executor=executor)
    q = NLQuestion(question=QUESTION, hint=HINT, db_id="restaurants")
    return prepare_context(q, deps, cfg)


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
    reward = compute_reward(ctx, generate_terminal(GOLD_SQL))
    assert reward == pytest.approx(2 / 5)
    reward_calls = [c for c in model.calls if c[3] == "reward"]
    assert len(reward_calls) == 5
    assert all(c[1] == 1.0 for c in reward_calls)  # sampled at t_reward


def test_reward_unanimous_is_exactly_one(restaurant_catalog,
                                         restaurant_executor):
    model = ScriptedModel()
    model.add(A5_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    assert compute_reward(ctx, generate_terminal(GOLD_SQL)) == 1.0


def test_reward_erroring_final_scores_zero_without_sampling(
        restaurant_catalog, restaurant_executor):
    model = ScriptedModel()  # no rules: any model call would raise
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    assert compute_reward(ctx, generate_terminal(BROKEN_SQL)) == 0.0
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
    assert compute_reward(ctx, generate_terminal(GOLD_SQL)) == 1.0  # 3/3
    assert model.calls == 5


def test_reward_zero_obtained_scores_zero(restaurant_catalog,
                                          restaurant_executor, caplog):
    model = FlakyModel(sql_json(GOLD_SQL), drop={0, 1, 2, 3, 4})
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    with caplog.at_level(logging.WARNING):
        assert compute_reward(ctx, generate_terminal(GOLD_SQL)) == 0.0
    assert any("no reward samples" in r.message for r in caplog.records)


def test_reward_requires_final_sql(restaurant_catalog, restaurant_executor):
    root = SearchNode.root()
    gen = node_after(root, A.SQL_GENERATE)  # no SQL recorded
    term = node_after(gen, A.TERMINATE)
    ctx = make_ctx(ScriptedModel(), restaurant_catalog, restaurant_executor)
    with pytest.raises(ContractViolation):
        compute_reward(ctx, term)


def test_reward_reissues_generator_prompt_verbatim(restaurant_catalog,
                                                   restaurant_executor):
    model = ScriptedModel()
    model.add(A5_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    terminal = generate_terminal(GOLD_SQL)
    compute_reward(ctx, terminal)
    producer_parent_state = terminal.parent.parent.state
    expected = build_action_prompt(
        A.SQL_GENERATE, ctx.q, producer_parent_state, restaurant_catalog)
    assert model.calls[0][0] == expected


def test_reward_revision_producer_is_one_shot(restaurant_catalog,
                                              restaurant_executor):
    feedback = (BROKEN_SQL, 'Error: near "SELEC": syntax error')
    terminal = revise_terminal(BROKEN_SQL, GOLD_SQL, feedback)
    model = ScriptedModel()
    model.add(A6_MARK, sql_json(GOLD_SQL))
    ctx = make_ctx(model, restaurant_catalog, restaurant_executor)
    assert compute_reward(ctx, terminal) == 1.0
    reward_calls = [c for c in model.calls if c[3] == "reward"]
    assert len(reward_calls) == 5  # one call per sample, no inner repair loop
    prompt = reward_calls[0][0]
    assert BROKEN_SQL in prompt
    assert 'near "SELEC"' in prompt


def test_reward_revision_without_feedback_rejected(restaurant_catalog,
                                                   restaurant_executor):
    terminal = revise_terminal(BROKEN_SQL, GOLD_SQL, None)
    ctx = make_ctx(ScriptedModel(), restaurant_catalog, restaurant_executor)
    with pytest.raises(ContractViolation):
        compute_reward(ctx, terminal)


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
    assert by_sql[BROKEN_SQL].class_id is None
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
