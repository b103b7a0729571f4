"""Executing one action: prompt the model, parse each sample into a step.

Plain actions draw N_expansion samples from one prompt. Revision is a loop
per sample chain: execute the current SQL, and while it fails, feed the query
and its failure back through the revision prompt, at most N_revision rounds.
Termination is structural and calls no model. Actions read their inputs from
the per-question search context `ctx` (`mcts.RolloutContext`, duck-typed),
draw every sample through its memo `ctx.sample`, so a prompt that two paths
of the search build alike is asked of the model once per question, and parse
every text through its memo `ctx.parse`. A step is the parsed answer and
the prompt it answered, not yet a state: the caller advances a state only
for a step whose answer it has not seen.
"""

from __future__ import annotations

from ..core.types import ActionKind, NLQuestion, NodeState
from ..errors import ContractViolation
from ..llm_client import ChatModel
from .artifacts import Step
from .parser import parse_keyword_list
from .prompts import build_action_prompt, build_keyword_prompt

KEYWORD_MAX_TOKENS = 1024


def run_action(action: ActionKind, state: NodeState,
               ctx) -> list[tuple[Step, str]]:
    """All sampled (step, raw response) pairs for one action at this state.

    Samples 0 to cfg.n_expansion - 1 are drawn from one prompt; those that
    fail to parse are dropped, and an empty list means the action produced
    nothing usable. Transport errors propagate to the caller.
    """
    if action is ActionKind.TERMINATE:
        return [(Step(None), "")]
    if action is ActionKind.SQL_REVISE:
        return [
            pair
            for chain in range(ctx.cfg.n_expansion)
            for pair in _run_revision_chain(chain, state, ctx)
        ]

    cfg = ctx.cfg
    prompt = build_action_prompt(
        action, ctx.q, state, ctx.catalog,
        retrieved_values=ctx.retrieved_map, schema_cache=ctx.schema_cache,
    )
    out: list[tuple[Step, str]] = []
    for i in range(cfg.n_expansion):
        raw = ctx.sample(prompt, cfg.t_expansion, i, action.value)
        answer = ctx.parse(action, raw)
        if answer is not None:
            out.append((Step(answer, prompt), raw))
    return out


def _run_revision_chain(chain: int, state: NodeState,
                        ctx) -> list[tuple[Step, str]]:
    """One revise-until-valid chain; the chain index separates its samples.

    The chain also ends at a fixed point: an answer that fails to parse, or
    that repeats the query it was asked to revise. Every later round would
    build the same prompt and get the same memoized answer. The step carries
    the last answer that parsed, and the prompt of that answer.
    """
    if state.sql is None:
        raise ContractViolation("revision requires a SQL query in the state")
    cfg = ctx.cfg
    current = state.sql
    result = ctx.execute(current)
    prompt = raw = None
    rounds = 0
    while not result.is_rows and rounds < cfg.n_revision:
        asked = build_action_prompt(
            ActionKind.SQL_REVISE, ctx.q, state, ctx.catalog,
            retrieved_values=ctx.retrieved_map,
            execution_feedback=(current, result.brief),
            schema_cache=ctx.schema_cache,
        )
        text = ctx.sample(asked, cfg.t_expansion, chain, ActionKind.SQL_REVISE.value)
        rounds += 1
        sql = ctx.parse(ActionKind.SQL_REVISE, text)
        if sql is None:
            if raw is None:
                return []  # no round came back parseable
            break
        prompt, raw = asked, text
        if sql == current:
            break
        current = sql
        result = ctx.execute(current)
    return [(Step(current, prompt), raw or "")]


def extract_keywords(q: NLQuestion, model: ChatModel) -> list[str]:
    """Keywords and keyphrases for value retrieval; one deterministic completion."""
    raw = model.sample(build_keyword_prompt(q), 0.0, KEYWORD_MAX_TOKENS,
                       sample_index=0, tag="keywords")
    return parse_keyword_list(raw)
