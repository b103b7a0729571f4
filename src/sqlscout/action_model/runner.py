"""Executing one action: prompt the model, parse samples into artifacts.

Plain actions draw N_expansion samples from one prompt. Revision is a loop
per sample chain: execute the current SQL, and while it fails, feed the query
and its failure back through the revision prompt, at most N_revision rounds.
Termination is structural and calls no model.
"""

from __future__ import annotations

import logging
from typing import Callable

from ..core.catalog import DatabaseCatalog
from ..core.types import ActionKind, NLQuestion, NodeState, SearchConfig
from ..errors import ContractViolation, ParseError
from ..llm_client import ChatModel, CompletionRequest, complete
from ..sql_exec import ExecutionResult
from .artifacts import ActionArtifact, RevisedSql, Terminated
from .parser import parse_action_response, parse_keyword_list, parse_revised_sql_payload
from .prompts import PromptLibrary, SchemaKey, build_action_prompt, build_keyword_prompt

log = logging.getLogger(__name__)

SqlExecutor = Callable[[str], ExecutionResult]


def run_action(
    action: ActionKind,
    q: NLQuestion,
    state: NodeState,
    catalog: DatabaseCatalog,
    cfg: SearchConfig,
    model: ChatModel,
    executor: SqlExecutor | None = None,
    retrieved_values: dict[tuple[str, str], list[str]] | None = None,
    library: PromptLibrary | None = None,
    schema_cache: dict[SchemaKey, str] | None = None,
) -> list[tuple[ActionArtifact, str]]:
    """All sampled (artifact, raw response) pairs for one action at this state.

    Samples that fail to parse are dropped; an empty list means the action
    produced nothing usable. Transport errors propagate to the caller.
    `schema_cache` is handed to every `build_action_prompt` call.
    """
    if action is ActionKind.TERMINATE:
        return [(Terminated(), "")]
    if action is ActionKind.SQL_REVISE:
        if executor is None:
            raise ContractViolation("revision requires a SQL executor")
        return [
            pair
            for chain in range(cfg.n_expansion)
            for pair in _run_revision_chain(
                chain, q, state, catalog, cfg, model, executor,
                retrieved_values, library, schema_cache,
            )
        ]

    prompt = build_action_prompt(
        action, q, state, catalog,
        retrieved_values=retrieved_values, library=library,
        schema_cache=schema_cache,
    )
    request = CompletionRequest(
        prompt=prompt,
        temperature=cfg.t_expansion,
        n_samples=cfg.n_expansion,
        max_tokens=cfg.max_tokens,
        tag=action.value,
    )
    out: list[tuple[ActionArtifact, str]] = []
    for raw in complete(model, request):
        try:
            artifact = parse_action_response(action, raw, catalog=catalog)
        except ParseError as exc:
            log.debug("%s sample failed to parse: %s", action.value, exc)
            continue
        out.append((artifact, raw))
    return out


def _run_revision_chain(
    chain: int,
    q: NLQuestion,
    state: NodeState,
    catalog: DatabaseCatalog,
    cfg: SearchConfig,
    model: ChatModel,
    executor: SqlExecutor,
    retrieved_values: dict[tuple[str, str], list[str]] | None,
    library: PromptLibrary | None,
    schema_cache: dict[SchemaKey, str] | None,
) -> list[tuple[ActionArtifact, str]]:
    """One revise-until-valid chain; the chain index separates its samples."""
    if state.sql is None:
        raise ContractViolation("revision requires a SQL query in the state")
    current = state.sql
    result = executor(current)
    rounds = 0
    last_raw: str | None = None
    rationale = ""
    from_sql, from_result = current, result.brief()
    while not result.is_rows and rounds < cfg.n_revision:
        from_sql, from_result = current, result.brief()
        prompt = build_action_prompt(
            ActionKind.SQL_REVISE, q, state, catalog,
            retrieved_values=retrieved_values,
            execution_feedback=(from_sql, from_result),
            library=library, schema_cache=schema_cache,
        )
        raw = model.sample(prompt, cfg.t_expansion, cfg.max_tokens,
                           sample_index=chain, tag=ActionKind.SQL_REVISE.value)
        rounds += 1
        try:
            current, rationale = parse_revised_sql_payload(raw)
        except ParseError as exc:
            log.debug("revision round %d failed to parse: %s", rounds, exc)
            continue
        last_raw = raw
        result = executor(current)
    if last_raw is None and rounds > 0:
        return []  # every round came back unparseable
    artifact = RevisedSql(
        sql=current,
        rationale=rationale,
        rounds_used=rounds,
        from_sql=from_sql,
        from_result=from_result,
    )
    return [(artifact, last_raw or "")]


def extract_keywords(
    q: NLQuestion,
    model: ChatModel,
    library: PromptLibrary | None = None,
    max_tokens: int = 1024,
) -> list[str]:
    """Keywords and keyphrases for value retrieval; one deterministic completion."""
    prompt = build_keyword_prompt(q, library=library)
    raw = model.sample(prompt, 0.0, max_tokens, sample_index=0, tag="keywords")
    return parse_keyword_list(raw)
