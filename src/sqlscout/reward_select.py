"""Consistency reward at terminal nodes and final SQL selection.

The reward of a finished query is the agreement rate between its execution
result and the results of fresh queries drawn from the same prompt: re-issue
the prompt of whichever action produced the final SQL, sample N_reward times
at T_reward, execute everything, and count matches. Final selection then
keeps the candidate from the largest execution-equivalence class.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from .action_model import build_action_prompt
from .action_model.parser import parse_sql_payload
from .core.types import ActionKind, SearchNode
from .errors import ContractViolation, ParseError, ProtocolError, TransportError
from .sql_exec import ExecutionResult, memoize_executor, results_equal

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RewardSample:
    sql: str | None  # None: the sample failed to parse
    result: ExecutionResult | None
    matched: bool


def compute_reward(ctx, terminal: SearchNode) -> float:
    """Fraction of re-sampled queries whose results match the final SQL's.

    `ctx` is the per-question search context (question, config, model,
    catalog, memoized execute). A final SQL that fails to execute scores 0
    outright. Samples that fail to parse count as mismatches; samples lost to
    transport or protocol errors shrink the denominator, and zero obtainable
    samples scores 0 with a warning.
    """
    state = terminal.state
    if not state.sql:
        raise ContractViolation("reward requires a terminal state with SQL")
    final_result = ctx.execute(state.sql)
    if not final_result.is_rows:
        return 0.0
    prompt = _producer_prompt(ctx, terminal)
    cfg = ctx.cfg
    obtained = 0
    matched = 0
    for i in range(cfg.n_reward):
        try:
            raw = ctx.model.sample(prompt, cfg.t_reward, cfg.max_tokens,
                                   sample_index=i, tag="reward")
        except (TransportError, ProtocolError) as exc:
            log.warning("reward sample %d lost: %s: %s", i, type(exc).__name__, exc)
            continue
        obtained += 1
        try:
            sql, _ = parse_sql_payload(raw)
        except ParseError:
            continue  # counted in the denominator, never matches
        if results_equal(ctx.execute(sql), final_result):
            matched += 1
    if obtained == 0:
        log.warning("no reward samples obtained; scoring 0")
        return 0.0
    return matched / obtained


def _producer_prompt(ctx, terminal: SearchNode) -> str:
    """Rebuild the prompt of the action that produced the final SQL.

    The producing node's parent state is exactly the state that prompt was
    built from. A revision producer is re-issued one-shot with its recorded
    execution feedback; no internal revision loop runs here.
    """
    producer: SearchNode | None = None
    for node in terminal.path_from_root():
        if node.producing_action in (ActionKind.SQL_GENERATE, ActionKind.SQL_REVISE):
            producer = node
    if producer is None or producer.parent is None:
        raise ContractViolation("terminal path contains no SQL-producing action")
    base_state = producer.parent.state
    if producer.producing_action is ActionKind.SQL_GENERATE:
        return build_action_prompt(
            ActionKind.SQL_GENERATE, ctx.q, base_state, ctx.catalog,
            retrieved_values=ctx.retrieved_map, library=ctx.library,
            schema_cache=ctx.schema_cache,
        )
    feedback = producer.state.revision_context
    if feedback is None:
        raise ContractViolation("revision node lacks its execution feedback")
    return build_action_prompt(
        ActionKind.SQL_REVISE, ctx.q, base_state, ctx.catalog,
        retrieved_values=ctx.retrieved_map, execution_feedback=feedback,
        library=ctx.library, schema_cache=ctx.schema_cache,
    )


class _TrajectoryLike(Protocol):
    final_sql: str
    reward: float


@dataclass(frozen=True)
class CandidateInfo:
    sql: str
    reward: float
    outcome: str  # "rows" | "error" | "timeout"
    class_id: int | None
    class_size: int


@dataclass
class SelectionOutcome:
    sql: str
    class_size: int
    low_confidence: bool
    candidates: list[CandidateInfo] = field(default_factory=list)


def select_final(
    trajectories: Sequence[_TrajectoryLike],
    executor: Callable[[str], ExecutionResult],
) -> SelectionOutcome:
    """Pick the final SQL by execution-result majority over the trajectories.

    Each trajectory contributes its final SQL (one vote each, repeats kept).
    Candidates that execute to rows are grouped into equivalence classes;
    the winner is the candidate of the largest class, ties broken by higher
    trajectory reward, then shorter SQL, then lexicographic order. If every
    candidate fails, the highest-reward one is returned flagged low-confidence.
    """
    if not trajectories:
        raise ContractViolation("final selection requires at least one trajectory")
    run = memoize_executor(executor)
    rows_candidates: list[tuple[str, float, ExecutionResult]] = []
    failed_candidates: list[tuple[str, float, ExecutionResult]] = []
    for traj in trajectories:
        result = run(traj.final_sql)
        bucket = rows_candidates if result.is_rows else failed_candidates
        bucket.append((traj.final_sql, traj.reward, result))

    # group rows candidates into result-equivalence classes
    class_reps: list[ExecutionResult] = []
    class_of: list[int] = []
    for sql, reward, result in rows_candidates:
        for cid, rep in enumerate(class_reps):
            if results_equal(result, rep):
                class_of.append(cid)
                break
        else:
            class_of.append(len(class_reps))
            class_reps.append(result)
    class_sizes = [class_of.count(cid) for cid in range(len(class_reps))]

    candidates: list[CandidateInfo] = []
    for (sql, reward, result), cid in zip(rows_candidates, class_of):
        candidates.append(CandidateInfo(
            sql=sql, reward=reward, outcome=result.kind,
            class_id=cid, class_size=class_sizes[cid],
        ))
    for sql, reward, result in failed_candidates:
        candidates.append(CandidateInfo(
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


def select_final_sql(
    trajectories: Sequence[_TrajectoryLike],
    executor: Callable[[str], ExecutionResult],
) -> str:
    return select_final(trajectories, executor).sql
