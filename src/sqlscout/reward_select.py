"""Consistency reward at terminal nodes and final SQL selection.

The reward of a finished query is the agreement rate between its execution
result and the results of fresh queries drawn from the same prompt: re-issue
the prompt of whichever action produced the final SQL, sample N_reward times
at T_reward, execute everything, and count matches. Final selection then
keeps the candidate from the largest execution-equivalence class.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from .action_model import build_action_prompt
from .core.types import ActionKind, SearchNode
from .errors import ContractViolation, ProtocolError, TransportError
from .sql_exec import ExecutionResult, results_equal

log = logging.getLogger(__name__)


def compute_reward(ctx, path: Sequence[SearchNode]) -> float:
    """Fraction of re-sampled queries whose results match the final SQL's.

    `path` is the rollout's root-to-terminal path; its last node is scored.

    `ctx` is the per-question search context (question, config, model,
    catalog, memoized execute and parse). A final SQL that fails to execute
    scores 0 outright. Samples that fail to parse count as mismatches;
    samples lost to transport or protocol errors shrink the denominator, and
    zero obtainable samples scores 0 with a warning.

    Termination only follows generation or revision, so the producer of the
    final SQL is the terminal's parent, `path[-2]`, and the samples re-issue
    the prompt that node kept: one-shot, with no internal revision loop. A
    revision chain that ran no round kept none, because its query already
    returned rows; for it the prompt is the one its first round would have
    sent from the state before it, `path[-3]`.

    The samples go to `ctx.model` directly, not through the context's
    sample memo (their texts do go through its parse memo): the benchmark's
    reward check (`e2ebench/checks.py`, `check_rewards`) requires n_reward
    endpoint calls for every scored terminal, also when a sibling terminal
    re-sampled the same prompt.
    """
    state = path[-1].state
    if not state.sql:
        raise ContractViolation("reward requires a terminal state with SQL")
    final_result = ctx.execute(state.sql)
    if not final_result.is_rows:
        return 0.0
    producer = path[-2] if len(path) > 1 else None
    if producer is None or producer.producing_action not in (
            ActionKind.SQL_GENERATE, ActionKind.SQL_REVISE):
        raise ContractViolation("terminal does not follow an SQL-producing action")
    prompt = producer.prompt
    if prompt is None:  # a revision chain that ran no round
        if (producer.producing_action is not ActionKind.SQL_REVISE
                or path[-3].state.sql != state.sql):
            raise ContractViolation("producer node lacks the prompt it answered")
        prompt = build_action_prompt(
            ActionKind.SQL_REVISE, ctx.q, path[-3].state, ctx.catalog,
            retrieved_values=ctx.retrieved_map,
            execution_feedback=(state.sql, final_result.brief),
            schema_cache=ctx.schema_cache,
        )
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
        sql = ctx.parse(producer.producing_action, raw)
        if sql is None:
            continue  # counted in the denominator, never matches
        if results_equal(ctx.execute(sql), final_result):
            matched += 1
    if obtained == 0:
        log.warning("no reward samples obtained; scoring 0")
        return 0.0
    return matched / obtained


class _TrajectoryLike(Protocol):
    final_sql: str
    reward: float


@dataclass(frozen=True)
class CandidateInfo:
    sql: str
    reward: float
    outcome: str  # "rows" | "error" | "timeout"
    class_size: int  # 0 for a failed candidate, which joins no class


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

    Each trajectory contributes its final SQL (one vote each, repeats kept);
    each distinct SQL string is executed once. Candidates whose results share
    a `match_key` form an equivalence class, and a failed candidate has class
    size 0. The winner has the largest class, ties broken by higher
    trajectory reward, then shorter SQL, then lexicographic order; it is
    flagged low-confidence if every candidate failed. The candidates are
    listed in trajectory order, those that returned rows first.
    """
    if not trajectories:
        raise ContractViolation("final selection requires at least one trajectory")
    results = {sql: executor(sql)
               for sql in dict.fromkeys(t.final_sql for t in trajectories)}
    keys = [results[t.final_sql].match_key for t in trajectories]
    class_sizes = Counter(key for key in keys if key is not None)
    candidates = sorted(
        (CandidateInfo(sql=t.final_sql, reward=t.reward,
                       outcome=results[t.final_sql].kind, class_size=class_sizes[key])
         for t, key in zip(trajectories, keys)),
        key=lambda c: c.class_size == 0)
    best = min(candidates,
               key=lambda c: (-c.class_size, -c.reward, len(c.sql), c.sql))
    return SelectionOutcome(sql=best.sql, class_size=best.class_size,
                            low_confidence=best.class_size == 0,
                            candidates=candidates)
