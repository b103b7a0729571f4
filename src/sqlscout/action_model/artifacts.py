"""How an action's answer extends a node state, and the answer's fingerprint.

Each action A1–A6 fills one `NodeState` field with its parsed answer
(`ANSWER_FIELD`); termination fills none. A fingerprint identifies that
answer (normalized SQL, sorted schema map, collapsed text) so that expansion
samples which say the same thing collapse into one search-tree child.
"""

from __future__ import annotations

import hashlib
import json

from ..core.types import ActionKind, NodeState

ANSWER_FIELD: dict[ActionKind, str] = {
    ActionKind.REPHRASE: "rephrased_question",
    ActionKind.SCHEMA_SELECT: "selected_schema",
    ActionKind.VALUE_IDENT: "value_notes",
    ActionKind.FUNCTION_IDENT: "function_notes",
    ActionKind.SQL_GENERATE: "sql",
    ActionKind.SQL_REVISE: "sql",
}


def normalize_sql(sql: str) -> str:
    return " ".join(sql.split()).rstrip(";").strip()


def _canonical(action: ActionKind, answer) -> str:
    if action is ActionKind.SCHEMA_SELECT:
        ordered = {t: sorted(cols) for t, cols in sorted(answer.items())}
        return json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    if action in (ActionKind.SQL_GENERATE, ActionKind.SQL_REVISE):
        return normalize_sql(answer)
    return " ".join(answer.split())


def fingerprint(action: ActionKind, state: NodeState) -> str:
    """Fingerprint of the answer `action` put into `state`."""
    canonical = [action.value]
    if action in ANSWER_FIELD:
        canonical.append(_canonical(action, getattr(state, ANSWER_FIELD[action])))
    material = json.dumps(canonical, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:16]


def advance(state: NodeState, action: ActionKind, answer, raw: str,
            feedback: tuple[str, str] | None = None) -> NodeState:
    """New NodeState with the answer in its field and the raw response logged.

    `feedback` is the (sql, execution result text) a revision was prompted
    with; the reward stage re-issues that prompt.
    """
    new = state.copy()
    if action in ANSWER_FIELD:
        setattr(new, ANSWER_FIELD[action], answer)
    if action is ActionKind.SQL_REVISE:
        new.revision_context = feedback
    new.reasoning_log.append((action, raw))
    return new
