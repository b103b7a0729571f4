"""How an action's answer extends a node state, and the answer's fingerprint.

Each action A1–A6 fills one `NodeState` field with its parsed answer
(`ANSWER_FIELD`); termination fills none. A fingerprint identifies that
answer (normalized SQL, sorted schema selection, collapsed text) so that
expansion samples which say the same thing collapse into one search-tree
child.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

from ..core.types import ActionKind, NodeState, SchemaKey

# an action's parsed answer: the schema selection for A2, else text
Answer = str | SchemaKey


class Step(NamedTuple):
    """What one sample of an action yields: its answer (None for termination)
    and the prompt that sample answered, which the new node keeps for the
    reward (None for termination and for a revision chain that ran no round)."""

    answer: Answer | None
    prompt: str | None = None


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
        ordered = {t: sorted(cols) for t, cols in answer}
        return json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    if action in (ActionKind.SQL_GENERATE, ActionKind.SQL_REVISE):
        return normalize_sql(answer)
    return " ".join(answer.split())


def fingerprint(action: ActionKind, answer: Answer | None) -> str:
    """Fingerprint of `action`'s answer (ignored for termination)."""
    canonical = [action.value]
    if action in ANSWER_FIELD:
        canonical.append(_canonical(action, answer))
    material = json.dumps(canonical, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:16]


def advance(state: NodeState, action: ActionKind, answer) -> NodeState:
    """New NodeState with the answer in its field and the action in its history."""
    new = state.copy()
    if action in ANSWER_FIELD:
        setattr(new, ANSWER_FIELD[action], answer)
    new.history += (action,)
    return new
