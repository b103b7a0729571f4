"""Prompt templates and per-action prompt construction.

Templates live as plain-text assets with {QUESTION}, {HINT} and
{SCHEMA_CONTEXT} placeholders (the revision template also takes
{EXECUTED_SQL} and {EXECUTION_RESULT}). They are substituted literally, never
through str.format, because the templates themselves contain JSON braces.
The templates are packaged with the module and fixed; each is read once.
"""

from __future__ import annotations

import functools
from importlib import resources

from ..core.actions import valid_next_actions
from ..core.catalog import DatabaseCatalog
from ..core.render import render_schema_context
from ..core.types import ActionKind, NLQuestion, NodeState
from ..errors import ContractViolation

ACTION_ASSETS: dict[ActionKind, str] = {
    ActionKind.REPHRASE: "rephrase.txt",
    ActionKind.SCHEMA_SELECT: "schema_select.txt",
    ActionKind.VALUE_IDENT: "value_ident.txt",
    ActionKind.FUNCTION_IDENT: "function_ident.txt",
    ActionKind.SQL_GENERATE: "sql_generate.txt",
    ActionKind.SQL_REVISE: "sql_revise.txt",
}
KEYWORD_ASSET = "keyword_extract.txt"
BASELINE_ASSET = "baseline.txt"

# a schema slice as a cache key: None for the full catalog, else
# ((table, (column, ...)), ...) in selection order
SchemaKey = tuple[tuple[str, tuple[str, ...]], ...] | None


@functools.cache
def load_template(name: str) -> str:
    asset = resources.files(__package__).joinpath("assets", name)
    return asset.read_text(encoding="utf-8")


def fill(template: str, slots: dict[str, str]) -> str:
    out = template
    for key, value in slots.items():
        out = out.replace("{" + key + "}", value)
    return out


def build_action_prompt(
    action: ActionKind,
    q: NLQuestion,
    state: NodeState,
    catalog: DatabaseCatalog,
    retrieved_values: dict[tuple[str, str], list[str]] | None = None,
    execution_feedback: tuple[str, str] | None = None,
    schema_cache: dict[SchemaKey, str] | None = None,
) -> str:
    """Instantiate the template for `action` against the current state.

    The question slot carries the rephrased question once one exists; value
    and function notes are appended after the hint. Schema selection always
    sees the full catalog (it produces the subset); later actions see the
    selected slice. The revision prompt additionally requires
    execution_feedback = (executed sql, execution result text).

    `schema_cache`, if given, keeps the rendered schema text per slice (keyed
    as `SchemaKey`). It is only valid for one catalog and one
    `retrieved_values` map; the prompt is the same with or without it.
    """
    if action is ActionKind.TERMINATE:
        raise ContractViolation("termination is structural; it has no prompt")
    if action not in valid_next_actions(state.history()):
        raise ContractViolation(
            f"{action.value} is not a legal action for this state"
        )
    template = load_template(ACTION_ASSETS[action])

    question = state.rephrased_question or q.question
    hint_parts = [q.hint] if q.hint else []
    if state.value_notes:
        hint_parts.append(state.value_notes)
    if state.function_notes:
        hint_parts.append(state.function_notes)
    hint = "\n\n".join(hint_parts)

    slots = {"QUESTION": question, "HINT": hint}
    if action is not ActionKind.REPHRASE:
        selected = None if action is ActionKind.SCHEMA_SELECT else state.selected_schema
        slots["SCHEMA_CONTEXT"] = _schema_text(
            catalog, selected, retrieved_values, schema_cache
        )
    if action is ActionKind.SQL_REVISE:
        if state.sql is None:
            raise ContractViolation("revision requires a SQL query in the state")
        if execution_feedback is None:
            raise ContractViolation("revision requires execution feedback")
        executed_sql, result_text = execution_feedback
        slots["EXECUTED_SQL"] = executed_sql
        slots["EXECUTION_RESULT"] = result_text
    return fill(template, slots)


def _schema_text(
    catalog: DatabaseCatalog,
    selected: dict[str, list[str]] | None,
    retrieved_values: dict[tuple[str, str], list[str]] | None,
    cache: dict[SchemaKey, str] | None,
) -> str:
    """The rendered slice; with a cache, each distinct slice renders once."""
    cache = {} if cache is None else cache
    key = None if selected is None else tuple(
        (table, tuple(columns)) for table, columns in selected.items()
    )
    if key not in cache:
        cache[key] = render_schema_context(
            catalog, selected=selected, retrieved_values=retrieved_values
        )
    return cache[key]


def build_keyword_prompt(q: NLQuestion) -> str:
    return fill(load_template(KEYWORD_ASSET), {"QUESTION": q.question, "HINT": q.hint})


def build_baseline_prompt(q: NLQuestion, catalog: DatabaseCatalog) -> str:
    context = render_schema_context(catalog)
    return fill(load_template(BASELINE_ASSET),
                {"QUESTION": q.question, "HINT": q.hint, "SCHEMA_CONTEXT": context})
