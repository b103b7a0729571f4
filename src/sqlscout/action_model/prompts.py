"""Prompt templates and per-action prompt construction.

Templates live as plain-text assets with {QUESTION}, {HINT} and
{SCHEMA_CONTEXT} placeholders (the revision template also takes
{EXECUTED_SQL} and {EXECUTION_RESULT}). They are substituted literally, never
through str.format, because the templates themselves contain JSON braces.
An override directory can shadow individual assets for prompt experiments.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

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


class PromptLibrary:
    """Loads templates from the packaged assets, or an override directory first."""

    def __init__(self, override_dir: str | Path | None = None):
        self.override_dir = Path(override_dir) if override_dir else None
        self._cache: dict[str, str] = {}

    def load(self, name: str) -> str:
        if name not in self._cache:
            self._cache[name] = self._read(name)
        return self._cache[name]

    def _read(self, name: str) -> str:
        if self.override_dir is not None:
            candidate = self.override_dir / name
            if candidate.exists():
                return candidate.read_text(encoding="utf-8")
        return (
            resources.files(__package__).joinpath("assets", name)
            .read_text(encoding="utf-8")
        )

    def template_for(self, action: ActionKind) -> str:
        if action not in ACTION_ASSETS:
            raise ContractViolation(f"{action.value} has no prompt template")
        return self.load(ACTION_ASSETS[action])

    @property
    def keyword_template(self) -> str:
        return self.load(KEYWORD_ASSET)

    @property
    def baseline_template(self) -> str:
        return self.load(BASELINE_ASSET)


_DEFAULT_LIBRARY = PromptLibrary()


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
    library: PromptLibrary | None = None,
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
    library = library or _DEFAULT_LIBRARY
    template = library.template_for(action)

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


def build_keyword_prompt(q: NLQuestion, library: PromptLibrary | None = None) -> str:
    library = library or _DEFAULT_LIBRARY
    return fill(library.keyword_template, {"QUESTION": q.question, "HINT": q.hint})


def build_baseline_prompt(
    q: NLQuestion,
    catalog: DatabaseCatalog,
    retrieved_values: dict[tuple[str, str], list[str]] | None = None,
    library: PromptLibrary | None = None,
) -> str:
    library = library or _DEFAULT_LIBRARY
    context = render_schema_context(catalog, retrieved_values=retrieved_values)
    return fill(
        library.baseline_template,
        {"QUESTION": q.question, "HINT": q.hint, "SCHEMA_CONTEXT": context},
    )
