"""Parsers from raw model responses to the answers actions add to a state.

JSON-shaped responses are read from the first fenced ```json block, falling
back to the first balanced-brace object anywhere in the text; trailing commas
are tolerated because models copy them from the templates. Free-text actions
take the whole trimmed response.
"""

from __future__ import annotations

import ast
import json
import logging
import re

from ..core.catalog import DatabaseCatalog
from ..core.types import ActionKind
from ..errors import ContractViolation, ParseError

log = logging.getLogger(__name__)

_FENCED_JSON = re.compile(r"```json\s*(.*?)```", re.DOTALL | re.IGNORECASE)
_TRAILING_COMMA = re.compile(r",(\s*[}\]])")
_REPHRASE_MARKER = "Rephrased Question:"


def _balanced_slice(text: str, open_ch: str, close_ch: str) -> str | None:
    start = text.find(open_ch)
    if start < 0:
        return None
    depth = 0
    in_string: str | None = None
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == in_string:
                in_string = None
            continue
        if ch in "\"'":
            in_string = ch
        elif ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def _loads_lenient(payload: str) -> dict:
    for candidate in (payload, _TRAILING_COMMA.sub(r"\1", payload)):
        try:
            obj = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
        raise ParseError("JSON payload is not an object")
    raise ParseError("cannot decode JSON payload")


def extract_json_object(raw: str) -> dict:
    fenced = _FENCED_JSON.search(raw)
    if fenced:
        body = fenced.group(1)
        block = _balanced_slice(body, "{", "}") or body
        try:
            return _loads_lenient(block)
        except ParseError:
            pass  # fall through to scanning the whole response
    block = _balanced_slice(raw, "{", "}")
    if block is None:
        raise ParseError("no JSON object in response")
    return _loads_lenient(block)


def parse_rephrase(raw: str) -> str:
    idx = raw.rfind(_REPHRASE_MARKER)
    text = raw[idx + len(_REPHRASE_MARKER) :] if idx >= 0 else raw
    text = text.strip()
    if not text:
        raise ParseError("empty rephrased question")
    return text


def parse_schema_subset(raw: str, catalog: DatabaseCatalog) -> dict[str, list[str]]:
    obj = extract_json_object(raw)
    tables: dict[str, list[str]] = {}
    for key, value in obj.items():
        if key == "chain_of_thought_reasoning" or not isinstance(value, list):
            continue
        table = catalog.table(str(key))
        if table is None:
            log.warning("schema selection names unknown table %r; dropped", key)
            continue
        kept: list[str] = []
        for item in value:
            col = table.column(str(item))
            if col is None:
                log.warning(
                    "schema selection names unknown column %r.%r; dropped",
                    key, item,
                )
                continue
            if col.name not in kept:
                kept.append(col.name)
        if kept:
            tables[table.name] = kept
    if not tables:
        raise ParseError("schema selection kept no usable tables")
    return tables


def parse_sql_payload(raw: str) -> str:
    obj = extract_json_object(raw)
    sql = obj.get("sql_query")
    if not isinstance(sql, str) or not sql.strip():
        raise ParseError("response carries no sql_query")
    return sql.strip()


def _parse_notes(raw: str) -> str:
    text = raw.strip()
    if not text:
        raise ParseError("empty response")
    return text


def parse_action_response(action: ActionKind, raw: str,
                          catalog: DatabaseCatalog) -> str | dict[str, list[str]]:
    """The answer of an A1–A6 response: a schema map for A2, else text."""
    if action is ActionKind.REPHRASE:
        return parse_rephrase(raw)
    if action is ActionKind.SCHEMA_SELECT:
        return parse_schema_subset(raw, catalog)
    if action in (ActionKind.VALUE_IDENT, ActionKind.FUNCTION_IDENT):
        return _parse_notes(raw)
    if action in (ActionKind.SQL_GENERATE, ActionKind.SQL_REVISE):
        return parse_sql_payload(raw)
    raise ContractViolation(f"{action!r} has no response to parse")


def parse_keyword_list(raw: str) -> list[str]:
    """Keywords from the first balanced bracketed list; none found → []."""
    block = _balanced_slice(raw, "[", "]")
    if block is None:
        return []
    items: list[str] | None = None
    try:
        parsed = ast.literal_eval(block)
        if isinstance(parsed, (list, tuple)):
            items = [str(x) for x in parsed]
    except (ValueError, SyntaxError):
        items = None
    if items is None:
        items = re.findall(r'"((?:[^"\\]|\\.)*)"|\'((?:[^\'\\]|\\.)*)\'', block)
        items = [a or b for a, b in items]
    out: list[str] = []
    for item in items:
        text = item.strip()
        if text and text not in out:
            out.append(text)
    return out


_SQL_TAG = re.compile(r"<sql>(.*?)</sql>", re.DOTALL | re.IGNORECASE)
_FENCED_SQL = re.compile(r"```(?:sql)?\s*(.*?)```", re.DOTALL | re.IGNORECASE)


def parse_baseline_sql(raw: str) -> str:
    """Final SQL from a baseline response: last <sql> block, else last code fence."""
    for pattern in (_SQL_TAG, _FENCED_SQL):
        matches = [m.group(1).strip() for m in pattern.finditer(raw)]
        matches = [m for m in matches if m]
        if matches:
            return matches[-1]
    raise ParseError("no SQL block in baseline response")
