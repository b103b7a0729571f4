"""Parsers from raw model responses to the answers actions add to a state.

JSON-shaped responses are read from the first fenced ```json block, falling
back to the whole response. Either way the object at the first `{` is
decoded by the json module's C scanner, as written or else once more with
trailing commas removed, because models copy them from the templates.
Free-text actions take the whole trimmed response.
"""

from __future__ import annotations

import ast
import json
import logging
import re

from ..core.catalog import DatabaseCatalog
from ..core.types import ActionKind, SchemaKey
from ..errors import ContractViolation, ParseError

log = logging.getLogger(__name__)

_FENCED_JSON = re.compile(r"```json\s*(.*?)```", re.DOTALL | re.IGNORECASE)
_TRAILING_COMMA = re.compile(r",(\s*[}\]])")
_REPHRASE_MARKER = "Rephrased Question:"
_DECODER = json.JSONDecoder()


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


def _decode_object(text: str) -> dict | None:
    """The JSON object at the first `{` of `text` as written, else with
    trailing commas removed (no removal crosses the object's own braces);
    None if neither decodes."""
    for repair in (False, True):
        candidate = _TRAILING_COMMA.sub(r"\1", text) if repair else text
        start = candidate.find("{")
        if start < 0:
            return None
        try:
            return _DECODER.raw_decode(candidate, start)[0]
        except (json.JSONDecodeError, RecursionError):
            continue
    return None


def extract_json_object(raw: str) -> dict:
    fenced = _FENCED_JSON.search(raw)
    obj = _decode_object(fenced.group(1)) if fenced else None
    if obj is None:
        obj = _decode_object(raw)
    if obj is None:
        raise ParseError("no JSON object in response")
    return obj


def parse_rephrase(raw: str) -> str:
    idx = raw.rfind(_REPHRASE_MARKER)
    text = raw[idx + len(_REPHRASE_MARKER) :] if idx >= 0 else raw
    text = text.strip()
    if not text:
        raise ParseError("empty rephrased question")
    return text


def parse_schema_subset(raw: str, catalog: DatabaseCatalog) -> SchemaKey:
    """((table, (column, ...)), ...) in catalog spelling, in first-named order."""
    obj = extract_json_object(raw)
    tables: dict[str, tuple[str, ...]] = {}
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
            tables[table.name] = tuple(kept)
    if not tables:
        raise ParseError("schema selection kept no usable tables")
    return tuple(tables.items())


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


def _utf8(text: str) -> str:
    """`text`, which must have a utf-8 form: a lone surrogate (from a `\\ud800`
    escape, say) would fail every prompt, query and file it reached."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("answer has no utf-8 form") from None
    return text


def parse_action_response(action: ActionKind, raw: str,
                          catalog: DatabaseCatalog) -> str | SchemaKey:
    """The answer of an A1–A6 response: a schema selection for A2, else text."""
    if action is ActionKind.REPHRASE:
        return _utf8(parse_rephrase(raw))
    if action is ActionKind.SCHEMA_SELECT:
        return parse_schema_subset(raw, catalog)
    if action in (ActionKind.VALUE_IDENT, ActionKind.FUNCTION_IDENT):
        return _utf8(_parse_notes(raw))
    if action in (ActionKind.SQL_GENERATE, ActionKind.SQL_REVISE):
        return _utf8(parse_sql_payload(raw))
    raise ContractViolation(f"{action!r} has no response to parse")


def parse_keyword_list(raw: str) -> list[str]:
    """Keywords from the first balanced bracketed list; none found → []."""
    block = _balanced_slice(raw, "[", "]")
    if block is None:
        return []
    try:
        items = [str(x) for x in ast.literal_eval(block)]
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError):
        # not a literal list, or a degenerate one: an unhashable set member,
        # thousands of unary minuses overflowing the parser
        pairs = re.findall(r'"((?:[^"\\]|\\.)*)"|\'((?:[^\'\\]|\\.)*)\'', block)
        items = [a or b for a, b in pairs]
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
            return _utf8(matches[-1])
    raise ParseError("no SQL block in baseline response")
