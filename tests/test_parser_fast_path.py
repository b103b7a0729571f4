"""`extract_json_object` decodes in C first; it must agree with the brace scan.

The reference below is the parser as it was before the C fast path: the
first balanced-brace slice (fenced block first), then `json.loads` with a
trailing-comma repair. For every response, the fast parser must return the
same dict or raise `ParseError` exactly when the reference does (the
reference's `RecursionError` on too deeply nested JSON counts as one).
"""

from __future__ import annotations

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlscout.action_model.parser import extract_json_object
from sqlscout.errors import ParseError

# ---- reference: the balanced-slice implementation, kept verbatim ----

_FENCED_JSON = re.compile(r"```json\s*(.*?)```", re.DOTALL | re.IGNORECASE)
_TRAILING_COMMA = re.compile(r",(\s*[}\]])")


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


def reference_extract(raw: str) -> dict:
    fenced = _FENCED_JSON.search(raw)
    if fenced:
        body = fenced.group(1)
        block = _balanced_slice(body, "{", "}") or body
        try:
            return _loads_lenient(block)
        except ParseError:
            pass
    block = _balanced_slice(raw, "{", "}")
    if block is None:
        raise ParseError("no JSON object in response")
    return _loads_lenient(block)


def outcome(extract, raw: str):
    try:
        return ("dict", extract(raw))
    except ParseError:
        return ("parse error",)
    except RecursionError:
        # nesting too deep for the json module: the reference raises it, the
        # parser must turn it into a ParseError
        if extract is reference_extract:
            return ("parse error",)
        raise


# ---- responses: JSON with awkward strings, prose around it, fences ----

# braces, brackets and both quotes inside strings; backslashes make escapes
AWKWARD = st.text(alphabet="ab {}[]\"'\\,:\n\té", max_size=12)
SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False) | AWKWARD)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(AWKWARD, inner, max_size=4),
    max_leaves=12,
)
OBJECTS = st.dictionaries(AWKWARD, VALUES, max_size=5)
PROSE = st.text(alphabet="ab it's {}[]\"'`\n", max_size=20)


@st.composite
def json_text(draw) -> str:
    """A serialized object or non-object, perhaps damaged as a model would."""
    value = draw(st.one_of(OBJECTS, OBJECTS, VALUES))
    text = json.dumps(value, indent=draw(st.sampled_from([None, 1, 2])),
                      ensure_ascii=draw(st.booleans()))
    closers = [m.start() for m in re.finditer(r"[}\]]", text)]
    if closers and draw(st.booleans()):  # a trailing comma before a closer
        at = draw(st.sampled_from(closers))
        text = text[:at] + "," + draw(st.sampled_from(["", " ", "\n"])) + text[at:]
    if draw(st.integers(0, 5)) == 0:  # cut short
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def responses(draw) -> str:
    parts = [draw(PROSE)]
    for _ in range(draw(st.integers(1, 2))):
        body = draw(json_text())
        if draw(st.booleans()):
            fence = draw(st.sampled_from(["```json\n", "```JSON ", "```json"]))
            body = fence + body + draw(st.sampled_from(["\n```", "```", ""]))
        parts += [body, draw(PROSE)]
    return "".join(parts)


@settings(max_examples=300, deadline=None, database=None)
@given(responses())
def test_fast_path_agrees_with_the_balanced_scan(raw):
    assert outcome(extract_json_object, raw) == outcome(reference_extract, raw)


@settings(max_examples=150, deadline=None, database=None)
@given(OBJECTS, PROSE, PROSE)
def test_valid_objects_decode_as_written(obj, before, after):
    # prose before the object holds no brace, so the object is the first one
    before = before.replace("{", "(")
    raw = before + json.dumps(obj) + after
    assert extract_json_object(raw) == reference_extract(raw) == obj


def test_known_shapes_agree():
    for raw in [
        'it\'s {"a": "}"} and {"b": 1}',
        '{"a": "\\"{"}',
        '{"a": 1,}',
        '```json\n[1, 2]\n```\n{"a": 1}',
        '```json\n{"a": 1,\n```\ntail {"b": 2}',
        "{'a': 1}",
        '"just a string"',
        '{"a": [1, 2,], }',
        "{" * 5000,
        '{"a": ' + "[" * 3000,  # too deep for the C scanner, and unbalanced
        '{"deep": ' + "[" * 3000 + "]" * 3000 + "}",
    ]:
        assert outcome(extract_json_object, raw) == outcome(reference_extract, raw), raw


def test_repair_over_the_whole_text_agrees():
    # the parser repairs trailing commas over the whole text, the reference
    # over the balanced block only: these are the shapes where the two differ
    for raw in [
        '{"a": "x,}", "b": 1,}',                        # a "trailing comma" in a string
        'see (x, } and y, ]) {"a": [1, 2,], "b": 3,}',  # prose with `, }` before
        '```json\n{"a": 1\n```\nthen {"b": [2,],}',     # fenced body fails
        '```json\n{"a": 1,}\n```\n{"b": 2}',             # fenced body repaired
        '{"a": ' + "[" * 3000 + "]" * 3000 + ",}",      # too deep either way
        '{"a": ' + "[" * 3000 + "]" * 3000 + ',} {"b": 1,}',
    ]:
        assert outcome(extract_json_object, raw) == outcome(reference_extract, raw), raw
