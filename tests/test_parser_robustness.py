"""No model response makes a parser raise anything but `ParseError`.

A search reads every sample through these parsers, so an exception of any
other kind would cost the whole question instead of one sample. Arbitrary
text, text drawn from the characters the parsers look for, and nestings too
deep for the json module or Python's parser must each give an answer or a
`ParseError`; a keyword answer always gives a list.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlscout.action_model.parser import (
    parse_action_response,
    parse_baseline_sql,
    parse_keyword_list,
)
from sqlscout.core.catalog import ColumnDef, DatabaseCatalog, TableDef
from sqlscout.core.types import ActionKind
from sqlscout.errors import ParseError

CATALOG = DatabaseCatalog(
    db_id="shop", db_path="shop.sqlite", foreign_keys=[],
    tables=[TableDef("orders", [ColumnDef("id", "INTEGER", primary_key=True),
                                ColumnDef("status", "TEXT")])],
)
ACTIONS = [a for a in ActionKind if a is not ActionKind.TERMINATE]

DEEP = [
    "{" * 5000,
    '{"a": ' + "[" * 3000,
    '{"deep": ' + "[" * 3000 + "]" * 3000 + "}",
    '{"a": ' + "[" * 3000 + "]" * 3000 + ",}",
    "```json\n" + '{"sql_query": ' * 3000 + "```",
    '{"orders": [' + "[" * 900 + "]" * 900 + "]}",
    "[" * 5000,
    "[" + "-" * 5000 + "1]",
    "[" + "-" * 10000 + "1]",
    "[" + "(" * 5000 + ")" * 5000 + "]",
    "[{[]: 1}]",
    "[0x" + "f" * 5000 + "]",  # more digits than str() of an int allows
    "<sql>" * 5000 + "</sql>" * 5000,
    "```sql\n" * 5000,
]
# the characters the JSON, keyword and SQL parsers branch on; the first
# backtick becomes a ```json fence opener
STRUCTURED = st.text(alphabet='{}[]()"\'\\,:-1a `\n', max_size=80).map(
    lambda s: s.replace("`", "```json\n", 1))


def check_all_parsers(raw: str) -> None:
    for action in ACTIONS:
        try:
            answer = parse_action_response(action, raw, CATALOG)
        except ParseError:
            continue
        assert isinstance(answer, (str, tuple)), (action, answer)
    keywords = parse_keyword_list(raw)
    assert isinstance(keywords, list)
    assert all(isinstance(k, str) and k for k in keywords)
    try:
        assert isinstance(parse_baseline_sql(raw), str)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None, database=None)
@given(st.text())
def test_arbitrary_text_parses_or_is_a_parse_error(raw):
    check_all_parsers(raw)


@settings(max_examples=300, deadline=None, database=None)
@given(STRUCTURED)
def test_structured_text_parses_or_is_a_parse_error(raw):
    check_all_parsers(raw)


@pytest.mark.parametrize("raw", DEEP, ids=range(len(DEEP)))
def test_deep_nesting_parses_or_is_a_parse_error(raw):
    check_all_parsers(raw)
