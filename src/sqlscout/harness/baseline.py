"""Single-shot generation: one greedy completion, no search."""

from __future__ import annotations

import logging

from ..action_model.parser import parse_baseline_sql
from ..action_model.prompts import build_baseline_prompt
from ..core.catalog import DatabaseCatalog
from ..core.types import NLQuestion
from ..errors import ParseError
from ..llm_client import ChatModel

log = logging.getLogger(__name__)


def baseline_generate(question: NLQuestion, catalog: DatabaseCatalog,
                      model: ChatModel, max_tokens: int) -> str:
    """One temperature-0 call; unparseable output degrades to an empty query."""
    raw = model.sample(build_baseline_prompt(question, catalog), 0.0,
                       max_tokens, 0, tag="baseline")
    try:
        return parse_baseline_sql(raw)
    except ParseError as exc:
        log.warning("baseline output had no usable query: %s", exc)
        return ""
