from .artifacts import advance, fingerprint, normalize_sql
from .parser import (
    extract_json_object,
    parse_action_response,
    parse_baseline_sql,
    parse_keyword_list,
)
from .prompts import (
    ACTION_ASSETS,
    BASELINE_ASSET,
    KEYWORD_ASSET,
    build_action_prompt,
    build_baseline_prompt,
    build_keyword_prompt,
)
from .runner import extract_keywords, run_action

__all__ = [
    "ACTION_ASSETS",
    "BASELINE_ASSET",
    "KEYWORD_ASSET",
    "advance",
    "build_action_prompt",
    "build_baseline_prompt",
    "build_keyword_prompt",
    "extract_json_object",
    "extract_keywords",
    "fingerprint",
    "normalize_sql",
    "parse_action_response",
    "parse_baseline_sql",
    "parse_keyword_list",
    "run_action",
]
