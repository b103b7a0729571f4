"""Run configuration file: INI sections mirroring the engine and endpoint settings.

Example:

    [search]
    n_rollout = 24
    t_expansion = 0.8

    [endpoint]
    base_url = http://localhost:8000/v1
    chat_model = qwen2.5-coder-7b-instruct
    cache_dir = .sqlscout-cache

Unset keys keep their defaults; environment variables fill endpoint gaps. A
key a section does not know is an error, so a misspelt setting never runs
silently with its default. A `;` after whitespace starts a comment.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import fields
from pathlib import Path

from ..core.types import SearchConfig
from ..errors import IngestionError
from ..llm_client import EndpointConfig

_SEARCH_SECTION = "search"
_ENDPOINT_SECTION = "endpoint"


def load_config(path: str | Path | None) -> tuple[SearchConfig, EndpointConfig]:
    """Parse the config file; a None path yields pure defaults plus env."""
    endpoint = EndpointConfig.from_env()
    if path is None:
        return SearchConfig(), endpoint
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(path, encoding="utf-8")

    for name, known in ((_SEARCH_SECTION, SearchConfig),
                        (_ENDPOINT_SECTION, EndpointConfig)):
        if parser.has_section(name):
            _reject_unknown_keys(parser, name, {f.name for f in fields(known)})

    search_kwargs = {}
    if parser.has_section(_SEARCH_SECTION):
        section = parser[_SEARCH_SECTION]
        for f in fields(SearchConfig):
            if f.name not in section:
                continue
            raw = section[f.name]
            try:
                search_kwargs[f.name] = (int(raw) if f.type in ("int", int)
                                         else _parse_float(raw))
            except ValueError as exc:
                raise ValueError(
                    f"bad value for {f.name!r} in [{_SEARCH_SECTION}] of the "
                    f"config file: {exc}"
                ) from exc
    cfg = SearchConfig(**search_kwargs)

    if parser.has_section(_ENDPOINT_SECTION):
        section = parser[_ENDPOINT_SECTION]
        for f in fields(EndpointConfig):
            if section.get(f.name):
                setattr(endpoint, f.name, section[f.name])
    return cfg, endpoint


def _reject_unknown_keys(parser: configparser.ConfigParser, section: str,
                         known: set[str]) -> None:
    unknown = sorted(set(parser[section]) - known)
    if unknown:
        raise IngestionError(
            f"unknown key {unknown[0]!r} in [{section}] of the config file; "
            f"known keys: {', '.join(sorted(known))}"
        )


def _parse_float(raw: str) -> float:
    # allow sqrt(2)-style spelling for the UCT constant
    text = raw.strip().lower()
    if text in ("sqrt2", "sqrt(2)"):
        return math.sqrt(2)
    return float(text)
