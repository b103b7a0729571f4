"""Benchmark dataset loading and deterministic subsampling."""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

from ..core.types import NLQuestion
from ..errors import ContractViolation, IngestionError

@dataclass(frozen=True)
class BenchmarkItem:
    question_id: str
    question: NLQuestion
    gold_sql: str
    difficulty: str = "unknown"

    @property
    def db_id(self) -> str:
        return self.question.db_id


def load_dataset(path: str | Path, fmt: str = "bird") -> list[BenchmarkItem]:
    """Read a question file (JSON array or JSONL) into benchmark items.

    Field errors name the offending record index so broken exports are
    easy to locate.
    """
    if fmt not in ("bird", "spider"):
        raise IngestionError(f"unknown dataset format: {fmt!r}")
    records = _read_records(Path(path))
    items = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise IngestionError(f"record {i} is not an object")
        if fmt == "bird":
            items.append(_bird_item(record, i))
        else:
            items.append(_spider_item(record, i))
    return items


def _read_records(path: Path) -> list:
    if not path.exists():
        raise IngestionError(f"dataset file not found: {path}")
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise IngestionError(f"dataset file is empty: {path}")
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, list):
            raise IngestionError(f"expected a JSON array in {path}")
        return data
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise IngestionError(f"invalid JSON on line {lineno} of {path}") from exc
    return records


def _require(record: dict, key: str, index: int) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value.strip():
        raise IngestionError(f"record {index} missing field {key!r}")
    return value.strip()


def _bird_item(record: dict, index: int) -> BenchmarkItem:
    question = _require(record, "question", index)
    db_id = _require(record, "db_id", index)
    gold = _require(record, "SQL", index)
    hint = record.get("evidence") or ""
    if not isinstance(hint, str):
        raise IngestionError(f"record {index} field 'evidence' is not text")
    difficulty = record.get("difficulty") or "unknown"
    qid = record.get("question_id")
    qid = str(qid) if qid is not None else str(index)
    return BenchmarkItem(
        question_id=qid,
        question=NLQuestion(question=question, hint=hint.strip(), db_id=db_id),
        gold_sql=gold,
        difficulty=str(difficulty),
    )


def _spider_item(record: dict, index: int) -> BenchmarkItem:
    question = _require(record, "question", index)
    db_id = _require(record, "db_id", index)
    gold = _require(record, "query", index)
    difficulty = record.get("difficulty") or record.get("hardness")
    if not difficulty:
        difficulty = estimate_spider_hardness(gold)
    qid = record.get("question_id")
    qid = str(qid) if qid is not None else str(index)
    return BenchmarkItem(
        question_id=qid,
        question=NLQuestion(question=question, hint="", db_id=db_id),
        gold_sql=gold,
        difficulty=str(difficulty),
    )


# ---- approximate Spider hardness ----

_AGG_RE = re.compile(r"\b(count|sum|avg|min|max)\s*\(", re.IGNORECASE)
_NESTED_RE = re.compile(r"\(\s*select\b", re.IGNORECASE)
_SETOP_RE = re.compile(r"\b(intersect|except|union)\b", re.IGNORECASE)


def estimate_spider_hardness(sql: str) -> str:
    """Bucket a query by structural complexity.

    Regex counting over the raw SQL, not a parse, so it only approximates
    the reference bucketing; close enough to report a difficulty split.
    """
    s = " ".join(sql.split()).lower()
    component1 = sum(
        1
        for token in (" where ", " group by ", " order by ", " limit ",
                      " join ", " or ", " like ")
        if token in f" {s} "
    )
    component2 = len(_NESTED_RE.findall(s)) + len(_SETOP_RE.findall(s))
    others = 0
    if len(_AGG_RE.findall(s)) > 1:
        others += 1
    if _clause_items(s, "select", ("from",)) > 1:
        others += 1
    if _condition_count(s) > 1:
        others += 1
    if _clause_items(s, "group by", ("order", "limit", "having")) > 1:
        others += 1

    if component1 <= 1 and component2 == 0 and others == 0:
        return "easy"
    if component2 == 0 and (
        (others <= 2 and component1 <= 1) or (others < 2 and component1 <= 2)
    ):
        return "medium"
    if (
        (component2 == 0 and ((others > 2 and component1 <= 2)
                              or (others <= 2 and component1 <= 3)))
        or (component1 <= 1 and others == 0 and component2 <= 1)
    ):
        return "hard"
    return "extra"


def _clause_items(s: str, opener: str, closers: tuple[str, ...]) -> int:
    start = s.find(opener + " ")
    if start < 0:
        return 0
    start += len(opener) + 1
    end = len(s)
    for closer in closers:
        pos = s.find(" " + closer, start)
        if 0 <= pos < end:
            end = pos
    clause = s[start:end]
    return _top_level_commas(clause) + 1


def _top_level_commas(clause: str) -> int:
    depth = 0
    count = 0
    for ch in clause:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            count += 1
    return count


def _condition_count(s: str) -> int:
    start = s.find(" where ")
    if start < 0:
        return 0
    clause = s[start + len(" where "):]
    for closer in (" group by ", " order by ", " limit "):
        pos = clause.find(closer)
        if pos >= 0:
            clause = clause[:pos]
    return 1 + len(re.findall(r"\b(and|or)\b", clause))


# ---- subsampling ----

def subsample_sds(
    items: list[BenchmarkItem],
    fraction: float = 0.10,
    seed: int = 0,
) -> list[BenchmarkItem]:
    """Stratified subsample: the same fraction drawn from every database.

    Each database gives its item count times `fraction`, rounded up, at
    least one and at most all of its items. Deterministic for a given
    (items, fraction, seed); output keeps the original item order. A
    fraction outside (0, 1], NaN included, is rejected.
    """
    if not 0 < fraction <= 1:  # also rejects NaN
        raise ContractViolation(f"subsample fraction must be in (0, 1], got {fraction}")
    groups: dict[str, list[int]] = {}
    for pos, item in enumerate(items):
        groups.setdefault(item.db_id, []).append(pos)
    chosen: set[int] = set()
    rng = random.Random(seed)
    for db_id in sorted(groups):
        positions = groups[db_id]
        k = max(1, min(len(positions), math.ceil(len(positions) * fraction)))
        chosen.update(rng.sample(positions, k))
    return [item for pos, item in enumerate(items) if pos in chosen]


def load_question_ids(path: str | Path) -> list[str]:
    """Read a question-id list: JSON array, or one id per line."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"id file not found: {path}")
    text = path.read_text(encoding="utf-8")
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"invalid JSON in {path}: {exc}") from exc
        return [str(v) for v in data]
    return [line.strip() for line in text.splitlines() if line.strip()]


def filter_by_ids(
    items: list[BenchmarkItem], ids: list[str]
) -> list[BenchmarkItem]:
    """Keep only the listed question ids, preserving dataset order."""
    wanted = set(ids)
    kept = [item for item in items if item.question_id in wanted]
    missing = wanted - {item.question_id for item in kept}
    if missing:
        sample = ", ".join(sorted(missing)[:5])
        raise IngestionError(f"{len(missing)} listed ids not in dataset: {sample}")
    return kept


def difficulty_counts(items: list[BenchmarkItem]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for item in items:
        counts[item.difficulty] = counts.get(item.difficulty, 0) + 1
    return dict(sorted(counts.items()))
