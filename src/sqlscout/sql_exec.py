"""Sandboxed SQL execution, result comparison, and the execution-accuracy metric.

Queries run on read-only SQLite connections under a wall-clock timeout, with
an authorizer that admits nothing but reads. A failed or timed-out query is a
value (Error/Timeout), not an exception: the search consumes failures as
revision feedback and the reward treats them as non-matching.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ContractViolation, IngestionError

ROW_CAP = 10_000
_NULL = ("\x00null",)  # canonical stand-in for NULL cells; unequal to any text
# authorizer actions a read needs; ATTACH, VACUUM, PRAGMA and writes are denied
_READ_ACTIONS = frozenset({
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    getattr(sqlite3, "SQLITE_RECURSIVE", 33),  # the module names it from 3.11
})


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one query: 'rows' | 'error' | 'timeout'."""

    kind: str
    rows: frozenset | tuple = frozenset()
    error: str = ""
    truncated: bool = False

    def __post_init__(self):
        if self.kind not in ("rows", "error", "timeout"):
            raise ContractViolation(f"unknown outcome kind {self.kind!r}")
        if self.kind == "error" and not self.error:
            raise ContractViolation("error outcome requires a message")

    @property
    def is_rows(self) -> bool:
        return self.kind == "rows"

    def brief(self, limit: int = 500) -> str:
        """Short human-readable form, used in revision prompts and traces."""
        if self.kind == "error":
            return f"Error: {self.error}"
        if self.kind == "timeout":
            return "Error: query timed out"
        shown = sorted(self.rows, key=repr)[:20] if isinstance(self.rows, frozenset) \
            else list(self.rows)[:20]
        text = repr([tuple(r) for r in shown])
        if len(text) > limit:
            text = text[: limit - 3] + "..."
        suffix = " (truncated)" if self.truncated or len(self.rows) > 20 else ""
        return f"Rows: {text}{suffix}"


def rows_result(raw_rows: list[tuple], truncated: bool = False,
                multiset: bool = False) -> ExecutionResult:
    canon = [canonical_row(r) for r in raw_rows]
    if multiset:
        return ExecutionResult(kind="rows", rows=tuple(sorted(canon, key=repr)),
                               truncated=truncated)
    return ExecutionResult(kind="rows", rows=frozenset(canon), truncated=truncated)


def error_result(message: str) -> ExecutionResult:
    return ExecutionResult(kind="error", error=message or "unknown error")


def timeout_result() -> ExecutionResult:
    return ExecutionResult(kind="timeout")


def canonical_cell(cell):
    """Fold a cell to its comparison form.

    NULL maps to a private sentinel; anything numeric (including numeric
    strings) is rounded to 6 decimal places so float formatting differences
    within 1e-6 land on the same value; other strings are compared trimmed.
    Rounding, rather than pairwise tolerance, keeps equality transitive.
    """
    if cell is None:
        return _NULL
    if isinstance(cell, bool):
        return int(cell)
    if isinstance(cell, int):
        return cell
    if isinstance(cell, float):
        return _fold_float(cell)
    if isinstance(cell, bytes):
        return cell
    if isinstance(cell, str):
        text = cell.strip()
        try:
            return _fold_float(float(text))
        except (ValueError, OverflowError):
            return text
    return str(cell)


def _fold_float(x: float):
    if x != x or x in (float("inf"), float("-inf")):
        return repr(x)
    rounded = round(x, 6)
    as_int = int(rounded)
    return as_int if rounded == as_int else rounded


def canonical_row(row) -> tuple:
    return tuple(canonical_cell(c) for c in row)


def execute_sql(
    sql: str,
    db_path: str | Path,
    timeout_secs: float = 30.0,
    row_cap: int = ROW_CAP,
    multiset: bool = False,
) -> ExecutionResult:
    """Run one statement read-only with a wall-clock timeout.

    The timeout interrupts the query from a timer thread; the connection is
    per-call, so an interrupted query cannot poison later executions. An
    authorizer denies every action but reading, so a statement such as
    ATTACH or VACUUM INTO returns an error and touches no file.
    """
    path = Path(db_path)
    if not path.exists():
        raise IngestionError(f"database file not found: {path}")
    if not sql or not sql.strip():
        return error_result("empty SQL")
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                               check_same_thread=False)
    except sqlite3.Error as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    timed_out = threading.Event()

    def _interrupt():
        timed_out.set()
        conn.interrupt()

    timer = threading.Timer(timeout_secs, _interrupt)
    timer.start()
    try:
        conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
        conn.execute("PRAGMA query_only = ON")
        conn.set_authorizer(_authorize_read)
        cursor = conn.execute(sql)
        raw = cursor.fetchmany(row_cap + 1)
        truncated = len(raw) > row_cap
        return rows_result(raw[:row_cap], truncated=truncated, multiset=multiset)
    except sqlite3.OperationalError as exc:
        if timed_out.is_set() or "interrupted" in str(exc).lower():
            return timeout_result()
        return error_result(str(exc))
    except (sqlite3.Error, sqlite3.Warning) as exc:
        # sqlite3.Warning covers multi-statement strings on older Pythons
        return error_result(str(exc))
    finally:
        timer.cancel()
        conn.close()


def _authorize_read(action: int, *_: object) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ACTIONS else sqlite3.SQLITE_DENY


class _MemoizedExecutor:
    def __init__(self, executor: Callable[[str], ExecutionResult]):
        self._executor = executor
        self._cache: dict[str, ExecutionResult] = {}

    def __call__(self, sql: str) -> ExecutionResult:
        if sql not in self._cache:
            self._cache[sql] = self._executor(sql)
        return self._cache[sql]


def memoize_executor(
    executor: Callable[[str], ExecutionResult],
) -> Callable[[str], ExecutionResult]:
    """Wrap `executor` so each distinct SQL string runs once.

    Repeats return the very same result object, so a truncated result still
    equals itself under `results_equal`. An executor this function already
    wrapped is returned as is, so callers that memoize defensively share one
    cache instead of stacking another.
    """
    if isinstance(executor, _MemoizedExecutor):
        return executor
    return _MemoizedExecutor(executor)


def results_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Row-set equality under canonicalization; failures never match.

    Error and Timeout outcomes equal nothing, including identical errors. A
    truncated row set is only equal to the very same object, since its true
    contents are unknown.
    """
    if a.kind != "rows" or b.kind != "rows":
        return False
    if a.truncated or b.truncated:
        return a is b
    return a.rows == b.rows


@dataclass
class AccuracyReport:
    accuracy: float
    item_scores: list[int]
    broken_gold: list[int] = field(default_factory=list)
    by_difficulty: dict[str, float] = field(default_factory=dict)


def execution_accuracy(
    predicted: list[str],
    gold: list[str],
    db_paths: list[str | Path],
    timeout_secs: float = 30.0,
    difficulties: list[str] | None = None,
    multiset: bool = False,
) -> AccuracyReport:
    """Fraction of items whose predicted and gold queries return equal results.

    Items whose gold query itself fails score 0 and are listed in
    broken_gold. With `difficulties`, a per-label breakdown is included.
    """
    if not (len(predicted) == len(gold) == len(db_paths)):
        raise ContractViolation("predicted, gold, and db_paths must align")
    if difficulties is not None and len(difficulties) != len(gold):
        raise ContractViolation("difficulties must align with items")
    scores: list[int] = []
    broken: list[int] = []
    for i, (p, g, db) in enumerate(zip(predicted, gold, db_paths)):
        gold_result = execute_sql(g, db, timeout_secs, multiset=multiset)
        if not gold_result.is_rows:
            broken.append(i)
            scores.append(0)
            continue
        pred_result = execute_sql(p, db, timeout_secs, multiset=multiset)
        scores.append(int(results_equal(pred_result, gold_result)))
    by_difficulty: dict[str, float] = {}
    if difficulties is not None and scores:
        for label in sorted(set(difficulties)):
            picked = [s for s, d in zip(scores, difficulties) if d == label]
            by_difficulty[label] = sum(picked) / len(picked)
    accuracy = sum(scores) / len(scores) if scores else 0.0
    return AccuracyReport(accuracy=accuracy, item_scores=scores,
                          broken_gold=broken, by_difficulty=by_difficulty)
