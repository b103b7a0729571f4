"""Sandboxed SQL execution and result comparison.

Queries run on read-only SQLite connections under a wall-clock deadline, with
an authorizer that admits nothing but reads. A failed or timed-out query is a
value (Error/Timeout), not an exception: the search consumes failures as
revision feedback and the reward treats them as non-matching.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ContractViolation, IngestionError

ROW_CAP = 10_000
# largest string or blob a query may build, in bytes (SQLITE_LIMIT_LENGTH)
CELL_BYTE_CAP = 1 << 18
# text and blob bytes fetched per result before it is marked truncated
RESULT_BYTE_CAP = 8 << 20
# database bytes a query reads through a memory map instead of read() calls;
# scans of a 17 MB database run about a fifth faster
MMAP_BYTES = 1 << 28
# SQLite virtual-machine steps between two checks of the deadline
DEADLINE_CHECK_STEPS = 1000
_NULL = ("\x00null",)  # canonical stand-in for NULL cells; unequal to any text
# authorizer actions a read needs; ATTACH, VACUUM, PRAGMA and writes are denied
_READ_ACTIONS = frozenset({
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    sqlite3.SQLITE_RECURSIVE,
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

    SQLite's progress handler checks the deadline every DEADLINE_CHECK_STEPS
    virtual-machine steps and aborts the query once it has passed, so no
    thread is started; the connection is per-call, so an aborted query cannot
    poison later executions. An authorizer denies every action but reading,
    so a statement such as ATTACH or VACUUM INTO returns an error and touches
    no file. A string or blob longer than CELL_BYTE_CAP is an error (SQLite's
    length limit), and a result is truncated at `row_cap` rows or once its
    text and blob cells pass RESULT_BYTE_CAP (text counted in characters).
    """
    path = Path(db_path)
    if not path.exists():
        raise IngestionError(f"database file not found: {path}")
    if not sql or not sql.strip():
        return error_result("empty SQL")
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    deadline = time.monotonic() + timeout_secs
    conn.set_progress_handler(lambda: time.monotonic() > deadline,
                              DEADLINE_CHECK_STEPS)
    try:
        conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
        conn.execute("PRAGMA query_only = ON")
        conn.execute(f"PRAGMA mmap_size = {MMAP_BYTES}")
        conn.set_authorizer(_authorize_read)
        conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, CELL_BYTE_CAP)
        raw: list[tuple] = []
        size = 0
        truncated = False
        for row in conn.execute(sql):
            size += sum(len(c) for c in row if isinstance(c, (str, bytes)))
            if len(raw) == row_cap or size > RESULT_BYTE_CAP:
                truncated = True
                break
            raw.append(row)
        return rows_result(raw, truncated=truncated, multiset=multiset)
    except sqlite3.OperationalError as exc:
        if "interrupted" in str(exc).lower():
            return timeout_result()
        return error_result(str(exc))
    except (sqlite3.Error, sqlite3.Warning) as exc:
        # sqlite3.Warning covers multi-statement strings on older Pythons
        return error_result(str(exc))
    finally:
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
