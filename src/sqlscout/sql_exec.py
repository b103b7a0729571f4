"""Sandboxed SQL execution and result comparison.

Queries run on read-only SQLite connections under a wall-clock deadline, with
an authorizer that admits nothing but reads. A failed or timed-out query is a
value (Error/Timeout), not an exception: the search consumes failures as
revision feedback and the reward treats them as non-matching.
"""

from __future__ import annotations

import sqlite3
import time
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from urllib.parse import quote

from .errors import ContractViolation, IngestionError

ROW_CAP = 10_000
# characters of rows text in a result's brief form
BRIEF_CHARS = 500
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
    """Outcome of one query: 'rows' | 'error' | 'timeout'.

    `rows` is the set of rows as SQLite returned them, which execution
    accuracy compares as BIRD's evaluator does. The search compares
    `canonical_rows`, the same rows folded by `canonical_row`.
    """

    kind: str
    rows: frozenset = frozenset()
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

    @cached_property
    def canonical_rows(self) -> frozenset:
        """The rows folded by `canonical_row`, built once on first use."""
        return frozenset(canonical_row(r) for r in self.rows)

    @cached_property
    def match_key(self) -> object:
        """What equal results share: a complete result's canonical rows, a
        truncated one's own token (its true rows are unknown), None for a
        failure."""
        if self.kind != "rows":
            return None
        return object() if self.truncated else self.canonical_rows

    @cached_property
    def brief(self) -> str:
        """Short human-readable form, used in revision prompts and traces.

        Built once per result and kept on it: a revision chain asks for it
        every round, of the same memoized result.
        """
        if self.kind == "error":
            return f"Error: {self.error}"
        if self.kind == "timeout":
            return "Error: query timed out"
        rows = self.canonical_rows
        text = repr([tuple(r) for r in sorted(rows, key=repr)[:20]])
        if len(text) > BRIEF_CHARS:
            text = text[: BRIEF_CHARS - 3] + "..."
        suffix = " (truncated)" if self.truncated or len(rows) > 20 else ""
        return f"Rows: {text}{suffix}"


def rows_result(raw_rows: list[tuple], truncated: bool = False) -> ExecutionResult:
    return ExecutionResult(kind="rows", rows=frozenset(raw_rows), truncated=truncated)


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


def open_readonly(db_path: str | Path,
                  check_same_thread: bool = True) -> sqlite3.Connection:
    """A read-only connection to an existing database file.

    Every reader of a database opens it here: the catalog loader, the
    value-index build and `Sandbox`. The path is percent-encoded into the
    URI, so a `#` or `?` in it cannot cut off the path or `mode=ro`. Text is
    decoded as utf-8 with undecodable bytes replaced. A file that is not a
    database opens without error; the first statement on it raises
    `sqlite3.DatabaseError`, which each reader turns into an `IngestionError`.
    `check_same_thread` is sqlite3's own flag.
    """
    path = Path(db_path)
    if not path.exists():
        raise IngestionError(f"database file not found: {path}")
    try:
        conn = sqlite3.connect(f"file:{quote(str(path))}?mode=ro", uri=True,
                               check_same_thread=check_same_thread)
    except sqlite3.Error as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    conn.text_factory = _decode_text
    return conn


def quote_ident(name: str) -> str:
    """`name` as a double-quoted SQL identifier, embedded quotes doubled."""
    return '"' + name.replace('"', '""') + '"'


def _decode_text(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")


class Sandbox:
    """One read-only connection to a database, configured once for many statements.

    `run_benchmark` runs every item on its thread pool, one worker
    included, and keeps one sandbox per worker thread and database for the
    whole run, in one map keyed by (thread id, db_id). SQLite so reads a
    database's schema once per worker, and the run closes them all when it
    ends. On a large database a worker also keeps a second sandbox there,
    which its `HandOff` runs statements on ahead of need. `run_one_item`
    called without a sandbox opens one for its question and closes it when
    the question ends; `execute_sql` without one opens one for its single
    statement.

    One thread at a time runs statements on a sandbox. sqlite3 enforces
    that only the opening thread does, unless `check_same_thread` is False,
    which `run_benchmark` passes: its worker's second sandbox runs on the
    worker's `HandOff` thread, and the thread ending the run closes every
    sandbox once the workers have all stopped. Another thread may only
    `interrupt` it.

    Statements stay isolated on the shared connection, across the questions
    of a run as within one, because none can change its state: the
    authorizer denies writes, CREATE TEMP, ATTACH, PRAGMA, BEGIN and
    SAVEPOINT, an interrupted statement is reset by SQLite, and a truncated
    result closes its cursor before the next statement runs.
    """

    def __init__(self, db_path: str | Path, check_same_thread: bool = True):
        path = Path(db_path)
        self._conn = conn = open_readonly(path, check_same_thread)
        self._deadline = 0.0
        self._halted = False
        try:
            conn.execute("PRAGMA query_only = ON")
            conn.execute(f"PRAGMA mmap_size = {MMAP_BYTES}")
            conn.set_authorizer(_authorize_read)
            conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, CELL_BYTE_CAP)
            conn.set_progress_handler(
                lambda: self._halted or time.monotonic() > self._deadline,
                DEADLINE_CHECK_STEPS)
        except sqlite3.Error as exc:
            conn.close()
            raise IngestionError(f"cannot configure {path}: {exc}") from exc

    def run(self, sql: str, timeout_secs: float = 30.0,
            row_cap: int = ROW_CAP) -> ExecutionResult:
        """One statement under its own deadline; see `execute_sql`."""
        if not sql or not sql.strip():
            return error_result("empty SQL")
        self._deadline = time.monotonic() + timeout_secs
        cursor = self._conn.cursor()
        try:
            raw: list[tuple] = []
            size = 0
            truncated = False
            for row in cursor.execute(sql):
                size += sum(len(c) for c in row if isinstance(c, (str, bytes)))
                if len(raw) == row_cap or size > RESULT_BYTE_CAP:
                    truncated = True
                    break
                raw.append(row)
            return rows_result(raw, truncated=truncated)
        except sqlite3.OperationalError as exc:
            if "interrupted" in str(exc).lower():
                return timeout_result()
            return error_result(str(exc))
        except (sqlite3.Error, sqlite3.Warning) as exc:
            # sqlite3.Warning covers multi-statement strings on older Pythons
            return error_result(str(exc))
        except UnicodeEncodeError:  # a lone surrogate: no utf-8 form to send
            return error_result("SQL has no utf-8 form")
        finally:
            cursor.close()  # resets a statement left mid-result

    def interrupt(self) -> None:
        """Abort the statement running here, asked from any thread.

        Every statement then ends as a timeout until `resume`: SQLite drops
        an interrupt that comes before a statement's first step, so the
        progress handler checks for one too.
        """
        self._halted = True
        self._conn.interrupt()

    def resume(self) -> None:
        self._halted = False

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> Sandbox:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HandOff(NamedTuple):
    """A way to run statements ahead of need: `run_sql` on a second
    `sandbox`, on the one thread of `pool`.

    `run_benchmark` builds one per worker and large database and passes it
    to each of the worker's items there; only the worker's own thread
    starts or recalls statements, so `pool` runs one item's at a time.
    """

    pool: ThreadPoolExecutor
    sandbox: Sandbox
    run_sql: Callable[[str], ExecutionResult]

    def start(self, sql: str) -> Future:
        """`run_sql(sql)`, queued on `pool`'s thread."""
        return self.pool.submit(self.run_sql, sql)

    def recall(self, futures: Iterable[Future]) -> None:
        """Cancel those of `futures` still queued; interrupt the one running
        and wait for it, so that none runs once this returns."""
        left = [f for f in futures if not f.cancel()]
        if any(not f.done() for f in left):
            self.sandbox.interrupt()
            try:
                wait(left)
            finally:
                self.sandbox.resume()


def execute_sql(
    sql: str,
    db_path: str | Path,
    timeout_secs: float = 30.0,
    row_cap: int = ROW_CAP,
    sandbox: Sandbox | None = None,
) -> ExecutionResult:
    """Run one statement read-only with a wall-clock timeout.

    The statement runs on `sandbox`, an open `Sandbox` on the database at
    `db_path`, or, without one, on a sandbox opened and closed for this call.
    A benchmark run keeps one per worker and database, so the connection
    lives for the run and is configured once; see `Sandbox` for why its
    statements cannot affect each other.

    SQLite's progress handler checks the statement's deadline every
    DEADLINE_CHECK_STEPS virtual-machine steps and aborts it once it has
    passed, so no thread is started. An authorizer denies every action but
    reading, so a statement such as ATTACH or VACUUM INTO returns an error
    and touches no file. A string or blob longer than CELL_BYTE_CAP is an
    error (SQLite's length limit), and a result is truncated at `row_cap`
    rows or once its text and blob cells pass RESULT_BYTE_CAP (text counted
    in characters).
    """
    if sandbox is not None:
        return sandbox.run(sql, timeout_secs, row_cap)
    with Sandbox(db_path) as one_shot:
        return one_shot.run(sql, timeout_secs, row_cap)


def _authorize_read(action: int, *_: object) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ACTIONS else sqlite3.SQLITE_DENY


def same_rows_sql(a: str, b: str) -> str:
    """A query that returns 1 if queries `a` and `b` return the same set of
    rows and 0 if not: EXCEPT in both directions, each query a subquery.

    This is BIRD's execution-accuracy rule, `set(pred) == set(gold)` over
    the raw rows, decided by SQLite, so it also holds for results too large
    to fetch. Each query is cut before the `;` that ends its first complete
    statement, so a comment after it goes too, and each subquery closes on
    a new line, so that a trailing `--` comment cannot swallow the
    parenthesis. Queries of different arity make it an error.
    """
    a, b = (f"SELECT * FROM ({_first_statement(sql)}\n)" for sql in (a, b))
    return f"SELECT NOT EXISTS ({a} EXCEPT {b}) AND NOT EXISTS ({b} EXCEPT {a})"


def _first_statement(sql: str) -> str:
    """`sql` up to the `;` that ends its first complete statement, as
    `sqlite3.complete_statement` finds it past quotes and comments; all of
    `sql` when none does."""
    for end, char in enumerate(sql):
        if char == ";" and sqlite3.complete_statement(sql[:end + 1]):
            return sql[:end]
    return sql


def results_equal(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Row-set equality under canonicalization; failures never match.

    See `ExecutionResult.match_key`: an error or timeout equals nothing, not
    even itself, and a truncated result equals only the very same object.
    """
    return a.match_key is not None and a.match_key == b.match_key
