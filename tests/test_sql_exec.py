"""Sandboxed execution and canonical comparison."""

import hashlib
import random
import sqlite3
import threading
import time

import pytest

from sqlscout.errors import ContractViolation, IngestionError
from sqlscout.sql_exec import (
    CELL_BYTE_CAP,
    RESULT_BYTE_CAP,
    ExecutionResult,
    canonical_cell,
    error_result,
    execute_sql,
    memoize_executor,
    results_equal,
    rows_result,
    timeout_result,
)

from conftest import GOLD_SQL, GOLD_SQL_ALT


# ---- canonicalization ----

def test_canonical_cell_numeric_folding():
    assert canonical_cell(3) == 3
    assert canonical_cell(3.0) == 3
    assert canonical_cell("3") == 3
    assert canonical_cell(" 3 ") == 3
    assert canonical_cell("3.0") == 3
    assert canonical_cell(True) == 1
    assert canonical_cell(2.5) == canonical_cell("2.50")


def test_canonical_cell_float_rounding():
    assert canonical_cell(0.1234564) == canonical_cell(0.1234565)  # 1e-7 apart
    assert canonical_cell(1.0) != canonical_cell(1.1)
    assert canonical_cell(float("nan")) == "nan"
    assert canonical_cell(float("inf")) == "inf"


def test_canonical_cell_null_is_private():
    null = canonical_cell(None)
    assert null == canonical_cell(None)
    assert null != canonical_cell("null")
    assert null != canonical_cell("")
    assert null != canonical_cell(0)


def test_canonical_cell_strings_trimmed_not_folded():
    assert canonical_cell("  thai ") == "thai"
    assert canonical_cell("thai") != canonical_cell("Thai")  # values stay case-sensitive


def test_rows_result_set_semantics():
    a = rows_result([(1, "x"), (1, "x"), (2, "y")])
    b = rows_result([(2, "y"), (1, "x")])
    assert results_equal(a, b)


def test_rows_result_multiset_semantics():
    a = rows_result([(1,), (1,), (2,)], multiset=True)
    b = rows_result([(2,), (1,)], multiset=True)
    c = rows_result([(1,), (2,), (1,)], multiset=True)
    assert not results_equal(a, b)
    assert results_equal(a, c)


# ---- results_equal is an equivalence relation on row outcomes ----

def random_result(rng: random.Random) -> ExecutionResult:
    n = rng.randrange(0, 5)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(rng.randrange(1, 4)):
            row.append(rng.choice([
                None, 0, 1, 2.5, 2.5 + 1e-9, "a", " a", "b", True, "2.5",
            ]))
        rows.append(tuple(row))
    return rows_result(rows)


def test_results_equal_equivalence_relation():
    rng = random.Random(3)
    pool = [random_result(rng) for _ in range(40)]
    for a in pool:
        assert results_equal(a, a)  # reflexive on row outcomes
    for a in pool:
        for b in pool:
            assert results_equal(a, b) == results_equal(b, a)  # symmetric
    for a in pool:
        for b in pool:
            if not results_equal(a, b):
                continue
            for c in pool:
                if results_equal(b, c):
                    assert results_equal(a, c)  # transitive


def test_failures_equal_nothing():
    err = error_result("no such table: t")
    assert not results_equal(err, err)
    assert not results_equal(err, error_result("no such table: t"))
    assert not results_equal(timeout_result(), timeout_result())
    assert not results_equal(err, rows_result([]))
    assert not results_equal(rows_result([]), timeout_result())


def test_truncated_results_equal_only_themselves():
    a = rows_result([(1,)], truncated=True)
    b = rows_result([(1,)], truncated=True)
    assert results_equal(a, a)
    assert not results_equal(a, b)
    assert not results_equal(a, rows_result([(1,)]))


def test_result_kind_validation():
    with pytest.raises(ContractViolation):
        ExecutionResult(kind="ok")
    with pytest.raises(ContractViolation):
        ExecutionResult(kind="error")


# ---- execute_sql ----

def test_execute_basic_query(restaurant_db):
    res = execute_sql("SELECT COUNT(*) FROM generalinfo", restaurant_db)
    assert res.is_rows
    assert res.rows == frozenset({(7,)})


def test_gold_queries_agree(restaurant_db):
    a = execute_sql(GOLD_SQL, restaurant_db)
    b = execute_sql(GOLD_SQL_ALT, restaurant_db)
    assert results_equal(a, b)
    assert a.rows == frozenset({(4,)})


def test_execute_syntax_error(restaurant_db):
    res = execute_sql("SELEC COUNT(*) FROM generalinfo", restaurant_db)
    assert res.kind == "error"
    assert "syntax" in res.error.lower() or "near" in res.error.lower()


def test_execute_missing_table(restaurant_db):
    res = execute_sql("SELECT * FROM nope", restaurant_db)
    assert res.kind == "error"
    assert "nope" in res.error


def test_execute_empty_sql(restaurant_db):
    assert execute_sql("", restaurant_db).kind == "error"
    assert execute_sql("   ", restaurant_db).kind == "error"


def test_execute_missing_db(tmp_path):
    with pytest.raises(IngestionError):
        execute_sql("SELECT 1", tmp_path / "absent.sqlite")


def test_execute_row_cap_marks_truncated(restaurant_db):
    res = execute_sql("SELECT * FROM generalinfo", restaurant_db, row_cap=3)
    assert res.is_rows
    assert res.truncated
    assert len(res.rows) == 3


def test_execute_rejects_writes(restaurant_db):
    before = hashlib.sha256(restaurant_db.read_bytes()).hexdigest()
    for sql in (
        "DELETE FROM generalinfo",
        "INSERT INTO generalinfo VALUES (99, 'x', 'thai', 'albany', 1.0)",
        "UPDATE generalinfo SET review = 0",
        "DROP TABLE location",
        "CREATE TABLE sneak (x INT)",
    ):
        res = execute_sql(sql, restaurant_db)
        assert res.kind == "error", sql
    after = hashlib.sha256(restaurant_db.read_bytes()).hexdigest()
    assert before == after  # database file untouched


def test_execute_creates_no_file(restaurant_db, tmp_path):
    # ATTACH and VACUUM INTO open a file of their own, outside the read-only
    # connection; only the authorizer keeps them from creating it
    for sql in ("ATTACH DATABASE '{p}' AS sneak", "VACUUM INTO '{p}'"):
        target = tmp_path / "created.sqlite"
        res = execute_sql(sql.format(p=target), restaurant_db)
        assert res.kind == "error", sql
        assert not target.exists(), sql


@pytest.mark.skipif(not hasattr(sqlite3.Connection, "setlimit"),
                    reason="SQLite's length limit is settable from Python 3.11")
def test_execute_bounds_cell_size(restaurant_db):
    res = execute_sql("SELECT randomblob(1000000)", restaurant_db)
    assert res.kind == "error"
    assert "too big" in res.error
    fits = execute_sql(f"SELECT length(randomblob({CELL_BYTE_CAP}))", restaurant_db)
    assert fits.rows == frozenset({(CELL_BYTE_CAP,)})


def test_execute_truncates_at_result_byte_cap(restaurant_db):
    res = execute_sql(
        "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
        "WHERE i < 100) SELECT i, randomblob(200000) FROM n", restaurant_db)
    assert res.kind == "rows" and res.truncated
    assert 0 < len(res.rows) < 100
    assert sum(len(blob) for _, blob in res.rows) <= RESULT_BYTE_CAP


def test_execute_admits_recursive_and_nested_reads(restaurant_db):
    counted = execute_sql(
        "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
        "WHERE i < 5) SELECT SUM(i) FROM n", restaurant_db)
    assert counted.rows == frozenset({(15,)})
    nested = execute_sql(
        "SELECT label FROM generalinfo WHERE id_restaurant IN "
        "(SELECT id_restaurant FROM location WHERE street_name = 'shattuck ave')",
        restaurant_db)
    assert nested.rows == frozenset({("thai garden",)})


def test_memoize_executor_runs_each_sql_once(restaurant_db):
    ran = []

    def executor(sql):
        ran.append(sql)
        return execute_sql(sql, restaurant_db, row_cap=1)

    memo = memoize_executor(executor)
    assert memoize_executor(memo) is memo
    first = memo("SELECT label FROM generalinfo")
    assert memo("SELECT label FROM generalinfo") is first
    memo("SELECT 1")
    assert ran == ["SELECT label FROM generalinfo", "SELECT 1"]
    assert first.truncated and results_equal(first, memo("SELECT label FROM generalinfo"))


def test_execute_multi_statement_rejected(restaurant_db):
    res = execute_sql(
        "SELECT 1; DELETE FROM generalinfo", restaurant_db)
    assert res.kind == "error"
    check = execute_sql("SELECT COUNT(*) FROM generalinfo", restaurant_db)
    assert check.rows == frozenset({(7,)})


SLOW_SQL = """
WITH RECURSIVE spin(n) AS (
  SELECT 1 UNION ALL SELECT n + 1 FROM spin
)
SELECT COUNT(*) FROM spin
"""


def test_execute_timeout_within_budget(restaurant_db):
    start = time.monotonic()
    res = execute_sql(SLOW_SQL, restaurant_db, timeout_secs=0.5)
    elapsed = time.monotonic() - start
    assert res.kind == "timeout"
    assert elapsed < 1.5


def test_execute_starts_no_thread(restaurant_db, monkeypatch):
    started = []
    real_start = threading.Thread.start

    def record(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    assert execute_sql(SLOW_SQL, restaurant_db, timeout_secs=0.2).kind == "timeout"
    assert execute_sql(GOLD_SQL, restaurant_db).rows == frozenset({(4,)})
    assert started == []


def test_timeout_does_not_poison_later_queries(restaurant_db):
    execute_sql(SLOW_SQL, restaurant_db, timeout_secs=0.2)
    res = execute_sql("SELECT COUNT(*) FROM location", restaurant_db)
    assert res.rows == frozenset({(7,)})


def test_brief_rendering(restaurant_db):
    res = execute_sql("SELECT COUNT(*) FROM generalinfo", restaurant_db)
    assert res.brief().startswith("Rows:")
    assert "(7,)" in res.brief()
    assert error_result("boom").brief() == "Error: boom"
    assert timeout_result().brief() == "Error: query timed out"
    long = rows_result([(i, "x" * 40) for i in range(30)])
    assert len(long.brief(limit=200)) <= 220
    assert "truncated" in long.brief()


def test_distinct_row_order_ignored(tmp_path):
    db = tmp_path / "o.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (x INT)")
    conn.executemany("INSERT INTO t VALUES (?)", [(3,), (1,), (2,)])
    conn.commit()
    conn.close()
    asc = execute_sql("SELECT x FROM t ORDER BY x", db)
    desc = execute_sql("SELECT x FROM t ORDER BY x DESC", db)
    assert results_equal(asc, desc)
