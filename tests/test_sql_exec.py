"""Sandboxed execution and canonical comparison."""

import hashlib
import random
import sqlite3
import threading
import time

import pytest

from sqlscout.core.types import NLQuestion, SearchConfig
from sqlscout.errors import ContractViolation, IngestionError
from sqlscout.mcts import RolloutContext
from sqlscout.sql_exec import (
    CELL_BYTE_CAP,
    RESULT_BYTE_CAP,
    ExecutionResult,
    Sandbox,
    canonical_cell,
    error_result,
    execute_sql,
    results_equal,
    rows_result,
    same_rows_sql,
    timeout_result,
)

from conftest import GOLD_SQL, GOLD_SQL_ALT, scripted_pipeline_model


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


def test_sql_without_utf8_form_is_an_error_result(restaurant_db):
    result = execute_sql("SELECT '\ud800'", restaurant_db)
    assert result.kind == "error" and "utf-8" in result.error
    with Sandbox(restaurant_db) as sandbox:
        assert sandbox.run("SELECT '\udfff'").kind == "error"
        assert sandbox.run("SELECT 1").rows == {(1,)}  # the connection still serves


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


def test_memoize_executor_runs_each_sql_once(restaurant_catalog, restaurant_db):
    # the per-question memo is RolloutContext.execute
    ran = []

    def executor(sql):
        ran.append(sql)
        return execute_sql(sql, restaurant_db, row_cap=1)

    ctx = RolloutContext(NLQuestion(question="q", db_id="restaurants"),
                         SearchConfig(sql_timeout_secs=5.0),
                         scripted_pipeline_model(), restaurant_catalog, executor)
    first = ctx.execute("SELECT label FROM generalinfo")
    assert ctx.execute("SELECT label FROM generalinfo") is first
    ctx.execute("SELECT 1")
    assert ran == ["SELECT label FROM generalinfo", "SELECT 1"]
    # a truncated result equals only itself, so the repeat must be that object
    assert first.truncated and results_equal(first, ctx.execute("SELECT label FROM generalinfo"))


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
    assert res.brief.startswith("Rows:")
    assert "(7,)" in res.brief
    assert error_result("boom").brief == "Error: boom"
    assert timeout_result().brief == "Error: query timed out"
    long = rows_result([(i, "x" * 40) for i in range(30)])
    # the rows text is cut to 500 characters, the last three "...", and 30
    # rows, of which 20 are shown, add the suffix
    assert len(long.brief) == len("Rows: ") + 500 + len(" (truncated)")
    assert long.brief.endswith("... (truncated)")
    assert rows_result([(1, "x")], truncated=True).brief == \
        "Rows: [(1, 'x')] (truncated)"
    assert rows_result([(1, "x")]).brief == "Rows: [(1, 'x')]"


def test_brief_is_built_once_per_result():
    # a revision chain reads it every round, of the same memoized result
    res = rows_result([(i, "x" * 40) for i in range(30)])
    assert "brief" not in vars(res)  # built on first use
    text = res.brief
    assert vars(res)["brief"] is text and res.brief is text
    # the kept text is no field: equality and hash are the result's own
    fresh = rows_result([(i, "x" * 40) for i in range(30)])
    assert res == fresh and hash(res) == hash(fresh)


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


# ---- one sandbox connection runs every statement of a question ----

COUNT_SQL = "SELECT COUNT(*) FROM location"


def test_sandbox_runs_rows_after_a_timeout(restaurant_db):
    with Sandbox(restaurant_db) as sandbox:
        assert sandbox.run(SLOW_SQL, timeout_secs=0.2).kind == "timeout"
        # the deadline is per statement: the next one, long enough for the
        # progress handler to look at it, gets a fresh budget
        counted = sandbox.run(
            "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n "
            "WHERE i < 100000) SELECT COUNT(*) FROM n", timeout_secs=5.0)
        assert counted.rows == frozenset({(100000,)})
        assert execute_sql(GOLD_SQL, restaurant_db,
                           sandbox=sandbox).rows == frozenset({(4,)})


@pytest.mark.parametrize("denied", [
    "CREATE TEMP TABLE location (x INT)",
    "CREATE TEMP VIEW location AS SELECT 1",
    "ATTACH DATABASE ':memory:' AS sneak",
    "PRAGMA query_only = OFF",
    "PRAGMA temp.cache_size = 1",
    "BEGIN",
    "BEGIN IMMEDIATE",
    "SAVEPOINT sneak",
    "DELETE FROM location",
])
def test_sandbox_denied_statement_leaves_the_next_unchanged(restaurant_db, denied):
    with Sandbox(restaurant_db) as sandbox:
        before = sandbox.run(COUNT_SQL)
        assert sandbox.run(denied).kind == "error", denied
        assert sandbox.run(COUNT_SQL).rows == before.rows == frozenset({(7,)})
        # no transaction was left open and no write went through
        assert sandbox.run("DELETE FROM location").kind == "error"
        assert sandbox.run(COUNT_SQL).rows == before.rows


def test_sandbox_truncated_result_does_not_affect_the_next(restaurant_db):
    with Sandbox(restaurant_db) as sandbox:
        cut = sandbox.run("SELECT * FROM generalinfo", row_cap=2)
        assert cut.truncated and len(cut.rows) == 2
        whole = sandbox.run("SELECT * FROM generalinfo")
        assert not whole.truncated and len(whole.rows) == 7
        # the cut statement holds no read lock: another connection can write
        sandbox.run("SELECT * FROM generalinfo", row_cap=1)
        writer = sqlite3.connect(restaurant_db, timeout=0)
        try:
            writer.execute("UPDATE generalinfo SET review = 5.0 WHERE id_restaurant = 1")
            writer.commit()
        finally:
            writer.close()
        assert sandbox.run("SELECT review FROM generalinfo WHERE id_restaurant = 1"
                           ).rows == frozenset({(5,)})


def test_sandbox_checks_its_file_and_closes(restaurant_db, tmp_path):
    with pytest.raises(IngestionError):
        Sandbox(tmp_path / "absent.sqlite")
    sandbox = Sandbox(restaurant_db)
    assert sandbox.run("") == error_result("empty SQL")
    sandbox.close()
    with pytest.raises(sqlite3.ProgrammingError):
        sandbox.run(COUNT_SQL)


def test_one_shot_execute_matches_a_sandbox(restaurant_db):
    queries = [GOLD_SQL, GOLD_SQL_ALT, "SELEC 1", COUNT_SQL,
               "SELECT label, review FROM generalinfo"]
    with Sandbox(restaurant_db) as sandbox:
        for sql in queries:
            assert execute_sql(sql, restaurant_db) == sandbox.run(sql), sql


# ---- whole-row-set comparison in SQLite ----

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
# few distinct values, so that equal sets come up often; 1 and 1.0 are equal
# in Python and in SQLite alike
CELLS = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from([0.5, 1.0, -2.0]),
                  st.sampled_from(["a", "b", "1", ""]), st.sampled_from([b"a", b""]))
ROWS = st.lists(st.tuples(CELLS, CELLS), max_size=6)


def same_rows_in_sqlite(pred_rows, gold_rows) -> tuple[bool, set, set]:
    conn = sqlite3.connect(":memory:")
    try:
        for name, rows in (("p", pred_rows), ("g", gold_rows)):
            conn.execute(f"CREATE TABLE {name} (a, b)")  # no type affinity
            conn.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
        pred = set(conn.execute("SELECT a, b FROM p"))
        gold = set(conn.execute("SELECT a, b FROM g"))
        (same,), = conn.execute(same_rows_sql("SELECT a, b FROM p;",
                                              "SELECT a, b FROM g"))
    finally:
        conn.close()
    return bool(same), pred, gold


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(ROWS, ROWS, st.booleans())
def test_same_rows_sql_agrees_with_python_sets(pred, gold, reuse):
    if reuse:  # the same set in another order, with repeats
        gold = list(reversed(pred)) + pred[:2]
    same, pred_set, gold_set = same_rows_in_sqlite(pred, gold)
    assert same == (pred_set == gold_set)


def test_same_rows_sql_fails_on_other_arity_and_survives_comments(restaurant_db):
    with Sandbox(restaurant_db) as sandbox:
        assert sandbox.run(same_rows_sql("SELECT 1 -- one", " SELECT 1.0 ;\n"),
                           row_cap=1).rows == {(1,)}
        # cut at the end of the statement: a `--` in a literal stays
        assert sandbox.run(same_rows_sql("SELECT 'a -- b;'; -- one",
                                         "SELECT 'a -- b;' /* ; */ ;;")
                           ).rows == {(1,)}
        assert sandbox.run(same_rows_sql("SELECT 1", "SELECT 2")).rows == {(0,)}
        assert sandbox.run(same_rows_sql("SELECT 1", "SELECT 1, 1")).kind == "error"
        cte = "WITH c(n) AS (SELECT 1 UNION SELECT 2) SELECT n FROM c"
        assert sandbox.run(same_rows_sql(cte, "SELECT 2 UNION SELECT 1")
                           ).rows == {(1,)}
