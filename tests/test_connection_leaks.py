"""Every SQLite connection the program opens is closed again.

Python warns about a connection left open only from 3.13 on, so on older
versions a leak passes unseen; these tests record the connections instead.
"""

import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import SearchConfig
from sqlscout.errors import EndpointUnavailable, IngestionError
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark, run_one_item
from sqlscout.harness import runner as runner_module
from sqlscout.sql_exec import HandOff, Sandbox
from sqlscout.value_index import build_value_index, save_index
from sqlscout.value_index import index as index_module

from conftest import scripted_benchmark_model, sql_json


def recorded_connections(monkeypatch) -> list[sqlite3.Connection]:
    """Every connection opened through `sqlite3.connect` from now on.

    `sql_exec`, `value_index.index` and `core.catalog` all call it through
    the module, so one patch sees each of them.
    """
    opened = []
    connect = sqlite3.connect

    def recording(*args, **kwargs):
        conn = connect(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording)
    return opened


def is_closed(conn: sqlite3.Connection) -> bool:
    """Whether `conn` is closed, asked from any thread.

    A statement on a connection made by another thread raises sqlite3's
    same-thread error, open or closed; reading `total_changes` checks only
    that the connection is open.
    """
    try:
        conn.total_changes
    except sqlite3.ProgrammingError as exc:
        return "closed" in str(exc)
    return False


class FailsMidSearch:
    """The scripted model, until a call past the first `after` raises `error`."""

    def __init__(self, after: int, error: type[Exception] = RuntimeError):
        self.inner = scripted_benchmark_model()
        self.after = after
        self.error = error
        self.calls = 0

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        self.calls += 1
        if self.calls > self.after:
            raise self.error("model lost mid-search")
        return self.inner.sample(prompt, temperature, max_tokens, sample_index, tag)


def test_no_connection_outlives_its_work(bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    db_path = db_root / "restaurants" / "restaurants.sqlite"
    index_dir = tmp_path / "indexes"
    opened = recorded_connections(monkeypatch)

    catalog = load_catalog(db_path, db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    built = len(opened)
    assert built and all(map(is_closed, opened))

    item = load_dataset(dataset)[0]
    cfg = SearchConfig(n_rollout=6, sql_timeout_secs=5.0)
    ok = run_one_item(item, RunEnvironment(model=scripted_benchmark_model(),
                                           db_root=db_root, index_dir=index_dir), cfg)
    assert ok["error"] is None and ok["ex"] == 1
    model = FailsMidSearch(after=12)
    failed = run_one_item(item, RunEnvironment(model=model, db_root=db_root,
                                               index_dir=index_dir), cfg)
    assert failed["error"] == "RuntimeError: model lost mid-search"
    assert len(opened) > built
    leaked = [conn for conn in opened if not is_closed(conn)]
    assert not leaked


def test_a_failed_scan_closes_its_connection(tmp_path, monkeypatch):
    db_path = tmp_path / "t.sqlite"
    conn = sqlite3.connect(db_path)
    conn.execute("CREATE TABLE t (name TEXT)")
    conn.commit()
    conn.close()
    catalog = load_catalog(db_path)
    conn = sqlite3.connect(db_path)
    conn.execute("DROP TABLE t")  # the catalog now names a table that is gone
    conn.commit()
    conn.close()
    opened = recorded_connections(monkeypatch)
    with pytest.raises(IngestionError, match="cannot scan"):
        build_value_index(catalog)
    assert len(opened) == 1 and is_closed(opened[0])


def test_a_scan_failing_on_a_helper_thread_closes_every_connection(
        tmp_path, monkeypatch, set_cpus):
    db_path = tmp_path / "t.sqlite"
    conn = sqlite3.connect(db_path)
    for t in range(3):
        conn.execute(f"CREATE TABLE t{t} (name TEXT)")
        conn.execute(f"INSERT INTO t{t} VALUES ('v{t}')")
    conn.commit()
    conn.close()
    catalog = load_catalog(db_path)
    conn = sqlite3.connect(db_path)
    conn.execute("DROP TABLE t2")  # the last table the catalog names is gone
    conn.commit()
    conn.close()
    set_cpus(1)
    with pytest.raises(IngestionError) as serial:
        build_value_index(catalog)

    # this thread holds its first table until t2 has failed, so the other
    # thread takes the second table and then t2
    failed = threading.Event()
    scan = index_module._distinct_values

    def held_scan(conn, table, column, value_cap):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=30)
        try:
            return scan(conn, table, column, value_cap)
        except IngestionError:
            failed.set()
            raise

    monkeypatch.setattr(index_module, "_distinct_values", held_scan)
    set_cpus(2)
    opened = recorded_connections(monkeypatch)
    with pytest.raises(IngestionError) as parallel:
        build_value_index(catalog)
    assert str(parallel.value) == str(serial.value) == (
        "cannot scan t2.name: no such table: t2")
    assert failed.is_set()
    assert len(opened) == 2 and all(map(is_closed, opened))


def test_is_closed_reads_a_connection_made_on_another_thread():
    with ThreadPoolExecutor(max_workers=1) as other:  # one thread makes both
        kept, dropped = (other.submit(sqlite3.connect, ":memory:").result()
                         for _ in range(2))
        other.submit(dropped.close).result()
        assert not is_closed(kept) and is_closed(dropped)
        other.submit(kept.close).result()
    assert is_closed(kept)


def test_a_pooled_run_closes_the_connections_its_workers_open(
        bird_dataset, tmp_path, monkeypatch):
    dataset, db_root = bird_dataset
    opened = recorded_connections(monkeypatch)
    # a fresh environment: the catalog loads on a worker thread, not here
    env = RunEnvironment(model=scripted_benchmark_model(), db_root=db_root)
    summary = run_benchmark(load_dataset(dataset), env,
                            SearchConfig(n_rollout=6, sql_timeout_secs=5.0),
                            tmp_path / "run", workers=2)
    assert summary["item_errors"] == 0 and summary["ex_overall"] == 1.0
    assert opened and all(map(is_closed, opened))


@pytest.mark.parametrize("ending", ["normal", "item error", "outage"])
def test_every_helper_connection_is_closed_when_the_run_ends(
        bird_dataset, tmp_path, monkeypatch, set_cpus, ending):
    dataset, db_root = bird_dataset
    set_cpus(4)
    monkeypatch.setattr(runner_module, "HELPER_MIN_DB_BYTES", 0)
    model = {"normal": scripted_benchmark_model(),
             "item error": FailsMidSearch(after=40),
             "outage": FailsMidSearch(after=40, error=EndpointUnavailable)}[ending]
    env = RunEnvironment(model=model, db_root=db_root)
    env.catalog("restaurants")  # loaded first, so that only sandboxes connect below
    opened = recorded_connections(monkeypatch)
    cfg = SearchConfig(n_rollout=6, sql_timeout_secs=5.0)
    if ending == "outage":
        with pytest.raises(EndpointUnavailable):
            run_benchmark(load_dataset(dataset), env, cfg, tmp_path / "run")
    else:
        summary = run_benchmark(load_dataset(dataset), env, cfg, tmp_path / "run")
        assert summary["item_errors"] == (ending == "item error") * 4
    assert len(opened) == 2  # the worker's sandbox and its helper's
    assert all(map(is_closed, opened))


SPIN_SQL = ("WITH RECURSIVE spin(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM spin) "
            "SELECT COUNT(*) FROM spin")


def test_a_statement_still_running_when_its_item_ends_is_interrupted_and_awaited(
        bird_dataset, monkeypatch):
    dataset, db_root = bird_dataset
    spin_started = threading.Event()
    ended = []  # (thread name, end time, outcome) of the spin query
    execute_sql = runner_module.execute_sql

    def recording(sql, *args, **kwargs):
        if sql == SPIN_SQL:
            spin_started.set()
        result = execute_sql(sql, *args, **kwargs)
        if sql == SPIN_SQL:
            ended.append((threading.current_thread().name, time.monotonic(),
                          result.kind))
        return result

    class SpinsThenFails:
        """Reward sample 0 answers the query that never ends; sample 1,
        asked once the helper runs that query, raises."""

        inner = scripted_benchmark_model()

        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            if tag == "reward" and sample_index == 0:
                return sql_json(SPIN_SQL)
            if tag == "reward" and sample_index == 1:
                assert spin_started.wait(timeout=30)
                raise RuntimeError("model lost mid-reward")
            return self.inner.sample(prompt, temperature, max_tokens,
                                     sample_index, tag)

    monkeypatch.setattr(runner_module, "execute_sql", recording)
    items = load_dataset(dataset)
    # long enough that only an interrupt ends the spin query in time
    cfg = SearchConfig(n_rollout=6, sql_timeout_secs=30.0)
    spinning, scripted = (RunEnvironment(model=model, db_root=db_root)
                          for model in (SpinsThenFails(), scripted_benchmark_model()))
    for env in (spinning, scripted):
        env.catalog("restaurants")  # loaded first, so that only sandboxes connect below
    opened = recorded_connections(monkeypatch)
    db_path = db_root / "restaurants" / "restaurants.sqlite"
    with (Sandbox(db_path) as sandbox,
          Sandbox(db_path, check_same_thread=False) as second,
          ThreadPoolExecutor(max_workers=1, thread_name_prefix="sqlscout-sql") as pool):
        ahead = HandOff(pool, second, spinning.executor("restaurants", cfg, second))
        start = time.monotonic()
        failed = run_one_item(items[0], spinning, cfg, sandbox=sandbox, ahead=ahead)
        returned = time.monotonic()
        assert failed["error"] == "RuntimeError: model lost mid-reward"
        [(thread, spin_end, outcome)] = ended
        assert thread.startswith("sqlscout-sql") and outcome == "timeout"
        assert spin_end <= returned and returned - start < 15
        # the second sandbox runs the next item's statements in full
        ok = run_one_item(items[1], scripted, cfg, sandbox=sandbox, ahead=ahead)
        assert ok["error"] is None and ok["ex"] == 1
    assert len(opened) == 2 and all(map(is_closed, opened))
