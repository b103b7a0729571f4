"""Every SQLite connection the program opens is closed again.

Python warns about a connection left open only from 3.13 on, so on older
versions a leak passes unseen; these tests record the connections instead.
"""

import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import SearchConfig
from sqlscout.errors import IngestionError
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark, run_one_item
from sqlscout.value_index import build_value_index, save_index
from sqlscout.value_index import index as index_module

from conftest import scripted_benchmark_model


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
    """The scripted model, until a call past the first `after` raises."""

    def __init__(self, after: int):
        self.inner = scripted_benchmark_model()
        self.after = after
        self.calls = 0

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        self.calls += 1
        if self.calls > self.after:
            raise RuntimeError("model lost mid-search")
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
