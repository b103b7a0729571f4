"""Every SQLite connection the program opens is closed again.

Python warns about a connection left open only from 3.13 on, so on older
versions a leak passes unseen; these tests record the connections instead.
"""

import sqlite3

import pytest

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import SearchConfig
from sqlscout.errors import IngestionError
from sqlscout.harness import RunEnvironment, load_dataset, run_one_item
from sqlscout.value_index import build_value_index, save_index

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
    try:
        conn.execute("SELECT 1")
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
