"""The SQL helper: a second connection per run worker that runs a search's
statements ahead of need, on a large database, when the CPUs allow it.

Forced on (its size threshold at 0 and four CPUs to spare), a run must be
byte for byte the run without it, model calls included. Off, it must not
start a thread or open a connection.
"""

import json
import shutil
import sqlite3
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from sqlscout.core.types import SearchConfig
from sqlscout.errors import EndpointUnavailable, TransportError
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark
from sqlscout.harness import runner as runner_module
from sqlscout.harness.runner import REPORT_NAME, load_report_records
from sqlscout.sql_exec import Sandbox

from conftest import make_bird_dataset, scripted_benchmark_model
from test_connection_leaks import SPIN_SQL, is_closed, recorded_connections
from test_golden_runs import scripted_run

HELPER_THREAD = "sqlscout-sql"


class PacedModel:
    """The scripted model, a little slower than the helper's thread wakes:
    the restaurants database answers faster than that, so without the pause
    the search would take back every statement before the helper ran one.

    With `lose_rewards`, every reward call of sample index 2 is lost and
    every one of index 3 does not parse. Each call asked is kept.
    """

    def __init__(self, inner, lose_rewards: bool = False):
        self.inner = inner
        self.lose_rewards = lose_rewards
        self.calls = []

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        self.calls.append((prompt, temperature, sample_index, tag))
        time.sleep(0.0003)
        if self.lose_rewards and tag == "reward" and sample_index == 2:
            raise TransportError("reward sample lost")
        if self.lose_rewards and tag == "reward" and sample_index == 3:
            return "no query here"
        return self.inner.sample(prompt, temperature, max_tokens, sample_index, tag)


def statement_threads(monkeypatch) -> list[str]:
    """The name of the thread of each statement the run executes."""
    names = []
    execute_sql = runner_module.execute_sql

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return execute_sql(*args, **kwargs)

    monkeypatch.setattr(runner_module, "execute_sql", recording)
    return names


def started_threads(monkeypatch) -> list[str]:
    """The name of every thread started from now on."""
    names = []
    start = threading.Thread.start

    def recording(self):
        names.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names


def force_helper(monkeypatch, set_cpus, on: bool) -> None:
    set_cpus(4)
    if on:
        monkeypatch.setattr(runner_module, "HELPER_MIN_DB_BYTES", 0)


@pytest.mark.parametrize("fixture", ["restaurants", "failing terminal, lost sample"])
def test_a_run_with_the_helper_is_the_run_without_it(tmp_path, monkeypatch,
                                                     set_cpus, fixture):
    runs, calls = {}, {}
    for on in (False, True):
        with monkeypatch.context() as patch:
            force_helper(patch, set_cpus, on)
            threads = statement_threads(patch)
            if fixture == "restaurants":
                model = PacedModel(scripted_benchmark_model())
            else:
                model = PacedModel(scripted_benchmark_model(broken_a5_sample=1),
                                   lose_rewards=True)
            root = tmp_path / f"helper-{on}"
            root.mkdir()
            runs[on] = scripted_run(root, 0, True, model=model)
        calls[on] = model.calls  # (prompt, temperature, index, tag), in order
        helped = sum(name.startswith(HELPER_THREAD) for name in threads)
        assert bool(helped) == on, (on, helped)
    assert runs[True] == runs[False]
    assert calls[True] == calls[False]
    if fixture != "restaurants":
        assert b'"outcome": "error"' in runs[False]["report"]  # a failing terminal
        assert any(tag == "reward" and index == 2 for *_, index, tag in calls[False])


def restaurant_env(tmp_path: Path) -> tuple[RunEnvironment, list]:
    dataset, db_root = make_bird_dataset(tmp_path / "data")
    env = RunEnvironment(model=scripted_benchmark_model(), db_root=db_root)
    env.catalog("restaurants")  # loaded first, so that only sandboxes connect below
    return env, load_dataset(dataset)


@pytest.mark.parametrize("case", ["below the size", "too few CPUs", "baseline mode"])
def test_no_helper_starts_when_a_gate_is_shut(tmp_path, monkeypatch, set_cpus, case):
    env, items = restaurant_env(tmp_path)
    force_helper(monkeypatch, set_cpus, case != "below the size")
    if case == "below the size":
        size = env.db_path("restaurants").stat().st_size
        assert size < runner_module.HELPER_MIN_DB_BYTES
    if case == "too few CPUs":
        set_cpus(3)  # two workers and their helpers would need four
    opened = recorded_connections(monkeypatch)
    threads = started_threads(monkeypatch)
    summary = run_benchmark(items, env, SearchConfig(n_rollout=6, sql_timeout_secs=5.0),
                            tmp_path / "run", workers=2,
                            mode="baseline" if case == "baseline mode" else "mcts")
    assert summary["item_errors"] == 0 and summary["ex_overall"] == 1.0
    assert not [name for name in threads if name.startswith(HELPER_THREAD)]
    assert 1 <= len(opened) <= 2  # the workers' own sandboxes


def test_each_worker_has_one_helper_when_the_gates_are_open(tmp_path, monkeypatch,
                                                            set_cpus):
    env, items = restaurant_env(tmp_path)
    force_helper(monkeypatch, set_cpus, True)
    opened = recorded_connections(monkeypatch)
    threads = started_threads(monkeypatch)
    summary = run_benchmark(items, env,
                            SearchConfig(n_rollout=6, sql_timeout_secs=5.0),
                            tmp_path / "run", workers=1)
    assert summary["item_errors"] == 0 and summary["ex_overall"] == 1.0
    assert [name for name in threads if name.startswith(HELPER_THREAD)] == [
        f"{HELPER_THREAD}_0"]
    assert len(opened) == 2


def two_database_dataset(root: Path) -> tuple[Path, Path]:
    """The four benchmark questions, the last two on `eateries`, a copy of
    the restaurants database."""
    dataset, db_root = make_bird_dataset(root)
    (db_root / "eateries").mkdir()
    shutil.copyfile(db_root / "restaurants" / "restaurants.sqlite",
                    db_root / "eateries" / "eateries.sqlite")
    questions = json.loads(dataset.read_text(encoding="utf-8"))
    for question in questions[2:]:
        question["db_id"] = "eateries"
    dataset.write_text(json.dumps(questions), encoding="utf-8")
    return dataset, db_root


class FailsOnTheLastQuestion(PacedModel):
    """The paced scripted model; every call about the last question raises
    `error`."""

    def __init__(self, error: type[Exception]):
        super().__init__(scripted_benchmark_model())
        self.error = error

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        if "highest review" in prompt.lower():
            raise self.error("model lost on the last question")
        return super().sample(prompt, temperature, max_tokens, sample_index, tag)


def databases_connected(monkeypatch) -> list[tuple[str, sqlite3.Connection]]:
    """The database file's stem and the connection of every
    `sqlite3.connect` from now on."""
    opened = []
    connect = sqlite3.connect

    def recording(database, *args, **kwargs):
        conn = connect(database, *args, **kwargs)
        opened.append((Path(database.split("?")[0]).stem, conn))
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording)
    return opened


def run_artifacts(out: Path) -> dict:
    """Every file a run wrote; its records without `elapsed_secs`."""
    records = load_report_records(out / REPORT_NAME)
    for record in records.values():
        del record["elapsed_secs"]
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in out.rglob("*") if path.is_file()}
    del files[REPORT_NAME]
    return {"records": records, **files}


@pytest.mark.parametrize("ending", ["normal", "item error", "outage"])
def test_a_worker_keeps_two_connections_per_database_and_closes_them(
        tmp_path, monkeypatch, set_cpus, ending):
    runs, calls = {}, {}
    for on in (False, True):
        with monkeypatch.context() as patch:
            force_helper(patch, set_cpus, on)
            dataset, db_root = two_database_dataset(tmp_path / f"helper-{on}")
            model = {"normal": PacedModel(scripted_benchmark_model()),
                     "item error": FailsOnTheLastQuestion(RuntimeError),
                     "outage": FailsOnTheLastQuestion(EndpointUnavailable)}[ending]
            env = RunEnvironment(model=model, db_root=db_root)
            for db_id in ("restaurants", "eateries"):
                env.catalog(db_id)  # loaded first, so that only sandboxes connect below
            opened = databases_connected(patch)
            threads = started_threads(patch)
            out = tmp_path / f"run-{on}"
            cfg = SearchConfig(n_rollout=6, sql_timeout_secs=5.0)
            if ending == "outage":
                with pytest.raises(EndpointUnavailable):
                    run_benchmark(load_dataset(dataset), env, cfg, out,
                                  write_traces=True)
            else:
                summary = run_benchmark(load_dataset(dataset), env, cfg, out,
                                        write_traces=True)
                assert summary["item_errors"] == (ending == "item error")
        runs[on], calls[on] = run_artifacts(out), model.calls
        assert Counter(db for db, _ in opened) == {"restaurants": 1 + on,
                                                   "eateries": 1 + on}
        assert all(is_closed(conn) for _, conn in opened)
        assert [name for name in threads if name.startswith(HELPER_THREAD)] == (
            [f"{HELPER_THREAD}_0"] if on else [])
    assert len(runs[False]["records"]) == (3 if ending == "outage" else 4)
    assert runs[True] == runs[False]
    assert calls[True] == calls[False]


def test_an_interrupt_before_the_statement_starts_still_stops_it(tmp_path):
    """SQLite forgets an interrupt that comes while no statement runs; the
    sandbox must not: until `resume`, every statement ends as a timeout."""
    _, db_root = make_bird_dataset(tmp_path)
    with Sandbox(db_root / "restaurants" / "restaurants.sqlite") as sandbox:
        sandbox.interrupt()
        start = time.monotonic()
        assert sandbox.run(SPIN_SQL, timeout_secs=30.0).kind == "timeout"
        assert time.monotonic() - start < 10
        sandbox.resume()
        assert sandbox.run("SELECT COUNT(*) FROM generalinfo").rows == {(7,)}
