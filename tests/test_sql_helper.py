"""The SQL helper: a second connection per run worker that runs a search's
statements ahead of need, on a large database, when the CPUs allow it.

Forced on (its size threshold at 0 and four CPUs to spare), a run must be
byte for byte the run without it, model calls included. Off, it must not
start a thread or open a connection.
"""

import threading
import time
from pathlib import Path

import pytest

from sqlscout.core.types import SearchConfig
from sqlscout.errors import TransportError
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark, run_one_item
from sqlscout.harness import runner as runner_module
from sqlscout.sql_exec import Sandbox, SqlHelper

from conftest import make_bird_dataset, scripted_benchmark_model
from test_connection_leaks import SPIN_SQL, recorded_connections
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


def test_run_one_item_without_a_sandbox_uses_no_helper(tmp_path, monkeypatch, set_cpus):
    env, items = restaurant_env(tmp_path)
    force_helper(monkeypatch, set_cpus, True)
    opened = recorded_connections(monkeypatch)
    threads = started_threads(monkeypatch)
    helper = SqlHelper()
    try:
        record = run_one_item(items[0], env, SearchConfig(n_rollout=6,
                                                          sql_timeout_secs=5.0),
                              helper=helper)
    finally:
        helper.close()
    assert record["error"] is None and record["ex"] == 1
    assert threads == [] and len(opened) == 1


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
