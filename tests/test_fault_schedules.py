"""Random fault schedules on the model path never escape as exceptions.

Each schedule wraps the scripted restaurants model and decides, call by
call, whether the call answers, raises `TransportError` or `ProtocolError`,
returns text no action can parse, or answers a query-writing call with SQL
that runs until its deadline stops it. Whatever the schedule, the search and
`run_one_item` must not raise, the search's closing `audit_tree` must hold,
and the record must carry every key.
"""

from collections import Counter

import pytest

import sqlscout.harness.runner as runner
import sqlscout.mcts as mcts
from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import SearchConfig
from sqlscout.errors import ProtocolError, TransportError
from sqlscout.harness import RunEnvironment, load_dataset, run_one_item
from sqlscout.mcts import prepare_context, run_search
from sqlscout.value_index import build_value_index, save_index

from conftest import make_bird_dataset, scripted_benchmark_model, sql_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FAULTS = ("ok", "transport", "protocol", "unparseable", "slow")
# a schedule repeats through the calls, so every stage meets its faults
SCHEDULES = st.lists(st.sampled_from(FAULTS), min_size=1, max_size=12)
# short, so that each slow query costs the test little time
CFG = SearchConfig(n_rollout=6, n_expansion=2, n_reward=3, n_revision=2,
                   sql_timeout_secs=0.2)
SLOW_SQL = ("WITH RECURSIVE spin(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM spin) "
            "SELECT COUNT(*) FROM spin")
# a "slow" call that writes a query answers this; any other call answers as "ok"
SLOW_ANSWERS = {"A5": sql_json(SLOW_SQL), "A6": sql_json(SLOW_SQL),
                "reward": sql_json(SLOW_SQL), "baseline": f"<sql>{SLOW_SQL}</sql>"}
RECORD_KEYS = {
    "question_id", "db_id", "difficulty", "mode", "sql", "ex", "broken_gold",
    "low_confidence", "class_size", "candidates", "model_calls", "error",
    "elapsed_secs",
}


class ScheduledModel:
    """The scripted model, with call i faulted as `schedule[i % len]` says."""

    def __init__(self, schedule: list[str]):
        self.inner = scripted_benchmark_model()
        self.schedule = schedule
        self.calls = 0
        self.lost_rewards = 0

    def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
        fault = self.schedule[self.calls % len(self.schedule)]
        self.calls += 1
        if tag == "reward" and fault in ("transport", "protocol"):
            self.lost_rewards += 1
        if fault == "transport":
            raise TransportError("connection reset")
        if fault == "protocol":
            raise ProtocolError("chat response content is not text")
        if fault == "unparseable":
            return " \n"
        if fault == "slow" and tag in SLOW_ANSWERS:
            return SLOW_ANSWERS[tag]
        return self.inner.sample(prompt, temperature, max_tokens, sample_index,
                                 tag=tag)


def tree_nodes(root):
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children.values())
    return out


def test_fault_schedules_cost_samples_not_questions(tmp_path, monkeypatch):
    dataset, db_root = make_bird_dataset(tmp_path)
    index_dir = tmp_path / "indexes"
    catalog = load_catalog(db_root / "restaurants" / "restaurants.sqlite",
                           db_id="restaurants")
    save_index(build_value_index(catalog), index_dir / "restaurants.jsonl")
    item = load_dataset(dataset)[0]
    audited = []
    audit = mcts.audit_tree

    def recording_audit(root):
        audit(root)
        audited.append(root)

    monkeypatch.setattr(mcts, "audit_tree", recording_audit)
    seen: Counter = Counter()
    execute_sql = runner.execute_sql

    def recording_execute(*args, **kwargs):
        result = execute_sql(*args, **kwargs)
        seen["timeout"] += result.kind == "timeout"
        return result

    monkeypatch.setattr(runner, "execute_sql", recording_execute)

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(SCHEDULES)
    def check(schedule):
        model = ScheduledModel(schedule)
        env = RunEnvironment(model=model, db_root=db_root, index_dir=index_dir)
        ctx = prepare_context(item.question, CFG, model, env.catalog(item.db_id),
                              env.executor(item.db_id, CFG),
                              value_index=env.value_index(item.db_id))
        audited.clear()
        trajectories = run_search(ctx)
        assert len(audited) == 1  # the closing audit ran and held
        root = audited[0]
        assert all(t.nodes[0] is root for t in trajectories)
        seen["dead"] += sum(node.dead for node in tree_nodes(root))
        seen["lost_reward"] += model.lost_rewards

        record = run_one_item(item, env, CFG)
        assert set(record) == RECORD_KEYS
        assert record["ex"] in (0, 1)
        assert record["error"] is None  # a lost call costs a sample, or the SQL

    check()
    # the schedules reached the fault paths they are meant to test
    assert seen["dead"] and seen["lost_reward"] and seen["timeout"], seen
