"""Where the benchmark hooks into each layer, and the per-layer metrics.

Layers are named after the program's modules. Every hook replaces a public
function in the namespace that looks it up at call time, so nothing under
`src/` changes. Untraced rounds install only two hooks: one times each
question, the other keeps what value retrieval returned for the checks.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

import sqlscout.action_model.prompts as prompts
import sqlscout.action_model.runner as action_runner
import sqlscout.harness.runner as runner
import sqlscout.mcts as mcts
import sqlscout.reward_select as reward_select
from sqlscout.value_index import ValueIndex

from endpoint import Call
from tracing import Patches, Span, Tracer, layer_self_times, self_times

CALL_TAGS = ("keywords", "A1", "A2", "A3", "A4", "A5", "A6", "reward")
_ACTION_TAGS = {"A1", "A2", "A3", "A4", "A5", "A6"}
PER_LAYER = {
    **{f"llm_client.calls.{tag}": "count" for tag in CALL_TAGS},
    "llm_client.wait_s": "s", "llm_client.slot_wait_s": "s",
    "llm_client.max_in_flight": "count", "llm_client.calls_in_series": "count",
    "llm_client.repeat_calls": "count",
    "action_model.prompt_builds": "count", "action_model.prompt_build_ms_p50": "ms",
    "action_model.prompt_kchars_p50": "kchar", "action_model.parsed_ratio": "ratio",
    "action_model.self_s": "s",
    "core.renders": "count", "core.render_ms_p50": "ms", "core.render_s": "s",
    "core.catalog_load_s": "s",
    "mcts.self_s": "s", "mcts.nodes": "count", "mcts.expansions": "count",
    "mcts.terminals": "count", "mcts.dead_nodes": "count",
    "reward_select.reward_s": "s", "reward_select.select_s": "s",
    "reward_select.select_execs": "count", "reward_select.self_s": "s",
    "sql_exec.calls": "count", "sql_exec.ms_p50": "ms", "sql_exec.ms_p90": "ms",
    "sql_exec.s": "s", "sql_exec.distinct_ratio": "ratio", "sql_exec.rows": "count",
    "sql_exec.errors": "count", "sql_exec.timeouts": "count",
    "value_index.build_s": "s", "value_index.save_s": "s", "value_index.load_s": "s",
    "value_index.records": "count", "value_index.buckets": "count",
    "value_index.retrieve_ms_p50": "ms", "value_index.retrieve_ms_p90": "ms",
    "value_index.candidates_per_keyword": "count",
    "harness.overhead_s": "s", "harness.gold_execs": "count",
    "trace.overhead_ratio": "ratio",
}
# the layers' self times must add up to the traced question time within this
SELF_TIME_TOLERANCE = 0.01


def _retrieved_rows(result) -> list[tuple[str, str, str]]:
    return [(r.record.table, r.record.column, r.record.value) for r in result]


def install_timing(patches: Patches, question_times: list[tuple[str, float]],
                   retrieved: dict[tuple[str, ...], list], before=None) -> None:
    """Untraced rounds: (question id, wall clock) per question, and retrieval
    results. `before`, if given, runs ahead of each question, untimed."""
    run_one_item = runner.run_one_item
    retrieve_values = mcts.retrieve_values

    def timed(item, *args, **kwargs):
        if before is not None:
            before()
        start = time.perf_counter()
        try:
            return run_one_item(item, *args, **kwargs)
        finally:
            question_times.append((item.question_id, time.perf_counter() - start))

    def keep(index, keywords, embedder, cfg):
        result = retrieve_values(index, keywords, embedder, cfg)
        retrieved[tuple(keywords)] = _retrieved_rows(result)
        return result

    patches.set(runner, "run_one_item", timed)
    patches.set(mcts, "retrieve_values", keep)


def install_setup_tracing(patches: Patches, tracer: Tracer) -> None:
    """Set-up spans: catalog and index loading as `sqlscout run` does it."""
    patches.set(runner, "load_catalog",
                tracer.wrap("core.load_catalog", runner.load_catalog))
    patches.set(runner, "attach_descriptions",
                tracer.wrap("core.attach_descriptions", runner.attach_descriptions))
    patches.set(runner, "load_index",
                tracer.wrap("value_index.load_index", runner.load_index,
                            info=lambda a, k, r: (len(r.records), len(r.buckets))))


def install_tracing(patches: Patches, tracer: Tracer,
                    retrieved: dict[tuple[str, ...], list]) -> None:
    """Traced rounds: one span around every call into each layer."""
    def keep(args, kwargs, result):
        retrieved[tuple(args[1])] = _retrieved_rows(result)

    wrap = tracer.wrap
    patches.set(runner, "run_one_item", wrap(
        "harness.run_one_item", runner.run_one_item,
        qid_of=lambda a, k: a[0].question_id))
    patches.set(runner, "run_search", wrap(
        "mcts.run_search", runner.run_search, info=lambda a, k, r: r))
    patches.set(runner, "select_final", wrap(
        "reward_select.select_final", runner.select_final))
    patches.set(runner, "execute_sql", wrap(
        "sql_exec.execute_sql", runner.execute_sql,
        info=lambda a, k, r: (a[0], r.kind)))
    patches.set(mcts, "run_action", wrap(
        "action_model.run_action", mcts.run_action,
        info=lambda a, k, r: sum(1 for _, raw in r if raw)))
    patches.set(mcts, "compute_reward", wrap(
        "reward_select.compute_reward", mcts.compute_reward))
    patches.set(mcts, "retrieve_values", wrap(
        "value_index.retrieve_values", mcts.retrieve_values, info=keep))
    patches.set(ValueIndex, "candidate_ids", wrap(
        "value_index.candidate_ids", ValueIndex.candidate_ids,
        info=lambda a, k, r: len(r)))
    for owner in (action_runner, reward_select):
        patches.set(owner, "build_action_prompt", wrap(
            "action_model.build_action_prompt", owner.build_action_prompt,
            info=lambda a, k, r: len(r)))
    patches.set(prompts, "render_schema_context", wrap(
        "core.render_schema_context", prompts.render_schema_context))


def traced_model(tracer: Tracer, endpoint) -> SimpleNamespace:
    return SimpleNamespace(sample=tracer.wrap("llm_client.sample", endpoint.sample))


def _p(values: list[float], q: int) -> float:
    """q-th percentile (50 or 90) of at least one value."""
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _tree_counts(trajectories) -> tuple[int, int, int, int]:
    if not trajectories:
        return 0, 0, 0, 0
    nodes = expanded = terminals = dead = 0
    stack = [trajectories[0].nodes[0]]
    while stack:
        node = stack.pop()
        nodes += 1
        expanded += node.expanded
        terminals += node.is_terminal
        dead += node.dead
        stack.extend(node.children.values())
    return nodes, expanded, terminals, dead


def _in_series(calls: list[Call]) -> int:
    """Length of the longest chain of calls that do not overlap in time."""
    count, reach = 0, float("-inf")
    for c in sorted(calls, key=lambda c: c.end):
        if c.start >= reach:
            count += 1
            reach = c.end
    return count


def _repeats(calls: list[Call]) -> int:
    seen: set[tuple] = set()
    repeats = 0
    for c in calls:
        key = (c.crc, c.plen, c.temperature, c.index)
        repeats += key in seen
        seen.add(key)
    return repeats


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Medians over the set-up repetitions of the set-up spans."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.end - s.start)
    loads = by_name["core.load_catalog"]
    attaches = by_name["core.attach_descriptions"] or [0.0] * len(loads)
    out = {
        "core.catalog_load_s": statistics.median(a + b for a, b in zip(loads, attaches)),
        "value_index.build_s": statistics.median(by_name["value_index.build_value_index"]),
        "value_index.save_s": statistics.median(by_name["value_index.save_index"]),
        "value_index.load_s": statistics.median(by_name["value_index.load_index"]),
    }
    last_load = [s for s in spans if s.name == "value_index.load_index"][-1]
    out["value_index.records"], out["value_index.buckets"] = last_load.info
    return out


def question_metrics(spans: list[Span], rounds_calls: list[dict[str, list[Call]]],
                     max_in_flight: int, untraced_p50: float) -> tuple[dict, list[str]]:
    """Per-question layer metrics of the traced rounds, plus additivity problems."""
    spans = [s for s in spans if s.qid is not None]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    roots = by_name["harness.run_one_item"]
    n = len(roots)
    selfs = self_times(spans)
    parent_name = {s.sid: s.name for s in spans}

    def dur(name: str) -> list[float]:
        return [s.end - s.start for s in by_name[name]]

    def per_q(value: float) -> float:
        return value / n

    def self_sum(*names: str) -> float:
        return sum(selfs[s.sid] for name in names for s in by_name[name])

    m: dict[str, float] = {}
    occurrences = [calls for round_calls in rounds_calls for calls in round_calls.values()]
    every_call = [c for calls in occurrences for c in calls]
    tag_counts = defaultdict(int)
    for c in every_call:
        tag_counts[c.tag] += 1
    for tag in CALL_TAGS:
        m[f"llm_client.calls.{tag}"] = per_q(tag_counts[tag])
    m["llm_client.wait_s"] = per_q(sum(dur("llm_client.sample")))
    m["llm_client.slot_wait_s"] = per_q(sum(c.served - c.start for c in every_call))
    m["llm_client.max_in_flight"] = max_in_flight
    m["llm_client.calls_in_series"] = per_q(sum(_in_series(c) for c in occurrences))
    m["llm_client.repeat_calls"] = per_q(sum(_repeats(c) for c in occurrences))

    builds = by_name["action_model.build_action_prompt"]
    m["action_model.prompt_builds"] = per_q(len(builds))
    m["action_model.prompt_build_ms_p50"] = _p(dur("action_model.build_action_prompt"), 50) * 1e3
    m["action_model.prompt_kchars_p50"] = _p([s.info / 1e3 for s in builds], 50)
    # artifacts parsed from a sample; termination and a revision chain
    # whose query already ran carry no raw response
    artifacts = sum(s.info or 0 for s in by_name["action_model.run_action"])
    samples = sum(1 for c in every_call if c.tag in _ACTION_TAGS)
    m["action_model.parsed_ratio"] = artifacts / samples
    m["action_model.self_s"] = per_q(self_sum("action_model.run_action",
                                              "action_model.build_action_prompt"))

    renders = dur("core.render_schema_context")
    m["core.renders"] = per_q(len(renders))
    m["core.render_ms_p50"] = _p(renders, 50) * 1e3
    m["core.render_s"] = per_q(sum(renders))

    m["mcts.self_s"] = per_q(self_sum("mcts.run_search"))
    trees = [_tree_counts(s.info) for s in by_name["mcts.run_search"]]
    for i, name in enumerate(("nodes", "expansions", "terminals", "dead_nodes")):
        m[f"mcts.{name}"] = per_q(sum(t[i] for t in trees))

    execs = by_name["sql_exec.execute_sql"]
    m["reward_select.reward_s"] = per_q(sum(dur("reward_select.compute_reward")))
    m["reward_select.select_s"] = per_q(sum(dur("reward_select.select_final")))
    m["reward_select.select_execs"] = per_q(sum(
        1 for s in execs if parent_name.get(s.parent) == "reward_select.select_final"))
    m["reward_select.self_s"] = per_q(self_sum("reward_select.compute_reward",
                                               "reward_select.select_final"))

    exec_ms = [d * 1e3 for d in dur("sql_exec.execute_sql")]
    m["sql_exec.calls"] = per_q(len(execs))
    m["sql_exec.ms_p50"] = _p(exec_ms, 50)
    m["sql_exec.ms_p90"] = _p(exec_ms, 90)
    m["sql_exec.s"] = per_q(sum(exec_ms) / 1e3)
    root_of = _root_map(spans)
    distinct = {(root_of[s.sid], s.info[0]) for s in execs if s.info}
    m["sql_exec.distinct_ratio"] = len(distinct) / len(execs)
    kinds = defaultdict(int)
    for s in execs:
        kinds[s.info[1] if s.info else "raised"] += 1
    m["sql_exec.rows"] = per_q(kinds["rows"])
    m["sql_exec.errors"] = per_q(kinds["error"])
    m["sql_exec.timeouts"] = per_q(kinds["timeout"])

    retrieve_ms = [d * 1e3 for d in dur("value_index.retrieve_values")]
    m["value_index.retrieve_ms_p50"] = _p(retrieve_ms, 50)
    m["value_index.retrieve_ms_p90"] = _p(retrieve_ms, 90)
    lookups = by_name["value_index.candidate_ids"]
    m["value_index.candidates_per_keyword"] = (
        sum(s.info for s in lookups) / len(lookups) if lookups else 0.0)

    m["harness.overhead_s"] = per_q(self_sum("harness.run_one_item"))
    m["harness.gold_execs"] = per_q(sum(
        1 for s in execs if parent_name.get(s.parent) == "harness.run_one_item"))

    traced = [s.end - s.start for s in roots]
    m["trace.overhead_ratio"] = _p(traced, 50) / untraced_p50 - 1

    problems = []
    layers = layer_self_times(spans)
    total = sum(traced)
    if abs(sum(layers.values()) - total) > SELF_TIME_TOLERANCE * total:
        problems.append(f"layer self times sum to {sum(layers.values()):.4f} s, "
                        f"traced question time is {total:.4f} s")
    return m, problems


def _root_map(spans: list[Span]) -> dict[int, int]:
    parent = {s.sid: s.parent for s in spans}
    out: dict[int, int] = {}
    for s in spans:
        sid = s.sid
        while parent.get(sid) is not None:
            sid = parent[sid]
        out[s.sid] = sid
    return out
