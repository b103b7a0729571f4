"""Checks of the program's outputs against computations made apart from it.

Queries run on plain `sqlite3` and results compare as sets of raw rows; edit
similarity comes from a Levenshtein written here. Each check returns a list
of problems, empty when the output is right, so a deliberately wrong answer
can be fed to it in the smoke test.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from pathlib import Path

import numpy as np

from endpoint import Call, call_hash, sql_answer
from inputs import QuestionScript


class Oracle:
    """Plain-sqlite3 view of one database; every query result is memoised."""

    def __init__(self, db_path: Path):
        self._conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
        self._rows: dict[str, frozenset | None] = {}
        self._columns: dict[tuple[str, str], set[str]] = {}

    def close(self) -> None:
        self._conn.close()

    def rows(self, sql: str) -> frozenset | None:
        """The query's rows as a set, or None when it fails."""
        if sql not in self._rows:
            try:
                self._rows[sql] = frozenset(self._conn.execute(sql).fetchall())
            except sqlite3.Error:
                self._rows[sql] = None
        return self._rows[sql]

    def column_values(self, table: str, column: str) -> set[str]:
        key = (table, column)
        if key not in self._columns:
            self._columns[key] = {
                r[0] for r in self._conn.execute(f'SELECT DISTINCT "{column}" FROM "{table}"')
            }
        return self._columns[key]


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def edit_similarity(a: str, b: str) -> float:
    a, b = a.lower(), b.lower()
    longest = max(len(a), len(b))
    return 1.0 if longest == 0 else 1.0 - levenshtein(a, b) / longest


def check_ex(record: dict, script: QuestionScript, oracle: Oracle) -> list[str]:
    gold = oracle.rows(script.gold)
    if gold is None:
        return [f"q{script.qid}: the gold query fails"]
    chosen = oracle.rows(record["sql"]) if record["sql"] else None
    expected = int(chosen is not None and chosen == gold)
    if record["ex"] != expected:
        return [f"q{script.qid}: ex={record['ex']}, recomputed {expected}"]
    return []


def check_selection(record: dict, script: QuestionScript, oracle: Oracle) -> list[str]:
    """The chosen query belongs to a largest execution-equivalence class."""
    candidates = record["candidates"]
    if record["sql"] not in {c["sql"] for c in candidates}:
        return [f"q{script.qid}: chosen SQL is not among the candidates"]
    results = [oracle.rows(c["sql"]) for c in candidates]
    sizes = Counter(r for r in results if r is not None)
    if not sizes:
        return [] if record["low_confidence"] else [
            f"q{script.qid}: no candidate returns rows, yet not low-confidence"]
    largest = max(sizes.values())
    chosen = oracle.rows(record["sql"])
    if chosen is None or sizes[chosen] != largest:
        return [f"q{script.qid}: chosen SQL is in a class of "
                f"{sizes.get(chosen, 0)}, the largest has {largest}"]
    if record["class_size"] != largest:
        return [f"q{script.qid}: class_size={record['class_size']}, recomputed {largest}"]
    return []


def check_rewards(record: dict, script: QuestionScript, calls: list[Call],
                  oracle: Oracle, n_reward: int, t_reward: float) -> list[str]:
    """Each reward is the match fraction of the scripted re-samples.

    Rewards are computed in the order terminals are first reached, which is
    the order of the candidates that return rows; every one of those, and
    only those, draws n_reward reward samples from its producing prompt.
    """
    problems = []
    scored = []
    for cand in record["candidates"]:
        result = oracle.rows(cand["sql"])
        if result is None:
            if cand["reward"] != 0:
                problems.append(f"q{script.qid}: failing candidate has reward "
                                f"{cand['reward']}")
        else:
            scored.append((cand, result))
    samples = [c for c in calls if c.tag == "reward"]
    if len(samples) != n_reward * len(scored):
        return problems + [f"q{script.qid}: {len(samples)} reward calls for "
                           f"{len(scored)} terminals returning rows"]
    for k, (cand, result) in enumerate(scored):
        group = samples[k * n_reward:(k + 1) * n_reward]
        prompts = {(c.crc, c.plen, c.executed) for c in group}
        if len(prompts) != 1 or [c.index for c in group] != list(range(n_reward)) \
                or any(c.temperature != t_reward for c in group):
            problems.append(f"q{script.qid}: reward samples of terminal {k} do not "
                            "re-sample one prompt")
            continue
        matched = 0
        for c in group:
            sql = sql_answer(script, c.executed,
                             call_hash(c.crc, c.plen, c.temperature, c.index))
            if sql is not None and oracle.rows(sql) == result:
                matched += 1
        if abs(cand["reward"] - matched / n_reward) > 1e-6:
            problems.append(f"q{script.qid}: reward {cand['reward']} for "
                            f"{cand['sql']!r}, recomputed {matched}/{n_reward}")
    return problems


def check_calls(record: dict, script: QuestionScript, calls: list[Call]) -> list[str]:
    if record["model_calls"] != len(calls):
        return [f"q{script.qid}: harness counted {record['model_calls']} calls, "
                f"the endpoint served {len(calls)}"]
    return []


def check_retrieval(retrieved: list[tuple[str, str, str]], script: QuestionScript,
                    oracle: Oracle, eps_edit: float) -> list[str]:
    """Retrieved values exist, pass the edit gate, and include every exact hit."""
    problems = []
    for table, column, value in retrieved:
        if value not in oracle.column_values(table, column):
            problems.append(f"q{script.qid}: retrieved {value!r} is not in "
                            f"{table}.{column}")
        best = max(edit_similarity(kw, value) for kw in script.keywords)
        if best < eps_edit:
            problems.append(f"q{script.qid}: retrieved {value!r} has edit "
                            f"similarity {best:.3f} < {eps_edit}")
    missing = set(script.planted) - set(retrieved)
    if missing:
        problems.append(f"q{script.qid}: planted values not retrieved: {sorted(missing)}")
    return problems


def check_roundtrip(built, loaded) -> list[str]:
    """An index read back from its file equals the one that was saved."""
    problems = []
    if built.records != loaded.records:
        problems.append("index round trip changed the records")
    if not np.array_equal(built.signatures, loaded.signatures):
        problems.append("index round trip changed the signatures")
    if built.buckets != loaded.buckets:
        problems.append("index round trip changed the LSH buckets")
    return problems
