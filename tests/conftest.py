"""Shared fixtures: a small restaurants database and fully scripted models."""

from __future__ import annotations

import json
import os
import sqlite3
from functools import partial
from pathlib import Path

import pytest

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import NLQuestion, SearchConfig
from sqlscout.llm_client import HashEmbedder, ScriptedModel
from sqlscout.sql_exec import execute_sql
from sqlscout.value_index import build_value_index

QUESTION = "How many Thai restaurants can be found in San Pablo Ave, Albany?"
HINT = (
    "thai restaurant refers to food_type = 'thai'; San Pablo Ave Albany refers "
    "to street_name = 'san pablo ave'"
)
GOLD_SQL = (
    "SELECT COUNT(T1.id_restaurant) FROM generalinfo AS T1 "
    "INNER JOIN location AS T2 ON T1.id_restaurant = T2.id_restaurant "
    "WHERE T1.food_type = 'thai' AND T1.city = 'albany' "
    "AND T2.street_name = 'san pablo ave'"
)
# same result set, different text: lands in the gold equivalence class
GOLD_SQL_ALT = (
    "SELECT COUNT(*) FROM generalinfo AS g JOIN location AS l "
    "ON g.id_restaurant = l.id_restaurant WHERE g.food_type = 'thai' "
    "AND g.city = 'albany' AND l.street_name = 'san pablo ave'"
)
BROKEN_SQL = (
    "SELEC COUNT(T1.id_restaurant) FROM generalinfo AS T1 "
    "WHERE T1.food_type = 'thai'"
)

_ROWS = [
    # id, label, food_type, city, review, street_num, street_name
    (1, "thai touch", "thai", "albany", 3.5, 800, "san pablo ave"),
    (2, "bangkok kitchen", "thai", "albany", 4.0, 801, "san pablo ave"),
    (3, "siam corner", "thai", "albany", 3.8, 900, "san pablo ave"),
    (4, "lanna thai", "thai", "albany", 4.2, 1001, "san pablo ave"),
    (5, "roma pizza", "italian", "albany", 3.0, 802, "san pablo ave"),
    (6, "thai garden", "thai", "berkeley", 4.1, 50, "shattuck ave"),
    (7, "golden curry", "indian", "albany", 3.3, 803, "san pablo ave"),
]


def make_restaurant_db(path: Path) -> Path:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE generalinfo (
            id_restaurant INTEGER NOT NULL PRIMARY KEY,
            label TEXT,
            food_type TEXT,
            city TEXT,
            review REAL
        );
        CREATE TABLE location (
            id_restaurant INTEGER NOT NULL PRIMARY KEY,
            street_num INTEGER,
            street_name TEXT,
            city TEXT,
            FOREIGN KEY (id_restaurant) REFERENCES generalinfo (id_restaurant)
        );
        """
    )
    for row in _ROWS:
        conn.execute("INSERT INTO generalinfo VALUES (?,?,?,?,?)", row[:5])
        conn.execute(
            "INSERT INTO location VALUES (?,?,?,?)", (row[0], row[5], row[6], row[3])
        )
    conn.commit()
    conn.close()
    return path


@pytest.fixture
def restaurant_db(tmp_path: Path) -> Path:
    return make_restaurant_db(tmp_path / "restaurants.sqlite")


@pytest.fixture
def restaurant_catalog(restaurant_db: Path):
    return load_catalog(restaurant_db, db_id="restaurants")


@pytest.fixture
def restaurant_executor(restaurant_db: Path):
    return partial(execute_sql, db_path=restaurant_db, timeout_secs=5.0)


@pytest.fixture
def restaurant_question() -> NLQuestion:
    return NLQuestion(question=QUESTION, hint=HINT, db_id="restaurants")


@pytest.fixture
def restaurant_index(restaurant_catalog):
    return build_value_index(restaurant_catalog)


@pytest.fixture
def set_cpus(monkeypatch):
    """Call with n: from then on the process seems to run on n CPUs."""
    def set_to(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_to


@pytest.fixture
def hash_embedder() -> HashEmbedder:
    return HashEmbedder(dim=64)


@pytest.fixture
def fast_config() -> SearchConfig:
    return SearchConfig(n_rollout=24, n_expansion=3, n_reward=5,
                        sql_timeout_secs=5.0, rng_seed=0)


def sql_json(sql: str) -> str:
    payload = json.dumps(
        {"chain_of_thought_reasoning": "lookup and count", "sql_query": sql}
    )
    return f"```json\n{payload}\n```"


# distinctive template phrases; one per action prompt
KEYWORD_MARK = "extract keywords"
A1_MARK = "rephrase questions by splitting"
A2_MARK = "very smart data analyst"
A3_MARK = "potential column values"
A4_MARK = "potential column functions"
A5_MARK = "punishble"
A6_MARK = "correcting a SQL query"
BASELINE_MARK = "<sql>"


def scripted_pipeline_model(
    a5_sql: str | list[str] = GOLD_SQL,
    a6_sql: str = GOLD_SQL,
) -> ScriptedModel:
    """Model scripted for the whole pipeline against the restaurants db.

    a5_sql may be a list to vary the generator per sample index; the revise
    rule always lands on a6_sql, which keeps repair chains one round long.
    """
    model = ScriptedModel()
    model.add(KEYWORD_MARK, '["Thai restaurants", "San Pablo Ave", "Albany"]')
    model.add(
        A1_MARK,
        "The question asks for a count of restaurants filtered by food type "
        "and street.\nRephrased Question: How many restaurants that serve "
        "thai food are on san pablo ave in albany?",
    )
    model.add(
        A2_MARK,
        '```json\n{"generalinfo": ["id_restaurant", "food_type", "city"], '
        '"location": ["id_restaurant", "street_name"]}\n```',
    )
    model.add(
        A3_MARK,
        "The filter values are food_type = 'thai', city = 'albany', and "
        "street_name = 'san pablo ave'. All three are stored lowercase.",
    )
    model.add(
        A4_MARK,
        "COUNT is required to total the matching restaurants. No date or "
        "string functions are needed.",
    )
    # revise rule first: its template also mentions "sql_query"
    model.add(A6_MARK, sql_json(a6_sql))
    if isinstance(a5_sql, str):
        model.add(A5_MARK, sql_json(a5_sql))
    else:
        model.add(A5_MARK, [sql_json(s) for s in a5_sql])
    model.add(BASELINE_MARK, f"<think>count them</think>\n<sql>{GOLD_SQL}</sql>")
    return model


@pytest.fixture
def pipeline_model() -> ScriptedModel:
    return scripted_pipeline_model()


# four questions over the same db; each carries a marker phrase that survives
# into every prompt, so scripted rules can answer per question
BENCH_QUESTIONS = [
    {
        "question_id": 0,
        "db_id": "restaurants",
        "question": QUESTION,
        "evidence": HINT,
        "SQL": GOLD_SQL,
        "difficulty": "simple",
        "marker": "can be found",
        "rephrased": "How many thai restaurants can be found on san pablo "
                     "ave in albany?",
    },
    {
        "question_id": 1,
        "db_id": "restaurants",
        "question": "How many restaurants serve thai food?",
        "evidence": "thai food refers to food_type = 'thai'",
        "SQL": "SELECT COUNT(*) FROM generalinfo WHERE food_type = 'thai'",
        "difficulty": "simple",
        "marker": "serve thai food",
        "rephrased": "How many restaurants serve thai food as their type?",
    },
    {
        "question_id": 2,
        "db_id": "restaurants",
        "question": "How many restaurants are in the city of albany?",
        "evidence": "",
        "SQL": "SELECT COUNT(*) FROM generalinfo WHERE city = 'albany'",
        "difficulty": "moderate",
        "marker": "city of albany",
        "rephrased": "How many restaurants have the city of albany listed?",
    },
    {
        "question_id": 3,
        "db_id": "restaurants",
        "question": "What is the highest review score of any restaurant?",
        "evidence": "",
        "SQL": "SELECT MAX(review) FROM generalinfo",
        "difficulty": "challenging",
        "marker": "highest review",
        "rephrased": "What is the highest review value across restaurants?",
    },
]


def make_bird_dataset(root: Path, n_questions: int = 4) -> tuple[Path, Path]:
    """BIRD-style layout: questions.json + <root>/databases/<db_id>/<db_id>.sqlite."""
    db_root = root / "databases"
    db_dir = db_root / "restaurants"
    db_dir.mkdir(parents=True)
    make_restaurant_db(db_dir / "restaurants.sqlite")
    questions = [
        {k: v for k, v in q.items() if k not in ("marker", "rephrased")}
        for q in BENCH_QUESTIONS[:n_questions]
    ]
    dataset = root / "questions.json"
    dataset.write_text(json.dumps(questions, indent=1), encoding="utf-8")
    return dataset, db_root


@pytest.fixture
def bird_dataset(tmp_path: Path) -> tuple[Path, Path]:
    return make_bird_dataset(tmp_path)


def scripted_benchmark_model(broken_a5_sample: int | None = None) -> ScriptedModel:
    """Scripted answers for all four benchmark questions, search and baseline.

    With `broken_a5_sample`, that sample index of every generation prompt
    (indices 0 to 4 are scripted) answers BROKEN_SQL, which revision repairs.
    """
    model = ScriptedModel()
    model.add(KEYWORD_MARK, '["thai", "albany", "review"]')
    model.add(
        A2_MARK,
        '```json\n{"generalinfo": ["id_restaurant", "food_type", "city", '
        '"review"], "location": ["id_restaurant", "street_name"]}\n```',
    )
    model.add(A3_MARK, "Filter values are stored lowercase in the text columns.")
    model.add(A4_MARK, "Aggregates like COUNT or MAX may be needed. No dates.")
    for q in BENCH_QUESTIONS:
        marker, sql = q["marker"], q["SQL"]
        model.add(_marked(A1_MARK, marker),
                  f"Conditions split out.\nRephrased Question: {q['rephrased']}")
        model.add(_marked(A6_MARK, marker), sql_json(sql))
        a5 = sql_json(sql)
        if broken_a5_sample is not None:
            a5 = [a5] * 5
            a5[broken_a5_sample] = sql_json(BROKEN_SQL)
        model.add(_marked(A5_MARK, marker), a5)
        model.add(_marked(BASELINE_MARK, marker),
                  f"<think>direct lookup</think>\n<sql>{sql}</sql>")
    return model


def _marked(mark: str, marker: str):
    def match(prompt: str) -> bool:
        return mark in prompt and marker.lower() in prompt.lower()

    return match
