"""In-process simulated chat endpoint that answers from per-question scripts.

The endpoint answers the `ChatModel.sample` protocol without scanning a rule
list, so its cost per call does not grow with the number of questions: it
finds the question by the marker in the prompt's hint slot, picks an answer
by a hash of (prompt, temperature, sample index), and waits a latency derived
from the same hash. Answers and latencies therefore do not depend on
the order of calls. A fixed number of serving slots bounds the calls in
service; further calls queue. Every call is logged per question, so the
checks can recompute each answer from the same pure function.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from typing import NamedTuple

from inputs import MARKER, QuestionScript, SqlOption

_U64 = (1 << 64) - 1
_EXECUTED = "\nExecuted SQL Query:\n"
_SECTION_END = "\n\n****"
_LATENCY_SALT = 0x5EED


def _mix(x: int) -> int:
    """splitmix64 finaliser."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def call_hash(crc: int, plen: int, temperature: float, index: int) -> int:
    h = _mix(crc ^ (plen << 32))
    h = _mix(h ^ round(temperature * 1000))
    return _mix(h ^ index)


def _weighted(options: list[SqlOption], h: int) -> SqlOption:
    point = (h >> 11) / float(1 << 53) * sum(o.weight for o in options)
    for option in options:
        point -= option.weight
        if point < 0:
            return option
    return options[-1]


def _pick(options: list[str], h: int) -> str:
    """The first option nine times in ten, else one of the others."""
    if (h >> 11) / float(1 << 53) < 0.9:
        return options[0]
    return options[1 + h % (len(options) - 1)]


def executed_sql(prompt: str) -> str | None:
    """The executed query of a revision prompt; None for any other prompt."""
    start = prompt.rfind(_EXECUTED)
    if start < 0:
        return None
    start += len(_EXECUTED)
    end = prompt.find(_SECTION_END, start)
    return prompt[start:end].strip()


def sql_answer(script: QuestionScript, executed: str | None, h: int) -> str | None:
    """The query a SQL-writing prompt gets; None is an unparseable answer.

    A revision prompt whose executed query is a scripted failure gets one of
    that failure's repairs; every other SQL prompt draws from the generator
    mix of gold-equivalent, wrong-but-valid and broken queries.
    """
    repairs = script.repairs.get(executed) if executed is not None else None
    if repairs:
        return repairs[h % len(repairs)]
    return _weighted(script.generate, h).sql


def sql_text(sql: str | None) -> str:
    if sql is None:
        return "I could not work out a query for this question."
    payload = json.dumps({"chain_of_thought_reasoning": "filter, then aggregate",
                          "sql_query": sql})
    return f"```json\n{payload}\n```"


class Call(NamedTuple):
    tag: str
    crc: int
    plen: int
    temperature: float
    index: int
    executed: str | None
    start: float  # perf_counter when the call arrived
    served: float  # when it got a serving slot
    end: float
    latency: float  # the simulated latency it was given


class SimEndpoint:
    """ChatModel stand-in with deterministic answers, latency and slots."""

    def __init__(self, scripts: dict[str, QuestionScript], latency_s: float,
                 slots: int):
        self.scripts = scripts
        self.latency_s = latency_s
        self._slots = threading.Semaphore(slots)
        self._lock = threading.Lock()
        self._texts: dict[str | None, str] = {}
        self.in_flight = 0
        self.max_in_flight = 0
        self.calls: dict[str, list[Call]] = {}

    def reset(self) -> None:
        self.calls = {}
        self.max_in_flight = 0

    def sample(self, prompt: str, temperature: float, max_tokens: int,
               sample_index: int, tag: str = "") -> str:
        del max_tokens
        start = time.perf_counter()
        with self._slots:
            served = time.perf_counter()
            with self._lock:
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
            try:
                key, text, h, crc, executed = self._answer(
                    prompt, temperature, sample_index, tag)
                latency = 0.0
                if self.latency_s > 0:
                    u = (_mix(h ^ _LATENCY_SALT) >> 11) / float(1 << 53)
                    latency = self.latency_s * (0.5 + u)
                    time.sleep(latency)
            finally:
                with self._lock:
                    self.in_flight -= 1
        self.calls.setdefault(key, []).append(Call(
            tag, crc, len(prompt), temperature, sample_index, executed,
            start, served, time.perf_counter(), latency))
        return text

    def _answer(self, prompt: str, temperature: float, index: int, tag: str):
        at = prompt.rfind(MARKER)
        if at < 0:
            raise RuntimeError(f"prompt carries no question marker (tag={tag!r})")
        at += len(MARKER)
        key = prompt[at:prompt.index("]", at)]
        script = self.scripts[key]
        crc = zlib.crc32(prompt.encode("utf-8"))
        h = call_hash(crc, len(prompt), temperature, index)
        executed = None
        if tag == "keywords":
            text = json.dumps(script.keywords)
        elif tag == "A1":
            text = _pick(script.rephrasings, h)
        elif tag == "A2":
            text = _pick(script.schema_answers, h)
        elif tag == "A3":
            text = _pick(script.value_notes, h)
        elif tag == "A4":
            text = _pick(script.function_notes, h)
        elif tag in ("A5", "A6", "reward"):
            executed = executed_sql(prompt)
            sql = sql_answer(script, executed, h)
            text = self._texts.get(sql)
            if text is None:
                text = self._texts.setdefault(sql, sql_text(sql))
        else:
            raise RuntimeError(f"no script for tag {tag!r}")
        return key, text, h, crc, executed
