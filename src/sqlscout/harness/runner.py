"""Benchmark orchestration: run items, score them, write run artifacts.

Outputs under the run directory:

    report.jsonl      one record per completed item (append-only journal)
    summary.json      aggregate accuracy, per-difficulty split, resolved config
    predictions.txt   question_id <TAB> chosen SQL, one line per item
    traces/<id>.json  optional serialized search tree per question
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..core.catalog import DatabaseCatalog, attach_descriptions, load_catalog
from ..core.types import SearchConfig
from ..errors import IngestionError
from ..llm_client import ChatModel, CountingModel, Embedder, EndpointConfig
from ..mcts import SearchDeps, run_search, serialize_tree
from ..reward_select import select_final
from ..sql_exec import execute_sql, memoize_executor, results_equal
from ..value_index import ValueIndex, load_index
from .baseline import baseline_generate
from .dataset import BenchmarkItem

log = logging.getLogger(__name__)

REPORT_NAME = "report.jsonl"
SUMMARY_NAME = "summary.json"
PREDICTIONS_NAME = "predictions.txt"
TRACES_DIR = "traces"


def database_path(db_root: Path, db_id: str) -> Path:
    """`<db_root>/<db_id>/<db_id>.sqlite`, else the flat `<db_root>/<db_id>.sqlite`."""
    root = Path(db_root)
    for candidate in (root / db_id / f"{db_id}.sqlite", root / f"{db_id}.sqlite"):
        if candidate.exists():
            return candidate
    raise IngestionError(f"no database file for {db_id!r} under {root}")


def find_databases(db_root: Path) -> list[str]:
    """Sorted ids of every database under `db_root`, in either layout."""
    root = Path(db_root)
    nested = {p.stem for p in root.glob("*/*.sqlite") if p.parent.name == p.stem}
    return sorted(nested | {p.stem for p in root.glob("*.sqlite")})


@dataclass
class RunEnvironment:
    """Shared per-run wiring: model endpoint, database root, value indexes.

    Databases live at `<db_root>/<db_id>/<db_id>.sqlite` (flat
    `<db_root>/<db_id>.sqlite` accepted too); value indexes at
    `<index_dir>/<db_id>.jsonl`. Catalogs and indexes are cached per db_id
    and loaded once, also when `--workers` threads ask for one together.
    """

    model: ChatModel
    db_root: Path
    index_dir: Path | None = None
    embedder: Embedder | None = None
    endpoint: EndpointConfig | None = None
    _catalogs: dict[str, DatabaseCatalog] = field(default_factory=dict, repr=False)
    _indexes: dict[str, ValueIndex | None] = field(default_factory=dict, repr=False)
    _load_locks: dict[str, threading.Lock] = field(default_factory=dict, repr=False)
    _load_locks_guard: threading.Lock = field(
        default_factory=threading.Lock, repr=False)

    def db_path(self, db_id: str) -> Path:
        return database_path(self.db_root, db_id)

    def _load_once(self, cache: dict, db_id: str, load):
        """cache[db_id], loading it at most once; other askers wait for that load."""
        if db_id not in cache:
            with self._load_locks_guard:
                lock = self._load_locks.setdefault(db_id, threading.Lock())
            with lock:
                if db_id not in cache:
                    cache[db_id] = load(db_id)
        return cache[db_id]

    def catalog(self, db_id: str) -> DatabaseCatalog:
        return self._load_once(self._catalogs, db_id, self._load_catalog)

    def _load_catalog(self, db_id: str) -> DatabaseCatalog:
        path = self.db_path(db_id)
        catalog = load_catalog(path, db_id=db_id)
        descriptions = path.parent / "database_description"
        if descriptions.is_dir():
            attach_descriptions(catalog, descriptions)
        return catalog

    def value_index(self, db_id: str) -> ValueIndex | None:
        return self._load_once(self._indexes, db_id, self._load_value_index)

    def _load_value_index(self, db_id: str) -> ValueIndex | None:
        if self.index_dir is None:
            return None
        path = Path(self.index_dir) / f"{db_id}.jsonl"
        if not path.exists():
            log.warning("no value index for %s at %s", db_id, path)
            return None
        return load_index(path)

    def executor(self, db_id: str, cfg: SearchConfig):
        return partial(
            execute_sql,
            db_path=self.db_path(db_id),
            timeout_secs=cfg.sql_timeout_secs,
            row_cap=cfg.row_cap,
            multiset=cfg.multiset_compare,
        )


def item_seed(base_seed: int, question_id: str) -> int:
    """Stable per-item seed so shards and reruns agree item by item."""
    digest = hashlib.sha256(f"{base_seed}:{question_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_one_item(
    item: BenchmarkItem,
    env: RunEnvironment,
    cfg: SearchConfig,
    mode: str = "mcts",
    trace_path: Path | None = None,
) -> dict:
    """Process a single benchmark item into a report record.

    Never raises for model/SQL-level problems: any failure is folded into
    the record as EX=0 with the cause, so one bad item cannot sink a run.

    Each SQL string runs at most once per item: the search, final
    selection, the chosen query and the gold query share one memoized
    executor, which lives for this item only and is never shared across
    items or `--workers` threads. One exception: a truncated gold result is
    run again outside the memo. `results_equal` counts a truncated result
    equal only to the very same object, so the chosen query must not score
    against the memo's copy of itself.
    """
    started = time.time()
    record = {
        "question_id": item.question_id,
        "db_id": item.db_id,
        "difficulty": item.difficulty,
        "mode": mode,
        "sql": "",
        "ex": 0,
        "broken_gold": False,
        "low_confidence": False,
        "class_size": 0,
        "candidates": [],
        "model_calls": 0,
        "error": None,
    }
    model = CountingModel(env.model)
    try:
        catalog = env.catalog(item.db_id)
        executor = env.executor(item.db_id, cfg)
        memo = memoize_executor(executor)
        item_cfg = dataclasses.replace(
            cfg, rng_seed=item_seed(cfg.rng_seed, item.question_id)
        )
        chosen = ""
        if mode == "mcts":
            deps = SearchDeps(
                model=model,
                catalog=catalog,
                executor=memo,
                embedder=env.embedder,
                value_index=env.value_index(item.db_id),
            )
            trajectories = run_search(item.question, deps, item_cfg)
            if trajectories:
                outcome = select_final(trajectories, memo)
                chosen = outcome.sql
                record["low_confidence"] = outcome.low_confidence
                record["class_size"] = outcome.class_size
                record["candidates"] = [
                    {
                        "sql": c.sql,
                        "reward": round(c.reward, 6),
                        "outcome": c.outcome,
                        "class_size": c.class_size,
                    }
                    for c in outcome.candidates
                ]
                if trace_path is not None:
                    tree = serialize_tree(trajectories[0].nodes[0])
                    trace_path.parent.mkdir(parents=True, exist_ok=True)
                    trace_path.write_text(
                        json.dumps(tree, indent=1, sort_keys=True), encoding="utf-8"
                    )
            else:
                log.warning("search yielded no trajectories for %s; "
                            "using single-shot generation", item.question_id)
                chosen = baseline_generate(item.question, catalog, model)
        elif mode == "baseline":
            chosen = baseline_generate(item.question, catalog, model)
        else:
            raise IngestionError(f"unknown run mode: {mode!r}")

        record["sql"] = chosen
        gold_result = memo(item.gold_sql)
        if gold_result.truncated:
            gold_result = executor(item.gold_sql)
        if gold_result.kind != "rows":
            record["broken_gold"] = True
        elif chosen:
            record["ex"] = int(results_equal(memo(chosen), gold_result))
    except Exception as exc:  # per-item isolation: record and move on
        log.exception("item %s failed", item.question_id)
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["ex"] = 0
    record["model_calls"] = model.count
    record["elapsed_secs"] = round(time.time() - started, 3)
    return record


def load_report_records(report_path: Path) -> dict[str, dict]:
    """Completed records keyed by question id; a torn final line is dropped."""
    records: dict[str, dict] = {}
    if not report_path.exists():
        return records
    for line in report_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            log.warning("skipping torn report line in %s", report_path)
            continue
        qid = record.get("question_id")
        if isinstance(qid, str):
            records[qid] = record
    return records


def run_benchmark(
    items: list[BenchmarkItem],
    env: RunEnvironment,
    cfg: SearchConfig,
    out_dir: str | Path,
    mode: str = "mcts",
    workers: int = 1,
    resume: bool = True,
    write_traces: bool = False,
) -> dict:
    """Run every item, journal records as they finish, and summarize.

    With resume on, items already present in `report.jsonl` are skipped, so
    an interrupted run picks up where it stopped. Records append in
    completion order; the summary and predictions files are rebuilt from
    the full journal at the end and are order-independent.
    """
    if mode not in ("mcts", "baseline"):
        raise IngestionError(f"unknown run mode: {mode!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / REPORT_NAME

    done = load_report_records(report_path) if resume else {}
    if not resume and report_path.exists():
        report_path.unlink()
    pending = [item for item in items if item.question_id not in done]
    log.info("%d items, %d already complete, %d to run",
             len(items), len(items) - len(pending), len(pending))

    def process(item: BenchmarkItem) -> dict:
        trace = (out / TRACES_DIR / f"{item.question_id}.json") if write_traces else None
        return run_one_item(item, env, cfg, mode=mode, trace_path=trace)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        with open(report_path, "a", encoding="utf-8") as journal:
            records = map(process, pending) if pool is None else (
                future.result() for future in
                as_completed([pool.submit(process, item) for item in pending])
            )
            for record in records:
                done[record["question_id"]] = record
                journal.write(json.dumps(record, sort_keys=True,
                                         ensure_ascii=False) + "\n")
                journal.flush()
    finally:
        if pool is not None:
            # after an interrupt, queued items must not run
            pool.shutdown(cancel_futures=True)

    summary = summarize(items, done, cfg, mode=mode, endpoint=env.endpoint)
    (out / SUMMARY_NAME).write_text(
        json.dumps(summary, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    write_predictions(items, done, out / PREDICTIONS_NAME)
    return summary


def tally_by_difficulty(records: list[dict]) -> dict[str, dict]:
    """{"n", "correct"} per difficulty over report records, sorted by difficulty."""
    tally: dict[str, dict] = {}
    for record in records:
        bucket = tally.setdefault(record.get("difficulty", "unknown"),
                                  {"n": 0, "correct": 0})
        bucket["n"] += 1
        bucket["correct"] += int(record.get("ex", 0))
    return dict(sorted(tally.items()))


def summarize(
    items: list[BenchmarkItem],
    records: dict[str, dict],
    cfg: SearchConfig,
    mode: str = "mcts",
    endpoint: EndpointConfig | None = None,
) -> dict:
    """Aggregate accuracy is the plain mean of the per-item bits."""
    completed = [records[i.question_id] for i in items if i.question_id in records]
    bits = [int(r.get("ex", 0)) for r in completed]
    by_difficulty = tally_by_difficulty(completed)
    for bucket in by_difficulty.values():
        bucket["ex"] = round(bucket["correct"] / bucket["n"], 6)
    endpoint_info = {}
    if endpoint is not None:
        endpoint_info = {
            "base_url": endpoint.base_url,
            "chat_model": endpoint.chat_model,
            "embed_model": endpoint.embed_model,
        }
    return {
        "mode": mode,
        "total_items": len(items),
        "completed": len(completed),
        "ex_overall": round(sum(bits) / len(bits), 6) if bits else 0.0,
        "ex_by_difficulty": by_difficulty,
        "broken_gold": sum(1 for r in completed if r.get("broken_gold")),
        "item_errors": sum(1 for r in completed if r.get("error")),
        "model_calls": sum(int(r.get("model_calls", 0)) for r in completed),
        "seed": cfg.rng_seed,
        "config": dataclasses.asdict(cfg),
        "endpoint": endpoint_info,
    }


def write_predictions(
    items: list[BenchmarkItem], records: dict[str, dict], path: Path
) -> None:
    """Submission file: `question_id<TAB>sql`, one line per item, dataset order."""
    lines = []
    for item in items:
        record = records.get(item.question_id)
        sql = (record or {}).get("sql", "") or ""
        lines.append(f"{item.question_id}\t{' '.join(sql.split())}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
