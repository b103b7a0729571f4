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
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..core.catalog import DatabaseCatalog, attach_descriptions, load_catalog
from ..core.types import SearchConfig
from ..errors import (
    ContractViolation,
    EndpointUnavailable,
    IngestionError,
    ProtocolError,
    TransportError,
)
from ..llm_client import ChatModel, CountingModel, Embedder, EndpointConfig
from ..mcts import prepare_context, run_search, serialize_tree
from ..reward_select import select_final
from ..sql_exec import Sandbox, execute_sql, same_rows_sql
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
    `<index_dir>/<db_id>.jsonl`. Catalogs and indexes are cached per db_id.
    One lock is held across each lookup and, on a miss, the load, so each
    loads once and every caller, on any `--workers` thread, gets the same
    object; a load that raises caches nothing, and the next caller loads
    again. A load must not ask the environment for another database.
    """

    model: ChatModel
    db_root: Path
    index_dir: Path | None = None
    embedder: Embedder | None = None
    endpoint: EndpointConfig | None = None
    _catalogs: dict[str, DatabaseCatalog] = field(default_factory=dict, repr=False)
    _indexes: dict[str, ValueIndex | None] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def db_path(self, db_id: str) -> Path:
        return database_path(self.db_root, db_id)

    def _load_once(self, cache: dict, db_id: str, load):
        with self._lock:
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

    def executor(self, db_id: str, cfg: SearchConfig, sandbox: Sandbox | None = None):
        """`execute_sql` bound to the database and `cfg`'s bounds; with
        `sandbox`, every statement runs on that one open connection."""
        return partial(
            execute_sql,
            db_path=self.db_path(db_id),
            timeout_secs=cfg.sql_timeout_secs,
            row_cap=cfg.row_cap,
            sandbox=sandbox,
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
    sandbox: Sandbox | None = None,
    calls: CountingModel | None = None,
) -> dict:
    """Process a single benchmark item into a report record.

    Never raises for model/SQL-level problems: any failure is folded into
    the record as EX=0 with the cause, so one bad item cannot sink a run.
    An `EndpointUnavailable` that reaches it is raised: the embedder's, since
    a model call folds its own into a lost sample.
    In `baseline` mode, and when the search yields no trajectory, one
    single-shot call answers; if that call is lost to a transport or
    protocol error, the item keeps no SQL and is flagged low-confidence,
    with no error.

    The item's `RolloutContext`, built in both modes, owns its memos: the
    search, final selection, the chosen query and the gold query all run
    SQL through `ctx.execute`, so each string runs at most once per item.
    Only `mcts` mode passes the value index, so `baseline` mode makes no
    keyword call.

    EX is BIRD's rule: the chosen and the gold query return the same set of
    rows, as SQLite returned them, not as the search folds them. When either
    result is truncated, SQLite compares the whole sets (`same_rows_sql`).

    Every statement of the item runs on `sandbox`, an open `Sandbox` on the
    item's database that the caller keeps for its thread. Without one, the
    item opens its own and closes it when the item ends, also on an error.

    Every model call goes through `calls`, a fresh `CountingModel` over
    `env.model` that the caller keeps to read after the item (one is made
    when none is given); `model_calls` is its count.
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
    model = calls if calls is not None else CountingModel(env.model)
    own_sandbox = None
    try:
        if mode not in ("mcts", "baseline"):
            raise IngestionError(f"unknown run mode: {mode!r}")
        catalog = env.catalog(item.db_id)
        if sandbox is None:
            sandbox = own_sandbox = Sandbox(env.db_path(item.db_id))
        item_cfg = dataclasses.replace(
            cfg, rng_seed=item_seed(cfg.rng_seed, item.question_id)
        )
        ctx = prepare_context(
            item.question, item_cfg, model, catalog,
            env.executor(item.db_id, cfg, sandbox), embedder=env.embedder,
            value_index=env.value_index(item.db_id) if mode == "mcts" else None,
        )
        chosen = ""
        trajectories = run_search(ctx) if mode == "mcts" else []
        if trajectories:
            outcome = select_final(trajectories, ctx.execute)
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
            if mode == "mcts":
                log.warning("search yielded no trajectories for %s; "
                            "using single-shot generation", item.question_id)
            try:
                chosen = baseline_generate(item.question, catalog, model,
                                           cfg.max_tokens)
            except (TransportError, ProtocolError) as exc:
                log.warning("single-shot generation for %s lost: %s: %s",
                            item.question_id, type(exc).__name__, exc)
                record["low_confidence"] = True

        record["sql"] = chosen
        gold_result = ctx.execute(item.gold_sql)
        if gold_result.kind != "rows":
            record["broken_gold"] = True
        elif chosen:
            chosen_result = ctx.execute(chosen)
            if chosen_result.is_rows and (chosen_result.truncated
                                          or gold_result.truncated):
                verdict = execute_sql(
                    same_rows_sql(chosen, item.gold_sql), env.db_path(item.db_id),
                    cfg.sql_timeout_secs, row_cap=1, sandbox=sandbox)
                record["ex"] = int(verdict.rows == {(1,)})
            else:
                record["ex"] = int(chosen_result.is_rows
                                   and chosen_result.rows == gold_result.rows)
    except EndpointUnavailable:  # an outage, not this item's failure
        raise
    except Exception as exc:  # per-item isolation: record and move on
        log.exception("item %s failed", item.question_id)
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["ex"] = 0
    finally:
        if own_sandbox is not None:
            own_sandbox.close()
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

    In `mcts` mode the value index of every database a pending item needs
    is loaded before the first item runs. An index that cannot be read (a
    stale format version, say) raises `IngestionError` then, once, with no
    record written: recording it against every item would let a resumed
    run skip them all after the index is rebuilt. An endpoint outage stops
    the run the same way: an item whose every model call was lost to an
    `EndpointUnavailable`, or whose embedder raised one, is not journaled;
    no queued item starts, and once the items in flight end the run raises
    one `EndpointUnavailable` naming that item and the last error. A
    request the endpoint refuses (a prompt over the context length, say)
    stays an EX 0 record of its item.

    Items run on a pool of `workers` threads, one worker included; fewer
    than one is a `ContractViolation` before the run directory is touched.
    An interrupt ends the run once the items in flight finish; their
    records are journaled, and queued items never start. Each worker opens
    one `Sandbox` per database on its first item there and runs every later
    item of that database on it, so SQLite reads each schema once per
    worker, not once per question. A worker only ever gets the sandboxes it
    opened. All of them are closed once no worker is left running, before
    the run returns or raises.
    """
    if mode not in ("mcts", "baseline"):
        raise IngestionError(f"unknown run mode: {mode!r}")
    if workers < 1:
        raise ContractViolation(f"workers must be at least 1, got {workers}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / REPORT_NAME

    done = load_report_records(report_path) if resume else {}
    if not resume and report_path.exists():
        report_path.unlink()
    pending = [item for item in items if item.question_id not in done]
    log.info("%d items, %d already complete, %d to run",
             len(items), len(items) - len(pending), len(pending))
    if mode == "mcts":
        for db_id in sorted({item.db_id for item in pending}):
            env.value_index(db_id)

    # by (worker thread, db_id); a worker reads and writes only its own keys
    sandboxes: dict[tuple[int, str], Sandbox] = {}

    def sandbox_for(db_id: str) -> Sandbox | None:
        key = (threading.get_ident(), db_id)
        if key not in sandboxes:
            try:
                # closed by the thread that ends the run, once workers stop
                sandboxes[key] = Sandbox(env.db_path(db_id), check_same_thread=False)
            except IngestionError:
                return None  # the item opens its own and records the failure
        return sandboxes[key]

    stop = threading.Event()  # once set, a queued item returns without running
    journal_lock = threading.Lock()

    def process(item: BenchmarkItem) -> None:
        if stop.is_set():
            return
        trace = (out / TRACES_DIR / f"{item.question_id}.json") if write_traces else None
        calls = CountingModel(env.model)
        outage = ""
        try:
            record = run_one_item(item, env, cfg, mode=mode, trace_path=trace,
                                  sandbox=sandbox_for(item.db_id), calls=calls)
        except EndpointUnavailable as exc:  # the embedder's
            outage = f"the embedding endpoint failed item {item.question_id} ({exc})"
        else:
            if calls.count and calls.lost == calls.count:
                outage = (f"the endpoint answered no model call of item "
                          f"{item.question_id} (last error: {calls.last_loss})")
        if outage:
            # journaled, its EX 0 would make every resume skip the item
            stop.set()
            raise EndpointUnavailable(f"{outage}; the run stopped without "
                                      "recording it, so a rerun resumes from it")
        with journal_lock:
            done[item.question_id] = record
            journal.write(json.dumps(record, sort_keys=True,
                                     ensure_ascii=False) + "\n")
            journal.flush()

    with open(report_path, "a", encoding="utf-8") as journal:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            for future in as_completed([pool.submit(process, i) for i in pending]):
                future.result()
        finally:
            # after an interrupt or an outage queued items must not start;
            # the items in flight run to their end and journal their records
            stop.set()
            try:
                pool.shutdown(cancel_futures=True)
            finally:
                for sandbox in sandboxes.values():  # no worker is left to run a statement
                    sandbox.close()
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


# a quoted span ('…', "…" or `…`, an unclosed one running to the end) or a
# whitespace run outside one
_QUOTED_OR_SPACE = re.compile(r"""('[^']*'?|"[^"]*"?|`[^`]*`?)|\s+""")
# a tab, or anything `str.splitlines` ends a line at
_LINE_BREAK = re.compile("\r\n|[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")


def write_predictions(
    items: list[BenchmarkItem], records: dict[str, dict], path: Path
) -> None:
    """Submission file: `question_id<TAB>sql`, one line per item, dataset order."""
    lines = []
    for item in items:
        record = records.get(item.question_id)
        sql = (record or {}).get("sql", "") or ""
        lines.append(f"{item.question_id}\t{_one_line(sql)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _one_line(sql: str) -> str:
    """`sql` on one line with its string literals intact: outside quoted
    spans each whitespace run becomes one space; inside one, each line break
    or tab does, and all else is kept."""
    return _QUOTED_OR_SPACE.sub(
        lambda m: _LINE_BREAK.sub(" ", m[1]) if m[1] else " ", sql.strip())
