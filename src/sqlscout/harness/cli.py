"""Command-line entry points: index build, run, report, inspect."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from ..llm_client import (
    CachedEmbedder,
    CachedModel,
    OpenAIChatClient,
    OpenAIEmbedder,
    ResponseCache,
)
from ..core.catalog import load_catalog
from ..errors import ContractViolation, EndpointUnavailable, IngestionError
from ..value_index import build_value_index, save_index
from .config import load_config
from .dataset import (
    difficulty_counts,
    filter_by_ids,
    load_dataset,
    load_question_ids,
    subsample_sds,
)
from .runner import (
    REPORT_NAME,
    SUMMARY_NAME,
    TRACES_DIR,
    RunEnvironment,
    database_path,
    find_databases,
    load_report_records,
    run_benchmark,
    tally_by_difficulty,
)

log = logging.getLogger(__name__)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
def main(verbose: bool) -> None:
    """Monte Carlo tree search text-to-SQL benchmark runner."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.group()
def index() -> None:
    """Value-index management."""


@index.command("build")
@click.option("--db-root", type=click.Path(exists=True, file_okay=False),
              required=True,
              help="Directory holding <db_id>/<db_id>.sqlite or <db_id>.sqlite.")
@click.option("--db", "db_ids", multiple=True,
              help="Database id to index (repeatable); default: all found.")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True,
              help="Directory for <db_id>.jsonl index files.")
def index_build(db_root: str, db_ids: tuple[str, ...], out_dir: str) -> None:
    """Scan text columns of each database into a searchable value index."""
    root = Path(db_root)
    targets = list(db_ids) or find_databases(root)
    if not targets:
        raise click.ClickException(f"no databases found under {root}")
    out = Path(out_dir)
    for db_id in targets:
        try:
            catalog = load_catalog(database_path(root, db_id), db_id=db_id,
                                   value_examples=False)
            built = build_value_index(catalog)
        except IngestionError as exc:  # not a database file, say
            raise click.ClickException(str(exc)) from exc
        target = out / f"{db_id}.jsonl"
        save_index(built, target)
        click.echo(f"{db_id}: {len(built.values)} values -> {target}")


class _RunCommand(click.Command):
    """`run`, whose `--sds` is checked before click parses it.

    After an option whose value is optional, click's parser takes a token
    that starts with "-" for the next option, and it does the same with the
    value of `--sds=-1`: both fail as "No such option '-1'". A number there
    is handed to `--sds`'s own type first, whose error names the option.
    """

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        for arg, after in zip(args, [*args[1:], None]):
            if arg == "--":
                break
            if arg == "--sds":
                value = after
            elif arg.startswith("--sds="):
                value = arg[len("--sds="):]
            else:
                continue
            if value and value.startswith("-") and _is_number(value):
                sds = next(param for param in self.params if param.name == "sds")
                sds.type.convert(value, sds, ctx)
        return super().parse_args(ctx, args)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@main.command(cls=_RunCommand)
@click.option("--dataset", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Benchmark question file (JSON or JSONL).")
@click.option("--db-root", type=click.Path(exists=True, file_okay=False),
              required=True, help="Directory holding the SQLite databases.")
@click.option("--format", "fmt", type=click.Choice(["bird", "spider"]),
              default="bird", show_default=True)
@click.option("--mode", type=click.Choice(["mcts", "baseline"]),
              default="mcts", show_default=True)
@click.option("--index-dir", type=click.Path(file_okay=False), default=None,
              help="Directory of prebuilt value indexes (<db_id>.jsonl).")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True,
              help="Run directory for report, summary, and predictions.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="INI config mirroring search + endpoint settings.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Items run side by side, each on its own thread.")
@click.option("--resume/--no-resume", default=True, show_default=True,
              help="Skip items already present in the report file.")
@click.option("--traces", is_flag=True, help="Write per-question tree traces.")
@click.option("--sds", type=click.FloatRange(0, 1, min_open=True), is_flag=False,
              flag_value=0.10, default=None, metavar="[FRACTION]",
              help="Stratified subsample before running: FRACTION (default "
                   "0.1) of each database's items, rounded up.")
@click.option("--sds-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Question-id file naming the exact subsample.")
@click.option("--limit", type=click.IntRange(min=0), default=None,
              help="Run only the first N items (after subsampling).")
def run(dataset: str, db_root: str, fmt: str, mode: str, index_dir: str | None,
        out_dir: str, config_path: str | None, workers: int, resume: bool,
        traces: bool, sds: float | None, sds_file: str | None,
        limit: int | None) -> None:
    """Run the benchmark and write the report artifacts."""
    if sds is not None and sds_file:
        raise click.UsageError("--sds and --sds-file are mutually exclusive")
    try:
        cfg, endpoint = load_config(config_path)
    except (ValueError, IngestionError, ContractViolation) as exc:
        raise click.ClickException(str(exc)) from exc
    if not endpoint.chat_model:
        raise click.ClickException(
            "no chat model configured; set SQLSCOUT_CHAT_MODEL or the "
            "[endpoint] chat_model config key"
        )

    items = load_dataset(dataset, fmt=fmt)
    click.echo(f"loaded {len(items)} items: {difficulty_counts(items)}")
    if sds_file:
        items = filter_by_ids(items, load_question_ids(sds_file))
        click.echo(f"id file kept {len(items)}: {difficulty_counts(items)}")
    elif sds is not None:
        try:
            items = subsample_sds(items, fraction=sds, seed=cfg.rng_seed)
        except ContractViolation as exc:  # NaN passes the option's range
            raise click.ClickException(f"--sds: {exc}") from exc
        click.echo(f"subsampled {len(items)}: {difficulty_counts(items)}")
    if limit is not None:
        items = items[:limit]

    model = OpenAIChatClient(endpoint)
    embedder = OpenAIEmbedder(endpoint) if endpoint.embed_model else None
    if endpoint.cache_dir:
        cache = ResponseCache(endpoint.cache_dir)
        model = CachedModel(model, cache, endpoint.chat_model)
        if embedder is not None:
            embedder = CachedEmbedder(embedder, cache, endpoint.embed_model)

    env = RunEnvironment(
        model=model,
        db_root=Path(db_root),
        index_dir=Path(index_dir) if index_dir else None,
        embedder=embedder,
        endpoint=endpoint,
    )
    try:
        summary = run_benchmark(
            items, env, cfg, out_dir, mode=mode, workers=workers,
            resume=resume, write_traces=traces,
        )
    # an unreadable value index, say, or an endpoint that answers nothing
    except (IngestionError, EndpointUnavailable) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(json.dumps(summary["ex_by_difficulty"], indent=1, sort_keys=True))
    click.echo(f"EX overall: {summary['ex_overall']:.4f} "
               f"({summary['completed']}/{summary['total_items']} items)")


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def report(run_dir: str) -> None:
    """Recompute and print the accuracy table from a run directory."""
    out = Path(run_dir)
    records = load_report_records(out / REPORT_NAME)
    if not records:
        raise click.ClickException(f"no records in {out / REPORT_NAME}")
    summary_path = out / SUMMARY_NAME
    stored = {}
    if summary_path.exists():
        stored = json.loads(summary_path.read_text(encoding="utf-8"))

    rows = list(records.values())
    by_difficulty = tally_by_difficulty(rows)
    width = max(len(d) for d in by_difficulty) + 2
    click.echo(f"{'difficulty':<{width}}{'n':>6}{'correct':>9}{'EX':>8}")
    for difficulty, bucket in by_difficulty.items():
        n, correct = bucket["n"], bucket["correct"]
        click.echo(f"{difficulty:<{width}}{n:>6}{correct:>9}{correct / n:>8.4f}")
    bits = [int(r.get("ex", 0)) for r in rows]
    click.echo(f"{'overall':<{width}}{len(bits):>6}{sum(bits):>9}"
               f"{sum(bits) / len(bits):>8.4f}")
    broken = sum(1 for r in rows if r.get("broken_gold"))
    errors = sum(1 for r in rows if r.get("error"))
    if broken:
        click.echo(f"broken gold queries: {broken}")
    if errors:
        click.echo(f"item errors: {errors}")
    if stored.get("mode"):
        click.echo(f"mode: {stored['mode']}  seed: {stored.get('seed')}")


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--question-id", required=True, help="Item whose tree to show.")
@click.option("--max-sql", type=click.IntRange(min=4), default=60, show_default=True,
              help="Truncate SQL display to this many characters.")
def inspect(run_dir: str, question_id: str, max_sql: int) -> None:
    """Pretty-print a per-question search-tree trace."""
    trace_path = Path(run_dir) / TRACES_DIR / f"{question_id}.json"
    if not trace_path.exists():
        raise click.ClickException(
            f"no trace at {trace_path}; rerun with --traces"
        )
    tree = json.loads(trace_path.read_text(encoding="utf-8"))
    nodes = {n["id"]: n for n in tree["nodes"]}
    children: dict[int | None, list[int]] = {}
    for n in tree["nodes"]:
        children.setdefault(n["parent"], []).append(n["id"])

    def render(node_id: int, depth: int) -> None:
        n = nodes[node_id]
        label = n["action"] or "root"
        parts = [f"{label} visits={n['visits']}"]
        if n["edge_n"] is not None:
            parts.append(f"Q/N={n['edge_q']}/{n['edge_n']}")
        if n["reward"] is not None:
            parts.append(f"reward={n['reward']}")
        if n["dead"]:
            parts.append("dead")
        if n["sql"]:
            sql = " ".join(n["sql"].split())
            if len(sql) > max_sql:
                sql = sql[: max_sql - 3] + "..."
            parts.append(f"sql={sql!r}")
        click.echo("  " * depth + " ".join(parts))
        for child_id in children.get(node_id, []):
            render(child_id, depth + 1)

    roots = children.get(None, [])
    for root_id in roots:
        render(root_id, 0)


if __name__ == "__main__":
    main()
