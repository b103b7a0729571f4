"""Database schema model and loaders.

A DatabaseCatalog is the engine's view of one SQLite database: tables,
columns with declared types, primary/foreign keys, optional human-written
column descriptions (read from the per-database description CSVs that
benchmark releases ship), and a few example values per text column.
"""

from __future__ import annotations

import csv
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import IngestionError
from ..sql_exec import open_readonly, quote_ident

VALUE_EXAMPLE_CAP = 3


@dataclass
class ColumnDef:
    name: str
    type: str
    not_null: bool = False
    primary_key: bool = False
    description: str = ""
    value_examples: list[str] = field(default_factory=list)

    @property
    def is_text(self) -> bool:
        """A declared type that names "char" or "text", in any case: the
        columns the value index scans and the prompt shows examples of."""
        declared = self.type.lower()
        return "char" in declared or "text" in declared


@dataclass(frozen=True)
class ForeignKey:
    table: str
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass
class TableDef:
    name: str
    columns: list[ColumnDef]
    # lowercase column name -> column; the first column of a name wins
    columns_by_lower: dict[str, ColumnDef] = field(init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        self.columns_by_lower = {c.name.lower(): c for c in reversed(self.columns)}

    def column(self, name: str) -> ColumnDef | None:
        return self.columns_by_lower.get(name.lower())

    @property
    def primary_key(self) -> list[str]:
        return [c.name for c in self.columns if c.primary_key]


@dataclass
class DatabaseCatalog:
    db_id: str
    db_path: str
    tables: list[TableDef]
    foreign_keys: list[ForeignKey]
    # CREATE TABLE blocks that `render_schema_context` already rendered
    rendered_tables: dict[tuple, str] = field(default_factory=dict, repr=False,
                                              compare=False)
    # lowercase table name -> table; the first table of a name wins
    tables_by_lower: dict[str, TableDef] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self):
        self.tables_by_lower = {t.name.lower(): t for t in reversed(self.tables)}

    def table(self, name: str) -> TableDef | None:
        return self.tables_by_lower.get(name.lower())

    def text_columns(self) -> list[tuple[str, str]]:
        return [(t.name, c.name) for t in self.tables for c in t.columns if c.is_text]


def load_catalog(db_path: str | Path, db_id: str = "",
                 value_examples: bool = True) -> DatabaseCatalog:
    """Read table/column/key structure from a SQLite file.

    A file that cannot be read as a database raises `IngestionError`.
    """
    path = Path(db_path)
    db_id = db_id or path.stem
    conn = open_readonly(path)
    try:
        names = [
            r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        tables: list[TableDef] = []
        # table -> its primary-key columns in key order (table_info's `pk`)
        key_order: dict[str, list[str]] = {}
        # (table, parent as spelled, [(column, parent column or None)])
        declared: list[tuple[TableDef, str, list]] = []
        for name in names:
            cols, key_at = [], {}
            for _, cname, ctype, not_null, _default, pk in conn.execute(
                f"PRAGMA table_info({quote_ident(name)})"
            ):
                cols.append(ColumnDef(
                    name=cname,
                    type=ctype or "TEXT",
                    not_null=bool(not_null),
                    primary_key=bool(pk),
                ))
                if pk:
                    key_at[pk] = cname
            key_order[name] = [key_at[i] for i in sorted(key_at)]
            table = TableDef(name=name, columns=cols)
            if value_examples:
                _attach_value_examples(conn, table)
            tables.append(table)
            # group multi-column foreign keys by their constraint id
            grouped: dict[int, tuple[str, list]] = {}
            for fk_id, _seq, ref_table, col, ref_col, *_ in conn.execute(
                f"PRAGMA foreign_key_list({quote_ident(name)})"
            ):
                grouped.setdefault(fk_id, (ref_table, []))[1].append((col, ref_col))
            declared += [(table, *key) for key in grouped.values()]
    except sqlite3.Error as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    finally:
        conn.close()
    catalog = DatabaseCatalog(db_id=db_id, db_path=str(path), tables=tables,
                              foreign_keys=[])
    for table, ref_table, pairs in declared:
        fk = _resolve_foreign_key(catalog, key_order, table, ref_table, pairs)
        if fk is not None:
            catalog.foreign_keys.append(fk)
    return catalog


def _resolve_foreign_key(catalog: DatabaseCatalog, key_order: dict[str, list[str]],
                         table: TableDef, ref_table: str,
                         pairs: list[tuple[str, str | None]]) -> ForeignKey | None:
    """A declared key in the catalog's own spelling, or None if its parent
    table or one of its columns is not there. SQLite matches these names
    case-insensitively; a shorthand key (`REFERENCES parent` with no column
    list) names the parent's primary key, in key order."""
    parent = catalog.table(ref_table)
    if parent is None:
        return None
    ref_names = [ref for _, ref in pairs]
    if None in ref_names:
        ref_names = key_order[parent.name]
    columns = [table.column(col) for col, _ in pairs]
    refs = [parent.column(ref) for ref in ref_names]
    if len(refs) != len(columns) or None in columns + refs:
        return None
    return ForeignKey(table=table.name, columns=tuple(c.name for c in columns),
                      ref_table=parent.name, ref_columns=tuple(c.name for c in refs))


def _attach_value_examples(conn: sqlite3.Connection, table: TableDef) -> None:
    for col in table.columns:
        if not col.is_text:
            continue
        column = quote_ident(col.name)
        try:
            rows = conn.execute(
                f"SELECT DISTINCT {column} FROM {quote_ident(table.name)} "
                f"WHERE {column} IS NOT NULL LIMIT {VALUE_EXAMPLE_CAP}"
            ).fetchall()
        except sqlite3.Error:
            continue
        col.value_examples = [str(r[0]) for r in rows if str(r[0]).strip()]


def attach_descriptions(catalog: DatabaseCatalog, description_dir: str | Path) -> None:
    """Merge column descriptions from per-table CSVs named `<table>.csv`.

    Expected columns: original_column_name plus one of column_description /
    value_description. Files use inconsistent encodings in the wild, so
    utf-8-sig is tried first and latin-1 is the fallback.
    """
    directory = Path(description_dir)
    if not directory.is_dir():
        return
    catalog.rendered_tables.clear()  # blocks rendered before lack the descriptions
    for table in catalog.tables:
        csv_path = directory / f"{table.name}.csv"
        if not csv_path.exists():
            continue
        rows = _read_csv(csv_path)
        for row in rows:
            cname = (row.get("original_column_name") or "").strip()
            if not cname:
                continue
            col = table.column(cname)
            if col is None:
                continue
            desc = (row.get("column_description") or "").strip()
            vdesc = (row.get("value_description") or "").strip()
            parts = [p for p in (desc, vdesc) if p]
            if parts:
                col.description = " ".join(" ".join(parts).split())


def _read_csv(path: Path) -> list[dict[str, str]]:
    for encoding in ("utf-8-sig", "latin-1"):
        try:
            with open(path, newline="", encoding=encoding) as fh:
                return list(csv.DictReader(fh))
        except UnicodeDecodeError:
            continue
    raise IngestionError(f"cannot decode {path}")
