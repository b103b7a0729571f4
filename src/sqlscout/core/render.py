"""Render a catalog (or a selected slice of it) as CREATE TABLE text for prompts.

The layout mirrors what schema-aware SQL models are typically shown: one
CREATE TABLE block per table, one line per column with nullability, inline
example values and the column description as a trailing comment, and foreign
keys as plain `foreign key (...) references ...` lines.
"""

from __future__ import annotations

import re

from .catalog import ColumnDef, DatabaseCatalog, TableDef
from .types import SchemaKey

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_EXAMPLE_CAP = 5
# CREATE TABLE blocks kept per catalog. A question adds a few blocks of its
# own (those showing its retrieved values), so the store starts over once full.
_RENDERED_CAP = 4096


def _quote(name: str) -> str:
    return name if _IDENT.match(name) else f"`{name}`"


def _column_line(col: ColumnDef, inline_pk: bool,
                 retrieved: list[str] | None) -> str:
    decl = f"\t{_quote(col.name)} {col.type}" if col.type else f"\t{_quote(col.name)}"
    if inline_pk:
        decl += " not null primary key"
    elif col.not_null:
        decl += " not null"
    else:
        decl += " null"
    examples: list[str] = []
    seen: set[str] = set()
    for value in (retrieved or []) + col.value_examples:
        key = value.strip().lower()
        if not key or key in seen:
            continue
        seen.add(key)
        examples.append(value.strip())
        if len(examples) >= _EXAMPLE_CAP:
            break
    comment_parts = []
    if examples:
        rendered = ", ".join(f"'{v}'" for v in examples)
        comment_parts.append(f"Value Examples: {rendered}")
    if col.description:
        comment_parts.append(f"Column Description: {col.description}")
    if comment_parts:
        decl += ", -- " + " | ".join(comment_parts)
    else:
        decl += ","
    return decl


def render_schema_context(
    catalog: DatabaseCatalog,
    selected: SchemaKey | None = None,
    retrieved_values: dict[tuple[str, str], list[str]] | None = None,
) -> str:
    """Deterministic CREATE TABLE text for the given schema slice.

    With `selected` (a `SchemaKey`, as schema selection answers), only the
    named tables appear and each table shows the selected columns plus its
    primary key and the endpoints of foreign keys whose both tables are
    included; other foreign key lines are dropped.
    Table and column order follow the catalog, not the selection.

    `retrieved_values` maps (table, column) to values worth surfacing; they
    are listed before the catalog's own examples.

    Each table's block is rendered once per catalog and kept in
    `catalog.rendered_tables`, keyed by the table, its visible columns, its
    foreign key lines and the retrieved values of its visible columns, which
    is everything the block depends on. Threads that miss together each
    render the same block, and one of them keeps it.
    """
    retrieved_values = retrieved_values or {}
    if selected is None:
        tables = list(catalog.tables)
        chosen: dict[str, set[str]] = {
            t.name: {c.name for c in t.columns} for t in tables
        }
    else:
        # names match case-insensitively; a later spelling of a table wins
        chosen = {}
        for name, columns in selected:
            table = catalog.table(name)
            if table is not None:
                chosen[table.name] = {col.name for col in map(table.column, columns)
                                      if col is not None}
        tables = [t for t in catalog.tables if t.name in chosen]

    included = {t.name for t in tables}
    fks_by_table: dict[str, list] = {name: [] for name in included}
    for fk in catalog.foreign_keys:
        if fk.table in included and fk.ref_table in included:
            fks_by_table[fk.table].append(fk)
            # key endpoints must be visible for the reference to make sense
            chosen[fk.table].update(fk.columns)
            chosen[fk.ref_table].update(fk.ref_columns)
    for t in tables:
        chosen[t.name].update(t.primary_key)

    retrieved_by_table: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for (table, column), values in retrieved_values.items():
        retrieved_by_table.setdefault(table, []).append((column, tuple(values)))
    rendered = catalog.rendered_tables
    blocks = []
    for t in tables:
        visible = chosen[t.name]
        fks = tuple(fks_by_table[t.name])
        shown = tuple(sorted(
            cv for cv in retrieved_by_table.get(t.name, ()) if cv[0] in visible))
        key = (t.name, frozenset(visible), fks, shown)
        block = rendered.get(key)
        if block is None:
            if len(rendered) >= _RENDERED_CAP:
                rendered.clear()
            block = rendered[key] = _render_table(t, visible, fks, retrieved_values)
        blocks.append(block)
    return "\n\n".join(blocks)


def _render_table(table: TableDef, visible: set[str], fks: tuple,
                  retrieved_values: dict[tuple[str, str], list[str]]) -> str:
    pk = table.primary_key
    inline_pk = pk[0] if len(pk) == 1 else None
    lines = [f"CREATE TABLE {_quote(table.name)}", "("]
    for col in table.columns:
        if col.name not in visible:
            continue
        lines.append(_column_line(
            col,
            inline_pk=col.name == inline_pk,
            retrieved=retrieved_values.get((table.name, col.name)),
        ))
    if len(pk) > 1:
        cols = ", ".join(_quote(c) for c in pk)
        lines.append(f"\tprimary key ({cols}),")
    for fk in fks:
        cols = ", ".join(_quote(c) for c in fk.columns)
        refs = ", ".join(_quote(c) for c in fk.ref_columns)
        lines.append(
            f"\tforeign key ({cols}) references {_quote(fk.ref_table)} ({refs}),"
        )
    # last declaration line carries no trailing comma; any comment stays
    last = lines[-1]
    lines[-1] = last[:-1] if last.endswith(",") else last.replace(", -- ", " -- ", 1)
    lines.append(");")
    return "\n".join(lines)
