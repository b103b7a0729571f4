"""Seeded input generation: one SQLite database, a BIRD-format question file
and the scripted answers the simulated endpoint gives for every question.

Everything here is a pure function of (workload shape, seed). The program
under test only ever sees the files written by `generate`; the scripts stay
on the benchmark's side and drive the simulated endpoint and the checks.
"""

from __future__ import annotations

import csv
import json
import random
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

# Marker carried by every question's hint. Every prompt template has a hint
# slot, so the endpoint can tell which question a call belongs to.
MARKER = "[bench-qid:"

_SYLLABLES = (
    "ka lo mi ra ven dor sil tha bel cor an er is ul quin mar tes pol gra nor "
    "vi sa te po du fe gi ho ja ku le mo ni pe ru si to va we xi yo ze bri "
    "cla dre fro glo pla sto tru zan mek"
).split()


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # "pk" | "fk" | "text_hi" | "text_lo" | "int"
    distinct: int = 0  # text columns: size of the value pool
    ref: str = ""  # fk: referenced table


@dataclass(frozen=True)
class TableSpec:
    name: str
    rows: int
    columns: tuple[ColumnSpec, ...]


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's inputs."""

    db_id: str
    tables: tuple[TableSpec, ...]
    questions: int
    descriptions: bool = False


@dataclass
class SqlOption:
    """One answer the endpoint may give to a SQL-writing prompt."""

    sql: str | None  # None: an answer without a parseable query
    weight: float


@dataclass
class QuestionScript:
    qid: str
    key: str
    question: str
    hint: str
    gold: str
    keywords: list[str]
    planted: list[tuple[str, str, str]]  # (table, column, value) exact hits
    rephrasings: list[str]
    schema_answers: list[str]
    value_notes: list[str]
    function_notes: list[str]
    generate: list[SqlOption]
    repairs: dict[str, list[str]] = field(default_factory=dict)


# ---- workload shapes ----

def _hi(name: str, distinct: int) -> ColumnSpec:
    return ColumnSpec(name, "text_hi", distinct)


def _lo(name: str, distinct: int) -> ColumnSpec:
    return ColumnSpec(name, "text_lo", distinct)


def _int(name: str) -> ColumnSpec:
    return ColumnSpec(name, "int")


def _fk(name: str, ref: str) -> ColumnSpec:
    return ColumnSpec(name, "fk", ref=ref)


_PK = ColumnSpec("id", "pk")


def narrow_shape(scale: str) -> Shape:
    """A handful of tables of about a thousand rows, ~10k distinct values."""
    rows, n_q = (1000, 50) if scale == "full" else (60, 3)
    tables = (
        TableSpec("customers", rows, (
            _PK, _hi("full_name", rows), _hi("email_user", rows),
            _hi("street", rows), _lo("city", 25), _lo("segment", 6), _int("age"),
        )),
        TableSpec("products", rows, (
            _PK, _hi("title", rows), _hi("brand", rows // 2),
            _lo("category", 15), _int("price"),
        )),
        TableSpec("stores", rows, (
            _PK, _hi("store_name", rows), _hi("manager", rows),
            _lo("region", 8), _int("floor_area"),
        )),
        TableSpec("orders", rows, (
            _PK, _fk("customer_id", "customers"), _fk("product_id", "products"),
            _fk("store_id", "stores"), _hi("order_note", rows), _lo("status", 5),
            _int("quantity"),
        )),
    )
    return Shape("shop", tables, n_q)


def wide_shape(scale: str) -> Shape:
    """BIRD-scale schema: tens of small tables, hundreds of described columns."""
    n_tables, rows, n_q = (32, 25, 60) if scale == "full" else (6, 8, 3)
    rng = random.Random(7)  # the schema layout is fixed; the seed picks values
    tables = []
    for t in range(n_tables):
        name = f"{_word(rng, 2).lower()}_{t:02d}"
        cols = [_PK]
        if t:
            cols.append(_fk(f"{tables[-1].name}_id", tables[-1].name))
        for c in range(rng.randint(7, 12)):
            kind = rng.random()
            cname = f"{_word(rng, 2).lower()}_{c}"
            if kind < 0.45:
                cols.append(_hi(cname, rows))
            elif kind < 0.7:
                cols.append(_lo(cname, 6))
            else:
                cols.append(_int(cname))
        if not any(c.kind == "text_hi" for c in cols):
            cols.append(_hi("label", rows))
        if not any(c.kind == "int" for c in cols):
            cols.append(_int("amount"))
        tables.append(TableSpec(name, rows, tuple(cols)))
    return Shape("registry", tuple(tables), n_q, descriptions=True)


def large_shape(scale: str) -> Shape:
    """A few tables of ~100k rows holding ~30k distinct text values."""
    rows, hi, n_q = (100_000, 7_500, 50) if scale == "full" else (2_000, 300, 3)
    tables = (
        TableSpec("people", rows, (
            _PK, _hi("full_name", hi), _lo("city", 40), _lo("occupation", 30),
            _int("age"),
        )),
        TableSpec("accounts", rows, (
            _PK, _fk("person_id", "people"), _hi("account_code", hi),
            _lo("bank", 20), _int("balance"),
        )),
        TableSpec("events", rows, (
            _PK, _fk("person_id", "people"), _hi("venue", hi), _lo("kind", 10),
            _int("year"),
        )),
        TableSpec("items", rows, (
            _PK, _hi("sku_name", hi), _lo("vendor", 30), _int("qty"),
        )),
    )
    return Shape("ledger", tables, n_q)


SHAPES = {"narrow": narrow_shape, "wide": wide_shape, "large": large_shape}


# ---- values ----

def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables)).capitalize()


def _value_pool(rng: random.Random, n: int, words: int, taken: set[str]) -> list[str]:
    pool: list[str] = []
    while len(pool) < n:
        value = " ".join(_word(rng, rng.randint(2, 3)) for _ in range(words))
        if value not in taken:
            taken.add(value)
            pool.append(value)
    return pool


@dataclass
class _TableData:
    spec: TableSpec
    pools: dict[str, list[str]]
    rows: list[tuple]


def _make_tables(shape: Shape, rng: random.Random) -> dict[str, _TableData]:
    taken: set[str] = set()
    out: dict[str, _TableData] = {}
    for spec in shape.tables:
        pools = {
            c.name: _value_pool(rng, c.distinct, 2 if c.kind == "text_hi" else 1, taken)
            for c in spec.columns if c.kind in ("text_hi", "text_lo")
        }
        columns = []
        for c in spec.columns:
            if c.kind == "pk":
                columns.append(range(1, spec.rows + 1))
            elif c.kind == "fk":
                ref_rows = next(t.rows for t in shape.tables if t.name == c.ref)
                columns.append([rng.randint(1, ref_rows) for _ in range(spec.rows)])
            elif c.kind == "int":
                columns.append([rng.randint(1, 1000) for _ in range(spec.rows)])
            else:
                pool = pools[c.name]
                # every pool value occurs at least once, the rest at random
                cells = [pool[i % len(pool)] for i in range(spec.rows)]
                rng.shuffle(cells)
                columns.append(cells)
        out[spec.name] = _TableData(spec, pools, list(zip(*columns)))
    return out


def _write_db(path: Path, tables: dict[str, _TableData]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    conn = sqlite3.connect(path)
    try:
        for data in tables.values():
            decls, fks = [], []
            for c in data.spec.columns:
                if c.kind == "pk":
                    decls.append(f"{c.name} INTEGER NOT NULL PRIMARY KEY")
                elif c.kind in ("fk", "int"):
                    decls.append(f"{c.name} INTEGER")
                else:
                    decls.append(f"{c.name} TEXT")
                if c.kind == "fk":
                    fks.append(f"FOREIGN KEY ({c.name}) REFERENCES {c.ref} (id)")
            conn.execute(f"CREATE TABLE {data.spec.name} ({', '.join(decls + fks)})")
            marks = ",".join("?" * len(data.spec.columns))
            conn.executemany(f"INSERT INTO {data.spec.name} VALUES ({marks})", data.rows)
            # foreign keys are indexed, text columns are not
            for c in data.spec.columns:
                if c.kind == "fk":
                    conn.execute(f"CREATE INDEX {data.spec.name}_{c.name} "
                                 f"ON {data.spec.name} ({c.name})")
        conn.commit()
    finally:
        conn.close()


def _write_descriptions(directory: Path, shape: Shape) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for spec in shape.tables:
        with open(directory / f"{spec.name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["original_column_name", "column_description",
                             "value_description"])
            for c in spec.columns:
                what = {
                    "pk": "unique identifier of the record",
                    "fk": f"identifier of the related {c.ref} record",
                    "text_hi": f"the {c.name.replace('_', ' ')} as registered",
                    "text_lo": f"category of {c.name.replace('_', ' ')}",
                    "int": f"measured {c.name.replace('_', ' ')} in whole units",
                }[c.kind]
                values = "commonly used in filters" if c.kind.startswith("text") else ""
                writer.writerow([c.name, what, values])


# ---- questions and scripted answers ----

def _misspell(rng: random.Random, value: str) -> str:
    i = rng.randrange(1, len(value) - 1)
    repl = "x" if value[i] != "x" else "q"
    return value[:i] + repl + value[i + 1:]


def _question(shape: Shape, tables: dict[str, _TableData], rng: random.Random,
              layout: random.Random, index: int, key: str) -> QuestionScript:
    """One question over one table (two for joins), with its scripted answers.

    `layout` picks tables and columns, the same for every seed, so that the
    cost of a question set does not depend on the seed; `rng` picks values.
    """
    joinable = [t for t in shape.tables
                if any(c.kind == "fk" for c in t.columns)]
    kind = ("count", "agg", "lookup", "join")[index % 4]
    if kind == "join" and not joinable:
        kind = "count"
    if kind == "join":
        child = layout.choice(joinable)
        fk = layout.choice([c for c in child.columns if c.kind == "fk"])
        target = tables[fk.ref]
    else:
        child, fk = None, None
        target = tables[layout.choice(shape.tables).name]
    spec = target.spec
    t = spec.name
    hi = [c for c in spec.columns if c.kind == "text_hi"]
    lo = [c for c in spec.columns if c.kind == "text_lo"] or hi
    ints = [c for c in spec.columns if c.kind == "int"]
    c = layout.choice(hi).name
    v = rng.choice(target.pools[c])
    prefix = v[:2]
    ic = layout.choice(ints).name
    lc = layout.choice(lo).name
    phrase = c.replace("_", " ")

    if kind == "count":
        question = f"How many {t} records have the {phrase} {v}?"
        gold = f"SELECT COUNT(*) FROM {t} WHERE {c} = '{v}'"
        equal = [f"SELECT COUNT(id) FROM {t} WHERE {c} = '{v}'",
                 f"SELECT COUNT(*) FROM {t} AS T1 WHERE T1.{c} = '{v}'"]
        wrong = [f"SELECT COUNT(*) FROM {t} WHERE {c} <> '{v}'",
                 f"SELECT COUNT(*) FROM {t} WHERE {c} LIKE '{prefix}%'"]
    elif kind == "agg":
        question = f"What is the highest {ic} among {t} with the {phrase} {v}?"
        gold = f"SELECT MAX({ic}) FROM {t} WHERE {c} = '{v}'"
        equal = [f"SELECT {ic} FROM {t} WHERE {c} = '{v}' ORDER BY {ic} DESC LIMIT 1",
                 f"SELECT MAX(T1.{ic}) FROM {t} AS T1 WHERE T1.{c} = '{v}'"]
        wrong = [f"SELECT MAX({ic}) FROM {t} WHERE {c} <> '{v}'",
                 f"SELECT MIN({ic}) FROM {t}"]
    elif kind == "lookup":
        question = f"Which {lc.replace('_', ' ')} do {t} with the {phrase} {v} have?"
        gold = f"SELECT DISTINCT {lc} FROM {t} WHERE {c} = '{v}'"
        equal = [f"SELECT {lc} FROM {t} WHERE {c} = '{v}' GROUP BY {lc}",
                 f"SELECT DISTINCT T1.{lc} FROM {t} AS T1 WHERE T1.{c} = '{v}'"]
        wrong = [f"SELECT DISTINCT {lc} FROM {t} WHERE {c} LIKE '{prefix}%' LIMIT 3",
                 f"SELECT COUNT(DISTINCT {lc}) FROM {t} WHERE {c} = '{v}'"]
    else:
        ct = child.name
        question = f"How many {ct} records belong to {t} with the {phrase} {v}?"
        gold = (f"SELECT COUNT(*) FROM {ct} AS T1 INNER JOIN {t} AS T2 "
                f"ON T1.{fk.name} = T2.id WHERE T2.{c} = '{v}'")
        equal = [f"SELECT COUNT(*) FROM {ct} WHERE {fk.name} IN "
                 f"(SELECT id FROM {t} WHERE {c} = '{v}')",
                 f"SELECT COUNT(T1.id) FROM {ct} AS T1 INNER JOIN {t} AS T2 "
                 f"ON T1.{fk.name} = T2.id WHERE T2.{c} = '{v}'"]
        wrong = [f"SELECT COUNT(*) FROM {t} WHERE {c} = '{v}'",
                 f"SELECT COUNT(*) FROM {ct} WHERE {fk.name} IN "
                 f"(SELECT id FROM {t} WHERE {c} LIKE '{prefix}%')"]

    # broken answers: a typo repaired in one round, and a wrong column whose
    # first repair is itself broken, so its chain takes two rounds
    typo = gold.replace("SELECT", "SELEC", 1)
    bad_column = gold.replace(f"{c} = '{v}'", f"{c}_name = '{v}'")
    bad_again = bad_column.replace("_name = ", "_label = ").replace(" WHERE ", " WHER ", 1)
    generate = [
        SqlOption(gold, 0.65), SqlOption(equal[0], 0.08), SqlOption(equal[1], 0.04),
        SqlOption(wrong[0], 0.06), SqlOption(wrong[1], 0.03),
        SqlOption(typo, 0.06), SqlOption(bad_column, 0.05), SqlOption(None, 0.03),
    ]
    repairs = {
        typo: [gold, equal[0], wrong[0]],
        bad_column: [bad_again, bad_again, equal[1]],
        bad_again: [gold, equal[1], wrong[1]],
    }

    selected = {t: sorted({"id", c, ic, lc})}
    if child is not None:
        selected[child.name] = ["id", fk.name]
    other = layout.choice([s for s in shape.tables if s.name not in selected] or [spec])
    wider = dict(selected)
    wider[other.name] = [col.name for col in other.columns[:2]]
    schema_answers = [
        "```json\n" + json.dumps(selected) + "\n```",
        "```json\n" + json.dumps(wider) + "\n```",
        "The main table is enough to answer this.",  # no JSON: fails to parse
    ]
    hint = f"{phrase} refers to {t}.{c}; {MARKER}{key}]"
    pool = target.pools[lc]
    lo_value = rng.choice(pool)
    if lo_value == v:  # lc can be c itself; keep the keywords distinct
        lo_value = pool[(pool.index(v) + 1) % len(pool)]
    keywords = [v, _misspell(rng, v), lo_value, phrase]
    planted = [(t, c, v), (t, lc, lo_value)]
    return QuestionScript(
        qid=str(index), key=key, question=question, hint=hint, gold=gold,
        keywords=keywords, planted=planted,
        rephrasings=[
            f"Rephrased Question: {question} Use {t}.{c} = '{v}'.",
            f"Rephrased Question: Looking only at {t} rows whose {phrase} is {v}: {question}",
        ],
        schema_answers=schema_answers,
        value_notes=[f"The filter value is {c} = '{v}'.",
                     f"'{v}' is stored verbatim in {t}.{c}."],
        function_notes=["No functions are needed beyond the aggregate.",
                        "Use COUNT, MAX or DISTINCT as the question asks."],
        generate=generate, repairs=repairs,
    )


@dataclass
class Inputs:
    db_id: str
    db_root: Path
    db_path: Path
    dataset_path: Path
    scripts: dict[str, QuestionScript]  # by marker key


def generate(shape: Shape, seed: int, work: Path) -> Inputs:
    """Write the database and question file under `work`; return the scripts."""
    rng = random.Random(f"{shape.db_id}:{seed}")
    layout = random.Random(f"{shape.db_id}:layout")
    tables = _make_tables(shape, rng)
    db_root = work / "databases"
    db_dir = db_root / shape.db_id
    db_path = db_dir / f"{shape.db_id}.sqlite"
    _write_db(db_path, tables)
    if shape.descriptions:
        _write_descriptions(db_dir / "database_description", shape)
    scripts: dict[str, QuestionScript] = {}
    records = []
    for i in range(shape.questions):
        key = f"{rng.getrandbits(32):08x}"
        script = _question(shape, tables, rng, layout, i, key)
        scripts[key] = script
        records.append({"question_id": script.qid, "db_id": shape.db_id,
                        "question": script.question, "evidence": script.hint,
                        "SQL": script.gold, "difficulty": "simple"})
    dataset_path = work / "dev.json"
    dataset_path.write_text(json.dumps(records, indent=1), encoding="utf-8")
    return Inputs(shape.db_id, db_root, db_path, dataset_path, scripts)
