"""Catalog ingestion from SQLite and schema-context rendering."""

import dataclasses
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

import sqlscout.core.render as render_module
from sqlscout.core.catalog import attach_descriptions, load_catalog
from sqlscout.core.render import render_schema_context
from sqlscout.errors import IngestionError
from sqlscout.sql_exec import Sandbox, open_readonly


def test_tables_and_columns_read(restaurant_catalog):
    names = [t.name for t in restaurant_catalog.tables]
    assert names == ["generalinfo", "location"]
    info = restaurant_catalog.table("generalinfo")
    assert [c.name for c in info.columns] == [
        "id_restaurant", "label", "food_type", "city", "review",
    ]
    assert info.column("id_restaurant").primary_key
    assert info.column("id_restaurant").not_null
    assert not info.column("label").not_null


def test_foreign_keys_read(restaurant_catalog):
    fks = restaurant_catalog.foreign_keys
    assert len(fks) == 1
    fk = fks[0]
    assert fk.table == "location"
    assert fk.columns == ("id_restaurant",)
    assert fk.ref_table == "generalinfo"
    assert fk.ref_columns == ("id_restaurant",)


def test_value_examples_attached(restaurant_catalog):
    food = restaurant_catalog.table("generalinfo").column("food_type")
    assert food.value_examples  # distinct sample, capped
    assert len(food.value_examples) <= 3
    assert all(isinstance(v, str) for v in food.value_examples)


def test_text_columns_listed(restaurant_catalog):
    cols = {(t, c) for t, c in restaurant_catalog.text_columns()}
    assert ("generalinfo", "food_type") in cols
    assert ("location", "street_name") in cols
    assert ("generalinfo", "review") not in cols  # REAL column


def test_value_examples_cover_exactly_the_indexed_columns(tmp_path):
    # the index scans `text_columns`; the prompt shows value examples
    catalog = catalog_of(tmp_path, """
        CREATE TABLE t (a VARCHAR(20), b NChar(3), c Text, d CLOB, e INTEGER,
                        f BLOB, g);
        INSERT INTO t VALUES ('x', 'y', 'z', 'w', 1, 'v', 'u');
    """)
    shown = [c.name for c in catalog.tables[0].columns if c.value_examples]
    assert shown == [c for _, c in catalog.text_columns()] == ["a", "b", "c", "g"]


def test_lookup_is_case_insensitive(restaurant_catalog):
    assert restaurant_catalog.table("GENERALINFO").name == "generalinfo"
    assert (
        restaurant_catalog.table("generalinfo").column("Food_Type").name
        == "food_type"
    )


def catalog_of(tmp_path: Path, script: str):
    path = tmp_path / "keys.sqlite"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(script)
    return load_catalog(path)


def key_of(fk) -> tuple:
    return fk.table, fk.columns, fk.ref_table, fk.ref_columns


def test_foreign_keys_take_the_catalogs_spelling(tmp_path):
    catalog = catalog_of(tmp_path, """
        CREATE TABLE Country (Code TEXT PRIMARY KEY, name TEXT);
        CREATE TABLE city (id INTEGER PRIMARY KEY, country_code TEXT, label TEXT,
                           FOREIGN KEY (Country_Code) REFERENCES country (code));
    """)
    assert [key_of(fk) for fk in catalog.foreign_keys] == [
        ("city", ("country_code",), "Country", ("Code",))]
    text = render_schema_context(
        catalog, selected=(("city", ("label",)), ("Country", ("name",))))
    assert "foreign key (country_code) references Country (Code)" in text
    assert "country_code TEXT" in text and "Code TEXT" in text


def test_a_shorthand_key_names_the_parents_primary_key(tmp_path):
    catalog = catalog_of(tmp_path, """
        CREATE TABLE a (x TEXT, id INTEGER PRIMARY KEY);
        CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER REFERENCES a);
    """)
    assert [key_of(fk) for fk in catalog.foreign_keys] == [
        ("b", ("a_id",), "a", ("id",))]
    assert "foreign key (a_id) references a (id)" in render_schema_context(catalog)


def test_a_composite_shorthand_key_follows_the_primary_keys_order(tmp_path):
    # the key is declared (q, p) over columns in the order p, q
    catalog = catalog_of(tmp_path, """
        CREATE TABLE c (p INTEGER, q INTEGER, v TEXT, PRIMARY KEY (q, p));
        CREATE TABLE d (x INTEGER, y INTEGER, FOREIGN KEY (x, y) REFERENCES c);
        CREATE TABLE e (x INTEGER, FOREIGN KEY (x) REFERENCES c);
        CREATE TABLE f (x INTEGER REFERENCES nowhere, y INTEGER REFERENCES c (w));
    """)
    # e's key has one column for a two-column primary key, f's parent
    # table and parent column do not exist: all three are dropped
    assert [key_of(fk) for fk in catalog.foreign_keys] == [
        ("d", ("x", "y"), "c", ("q", "p"))]


def test_missing_database_raises(tmp_path):
    with pytest.raises(IngestionError):
        load_catalog(tmp_path / "absent.sqlite")


def test_a_file_that_is_no_database_raises_ingestion_error(tmp_path):
    # SQLite opens any file; the first read is what fails on one
    path = tmp_path / "notes.sqlite"
    path.write_bytes(b"plain text, not a database\n" * 100)
    with pytest.raises(IngestionError, match="notes.sqlite.*not a database"):
        load_catalog(path)


def test_a_path_with_uri_characters_opens_that_file_read_only(restaurant_db,
                                                              tmp_path):
    # unescaped, "#" ends the URI's path and drops "?mode=ro" with it
    odd = tmp_path / "runs #1?" / "restaurants.sqlite"
    odd.parent.mkdir()
    odd.write_bytes(Path(restaurant_db).read_bytes())
    before = sorted(tmp_path.rglob("*"))
    assert [t.name for t in load_catalog(odd).tables] == [
        t.name for t in load_catalog(restaurant_db).tables]
    with Sandbox(odd) as sandbox:
        assert sandbox.run("SELECT COUNT(*) FROM location").rows == {(7,)}
    assert sorted(tmp_path.rglob("*")) == before  # no stray file was created
    with closing(open_readonly(odd)) as conn:
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("CREATE TABLE t (x)")


def test_descriptions_merge(restaurant_db, tmp_path):
    catalog = load_catalog(restaurant_db, db_id="restaurants")
    desc_dir = tmp_path / "database_description"
    desc_dir.mkdir()
    (desc_dir / "generalinfo.csv").write_text(
        "original_column_name,column_description,value_description\n"
        "food_type,the cuisine offered,\n"
        "review,,score from 1 to 5\n",
        encoding="utf-8",
    )
    attach_descriptions(catalog, desc_dir)
    info = catalog.table("generalinfo")
    assert "cuisine" in info.column("food_type").description
    assert "score from 1 to 5" in info.column("review").description
    assert info.column("label").description == ""


def test_render_full_schema(restaurant_catalog):
    text = render_schema_context(restaurant_catalog)
    assert "CREATE TABLE generalinfo" in text
    assert "CREATE TABLE location" in text
    assert "foreign key (id_restaurant) references generalinfo" in text
    # value examples from the catalog appear as trailing comments
    assert "-- Value Examples:" in text
    assert "'thai'" in text


def test_render_selected_subset_keeps_keys(restaurant_catalog):
    # selecting a non-key column still pulls in the primary key
    text = render_schema_context(
        restaurant_catalog, selected=(("generalinfo", ("food_type",)),)
    )
    assert "CREATE TABLE generalinfo" in text
    assert "food_type" in text
    assert "id_restaurant" in text  # primary key retained
    assert "CREATE TABLE location" not in text
    assert "review" not in text


def test_render_selection_is_case_insensitive(restaurant_catalog):
    text = render_schema_context(
        restaurant_catalog, selected=(("GeneralInfo", ("FOOD_TYPE",)),)
    )
    assert "food_type" in text


def test_render_merges_retrieved_values(restaurant_catalog):
    retrieved = {("generalinfo", "city"): ["san leandro", "albany"]}
    text = render_schema_context(restaurant_catalog, retrieved_values=retrieved)
    assert "'san leandro'" in text
    line = next(l for l in text.splitlines() if "'san leandro'" in l)
    # retrieved values come before the catalog samples, deduplicated
    assert line.index("san leandro") < line.index("berkeley")
    assert line.count("'albany'") == 1


def test_render_quotes_odd_identifiers(tmp_path):
    db = tmp_path / "odd.sqlite"
    conn = sqlite3.connect(db)
    conn.execute('CREATE TABLE "order items" (id INTEGER PRIMARY KEY, "unit price" REAL)')
    conn.commit()
    conn.close()
    text = render_schema_context(load_catalog(db))
    assert "`order items`" in text
    assert "`unit price`" in text


# ---- each table's block renders once per catalog ----

def make_orders_db(path: Path) -> Path:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE orders (
            order_id INTEGER NOT NULL PRIMARY KEY,
            customer TEXT,
            status TEXT
        );
        CREATE TABLE items (
            order_id INTEGER NOT NULL,
            line INTEGER NOT NULL,
            product TEXT,
            qty INTEGER,
            PRIMARY KEY (order_id, line),
            FOREIGN KEY (order_id) REFERENCES orders (order_id)
        );
        CREATE TABLE shipments (
            order_id INTEGER,
            line INTEGER,
            carrier TEXT,
            FOREIGN KEY (order_id, line) REFERENCES items (order_id, line)
        );
        INSERT INTO orders VALUES (1, 'ada', 'shipped'), (2, 'bob', 'pending');
        INSERT INTO items VALUES (1, 1, 'widget', 3), (1, 2, 'gadget', 1);
        INSERT INTO shipments VALUES (1, 1, 'post');
        """
    )
    conn.commit()
    conn.close()
    return path


SLICES = [
    None,
    (("items", ("qty",)),),  # its foreign key is pruned: orders is not shown
    (("items", ("qty",)), ("orders", ("status",))),
    (("shipments", ("carrier",)), ("items", ("product",))),  # composite key both ways
    (("orders", ("customer",)),),
]
# what two questions on the same database retrieved, and a third
QUESTION_VALUES = [
    {},
    {("orders", "status"): ["shipped"], ("items", "product"): ["widget"]},
    {("orders", "status"): ["pending", "shipped"], ("shipments", "carrier"): ["post"]},
]


def render_uncached(catalog, selected=None, retrieved_values=None) -> str:
    fresh = dataclasses.replace(catalog, rendered_tables={})
    return render_schema_context(fresh, selected=selected,
                                 retrieved_values=retrieved_values)


def test_cached_blocks_render_byte_identical(tmp_path):
    catalog = load_catalog(make_orders_db(tmp_path / "orders.sqlite"))
    assert "\tprimary key (order_id, line)" in render_uncached(catalog)
    # every question renders every slice twice on the one warm catalog
    for retrieved in QUESTION_VALUES + QUESTION_VALUES[::-1]:
        for selected in SLICES + SLICES:
            assert render_schema_context(
                catalog, selected=selected, retrieved_values=retrieved,
            ) == render_uncached(catalog, selected, retrieved), (selected, retrieved)
    assert catalog.rendered_tables


def test_cached_blocks_match_on_the_restaurant_catalog(restaurant_catalog):
    retrieved = {("generalinfo", "city"): ["san leandro", "albany"]}
    for selected in (None, (("location", ("street_name",)),),
                     (("generalinfo", ("city",)), ("location", ("city",)))):
        for values in (None, retrieved, None):
            assert render_schema_context(
                restaurant_catalog, selected=selected, retrieved_values=values,
            ) == render_uncached(restaurant_catalog, selected, values)


def test_blocks_render_once_per_key(tmp_path, monkeypatch):
    catalog = load_catalog(make_orders_db(tmp_path / "orders.sqlite"))
    rendered = []
    render_table = render_module._render_table

    def counting(table, *args):
        rendered.append(table.name)
        return render_table(table, *args)

    monkeypatch.setattr(render_module, "_render_table", counting)
    render_schema_context(catalog)
    assert rendered == ["items", "orders", "shipments"]
    render_schema_context(catalog)
    assert len(rendered) == 3
    # new values for a visible column re-render that table only
    render_schema_context(catalog, retrieved_values=QUESTION_VALUES[1])
    assert rendered[3:] == ["items", "orders"]
    # values for a column the slice hides do not change the block
    render_schema_context(catalog, selected=(("orders", ("customer",)),))
    render_schema_context(catalog, selected=(("orders", ("customer",)),),
                          retrieved_values=QUESTION_VALUES[1])
    assert rendered[5:] == ["orders"]


def test_descriptions_attached_later_reach_the_blocks(restaurant_db, tmp_path):
    catalog = load_catalog(restaurant_db, db_id="restaurants")
    assert "cuisine" not in render_schema_context(catalog)
    desc_dir = tmp_path / "database_description"
    desc_dir.mkdir()
    (desc_dir / "generalinfo.csv").write_text(
        "original_column_name,column_description\nfood_type,the cuisine offered\n",
        encoding="utf-8",
    )
    attach_descriptions(catalog, desc_dir)
    assert "Column Description: the cuisine offered" in render_schema_context(catalog)
