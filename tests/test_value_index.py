"""Value index: signature fidelity, persistence, and retrieval gating."""

import base64
import hashlib
import json
import random
import sqlite3
import string
import sys
import threading

import numpy as np
import pytest

from sqlscout.core.catalog import load_catalog
from sqlscout.core.types import SearchConfig
from sqlscout.errors import ContractViolation, IngestionError
from sqlscout.value_index import (
    MinHashParams,
    ValueIndex,
    ValueRecord,
    build_value_index,
    load_index,
    save_index,
)
from sqlscout.value_index import minhash, threads
from sqlscout.value_index.index import band_hashes
from sqlscout.value_index.minhash import (
    estimate_jaccard,
    permutation_salts,
    shingle_set,
    signature,
    signatures,
)
from sqlscout.value_index.retrieval import (
    as_retrieved_map,
    edit_similarity,
    levenshtein,
    retrieve_values,
)


# ---- oracles, written independently of the implementation ----

def oracle_shingles(text: str, k: int = 3) -> set:
    if len(text) < k:
        return {text}
    return {text[i: i + k] for i in range(len(text) - k + 1)}


def oracle_jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = oracle_shingles(a, k), oracle_shingles(b, k)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def oracle_levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


_U64 = (1 << 64) - 1


def oracle_signature(text: str, salts: np.ndarray, k: int = 3) -> list[int]:
    """Per-shingle FNV-1a and avalanche mix in Python integers."""
    hashes = []
    for shingle in oracle_shingles(text, k):
        h = 0xCBF29CE484222325
        for byte in shingle.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _U64
        hashes.append(h)
    sig = []
    for salt in salts.tolist():
        best = _U64
        for h in hashes:
            x = h ^ salt
            x ^= x >> 33
            x = (x * 0xFF51AFD7ED558CCD) & _U64
            x ^= x >> 33
            x = (x * 0xC4CEB9FE1A85EC53) & _U64
            x ^= x >> 33
            best = min(best, x)
        sig.append(best)
    return sig


def test_shingle_set_matches_oracle():
    for text in ("albany", "a", "ab", "abc", "san pablo ave", ""):
        got = {s.decode("utf-8") for s in shingle_set(text)}
        assert got == oracle_shingles(text), text


def test_signature_shape_and_determinism():
    params = MinHashParams()
    salts = permutation_salts(params)
    sig1 = signature("characters", salts)
    sig2 = signature("characters", salts)
    assert sig1.shape == (128,)
    assert sig1.dtype == np.uint64
    np.testing.assert_array_equal(sig1, sig2)
    assert not np.array_equal(sig1, signature("different text", salts))


def test_signatures_match_reference_loop():
    salts = permutation_salts(MinHashParams())
    texts = ["", "a", "ab", "abc", "san pablo ave", "İstanbul", "i̇", "straße",
             "😀😀😀", "𝔘nion 🍜", "中文市場", "aaaaaa", "x" * 40]
    got = signatures(texts, salts)
    assert got.shape == (len(texts), 128) and got.dtype == np.uint64
    for text, row in zip(texts, got):
        assert row.tolist() == oracle_signature(text, salts), text
        np.testing.assert_array_equal(signature(text, salts), row)


def test_long_value_signature_matches_reference_loop():
    # about 20k distinct shingles: signed apart from the slices, several
    # _BLOCK-sized steps and a partial one; 32 salts keep the loop short
    salts = permutation_salts(MinHashParams())[:32]
    rng = random.Random(11)
    long_text = "".join(rng.choice(string.printable[:95]) for _ in range(20_000))
    assert len(oracle_shingles(long_text, 3)) > 4 * minhash._BLOCK
    texts = ["albany", long_text, "san pablo ave", long_text[:5000]]
    got = signatures(texts, salts)
    assert got[1].tolist() == oracle_signature(long_text, salts)
    for text, row in zip(texts, got):
        np.testing.assert_array_equal(signature(text, salts), row)
    assert got[0].tolist() == oracle_signature("albany", salts)


def test_signatures_do_not_depend_on_block_size(monkeypatch):
    salts = permutation_salts(MinHashParams())
    rng = random.Random(5)
    texts = ["".join(rng.choice("abcdé😀 ") for _ in range(rng.randint(1, 30)))
             for _ in range(200)]
    whole = signatures(texts, salts)
    monkeypatch.setattr(minhash, "_BLOCK", 7)
    np.testing.assert_array_equal(signatures(texts, salts), whole)
    assert signatures([], salts).shape == (0, 128)


# code points of 1, 2, 3 and 4 utf-8 bytes, each at the ends of its range
_WIDTHS = ["a", "\x7f", "é", "\x80", "\u07ff", "中", "\u0800", "\uffff",
           "😀", "\U00010000", "\U0010ffff"]


def _mixed_width_texts(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    alphabet = _WIDTHS + list("b ")
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
             for _ in range(n)]
    # short texts and "", repeated shingles, and one text signed alone
    return texts + ["", "a", "é", "中😀", "aaaaaa", "😀😀😀😀", "ab" * 3000, *_WIDTHS]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_signatures_match_reference_loop_at_every_shingle_size(size):
    salts = permutation_salts(MinHashParams())[:16]
    texts = _mixed_width_texts(size, 40)
    got = signatures(texts, salts, size)
    for text, row in zip(texts, got):
        assert row.tolist() == oracle_signature(text, salts, size), (size, text)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_signatures_match_reference_loop_in_small_chunks(monkeypatch, block):
    # with tiny chunks, "aaaaaa" and every text past `block` shingles is
    # signed alone, and each chunk holds a few texts of mixed widths
    salts = permutation_salts(MinHashParams())[:16]
    texts = _mixed_width_texts(block, 30)
    whole = signatures(texts, salts)
    monkeypatch.setattr(minhash, "_BLOCK", block)
    got = signatures(texts, salts)
    np.testing.assert_array_equal(got, whole)
    for text, row in zip(texts, got):
        assert row.tolist() == oracle_signature(text, salts), (block, text)


def test_salts_depend_on_seed():
    a = permutation_salts(MinHashParams(seed=0))
    b = permutation_salts(MinHashParams(seed=1))
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, permutation_salts(MinHashParams(seed=0)))


def test_estimate_tracks_exact_jaccard():
    params = MinHashParams()
    salts = permutation_salts(params)
    pairs = [
        ("san pablo ave", "san pablo ave."),
        ("united states", "united kingdom"),
        ("thai", "thai food"),
        ("alpha beta gamma", "delta epsilon zeta"),
        ("identical", "identical"),
    ]
    for a, b in pairs:
        est = estimate_jaccard(signature(a, salts), signature(b, salts))
        assert abs(est - oracle_jaccard(a, b)) <= 0.2, (a, b)
    # identical strings estimate exactly 1
    s = signature("same", salts)
    assert estimate_jaccard(s, s) == 1.0


def test_estimate_rejects_shape_mismatch():
    salts = permutation_salts(MinHashParams())
    with pytest.raises(ContractViolation):
        estimate_jaccard(signature("a", salts)[:64], signature("b", salts))


def test_params_validate_band_shape():
    with pytest.raises(ContractViolation):
        MinHashParams(num_permutations=128, bands=10, rows_per_band=10)


# ---- edit similarity ----

def test_edit_similarity_cases():
    assert edit_similarity("thai", "thai") == 1.0
    assert edit_similarity("Thai", "thai") == 1.0  # case folded
    assert edit_similarity("", "") == 1.0
    assert edit_similarity("a", "") == 0.0
    # one substitution over four characters
    assert edit_similarity("thai", "that") == pytest.approx(0.75)


def test_edit_similarity_matches_oracle_on_random_strings():
    rng = random.Random(7)
    alphabet = "abcdef "
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        longest = max(len(a), len(b))
        expected = 1.0 if longest == 0 else 1.0 - oracle_levenshtein(a, b) / longest
        assert edit_similarity(a, b) == pytest.approx(expected), (a, b)


def test_edit_similarity_unicode_codepoints():
    # multibyte characters count as single edits
    assert edit_similarity("café", "cafe") == pytest.approx(0.75)


def test_levenshtein_matches_oracle():
    rng = np.random.default_rng(13)
    alphabet = "abcdeİ😀"
    for _ in range(200):
        a = "".join(alphabet[i] for i in rng.integers(0, 7, rng.integers(0, 15)))
        b = "".join(alphabet[i] for i in rng.integers(0, 7, rng.integers(0, 15)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)


def test_levenshtein_empty_sides():
    assert levenshtein("", "") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3


def test_distant_strings_fall_below_default_gate():
    sim = edit_similarity("America", "United States")
    expected = 1.0 - oracle_levenshtein("america", "united states") / 13
    assert sim == pytest.approx(expected)
    assert sim < 0.3  # fails the default edit gate


# ---- index build and persistence ----

def test_build_indexes_text_columns_only(restaurant_catalog):
    index = build_value_index(restaurant_catalog)
    cols = {(r.table, r.column) for r in index.records}
    assert ("generalinfo", "food_type") in cols
    assert ("location", "street_name") in cols
    assert all(col not in ("review", "street_num", "id_restaurant")
               for _, col in cols)
    values = {r.value for r in index.records if r.column == "food_type"}
    assert values == {"thai", "italian", "indian"}


def test_build_skips_empty_strings(tmp_path):
    db = tmp_path / "t.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (name TEXT)")
    conn.executemany("INSERT INTO t VALUES (?)", [("",), ("kept",), (None,)])
    conn.commit()
    conn.close()
    index = build_value_index(load_catalog(db))
    assert [r.value for r in index.records] == ["kept"]


def test_names_holding_a_double_quote_are_read_and_indexed(tmp_path):
    # each name is quoted with its " doubled, in the catalog's PRAGMAs and
    # value-example query as in the index scan
    db = tmp_path / "odd.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("""
        CREATE TABLE plain (id INTEGER PRIMARY KEY, city TEXT);
        CREATE TABLE "we""ird" (
            id INTEGER PRIMARY KEY,
            "na""me" TEXT,
            plain_id INTEGER REFERENCES plain (id)
        );
        INSERT INTO plain VALUES (1, 'albany');
        INSERT INTO "we""ird" VALUES (1, 'quoted value', 1);
    """)
    conn.commit()
    conn.close()
    catalog = load_catalog(db)
    table = catalog.table('we"ird')
    assert [c.name for c in table.columns] == ["id", 'na"me', "plain_id"]
    assert table.column('na"me').value_examples == ["quoted value"]
    assert [(fk.table, fk.columns, fk.ref_table, fk.ref_columns)
            for fk in catalog.foreign_keys] == [('we"ird', ("plain_id",), "plain", ("id",))]
    index = build_value_index(catalog)
    assert ValueRecord('we"ird', 'na"me', "quoted value") in index.records
    assert ValueRecord("plain", "city", "albany") in index.records


def test_build_respects_value_cap(tmp_path):
    db = tmp_path / "big.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (name TEXT)")
    conn.executemany("INSERT INTO t VALUES (?)", [(f"v{i:04d}",) for i in range(50)])
    conn.commit()
    conn.close()
    index = build_value_index(load_catalog(db), value_cap=10)
    assert len(index.records) == 10
    # deterministic scan order: ascending
    assert [r.value for r in index.records] == [f"v{i:04d}" for i in range(10)]


def _scan_oracle(db, catalog, value_cap):
    """Columns, column ids and values of the plain one-statement scan."""
    conn = sqlite3.connect(db)
    conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
    columns, column_ids, values = [], [], []
    for table, column in catalog.text_columns():
        rows = conn.execute(
            f'SELECT DISTINCT "{column}" FROM "{table}" '
            f'WHERE "{column}" IS NOT NULL ORDER BY 1 LIMIT ?', (value_cap,)).fetchall()
        kept = [value for value in (str(raw) for (raw,) in rows) if value]
        column_ids += [len(columns)] * len(kept)
        values += kept
        columns.append((table, column))
    conn.close()
    return columns, column_ids, values


def test_scan_matches_one_statement_distinct_order_by(tmp_path):
    db = tmp_path / "collations.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (nocase TEXT COLLATE NOCASE, "
                 "rtrim TEXT COLLATE RTRIM, plain TEXT, any_value)")
    rows = [("apple", "x ", "kept", 1), ("Apple", "x", "", 1.0),
            ("Banana", "y", None, 2.5), ("banana", "y  ", "Kept", "1"),
            ("", "", "kept", "a"), (None, None, "zz", b"blob"),
            ("cherry", " z", "é", ""), ("APPLE", "x\t", "a", None),
            ("Cherry", "z", "kept", -3), ("date", "w", "b", 10)]
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    conn.commit()
    conn.close()
    catalog = load_catalog(db)
    # a column with no declared type is scanned as text, but its rows keep
    # their storage class: integer, real, text and blob
    assert len(catalog.text_columns()) == 4
    for value_cap in (1, 2, 3, 4, 100):  # below and above each column's distinct count
        index = build_value_index(catalog, value_cap=value_cap)
        columns, column_ids, values = _scan_oracle(db, catalog, value_cap)
        assert index.columns == columns
        assert index.column_ids.tolist() == column_ids
        assert index.values == values
    # "" is among the first 3 and dropped after the cap: that column keeps 2
    capped = build_value_index(catalog, value_cap=3)
    assert capped.values[:2] == ["apple", "Banana"] and capped.column_ids[2] == 1
    assert list(zip(index.column_ids.tolist(), index.values)) == [
        # NOCASE and RTRIM: one value per group, the first row's spelling,
        # in the column's order ("apple" before "Banana", "x " before "x\t")
        (0, "apple"), (0, "Banana"), (0, "cherry"), (0, "date"),
        (1, " z"), (1, "w"), (1, "x "), (1, "x\t"), (1, "y"), (1, "z"),
        (2, "Kept"), (2, "a"), (2, "b"), (2, "kept"), (2, "zz"), (2, "é"),
        # numbers before text before blobs; 1 and 1.0 are one value, "1" another
        (3, "-3"), (3, "1"), (3, "2.5"), (3, "10"), (3, "1"), (3, "a"), (3, "b'blob'"),
    ]


def multi_table_db(path, seed: int = 7):
    """Five tables of text, one with none; about 2,700 values in all, so
    that they are signed in two chunks and one value alone."""
    rng = random.Random(seed)
    conn = sqlite3.connect(path)
    for t in range(5):
        conn.execute(f"CREATE TABLE t{t} (id INTEGER, name TEXT, kind TEXT)")
        conn.executemany(f"INSERT INTO t{t} VALUES (?, ?, ?)", [
            (i, "".join(rng.choice("abcdé中😀 ") for _ in range(rng.randint(1, 30))),
             rng.choice(["x", "yy", None, ""])) for i in range(600)])
    conn.execute("INSERT INTO t3 VALUES (0, ?, 'long')", ("ab" * 3000,))
    conn.execute("CREATE TABLE counts (id INTEGER, n REAL)")
    conn.commit()
    conn.close()
    return path


def test_build_does_not_depend_on_the_cpu_count(tmp_path, set_cpus, monkeypatch):
    catalog = load_catalog(multi_table_db(tmp_path / "multi.sqlite"))
    connects = []
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *a, **k: connects.append(1) or connect(*a, **k))
    files, sigs = [], []
    for cpus in (1, 4):
        set_cpus(cpus)
        del connects[:]
        index = build_value_index(catalog)
        assert len(connects) == cpus  # one connection per thread, five tables
        save_index(index, tmp_path / f"{cpus}.jsonl")
        files.append((tmp_path / f"{cpus}.jsonl").read_bytes())
        sigs.append(signatures([v.lower() for v in index.values], index.salts))
    assert files[0] == files[1]
    np.testing.assert_array_equal(sigs[0], sigs[1])
    assert len(index.values) > minhash._BLOCK and "ab" * 3000 in index.values
    assert [t for t, _ in index.columns] == ["t0", "t0", "t1", "t1", "t2", "t2",
                                             "t3", "t3", "t4", "t4"]
    for row, value in zip(sigs[1][::97], index.values[::97]):
        assert row.tolist() == oracle_signature(value.lower(), index.salts)


def test_only_a_batch_of_several_chunks_is_signed_on_threads(set_cpus, monkeypatch):
    salts = permutation_salts(MinHashParams())
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    set_cpus(4)
    texts = [text for text in _mixed_width_texts(3, 40) if len(text) < 100]  # none alone
    one = signatures(texts, salts)
    assert started == []  # the path a query's keywords take
    monkeypatch.setattr(minhash, "_BLOCK", 8)
    several = signatures(texts, salts)
    assert len(started) == 3  # three helpers: the calling thread is the fourth
    np.testing.assert_array_equal(one, several)


def test_threads_raise_the_failure_of_the_lowest_task(set_cpus):
    set_cpus(4)
    done = []

    def work(ids):
        for task in ids:
            if task in (3, 5):
                raise IngestionError(f"task {task}")
            done.append(task)

    # whichever thread took task 3, it was handed out before task 5
    with pytest.raises(IngestionError, match="task 3"):
        threads.on_threads(40, work)
    assert {0, 1, 2} <= set(done) and not {3, 5} & set(done)


def test_threads_hand_out_every_task_once(set_cpus):
    set_cpus(8)  # more threads than this machine has CPUs
    runs = []

    def work(ids):
        mine = list(ids)
        assert mine == sorted(mine)  # each thread takes ids in queue order
        runs.append(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads.on_threads(5000, work)
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 8
    assert sorted(task for run in runs for task in run) == list(range(5000))


def test_usable_cpus_falls_back_to_the_machine_count(monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert threads.usable_cpus() == 3
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert threads.usable_cpus() == 1


def test_save_load_roundtrip(restaurant_catalog, tmp_path):
    index = build_value_index(restaurant_catalog)
    path = tmp_path / "restaurants.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.db_id == index.db_id
    assert loaded.params == index.params
    assert loaded.records == index.records
    assert loaded.buckets == index.buckets
    # a second save of the loaded index is byte-identical
    path2 = tmp_path / "again.jsonl"
    save_index(loaded, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(IngestionError):
        load_index(path)


def _parts(path) -> tuple[list[bytes], bytes]:
    """An index file's four JSON lines (without newlines) and the bytes after them."""
    *lines, sigs = path.read_bytes().split(b"\n", 4)
    return lines, sigs


# bytes of one record's band hashes: 16 bands of 8 bytes
ROW_BYTES = 16 * 8


def test_index_file_stores_signatures_as_raw_bytes(restaurant_index, tmp_path):
    path = tmp_path / "restaurants.jsonl"
    save_index(restaurant_index, path)
    lines, sigs = _parts(path)
    header, columns, column_ids, values = (json.loads(line) for line in lines)
    assert header["version"] == 5
    assert header["n_records"] == len(restaurant_index.values)
    assert [tuple(c) for c in columns] == restaurant_index.columns
    assert column_ids == restaurant_index.column_ids.tolist()
    assert values == restaurant_index.values
    # n_records x bands little-endian uint64s, up to end of file: each
    # record's band hashes of its MinHash signature, not the signature
    assert len(sigs) == ROW_BYTES * len(restaurant_index.values)
    full = signatures([v.lower() for v in restaurant_index.values],
                      restaurant_index.salts)
    np.testing.assert_array_equal(np.frombuffer(sigs, dtype="<u8").reshape(-1, 16),
                                  band_hashes(full, restaurant_index.params))


def test_load_rejects_version_1_with_rebuild_hint(tmp_path):
    path = tmp_path / "old.jsonl"
    header = {"format": "sqlscout-value-index", "version": 1, "db_id": "x",
              "num_permutations": 128, "bands": 16, "rows_per_band": 8,
              "shingle_size": 3, "seed": 0, "n_records": 1}
    record = {"c": "name", "s": list(range(128)), "t": "t", "v": "kept"}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(IngestionError, match="rerun `sqlscout index build`"):
        load_index(path)


def test_load_rejects_version_2_with_rebuild_hint(tmp_path):
    path = tmp_path / "old.jsonl"
    header = {"format": "sqlscout-value-index", "version": 2, "db_id": "x",
              "num_permutations": 128, "bands": 16, "rows_per_band": 8,
              "shingle_size": 3, "seed": 0, "n_records": 1}
    sig = base64.b64encode(np.arange(128, dtype="<u8").tobytes()).decode()
    record = {"c": "name", "s": sig, "t": "t", "v": "kept"}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(IngestionError, match="rerun `sqlscout index build`"):
        load_index(path)


def test_load_rejects_version_3_with_rebuild_hint(restaurant_index, tmp_path):
    path = tmp_path / "old.jsonl"
    save_index(restaurant_index, path)
    lines, sigs = _parts(path)
    header = {**json.loads(lines[0]), "version": 3}
    text = "\n".join([json.dumps(header), *(line.decode() for line in lines[1:]),
                      base64.b64encode(sigs).decode()]) + "\n"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IngestionError, match="rerun `sqlscout index build`"):
        load_index(path)


def test_load_rejects_version_4_with_rebuild_hint(restaurant_index, tmp_path):
    # version 4 stored each record's 128 signature words after the same lines
    path = tmp_path / "old.jsonl"
    save_index(restaurant_index, path)
    lines, _ = _parts(path)
    header = {**json.loads(lines[0]), "version": 4}
    full = signatures([v.lower() for v in restaurant_index.values],
                      restaurant_index.salts)
    path.write_bytes(b"".join(line + b"\n" for line in [json.dumps(header).encode(),
                                                        *lines[1:]])
                     + full.astype("<u8").tobytes())
    with pytest.raises(IngestionError, match="rerun `sqlscout index build`"):
        load_index(path)


def _edit(lines, i, edit):
    """The file's JSON lines (0 header, 1 columns, 2 column ids, 3 values)
    with line i replaced by edit(its JSON)."""
    lines = list(lines)
    lines[i] = edit(json.loads(lines[i])).encode()
    return lines


# each takes and returns (JSON lines, signature bytes)
@pytest.mark.parametrize("corrupt", [
    lambda lines, sigs: (lines, sigs[:-1]),  # signature block one byte short
    lambda lines, sigs: (lines, sigs + b"\0"),  # one byte extra
    lambda lines, sigs: (_edit(lines, 3, lambda vs: json.dumps(vs[:-1])), sigs),
    lambda lines, sigs: (_edit(lines, 3, lambda vs: json.dumps([""] + vs[1:])), sigs),
    lambda lines, sigs: ([lines[0], b"{not json", *lines[2:]], sigs),
    lambda lines, sigs: (_edit(lines, 2, lambda ids: json.dumps(ids[:-1])), sigs),
    lambda lines, sigs: (_edit(lines, 2, lambda ids: json.dumps([99] + ids[1:])), sigs),
    lambda lines, sigs: (_edit(lines, 2, lambda ids: json.dumps([-1] + ids[1:])), sigs),
    lambda lines, sigs: (_edit(lines, 2, lambda ids: json.dumps([0.5] + ids[1:])), sigs),
    lambda lines, sigs: (_edit(lines, 2, lambda ids: json.dumps([[0]] + ids[1:])), sigs),
    lambda lines, sigs: (_edit(lines, 1, lambda cols: json.dumps(["ab"] + cols[1:])), sigs),
    lambda lines, sigs: (_edit(lines, 3, lambda vs: json.dumps([7] + vs[1:])), sigs),
    lambda lines, sigs: (_edit(lines, 0, lambda h: json.dumps(  # one record too many
        {**h, "n_records": h["n_records"] + 1})), sigs + sigs[-ROW_BYTES:]),
    lambda lines, sigs: (_edit(lines, 0, lambda h: json.dumps({**h, "n_records": "21"})), sigs),
    lambda lines, sigs: (_edit(lines, 0, lambda h: json.dumps(
        {k: v for k, v in h.items() if k != "bands"})), sigs),
    lambda lines, sigs: (lines, sigs + b"\n"),  # a trailing newline, as version 3 had
    lambda lines, sigs: (lines, sigs[:-ROW_BYTES]),  # a whole record short
    lambda lines, sigs: (lines[:3], sigs),  # the values line lost
])
def test_load_rejects_malformed_records(restaurant_index, tmp_path, corrupt):
    path = tmp_path / "bad.jsonl"
    save_index(restaurant_index, path)
    lines, sigs = corrupt(*_parts(path))
    path.write_bytes(b"".join(line + b"\n" for line in lines) + sigs)
    with pytest.raises(IngestionError):
        load_index(path)


def test_load_rejects_truncation(restaurant_catalog, tmp_path):
    index = build_value_index(restaurant_catalog)
    path = tmp_path / "cut.jsonl"
    save_index(index, path)
    data = path.read_bytes()
    head = len(data) - ROW_BYTES * len(index.values)
    # cut inside each JSON line, at each line end, or inside the band hashes
    newlines = [i for i in range(head) if data[i] == ord("\n")]
    cuts = [0, *newlines, *(i + 1 for i in newlines),
            *(i - 5 for i in newlines), head + 8, len(data) - 1]
    for cut in cuts:
        path.write_bytes(data[:cut])
        with pytest.raises(IngestionError):
            load_index(path)


def test_lsh_buckets_recall_identical_values(restaurant_catalog):
    index = build_value_index(restaurant_catalog)
    salts = index.salts
    sig = signature("thai", salts)
    hits = {index.records[i].value for i in index.candidate_ids(sig)}
    assert "thai" in hits


def test_empty_index_is_valid(tmp_path):
    params = MinHashParams()
    index = ValueIndex(
        db_id="empty", params=params, columns=[],
        column_ids=np.empty(0, dtype=np.int32), values=[],
        signatures=np.empty((0, params.bands), dtype=np.uint64))
    assert index.candidate_ids(signature("x", index.salts)) == []
    assert index.records == [] and index.buckets == {}
    # the empty band-hash block: a zero-size array has no byte view
    # (memoryview(...).cast("B") raises TypeError), so it must round trip too
    with pytest.raises(TypeError):
        memoryview(index.signatures).cast("B")
    path = tmp_path / "empty.jsonl"
    save_index(index, path)
    assert path.read_bytes().endswith(b"[]\n")  # four JSON lines, no band-hash byte
    loaded = load_index(path)
    assert loaded.values == [] and loaded.signatures.shape == (0, 16)
    assert loaded.candidate_ids(signature("x", index.salts)) == []


def test_the_salts_follow_the_params():
    params = MinHashParams(seed=7)
    fields = dict(db_id="empty", params=params, columns=[],
                  column_ids=np.empty(0, dtype=np.int32), values=[],
                  signatures=np.empty((0, params.bands), dtype=np.uint64))
    assert (ValueIndex(**fields).salts == permutation_salts(params)).all()
    # salts of another seed would make every lookup miss: none can be passed
    with pytest.raises(TypeError):
        ValueIndex(**fields, salts=permutation_salts(MinHashParams()))


# ---- retrieval ----

def cfg_with(**kw) -> SearchConfig:
    return SearchConfig(sql_timeout_secs=5.0, **kw)


def test_retrieve_exact_value(restaurant_index, hash_embedder):
    out = retrieve_values(restaurant_index, ["thai"], hash_embedder, cfg_with())
    assert out, "exact value must be retrieved"
    top = out[0]
    assert top.record.value == "thai"
    assert top.edit_sim == 1.0
    assert top.semantic_sim == pytest.approx(1.0)


def test_retrieve_near_miss_value(restaurant_index, hash_embedder):
    # close in edit distance: passes the 0.3 edit gate, but hash embeddings
    # of different texts are dissimilar, so the and-gate drops it
    out = retrieve_values(restaurant_index, ["albany."], hash_embedder, cfg_with())
    assert all(r.record.value != "albany" for r in out)
    out = retrieve_values(restaurant_index, ["albany."], None, cfg_with())
    assert any(r.record.value == "albany" for r in out)


def test_retrieval_none_embedder_reports_zero_semantic(restaurant_index):
    out = retrieve_values(restaurant_index, ["thai"], None, cfg_with())
    assert out
    assert all(r.semantic_sim == 0.0 for r in out)


def test_retrieval_survives_embedder_crash(restaurant_index):
    class Broken:
        def embed(self, texts):
            raise RuntimeError("connection refused")

    out = retrieve_values(restaurant_index, ["thai"], Broken(), cfg_with())
    assert any(r.record.value == "thai" for r in out)
    assert all(r.semantic_sim == 0.0 for r in out)


def test_retrieval_caps_per_column(tmp_path, hash_embedder):
    db = tmp_path / "many.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (name TEXT)")
    conn.executemany("INSERT INTO t VALUES (?)",
                     [(f"value {i}",) for i in range(10)])
    conn.commit()
    conn.close()
    index = build_value_index(load_catalog(db))
    out = retrieve_values(index, ["value 1"], None,
                          cfg_with(top_m_per_column=3))
    assert len(out) <= 3


def test_retrieval_empty_keywords(restaurant_index, hash_embedder):
    assert retrieve_values(restaurant_index, [], hash_embedder, cfg_with()) == []
    assert retrieve_values(restaurant_index, ["", "  "], hash_embedder,
                           cfg_with()) == []


def test_retrieved_map_groups_in_rank_order(restaurant_index):
    out = retrieve_values(restaurant_index, ["thai", "albany"], None, cfg_with())
    grouped = as_retrieved_map(out)
    for (table, column), values in grouped.items():
        assert isinstance(table, str) and isinstance(column, str)
        assert values == [r.record.value for r in out
                          if (r.record.table, r.record.column) == (table, column)]


def test_lowercased_hashing_verbatim_storage(tmp_path):
    db = tmp_path / "case.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (name TEXT)")
    conn.execute("INSERT INTO t VALUES ('San Pablo Ave')")
    conn.commit()
    conn.close()
    index = build_value_index(load_catalog(db))
    assert index.records[0].value == "San Pablo Ave"  # stored verbatim
    out = retrieve_values(index, ["san pablo ave"], None, cfg_with())
    assert out and out[0].record.value == "San Pablo Ave"
    assert out[0].edit_sim == 1.0


# ---- golden outputs: signatures, band hashes, buckets and retrieval ----

_GOLDEN_TOKENS = [
    "san", "pablo", "ave", "thai", "café", "straße", "İzmir", "İ", "ẞ",
    "中文", "市場", "€", "😀", "𝔘nion", "ΣΟΦΙΑ", "Ωmega", "naïve", "x", "ab",
    "Q", "é", "🍜",
]
_GOLDEN_KEYWORDS = [
    "café", "İzmir", "san pablo", "😀", "ΣΟΦΙΑ", "straße 12", "x", "中文",
    "thai ave", "🍜 naïve",
]


def _golden_values(rng: random.Random, count: int) -> list[str]:
    values: set[str] = set()
    while len(values) < count:
        if rng.random() < 0.1:  # shorter than the shingle size
            value = "".join(rng.choice("aé中😀İ") for _ in range(rng.randint(1, 2)))
        else:
            words = rng.choices(_GOLDEN_TOKENS, k=rng.randint(1, 4))
            value = rng.choice([" ", "", "-"]).join(words)
            if rng.random() < 0.3:
                value += f" {rng.randint(0, 99)}"
        values.add(value)
    return sorted(values)


@pytest.fixture
def golden_index(tmp_path):
    """About 2,000 seeded values with 1- to 4-byte UTF-8 characters."""
    rng = random.Random(20241018)
    values = _golden_values(rng, 2000)
    db = tmp_path / "golden.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE place (name TEXT, kind TEXT)")
    conn.executemany("INSERT INTO place VALUES (?, ?)",
                     [(v, values[-1 - i][:5]) for i, v in enumerate(values[:1200])])
    conn.execute("CREATE TABLE note (body TEXT)")
    conn.executemany("INSERT INTO note VALUES (?)", [(v,) for v in values[1200:]])
    conn.commit()
    conn.close()
    return build_value_index(load_catalog(db))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_digests(index, embedder) -> dict[str, str]:
    outs = []
    for emb in (None, embedder):
        out = retrieve_values(index, _GOLDEN_KEYWORDS, emb,
                              cfg_with(top_m_per_column=50))
        outs.append([(r.record.table, r.record.column, r.record.value,
                      r.edit_sim, r.semantic_sim) for r in out])
    full = signatures([v.lower() for v in index.values], index.salts)
    return {
        # the MinHash signatures the stored band hashes come from
        "signatures": _sha(full.astype("<u8").tobytes()),
        "band_hashes": _sha(index.signatures.astype("<u8").tobytes()),
        # `buckets` is rebuilt from the sorted band-key arrays the lookup uses;
        # which records share a bucket is pinned, whatever its key is
        "buckets": _sha(repr(sorted(
            (band, ids) for (band, _), ids in index.buckets.items())).encode()),
        "retrieval": _sha(repr(outs).encode()),
    }


def test_golden_restaurant_index(restaurant_index, hash_embedder):
    assert _golden_digests(restaurant_index, hash_embedder) == {
        "signatures": "58e4bb70dbfb7cde473db233ebfdcfb94562829691a6586f35b7495d7a6348a0",
        "band_hashes": "f424523fb5c9bf77d1de88a4cac3d47db1955c542609b607a51d46215fc32862",
        "buckets": "20639176a8c4d8d69d29484ee9b495dc627e4e5d19cc6c6d234a3ec3569c58ba",
        "retrieval": "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    }


def test_golden_unicode_index(golden_index, hash_embedder):
    texts = [r.value.lower() for r in golden_index.records if r.column != "kind"]
    assert len(texts) == 2000
    assert any(len(r.value.lower()) != len(r.value) for r in golden_index.records)
    assert any(len(t) < 3 for t in texts)
    assert max(len(s) for t in texts for s in shingle_set(t)) == 12
    assert _golden_digests(golden_index, hash_embedder) == {
        "signatures": "f9868c602ca23d8debfc4894f564f95f51e14bcadc745ac192472a2008b13b2f",
        "band_hashes": "66eb39f9e9691537442bf66836df7a7248f182e338d86546046ff96b92d9cc7b",
        "buckets": "59f866256ab7438594bf6a233429fbd68ab8407fb2200139ed69bad1fd35c5ca",
        "retrieval": "f154d93aefb6d7b4bd194ab3c6f64ed47ec020806b2e4840083b8f7442bde6b3",
    }
