"""Value index: signature fidelity, persistence, and retrieval gating."""

import base64
import hashlib
import json
import random
import sqlite3
import string

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
from sqlscout.value_index import minhash
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


def test_index_file_stores_signatures_as_base64(restaurant_index, tmp_path):
    path = tmp_path / "restaurants.jsonl"
    save_index(restaurant_index, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    header, columns, column_ids, values, sigs = lines
    assert json.loads(header)["version"] == 3
    assert json.loads(header)["n_records"] == len(restaurant_index.values)
    assert [tuple(c) for c in json.loads(columns)] == restaurant_index.columns
    assert json.loads(column_ids) == restaurant_index.column_ids.tolist()
    assert json.loads(values) == restaurant_index.values
    raw = base64.b64decode(sigs, validate=True)
    assert len(raw) == 1024 * len(restaurant_index.values)
    np.testing.assert_array_equal(
        np.frombuffer(raw, dtype="<u8").reshape(-1, 128), restaurant_index.signatures)


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


def _edit(lines, i, edit):
    """The file's lines with line i (0 header, 1 columns, 2 column ids,
    3 values, 4 signatures) replaced by edit(its JSON, or its base64 text)."""
    lines = list(lines)
    lines[i] = edit(lines[i] if i == 4 else json.loads(lines[i]))
    return lines


@pytest.mark.parametrize("corrupt", [
    lambda lines: _edit(lines, 4, lambda s: s[:-12]),  # one signature short
    lambda lines: _edit(lines, 4, lambda s: "not base64!" + s),
    lambda lines: _edit(lines, 3, lambda vs: json.dumps(vs[:-1])),  # a value short
    lambda lines: _edit(lines, 3, lambda vs: json.dumps([""] + vs[1:])),
    lambda lines: [lines[0], "{not json", *lines[2:]],
    lambda lines: _edit(lines, 2, lambda ids: json.dumps(ids[:-1])),  # an id short
    lambda lines: _edit(lines, 2, lambda ids: json.dumps([99] + ids[1:])),
    lambda lines: _edit(lines, 2, lambda ids: json.dumps([-1] + ids[1:])),
    lambda lines: _edit(lines, 2, lambda ids: json.dumps([0.5] + ids[1:])),
    lambda lines: _edit(lines, 2, lambda ids: json.dumps([[0]] + ids[1:])),
    lambda lines: _edit(lines, 1, lambda cols: json.dumps(["ab"] + cols[1:])),
    lambda lines: _edit(lines, 3, lambda vs: json.dumps([7] + vs[1:])),
    lambda lines: _edit(lines, 4, lambda s: s[:-4] + "@@@@"),  # same length
    lambda lines: _edit(lines, 0, lambda h: json.dumps({**h, "n_records": "21"})),
    lambda lines: _edit(lines, 0, lambda h: json.dumps(
        {k: v for k, v in h.items() if k != "bands"})),
    lambda lines: [*lines, lines[-1]],  # trailing data
])
def test_load_rejects_malformed_records(restaurant_index, tmp_path, corrupt):
    path = tmp_path / "bad.jsonl"
    save_index(restaurant_index, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(corrupt(lines)) + "\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_index(path)


def test_load_rejects_truncation(restaurant_catalog, tmp_path):
    index = build_value_index(restaurant_catalog)
    path = tmp_path / "cut.jsonl"
    save_index(index, path)
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    # whole lines lost, or the signature line cut short
    for cut in [*(b"".join(lines[:keep]) for keep in range(1, 5)), data[:-100]]:
        path.write_bytes(cut)
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
        signatures=np.empty((0, params.num_permutations), dtype=np.uint64))
    assert index.candidate_ids(signature("x", index.salts)) == []
    assert index.records == [] and index.buckets == {}
    save_index(index, tmp_path / "empty.jsonl")
    loaded = load_index(tmp_path / "empty.jsonl")
    assert loaded.values == [] and loaded.signatures.shape == (0, 128)
    assert loaded.candidate_ids(signature("x", index.salts)) == []


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


def test_retrieve_or_mode_admits_either_gate(restaurant_index, hash_embedder):
    out_and = retrieve_values(restaurant_index, ["albany."], hash_embedder,
                              cfg_with(retrieval_mode="and"))
    out_or = retrieve_values(restaurant_index, ["albany."], hash_embedder,
                             cfg_with(retrieval_mode="or"))
    assert {r.record.value for r in out_and} <= {r.record.value for r in out_or}
    assert any(r.record.value == "albany" for r in out_or)


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


# ---- golden outputs: signatures, buckets and retrieval stay bit-identical ----

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
    for mode, emb in (("and", None), ("or", None), ("and", embedder),
                      ("or", embedder)):
        out = retrieve_values(index, _GOLDEN_KEYWORDS, emb,
                              cfg_with(retrieval_mode=mode, top_m_per_column=50))
        outs.append([(r.record.table, r.record.column, r.record.value,
                      r.edit_sim, r.semantic_sim) for r in out])
    return {
        "signatures": _sha(index.signatures.astype("<u8").tobytes()),
        # `buckets` is rebuilt from the sorted band-key arrays the lookup uses
        "buckets": _sha(repr(sorted(index.buckets.items())).encode()),
        "retrieval": _sha(repr(outs).encode()),
    }


def test_golden_restaurant_index(restaurant_index, hash_embedder):
    assert _golden_digests(restaurant_index, hash_embedder) == {
        "signatures": "58e4bb70dbfb7cde473db233ebfdcfb94562829691a6586f35b7495d7a6348a0",
        "buckets": "011fcdc0ad3e75cb428db7f4c3a322c54d30895aa9a5e7f39692ae7aa746628c",
        "retrieval": "453a39b98df6359822c48cf564842ecf4b8b70a0520a145ccfff84370b3fe687",
    }


def test_golden_unicode_index(golden_index, hash_embedder):
    texts = [r.value.lower() for r in golden_index.records if r.column != "kind"]
    assert len(texts) == 2000
    assert any(len(r.value.lower()) != len(r.value) for r in golden_index.records)
    assert any(len(t) < 3 for t in texts)
    assert max(len(s) for t in texts for s in shingle_set(t)) == 12
    assert _golden_digests(golden_index, hash_embedder) == {
        "signatures": "f9868c602ca23d8debfc4894f564f95f51e14bcadc745ac192472a2008b13b2f",
        "buckets": "d4054e4f4b1892af797b2bef3a98442a6d39defcb4a27ba24bbae2f09390915e",
        "retrieval": "4954187918a7fd721e1acb6725f79171163de2438ab1e9879185b1b8da670721",
    }
