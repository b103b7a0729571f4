"""LSH lookup through sorted packed band words, against a brute-force band scan.

An index keeps the high 32 bits of each band hash and confirms a lookup's
candidates on the full 64-bit hashes, recomputed from their values; so each
index here is built from its values, and the reference scans those values'
full band hashes.
"""

import numpy as np
import pytest

from sqlscout.errors import ContractViolation
from sqlscout.value_index import MinHashParams, ValueIndex
from sqlscout.value_index import index as index_mod
from sqlscout.value_index.minhash import permutation_salts, signatures

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# (num_permutations, bands, rows_per_band): a band number needing several
# key bits, a non-power-of-two band count, and a single band
SHAPES = [(8, 4, 2), (6, 3, 2), (4, 1, 4)]
# few distinct characters, so that bands often match exactly; "A" hashes
# as "a", since values are lowercased for hashing but stored verbatim
TEXTS = st.text(alphabet="abA ", min_size=1, max_size=6)
# few distinct values, so that bands often match exactly; or any uint64
VALUES = st.one_of(st.sampled_from([0, 1, 2, 2**64 - 1]),
                   st.integers(0, 2**64 - 1))
HALF = np.uint64(32)


def hashes_of(params: MinHashParams, sigs) -> np.ndarray:
    """(n, bands) band hashes of n signatures."""
    sigs = np.asarray(sigs, dtype=np.uint64).reshape(-1, params.num_permutations)
    return index_mod.band_hashes(sigs, params)


def signatures_of(params: MinHashParams, texts) -> np.ndarray:
    """(n, k) MinHash signatures of the lowercased texts."""
    return signatures([text.lower() for text in texts], permutation_salts(params),
                      params.shingle_size)


def full_hashes(params: MinHashParams, texts) -> np.ndarray:
    """(n, bands) full 64-bit band hashes of the texts."""
    return index_mod.band_hashes(signatures_of(params, texts), params)


def make_index(params: MinHashParams, values, stored=None) -> ValueIndex:
    """An index of the values; `stored` replaces their stored band hashes."""
    if stored is None:
        stored = (full_hashes(params, values) >> HALF).astype(np.uint32)
    return ValueIndex(
        db_id="lookup", params=params, columns=[("t", "c")],
        column_ids=np.zeros(len(values), dtype=np.int32),
        values=list(values), signatures=stored)


def brute_force_ids(hashes, want) -> list[int]:
    """Ids of the records that share one band's hash with the query's."""
    return [rid for rid, row in enumerate(hashes.tolist())
            if any(a == b for a, b in zip(row, want.tolist()))]


def brute_force_buckets(hashes) -> dict:
    out: dict = {}
    for rid, row in enumerate(hashes.tolist()):
        for band, key in enumerate(row):
            out.setdefault((band, key), []).append(rid)
    return out


@st.composite
def lookups(draw):
    """(shape, values, query text); the query is often a one-letter edit of a value."""
    shape = draw(st.sampled_from(SHAPES))
    values = draw(st.lists(TEXTS, max_size=30))
    if values and draw(st.booleans()):
        query = list(draw(st.sampled_from(values)))
        for _ in range(draw(st.integers(0, 2))):
            pos = draw(st.integers(0, len(query) - 1))
            query[pos] = draw(st.sampled_from("abA "))
        query = "".join(query)
    else:
        query = draw(TEXTS)
    return shape, values, query


def edge_lookup(n_records: int):
    """A lookup over n records of three letters, so bands often match."""
    rng = np.random.default_rng(n_records)
    texts = ["".join("abc"[i] for i in rng.integers(0, 3, size=4))
             for _ in range(n_records + 1)]
    return (8, 4, 2), texts[:-1], texts[-1]


# the record id takes the low max(1, (n - 1).bit_length()) bits of a word:
# the explicit examples sit at the edges of that width, 0, 1, 2, 2**k, 2**k + 1
@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(lookups())
@hypothesis.example(edge_lookup(0))
@hypothesis.example(edge_lookup(1))
@hypothesis.example(edge_lookup(2))
@hypothesis.example(edge_lookup(16))
@hypothesis.example(edge_lookup(17))
def test_candidate_ids_equal_a_band_scan(lookup):
    (k, bands, rows), values, query = lookup
    params = MinHashParams(num_permutations=k, bands=bands, rows_per_band=rows)
    hashes = full_hashes(params, values)
    index = make_index(params, values)
    got = index.candidate_ids(signatures_of(params, [query])[0])
    assert got == brute_force_ids(hashes, full_hashes(params, [query])[0])
    assert index.buckets == brute_force_buckets(hashes >> HALF)


def test_colliding_band_keys_return_only_exact_matches():
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    rng = np.random.default_rng(3)
    words = ["".join(chr(c) for c in rng.integers(97, 123, size=8)) for _ in range(40)]
    # records 20-39 get the stored hashes of records 0-19, but keep values
    # of their own, whose full band hashes differ from 0-19's in every band
    hashes = full_hashes(params, words)
    assert not (hashes[:20] == hashes[20:]).any()
    stored = (hashes[:20] >> HALF).astype(np.uint32)
    index = make_index(params, words, np.concatenate([stored, stored]))
    assert index._id_bits == 6
    keys = np.sort(index._words >> np.uint64(index._id_bits))
    assert (keys[0::2] == keys[1::2]).all()  # every key is shared by two records
    for rid, query in enumerate(signatures_of(params, words[:20])):
        assert index.candidate_ids(query) == [rid]
    # and a query of records 20-39 finds none: their stored hashes are not theirs
    for query in signatures_of(params, words[20:]):
        assert index.candidate_ids(query) == []
    assert index.buckets == brute_force_buckets(index.signatures)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(VALUES, min_size=2, max_size=2), st.integers(0, 1), VALUES)
def test_bands_that_differ_in_one_value_never_share_a_hash(band, pos, value):
    other = list(band)
    other[pos] = value
    hypothesis.assume(other != band)
    params = MinHashParams(num_permutations=2, bands=1, rows_per_band=2)
    first, second = hashes_of(params, [band, other])[:, 0].tolist()
    assert first != second


@pytest.mark.parametrize("n_values, n_column_ids, n_rows", [(2, 3, 3), (3, 2, 3), (3, 3, 2)])
def test_record_counts_that_disagree_are_rejected(n_values, n_column_ids, n_rows):
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    with pytest.raises(ContractViolation, match="must agree"):
        ValueIndex(db_id="lookup", params=params, columns=[("t", "c")],
                   column_ids=np.zeros(n_column_ids, dtype=np.int32),
                   values=[f"v{i}" for i in range(n_values)],
                   signatures=np.zeros((n_rows, 4), dtype=np.uint32))


def test_signatures_of_another_width_are_rejected():
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    # one hash per band: a full signature's 8 columns are refused too
    for width in (6, 8):
        with pytest.raises(ContractViolation, match="need 4 columns"):
            ValueIndex(db_id="lookup", params=params, columns=[("t", "c")],
                       column_ids=np.zeros(3, dtype=np.int32), values=["a", "b", "c"],
                       signatures=np.zeros((3, width), dtype=np.uint32))


def test_full_band_hashes_are_rejected():
    # the whole 64-bit hashes: their low halves would fill the words
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    with pytest.raises(ContractViolation, match="need uint32"):
        make_index(params, ["a", "b"], full_hashes(params, ["a", "b"]))


@pytest.mark.parametrize("column_ids", [[0, 1, 0], [-1, 0, 0], [0, 0, 2]])
def test_column_ids_that_decrease_or_leave_the_columns_are_rejected(column_ids):
    # a file stores one record count per column, so only ascending ids
    # into the column list can be written and read back
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    with pytest.raises(ContractViolation, match="must not decrease"):
        ValueIndex(db_id="lookup", params=params, columns=[("t", "a"), ("t", "b")],
                   column_ids=np.asarray(column_ids, dtype=np.int32),
                   values=["a", "b", "c"], signatures=np.zeros((3, 4), dtype=np.uint32))
