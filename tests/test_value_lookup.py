"""LSH lookup through sorted packed band words, against a brute-force band scan."""

import numpy as np
import pytest

from sqlscout.errors import ContractViolation
from sqlscout.value_index import MinHashParams, ValueIndex
from sqlscout.value_index import index as index_mod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# (num_permutations, bands, rows_per_band): a band number needing several
# key bits, a non-power-of-two band count, and a single band
SHAPES = [(8, 4, 2), (6, 3, 2), (4, 1, 4)]
# few distinct values, so that bands often match exactly; or any uint64
VALUES = st.one_of(st.sampled_from([0, 1, 2, 2**64 - 1]),
                   st.integers(0, 2**64 - 1))


def hashes_of(params: MinHashParams, sigs) -> np.ndarray:
    """(n, bands) band hashes of n signatures."""
    sigs = np.asarray(sigs, dtype=np.uint64).reshape(-1, params.num_permutations)
    return index_mod.band_hashes(sigs, params)


def make_index(params: MinHashParams, hashes) -> ValueIndex:
    return ValueIndex(
        db_id="lookup", params=params, columns=[("t", "c")],
        column_ids=np.zeros(len(hashes), dtype=np.int32),
        values=[f"v{i}" for i in range(len(hashes))], signatures=hashes)


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
    """(shape, signatures, query); the query is often a near-duplicate of a record."""
    k = (shape := draw(st.sampled_from(SHAPES)))[0]
    signature = st.lists(VALUES, min_size=k, max_size=k)
    sigs = draw(st.lists(signature, max_size=30))
    if sigs and draw(st.booleans()):
        query = list(draw(st.sampled_from(sigs)))
        for pos in draw(st.lists(st.integers(0, k - 1), max_size=k)):
            query[pos] = draw(VALUES)
    else:
        query = draw(signature)
    return shape, sigs, query


def edge_lookup(n_records: int):
    """A lookup over n records of three distinct values, so bands often match."""
    rng = np.random.default_rng(n_records)
    sigs = rng.integers(0, 3, size=(n_records, 8), dtype=np.uint64).tolist()
    return (8, 4, 2), sigs, rng.integers(0, 3, size=8, dtype=np.uint64).tolist()


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
    (k, bands, rows), sigs, query = lookup
    params = MinHashParams(num_permutations=k, bands=bands, rows_per_band=rows)
    hashes = hashes_of(params, sigs)
    index = make_index(params, hashes)
    got = index.candidate_ids(np.asarray(query, dtype=np.uint64))
    assert got == brute_force_ids(hashes, hashes_of(params, query)[0])
    assert index.buckets == brute_force_buckets(hashes)


def test_colliding_band_keys_return_only_exact_matches():
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    rng = np.random.default_rng(3)
    queries = rng.integers(0, 2**64, size=(20, 8), dtype=np.uint64)
    hashes = hashes_of(params, queries)
    # 40 records take 6 id bits and 4 bands 2 band bits, so a word keeps the
    # hash's top 56 bits: records 20-39 differ from 0-19 in the low 8 only
    low = rng.integers(1, 2**8, size=hashes.shape, dtype=np.uint64)
    index = make_index(params, np.concatenate([hashes, hashes ^ low]))
    assert index._id_bits == 6
    keys = np.sort(index._words >> np.uint64(index._id_bits))
    assert (keys[0::2] == keys[1::2]).all()  # every key is shared by two records
    for rid, query in enumerate(queries):
        assert index.candidate_ids(query) == [rid]
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
                   signatures=np.zeros((n_rows, 4), dtype=np.uint64))


def test_signatures_of_another_width_are_rejected():
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    # one hash per band: a full signature's 8 columns are refused too
    for width in (6, 8):
        with pytest.raises(ContractViolation, match="need 4 columns"):
            ValueIndex(db_id="lookup", params=params, columns=[("t", "c")],
                       column_ids=np.zeros(3, dtype=np.int32), values=["a", "b", "c"],
                       signatures=np.zeros((3, width), dtype=np.uint64))
