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


def make_index(params: MinHashParams, sigs) -> ValueIndex:
    sigs = np.asarray(sigs, dtype=np.uint64).reshape(-1, params.num_permutations)
    return ValueIndex(
        db_id="lookup", params=params, columns=[("t", "c")],
        column_ids=np.zeros(len(sigs), dtype=np.int32),
        values=[f"v{i}" for i in range(len(sigs))], signatures=sigs)


def bands_of(params: MinHashParams, sig) -> list[bytes]:
    raw = np.asarray(sig, dtype=np.uint64).tobytes()
    width = 8 * params.rows_per_band
    return [raw[b * width: (b + 1) * width] for b in range(params.bands)]


def brute_force_ids(params: MinHashParams, sigs, query) -> list[int]:
    """Ids of the records that share one band's exact bytes with the query."""
    want = bands_of(params, query)
    return [rid for rid, sig in enumerate(sigs)
            if any(a == b for a, b in zip(bands_of(params, sig), want))]


def brute_force_buckets(params: MinHashParams, sigs) -> dict:
    out: dict = {}
    for rid, sig in enumerate(sigs):
        for band, key in enumerate(bands_of(params, sig)):
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
    index = make_index(params, sigs)
    got = index.candidate_ids(np.asarray(query, dtype=np.uint64))
    assert got == brute_force_ids(params, sigs, query)
    assert index.buckets == brute_force_buckets(params, sigs)


def test_colliding_band_keys_return_only_exact_matches(monkeypatch):
    monkeypatch.setattr(index_mod, "_band_hash",
                        lambda blocks: np.zeros(blocks.shape[:-1], dtype=np.uint64))
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    rng = np.random.default_rng(3)
    sigs = rng.integers(0, 4, size=(200, 8), dtype=np.uint64)
    index = make_index(params, sigs)
    words, shift = index._words, np.uint64(index_mod._band_shift(params.bands))
    # the band field holds every record once per band, and with every hash
    # equal, the band and hash fields together make one key per band
    assert np.bincount((words >> shift).astype(np.intp)).tolist() == [len(sigs)] * params.bands
    assert len(np.unique(words >> np.uint64(index._id_bits))) == params.bands
    queries = [*sigs[:20], *rng.integers(0, 5, size=(20, 8), dtype=np.uint64)]
    for query in queries:
        got = index.candidate_ids(query)
        assert got == brute_force_ids(params, sigs, query)
        assert len(got) < len(sigs)
    assert index.buckets == brute_force_buckets(params, sigs)


@pytest.mark.parametrize("n_values, n_column_ids, n_rows", [(2, 3, 3), (3, 2, 3), (3, 3, 2)])
def test_record_counts_that_disagree_are_rejected(n_values, n_column_ids, n_rows):
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    with pytest.raises(ContractViolation, match="must agree"):
        ValueIndex(db_id="lookup", params=params, columns=[("t", "c")],
                   column_ids=np.zeros(n_column_ids, dtype=np.int32),
                   values=[f"v{i}" for i in range(n_values)],
                   signatures=np.zeros((n_rows, 8), dtype=np.uint64))


def test_signatures_of_another_width_are_rejected():
    params = MinHashParams(num_permutations=8, bands=4, rows_per_band=2)
    with pytest.raises(ContractViolation, match="need 8 columns"):
        ValueIndex(db_id="lookup", params=params, columns=[("t", "c")],
                   column_ids=np.zeros(3, dtype=np.int32), values=["a", "b", "c"],
                   signatures=np.zeros((3, 6), dtype=np.uint64))
