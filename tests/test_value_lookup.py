"""LSH lookup through sorted band keys, against a brute-force band scan."""

import numpy as np
import pytest

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


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.sampled_from(SHAPES), st.data())
def test_candidate_ids_equal_a_band_scan(shape, data):
    k, bands, rows = shape
    params = MinHashParams(num_permutations=k, bands=bands, rows_per_band=rows)
    signature = st.lists(VALUES, min_size=k, max_size=k)
    sigs = data.draw(st.lists(signature, max_size=30))
    index = make_index(params, sigs)
    if sigs and data.draw(st.booleans()):  # a near-duplicate of a record
        query = list(data.draw(st.sampled_from(sigs)))
        for pos in data.draw(st.lists(st.integers(0, k - 1), max_size=k)):
            query[pos] = data.draw(VALUES)
    else:
        query = data.draw(signature)
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
    assert len(np.unique(index._keys)) == params.bands  # one key per band
    queries = [*sigs[:20], *rng.integers(0, 5, size=(20, 8), dtype=np.uint64)]
    for query in queries:
        got = index.candidate_ids(query)
        assert got == brute_force_ids(params, sigs, query)
        assert len(got) < len(sigs)
    assert index.buckets == brute_force_buckets(params, sigs)
