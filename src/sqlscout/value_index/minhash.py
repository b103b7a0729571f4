"""MinHash signatures over character shingles.

A text's signature is, for each of k salted hash functions, the minimum hash
over the text's distinct shingles. The fraction of equal signature positions
estimates the Jaccard similarity of the underlying shingle sets.

A shingle's hash is 64-bit FNV-1a of its utf-8 bytes; salt j maps it to
mix(hash XOR salt_j), where mix is the standard 64-bit avalanche finalizer
(xor-shift 33, two odd multipliers). All arithmetic is unsigned 64-bit with
wraparound, so the numpy path below is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolation

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)
# texts per slice of a batch, and shingles per step of the mix
_BLOCK = 2048


@dataclass(frozen=True)
class MinHashParams:
    num_permutations: int = 128
    bands: int = 16
    rows_per_band: int = 8
    shingle_size: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.bands * self.rows_per_band != self.num_permutations:
            raise ContractViolation("bands * rows_per_band must equal num_permutations")
        if self.shingle_size < 1:
            raise ContractViolation("shingle_size must be >= 1")


def permutation_salts(params: MinHashParams) -> np.ndarray:
    """The k salts that define the hash family; fixed by the seed."""
    rng = np.random.default_rng(params.seed)
    return rng.integers(0, 2**64, size=params.num_permutations, dtype=np.uint64)


def _shingles(text: str, size: int) -> set[str]:
    if len(text) < size:
        return {text}
    return {text[i : i + size] for i in range(len(text) - size + 1)}


def shingle_set(text: str, size: int = 3) -> set[bytes]:
    """Distinct character n-grams, utf-8 encoded. Short texts yield themselves."""
    return {s.encode("utf-8") for s in _shingles(text, size)}


def _fnv1a64(items: list[bytes]) -> np.ndarray:
    """64-bit FNV-1a of each byte string, one byte position at a time."""
    lens = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
    data = np.frombuffer(b"".join(items), dtype=np.uint8)
    starts = np.cumsum(lens) - lens
    hashes = np.full(len(items), _FNV_OFFSET, dtype=np.uint64)
    for pos in range(int(lens.max(initial=0))):
        live = np.flatnonzero(lens > pos)
        hashes[live] = (hashes[live] ^ data[starts[live] + pos]) * _FNV_PRIME
    return hashes


def _mix(hashes: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """(m, k) table of mix(hash XOR salt) for every hash and salt."""
    out = np.empty((len(hashes), len(salts)), dtype=np.uint64)
    for lo in range(0, len(hashes), _BLOCK):
        h = out[lo : lo + _BLOCK]
        np.bitwise_xor(hashes[lo : lo + _BLOCK, None], salts, out=h)
        h ^= h >> _S33
        h *= _M1
        h ^= h >> _S33
        h *= _M2
        h ^= h >> _S33
    return out


def signatures(
    texts: Sequence[str], salts: np.ndarray, shingle_size: int = 3
) -> np.ndarray:
    """MinHash signatures of many texts: (len(texts), k) uint64, row i for texts[i].

    Case-sensitive; callers lowercase first. Each distinct shingle is hashed
    once. Texts are then taken in slices of _BLOCK, and a slice mixes only
    the shingles it uses, so memory follows the slice, not the whole batch.
    A text with more than _BLOCK shingles is signed alone instead, _BLOCK
    mixed shingles at a time: in a slice it would take one step per shingle.
    """
    ids: dict[str, int] = {}
    flat: list[int] = []
    counts = np.empty(len(texts), dtype=np.intp)
    for i, text in enumerate(texts):
        shingles = _shingles(text, shingle_size)
        counts[i] = len(shingles)
        for s in shingles:
            flat.append(ids.setdefault(s, len(ids)))
    hashes = _fnv1a64([s.encode("utf-8") for s in ids])
    shingle_ids = np.asarray(flat, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    out = np.empty((len(texts), len(salts)), dtype=np.uint64)
    # texts sorted by shingle count: in each slice, those with more than r
    # shingles form a tail, and the minimum folds in shingle r for that tail
    order = np.argsort(counts, kind="stable")
    short = order[: np.searchsorted(counts[order], _BLOCK, side="right")]
    for lo in range(0, len(short), _BLOCK):
        rows = short[lo : lo + _BLOCK]
        n_shingles = counts[rows]
        offsets = np.cumsum(n_shingles) - n_shingles
        positions = (np.repeat(starts[rows] - offsets, n_shingles)
                     + np.arange(offsets[-1] + n_shingles[-1]))
        used, local = np.unique(shingle_ids[positions], return_inverse=True)
        mixed = _mix(hashes[used], salts)
        sig = mixed[local[offsets]]
        for rank in range(1, int(n_shingles[-1])):
            tail = int(np.searchsorted(n_shingles, rank, side="right"))
            np.minimum(sig[tail:], mixed[local[offsets[tail:] + rank]], out=sig[tail:])
        out[rows] = sig
    for i in order[len(short):]:
        own = hashes[shingle_ids[starts[i] : starts[i] + counts[i]]]
        out[i] = np.min([_mix(own[lo : lo + _BLOCK], salts).min(axis=0)
                         for lo in range(0, len(own), _BLOCK)], axis=0)
    return out


def signature(text: str, salts: np.ndarray, shingle_size: int = 3) -> np.ndarray:
    """MinHash signature of `text` (case-sensitive; callers lowercase first)."""
    return signatures([text], salts, shingle_size)[0]


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    if sig_a.shape != sig_b.shape:
        raise ContractViolation("signatures have different lengths")
    return float(np.mean(sig_a == sig_b))
