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
from .threads import on_threads

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)
# texts per chunk of a batch, and shingles per step of the mix
_BLOCK = 2048
# salts per step of a chunk signed on a thread
_SALT_BLOCK = 16


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


def shingle_set(text: str, size: int = 3) -> set[bytes]:
    """Distinct character n-grams, utf-8 encoded. Short texts yield themselves."""
    if len(text) < size:
        return {text.encode("utf-8")}
    return {text[i : i + size].encode("utf-8") for i in range(len(text) - size + 1)}


def _shingle_hashes(texts: list[str], lens: np.ndarray, counts: np.ndarray,
                    size: int) -> np.ndarray:
    """64-bit FNV-1a of the utf-8 bytes of every shingle, text after text.

    A text of n >= size code points has counts = n - size + 1 shingles,
    repeats included; a shorter one is its own single shingle. The texts are
    encoded once, and a shingle is a byte range of that buffer: a code point
    starts at every byte that is not a continuation byte (0b10xxxxxx). Step
    `pos` hashes byte `pos` of every shingle and keeps the result for the
    shingles that long. The zero padding (a shingle has at most 4 * size
    bytes) keeps every read inside the buffer, and since a zero byte starts
    a code point, it also marks where the last code point ends.
    """
    data = np.frombuffer("".join(texts).encode("utf-8") + bytes(4 * size),
                         dtype=np.uint8)
    bounds = np.flatnonzero((data & 0xC0) != 0x80)
    offsets = counts.cumsum() - counts
    total = int(offsets[-1] + counts[-1])
    first = (lens.cumsum() - lens - offsets).repeat(counts) + np.arange(total)
    at = bounds[first]
    nbytes = bounds[first + np.minimum(lens, size).repeat(counts)] - at
    hashes = np.full(total, _FNV_OFFSET, dtype=np.uint64)
    for pos in range(int(nbytes.max())):
        step = hashes ^ data[at]
        step *= _FNV_PRIME
        np.copyto(hashes, step, where=nbytes > pos)
        at += 1
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

    Case-sensitive; callers lowercase first. Texts are taken in chunks of
    _BLOCK, fewest shingles first. A chunk hashes its texts' shingles in
    arrays (byte ranges of the chunk's utf-8 encoding, with no Python object
    per shingle), mixes each distinct hash once, and folds shingle r into
    the minimum of the texts with more than r shingles; so memory follows
    the chunk, not the whole batch. A shingle repeated within a text is folded in again, which
    leaves the minimum as it was. A text with more than _BLOCK shingles is
    signed alone instead, _BLOCK mixed shingles at a time: in a chunk it
    would take one step per shingle.

    A batch of more than one chunk (a long text alone counting as one) is
    signed on `on_threads`' threads, and each chunk then mixes and folds
    _SALT_BLOCK salts at a time: a thread's freed memory stays in its own
    malloc arena, so each thread's peak is kept small. One chunk, the case
    of a query's keywords, starts no thread and takes every salt at once.
    Each signature is the same whichever way it was made.
    """
    lens = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    counts = np.maximum(lens - (shingle_size - 1), 1)
    order = counts.argsort(kind="stable")
    n_short = int(counts[order].searchsorted(_BLOCK, side="right"))
    n_chunks = -(-n_short // _BLOCK)
    tasks = n_chunks + len(texts) - n_short
    salt_block = len(salts) if tasks == 1 else _SALT_BLOCK
    out = np.empty((len(texts), len(salts)), dtype=np.uint64)

    def sign(ids):
        for task in ids:
            if task < n_chunks:
                rows = order[task * _BLOCK : min(n_short, (task + 1) * _BLOCK)]
                _sign_chunk([texts[i] for i in rows.tolist()], lens[rows], counts[rows],
                            salts, shingle_size, salt_block, out=out, rows=rows)
            else:
                i = int(order[n_short + task - n_chunks])
                own = np.unique(_shingle_hashes([texts[i]], lens[i : i + 1],
                                                counts[i : i + 1], shingle_size))
                out[i] = np.min([_mix(own[lo : lo + _BLOCK], salts).min(axis=0)
                                 for lo in range(0, len(own), _BLOCK)], axis=0)

    on_threads(tasks, sign)
    return out


def _sign_chunk(texts: list[str], lens: np.ndarray, n_shingles: np.ndarray,
                salts: np.ndarray, shingle_size: int, salt_block: int,
                out: np.ndarray, rows: np.ndarray) -> None:
    """Sign a chunk of texts, in ascending order of shingle count, into out[rows]."""
    hashes = _shingle_hashes(texts, lens, n_shingles, shingle_size)
    offsets = n_shingles.cumsum() - n_shingles
    used, local = np.unique(hashes, return_inverse=True)
    # the texts from tails[r - 1] on have more than r shingles
    tails = n_shingles.searchsorted(np.arange(1, n_shingles[-1]), side="right").tolist()
    for lo in range(0, len(salts), salt_block):
        mixed = _mix(used, salts[lo : lo + salt_block])
        sig = mixed[local[offsets]]
        for rank, tail in enumerate(tails, start=1):
            np.minimum(sig[tail:], mixed[local[offsets[tail:] + rank]], out=sig[tail:])
        out[rows, lo : lo + salt_block] = sig


def signature(text: str, salts: np.ndarray, shingle_size: int = 3) -> np.ndarray:
    """MinHash signature of `text` (case-sensitive; callers lowercase first)."""
    return signatures([text], salts, shingle_size)[0]


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    if sig_a.shape != sig_b.shape:
        raise ContractViolation("signatures have different lengths")
    return float(np.mean(sig_a == sig_b))
