"""Offline value index: MinHash signatures plus LSH banding over text columns.

Built once per database. Each record's signature is split into `bands` runs
of `rows_per_band` values; records sharing any band's values land in the same
bucket, so lookup gathers near-duplicates without scanning every value.

The index is columnar: parallel arrays of column ids, values and band hashes,
with no Python object per record. A record keeps only its signature's band
hashes, one 64-bit hash of each band's values; the full signature is not
stored. The buckets are one sorted array of packed 64-bit words, one per
(record, band): the band number in the top bits, the high bits of the band
hash in the middle, and the record id in the low bits. A lookup finds a
band's run of words with equal band and hash bits by binary search, reads
the ids from the low bits and keeps those whose full band hash equals the
query's.
"""

from __future__ import annotations

import gc
import json
import os
import sqlite3
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from ..core.catalog import DatabaseCatalog
from ..errors import ContractViolation, IngestionError
from ..sql_exec import open_readonly, quote_ident
from .minhash import MinHashParams, permutation_salts, signatures
from .threads import on_threads

DISTINCT_VALUE_CAP = 10_000
_FORMAT = "sqlscout-value-index"
_VERSION = 5
_BAND_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd: times an odd number stays odd


@dataclass(frozen=True)
class ValueRecord:
    table: str
    column: str
    value: str

    def __post_init__(self):
        if not self.value:
            raise ContractViolation("value must be non-empty")


@dataclass
class ValueIndex:
    db_id: str
    params: MinHashParams
    columns: list[tuple[str, str]]  # (table, column) per column id
    column_ids: np.ndarray  # (n,) int32, index into columns
    values: list[str]  # n non-empty values, stored verbatim
    # (n, bands) uint64, rows parallel to values: each record's band hashes
    # (`band_hashes` of its MinHash signature), not the signature itself
    signatures: np.ndarray
    salts: np.ndarray = field(init=False)  # the hash family `params` fixes

    def __post_init__(self):
        shape = self.signatures.shape
        if len(shape) != 2 or shape[1] != self.params.bands:
            raise ContractViolation(f"band hashes of shape {shape} need "
                                    f"{self.params.bands} columns")
        n = shape[0]  # the id field's width follows from it
        if not len(self.values) == len(self.column_ids) == n:
            raise ContractViolation(
                f"{len(self.values)} values, {len(self.column_ids)} column ids "
                f"and {n} band-hash rows must agree")
        self.salts = permutation_salts(self.params)
        self._id_bits = max(1, (n - 1).bit_length())
        self._id_mask = np.uint64((1 << self._id_bits) - 1)
        words = _band_keys(self.signatures, self._id_bits)
        words |= np.arange(n, dtype=np.uint64)[:, None]
        self._words = words.ravel()
        self._words.sort()  # a value sort; all words differ, so the order is unique

    def record(self, rid: int) -> ValueRecord:
        table, column = self.columns[self.column_ids[rid]]
        return ValueRecord(table=table, column=column, value=self.values[rid])

    def candidate_ids(self, sig: np.ndarray) -> list[int]:
        """Ids of the records sharing one LSH band's hash with the signature."""
        hashes = band_hashes(sig, self.params)
        keys = _band_keys(hashes, self._id_bits)  # id field 0
        lo = np.searchsorted(self._words, keys, side="left")
        counts = np.searchsorted(self._words, keys | self._id_mask, side="right") - lo
        total = int(counts.sum())
        if not total:
            return []
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(lo - offsets, counts) + np.arange(total)
        bands = np.repeat(np.arange(self.params.bands), counts)
        rids = self._words[positions] & self._id_mask
        # a word keeps only the hash's high bits: compare the whole hash
        exact = self.signatures[rids, bands] == hashes[bands]
        return np.unique(rids[exact]).tolist()

    @cached_property
    def records(self) -> list[ValueRecord]:
        """Every record, built on first access; retrieval uses `record` instead."""
        return [self.record(rid) for rid in range(len(self.values))]

    @cached_property
    def buckets(self) -> dict[tuple[int, int], list[int]]:
        """(band, band hash) -> record ids ascending, for inspection.

        Derived on first access from the sorted words; lookups do not use it.
        It allocates one list per bucket, so the cyclic collector is paused
        while it is built: its passes over the growing dict would double the
        time and could find no cycle to free.
        """
        shift = np.uint64(_band_shift(self.params.bands))
        bounds = np.searchsorted(self._words >> shift,
                                 np.arange(self.params.bands + 1, dtype=np.uint64))
        out: dict[tuple[int, int], list[int]] = {}
        collecting = gc.isenabled()
        gc.disable()
        try:
            for band in range(self.params.bands):  # a band at a time: small temporaries
                run = self._words[bounds[band]:bounds[band + 1]]
                ids = np.sort(run & self._id_mask)  # ascending
                keys = self.signatures[ids, band]
                for key, rid in zip(keys.tolist(), ids.tolist()):
                    out.setdefault((band, key), []).append(rid)
        finally:
            if collecting:
                gc.enable()
        return out


def _band_shift(bands: int) -> int:
    """Bit position of the band number in a word: the top bits hold it."""
    return 64 - max(1, (bands - 1).bit_length())


def band_hashes(sigs: np.ndarray, params: MinHashParams) -> np.ndarray:
    """64-bit hash of each LSH band of signatures: (..., k) uint64 -> (..., bands).

    A band's values times distinct odd constants, summed with wraparound,
    so two bands that differ in one value never share a hash. Bands that
    differ in more values share one with odds of about 2**-64, since MinHash
    values are uniform 64-bit words.
    """
    blocks = sigs.reshape(*sigs.shape[:-1], params.bands, params.rows_per_band)
    return blocks @ (_BAND_MUL * np.arange(1, 2 * params.rows_per_band, 2, dtype=np.uint64))


def _band_keys(hashes: np.ndarray, id_bits: int) -> np.ndarray:
    """Packed word of each band hash with the id field 0: (..., bands) uint64.

    The band number fills the top bits, the hash's high bits the middle,
    and the low `id_bits` bits are left for a record id.
    """
    shift = _band_shift(hashes.shape[-1])
    keys = hashes >> np.uint64(64 - shift + id_bits)
    keys <<= np.uint64(id_bits)
    keys |= np.arange(hashes.shape[-1], dtype=np.uint64) << np.uint64(shift)
    return keys


def build_value_index(
    catalog: DatabaseCatalog,
    params: MinHashParams | None = None,
    value_cap: int = DISTINCT_VALUE_CAP,
) -> ValueIndex:
    """Scan distinct values of every TEXT column and index their band hashes.

    Each column is deduplicated first, in a subquery, and only its distinct
    values are sorted: written as one `SELECT DISTINCT ... ORDER BY`, SQLite
    would sort every row of the table to group it. The first `value_cap`
    values in the column's own collation are kept. Values are lowercased for
    hashing but stored verbatim, and are signed in one `signatures` batch;
    each signature is reduced to its band hashes, and only those are kept.
    Scan order (and hence the serialized file) is deterministic: catalog
    table/column order, values ascending.

    Tables are scanned on `on_threads`' threads, each with its own
    read-only connection, and put back in catalog order, so the index does
    not depend on the thread count. A failed scan raises the `IngestionError`
    of the first failing column in catalog order, once every connection is
    closed.
    """
    params = params or MinHashParams()
    tables = [(table, [name for _, name in group])
              for table, group in groupby(catalog.text_columns(), key=itemgetter(0))]
    scanned: list[list[list[str]]] = [[] for _ in tables]  # per table, per column

    def scan(ids):
        conn = open_readonly(catalog.db_path)
        try:
            for at in ids:
                table, names = tables[at]
                scanned[at] = [_distinct_values(conn, table, name, value_cap)
                               for name in names]
        finally:
            conn.close()

    on_threads(len(tables), scan)
    columns = [(table, name) for table, names in tables for name in names]
    kept = [values for per_table in scanned for values in per_table]
    values = [value for column in kept for value in column]
    return ValueIndex(
        db_id=catalog.db_id,
        params=params,
        columns=columns,
        column_ids=np.repeat(np.arange(len(kept), dtype=np.int32),
                             [len(column) for column in kept]),
        values=values,
        signatures=band_hashes(
            signatures([value.lower() for value in values], permutation_salts(params),
                       params.shingle_size),
            params,
        ),
    )


def _distinct_values(conn: sqlite3.Connection, table: str, column: str,
                     value_cap: int) -> list[str]:
    """A column's first `value_cap` distinct non-empty values, ascending."""
    name = quote_ident(column)
    try:
        rows = conn.execute(
            f"SELECT v FROM (SELECT DISTINCT {name} AS v FROM "
            f"{quote_ident(table)} WHERE {name} IS NOT NULL) ORDER BY 1 LIMIT ?",
            (value_cap,),
        ).fetchall()
    except sqlite3.Error as exc:
        raise IngestionError(f"cannot scan {table}.{column}: {exc}") from exc
    return [value for value in (str(raw) for (raw,) in rows) if value]


def _json_line(obj) -> bytes:
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def save_index(index: ValueIndex, path: str | Path) -> None:
    """Write the index as four lines of JSON, then the raw band-hash bytes.

    The lines are: the header; the [table, column] list; each record's column
    id; and each record's value. The band hashes follow, row after row, as
    little-endian uint64s: exactly n_records * bands * 8 bytes, up to the
    end of the file. The name keeps its historical `.jsonl`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "db_id": index.db_id,
        "num_permutations": index.params.num_permutations,
        "bands": index.params.bands,
        "rows_per_band": index.params.rows_per_band,
        "shingle_size": index.params.shingle_size,
        "seed": index.params.seed,
        "n_records": len(index.values),
    }
    sigs = np.ascontiguousarray(index.signatures, dtype="<u8")  # no copy if already so
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_json_line(header))
        fh.write(_json_line([list(col) for col in index.columns]))
        fh.write(_json_line(index.column_ids.tolist()))
        fh.write(_json_line(index.values))
        fh.write(sigs)  # the array's own buffer; an empty one writes nothing
    tmp.replace(path)


def load_index(path: str | Path) -> ValueIndex:
    """Read an index file; the sorted band words are rebuilt in memory.

    The band-hash bytes are read straight into a preallocated array, so no
    copy of the whole file is held. A file of another format version, a
    short or overlong band-hash block, or a malformed line is an
    `IngestionError`.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:  # JSON and UTF-8 errors are ValueErrors
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("format") != _FORMAT:
                raise IngestionError(f"not a value-index file: {path}")
            if header.get("version") != _VERSION:
                raise IngestionError(
                    f"value index {path} has format version {header.get('version')}, "
                    f"but this sqlscout reads version {_VERSION}; rerun "
                    "`sqlscout index build` to rebuild it"
                )
            params = MinHashParams(
                num_permutations=header["num_permutations"],
                bands=header["bands"],
                rows_per_band=header["rows_per_band"],
                shingle_size=header["shingle_size"],
                seed=header["seed"],
            )
            lines = [fh.readline() for _ in range(3)]
            if not all(line.endswith(b"\n") for line in lines):
                raise IngestionError(f"truncated index file: {path}")
            columns, column_ids, values = (json.loads(line) for line in lines)
            column_ids = np.asarray(column_ids)
        except (ValueError, KeyError, TypeError, ContractViolation) as exc:
            raise IngestionError(f"malformed value index {path}: {exc!r}") from exc
        n = header.get("n_records")
        if not (isinstance(n, int) and isinstance(values, list) and column_ids.ndim == 1):
            raise IngestionError(f"malformed record count, values or column ids in {path}")
        if not len(values) == len(column_ids) == n:
            raise IngestionError(
                f"record count mismatch in {path}: header {n!r}, {len(values)} values, "
                f"{len(column_ids)} column ids")
        if not (isinstance(columns, list) and all(
                isinstance(col, list) and len(col) == 2
                and all(isinstance(name, str) for name in col) for col in columns)):
            raise IngestionError(f"malformed column list in {path}")
        if n and not (column_ids.dtype.kind == "i" and column_ids.min() >= 0
                      and column_ids.max() < len(columns)):
            raise IngestionError(f"column id out of range in {path}")
        if not (set(map(type, values)) <= {str} and all(values)):  # loops in C
            raise IngestionError(f"empty or non-text value in {path}")
        sigs = np.empty((n, params.bands), dtype="<u8")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != sigs.nbytes:  # checked before reading: no short read, no tail
            raise IngestionError(
                f"band-hash block of {path} holds {left} bytes, but {n} records of "
                f"{params.bands} bands need {sigs.nbytes}")
        if fh.readinto(sigs) != sigs.nbytes:
            raise IngestionError(f"truncated index file: {path}")
    return ValueIndex(
        db_id=header.get("db_id", ""),
        params=params,
        columns=[(table, column) for table, column in columns],
        column_ids=column_ids.astype(np.int32),
        values=values,
        signatures=sigs.astype(np.uint64, copy=False),
    )
