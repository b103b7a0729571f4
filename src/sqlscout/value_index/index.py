"""Offline value index: MinHash signatures plus LSH banding over text columns.

Built once per database. Each record's signature is split into `bands` runs
of `rows_per_band` values; records sharing any band's values land in the same
bucket, so lookup gathers near-duplicates without scanning every value.

The index is columnar: parallel arrays of column ids, values and signatures,
with no Python object per record. The buckets are one sorted array of band
keys (a hash of a band's values, with the band number in the top bits) and
the record id of each key; a lookup finds a band's run of equal keys by
binary search and keeps the ids whose band values equal the query's.
"""

from __future__ import annotations

import binascii
import json
import sqlite3
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ..core.catalog import DatabaseCatalog
from ..errors import ContractViolation, IngestionError
from .minhash import MinHashParams, permutation_salts, signatures

DISTINCT_VALUE_CAP = 10_000
_FORMAT = "sqlscout-value-index"
_VERSION = 3
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
    signatures: np.ndarray  # (n, k) uint64, rows parallel to values
    salts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.salts is None:
            self.salts = permutation_salts(self.params)
        keys = _band_keys(self._blocks(self.signatures), self.params.bands)
        order = np.argsort(keys, axis=None)
        self._keys = keys.ravel()[order]
        self._ids = (order // self.params.bands).astype(np.int32)

    def _blocks(self, sig: np.ndarray) -> np.ndarray:
        """(..., bands, rows_per_band) view of signatures."""
        return sig.reshape(*sig.shape[:-1], self.params.bands, self.params.rows_per_band)

    def record(self, rid: int) -> ValueRecord:
        table, column = self.columns[self.column_ids[rid]]
        return ValueRecord(table=table, column=column, value=self.values[rid])

    def candidate_ids(self, sig: np.ndarray) -> list[int]:
        """Ids of the records sharing one LSH band's exact values with the signature."""
        query = self._blocks(sig)
        keys = _band_keys(query, self.params.bands)
        lo = np.searchsorted(self._keys, keys, side="left")
        counts = np.searchsorted(self._keys, keys, side="right") - lo
        total = int(counts.sum())
        if not total:
            return []
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(lo - offsets, counts) + np.arange(total)
        bands = np.repeat(np.arange(self.params.bands), counts)
        rids = self._ids[positions]
        # a key is a hash: keep only ids whose band values really are equal
        exact = (self._blocks(self.signatures)[rids, bands] == query[bands]).all(axis=1)
        return np.unique(rids[exact]).tolist()

    @cached_property
    def records(self) -> list[ValueRecord]:
        """Every record, built on first access; retrieval uses `record` instead."""
        return [self.record(rid) for rid in range(len(self.values))]

    @cached_property
    def buckets(self) -> dict[tuple[int, bytes], list[int]]:
        """(band, band values as bytes) -> record ids ascending, for inspection.

        Derived on first access from the sorted keys; lookups do not use it.
        """
        rows = self.params.rows_per_band
        shift = np.uint64(_band_shift(self.params.bands))
        bounds = np.searchsorted(self._keys >> shift,
                                 np.arange(self.params.bands + 1, dtype=np.uint64))
        out: dict[tuple[int, bytes], list[int]] = {}
        for band in range(self.params.bands):  # a band at a time: small temporaries
            ids = np.sort(self._ids[bounds[band]:bounds[band + 1]])  # ascending lists
            block = np.ascontiguousarray(self._blocks(self.signatures)[ids, band])
            keys = block.view(np.dtype((np.void, block.itemsize * rows))).ravel()
            for key, rid in zip(keys.tolist(), ids.tolist()):
                out.setdefault((band, key), []).append(rid)
        return out


def _band_shift(bands: int) -> int:
    """Bit position of the band number in a key: the top bits hold it."""
    return 64 - max(1, (bands - 1).bit_length())


def _band_hash(blocks: np.ndarray) -> np.ndarray:
    """64-bit hash of each band: (..., bands, rows) uint64 -> (..., bands).

    The band's values times distinct odd constants, summed with wraparound,
    so two bands that differ in one value never share a hash.
    """
    return blocks @ (_BAND_MUL * np.arange(1, 2 * blocks.shape[-1], 2, dtype=np.uint64))


def _band_keys(blocks: np.ndarray, bands: int) -> np.ndarray:
    """Sort keys of each band: its hash's high bits below the band number."""
    shift = _band_shift(bands)
    band_no = np.arange(bands, dtype=np.uint64) << np.uint64(shift)
    return (_band_hash(blocks) >> np.uint64(64 - shift)) | band_no


def build_value_index(
    catalog: DatabaseCatalog,
    params: MinHashParams | None = None,
    value_cap: int = DISTINCT_VALUE_CAP,
) -> ValueIndex:
    """Scan distinct values of every TEXT column and index their signatures.

    Values are lowercased for hashing but stored verbatim. Scan order (and
    hence the serialized file) is deterministic: catalog table/column order,
    values ascending.
    """
    params = params or MinHashParams()
    salts = permutation_salts(params)
    path = Path(catalog.db_path)
    if not path.exists():
        raise IngestionError(f"database file not found: {path}")
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
    columns: list[tuple[str, str]] = []
    column_ids: list[int] = []
    values: list[str] = []
    try:
        for table, column in catalog.text_columns():
            try:
                rows = conn.execute(
                    f'SELECT DISTINCT "{column}" FROM "{table}" '
                    f'WHERE "{column}" IS NOT NULL ORDER BY 1 LIMIT ?',
                    (value_cap,),
                ).fetchall()
            except sqlite3.Error as exc:
                raise IngestionError(
                    f"cannot scan {table}.{column}: {exc}"
                ) from exc
            kept = [value for value in (str(raw) for (raw,) in rows) if value]
            column_ids += [len(columns)] * len(kept)
            values += kept
            columns.append((table, column))
    finally:
        conn.close()
    return ValueIndex(
        db_id=catalog.db_id,
        params=params,
        columns=columns,
        column_ids=np.asarray(column_ids, dtype=np.int32),
        values=values,
        signatures=signatures(
            [value.lower() for value in values], salts, params.shingle_size
        ),
        salts=salts,
    )


def _json_line(obj) -> bytes:
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def save_index(index: ValueIndex, path: str | Path) -> None:
    """Write the index as five lines of JSON and base64.

    The lines are: the header; the [table, column] list; each record's column
    id; each record's value; and the base64 of all signatures, row after row,
    as little-endian uint64s.
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
        fh.write(binascii.b2a_base64(sigs, newline=False))
        fh.write(b"\n")
    tmp.replace(path)


def _lines(data: bytes) -> list[memoryview]:
    """The lines of data without their newlines, as views rather than copies."""
    view = memoryview(data)
    lines: list[memoryview] = []
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        lines.append(view[start:end])
        start = end + 1
    return lines


def load_index(path: str | Path) -> ValueIndex:
    """Read an index file; the sorted band keys are rebuilt in memory."""
    path = Path(path)
    data = path.read_bytes()
    lines = _lines(data)
    try:  # JSON and UTF-8 errors are ValueErrors, base64 errors too
        header = json.loads(bytes(lines[0]))
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise IngestionError(f"not a value-index file: {path}")
        if header.get("version") != _VERSION:
            raise IngestionError(
                f"value index {path} has format version {header.get('version')}, "
                f"but this sqlscout reads version {_VERSION}; rerun "
                "`sqlscout index build` to rebuild it"
            )
        if len(lines) != 5 or not data.endswith(b"\n"):
            raise IngestionError(f"truncated or overlong index file: {path}")
        params = MinHashParams(
            num_permutations=header["num_permutations"],
            bands=header["bands"],
            rows_per_band=header["rows_per_band"],
            shingle_size=header["shingle_size"],
            seed=header["seed"],
        )
        columns = json.loads(bytes(lines[1]))
        column_ids = np.asarray(json.loads(bytes(lines[2])))
        values = json.loads(bytes(lines[3]))
        sig_bytes = binascii.a2b_base64(lines[4], strict_mode=True)
    except (ValueError, KeyError, TypeError, IndexError, ContractViolation) as exc:
        raise IngestionError(f"malformed value index {path}: {exc!r}") from exc
    n = header.get("n_records")
    width = 8 * params.num_permutations
    if not (isinstance(n, int) and isinstance(values, list) and column_ids.ndim == 1):
        raise IngestionError(f"malformed record count, values or column ids in {path}")
    if not len(values) == len(column_ids) == n or len(sig_bytes) != n * width:
        raise IngestionError(
            f"record count mismatch in {path}: header {n!r}, {len(values)} values, "
            f"{len(column_ids)} column ids, {len(sig_bytes) // width} signatures")
    if not (isinstance(columns, list) and all(
            isinstance(col, list) and len(col) == 2
            and all(isinstance(name, str) for name in col) for col in columns)):
        raise IngestionError(f"malformed column list in {path}")
    if n and not (column_ids.dtype.kind == "i" and column_ids.min() >= 0
                  and column_ids.max() < len(columns)):
        raise IngestionError(f"column id out of range in {path}")
    if not all(isinstance(value, str) and value for value in values):
        raise IngestionError(f"empty or non-text value in {path}")
    return ValueIndex(
        db_id=header.get("db_id", ""),
        params=params,
        columns=[(table, column) for table, column in columns],
        column_ids=column_ids.astype(np.int32),
        values=values,
        signatures=np.frombuffer(sig_bytes, dtype="<u8").astype(
            np.uint64, copy=False).reshape(n, params.num_permutations),
        salts=permutation_salts(params),
    )
