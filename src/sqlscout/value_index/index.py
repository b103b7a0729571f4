"""Offline value index: MinHash signatures plus LSH banding over text columns.

Built once per database. Each record's signature is split into `bands` runs
of `rows_per_band` values; records sharing any band hash land in the same
bucket, so lookup gathers near-duplicates without scanning every value.
"""

from __future__ import annotations

import binascii
import gc
import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.catalog import DatabaseCatalog
from ..errors import ContractViolation, IngestionError
from .minhash import MinHashParams, permutation_salts, signatures

DISTINCT_VALUE_CAP = 10_000
_FORMAT = "sqlscout-value-index"
_VERSION = 2


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
    records: list[ValueRecord]
    signatures: np.ndarray  # (n, k) uint64, rows parallel to records
    buckets: dict[tuple[int, bytes], list[int]] = field(default_factory=dict)
    salts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.salts is None:
            self.salts = permutation_salts(self.params)
        if not self.buckets and len(self.records):
            self._fill_buckets()

    def _fill_buckets(self) -> None:
        rows = self.params.rows_per_band
        with _collector_paused():
            for band in range(self.params.bands):
                block = np.ascontiguousarray(
                    self.signatures[:, band * rows : (band + 1) * rows])
                # one key per record: the bytes band_keys takes from its signature
                keys = block.view(np.dtype((np.void, block.itemsize * rows))).ravel()
                for rid, key in enumerate(keys.tolist()):
                    ids = self.buckets.get((band, key))
                    if ids is None:
                        self.buckets[(band, key)] = [rid]
                    else:
                        ids.append(rid)

    def candidate_ids(self, sig: np.ndarray) -> list[int]:
        """Record ids sharing at least one LSH band with the signature."""
        seen: set[int] = set()
        for key in band_keys(sig, self.params):
            seen.update(self.buckets.get(key, ()))
        return sorted(seen)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector around bulk construction.

    Filling buckets or reading records allocates one container per bucket or
    record, and none of them can form a cycle. With the collector on, its
    full passes re-walk the growing index and about double the time.
    """
    if not gc.isenabled():  # paused by the caller (or another thread)
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def band_keys(sig: np.ndarray, params: MinHashParams) -> list[tuple[int, bytes]]:
    rows = params.rows_per_band
    return [
        (b, sig[b * rows : (b + 1) * rows].tobytes())
        for b in range(params.bands)
    ]


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
    records: list[ValueRecord] = []
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
            for (raw,) in rows:
                value = str(raw)
                if not value:
                    continue
                records.append(ValueRecord(table=table, column=column, value=value))
    finally:
        conn.close()
    return ValueIndex(
        db_id=catalog.db_id,
        params=params,
        records=records,
        signatures=signatures(
            [rec.value.lower() for rec in records], salts, params.shingle_size
        ),
        salts=salts,
    )


def save_index(index: ValueIndex, path: str | Path) -> None:
    """Write the index as line-delimited JSON: one header line, one line per record.

    A record's "s" is the base64 of its signature as little-endian uint64s.
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
        "n_records": len(index.records),
    }
    sig_bytes = index.signatures.astype("<u8", copy=False).tobytes()
    width = 8 * index.params.num_permutations
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for rid, rec in enumerate(index.records):
            sig = sig_bytes[rid * width : (rid + 1) * width]
            line = {
                "c": rec.column,
                "s": binascii.b2a_base64(sig, newline=False).decode("ascii"),
                "t": rec.table,
                "v": rec.value,
            }
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":"),
                                ensure_ascii=False) + "\n")
    tmp.replace(path)


def load_index(path: str | Path) -> ValueIndex:
    """Read an index file; LSH buckets are rebuilt in memory."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != _FORMAT:
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
        width = 8 * params.num_permutations
        records: list[ValueRecord] = []
        sigs: list[bytes] = []
        with _collector_paused():
            for line in fh:
                if not line.strip():
                    continue
                try:  # JSON, base64 (binascii.Error) and field errors
                    obj = json.loads(line)
                    record = ValueRecord(
                        table=obj["t"], column=obj["c"], value=obj["v"])
                    sig = binascii.a2b_base64(obj["s"])
                except (ValueError, KeyError, TypeError, ContractViolation) as exc:
                    raise IngestionError(
                        f"malformed record in {path}: {exc!r}") from exc
                if len(sig) != width:
                    raise IngestionError(f"bad signature length in {path}")
                records.append(record)
                sigs.append(sig)
    if len(records) != header.get("n_records"):
        raise IngestionError(f"truncated index file: {path}")
    signatures = np.frombuffer(b"".join(sigs), dtype="<u8")
    return ValueIndex(
        db_id=header.get("db_id", ""),
        params=params,
        records=records,
        signatures=signatures.astype(np.uint64, copy=False).reshape(
            len(records), params.num_permutations),
        salts=permutation_salts(params),
    )
