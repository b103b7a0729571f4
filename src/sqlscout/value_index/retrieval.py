"""Online value retrieval: LSH candidates filtered by edit and semantic similarity.

For each keyword the LSH buckets supply candidate values; a candidate is
kept only if it passes both gates. The edit gate runs first and only its
survivors are embedded for the semantic gate. Results are deduplicated,
sorted by semantic then edit similarity, and capped per column.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..core.types import SearchConfig
from ..errors import EndpointUnavailable
from ..llm_client import Embedder
from .index import ValueIndex, ValueRecord
from .minhash import signatures

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetrievedValue:
    record: ValueRecord
    edit_sim: float
    semantic_sim: float


def edit_similarity(a: str, b: str) -> float:
    """1 - normalized Levenshtein distance; case-insensitive; 1.0 for two empties."""
    a, b = a.lower(), b.lower()
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def levenshtein(a: str, b: str) -> int:
    """Edit distance in code points (two-row dynamic program)."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def retrieve_values(
    index: ValueIndex,
    keywords: list[str],
    embedder: Embedder | None,
    cfg: SearchConfig,
) -> list[RetrievedValue]:
    """Values from the index that plausibly ground the keywords.

    Output is deterministic: semantic similarity descending, edit similarity
    descending, then (table, column, value), capped at cfg.top_m_per_column
    rows per column. If the embedder fails (or is None), filtering degrades
    to the edit gate alone with semantic_sim reported as 0; an embedding
    endpoint that is down raises its `EndpointUnavailable`. A keyword with
    no utf-8 form (one holding a lone surrogate) has no signature and is
    dropped.
    """
    best: dict[ValueRecord, tuple[float, float]] = {}  # record -> (sem, edit)
    kws = [kw for kw in (keyword.strip() for keyword in keywords)
           if kw and _has_utf8(kw)]
    sigs = signatures([kw.lower() for kw in kws], index.salts,
                      index.params.shingle_size)
    for kw, sig in zip(kws, sigs):
        candidates = [index.record(rid) for rid in index.candidate_ids(sig)]
        pool = [(rec, edit_similarity(kw, rec.value)) for rec in candidates]
        pool = [(rec, ed) for rec, ed in pool if ed >= cfg.eps_edit]
        if not pool:
            continue
        sems = _semantic_sims(embedder, kw, [rec.value for rec, _ in pool])
        if sems is None:
            kept = [(rec, ed, 0.0) for rec, ed in pool]
        else:
            kept = [(rec, ed, sem) for (rec, ed), sem in zip(pool, sems)
                    if sem >= cfg.eps_semantic]
        for rec, ed, sem in kept:
            prev = best.get(rec)
            if prev is None or (sem, ed) > prev:
                best[rec] = (sem, ed)

    ordered = sorted(
        best.items(),
        key=lambda item: (
            -item[1][0],
            -item[1][1],
            item[0].table,
            item[0].column,
            item[0].value,
        ),
    )
    out: list[RetrievedValue] = []
    per_column: dict[tuple[str, str], int] = {}
    for rec, (sem, ed) in ordered:
        key = (rec.table, rec.column)
        if per_column.get(key, 0) >= cfg.top_m_per_column:
            continue
        per_column[key] = per_column.get(key, 0) + 1
        out.append(RetrievedValue(record=rec, edit_sim=ed, semantic_sim=sem))
    return out


def _has_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        log.warning("keyword %r has no utf-8 form; dropped", text)
        return False
    return True


def _semantic_sims(
    embedder: Embedder | None, keyword: str, values: list[str]
) -> list[float] | None:
    """Cosine similarity of the keyword against each value; None means unavailable.

    An outage is not degraded past: every later keyword would wait out the
    same retries, and every question would lose its semantic gate unseen.
    """
    if embedder is None:
        return None
    try:
        vectors = embedder.embed([keyword] + values)
    except EndpointUnavailable:
        raise
    except Exception as exc:
        log.warning("embedder failed (%s); falling back to edit-only filtering", exc)
        return None
    kw_vec = vectors[0]
    return [float(np.dot(kw_vec, v)) for v in vectors[1:]]


def as_retrieved_map(results: list[RetrievedValue]) -> dict[tuple[str, str], list[str]]:
    """Regroup results for the schema renderer: (table, column) -> values in rank order."""
    grouped: dict[tuple[str, str], list[str]] = {}
    for item in results:
        grouped.setdefault((item.record.table, item.record.column), []).append(
            item.record.value
        )
    return grouped
