from .index import (
    DISTINCT_VALUE_CAP,
    ValueIndex,
    ValueRecord,
    build_value_index,
    load_index,
    save_index,
)
from .minhash import (
    MinHashParams,
    estimate_jaccard,
    permutation_salts,
    signature,
    signatures,
)
from .retrieval import (
    RetrievedValue,
    as_retrieved_map,
    edit_similarity,
    retrieve_values,
)

__all__ = [
    "DISTINCT_VALUE_CAP",
    "MinHashParams",
    "RetrievedValue",
    "ValueIndex",
    "ValueRecord",
    "as_retrieved_map",
    "build_value_index",
    "edit_similarity",
    "estimate_jaccard",
    "load_index",
    "permutation_salts",
    "retrieve_values",
    "save_index",
    "signature",
    "signatures",
]
