from .actions import enumerate_trajectories, valid_next_actions
from .catalog import (
    ColumnDef,
    DatabaseCatalog,
    ForeignKey,
    TableDef,
    attach_descriptions,
    load_catalog,
)
from .render import render_schema_context
from .types import (
    ActionKind,
    NLQuestion,
    NodeState,
    SearchConfig,
    SearchNode,
)

__all__ = [
    "ActionKind",
    "ColumnDef",
    "DatabaseCatalog",
    "ForeignKey",
    "NLQuestion",
    "NodeState",
    "SearchConfig",
    "SearchNode",
    "TableDef",
    "attach_descriptions",
    "enumerate_trajectories",
    "load_catalog",
    "render_schema_context",
    "valid_next_actions",
]
