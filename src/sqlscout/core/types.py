"""Domain types shared by every stage of the engine.

The search tree is built from SearchNode values; each node carries the
accumulated reasoning state (NodeState) produced by the action that created
it, plus the visit count and value sum the selection rule reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from ..errors import ContractViolation


class ActionKind(Enum):
    """The seven reasoning actions. Terminate is structural: it never calls the model."""

    REPHRASE = "A1"
    SCHEMA_SELECT = "A2"
    VALUE_IDENT = "A3"
    FUNCTION_IDENT = "A4"
    SQL_GENERATE = "A5"
    SQL_REVISE = "A6"
    TERMINATE = "A7"

    # Members compare by identity, so identity hashing agrees with equality.
    # It runs in C, where Enum's own `hash(self._name_)` is a Python call;
    # both vary between processes, so no output may depend on set order.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # compact in traces and test output
        return self.value


@dataclass(frozen=True)
class NLQuestion:
    """A benchmark question against one database."""

    question: str
    hint: str = ""
    db_id: str = ""

    def __post_init__(self):
        if not self.question.strip():
            raise ContractViolation("question must be non-empty")


# a schema selection (the A2 answer): ((table, (column, ...)), ...) in
# selection order
SchemaKey = tuple[tuple[str, tuple[str, ...]], ...]


@dataclass
class NodeState:
    """Answers accumulated along one root-to-node path.

    history holds the actions of the path in order; each action appears at
    most once.
    """

    rephrased_question: str | None = None
    selected_schema: SchemaKey | None = None
    value_notes: str | None = None
    function_notes: str | None = None
    sql: str | None = None
    history: tuple[ActionKind, ...] = ()

    def copy(self) -> NodeState:
        return NodeState(
            rephrased_question=self.rephrased_question,
            selected_schema=self.selected_schema,
            value_notes=self.value_notes,
            function_notes=self.function_notes,
            sql=self.sql,
            history=self.history,
        )


EdgeKey = tuple[ActionKind, str]  # (action, answer fingerprint)


@dataclass
class SearchNode:
    """One partial reasoning state in the search tree.

    Children are keyed by (action, answer fingerprint) so that expansion
    samples whose parsed answers coincide collapse into a single child.
    Each child is one action instance, so the edge statistics the selection
    rule reads, Q(v, a) and N(v, a), are the child's own `value_sum` and
    `visit_count`. A node is dead once expansion gave it no children.
    `prompt` is the prompt whose sample gave this node its answer (None for
    the root, a termination, and a revision chain that ran no round); the
    reward re-samples the prompt of a terminal's parent. Nothing points back
    up the tree: a rollout carries its own root-to-node path, so a finished
    tree is freed as soon as the last reference to its root is dropped.
    """

    state: NodeState
    prompt: str | None = field(default=None, repr=False)
    children: dict[EdgeKey, SearchNode] = field(default_factory=dict)
    visit_count: int = 0
    value_sum: float = 0.0
    expanded: bool = False
    reward: float | None = None

    @classmethod
    def root(cls) -> SearchNode:
        return cls(state=NodeState())

    @property
    def producing_action(self) -> ActionKind | None:
        """The action that created this node: its history's last; None at the root."""
        history = self.state.history
        return history[-1] if history else None

    @property
    def is_terminal(self) -> bool:
        return self.producing_action is ActionKind.TERMINATE

    @property
    def dead(self) -> bool:
        return self.expanded and not self.children


@dataclass
class SearchConfig:
    """Engine hyperparameters (benchmark defaults)."""

    n_rollout: int = 24
    n_expansion: int = 3
    t_expansion: float = 0.8
    n_reward: int = 5
    t_reward: float = 1.0
    n_revision: int = 10
    uct_c: float = math.sqrt(2)
    eps_edit: float = 0.3
    eps_semantic: float = 0.6
    sql_timeout_secs: float = 30.0
    rng_seed: int = 0
    top_m_per_column: int = 3
    row_cap: int = 10_000
    max_tokens: int = 2048

    def __post_init__(self):
        for name in ("n_rollout", "n_expansion", "n_reward", "n_revision",
                     "max_tokens"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")
        for name in ("t_expansion", "t_reward"):
            if not 0 <= getattr(self, name) < math.inf:  # also rejects NaN
                raise ContractViolation(f"{name} must be finite and >= 0")
        if not math.isfinite(self.uct_c):
            raise ContractViolation("uct_c must be finite")
        for name in ("eps_edit", "eps_semantic"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractViolation(f"{name} must be in [0, 1]")
        for name in ("row_cap", "top_m_per_column"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")
        if not self.sql_timeout_secs > 0:  # also rejects NaN
            raise ContractViolation("sql_timeout_secs must be > 0")
