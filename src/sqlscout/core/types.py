"""Domain types shared by every stage of the engine.

The search tree is built from SearchNode values; each node carries the
accumulated reasoning state (NodeState) produced by the action that created
it, plus the per-action visit/value statistics the selection rule reads.
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


@dataclass
class NodeState:
    """Answers accumulated along one root-to-node path.

    reasoning_log holds (action, raw model output) in path order; each action
    appears at most once. revision_context records the (sql, execution result
    text) pair the last revision prompt was built from, so the reward stage
    can re-issue the same prompt.
    """

    rephrased_question: str | None = None
    selected_schema: dict[str, list[str]] | None = None
    value_notes: str | None = None
    function_notes: str | None = None
    sql: str | None = None
    revision_context: tuple[str, str] | None = None
    reasoning_log: list[tuple[ActionKind, str]] = field(default_factory=list)

    def history(self) -> list[ActionKind]:
        return [action for action, _ in self.reasoning_log]

    def copy(self) -> NodeState:
        return NodeState(
            rephrased_question=self.rephrased_question,
            selected_schema=None if self.selected_schema is None
            else {t: list(cols) for t, cols in self.selected_schema.items()},
            value_notes=self.value_notes,
            function_notes=self.function_notes,
            sql=self.sql,
            revision_context=self.revision_context,
            reasoning_log=list(self.reasoning_log),
        )


@dataclass
class ActionStats:
    """Value sum Q and visit count N for one edge out of a node."""

    q: float = 0.0
    n: int = 0


EdgeKey = tuple[ActionKind, str]  # (action, answer fingerprint)


@dataclass
class SearchNode:
    """One partial reasoning state in the search tree.

    Children are keyed by (action, answer fingerprint) so that expansion
    samples whose parsed answers coincide collapse into a single child.
    Each child is one action instance; the per-edge Q/N statistics used by
    the selection rule live on the parent under the same key.
    """

    state: NodeState
    producing_action: ActionKind | None = None
    fingerprint: str = ""
    parent: SearchNode | None = field(default=None, repr=False)
    children: dict[EdgeKey, SearchNode] = field(default_factory=dict)
    visit_count: int = 0
    action_stats: dict[EdgeKey, ActionStats] = field(default_factory=dict)
    expanded: bool = False
    dead: bool = False
    reward: float | None = None

    @classmethod
    def root(cls) -> SearchNode:
        return cls(state=NodeState())

    @property
    def is_terminal(self) -> bool:
        return self.producing_action is ActionKind.TERMINATE

    @property
    def edge_key(self) -> EdgeKey:
        if self.producing_action is None:
            raise ContractViolation("the root node has no incoming edge")
        return (self.producing_action, self.fingerprint)

    def stats_for(self, edge: EdgeKey) -> ActionStats:
        return self.action_stats.setdefault(edge, ActionStats())

    def path_from_root(self) -> list[SearchNode]:
        path: list[SearchNode] = []
        node: SearchNode | None = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path


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
    retrieval_mode: str = "and"  # "and" | "or": how the edit/semantic gates combine
    top_m_per_column: int = 3
    row_cap: int = 10_000
    multiset_compare: bool = False
    max_tokens: int = 2048

    def __post_init__(self):
        for name in ("n_rollout", "n_expansion", "n_reward", "n_revision"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")
        for name in ("t_expansion", "t_reward"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")
        for name in ("eps_edit", "eps_semantic"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractViolation(f"{name} must be in [0, 1]")
        if self.retrieval_mode not in ("and", "or"):
            raise ContractViolation("retrieval_mode must be 'and' or 'or'")
