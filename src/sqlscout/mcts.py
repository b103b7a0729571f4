"""The four-phase tree search: selection, expansion, simulation, backpropagation.

Each rollout walks the tree by UCT (unvisited children take absolute
priority), expands the frontier by sampling the legal actions, continues with
random unexplored children until a Terminate node, scores that terminal with
the consistency reward, and propagates the reward up the path. After
N_rollout rollouts every distinct terminal reached is returned as a candidate
trajectory.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .action_model import PromptLibrary, apply_artifact, fingerprint, run_action
from .action_model.prompts import SchemaKey
from .core.actions import valid_next_actions
from .core.catalog import DatabaseCatalog
from .core.types import ActionKind, EdgeKey, NLQuestion, SearchConfig, SearchNode
from .errors import ContractViolation, ProtocolError, TransportError
from .llm_client import ChatModel, Embedder
from .reward_select import compute_reward
from .sql_exec import ExecutionResult, memoize_executor
from .value_index import ValueIndex, as_retrieved_map, retrieve_values
from .action_model.runner import extract_keywords

log = logging.getLogger(__name__)


@dataclass
class SearchDeps:
    """Everything one search task needs, already bound to its database."""

    model: ChatModel
    catalog: DatabaseCatalog
    executor: Callable[[str], ExecutionResult]
    embedder: Embedder | None = None
    value_index: ValueIndex | None = None
    library: PromptLibrary | None = None
    # override hook for tests and alternative rewards; defaults to compute_reward
    reward_fn: Callable[["RolloutContext", SearchNode], float] | None = None


@dataclass
class RolloutContext:
    """Per-question search context: wiring plus two per-question memos.

    `execute` runs each distinct SQL string once; it is `deps.executor`
    itself when that is already a `memoize_executor` memo, as in
    `run_one_item`, so the two share one cache. `schema_cache` holds the
    rendered schema text per slice (None for the full catalog, else the
    selected (table, columns) items in order), so every prompt built from
    the same slice renders it once; it is valid because the catalog and
    `retrieved_map` stay fixed for the context's life. Both memos live and
    die with this context, one question; they are never shared across
    questions or `--workers` threads.
    """

    deps: SearchDeps
    q: NLQuestion
    cfg: SearchConfig
    retrieved_map: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    keywords: list[str] = field(default_factory=list)
    schema_cache: dict[SchemaKey, str] = field(default_factory=dict)
    execute: Callable[[str], ExecutionResult] = field(init=False, repr=False)

    def __post_init__(self):
        self.execute = memoize_executor(self.deps.executor)

    @property
    def model(self) -> ChatModel:
        return self.deps.model

    @property
    def catalog(self) -> DatabaseCatalog:
        return self.deps.catalog

    @property
    def library(self) -> PromptLibrary | None:
        return self.deps.library


@dataclass(frozen=True)
class Trajectory:
    """One complete root-to-Terminate path with its final SQL and reward."""

    nodes: tuple[SearchNode, ...]
    final_sql: str
    reward: float
    rollout_index: int

    def __post_init__(self):
        last = self.nodes[-1]
        if last.producing_action is not ActionKind.TERMINATE:
            raise ContractViolation("trajectory must end at a Terminate node")
        history = last.state.history()
        if history.count(ActionKind.SQL_GENERATE) != 1:
            raise ContractViolation("trajectory must generate SQL exactly once")
        if not self.final_sql:
            raise ContractViolation("trajectory carries no final SQL")


def uct_value(q_sum: float, edge_n: int, node_n: int, c: float) -> float:
    """Q/N plus the c-weighted exploration bonus sqrt(ln N(v) / N(v,a))."""
    if edge_n < 1:
        raise ContractViolation("UCT is undefined for an unvisited edge")
    return q_sum / edge_n + c * math.sqrt(math.log(node_n) / edge_n)


def uct_score(node: SearchNode, edge: EdgeKey, c: float) -> float:
    stats = node.action_stats.get(edge)
    if stats is None or stats.n < 1:
        raise ContractViolation("UCT is undefined for an unvisited edge")
    return uct_value(stats.q, stats.n, node.visit_count, c)


def select_path(root: SearchNode, cfg: SearchConfig, rng: random.Random) -> SearchNode:
    """Walk argmax-UCT from the root until a frontier node.

    Unvisited children take priority over UCT: the walk stops at the first
    node with one and returns one of them uniformly at random. Terminal,
    dead, and unexpanded nodes return themselves.
    """
    node = root
    while True:
        if node.is_terminal or node.dead or not node.expanded:
            return node
        children = list(node.children.values())
        unvisited = [c for c in children if c.visit_count == 0]
        if unvisited:
            return rng.choice(unvisited)
        best_score = -math.inf
        best: list[SearchNode] = []
        for child in children:
            score = uct_score(node, child.edge_key, cfg.uct_c)
            if score > best_score:
                best_score, best = score, [child]
            elif score == best_score:
                best.append(child)
        node = rng.choice(best)


def expand_node(node: SearchNode, ctx: RolloutContext, cfg: SearchConfig,
                rng: random.Random) -> list[SearchNode]:
    """Create children for every legal action; duplicate artifacts collapse.

    A transport or protocol failure on one action drops that action for this
    expansion.
    A node no action can extend is marked dead (terminal with reward 0).
    """
    del rng  # expansion order is canonical; randomness enters at selection
    if node.is_terminal:
        raise ContractViolation("cannot expand a terminal node")
    created: list[SearchNode] = []
    for action in valid_next_actions(node.state.history()):
        try:
            pairs = run_action(
                action, ctx.q, node.state, ctx.catalog, cfg, ctx.model,
                executor=ctx.execute, retrieved_values=ctx.retrieved_map,
                library=ctx.library, schema_cache=ctx.schema_cache,
            )
        except (TransportError, ProtocolError) as exc:
            log.warning("%s expansion failed: %s: %s", action.value,
                        type(exc).__name__, exc)
            continue
        for artifact, raw in pairs:
            key = (action, fingerprint(artifact))
            if key in node.children:
                continue  # same artifact already sampled; keep the first
            child = SearchNode(
                state=apply_artifact(node.state, action, artifact, raw),
                producing_action=action,
                fingerprint=key[1],
                parent=node,
            )
            node.children[key] = child
            created.append(child)
    node.expanded = True
    if not node.children:
        node.dead = True
        log.warning("node with history %s is dead: no action produced children",
                    [a.value for a in node.state.history()])
    return created


def simulate(node: SearchNode, ctx: RolloutContext, cfg: SearchConfig,
             rng: random.Random) -> SearchNode:
    """Descend random unexplored children until a terminal (or dead) node."""
    while True:
        if node.is_terminal or node.dead:
            return node
        if not node.expanded:
            expand_node(node, ctx, cfg, rng)
            if node.dead:
                return node
        unvisited = [c for c in node.children.values() if c.visit_count == 0]
        pool = unvisited or list(node.children.values())
        node = rng.choice(pool)


def backpropagate(terminal: SearchNode, reward: float) -> None:
    """Increment N along the path and fold the reward into each taken edge."""
    node = terminal
    while node.parent is not None:
        stats = node.parent.stats_for(node.edge_key)
        stats.q += reward
        stats.n += 1
        node.visit_count += 1
        node = node.parent
    node.visit_count += 1  # the root's own visit; root N = completed rollouts


def run_search(q: NLQuestion, deps: SearchDeps, cfg: SearchConfig) -> list[Trajectory]:
    """Full search for one question; returns each distinct terminal trajectory.

    Keyword extraction and value retrieval happen once, before the rollout
    loop, and feed every prompt. Rewards are computed once per terminal and
    cached on the node.
    """
    ctx = prepare_context(q, deps, cfg)
    rng = random.Random(cfg.rng_seed)
    reward_fn = deps.reward_fn or compute_reward
    root = SearchNode.root()
    trajectories: list[Trajectory] = []
    seen_terminals: set[int] = set()
    for rollout in range(cfg.n_rollout):
        node = select_path(root, cfg, rng)
        terminal = simulate(node, ctx, cfg, rng)
        if terminal.dead:
            backpropagate(terminal, 0.0)
            continue
        if terminal.reward is None:
            terminal.reward = reward_fn(ctx, terminal)
        if id(terminal) not in seen_terminals:
            seen_terminals.add(id(terminal))
            trajectories.append(Trajectory(
                nodes=tuple(terminal.path_from_root()),
                final_sql=terminal.state.sql or "",
                reward=terminal.reward,
                rollout_index=rollout,
            ))
        backpropagate(terminal, terminal.reward)
    audit_tree(root)
    return trajectories


def prepare_context(q: NLQuestion, deps: SearchDeps,
                    cfg: SearchConfig) -> RolloutContext:
    """Run the once-per-question steps: keywords and value retrieval.

    A keyword call lost to a transport or protocol error leaves the search
    without keywords and retrieved values, with a warning.
    """
    ctx = RolloutContext(deps=deps, q=q, cfg=cfg)
    if deps.value_index is not None:
        try:
            ctx.keywords = extract_keywords(q, deps.model, library=deps.library)
        except (TransportError, ProtocolError) as exc:
            log.warning("keyword extraction failed, retrieving no values: %s: %s",
                        type(exc).__name__, exc)
            return ctx
        retrieved = retrieve_values(deps.value_index, ctx.keywords,
                                    deps.embedder, cfg)
        ctx.retrieved_map = as_retrieved_map(retrieved)
    return ctx


def audit_tree(root: SearchNode) -> None:
    """Structural invariants over the whole tree; raises on violation."""
    stack = [root]
    while stack:
        node = stack.pop()
        history = node.state.history()
        valid_next_actions(history)  # raises if the history itself is illegal
        for edge, stats in node.action_stats.items():
            if stats.q < 0 or stats.q > stats.n:
                raise ContractViolation(
                    f"edge {edge} has Q={stats.q} outside [0, N={stats.n}]"
                )
        for (action, fp), child in node.children.items():
            if child.producing_action is not action or child.fingerprint != fp:
                raise ContractViolation("child keyed under the wrong edge")
            if child.parent is not node:
                raise ContractViolation("child has a foreign parent")
            stack.append(child)


def serialize_tree(root: SearchNode) -> dict:
    """JSON-ready dump of the tree for trace files and the inspect command."""
    nodes: list[dict] = []
    ids: dict[int, int] = {}
    stack = [root]
    order: list[SearchNode] = []
    while stack:
        node = stack.pop()
        ids[id(node)] = len(order)
        order.append(node)
        stack.extend(reversed(list(node.children.values())))
    for node in order:
        parent_id = ids[id(node.parent)] if node.parent is not None else None
        stats = (
            node.parent.action_stats.get(node.edge_key)
            if node.parent is not None else None
        )
        nodes.append({
            "id": ids[id(node)],
            "parent": parent_id,
            "action": node.producing_action.value if node.producing_action else None,
            "fingerprint": node.fingerprint or None,
            "visits": node.visit_count,
            "edge_q": round(stats.q, 6) if stats else None,
            "edge_n": stats.n if stats else None,
            "expanded": node.expanded,
            "dead": node.dead,
            "terminal": node.is_terminal,
            "reward": node.reward,
            "sql": node.state.sql,
        })
    return {"nodes": nodes}
