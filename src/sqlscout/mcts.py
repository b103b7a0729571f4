"""The four-phase tree search, walked as one path per rollout.

`rollout_path` walks from the root to a terminal (or dead) node:
- selection: at an expanded node, `select_child` takes an unvisited child
  uniformly at random, else the UCT argmax;
- expansion: a non-terminal node the walk reaches unexpanded is expanded;
- simulation: the same rule below a node just expanded, whose children are
  all unvisited, so each step there is a uniform random one;
- backpropagation: `run_search` adds the terminal's reward along the path.
Every distinct terminal that N_rollout rollouts reach is a candidate.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .action_model import advance, fingerprint, parse_action_response, run_action
from .action_model.artifacts import Answer
from .action_model.runner import extract_keywords
from .core.actions import valid_next_actions
from .core.catalog import DatabaseCatalog
from .core.types import (
    ActionKind,
    NLQuestion,
    SchemaKey,
    SearchConfig,
    SearchNode,
)
from .errors import ContractViolation, ParseError, ProtocolError, TransportError
from .llm_client import ChatModel, Embedder
from .reward_select import compute_reward
from .sql_exec import ExecutionResult
from .value_index import ValueIndex, as_retrieved_map, retrieve_values

log = logging.getLogger(__name__)


@dataclass
class RolloutContext:
    """One question's search state: the inputs of every prompt and its memos.

    `prepare_context` builds it, and it lives for one question: the search,
    final selection, the chosen query and the gold query all read it. Its
    memos are never shared across questions or `--workers` threads.
    `results` holds each SQL string's result from `run_sql`, so `execute`
    runs a string once and a repeat returns the very same object (a
    truncated result equals only itself under `results_equal`).
    `schema_cache` holds the rendered schema text per slice (None for the
    full catalog, else the selection as the state holds it), so
    every prompt built from the same slice renders it once; it is valid
    because the catalog and `retrieved_map` stay fixed for the context's
    life. `samples` holds each action sample `sample` obtained, keyed by
    (prompt, temperature, sample index): actions that commute (A3 then A4,
    or A4 then A3) build the same state and so the same prompts, and each
    is asked of the model once. Such paths get the same texts back, so
    `answers` holds each (action, text)'s parsed answer (None if it does not
    parse) for expansion, revision and reward alike, and `fingerprints` each
    (action, answer)'s fingerprint. States share a memoized answer; none
    modifies it.
    """

    q: NLQuestion
    cfg: SearchConfig
    model: ChatModel
    catalog: DatabaseCatalog
    run_sql: Callable[[str], ExecutionResult]
    retrieved_map: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    keywords: list[str] = field(default_factory=list)
    schema_cache: dict[SchemaKey | None, str] = field(default_factory=dict)
    samples: dict[tuple[str, float, int], str] = field(default_factory=dict)
    results: dict[str, ExecutionResult] = field(default_factory=dict)
    answers: dict[tuple[ActionKind, str], Answer | None] = field(default_factory=dict)
    fingerprints: dict[tuple[ActionKind, Answer | None], str] = field(default_factory=dict)

    def execute(self, sql: str) -> ExecutionResult:
        """`run_sql(sql)`, run once per distinct string of the question."""
        result = self.results.get(sql)
        if result is None:
            result = self.results[sql] = self.run_sql(sql)
        return result

    def sample(self, prompt: str, temperature: float, index: int, tag: str) -> str:
        """The index-th completion for the prompt, asked of the model once.

        This is what `ChatModel.sample` promises, and what `ResponseCache`
        keys on. Only a text is kept: a transport or protocol error
        propagates and the key is asked again when it next comes up.
        """
        key = (prompt, temperature, index)
        text = self.samples.get(key)
        if text is None:
            text = self.model.sample(prompt, temperature, self.cfg.max_tokens,
                                     sample_index=index, tag=tag)
            self.samples[key] = text
        return text

    def parse(self, action: ActionKind, raw: str) -> Answer | None:
        """The answer `action` parses from `raw`, or None if it does not parse."""
        key = (action, raw)
        if key in self.answers:
            return self.answers[key]
        try:
            answer = parse_action_response(action, raw, self.catalog)
        except ParseError as exc:
            log.debug("%s sample failed to parse: %s", action.value, exc)
            answer = None
        self.answers[key] = answer
        return answer

    def fingerprint(self, action: ActionKind, answer: Answer | None) -> str:
        """`fingerprint(action, answer)`, computed once per answer."""
        key = (action, answer)
        fp = self.fingerprints.get(key)
        if fp is None:
            fp = self.fingerprints[key] = fingerprint(action, answer)
        return fp


@dataclass(frozen=True)
class Trajectory:
    """One complete root-to-Terminate path; the terminal holds its SQL and reward."""

    nodes: tuple[SearchNode, ...]

    def __post_init__(self):
        last = self.nodes[-1]
        if not last.is_terminal:
            raise ContractViolation("trajectory must end at a Terminate node")
        if last.state.history.count(ActionKind.SQL_GENERATE) != 1:
            raise ContractViolation("trajectory must generate SQL exactly once")
        if not self.final_sql:
            raise ContractViolation("trajectory carries no final SQL")

    @property
    def final_sql(self) -> str:
        return self.nodes[-1].state.sql or ""

    @property
    def reward(self) -> float:
        return self.nodes[-1].reward


def uct_value(q_sum: float, edge_n: int, node_n: int, c: float) -> float:
    """Q/N plus the c-weighted exploration bonus sqrt(ln N(v) / N(v,a))."""
    if edge_n < 1:
        raise ContractViolation("UCT is undefined for an unvisited edge")
    return q_sum / edge_n + c * math.sqrt(math.log(node_n) / edge_n)


def select_child(node: SearchNode, cfg: SearchConfig,
                 rng: random.Random) -> SearchNode:
    """An expanded node's next child: an unvisited one chosen uniformly at
    random, else the UCT argmax with ties broken at random."""
    children = list(node.children.values())
    unvisited = [c for c in children if c.visit_count == 0]
    if unvisited:
        return rng.choice(unvisited)
    best_score = -math.inf
    best: list[SearchNode] = []
    for child in children:
        score = uct_value(child.value_sum, child.visit_count,
                          node.visit_count, cfg.uct_c)
        if score > best_score:
            best_score, best = score, [child]
        elif score == best_score:
            best.append(child)
    return rng.choice(best)


def expand_node(node: SearchNode, ctx: RolloutContext) -> None:
    """Create children for every legal action; duplicate answers collapse.

    Actions run in canonical order; randomness enters only at selection. A
    transport or protocol failure on one action drops that action for this
    expansion. A node no action can extend is dead (terminal with reward 0).
    """
    if node.is_terminal:
        raise ContractViolation("cannot expand a terminal node")
    for action in valid_next_actions(node.state.history):
        try:
            pairs = run_action(action, node.state, ctx)
        except (TransportError, ProtocolError) as exc:
            log.warning("%s expansion failed: %s: %s", action.value,
                        type(exc).__name__, exc)
            continue
        for step, _ in pairs:
            key = (action, ctx.fingerprint(action, step.answer))
            if key not in node.children:  # else keep the first such answer
                node.children[key] = SearchNode(
                    state=advance(node.state, action, step.answer),
                    prompt=step.prompt,
                )
    node.expanded = True
    if node.dead:
        log.warning("node with history %s is dead: no action produced children",
                    [a.value for a in node.state.history])


def rollout_path(root: SearchNode, ctx: RolloutContext,
                 rng: random.Random) -> list[SearchNode]:
    """One rollout's path from the root to a terminal or dead node; a node
    reached unexpanded is expanded, then left by `select_child`."""
    node = root
    path = [root]
    while not node.is_terminal:
        if not node.expanded:
            expand_node(node, ctx)
        if node.dead:
            break
        node = select_child(node, ctx.cfg, rng)
        path.append(node)
    return path


def backpropagate(path: list[SearchNode], reward: float) -> None:
    """Add the reward to Q and 1 to N of every node on the rollout's path; a
    node's Q and N are its incoming edge's, and the root's N counts the
    rollouts."""
    for node in path:
        node.value_sum += reward
        node.visit_count += 1


def run_search(ctx: RolloutContext) -> list[Trajectory]:
    """Full search for one question; returns each distinct terminal trajectory.

    Keywords and retrieved values come from `prepare_context` and feed every
    prompt. Rewards are computed once per terminal and cached on the node;
    a terminal joins the trajectories when its reward is first computed.
    """
    cfg = ctx.cfg
    rng = random.Random(cfg.rng_seed)
    root = SearchNode.root()
    trajectories: list[Trajectory] = []
    for _ in range(cfg.n_rollout):
        path = rollout_path(root, ctx, rng)
        terminal = path[-1]
        if not terminal.dead and terminal.reward is None:
            terminal.reward = compute_reward(ctx, path)
            trajectories.append(Trajectory(nodes=tuple(path)))
        backpropagate(path, 0.0 if terminal.dead else terminal.reward)
    audit_tree(root)
    return trajectories


def prepare_context(q: NLQuestion, cfg: SearchConfig, model: ChatModel,
                    catalog: DatabaseCatalog,
                    run_sql: Callable[[str], ExecutionResult],
                    embedder: Embedder | None = None,
                    value_index: ValueIndex | None = None) -> RolloutContext:
    """The question's context, with the once-per-question steps run.

    With a value index, the keywords are extracted and their values
    retrieved; without one, no model call is made. A keyword call lost to a
    transport or protocol error leaves the search without keywords and
    retrieved values, with a warning.
    """
    ctx = RolloutContext(q=q, cfg=cfg, model=model, catalog=catalog,
                         run_sql=run_sql)
    if value_index is not None:
        try:
            ctx.keywords = extract_keywords(q, model)
        except (TransportError, ProtocolError) as exc:
            log.warning("keyword extraction failed, retrieving no values: %s: %s",
                        type(exc).__name__, exc)
            return ctx
        retrieved = retrieve_values(value_index, ctx.keywords, embedder, cfg)
        ctx.retrieved_map = as_retrieved_map(retrieved)
    return ctx


def audit_tree(root: SearchNode) -> None:
    """Structural invariants over the whole tree; raises on violation."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise ContractViolation("node reached by more than one edge")
        seen.add(id(node))
        history = node.state.history
        valid_next_actions(history)  # raises on an illegal history
        for edge, child in node.children.items():
            if child.state.history != history + (edge[0],):
                raise ContractViolation("child keyed under the wrong edge")
            if not 0 <= child.value_sum <= child.visit_count:
                raise ContractViolation(
                    f"edge {edge} has Q={child.value_sum} outside "
                    f"[0, N={child.visit_count}]"
                )
            stack.append(child)


def serialize_tree(root: SearchNode) -> dict:
    """JSON-ready dump of the tree for trace files and the inspect command."""
    nodes: list[dict] = []
    # depth-first, children in edge order; each entry carries its parent's
    # id and its edge's fingerprint
    stack: list[tuple[SearchNode, int | None, str]] = [(root, None, "")]
    while stack:
        node, parent_id, fp = stack.pop()
        node_id = len(nodes)
        stack.extend((child, node_id, child_fp) for (_, child_fp), child
                     in reversed(node.children.items()))
        visited = parent_id is not None and node.visit_count > 0
        nodes.append({
            "id": node_id,
            "parent": parent_id,
            "action": node.producing_action.value if node.producing_action else None,
            "fingerprint": fp or None,
            "visits": node.visit_count,
            "edge_q": round(node.value_sum, 6) if visited else None,
            "edge_n": node.visit_count if visited else None,
            "expanded": node.expanded,
            "dead": node.dead,
            "terminal": node.is_terminal,
            "reward": node.reward,
            "sql": node.state.sql,
        })
    return {"nodes": nodes}
