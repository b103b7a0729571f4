"""Action-space structure: which actions may follow a given history.

Two rules define the space. First, a static successor map: the four analysis
actions may interleave before generation, generation unlocks revision and
termination, and termination closes the trajectory. Second, every action may
appear at most once per trajectory, so the successor set is always filtered
against the history.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ContractViolation
from .types import ActionKind

A1 = ActionKind.REPHRASE
A2 = ActionKind.SCHEMA_SELECT
A3 = ActionKind.VALUE_IDENT
A4 = ActionKind.FUNCTION_IDENT
A5 = ActionKind.SQL_GENERATE
A6 = ActionKind.SQL_REVISE
A7 = ActionKind.TERMINATE

# Successors of the empty history and of each action, before the
# once-per-trajectory filter is applied.
_ROOT_SUCCESSORS: tuple[ActionKind, ...] = (A1, A2, A3, A4, A5)
_SUCCESSORS: dict[ActionKind, tuple[ActionKind, ...]] = {
    A1: (A2, A3, A4, A5),
    A2: (A3, A4, A5),
    A3: (A2, A4, A5),
    A4: (A2, A3, A5),
    A5: (A6, A7),
    A6: (A7,),
    A7: (),
}


def valid_next_actions(history: Sequence[ActionKind]) -> list[ActionKind]:
    """Actions allowed after `history`, in canonical order.

    Raises ContractViolation if the history itself is not reachable (repeated
    action, or a step that was never a legal successor).
    """
    seen: set[ActionKind] = set()
    allowed: tuple[ActionKind, ...] = _ROOT_SUCCESSORS
    for step in history:
        if step in seen:
            raise ContractViolation(f"action {step.value} repeated in history")
        if step not in allowed:
            raise ContractViolation(
                f"action {step.value} is not a valid successor at its position"
            )
        seen.add(step)
        allowed = _SUCCESSORS[step]
    return [a for a in allowed if a not in seen]


def enumerate_trajectories() -> list[list[ActionKind]]:
    """All complete trajectories (ending in Terminate), depth-first in canonical order."""
    out: list[list[ActionKind]] = []
    stack: list[list[ActionKind]] = [[]]
    while stack:
        history = stack.pop()
        nxt = valid_next_actions(history)
        if not nxt:
            out.append(history)
            continue
        # push in reverse so canonical order pops first
        for action in reversed(nxt):
            stack.append(history + [action])
    return out
