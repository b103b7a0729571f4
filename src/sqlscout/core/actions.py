"""Action-space structure: which actions may follow a given history.

Two rules define the space. First, a static successor map: the four analysis
actions may interleave before generation, generation unlocks revision and
termination, and termination closes the trajectory. Second, every action may
appear at most once per trajectory, so the successor set is always filtered
against the history.

Both rules are applied once, at import: `LEGAL_NEXT` maps each of the 160
legal histories to its legal next actions, so a lookup replaces a walk.
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

# Successors of the empty history (None) and of each action, before the
# once-per-trajectory filter is applied.
_SUCCESSORS: dict[ActionKind | None, tuple[ActionKind, ...]] = {
    None: (A1, A2, A3, A4, A5),
    A1: (A2, A3, A4, A5),
    A2: (A3, A4, A5),
    A3: (A2, A4, A5),
    A4: (A2, A3, A5),
    A5: (A6, A7),
    A6: (A7,),
    A7: (),
}


def _legal_next() -> dict[tuple[ActionKind, ...], tuple[ActionKind, ...]]:
    """Every legal history with its legal next actions, depth-first in
    canonical order."""
    table: dict[tuple[ActionKind, ...], tuple[ActionKind, ...]] = {}
    stack: list[tuple[ActionKind, ...]] = [()]
    while stack:
        history = stack.pop()
        last = history[-1] if history else None
        nxt = tuple(a for a in _SUCCESSORS[last] if a not in history)
        table[history] = nxt
        # push in reverse so canonical order pops first
        stack.extend(history + (a,) for a in reversed(nxt))
    return table


LEGAL_NEXT = _legal_next()


def valid_next_actions(history: Sequence[ActionKind]) -> list[ActionKind]:
    """Actions allowed after `history`, in canonical order.

    Raises ContractViolation if the history itself is not reachable (repeated
    action, or a step that was never a legal successor).
    """
    history = tuple(history)
    nxt = LEGAL_NEXT.get(history)
    if nxt is not None:
        return list(nxt)
    cut = next(i for i in range(len(history)) if history[: i + 1] not in LEGAL_NEXT)
    step = history[cut]
    reason = ("repeated in history" if step in history[:cut]
              else "is not a valid successor at its position")
    raise ContractViolation(f"action {step.value} {reason}")


def enumerate_trajectories() -> list[list[ActionKind]]:
    """All complete trajectories (ending in Terminate), depth-first in canonical order."""
    return [list(history) for history, nxt in LEGAL_NEXT.items() if not nxt]
