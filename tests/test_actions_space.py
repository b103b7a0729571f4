"""Action-space structure: legal transitions and exhaustive trajectory count."""

import itertools

import pytest

from sqlscout.core.actions import LEGAL_NEXT, enumerate_trajectories, valid_next_actions
from sqlscout.core.types import ActionKind
from sqlscout.errors import ContractViolation

A1 = ActionKind.REPHRASE
A2 = ActionKind.SCHEMA_SELECT
A3 = ActionKind.VALUE_IDENT
A4 = ActionKind.FUNCTION_IDENT
A5 = ActionKind.SQL_GENERATE
A6 = ActionKind.SQL_REVISE
A7 = ActionKind.TERMINATE

# independent statement of the transition rules, for cross-checking
ORACLE_SUCCESSORS = {
    None: {A1, A2, A3, A4, A5},
    A1: {A2, A3, A4, A5},
    A2: {A3, A4, A5},
    A3: {A2, A4, A5},
    A4: {A2, A3, A5},
    A5: {A6, A7},
    A6: {A7},
    A7: set(),
}


def oracle_enumerate():
    """Recursive enumeration straight off the successor table."""
    complete = []

    def walk(prefix):
        last = prefix[-1] if prefix else None
        if last is A7:
            complete.append(tuple(prefix))
            return
        for nxt in ORACLE_SUCCESSORS[last]:
            if nxt not in prefix:
                walk(prefix + [nxt])

    walk([])
    return complete


def test_oracle_counts_64_trajectories():
    assert len(oracle_enumerate()) == 64


def test_enumeration_matches_oracle_exactly():
    produced = {tuple(t) for t in enumerate_trajectories()}
    assert produced == set(oracle_enumerate())
    assert len(list(enumerate_trajectories())) == 64  # no duplicates either


def test_shortest_trajectory_is_generate_then_stop():
    shortest = min(enumerate_trajectories(), key=len)
    assert shortest == [A5, A7]


def test_every_trajectory_ends_with_terminate_and_one_generate():
    for traj in enumerate_trajectories():
        assert traj[-1] is A7
        assert traj.count(A5) == 1
        assert len(set(traj)) == len(traj)  # once-only rule


def test_every_prefix_is_reachable():
    for traj in enumerate_trajectories():
        for cut in range(len(traj)):
            allowed = valid_next_actions(traj[:cut])
            assert traj[cut] in allowed


def test_root_offers_all_but_revise_and_terminate():
    assert set(valid_next_actions([])) == {A1, A2, A3, A4, A5}


def test_rephrase_only_available_first():
    for traj in enumerate_trajectories():
        if A1 in traj:
            assert traj[0] is A1


def test_canonical_order_is_stable():
    assert valid_next_actions([]) == [A1, A2, A3, A4, A5]
    assert valid_next_actions([A1]) == [A2, A3, A4, A5]
    assert valid_next_actions([A5]) == [A6, A7]
    assert valid_next_actions([A5, A6]) == [A7]


@pytest.mark.parametrize(
    "history",
    [
        [A2, A1],        # rephrase after another action
        [A5, A5],        # repeat
        [A6],            # revise before generate
        [A7],            # terminate first is legal... as history it ended
        [A5, A7, A7],    # past the end
        [A3, A3],        # repeat
        [A1, A6],        # revise without generate
    ],
)
def test_illegal_histories_raise(history):
    with pytest.raises(ContractViolation):
        valid_next_actions(history)


def test_terminate_closes_the_trajectory():
    # nothing may follow A7
    assert valid_next_actions([A5, A7]) == []


CANONICAL = list(ActionKind)


def walk_next_actions(history):
    """The history walk the lookup table replaced, with its error messages."""
    seen = []
    allowed = ORACLE_SUCCESSORS[None]
    for step in history:
        if step in seen:
            raise ContractViolation(f"action {step.value} repeated in history")
        if step not in allowed:
            raise ContractViolation(
                f"action {step.value} is not a valid successor at its position")
        seen.append(step)
        allowed = ORACLE_SUCCESSORS[step]
    return sorted((a for a in allowed if a not in seen), key=CANONICAL.index)


def outcome(fn, history):
    try:
        return fn(history)
    except ContractViolation as exc:
        return f"raises: {exc}"


def test_table_holds_exactly_the_legal_histories():
    assert len(LEGAL_NEXT) == 160
    for history, nxt in LEGAL_NEXT.items():
        assert list(nxt) == walk_next_actions(history)


def test_lookup_matches_the_walk_on_legal_and_illegal_histories():
    histories = [h for n in range(5) for h in itertools.product(CANONICAL, repeat=n)]
    histories += [h + (a,) for h in LEGAL_NEXT for a in CANONICAL]
    for history in histories:
        for form in (tuple(history), list(history)):
            assert outcome(valid_next_actions, form) == \
                outcome(walk_next_actions, history), history


def test_enumeration_is_depth_first_in_canonical_order():
    expected = []

    def descend(prefix):
        nxt = walk_next_actions(prefix)
        if not nxt:
            expected.append(prefix)
        for action in nxt:
            descend(prefix + [action])

    descend([])
    assert enumerate_trajectories() == expected
    assert len(expected) == 64
