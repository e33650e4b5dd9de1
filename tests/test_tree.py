from __future__ import annotations

import math
import random

import pytest

from bitplan.tree import Tree
from conftest import tree_audit, tree_lists_audit


def test_add_child_costs():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (3.0, 4.0), 5.0)
    assert t.costs[a] == 5.0
    b = t.add_child(a, (3.0, 8.0), 4.0)
    assert t.costs[b] == 9.0


def test_add_child_chain_additive():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 3.0)
    b = t.add_child(a, (2.0, 0.0), 4.0)
    assert t.costs[b] == 7.0


def test_add_child_rejects_bad_edges():
    t = Tree((0.0, 0.0))
    with pytest.raises(ValueError):
        t.add_child(t.root_id, (1.0, 1.0), math.inf)
    with pytest.raises(ValueError):
        t.add_child(99, (1.0, 1.0), 1.0)
    t.add_child(t.root_id, (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        t.add_child(t.root_id, (1.0, 1.0), 2.0)  # duplicate state


@pytest.mark.parametrize("state", [(1.0, 2.0, 3.0), (1.0,), ("a", "b")],
                         ids=["3-D", "1-D", "not numbers"])
def test_a_refused_add_child_changes_nothing(state):
    # A wrong-length state used to be appended to every list before the
    # matrix write raised (or, at length 1, was broadcast into both rows).
    t = Tree((0.0, 0.0))
    t.add_child(t.root_id, (1.0, 1.0), 1.0)
    lists = (t.states, t.parents, t.costs, t._edge_costs, t._children, t.by_state)
    before = [list(x) for x in lists], len(t), t.children(0), t.states_matrix().tobytes()
    with pytest.raises(ValueError):
        t.add_child(t.root_id, state, 1.0)
    tree_audit(t)
    assert ([list(x) for x in lists], len(t), t.children(0), t.states_matrix().tobytes()) == before


def test_rewire_updates_costs():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 10.0)
    b = t.add_child(t.root_id, (0.0, 1.0), 3.0)
    t.rewire(a, b, 2.0)
    assert t.costs[a] == 5.0
    assert t.parents[a] == b
    assert a in t.children(b)
    assert a not in t.children(t.root_id)
    tree_audit(t)


def test_rewire_propagates_to_descendants():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 10.0)
    c = t.add_child(a, (2.0, 0.0), 1.0)
    d = t.add_child(c, (3.0, 0.0), 2.0)
    b = t.add_child(t.root_id, (0.0, 1.0), 3.0)
    before_c, before_d = t.costs[c], t.costs[d]
    t.rewire(a, b, 2.0)
    delta = 5.0 - 10.0
    assert t.costs[c] == before_c + delta
    assert t.costs[d] == before_d + delta
    tree_audit(t)


def test_rewire_guards():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    b = t.add_child(a, (2.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="cycle"):
        t.rewire(a, b, 1.0)  # b is a descendant of a
    with pytest.raises(ValueError):
        t.rewire(t.root_id, a, 1.0)
    with pytest.raises(ValueError):
        t.rewire(b, a, math.nan)


def test_cost_to_come_semantics():
    t = Tree((0.0, 0.0))
    assert t.costs[t.root_id] == 0.0
    assert t.by_state.get((5.0, 5.0)) is None  # unconnected sample
    a = t.add_child(t.root_id, (1.0, 0.0), 3.0)
    b = t.add_child(a, (2.0, 0.0), 4.0)
    c = t.add_child(b, (3.0, 0.0), 5.0)
    assert t.costs[c] == 12.0
    assert t.costs[t.by_state[(3.0, 0.0)]] == 12.0
    # A removed id stays in the lists, unreachable.
    t.remove_subtree(b)
    assert (t.states[c], t.parents[c], t.costs[c]) == (None, None, math.inf)
    assert t.by_state.get((3.0, 0.0)) is None


def test_parent_children_examples():
    t = Tree((0.0, 0.0))
    assert t.parents[t.root_id] is None
    a = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    assert t.parents[a] == t.root_id
    assert t.children(a) == []
    assert t.children(t.root_id) == [a]
    with pytest.raises(ValueError):
        t.children(777)
    with pytest.raises(ValueError):
        t.children(-1)


def test_remove_subtree():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    b = t.add_child(a, (2.0, 0.0), 1.0)
    c = t.add_child(a, (3.0, 0.0), 1.0)
    leaf = t.add_child(t.root_id, (9.0, 9.0), 1.0)
    assert len(t.remove_subtree(leaf)) == 1
    removed = t.remove_subtree(a)
    assert {vid for vid, _ in removed} == {a, b, c}
    assert len(t) == 1
    with pytest.raises(ValueError):
        t.remove_subtree(t.root_id)
    tree_audit(t)


def test_removed_ids_are_not_reused():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    t.remove_subtree(a)
    b = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    assert b != a


def test_solution_path():
    t = Tree((0.0, 0.0))
    assert t.solution(t.root_id) == [(0.0, 0.0)]
    a = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    b = t.add_child(a, (1.0, 1.0), 1.0)
    assert t.solution(b) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]


def test_solution_cost_matches_cost_to_come():
    rng = random.Random(3)
    t = Tree((0.0, 0.0))
    ids = [t.root_id]
    for _ in range(50):
        parent = rng.choice(ids)
        state = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        if state in t.by_state:
            continue
        ids.append(t.add_child(parent, state, math.dist(t.states[parent], state)))
    for vid in ids:
        path = t.solution(vid)
        length = sum(math.dist(u, v) for u, v in zip(path, path[1:]))
        assert abs(length - t.costs[vid]) < 1e-9


def test_states_matrix_tracks_mutations():
    t = Tree((0.0, 0.0))
    a = t.add_child(t.root_id, (1.0, 0.0), 1.0)
    b = t.add_child(t.root_id, (2.0, 0.0), 2.0)
    assert t.states_matrix().tolist() == [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]]
    t.remove_subtree(a)
    # Column v stays vertex v: a's column reads inf and b's is unmoved.
    assert t.states_matrix().tolist() == [[0.0, math.inf, 2.0], [0.0, math.inf, 0.0]]
    c = t.add_child(b, (3.0, 0.0), 1.0)
    assert t.states_matrix()[:, c].tolist() == [3.0, 0.0]
    tree_lists_audit(t)


def test_states_matrix_across_growth_removal_and_rewire():
    rng = random.Random(5)
    t = Tree((0.0, -0.0))
    ids = [t.root_id]
    # Appends cross the 64 -> 128 -> 256 capacity doublings.
    while len(t) < 300:
        parent = rng.choice(ids)
        ids.append(t.add_child(parent, (rng.uniform(-1e3, 1e3), -rng.random()), 1.0))
        if len(t) in (2, 63, 64, 65, 128, 129, 256, 257, 300):
            tree_lists_audit(t)
    # A rewire moves no state.
    t.rewire(ids[200], t.root_id, 1.0)
    tree_lists_audit(t)
    # A removal writes inf over its columns in place; later appends grow the
    # same matrix.
    removed = {vid for vid, _ in t.remove_subtree(ids[100])}
    tree_lists_audit(t)
    ids = [vid for vid in ids if vid not in removed]
    for _ in range(200):
        ids.append(t.add_child(rng.choice(ids), (rng.uniform(-1e3, 1e3), rng.random()), 1.0))
    tree_lists_audit(t)


def test_operation_fuzz_preserves_invariants():
    rng = random.Random(99)
    t = Tree((0.0, 0.0))
    ids = [t.root_id]
    for step in range(2000):
        op = rng.random()
        if op < 0.6 or len(ids) < 3:
            parent = rng.choice(ids)
            state = (rng.uniform(-100, 100), rng.uniform(-100, 100))
            if state in t.by_state:
                continue
            ids.append(t.add_child(parent, state, rng.uniform(0, 5)))
        elif op < 0.85:
            child = rng.choice(ids[1:])
            new_parent = rng.choice(ids)
            try:
                t.rewire(child, new_parent, rng.uniform(0, 5))
            except ValueError:
                pass  # cycle attempts are expected
        else:
            victim = rng.choice(ids[1:])
            removed = {vid for vid, _ in t.remove_subtree(victim)}
            ids = [v for v in ids if v not in removed]
        tree_lists_audit(t)
        if step % 200 == 0:
            tree_audit(t)
    tree_audit(t)
