from __future__ import annotations

import math
import random

import pytest

from bitplan.tree import Tree
from conftest import tree_audit, tree_fuzz, tree_lists_audit


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


def test_child_order_through_add_rewire_and_remove():
    # Output bytes rest on this order: prune queues vertices breadth first
    # and remove_subtree walks each vertex's children in order.
    t = Tree((0.0, 0.0))
    r = t.root_id
    a, b, c, d = (t.add_child(r, (float(i), 0.0), 1.0) for i in range(1, 5))
    assert t.children(r) == [a, b, c, d]
    # Re-parented under its own parent, a child still goes last.
    t.rewire(b, r, 0.5)
    assert t.children(r) == [a, c, d, b]
    # A moved child goes last under its new parent, and the old parent's
    # other children keep their order.
    e = t.add_child(a, (0.0, 1.0), 1.0)
    t.rewire(c, a, 1.0)
    assert t.children(a) == [e, c]
    assert t.children(r) == [a, d, b]
    t.remove_subtree(d)
    assert t.children(r) == [a, b]
    f = t.add_child(r, (0.0, 2.0), 1.0)
    assert t.children(r) == [a, b, f]
    g = t.add_child(c, (0.0, 3.0), 1.0)
    h = t.add_child(a, (0.0, 4.0), 1.0)
    tree_audit(t)
    # A removal lists its subtree depth first, each vertex's children in order.
    assert [vid for vid, _ in t.remove_subtree(a)] == [a, e, c, g, h]
    assert t.children(r) == [b, f]
    tree_audit(t)


def test_the_tree_stores_its_own_id_objects_not_the_callers():
    # Above 256 an int parsed from text is an equal copy, not the object
    # add_child returned; the audit checks every stored id by identity.
    t = Tree((0.0, 0.0))
    ids = [t.add_child(t.root_id, (float(i), 1.0), 1.0) for i in range(1, 300)]
    a, b = ids[-1], ids[-2]
    assert int(str(a)) is not a
    c = t.add_child(int(str(a)), (0.0, 2.0), 1.0)
    t.rewire(int(str(b)), int(str(c)), 1.0)
    assert t.parents[c] is a and t.parents[b] is c and t.children(c)[0] is b
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
    for ops, t in tree_fuzz(99, 2000, add_frac=0.6, max_cost=5.0):
        tree_lists_audit(t)
        if ops % 200 == 1:  # after operations 1, 201, 401, ...
            tree_audit(t)
    tree_audit(t)
