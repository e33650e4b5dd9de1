from __future__ import annotations

import math
import random

import pytest

from bitplan.queues import CostQueue, EdgeEntry, VertexEntry


def _heap_invariant_holds(heap) -> bool:
    return all(not heap[i] < heap[(i - 1) // 2] for i in range(1, len(heap)))


def _pushed_vertex(g, h_hat, vid) -> VertexEntry:
    """The entry that push_vertex builds."""
    q = CostQueue()
    q.push_vertex(g, h_hat, vid)
    return q.heap[0]


def _pushed_edge(g, vid, x, c_hat, h_hat) -> EdgeEntry:
    """The entry that push_edges builds for one edge."""
    q = CostQueue()
    q.push_edges(g, vid, [(x, c_hat, h_hat)])
    return q.heap[0]


def test_insert_then_pop_round_trips():
    q = CostQueue()
    entry = VertexEntry(5.0)
    entry.g, entry.vid = 2.0, "edge"
    q.insert(entry)
    popped = q.pop_best()
    assert popped is entry
    assert (float(popped), popped.g, popped.seq, popped.vid) == (5.0, 2.0, 0, "edge")
    assert len(q) == 0


def test_pop_orders_by_key():
    q = CostQueue()
    q.push_vertex(0.0, 7.0, "b")
    q.push_vertex(0.0, 5.0, "a")
    assert q.pop_best().vid == "a"


def test_ties_broken_by_true_cost_to_come():
    q = CostQueue()
    q.push_vertex(3.0, 2.0, "later")
    q.push_vertex(2.0, 3.0, "cheaper-to-come")
    assert q.pop_best().vid == "cheaper-to-come"


def test_equal_ties_broken_by_insertion_order():
    q = CostQueue()
    q.push_vertex(3.0, 2.0, "first")
    q.push_vertex(3.0, 2.0, "second")
    assert q.pop_best().vid == "first"
    assert q.pop_best().vid == "second"


class Incomparable:
    """A payload field that raises when compared, as a numpy array does."""

    def __eq__(self, other):
        raise TypeError("payload fields are never compared")

    __lt__ = __gt__ = __le__ = __ge__ = __ne__ = __eq__


def test_full_ties_pop_in_insertion_order_without_comparing_payloads():
    # The rank is (key, tiebreak, seq) and seq is unique, so entries tied on
    # key and tiebreak never reach their other payload fields.
    q = CostQueue()
    payloads = [(Incomparable(), Incomparable()) for _ in range(50)]
    for vid, x in payloads:
        q.push_edges(1.0, vid, [(x, 2.0, 2.0)])
    popped = []
    while q:
        entry = q.pop_best()
        popped.append((entry.vid, entry.x))
    assert len(popped) == len(payloads)
    assert all(a is c and b is d for (a, b), (c, d) in zip(popped, payloads))


def test_a_multi_field_payload_round_trips_flat():
    q = CostQueue()
    target = (1.0, -7.0)
    q.push_edges(1.5, 7, [(target, 2.5, 5.0)])
    q.push_vertex(1.0, 2.0, "vertex")
    vertex = q.pop_best()
    assert type(vertex) is VertexEntry and (vertex.vid, vertex.seq) == ("vertex", 1)
    edge = q.pop_best()
    assert type(edge) is EdgeEntry
    assert (float(edge), edge.g, edge.seq, edge.vid, edge.x, edge.c_hat, edge.h_hat) == (
        9.0, 1.5, 0, 7, target, 2.5, 5.0)
    assert edge.x is target


def test_heap_0_holds_the_least_key_examples():
    q = CostQueue()
    assert q.heap == []
    for k in (9.0, 4.0, 6.0):
        q.push_vertex(0.0, k, k)
    assert q.heap[0] == 4.0
    q.pop_best()
    assert q.heap[0] == 6.0


def test_heap_0_equals_the_next_pop_key():
    rng = random.Random(1)
    q = CostQueue()
    for _ in range(200):
        q.push_vertex(rng.uniform(0, 10), rng.uniform(0, 100), None)
    while q:
        assert float(q.heap[0]) == float(q.pop_best())


def test_pop_empty_is_an_error():
    with pytest.raises(LookupError):
        CostQueue().pop_best()


def test_clear():
    q = CostQueue()
    q.clear()
    assert len(q) == 0
    for i in range(10):
        q.push_vertex(0.0, float(i), i)
    q.clear()
    assert q.heap == []
    q.push_vertex(0.0, 1.0, "x")
    assert q.pop_best().vid == "x"


def test_rejects_non_finite_keys():
    # Records built directly, to reach insert's own check: through the
    # push methods a non-finite tiebreak always makes a non-finite key.
    q = CostQueue()
    for key, g in [(math.inf, 0.0), (1.0, math.nan)]:
        entry = VertexEntry(key)
        entry.g, entry.vid = g, None
        with pytest.raises(ValueError):
            q.insert(entry)
    # An edge's tiebreak is g + c_hat, refused when the sum overflows.
    entry = EdgeEntry(1.0)
    entry.g, entry.vid, entry.x, entry.c_hat, entry.h_hat = 1e308, None, None, 1e308, 0.0
    with pytest.raises(ValueError):
        q.insert(entry)
    assert q.heap == []


def test_the_push_methods_refuse_a_non_finite_key_or_tiebreak():
    q = CostQueue()
    with pytest.raises(ValueError):
        q.push_vertex(0.0, math.inf, None)
    with pytest.raises(ValueError):
        q.push_vertex(math.nan, 1.0, None)
    # A key that overflows, then a tiebreak g + c_hat that does.
    with pytest.raises(ValueError):
        q.push_edges(1e308, None, [(None, 0.0, 1e308)])
    with pytest.raises(ValueError):
        q.push_edges(1e308, None, [(None, 1e308, -1e308)])
    assert q.heap == []
    # Each edge is inserted in turn: those before a refused one stay queued.
    with pytest.raises(ValueError):
        q.push_edges(0.0, "v", [("a", 1.0, 1.0), ("b", 1.0, math.inf), ("c", 1.0, 1.0)])
    assert [entry.x for entry in q.heap] == ["a"]


def test_push_vertex_keys_g_plus_h_hat_bitwise():
    rng = random.Random(5)
    for _ in range(1000):
        g, h = rng.uniform(0, 50), rng.uniform(0, 50)
        entry = _pushed_vertex(g, h, "v")
        assert type(entry) is VertexEntry and entry.g is g and entry.vid == "v"
        assert float(entry).hex() == (g + h).hex()
        assert (entry.g + entry.c_hat).hex() == g.hex()  # the tiebreak


def test_push_edges_keys_g_plus_c_hat_then_h_hat_bitwise():
    rng = random.Random(6)
    regrouped = 0
    for _ in range(1000):
        g, c, h = rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0, 50)
        x = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        entry = _pushed_edge(g, "v", x, c, h)
        assert type(entry) is EdgeEntry
        assert (entry.g, entry.vid, entry.x, entry.c_hat, entry.h_hat) == (g, "v", x, c, h)
        assert float(entry).hex() == ((g + c) + h).hex()
        assert (entry.g + entry.c_hat).hex() == (g + c).hex()  # the tiebreak
        regrouped += g + (c + h) != (g + c) + h
    # On these floats the grouping of the sum matters, so the key check
    # tells (g + c_hat) + h_hat from g + (c_hat + h_hat).
    assert regrouped > 0


def test_push_edges_stamps_seq_in_the_given_order():
    q = CostQueue()
    q.push_vertex(0.0, 9.0, "v")
    g = 2.0
    edges = [((float(i), 0.0), 1.0, 5.0) for i in (3, 1, 4, 0, 2)]
    q.push_edges(g, "e", edges)
    queued = {entry.x: entry for entry in q.heap if type(entry) is EdgeEntry}
    assert [queued[x].seq for x, _, _ in edges] == [1, 2, 3, 4, 5]
    assert all(entry.g is g for entry in queued.values())
    # Their keys and tiebreaks all tie, so they pop in the given order,
    # before the vertex and its greater key.
    assert [q.pop_best().x for _ in edges] == [x for x, _, _ in edges]
    assert q.pop_best().vid == "v"


def _push(rng: random.Random, q: CostQueue, key: float, tie: float, seq: int):
    """Queue seq at about key: through push_vertex with tiebreak tie, or half
    the time through push_edges with tiebreak tie + c_hat. Returns the
    (key, tiebreak) it must rank by, computed as push_vertex and push_edges do."""
    if rng.random() < 0.5:
        h = key - tie
        q.push_vertex(tie, h, seq)
        return tie + h, tie
    c = rng.choice([0.0, 0.5])
    h = key - tie - c
    q.push_edges(tie, seq, [(None, c, h)])
    return (tie + c) + h, tie + c


def test_matches_sorted_list_oracle():
    # Interleaved inserts and pops must drain in exactly the order a naive
    # re-sort-on-every-pop implementation produces.
    rng = random.Random(42)
    q = CostQueue()
    oracle: list[tuple[float, float, int, int]] = []
    seq = 0
    popped_q, popped_o = [], []
    for _ in range(10_000):
        if oracle and rng.random() < 0.45:
            oracle.sort()
            popped_o.append(oracle.pop(0)[3])
            popped_q.append(q.pop_best().vid)
        else:
            key = rng.choice([1.0, 2.0, 3.0, rng.uniform(0, 10)])
            tie = rng.choice([0.0, 1.0, rng.uniform(0, 3)])
            oracle.append((*_push(rng, q, key, tie, seq), seq, seq))
            seq += 1
    while q:
        oracle.sort()
        popped_o.append(oracle.pop(0)[3])
        popped_q.append(q.pop_best().vid)
    assert popped_q == popped_o


def test_key_ties_inserted_in_descending_tiebreak_pop_in_ascending_tiebreak():
    q = CostQueue()
    for g in (9.0, 7.0, 5.0, 3.0, 1.0):
        q.push_vertex(g, 10.0 - g, g)
    q.push_vertex(0.0, 11.0, "after")
    assert [q.pop_best().vid for _ in range(6)] == [1.0, 3.0, 5.0, 7.0, 9.0, "after"]


def test_full_ties_pop_in_insertion_order_across_interleaved_inserts_and_pops():
    q = CostQueue()
    for i in range(3):
        q.push_vertex(1.0, 1.0, i)
    assert q.pop_best().vid == 0
    q.push_vertex(1.0, 1.0, 3)
    assert q.pop_best().vid == 1
    q.push_vertex(1.0, 1.0, 4)
    q.push_vertex(1.0, 1.0, 5)
    assert [q.pop_best().vid for _ in range(4)] == [2, 3, 4, 5]


def test_after_a_settle_the_heap_holds_and_its_first_entry_is_the_next_pop():
    rng = random.Random(3)
    q = CostQueue()
    for i in range(60):
        key, g = rng.choice([1.0, 2.0, 4.0]), rng.choice([0.0, 1.0, 2.0])
        q.push_vertex(g, key - g, i)
    settles = 0
    while q:
        tied = q.heap[0] in q.heap[1:3]  # another entry holds the least key
        q.pop_best()
        assert _heap_invariant_holds(q.heap)
        if tied:
            settles += 1
            assert q.heap[0] is q.pop_best()
            assert _heap_invariant_holds(q.heap)
    assert settles > 0


def test_negative_and_positive_zero_keys_tie():
    # No push sums to -0.0 with tiebreak 2.0, so "neg" is built directly.
    q = CostQueue()
    neg = VertexEntry(-0.0)
    neg.g, neg.vid = 2.0, "neg"
    q.insert(neg)
    q.push_vertex(1.0, -1.0, "pos")
    q.push_vertex(2.0, -2.0, "pos-later")
    assert [q.pop_best().vid for _ in range(3)] == ["pos", "neg", "pos-later"]


def test_a_vertex_entry_and_an_edge_entry_compare_as_their_keys():
    vertex = _pushed_vertex(4.0, 1.0, 0)
    edge = _pushed_edge(1.0, 0, (0.0, 0.0), 1.0, 3.0)
    assert vertex == edge and vertex <= edge and edge <= vertex
    assert not vertex < edge and not edge < vertex
    assert vertex < _pushed_edge(1.0, 0, (0.0, 0.0), 1.5, 3.0) < _pushed_vertex(0.0, 6.0, 1)
