from __future__ import annotations

import math
import random

import pytest

from bitplan.queues import CostQueue, EdgeEntry, VertexEntry
from conftest import edge_entry, vertex_entry


def _heap_invariant_holds(heap) -> bool:
    return all(not heap[i] < heap[(i - 1) // 2] for i in range(1, len(heap)))


def test_insert_then_pop_round_trips():
    q = CostQueue()
    entry = vertex_entry(5.0, 2.0, "edge")
    q.insert(entry)
    popped = q.pop_best()
    assert popped is entry
    assert (float(popped), popped.g, popped.seq, popped.vid) == (5.0, 2.0, 0, "edge")
    assert len(q) == 0


def test_pop_orders_by_key():
    q = CostQueue()
    q.insert(vertex_entry(7.0, 0.0, "b"))
    q.insert(vertex_entry(5.0, 0.0, "a"))
    assert q.pop_best().vid == "a"


def test_ties_broken_by_true_cost_to_come():
    q = CostQueue()
    q.insert(vertex_entry(5.0, 3.0, "later"))
    q.insert(vertex_entry(5.0, 2.0, "cheaper-to-come"))
    assert q.pop_best().vid == "cheaper-to-come"


def test_equal_ties_broken_by_insertion_order():
    q = CostQueue()
    q.insert(vertex_entry(5.0, 3.0, "first"))
    q.insert(vertex_entry(5.0, 3.0, "second"))
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
        q.insert(edge_entry(5.0, 1.0, vid, x, 2.0, 2.0))
    popped = []
    while q:
        entry = q.pop_best()
        popped.append((entry.vid, entry.x))
    assert len(popped) == len(payloads)
    assert all(a is c and b is d for (a, b), (c, d) in zip(popped, payloads))


def test_a_multi_field_payload_round_trips_flat():
    q = CostQueue()
    target = (1.0, -7.0)
    q.insert(edge_entry(9.0, 1.5, 7, target, 2.5, 5.0))
    q.insert(vertex_entry(3.0, 1.0, "vertex"))
    vertex = q.pop_best()
    assert type(vertex) is VertexEntry and (vertex.vid, vertex.seq) == ("vertex", 1)
    edge = q.pop_best()
    assert type(edge) is EdgeEntry
    assert (float(edge), edge.g, edge.seq, edge.vid, edge.x, edge.c_hat, edge.h_hat) == (
        9.0, 1.5, 0, 7, target, 2.5, 5.0)
    assert edge.x is target


def test_best_value_examples():
    q = CostQueue()
    assert q.heap == []
    for k in (9.0, 4.0, 6.0):
        q.insert(vertex_entry(k, 0.0, k))
    assert q.heap[0] == 4.0
    q.pop_best()
    assert q.heap[0] == 6.0


def test_best_value_equals_next_pop_key():
    rng = random.Random(1)
    q = CostQueue()
    for _ in range(200):
        q.insert(vertex_entry(rng.uniform(0, 100), rng.uniform(0, 10), None))
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
        q.insert(vertex_entry(float(i), 0.0, i))
    q.clear()
    assert q.heap == []
    q.insert(vertex_entry(1.0, 0.0, "x"))
    assert q.pop_best().vid == "x"


def test_rejects_non_finite_keys():
    q = CostQueue()
    with pytest.raises(ValueError):
        q.insert(vertex_entry(math.inf, 0.0, None))
    with pytest.raises(ValueError):
        q.insert(vertex_entry(1.0, math.nan, None))
    # An edge's tiebreak is g + c_hat, refused when the sum overflows.
    with pytest.raises(ValueError):
        q.insert(edge_entry(1.0, 1e308, None, None, 1e308, 0.0))
    assert q.heap == []


def _entry(rng: random.Random, key: float, tie: float, seq: int):
    """A vertex entry with tiebreak tie, or half the time an edge entry
    whose tiebreak is g + c_hat."""
    if rng.random() < 0.5:
        return vertex_entry(key, tie, seq)
    return edge_entry(key, tie, seq, None, rng.choice([0.0, 0.5]), 0.0)


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
            entry = _entry(rng, key, tie, seq)
            q.insert(entry)
            oracle.append((key, entry.g + entry.c_hat, seq, seq))
            seq += 1
    while q:
        oracle.sort()
        popped_o.append(oracle.pop(0)[3])
        popped_q.append(q.pop_best().vid)
    assert popped_q == popped_o


def test_key_ties_inserted_in_descending_tiebreak_pop_in_ascending_tiebreak():
    q = CostQueue()
    for g in (9.0, 7.0, 5.0, 3.0, 1.0):
        q.insert(vertex_entry(10.0, g, g))
    q.insert(vertex_entry(11.0, 0.0, "after"))
    assert [q.pop_best().vid for _ in range(6)] == [1.0, 3.0, 5.0, 7.0, 9.0, "after"]


def test_full_ties_pop_in_insertion_order_across_interleaved_inserts_and_pops():
    q = CostQueue()
    for i in range(3):
        q.insert(vertex_entry(2.0, 1.0, i))
    assert q.pop_best().vid == 0
    q.insert(vertex_entry(2.0, 1.0, 3))
    assert q.pop_best().vid == 1
    q.insert(vertex_entry(2.0, 1.0, 4))
    q.insert(vertex_entry(2.0, 1.0, 5))
    assert [q.pop_best().vid for _ in range(4)] == [2, 3, 4, 5]


def test_after_a_settle_the_heap_holds_and_its_first_entry_is_the_next_pop():
    rng = random.Random(3)
    q = CostQueue()
    for i in range(60):
        q.insert(vertex_entry(rng.choice([1.0, 2.0, 4.0]), rng.choice([0.0, 1.0, 2.0]), i))
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
    q = CostQueue()
    q.insert(vertex_entry(-0.0, 2.0, "neg"))
    q.insert(vertex_entry(0.0, 1.0, "pos"))
    q.insert(vertex_entry(0.0, 2.0, "pos-later"))
    assert [q.pop_best().vid for _ in range(3)] == ["pos", "neg", "pos-later"]


def test_a_vertex_entry_and_an_edge_entry_compare_as_their_keys():
    vertex = vertex_entry(5.0, 4.0, 0)
    edge = edge_entry(5.0, 1.0, 0, (0.0, 0.0), 1.0, 3.0)
    assert vertex == edge and vertex <= edge and edge <= vertex
    assert not vertex < edge and not edge < vertex
    assert vertex < edge_entry(5.5, 1.0, 0, (0.0, 0.0), 1.5, 3.0) < vertex_entry(6.0, 0.0, 1)
