from __future__ import annotations

import math
import random

import pytest

from bitplan.queues import CostQueue


def test_insert_then_pop_round_trips():
    q = CostQueue()
    q.insert(5.0, 2.0, "edge")
    assert q.pop_best() == (5.0, 2.0, 0, "edge")
    assert len(q) == 0


def test_pop_orders_by_key():
    q = CostQueue()
    q.insert(7.0, 0.0, "b")
    q.insert(5.0, 0.0, "a")
    assert q.pop_best()[3] == "a"


def test_ties_broken_by_true_cost_to_come():
    q = CostQueue()
    q.insert(5.0, 3.0, "later")
    q.insert(5.0, 2.0, "cheaper-to-come")
    assert q.pop_best()[3] == "cheaper-to-come"


def test_equal_ties_broken_by_insertion_order():
    q = CostQueue()
    q.insert(5.0, 3.0, "first")
    q.insert(5.0, 3.0, "second")
    assert q.pop_best()[3] == "first"
    assert q.pop_best()[3] == "second"


class Incomparable:
    """A payload field that raises when compared, as a numpy array does."""

    def __eq__(self, other):
        raise TypeError("payload fields are never compared")

    __lt__ = __gt__ = __le__ = __ge__ = __ne__ = __eq__


def test_full_ties_pop_in_insertion_order_without_comparing_payloads():
    # The insertion counter follows key and tiebreak in every entry and is
    # unique, so entries tied on both never reach their payload fields.
    q = CostQueue()
    payloads = [(Incomparable(), Incomparable()) for _ in range(50)]
    for fields in payloads:
        q.insert(5.0, 3.0, *fields)
    popped = []
    while q:
        _, _, _, *fields = q.pop_best()
        popped.append(fields)
    assert len(popped) == len(payloads)
    assert all(a is c and b is d for (a, b), (c, d) in zip(popped, payloads))


def test_a_multi_field_payload_round_trips_flat():
    q = CostQueue()
    target = (1.0, -7.0)
    q.insert(9.0, 4.0, 7, target, 2.5, 6.5)
    q.insert(3.0, 1.0, "vertex")
    assert q.pop_best() == (3.0, 1.0, 1, "vertex")
    entry = q.pop_best()
    assert entry == (9.0, 4.0, 0, 7, target, 2.5, 6.5) and entry[4] is target


def test_best_value_examples():
    q = CostQueue()
    assert q.heap == []
    for k in (9.0, 4.0, 6.0):
        q.insert(k, 0.0, k)
    assert q.heap[0][0] == 4.0
    q.pop_best()
    assert q.heap[0][0] == 6.0


def test_best_value_equals_next_pop_key():
    rng = random.Random(1)
    q = CostQueue()
    for _ in range(200):
        q.insert(rng.uniform(0, 100), rng.uniform(0, 10), None)
    while q:
        assert q.heap[0][0] == q.pop_best()[0]


def test_pop_empty_is_an_error():
    with pytest.raises(LookupError):
        CostQueue().pop_best()


def test_clear():
    q = CostQueue()
    q.clear()
    assert len(q) == 0
    for i in range(10):
        q.insert(float(i), 0.0, i)
    q.clear()
    assert q.heap == []
    q.insert(1.0, 0.0, "x")
    assert q.pop_best()[3] == "x"


def test_rejects_non_finite_keys():
    q = CostQueue()
    with pytest.raises(ValueError):
        q.insert(math.inf, 0.0, None)
    with pytest.raises(ValueError):
        q.insert(1.0, math.nan, None)


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
            popped_q.append(q.pop_best()[3])
        else:
            key = rng.choice([1.0, 2.0, 3.0, rng.uniform(0, 10)])
            tie = rng.choice([0.0, 1.0, rng.uniform(0, 3)])
            q.insert(key, tie, seq)
            oracle.append((key, tie, seq, seq))
            seq += 1
    while q:
        oracle.sort()
        popped_o.append(oracle.pop(0)[3])
        popped_q.append(q.pop_best()[3])
    assert popped_q == popped_o
