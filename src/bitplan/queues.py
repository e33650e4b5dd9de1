"""Min-priority queue with deterministic tie-breaking for the planner queues.

An entry is a float-valued record: an instance of a `float` subclass whose
value is the entry's key and whose slots hold the insertion counter seq and
the payload. A `VertexEntry` holds the vertex's cost-to-come g and its id
vid; an `EdgeEntry` holds the expanding vertex's g and vid and the edge's
target x with its c_hat and h_hat. Entries are ranked by (key, tiebreak,
seq), where the tiebreak is g + c_hat (g for a vertex, whose c_hat is 0), so
no other payload field is ever compared. `heapq` orders the heap by the keys
alone, comparing plain floats in C; `pop_best` compares tiebreaks only when
another entry holds the exact key it pops, to settle that tie, and `insert`
reads an entry's tiebreak only to refuse a non-finite one. `heap` is the
entry list in heap order, for reading only: heap[0] holds the least key, so
as a float it is the key of the next pop, and right after a settle it is the
next pop itself. Keys are computed by the caller at insertion time and never
re-keyed; the planner re-checks every condition with fresh values at pop
time, so stale entries are harmless. Duplicate payloads are allowed for the
same reason.
"""

from __future__ import annotations

import heapq
import itertools
import math


class VertexEntry(float):
    """A vertex queue entry: its value is the key g + h_hat."""

    __slots__ = ("seq", "g", "vid")
    c_hat = 0.0  # so that every entry's tiebreak is g + c_hat


class EdgeEntry(VertexEntry):
    """An edge queue entry: its value is the key (g + c_hat) + h_hat, with g
    and vid the expanding vertex's."""

    __slots__ = ("x", "c_hat", "h_hat")


class CostQueue:
    def __init__(self):
        self.heap: list[VertexEntry] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self.heap)

    def insert(self, entry: VertexEntry) -> None:
        """Stamp entry with the next seq and queue it; refuse a non-finite
        key or tiebreak."""
        if not (math.isfinite(entry) and math.isfinite(entry.g + entry.c_hat)):
            raise ValueError("queue keys must be finite")
        entry.seq = next(self._counter)
        heapq.heappush(self.heap, entry)

    def pop_best(self) -> VertexEntry:
        """Remove and return the best entry, the least by (key, tiebreak, seq)."""
        heap = self.heap
        if not heap:
            raise LookupError("pop from an empty queue")
        best = heapq.heappop(heap)
        if heap and heap[0] == best:
            # Other entries hold the same key: pop them all, return the least
            # by (tiebreak, seq) and push the rest back in that order, which
            # leaves the next of them at heap[0].
            tied = [best]
            while heap and heap[0] == best:
                tied.append(heapq.heappop(heap))
            tied.sort(key=lambda e: (e.g + e.c_hat, e.seq))
            best = tied[0]
            for entry in tied[1:]:
                heapq.heappush(heap, entry)
        return best

    def clear(self) -> None:
        self.heap.clear()
