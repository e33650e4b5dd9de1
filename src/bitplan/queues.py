"""Min-priority queue with deterministic tie-breaking for the planner queues.

Each entry is one flat tuple, (key, tiebreak, seq, *item): the caller's
payload fields follow the insertion counter seq, which is unique, so entries
are ranked lexicographically by (key, tiebreak, insertion order) and no
payload field is ever compared. `heap` is the entry list in heap order, for
reading only: heap[0] is the next entry to pop and heap[0][0] its key. Keys
are computed by the caller at insertion time and never re-keyed; the planner
re-checks every condition with fresh values at pop time, so stale entries
are harmless. Duplicate payloads are allowed for the same reason.
"""

from __future__ import annotations

import heapq
import itertools
import math


class CostQueue:
    def __init__(self):
        self.heap: list[tuple] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self.heap)

    def insert(self, key: float, tiebreak: float, *item) -> None:
        if not (math.isfinite(key) and math.isfinite(tiebreak)):
            raise ValueError("queue keys must be finite")
        heapq.heappush(self.heap, (key, tiebreak, next(self._counter), *item))

    def pop_best(self) -> tuple:
        """Remove and return the best entry, (key, tiebreak, seq, *item)."""
        if not self.heap:
            raise LookupError("pop from an empty queue")
        return heapq.heappop(self.heap)

    def clear(self) -> None:
        self.heap.clear()
