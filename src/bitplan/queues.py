"""Min-priority queue with deterministic tie-breaking for the planner queues.

Entries are ranked lexicographically by (key, tiebreak, insertion order).
Keys are computed by the caller at insertion time and never re-keyed; the
planner re-checks every condition with fresh values at pop time, so stale
entries are harmless. Duplicate payloads are allowed for the same reason.
"""

from __future__ import annotations

import heapq
import itertools
import math


class CostQueue:
    def __init__(self):
        self._heap: list[tuple[float, float, int, object]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def insert(self, key: float, tiebreak: float, item) -> None:
        if not (math.isfinite(key) and math.isfinite(tiebreak)):
            raise ValueError("queue keys must be finite")
        heapq.heappush(self._heap, (key, tiebreak, next(self._counter), item))

    def best_value(self) -> float:
        """Minimum key, or +inf when empty (so queue comparisons stay total)."""
        return self._heap[0][0] if self._heap else math.inf

    def pop_best(self) -> tuple[float, float, object]:
        if not self._heap:
            raise LookupError("pop from an empty queue")
        key, tiebreak, _, item = heapq.heappop(self._heap)
        return key, tiebreak, item

    def clear(self) -> None:
        self._heap.clear()
