"""Rooted out-branching search tree with cached cost-to-come.

Edges live on the child (parent pointer + edge cost), so the tree is a map
from vertex id to one record. Cost-to-come is cached per vertex and updated
by subtree traversal on rewire, because queue keys read it far more often
than rewires write it. Vertex ids are never reused within one tree.
"""

from __future__ import annotations

import math

import numpy as np

from .space import State


class _Vertex:
    __slots__ = ("state", "parent", "edge_cost", "cost", "children")

    def __init__(self, state: State, parent: int | None, edge_cost: float, cost: float):
        self.state = state
        self.parent = parent
        self.edge_cost = edge_cost
        self.cost = cost
        self.children: dict[int, None] = {}  # insertion-ordered child-id set


class Tree:
    def __init__(self, root_state: State):
        self.root_id = 0
        self._v: dict[int, _Vertex] = {0: _Vertex(root_state, None, 0.0, 0.0)}
        self._by_state: dict[State, int] = {root_state: 0}
        self._next_id = 1
        # Lazily rebuilt (ids, states) matrix for vectorized radius queries,
        # column-major (d, capacity) as space.sq_dists reads it; additions
        # append a column, removals invalidate.
        self._mat_ids: list[int] = [0]
        self._mat = np.empty((len(root_state), 64))
        self._mat[:, 0] = root_state
        self._mat_dirty = False

    def __len__(self) -> int:
        return len(self._v)

    def __contains__(self, vid: int) -> bool:
        return vid in self._v

    def items(self):
        """(id, state) pairs in creation order."""
        return [(vid, v.state) for vid, v in self._v.items()]

    def state(self, vid: int) -> State:
        return self._vertex(vid).state

    def parent(self, vid: int) -> int | None:
        return self._vertex(vid).parent

    def edge_cost(self, vid: int) -> float:
        """Cost of the edge from the parent (0.0 for the root)."""
        return self._vertex(vid).edge_cost

    def children(self, vid: int) -> list[int]:
        return list(self._vertex(vid).children)

    def id_of(self, state: State) -> int | None:
        return self._by_state.get(state)

    def has_state(self, state: State) -> bool:
        return state in self._by_state

    def cost_to_come(self, vid: int) -> float:
        v = self._v.get(vid)
        return v.cost if v is not None else math.inf

    def add_child(self, parent: int, state: State, edge_cost: float) -> int:
        if not math.isfinite(edge_cost) or edge_cost < 0:
            raise ValueError(f"edge cost must be finite and non-negative, got {edge_cost}")
        pv = self._vertex(parent)
        if state in self._by_state:
            raise ValueError("state is already a tree vertex")
        vid = self._next_id
        self._next_id += 1
        self._v[vid] = _Vertex(state, parent, edge_cost, pv.cost + edge_cost)
        pv.children[vid] = None
        self._by_state[state] = vid
        if not self._mat_dirty:
            n = len(self._mat_ids)
            if n == self._mat.shape[1]:
                self._mat = np.hstack((self._mat, np.empty_like(self._mat)))
            self._mat[:, n] = state
            self._mat_ids.append(vid)
        return vid

    def rewire(self, child: int, new_parent: int, new_edge_cost: float) -> None:
        """Re-parent `child` and refresh cost-to-come across its subtree."""
        if child == self.root_id:
            raise ValueError("cannot rewire the root")
        if not math.isfinite(new_edge_cost) or new_edge_cost < 0:
            raise ValueError(f"edge cost must be finite and non-negative, got {new_edge_cost}")
        cv = self._vertex(child)
        pv = self._vertex(new_parent)
        anc = new_parent
        while anc is not None:
            if anc == child:
                raise ValueError("rewiring under a descendant would create a cycle")
            anc = self._v[anc].parent
        del self._v[cv.parent].children[child]
        cv.parent = new_parent
        cv.edge_cost = new_edge_cost
        pv.children[child] = None
        cv.cost = pv.cost + new_edge_cost
        self._refresh_subtree_costs(child)

    def remove_subtree(self, vid: int) -> list[tuple[int, State]]:
        """Remove `vid` and all descendants; returns the removed (id, state) pairs."""
        if vid == self.root_id:
            raise ValueError("cannot remove the root")
        v = self._vertex(vid)
        del self._v[v.parent].children[vid]
        removed: list[tuple[int, State]] = []
        stack = [vid]
        while stack:
            cur = stack.pop()
            node = self._v.pop(cur)
            del self._by_state[node.state]
            removed.append((cur, node.state))
            stack.extend(reversed(node.children))
        self._mat_dirty = True
        return removed

    def solution(self, vid: int) -> list[State]:
        """States along the root-to-vid path, both endpoints included."""
        v = self._vertex(vid)
        path = [v.state]
        while v.parent is not None:
            v = self._v[v.parent]
            path.append(v.state)
        path.reverse()
        return path

    def states_matrix(self) -> tuple[list[int], np.ndarray]:
        """Aligned (vertex ids, (d, n) state array) in creation order: column
        i is the state of vertex ids[i], and each row is one contiguous
        coordinate."""
        if self._mat_dirty:
            self._mat_ids = list(self._v)
            self._mat = np.array([v.state for v in self._v.values()], dtype=float).T.copy()
            self._mat_dirty = False
        return self._mat_ids, self._mat[:, : len(self._mat_ids)]

    def _vertex(self, vid: int) -> _Vertex:
        v = self._v.get(vid)
        if v is None:
            raise ValueError(f"unknown vertex id {vid}")
        return v

    def _refresh_subtree_costs(self, vid: int) -> None:
        stack = list(self._v[vid].children)
        while stack:
            cur = stack.pop()
            node = self._v[cur]
            node.cost = self._v[node.parent].cost + node.edge_cost
            stack.extend(node.children)
