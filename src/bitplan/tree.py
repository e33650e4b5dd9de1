"""Rooted out-branching search tree with cached cost-to-come.

Vertex ids are list indices, handed out in creation order and never reused,
and the tree is one list per field that the planners index directly:
`states[v]`, `parents[v]` (None for the root) and `costs[v]`, the cached
cost-to-come. Edges live on the child (parent id + edge cost). A private
list holds each vertex's child ids as a tuple in insertion order; a leaf's
entry is the shared empty tuple, so no leaf holds a container of its own. An
attach appends by building the tuple one longer, and a re-parented child
goes last; a detach rebuilds the tuple without the id (a handful of ids
here), so the others keep their order and the last child's leaving leaves
the empty tuple. `children(v)` returns the stored tuple itself: a caller may
iterate it while `rewire` or `remove_subtree` replaces it. Every
parent and child id the tree stores is the vertex's own int, the one
`add_child` returned and `by_state` holds, never a caller's equal copy (RRT*'s
ids arrive fresh from numpy), so a vertex costs one int object. A removed id
reads state None, parent None and cost inf, so a stale id is an unreachable
vertex. `states_matrix()` is the same rule for the neighbour scans: an
append-only (d, n) array whose column v is vertex v's state, and a removed id's
column is all inf, so its squared distance to any state is inf and no radius
query admits it. Cost-to-come is updated by subtree traversal on rewire,
because queue keys read it far more often than rewires write it. `by_state`
maps each live state to its id, so `x in tree.by_state` asks whether x is a
vertex. Only `add_child`, `rewire` and `remove_subtree` write the lists (the
first and last the dict too), and they check their arguments: every method
that takes a vertex id passes it through `_own`, one lookup that refuses an
unknown or removed id and returns the vertex's own id object.
"""

from __future__ import annotations

import math

import numpy as np

from .space import State


class Tree:
    def __init__(self, root_state: State):
        self.root_id = 0
        self.states: list[State | None] = [root_state]
        self.parents: list[int | None] = [None]
        self.costs: list[float] = [0.0]
        self._edge_costs: list[float] = [0.0]  # cost of the edge from the parent
        self._children: list[tuple[int, ...]] = [()]  # child ids, insertion order
        self.by_state: dict[State, int] = {root_state: 0}
        # The states_matrix() store, column-major (d, capacity) as
        # space.sq_dists reads it: column v is vertex v's state.
        self._mat = np.empty((len(root_state), 64))
        self._mat[:, 0] = root_state

    def __len__(self) -> int:
        return len(self.by_state)

    def children(self, vid: int) -> tuple[int, ...]:
        return self._children[self._own(vid)]

    def add_child(self, parent: int, state: State, edge_cost: float) -> int:
        if not 0 <= edge_cost < math.inf:  # NaN fails too
            raise ValueError(f"edge cost must be finite and non-negative, got {edge_cost}")
        parent = self._own(parent)
        if state in self.by_state:
            raise ValueError("state is already a tree vertex")
        if len(state) != self._mat.shape[0]:
            raise ValueError(f"state needs {self._mat.shape[0]} coordinates, got {len(state)}")
        vid = len(self.states)
        if vid == self._mat.shape[1]:
            self._mat = np.hstack((self._mat, np.empty_like(self._mat)))
        # The column first: a state it cannot hold leaves the lists unchanged.
        self._mat[:, vid] = state
        self.states.append(state)
        self.parents.append(parent)
        self.costs.append(self.costs[parent] + edge_cost)
        self._edge_costs.append(edge_cost)
        self._children.append(())
        self._children[parent] += (vid,)
        self.by_state[state] = vid
        return vid

    def rewire(self, child: int, new_parent: int, new_edge_cost: float) -> None:
        """Re-parent `child` and refresh cost-to-come across its subtree.

        The cycle walk also refuses the root as `child`: it climbs from the
        live new parent to the root, so it meets the root whatever it starts
        from.
        """
        if not 0 <= new_edge_cost < math.inf:
            raise ValueError(f"edge cost must be finite and non-negative, got {new_edge_cost}")
        child, new_parent = self._own(child), self._own(new_parent)
        parents, costs, edge_costs, children = (self.parents, self.costs, self._edge_costs,
                                                self._children)
        anc = new_parent
        while anc is not None:
            if anc == child:
                raise ValueError("rewiring under a descendant would create a cycle")
            anc = parents[anc]
        old = parents[child]
        kids = children[old]
        i = kids.index(child)
        children[old] = kids[:i] + kids[i + 1:]
        parents[child] = new_parent
        edge_costs[child] = new_edge_cost
        children[new_parent] += (child,)
        stack = [child]
        while stack:
            cur = stack.pop()
            costs[cur] = costs[parents[cur]] + edge_costs[cur]
            stack += children[cur]

    def remove_subtree(self, vid: int) -> list[tuple[int, State]]:
        """Remove `vid` and all descendants; returns the removed (id, state) pairs."""
        if vid == self.root_id:
            raise ValueError("cannot remove the root")
        vid = self._own(vid)
        parent, children = self.parents[vid], self._children
        kids = children[parent]
        i = kids.index(vid)
        children[parent] = kids[:i] + kids[i + 1:]
        removed: list[tuple[int, State]] = []
        stack = [vid]
        while stack:
            cur = stack.pop()
            state = self.states[cur]
            del self.by_state[state]
            removed.append((cur, state))
            stack += reversed(children[cur])
            self.states[cur] = self.parents[cur] = None
            children[cur] = ()
            self.costs[cur] = math.inf
            self._mat[:, cur] = math.inf
        return removed

    def solution(self, vid: int) -> list[State]:
        """States along the root-to-vid path, both endpoints included."""
        vid = self._own(vid)
        path = []
        while vid is not None:
            path.append(self.states[vid])
            vid = self.parents[vid]
        path.reverse()
        return path

    def states_matrix(self) -> np.ndarray:
        """The (d, len(states)) state array: column v is vertex v's state, inf
        for a removed v, and each row is one contiguous coordinate."""
        return self._mat[:, : len(self.states)]

    def _own(self, vid: int) -> int:
        """The tree's own id object for vid; refuse an unknown or removed id."""
        if 0 <= vid < len(self.states) and (state := self.states[vid]) is not None:
            return self.by_state[state]
        raise ValueError(f"unknown vertex id {vid}")
