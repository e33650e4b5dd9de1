"""RRT* baseline: sample, steer, choose-parent, rewire.

Runs on the same run state as the BIT* planner (`anytime.AnytimeRun`: the
tree, the goal vertices, the incumbent, the work clock, the stop bounds and
the convergence records), so convergence curves are directly comparable. One
iteration draws one sample and counts as one batch, so a stop condition's
max_batches bounds the iteration count (RRT* is effectively BIT* with a batch
size of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .anytime import AnytimeRun, PlanResult, StopCondition
from .space import ProblemDef, RngStream, State, sq_dists
from .world import World


@dataclass(frozen=True)
class RrtParams:
    """Steering length eta, neighbor cap alpha, and goal-bias period.

    Every goal_period-th sample is the first goal sample instead of a uniform
    draw, which is what lets the tree actually hit a measure-zero goal.
    """

    eta: float
    alpha: int
    goal_period: int

    def __post_init__(self):
        for name in ("alpha", "goal_period"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # Negated comparisons, so that NaN fails them too.
        if not self.eta > 0:
            raise ValueError("steering length eta must be positive")
        if not self.alpha >= 1:
            raise ValueError("neighbor cap alpha must be at least 1")
        if not self.goal_period >= 1:
            raise ValueError("goal period must be at least 1")


def steer(from_state: State, to_state: State, eta: float) -> State:
    """Move from `from_state` toward `to_state`, at most `eta` meters."""
    if not eta > 0:  # NaN fails too
        raise ValueError("steering length eta must be positive")
    d = math.dist(from_state, to_state)
    if d <= eta:
        return to_state
    f = eta / d
    return tuple(a + f * (b - a) for a, b in zip(from_state, to_state))


def rrt_plan(problem: ProblemDef, world: World, params: RrtParams, stop: StopCondition,
             rng: RngStream) -> PlanResult:
    """Run RRT* until `stop` fires; no-path is a value, not an error.

    Parent choice scans the alpha nearest neighbors within eta in ascending
    cost-to-come-through order and takes the first collision-free edge; the
    same neighbors are then rewired through the new vertex when that strictly
    improves them. Vertex ids double as insertion order, so all tie-breaking
    is deterministic under a fixed seed.
    """
    run = AnytimeRun(problem, world, stop)
    tree = run.tree
    states, costs = tree.states, tree.costs
    goal_state = problem.goal_samples[0]
    eta2 = params.eta * params.eta
    while not run.should_stop() and not run.batch_limit_reached():
        run.batch = run.samples_drawn = run.batch + 1
        if run.batch % params.goal_period == 0:
            sample = goal_state
        else:
            sample = rng.point(world.bounds)

        cols = tree.states_matrix()
        run.units += len(states)  # len(tree): RRT* never removes a vertex
        d2 = sq_dists(cols, sample)
        nearest_state = states[d2.argmin()]
        new_state = steer(nearest_state, sample, params.eta)
        if new_state in tree.by_state:
            continue

        # The near query is charged even when it reuses the nearest scan (an
        # unsteered sample is its own new state): the clock counts two scans.
        run.units += len(states)
        # Compare squared distances: steer puts new_state exactly eta from its
        # nearest vertex, and a rounded square root could push that vertex out.
        nd2 = d2 if new_state == sample else sq_dists(cols, new_state)
        within = (nd2 <= eta2).nonzero()[0]
        order = within[nd2[within].argsort(kind="stable")]
        # (id, state, c_hat to new_state) per neighbor, nearest first.
        near = [(v, states[v], math.dist(states[v], new_state))
                for v in order[: params.alpha].tolist()]

        # Choose the parent lazily in ascending cost order: the first
        # collision-free candidate is optimal among the neighbor set (equal
        # costs go to the lower id).
        ranked = sorted([(costs[v] + d, v, s) for v, s, d in near])
        parent = None
        edge_cost = math.inf
        for _, v, s in ranked:
            cost = world.true_cost(s, new_state, run)
            if math.isfinite(cost):
                parent = v
                edge_cost = cost
                break
        if parent is None:
            continue

        new_id = run.add_vertex(parent, new_state, edge_cost)

        # Costs are re-read: a rewire can lower other neighbors' costs.
        # math.dist takes fabs(p - q) per coordinate, so d is bitwise the
        # distance from new_state back to s.
        g_new = costs[new_id]
        for w, s, d in near:
            if w == parent:
                continue
            if g_new + d >= costs[w]:
                continue
            cost = world.true_cost(new_state, s, run)
            if g_new + cost < costs[w]:
                tree.rewire(w, new_id, cost)

        # Last: the rewire checks above charge the clock, and the record
        # carries the time at the end of the iteration.
        run.improve()
    return run.result()
