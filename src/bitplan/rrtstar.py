"""RRT* baseline: sample, steer, choose-parent, rewire.

Shares the tree and the anytime run contract (`anytime.AnytimeRun`: work
clock, stop bounds, best-path snapshot, convergence records) with the BIT*
planner so convergence curves are directly comparable. One iteration draws
one sample; a stop condition's max_batches bounds the iteration count (RRT*
is effectively BIT* with a batch size of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anytime import AnytimeRun, PlanResult, StopCondition
from .space import ProblemDef, RngStream, State, c_hat, sq_dists
from .tree import Tree
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
        # Negated comparisons, so that NaN fails them too.
        if not self.eta > 0:
            raise ValueError("steering length eta must be positive")
        if not self.alpha >= 1:
            raise ValueError("neighbor cap alpha must be at least 1")
        if not self.goal_period >= 1:
            raise ValueError("goal period must be at least 1")


def steer(from_state: State, to_state: State, eta: float) -> State:
    """Move from `from_state` toward `to_state`, at most `eta` meters."""
    if eta <= 0:
        raise ValueError("steering length eta must be positive")
    d = c_hat(from_state, to_state)
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
    run = AnytimeRun(world, stop)
    tree = Tree(problem.root)
    v_sol: set[int] = set()
    goal_state = problem.goal_samples[0]
    if problem.goal_region.contains(problem.root):
        v_sol.add(tree.root_id)
        run.improve(tree, v_sol, 0, 0)

    eta2 = params.eta * params.eta
    iteration = 0
    while not run.should_stop() and not run.batch_limit_reached(iteration):
        iteration += 1

        if iteration % params.goal_period == 0:
            sample = goal_state
        else:
            sample = rng.point(world.bounds)

        # RRT* never removes vertices, so the tree only ever appends to this
        # matrix and never rebuilds it.
        ids, states = tree.states_matrix()
        run.world.tick(len(ids))
        d2 = sq_dists(states, sample)
        nearest = int(np.argmin(d2))
        new_state = steer(tree.state(ids[nearest]), sample, params.eta)
        if new_state == tree.state(ids[nearest]) or tree.has_state(new_state):
            continue

        # The near query is charged even when it reuses the nearest scan (an
        # unsteered sample is its own new state): the clock counts two scans.
        run.world.tick(len(ids))
        # Compare squared distances: steer puts new_state exactly eta from its
        # nearest vertex, and a rounded square root could push that vertex out.
        nd2 = d2 if new_state == sample else sq_dists(states, new_state)
        within = np.flatnonzero(nd2 <= eta2)
        order = within[np.argsort(nd2[within], kind="stable")]
        neighbors = [ids[i] for i in order[: params.alpha]]

        # Choose the parent lazily in ascending cost order: the first
        # collision-free candidate is optimal among the neighbor set (c_hat
        # inlined in the key; equal costs go to the lower id).
        near = [(v, tree.state(v)) for v in neighbors]
        ranked = sorted([(tree.cost_to_come(v) + math.dist(s, new_state), v, s) for v, s in near])
        parent = None
        edge_cost = math.inf
        for _, v, s in ranked:
            cost = run.world.true_cost(s, new_state)
            if math.isfinite(cost):
                parent = v
                edge_cost = cost
                break
        if parent is None:
            continue

        new_id = tree.add_child(parent, new_state, edge_cost)
        if problem.goal_region.contains(new_state):
            v_sol.add(new_id)

        # Costs are re-read: a rewire can lower other neighbors' costs.
        g_new = tree.cost_to_come(new_id)
        for w, s in near:
            if w == parent:
                continue
            if g_new + math.dist(new_state, s) >= tree.cost_to_come(w):
                continue
            cost = run.world.true_cost(new_state, s)
            if g_new + cost < tree.cost_to_come(w):
                tree.rewire(w, new_id, cost)

        if v_sol and min(tree.cost_to_come(v) for v in v_sol) < run.cost:
            run.improve(tree, v_sol, iteration, iteration)

    return run.result(tree, iteration, iteration)
