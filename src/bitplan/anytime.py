"""The anytime run shared by the BIT* and RRT* planners.

An AnytimeRun holds what both planners keep for one run: the tree, the goal
vertices v_sol, the incumbent (its cost c_sol and a copy of its path), the
batch and sample counts and the convergence records. The incumbent rule lives
only in `AnytimeRun.improve`: the cheapest goal vertex, ties to the lowest id,
replaces the incumbent only when it is strictly cheaper. A run meters time on
its own deterministic work clock, one unit per piece of work, charged by
`run.units +=` where that work is done: per BIT* sample draw in
`sample_batch`, per edge-check point in `world.segment_cost` (a metered edge
check is `world.true_cost(x, y, run)`), and per neighbor-scan candidate in
`bitstar.plan` and `rrt_plan`. The clock counts work, not wall time, so
identical seeds replay identical runs byte for byte. It stops on the same
bounds for both planners and records one convergence point per strict cost
improvement plus one at termination, which is what makes the two planners'
convergence curves directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

from .space import ProblemDef, State
from .tree import Tree
from .world import World

# Nominal rate at which a desk machine performs elementary planner work: one
# unit per BIT* sample draw, one per edge-check point and one per candidate
# scanned in a nearest-neighbor search. A run converts its unit count into
# "planner seconds" at this fixed rate, giving every run a deterministic,
# monotonic clock: identical seeds produce byte-identical convergence output
# no matter the host machine.
WORK_UNITS_PER_SECOND = 250_000.0


@dataclass(frozen=True)
class StopCondition:
    """Any-of termination bounds; time_budget_s or max_batches must be set.

    time_budget_s counts planner seconds on the deterministic work clock
    and must be finite (an infinite budget never fires);
    max_batches bounds the number of sampled batches (0 allows only the
    direct root-to-goal attempt). A run's time to its first solution, or to
    any cost, is read from its convergence records.
    """

    time_budget_s: float | None = None
    max_batches: int | None = None

    def __post_init__(self):
        if self.time_budget_s is None and self.max_batches is None:
            raise ValueError("at least one stop bound must be set")
        # Negated comparisons, so that NaN fails them too.
        if self.time_budget_s is not None and not 0 <= self.time_budget_s < math.inf:
            raise ValueError("time budget must be non-negative and finite")
        if self.max_batches is not None and not isinstance(self.max_batches, Integral):
            raise ValueError(f"max_batches must be an integer, got {self.max_batches!r}")
        if self.max_batches is not None and not self.max_batches >= 0:
            raise ValueError("max batches must be non-negative")


class ConvergencePoint(NamedTuple):
    elapsed_s: float
    cost: float
    batch: int
    tree_vertices: int
    samples_drawn: int


@dataclass
class PlanResult:
    """Best path found (None if none), its cost, and the improvement trace."""

    path: list[State] | None
    cost: float
    convergence: list[ConvergencePoint]


class AnytimeRun:
    """One planner run: the tree, the goal vertices, the incumbent and the clock.

    `world` is the scenario's world, which the run never copies or writes;
    the planners check an edge against it with `world.true_cost(x, y, run)`.
    `units` is the work clock's tally (see WORK_UNITS_PER_SECOND), and
    `elapsed_s` reads it. On an occupancy grid, `probe` is the last blocked
    point an edge check found, which the next check tests first: an edge
    check that fails usually fails on the same thin wall as the one before,
    about 9 points into bisection order on a one-cell wall. A geometric
    world's checks stop after about 1.5 points already, so there `probe` is
    None.
    `is_solution` is the one rule that makes a state a solution (it lies in
    the goal region), and only `add_vertex` and the root check apply it.
    `v_sol` holds the tree's solution vertices; a pruned id stays in it and
    reads cost inf, so it never becomes the incumbent. `c_sol` is the
    incumbent cost and `path` its path, copied out of the tree when it
    improves, so a later prune of its endpoint cannot lose it. `batch` counts
    batches (RRT*: iterations) and `samples_drawn` the samples they drew.
    A root that is a solution is the incumbent from the start.
    """

    def __init__(self, problem: ProblemDef, world: World, stop: StopCondition):
        self.world = world
        self.units = 0
        self.probe = None if world.grid is None else []
        self.stop = stop
        self.tree = Tree(problem.root)
        self.v_sol: set[int] = set()
        self.c_sol = math.inf
        self.path: list[State] | None = None
        self.records: list[ConvergencePoint] = []
        self.batch = 0
        self.samples_drawn = 0
        self.is_solution = problem.goal_region.contains
        if self.is_solution(problem.root):
            self.v_sol.add(self.tree.root_id)
            self.improve()

    def elapsed_s(self) -> float:
        return self.units / WORK_UNITS_PER_SECOND

    def add_vertex(self, parent: int, state: State, edge_cost: float) -> int:
        """Add state to the tree under parent; a solution joins v_sol. Returns its id."""
        vid = self.tree.add_child(parent, state, edge_cost)
        if self.is_solution(state):
            self.v_sol.add(vid)
        return vid

    def should_stop(self) -> bool:
        """True once the time budget, if any, is spent on the work clock."""
        budget = self.stop.time_budget_s
        return budget is not None and self.elapsed_s() >= budget

    def batch_limit_reached(self) -> bool:
        """True once max_batches batches (RRT*: iterations) have run."""
        return self.stop.max_batches is not None and self.batch >= self.stop.max_batches

    def improve(self) -> None:
        """Make the cheapest goal vertex the incumbent if it is strictly cheaper.

        c_sol is a running minimum: a prune may evict the goal vertex that
        achieved it, and the remaining ones must not push it back up. Ties on
        cost go to the lowest vertex id. Each improvement adds a record.
        """
        costs = self.tree.costs
        # Costs first: the (cost, id) tie-break runs only on an improvement.
        if min(map(costs.__getitem__, self.v_sol), default=math.inf) < self.c_sol:
            best = min(self.v_sol, key=lambda v: (costs[v], v))
            self.c_sol = costs[best]
            self.path = self.tree.solution(best)
            self.records.append(self._record())

    def _record(self) -> ConvergencePoint:
        return ConvergencePoint(self.elapsed_s(), self.c_sol, self.batch, len(self.tree),
                                self.samples_drawn)

    def result(self) -> PlanResult:
        """Close the trace with a termination record and return the best path."""
        final = self._record()
        if not self.records or self.records[-1].elapsed_s != final.elapsed_s:
            self.records.append(final)
        return PlanResult(path=self.path, cost=self.c_sol, convergence=self.records)
