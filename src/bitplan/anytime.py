"""The anytime run contract shared by the BIT* and RRT* planners.

A run meters time on the deterministic work clock of CountingWorld (one unit
per BIT* sample draw, edge-check point or neighbor-scan candidate), so
identical seeds replay identical runs byte for byte. It stops on the same
bounds for both planners, keeps the best path as a snapshot, and records one
convergence point per strict cost improvement plus one at termination, which
is what makes the two planners' convergence curves directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .space import State
from .tree import Tree
from .world import CountingWorld, World


@dataclass(frozen=True)
class StopCondition:
    """Any-of termination bounds; at least one must be set.

    time_budget_s counts planner seconds on the deterministic work clock;
    max_batches bounds the number of sampled batches (0 allows only the
    direct root-to-goal attempt); target_cost stops at the first solution
    at or below the target.
    """

    time_budget_s: float | None = None
    max_batches: int | None = None
    target_cost: float | None = None

    def __post_init__(self):
        if self.time_budget_s is None and self.max_batches is None and self.target_cost is None:
            raise ValueError("at least one stop bound must be set")
        # Negated comparisons, so that NaN fails them too.
        if self.time_budget_s is not None and not self.time_budget_s >= 0:
            raise ValueError("time budget must be non-negative")
        if self.max_batches is not None and not self.max_batches >= 0:
            raise ValueError("max batches must be non-negative")
        if self.target_cost is not None and math.isnan(self.target_cost):
            raise ValueError("target cost must not be NaN")


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
    """One planner run: work clock, stop tests, best-path snapshot, records.

    `world` is the metered world the planner must check edges against. The
    best path is copied out of the tree when it improves, so a later prune
    of its endpoint cannot lose it.
    """

    def __init__(self, world: World, stop: StopCondition):
        self.world = CountingWorld(world)
        self.stop = stop
        self.path: list[State] | None = None
        self.cost = math.inf
        self.records: list[ConvergencePoint] = []

    def should_stop(self) -> bool:
        """True once the time budget is spent or the target cost is reached."""
        stop = self.stop
        if stop.time_budget_s is not None and self.world.elapsed_s() >= stop.time_budget_s:
            return True
        return stop.target_cost is not None and self.cost <= stop.target_cost

    def batch_limit_reached(self, batch: int) -> bool:
        """True once `batch` batches (RRT*: iterations) have run."""
        return self.stop.max_batches is not None and batch >= self.stop.max_batches

    def improve(self, tree: Tree, v_sol, batch: int, samples_drawn: int) -> None:
        """Snapshot the cheapest goal vertex in v_sol as the new best path.

        Callers invoke it only when that vertex is strictly cheaper than the
        current best; ties on cost go to the lowest vertex id.
        """
        best = min(v_sol, key=lambda v: (tree.cost_to_come(v), v))
        self.cost = tree.cost_to_come(best)
        self.path = tree.solution(best)
        self.records.append(
            ConvergencePoint(self.world.elapsed_s(), self.cost, batch, len(tree), samples_drawn)
        )

    def result(self, tree: Tree, batch: int, samples_drawn: int) -> PlanResult:
        """Close the trace with a termination record and return the best path."""
        final = ConvergencePoint(self.world.elapsed_s(), self.cost, batch, len(tree), samples_drawn)
        if not self.records or self.records[-1].elapsed_s != final.elapsed_s:
            self.records.append(final)
        return PlanResult(path=self.path, cost=self.cost, convergence=self.records)
