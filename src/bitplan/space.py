"""State space primitives: heuristics, informed-set membership, and batch sampling.

States are plain tuples of floats so they can live in sets and dicts. All
cost heuristics are Euclidean and therefore admissible lower bounds on the
true (collision-checked) edge cost. The paper's edge heuristic c_hat(x, y) and
cost-to-come heuristic g_hat(x) are `math.dist(x, y)` and `math.dist(root, x)`,
called directly. The numpy forms beside them (`sq_dists`, `h_hat_rows`), over
column-major (d, n) state matrices, are the one neighbour-scan kernel of BIT*
and RRT*.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .anytime import AnytimeRun
    from .world import Circle

State = tuple[float, ...]

# Give up on one sample after this many consecutive rejections.
REJECTION_BUDGET = 100_000


class SamplerStarvedError(RuntimeError):
    """Raised when rejection sampling cannot find an acceptable state."""


@dataclass(frozen=True)
class Box:
    """Planar axis-aligned box, closed on all faces."""

    lo: State
    hi: State

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == 2 and all(l < h for l, h in zip(self.lo, self.hi))):
            raise ValueError("box needs 2-D corners with lo < hi componentwise")

    def contains(self, x: State) -> bool:
        # ProblemDef refuses a non-planar state before this runs; the length
        # check stays because Box.contains is public.
        return len(x) == 2 and all(
            l <= a <= h for a, l, h in zip(x, self.lo, self.hi)
        )


@dataclass(frozen=True)
class ProblemDef:
    """A planning query: start state, goal samples, and goal region, inside world.bounds."""

    root: State
    goal_samples: tuple[State, ...]
    goal_region: Circle

    def __post_init__(self):
        if not self.goal_samples:
            raise ValueError("at least one goal sample is required")
        if any(len(x) != 2 for x in (self.root, *self.goal_samples)):
            raise ValueError("the root and every goal sample must be 2-D states")

    def validate(self, world) -> None:
        """Check start/goal placement against world bounds, obstacles, and the region."""
        if not world.bounds.contains(self.root):
            raise ValueError("root lies outside the planning bounds")
        if not world.is_free(self.root):
            raise ValueError("root lies inside an obstacle")
        for g in self.goal_samples:
            if not world.bounds.contains(g):
                raise ValueError("goal sample lies outside the planning bounds")
            if not world.is_free(g):
                raise ValueError("goal sample lies inside an obstacle")
            if not self.goal_region.contains(g):
                raise ValueError("goal sample lies outside the goal region")


class RngStream:
    """Seeded random stream; one stream per planner run keeps runs reproducible.

    The same seed always yields the same sample sequence (bit-exact on one
    build), which is what makes whole benchmark runs byte-reproducible.
    """

    def __init__(self, seed: int):
        if not (isinstance(seed, Integral) and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self._rng = random.Random(seed)
        self._random = self._rng.random

    def point(self, bounds: Box) -> State:
        """A uniform point of the planar box bounds, x drawn before y.

        l + (h - l) * random() is what random.Random.uniform evaluates, so the
        stream is bit-identical to calling uniform(l, h) per coordinate.
        """
        (l0, l1), (h0, h1) = bounds.lo, bounds.hi
        r = self._random
        return (l0 + (h0 - l0) * r(), l1 + (h1 - l1) * r())


def sq_dists(cols: np.ndarray, x: State) -> np.ndarray:
    """Squared Euclidean distance from x to every column of the (d, n) array cols.

    Each row of cols holds one coordinate of every state, contiguous, so each
    step is one pass over contiguous memory. The squared differences are
    added in coordinate order for every d, so each entry is bitwise what a
    scalar loop over that state's coordinates computes.
    """
    out = cols[0] - x[0]
    out *= out
    for j in range(1, len(cols)):
        d = cols[j] - x[j]
        d *= d
        out += d
    return out


def h_hat(x: State, goal_samples: tuple[State, ...]) -> float:
    """Heuristic cost-to-go: distance to the nearest goal sample.

    Defined as a minimum over all goal samples at all times, so it is an
    admissible cost-to-go bound both before and after the first solution.
    BIT* keys the root, requeues every tree vertex at a new batch and
    prunes with this form, not h_hat_rows: it is math.dist, the metric
    world.segment_cost prices edges with, so on a one-goal problem the
    incumbent goal's parent keys at exactly c_sol and stays. h_hat_rows may
    differ from it by an ulp; it keys sample rows and rewiring edges, and a
    vertex that an edge connects within a batch is queued at g + h_x, its
    sample row's h_hat_rows value, until the next batch requeues it.
    """
    if not goal_samples:
        raise ValueError("goal sample set is empty")
    return min(math.dist(x, g) for g in goal_samples)


def h_hat_rows(cols: np.ndarray, goal_samples: tuple[State, ...]) -> np.ndarray:
    """h_hat of every column of the (d, n) array cols (see sq_dists)."""
    out = sq_dists(cols, goal_samples[0])
    for g in goal_samples[1:]:
        np.minimum(out, sq_dists(cols, g), out=out)
    return np.sqrt(out, out=out)


def informed_test(problem: ProblemDef, c_sol: float) -> Callable[[State], bool]:
    """The informed-set test for one incumbent cost, as a function of x.

    x passes iff it could lie on a solution shorter than c_sol: the strict
    ellipse test g_hat + h_hat < c_sol, with h_hat the distance to the
    nearest goal sample. With no incumbent (c_sol = inf) every state passes.
    The root, the goal samples and c_sol are bound once, so a caller that
    tests many states (a batch of draws, the samples `prune` visits) pays
    for none of the lookups per state.
    """
    if math.isinf(c_sol):
        return lambda x: True
    dist = math.dist
    root = problem.root
    goals = problem.goal_samples
    if len(goals) == 1:
        (goal,) = goals
        return lambda x: dist(root, x) + dist(x, goal) < c_sol
    return lambda x: dist(root, x) + h_hat(x, goals) < c_sol


def informed_box(problem: ProblemDef, c_sol: float) -> tuple[float, float, float, float]:
    """(lo0, lo1, hi0, hi1): an axis-aligned box holding every state that
    informed_test(problem, c_sol) accepts; infinite when c_sol is.

    A state that passes lies within c_sol of the root and of its nearest goal
    sample, so the box is the root's box root +- c' intersected with the
    bounding box of all the goal samples' boxes (not their intersection,
    which loses states near the farther goals). c' = c_sol * (1 + 1e-9)
    covers math.dist's rounding; float rounding is monotone, so the margin
    survives the box arithmetic.
    """
    c = c_sol * (1 + 1e-9)
    (r0, r1), (g0, g1) = problem.root, zip(*problem.goal_samples)
    return (max(r0, min(g0)) - c, max(r1, min(g1)) - c, min(r0, max(g0)) + c, min(r1, max(g1)) + c)


def sample_batch(m: int, problem: ProblemDef, run: AnytimeRun, rng: RngStream) -> list[State]:
    """Draw m i.i.d. uniform samples of the free space inside the run's informed set.

    Rejection sampling from the uniform distribution over world.bounds keeps the
    accepted samples exactly uniform on (free space) intersect (informed set),
    for the run's world and its incumbent cost run.c_sol.
    Each draw is one rng.point(world.bounds) call, and the only Python call
    most draws make: a draw outside informed_box is rejected inline, one
    inside it meets the exact informed_test, and only a draw that passes
    both reaches world.is_free. Every draw costs one work unit whichever
    test ends it: the batch adds all its draws to run.units at once, also
    when it starves. Raises SamplerStarvedError if one sample exhausts the
    rejection budget (REJECTION_BUDGET, read when the batch starts).
    """
    if m < 1:
        raise ValueError("batch size must be at least 1")
    world = run.world
    bounds, point, is_free = world.bounds, rng.point, world.is_free
    informed = informed_test(problem, run.c_sol)
    lo0, lo1, hi0, hi1 = informed_box(problem, run.c_sol)
    budget = REJECTION_BUDGET
    out: list[State] = []
    attempts = 0
    for _ in range(m):
        for k in range(budget):
            x = point(bounds)
            if lo0 <= x[0] <= hi0 and lo1 <= x[1] <= hi1 and informed(x) and is_free(x):
                out.append(x)
                attempts += k + 1
                break
        else:
            attempts += budget
            run.units += attempts
            raise SamplerStarvedError(
                f"no acceptable sample in {budget} consecutive draws "
                f"(acceptance rate estimate {len(out) / attempts:.3g}); the informed set is "
                f"empty or vanishingly small"
            )
    run.units += attempts
    return out
