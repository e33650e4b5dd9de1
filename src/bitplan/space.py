"""State space primitives: heuristics, informed-set membership, and batch sampling.

States are plain tuples of floats so they can live in sets and dicts. All
cost heuristics are Euclidean and therefore admissible lower bounds on the
true (collision-checked) edge cost. The row-wise numpy forms beside them
(`sq_dists`, `h_hat_rows`) are the one neighbour-scan kernel of BIT* and RRT*.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .world import CountingWorld

State = tuple[float, ...]

# Give up on one sample after this many consecutive rejections.
REJECTION_BUDGET = 100_000


class SamplerStarvedError(RuntimeError):
    """Raised when rejection sampling cannot find an acceptable state."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, closed on all faces."""

    lo: State
    hi: State

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corners must have the same dimension")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must satisfy lo < hi componentwise")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x: State) -> bool:
        return len(x) == self.dim and all(
            l <= a <= h for a, l, h in zip(x, self.lo, self.hi)
        )


@dataclass(frozen=True)
class GoalRegion:
    """Disc-shaped target set: all states within `radius` of `center`."""

    center: State
    radius: float

    def __post_init__(self):
        # Negated comparisons, so that NaN fails them too.
        if not (all(-math.inf < c < math.inf for c in self.center) and 0 < self.radius < math.inf):
            raise ValueError("goal region needs a finite center and a positive finite radius")

    def contains(self, x: State) -> bool:
        return c_hat(x, self.center) <= self.radius


@dataclass(frozen=True)
class ProblemDef:
    """A planning query: start state, goal samples, and goal region, inside world.bounds."""

    root: State
    goal_samples: tuple[State, ...]
    goal_region: GoalRegion

    def __post_init__(self):
        if not self.goal_samples:
            raise ValueError("at least one goal sample is required")

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
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = seed
        self._rng = random.Random(seed)

    def point(self, bounds: Box) -> State:
        """A uniform point of bounds, one coordinate per draw.

        l + (h - l) * random() is what random.Random.uniform evaluates, so the
        stream is bit-identical to calling uniform(l, h) per coordinate.
        """
        r = self._rng.random
        return tuple(l + (h - l) * r() for l, h in zip(bounds.lo, bounds.hi))


def c_hat(x: State, y: State) -> float:
    """Euclidean edge-cost heuristic ||x - y||; a lower bound on true cost."""
    return math.dist(x, y)


def sq_dists(states: np.ndarray, x: State) -> np.ndarray:
    """Squared Euclidean distance from x to every row of the (n, d) array states.

    Bitwise equal to ((states - x) ** 2).sum(axis=1) for d < 8: numpy's reduce
    adds fewer than 8 terms one after another, as the column adds here do, and
    the column adds run about 3x faster on a planar tree. From 8 terms on numpy
    sums in unrolled blocks, and the last bit can differ.
    """
    d = states - np.asarray(x, dtype=float)
    d *= d
    out = d[:, 0].copy()
    for j in range(1, d.shape[1]):
        out += d[:, j]
    return out


def g_hat(x: State, problem: ProblemDef) -> float:
    """Heuristic cost-to-come: straight-line distance from the root."""
    return c_hat(problem.root, x)


def h_hat(x: State, goal_samples: tuple[State, ...]) -> float:
    """Heuristic cost-to-go: distance to the nearest goal sample.

    Defined as a minimum over all goal samples at all times, so it is an
    admissible cost-to-go bound both before and after the first solution.
    """
    if not goal_samples:
        raise ValueError("goal sample set is empty")
    if len(goal_samples) == 1:
        return c_hat(x, goal_samples[0])
    return min(c_hat(x, g) for g in goal_samples)


def h_hat_rows(states: np.ndarray, goal_samples: tuple[State, ...]) -> np.ndarray:
    """h_hat of every row of the (n, d) array states."""
    out = sq_dists(states, goal_samples[0])
    for g in goal_samples[1:]:
        np.minimum(out, sq_dists(states, g), out=out)
    return np.sqrt(out, out=out)


def informed_contains(x: State, problem: ProblemDef, c_sol: float) -> bool:
    """True iff x could lie on a solution shorter than the incumbent.

    Membership is the strict ellipse test g_hat + h_hat < c_sol; with no
    incumbent (c_sol = inf) every state qualifies.
    """
    if math.isinf(c_sol):
        return True
    return c_hat(problem.root, x) + h_hat(x, problem.goal_samples) < c_sol


def sample_batch(m: int, problem: ProblemDef, world: CountingWorld, c_sol: float,
                 rng: RngStream) -> list[State]:
    """Draw m i.i.d. uniform samples of the free space inside the informed set.

    Rejection sampling from the uniform distribution over world.bounds keeps the
    accepted samples exactly uniform on (free space) intersect (informed set).
    The cheap informed-set test runs first, so only draws inside it reach the
    obstacle check. `world` is the metered CountingWorld: every draw costs one
    work unit whichever test rejects it, and the draws the informed test
    rejects are charged with world.tick. Raises SamplerStarvedError if one
    sample exhausts the rejection budget.
    """
    if m < 1:
        raise ValueError("batch size must be at least 1")
    bounds = world.bounds
    out: list[State] = []
    attempts = 0
    uninformed = 0  # draws outside the informed set, charged once per batch
    for _ in range(m):
        for _ in range(REJECTION_BUDGET):
            attempts += 1
            x = rng.point(bounds)
            if not informed_contains(x, problem, c_sol):
                uninformed += 1
            elif world.is_free(x):
                out.append(x)
                break
        else:
            world.tick(uninformed)
            rate = len(out) / attempts
            raise SamplerStarvedError(
                f"no acceptable sample in {REJECTION_BUDGET} consecutive draws "
                f"(acceptance rate estimate {rate:.3g}); the informed set is "
                f"empty or vanishingly small"
            )
    world.tick(uninformed)
    return out
