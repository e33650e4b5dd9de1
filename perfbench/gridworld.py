"""Seeded occupancy-grid world for the `grid-informed-bitstar` workload.

The map is 400 x 400 cells at 0.1 m per cell (40 x 40 m). Root and goal sit
4 m apart on an axis-aligned line through a cell centre, with a wall 0.3 m
long and one cell thick across the middle, so the straight line is blocked
and the optimum skirts a wall end. Random rectangles fill the rest of the
map but keep a clear disc around the query. After the first solution the
informed ellipse covers a few 1e-4 of the map, which makes rejection
sampling over the whole bounds box the dominant cost.

Everything is a pure function of the seed: the same seed writes the same
PGM and .scn bytes.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from bitplan.world import OccupancyGrid, save_occupancy_grid

CELLS = 400
METERS_PER_CELL = 0.1
SIZE_M = CELLS * METERS_PER_CELL
HALF_SPAN_M = 2.0  # root and goal are 4 m apart
WALL_HALF_CELLS = 1  # wall covers 2 * 1 + 1 = 3 cells = 0.3 m across the line
CLEAR_RADIUS_M = 3.5  # no random rectangle comes this close to the midpoint
RECTANGLES = 40
GOAL_RADIUS_M = 0.3
REJECTION_BUDGET = 100_000  # draws bitplan's sample_batch allows one sample (space.py)

SCENARIO = """\
# Generated by perfbench/gridworld.py from seed {seed}.
name = grid-informed-{seed}

[world]
bounds = 0 0 {size} {size}
checks_per_meter = 10

[grid]
file = {pgm}
meters_per_cell = {mpc}
origin = 0 0
threshold = 127

[problem]
root = {root[0]!r} {root[1]!r}
goal_center = {goal[0]!r} {goal[1]!r}
goal_radius = {goal_radius}

[bitstar]
batch_size = 50
rho = 100

[rrtstar]
eta = 2
alpha = 20
goal_period = 50

[stop]
max_batches = 10
"""


class GridWorld:
    """A generated map: blocked cells plus the query placed on it."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        blocked = np.zeros((CELLS, CELLS), dtype=bool)
        margin = int((CLEAR_RADIUS_M + 1.0) / METERS_PER_CELL)
        mid_col = rng.randrange(margin, CELLS - margin)
        mid_row = rng.randrange(margin, CELLS - margin)
        self.along_x = rng.random() < 0.5
        mid = ((mid_col + 0.5) * METERS_PER_CELL, (mid_row + 0.5) * METERS_PER_CELL)
        axis = (1.0, 0.0) if self.along_x else (0.0, 1.0)
        self.root = (mid[0] - HALF_SPAN_M * axis[0], mid[1] - HALF_SPAN_M * axis[1])
        self.goal = (mid[0] + HALF_SPAN_M * axis[0], mid[1] + HALF_SPAN_M * axis[1])

        placed = 0
        while placed < RECTANGLES:
            w = rng.randint(5, 40)
            h = rng.randint(5, 40)
            c0 = rng.randrange(0, CELLS - w)
            r0 = rng.randrange(0, CELLS - h)
            # Nearest point of the rectangle to the midpoint, in meters.
            nx = min(max(mid[0], c0 * METERS_PER_CELL), (c0 + w) * METERS_PER_CELL)
            ny = min(max(mid[1], r0 * METERS_PER_CELL), (r0 + h) * METERS_PER_CELL)
            if math.hypot(nx - mid[0], ny - mid[1]) <= CLEAR_RADIUS_M:
                continue
            blocked[r0:r0 + h, c0:c0 + w] = True
            placed += 1

        if self.along_x:  # wall spans rows across the x-axis line
            blocked[mid_row - WALL_HALF_CELLS:mid_row + WALL_HALF_CELLS + 1, mid_col] = True
        else:
            blocked[mid_row, mid_col - WALL_HALF_CELLS:mid_col + WALL_HALF_CELLS + 1] = True
        self.blocked = blocked
        self.seed = seed

    def detour_cost(self) -> float:
        """Length of the shortest root-goal path around the wall, in meters."""
        half_wall = (WALL_HALF_CELLS + 0.5) * METERS_PER_CELL
        half_thick = 0.5 * METERS_PER_CELL
        return 2.0 * math.hypot(HALF_SPAN_M - half_thick, half_wall) + 2.0 * half_thick

    def informed_free_fraction(self, cost: float, step: float = 0.01) -> float:
        """Share of the bounds box that is free and inside g_hat + h_hat < cost.

        This is the acceptance probability of one rejection-sampling draw
        once the incumbent has reached `cost`, estimated on a lattice.
        """
        mid = np.add(self.root, self.goal) / 2.0
        a = cost / 2.0
        xs = np.arange(mid[0] - a, mid[0] + a, step) + step / 2.0
        ys = np.arange(mid[1] - a, mid[1] + a, step) + step / 2.0
        px, py = np.meshgrid(xs, ys)
        inside = (np.hypot(px - self.root[0], py - self.root[1])
                  + np.hypot(px - self.goal[0], py - self.goal[1])) < cost
        cols = np.floor(px / METERS_PER_CELL).astype(int)
        rows = np.floor(py / METERS_PER_CELL).astype(int)
        free = ~self.blocked[rows, cols]
        return float((inside & free).sum()) * step * step / (SIZE_M * SIZE_M)

    def check_not_starved(self) -> float:
        """Fail unless a sample at the optimum is very unlikely to starve.

        The informed set never shrinks below its size at the optimal cost, so
        the acceptance rate there bounds every draw from below. Returns that
        rate.
        """
        p = self.informed_free_fraction(self.detour_cost())
        exponent = REJECTION_BUDGET * p  # P(starve one sample) ~ exp(-exponent)
        if exponent < 30.0:
            raise RuntimeError(
                f"grid seed {self.seed}: acceptance at the optimum is {p:.3g}; "
                f"starvation odds exp(-{exponent:.1f}) are too high")
        return p

    def write(self, directory: Path) -> Path:
        """Write map.pgm and the .scn file into `directory`; return the .scn path."""
        directory.mkdir(parents=True, exist_ok=True)
        pgm = directory / "map.pgm"
        grid = OccupancyGrid(CELLS, CELLS, METERS_PER_CELL, (0.0, 0.0), self.blocked)
        save_occupancy_grid(grid, pgm)  # ASCII P2, as a hand-made map would be
        scn = directory / "grid.scn"
        scn.write_text(SCENARIO.format(
            seed=self.seed, size=f"{SIZE_M:g}", pgm=pgm.name, mpc=METERS_PER_CELL,
            root=self.root, goal=self.goal, goal_radius=GOAL_RADIUS_M), encoding="ascii")
        return scn
