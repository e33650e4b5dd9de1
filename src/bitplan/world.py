"""Obstacle models, collision checking, and occupancy-grid I/O.

A World answers two questions: is a point free, and what does a straight
edge cost (its Euclidean length if collision-free, +inf otherwise). Edges
are checked at a fixed number of points per meter. Points exactly on an
obstacle boundary count as blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import Box, State, c_hat

# Nominal rate at which a desk machine performs elementary planner work: one
# unit per BIT* sample draw, one per edge-check point and one per candidate
# scanned in a nearest-neighbor search. CountingWorld converts its unit count
# into "planner seconds" at this fixed rate, giving every run a deterministic,
# monotonic clock: identical seeds produce byte-identical convergence output
# no matter the host machine.
WORK_UNITS_PER_SECOND = 250_000.0


class GridLoadError(ValueError):
    """Raised when an occupancy-grid file cannot be parsed or validated."""


@dataclass(frozen=True)
class Circle:
    center: State
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True)
class Rect:
    lo: State
    hi: State

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not all(
            l < h for l, h in zip(self.lo, self.hi)
        ):
            raise ValueError("rectangle must satisfy lo < hi componentwise")


@dataclass(eq=False)
class OccupancyGrid:
    """Row-major boolean grid; cell (row 0, col 0) has its corner at `origin`."""

    width: int
    height: int
    meters_per_cell: float
    origin: State
    blocked: np.ndarray  # shape (height, width), True = blocked

    def __post_init__(self):
        if self.meters_per_cell <= 0:
            raise ValueError("meters_per_cell must be positive")
        if self.blocked.shape != (self.height, self.width):
            raise ValueError("occupancy array shape does not match width/height")

    def extent(self) -> Box:
        ox, oy = self.origin
        return Box(
            (ox, oy),
            (ox + self.width * self.meters_per_cell, oy + self.height * self.meters_per_cell),
        )


class World:
    """Immutable obstacle model over an axis-aligned bounding box.

    Exactly one obstacle representation is active: a list of geometric
    primitives (possibly empty) or one occupancy grid.
    """

    def __init__(self, bounds: Box | None = None, obstacles=None, grid: OccupancyGrid | None = None,
                 checks_per_meter: float = 4.0):
        if checks_per_meter <= 0:
            raise ValueError("checks_per_meter must be positive")
        if grid is not None:
            if obstacles is not None:
                raise ValueError("choose either geometric obstacles or a grid, not both")
            derived = grid.extent()
            # Tolerate rounding: 7 cells of 0.1 m span 0.7000000000000001 m,
            # which a scenario file writes as 0.7.
            tol = 1e-6 * grid.meters_per_cell
            if bounds is not None and any(
                abs(a - b) > tol for a, b in zip(bounds.lo + bounds.hi, derived.lo + derived.hi)
            ):
                raise ValueError(f"bounds must match the grid extent {derived.lo} {derived.hi}")
            bounds = derived
        else:
            if bounds is None:
                raise ValueError("bounds are required for a geometric world")
            obstacles = list(obstacles or [])
        self.bounds = bounds
        self.obstacles = obstacles
        self.grid = grid
        self.checks_per_meter = checks_per_meter
        # Cached arrays for the vectorized hot path.
        self._lo = np.asarray(bounds.lo, dtype=float)
        self._hi = np.asarray(bounds.hi, dtype=float)
        circles = [ob for ob in (obstacles or []) if isinstance(ob, Circle)]
        self._circle_centers = np.asarray([c.center for c in circles], dtype=float)
        self._circle_r2 = np.asarray([c.radius ** 2 for c in circles], dtype=float)
        self._planar_circles = bool(circles) and self._circle_centers.shape[1] == 2
        self._rects = [ob for ob in (obstacles or []) if isinstance(ob, Rect)]

    def is_free(self, x: State) -> bool:
        """Point-freeness: inside bounds and outside every obstacle."""
        if not self.bounds.contains(x):
            return False
        if self.grid is not None:
            return not self._grid_blocked_scalar(x)
        for ob in self.obstacles:
            if isinstance(ob, Circle):
                if sum((a - b) ** 2 for a, b in zip(x, ob.center)) <= ob.radius ** 2:
                    return False
            else:
                if all(l <= a <= h for a, l, h in zip(x, ob.lo, ob.hi)):
                    return False
        return True

    def all_free(self, points: np.ndarray) -> bool:
        """Vectorized is_free over an (n, d) array; True iff every point is free."""
        if ((points < self._lo) | (points > self._hi)).any():
            return False
        if self.grid is not None:
            return not self._grid_blocked_batch(points)
        if len(self._circle_r2):
            if self._planar_circles:
                dx = points[:, 0, None] - self._circle_centers[:, 0]
                dy = points[:, 1, None] - self._circle_centers[:, 1]
                d2 = dx * dx + dy * dy
            else:
                d2 = ((points[:, None, :] - self._circle_centers[None, :, :]) ** 2).sum(axis=2)
            if (d2 <= self._circle_r2).any():
                return False
        for ob in self._rects:
            inside = np.all((points >= np.asarray(ob.lo)) & (points <= np.asarray(ob.hi)), axis=1)
            if inside.any():
                return False
        return True

    def true_cost(self, x: State, y: State) -> float:
        return segment_cost(self, x, y)

    def _grid_blocked_scalar(self, x: State) -> bool:
        g = self.grid
        col = math.floor((x[0] - g.origin[0]) / g.meters_per_cell)
        row = math.floor((x[1] - g.origin[1]) / g.meters_per_cell)
        # Points on the max edge fall past the last half-open cell: blocked.
        if not (0 <= col < g.width and 0 <= row < g.height):
            return True
        return bool(g.blocked[row, col])

    def _grid_blocked_batch(self, points: np.ndarray) -> bool:
        g = self.grid
        cells = np.floor((points - np.asarray(g.origin)) / g.meters_per_cell).astype(int)
        cols, rows = cells[:, 0], cells[:, 1]
        oob = (cols < 0) | (cols >= g.width) | (rows < 0) | (rows >= g.height)
        if np.any(oob):
            return True
        return bool(g.blocked[rows, cols].any())


_T_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _t_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _T_CACHE.get(n)
    if cached is None:
        ts = np.linspace(0.0, 1.0, n)
        cached = _T_CACHE[n] = (ts[:, None], (1.0 - ts)[:, None])
    return cached


def segment_points(x: State, y: State, n: int) -> np.ndarray:
    """n points uniformly spaced along the segment x..y, endpoints included."""
    ts, omt = _t_weights(n)
    return omt * np.asarray(x, dtype=float) + ts * np.asarray(y, dtype=float)


def segment_free(world, x: State, y: State, n: int) -> bool:
    return world.all_free(segment_points(x, y, n))


def segment_cost(world, x: State, y: State) -> float:
    """Length of the straight edge x..y, or +inf when it hits an obstacle.

    The edge is sampled at ceil(length * checks_per_meter) + 1 points so both
    endpoints are always checked and the point set is symmetric under swap.
    """
    d = c_hat(x, y)
    if d == 0.0:
        return 0.0 if world.is_free(x) else math.inf
    n = math.ceil(d * world.checks_per_meter) + 1
    return d if segment_free(world, x, y, n) else math.inf


class CountingWorld:
    """Wraps a world and tallies elementary planner work.

    One unit per BIT* sample draw, per edge-check point and per scanned
    candidate. Point collision checks tick automatically; planners tick
    their neighbor-scan sizes, and the sampler the draws it rejects without
    a collision check, explicitly. The tally doubles as a deterministic
    monotonic clock (see WORK_UNITS_PER_SECOND) used for time budgets and
    convergence timestamps, so equal seeds give byte-identical results.
    """

    def __init__(self, inner: World):
        self.inner = inner
        self.units = 0

    @property
    def bounds(self) -> Box:
        return self.inner.bounds

    @property
    def checks_per_meter(self) -> float:
        return self.inner.checks_per_meter

    def tick(self, n: int) -> None:
        self.units += n

    def elapsed_s(self) -> float:
        return self.units / WORK_UNITS_PER_SECOND

    def is_free(self, x: State) -> bool:
        self.units += 1
        return self.inner.is_free(x)

    def all_free(self, points: np.ndarray) -> bool:
        self.units += len(points)
        return self.inner.all_free(points)

    def true_cost(self, x: State, y: State) -> float:
        return segment_cost(self, x, y)


def load_occupancy_grid(path, meters_per_cell: float, origin: State, threshold: int) -> World:
    """Load a PGM (P2 ASCII or P5 binary) image as an occupancy-grid world.

    Gray values <= threshold are blocked. The grid's world extent is derived
    from its size, `meters_per_cell`, and `origin`.
    """
    if meters_per_cell <= 0:
        raise GridLoadError("meters_per_cell must be positive")
    with open(path, "rb") as fh:
        data = fh.read()

    tokens, pos = _header_tokens(data, 4)
    magic = tokens[0].decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise GridLoadError(f"magic: expected P2 or P5, got {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise GridLoadError("header: width, height, and maxval must be integers") from None
    if width <= 0 or height <= 0:
        raise GridLoadError("size: width and height must be positive")
    if maxval != 255:
        raise GridLoadError(f"maxval: expected 255, got {maxval}")

    n = width * height
    if magic == "P2":
        body = data[pos:].split()
        if len(body) != n:
            raise GridLoadError(f"size: expected {n} pixel values, got {len(body)}")
        try:
            values = np.array([int(t) for t in body], dtype=np.int64)
        except ValueError:
            raise GridLoadError("pixels: non-integer pixel value") from None
    else:
        raw = data[pos:]
        if len(raw) != n:
            raise GridLoadError(f"size: expected {n} pixel bytes, got {len(raw)}")
        values = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if values.min() < 0 or values.max() > 255:
        raise GridLoadError("pixels: value out of range 0..255")

    blocked = (values <= threshold).reshape(height, width)
    grid = OccupancyGrid(width, height, float(meters_per_cell), tuple(origin), blocked)
    return World(grid=grid)


def save_occupancy_grid(grid: OccupancyGrid, path, binary: bool = False) -> None:
    """Write the grid as a PGM image (0 = blocked, 255 = free).

    Loading the file back with threshold 127 reproduces the blocked array.
    """
    values = np.where(grid.blocked, 0, 255).astype(np.uint8)
    header = f"{'P5' if binary else 'P2'}\n{grid.width} {grid.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(values.tobytes())
        else:
            lines = [" ".join(str(v) for v in row) for row in values]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _header_tokens(data: bytes, count: int):
    """First `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one (where a P5 raster begins).
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise GridLoadError("header: truncated file")
        tokens.append(data[start:i])
    if i >= len(data):
        raise GridLoadError("header: missing pixel data")
    return tokens, i + 1
