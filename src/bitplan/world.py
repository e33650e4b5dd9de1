"""Obstacle models, collision checking, and occupancy-grid I/O.

A planar World answers two questions with one point test: is a point free,
and what does a straight edge cost (its Euclidean length if collision-free,
+inf otherwise). Edges are checked at a fixed number of points per meter.
Points exactly on an obstacle boundary count as blocked.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

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
        if not (all(-math.inf < c < math.inf for c in self.center) and 0 < self.radius < math.inf):
            raise ValueError("circle needs a finite center and a positive finite radius")


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
        if not (0 < self.meters_per_cell < math.inf and len(self.origin) == 2
                and all(-math.inf < o < math.inf for o in self.origin)):
            raise ValueError("meters_per_cell must be positive and finite, origin a finite 2-D point")
        if self.blocked.shape != (self.height, self.width):
            raise ValueError("occupancy array shape does not match width/height")

    def extent(self) -> Box:
        ox, oy = self.origin
        return Box(
            (ox, oy),
            (ox + self.width * self.meters_per_cell, oy + self.height * self.meters_per_cell),
        )


class World:
    """Immutable planar obstacle model over a 2-D axis-aligned bounding box.

    Exactly one obstacle representation is active: a list of 2-D circles and
    rectangles (possibly empty) or one occupancy grid.
    """

    def __init__(self, bounds: Box | None = None, obstacles=None, grid: OccupancyGrid | None = None,
                 checks_per_meter: float = 4.0):
        if not 0 < checks_per_meter < math.inf:
            raise ValueError("checks_per_meter must be positive and finite")
        if bounds is not None and bounds.dim != 2:
            raise ValueError("world bounds must be 2-D")
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
        # Plain floats, so that `_free` compares IEEE doubles as float64 arrays did.
        self._box = tuple(float(v) for v in bounds.lo + bounds.hi)
        self._circles, self._rects = [], []
        for ob in obstacles or []:
            if isinstance(ob, Circle) and len(ob.center) == 2:
                self._circles.append((float(ob.center[0]), float(ob.center[1]), float(ob.radius ** 2)))
            elif isinstance(ob, Rect) and len(ob.lo) == 2:
                self._rects.append(tuple(float(v) for v in ob.lo + ob.hi))
            else:
                raise ValueError(f"obstacles must be 2-D circles or rectangles, got {ob!r}")

    def _free(self, x) -> bool:
        """The one point test: inside the closed bounds, outside every closed
        circle and rectangle, or in a free half-open grid cell (so the grid's
        max edge is blocked). NaN fails every comparison, so it is blocked."""
        a, b = x
        x0, y0, x1, y1 = self._box
        if not (x0 <= a <= x1 and y0 <= b <= y1):
            return False
        g = self.grid
        if g is not None:
            col = math.floor((a - g.origin[0]) / g.meters_per_cell)
            row = math.floor((b - g.origin[1]) / g.meters_per_cell)
            return 0 <= col < g.width and 0 <= row < g.height and not g.blocked[row, col]
        for cx, cy, r2 in self._circles:
            dx = a - cx
            dy = b - cy
            if dx * dx + dy * dy <= r2:
                return False
        for lx, ly, hx, hy in self._rects:
            if lx <= a <= hx and ly <= b <= hy:
                return False
        return True

    def is_free(self, x: State) -> bool:
        """Point-freeness: a 2-D point inside bounds and outside every obstacle."""
        return len(x) == 2 and self._free(x)

    def all_free(self, points: Sequence[State]) -> bool:
        """True iff every point of a sequence (or row of an (n, 2) array) is free.

        Points are indexed in `_bisection_order` up to the first blocked one:
        any order gives the same verdict, and along a segment it meets a
        blocked run early.
        """
        free = self._free
        for i in _bisection_order(len(points)):
            if not free(points[i]):
                return False
        return True

    def true_cost(self, x: State, y: State) -> float:
        return segment_cost(self, x, y)


@cache
def _bisection_order(n: int) -> tuple[int, ...]:
    """range(n) as bisection visits it: the midpoint, then the quarter points,
    and so on, level by level; the two endpoints, usually a tree vertex and a
    sample already found free, come last."""
    order, spans = [], [(0, n - 1)]
    for lo, hi in spans:  # spans grows while it is read: breadth first
        mid = (lo + hi) // 2
        if lo < mid:
            order.append(mid)
            spans += (lo, mid), (mid, hi)
    return tuple(order) + ((0, n - 1) if n > 1 else tuple(range(n)))


@cache
def _t_weights(n: int) -> tuple[tuple[float, float], ...]:
    ts = np.linspace(0.0, 1.0, n)
    return tuple(zip((1.0 - ts).tolist(), ts.tolist()))


class _SegmentPoints(Sequence):
    """`segment_points`, each point computed only when an edge check indexes it."""

    __slots__ = ("_x", "_y", "_w")

    def __init__(self, x: State, y: State, n: int):
        self._x, self._y, self._w = x, y, _t_weights(n)

    def __len__(self) -> int:
        return len(self._w)

    def __getitem__(self, i: int) -> State:
        o, t = self._w[i]
        (x0, x1), (y0, y1) = self._x, self._y
        return (o * x0 + t * y0, o * x1 + t * y1)  # numpy's (1 - ts) * x + ts * y, bitwise


def segment_points(x: State, y: State, n: int) -> Sequence[State]:
    """n points uniformly spaced along the segment x..y, endpoints included."""
    return _SegmentPoints(x, y, n)


def segment_cost(world, x: State, y: State) -> float:
    """Length of the straight edge x..y, or +inf when it hits an obstacle.

    The edge is sampled at ceil(length * checks_per_meter) + 1 points so both
    endpoints are always checked and the point set is symmetric under swap.
    """
    d = c_hat(x, y)
    if d == 0.0:
        return 0.0 if world.is_free(x) else math.inf
    n = math.ceil(d * world.checks_per_meter) + 1
    return d if world.all_free(segment_points(x, y, n)) else math.inf


class CountingWorld:
    """Wraps a world and tallies elementary planner work.

    One unit per BIT* sample draw, per edge-check point and per scanned
    candidate. Point collision checks tick automatically (`all_free` charges
    every point, also those its early exit never examines); planners tick
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

    def all_free(self, points: Sequence[State]) -> bool:
        self.units += len(points)
        return self.inner.all_free(points)

    def true_cost(self, x: State, y: State) -> float:
        return segment_cost(self, x, y)


def load_occupancy_grid(path, meters_per_cell: float, origin: State, threshold: int) -> World:
    """Load a PGM (P2 ASCII or P5 binary) image as an occupancy-grid world.

    Gray values <= threshold are blocked. The grid's world extent is derived
    from its size, `meters_per_cell`, and `origin`.
    """
    if not 0 < meters_per_cell < math.inf:
        raise GridLoadError("meters_per_cell must be positive and finite")
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
