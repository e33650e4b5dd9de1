"""Obstacle models, collision checking, and occupancy-grid I/O.

A planar World answers two questions with one point test: is a point free,
and what does a straight edge cost (its Euclidean length if collision-free,
+inf otherwise). Edges are checked at a fixed number of points per meter.
Points exactly on an obstacle boundary count as blocked.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .space import Box, State


class GridLoadError(ValueError):
    """Raised when an occupancy-grid file cannot be parsed or validated."""


@dataclass(frozen=True)
class Circle:
    """A closed disc: an obstacle of a World, or a ProblemDef's goal region."""

    center: State
    radius: float

    def __post_init__(self):
        if not (len(self.center) == 2 and all(-math.inf < c < math.inf for c in self.center)
                and 0 < self.radius < math.inf):
            raise ValueError("circle needs a finite 2-D center and a positive finite radius")

    def contains(self, x: State) -> bool:
        """The goal rule: x is within radius of center, by math.dist.

        A World tests its obstacle circles with its own squared-distance
        kernel, `World.all_free`, which may disagree with this by an ulp on
        the boundary.
        """
        return math.dist(x, self.center) <= self.radius


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

    Exactly one obstacle representation is active: a list of 2-D Circles and
    Boxes (possibly empty) or one occupancy grid. `all_free` is the one
    kernel: it computes and tests the points of a segment in one loop, so a
    point costs no Python call or object of its own, and `is_free` tests a
    point as the one-point segment x..x. Nothing writes a World after
    construction; per-run state (the work clock, a grid's probe) lives on
    the run, an `anytime.AnytimeRun`, which `true_cost` takes to meter an
    edge check.
    """

    def __init__(self, bounds: Box | None = None, obstacles=None, grid: OccupancyGrid | None = None,
                 checks_per_meter: float = 4.0):
        if not 0 < checks_per_meter < math.inf:
            raise ValueError("checks_per_meter must be positive and finite")
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
        # No edge between two points of the bounds is longer than their
        # diagonal, however math.dist rounds; segment_cost refuses longer ones
        # and counts the points of the rest, so that count must be finite.
        self._max_edge = 2.0 * math.dist(bounds.lo, bounds.hi)
        if not math.isfinite(self._max_edge * checks_per_meter):
            raise ValueError("the bounds' diagonal times checks_per_meter must be finite")
        # Plain floats, so that `all_free` compares IEEE doubles as float64 arrays did.
        self._box = tuple(float(v) for v in bounds.lo + bounds.hi)
        self._circles, self._rects = [], []
        for ob in obstacles or []:
            if isinstance(ob, Circle):
                self._circles.append((float(ob.center[0]), float(ob.center[1]), float(ob.radius ** 2)))
            elif isinstance(ob, Box):
                self._rects.append(tuple(float(v) for v in ob.lo + ob.hi))
            else:
                raise ValueError(f"obstacles must be Circles or Boxes, got {ob!r}")
        # The grid as plain numbers and one flat C-order byte per cell (1 =
        # blocked), read once, whatever dtype and memory order grid.blocked
        # has: indexing bytes is cheaper than indexing a numpy array, and a
        # 400 x 400 map takes 160 kB, far less than nested lists would.
        self._grid = None if grid is None else (
            float(grid.origin[0]), float(grid.origin[1]), float(grid.meters_per_cell),
            int(grid.width), int(grid.height),
            np.ascontiguousarray(grid.blocked, dtype=bool).tobytes())

    def all_free(self, weights, x: State, y: State, probe=None) -> bool:
        """True iff every point o * x + t * y of the edge x..y is free, for
        the weight pairs (o, t) of `weights` in order (an edge check passes
        `_t_weights(n)`, bisection order): each point must be inside the
        closed bounds, outside every closed circle and rectangle, or in a
        free half-open grid cell (so the grid's max edge is blocked). Stops
        at the first blocked point. NaN fails every comparison, so it is
        blocked.

        On a grid, a `probe` list holding the last blocked point [a, b] puts
        the segment point nearest it (projection, clamped) first, and each
        blocked point that is inside the bounds replaces it. Order never
        changes the verdict; it only meets a wall crossed before sooner.
        """
        (x0, x1), (y0, y1) = x, y
        bx0, by0, bx1, by1 = self._box
        circles, rects, g = self._circles, self._rects, self._grid
        if g is not None:
            ox, oy, mpc, width, height, blocked = g
            if probe:
                n = len(weights)
                dx, dy = y0 - x0, y1 - x1
                l2 = dx * dx + dy * dy
                # A NaN, infinite or zero-length segment gives t = 0 or NaN,
                # either of which picks the point x.
                t = ((probe[0] - x0) * dx + (probe[1] - x1) * dy) / l2 if 0.0 < l2 < math.inf else 0.0
                i = n - 1 if t >= 1.0 else round(t * (n - 1)) if t > 0.0 else 0
                weights = chain((_plain_weights(n)[i],), weights)
        for o, t in weights:
            a = o * x0 + t * y0
            b = o * x1 + t * y1
            if not (bx0 <= a <= bx1 and by0 <= b <= by1):
                return False
            if g is not None:
                col = math.floor((a - ox) / mpc)
                row = math.floor((b - oy) / mpc)
                if not (0 <= col < width and 0 <= row < height) or blocked[row * width + col]:
                    if probe is not None:
                        probe[:] = a, b
                    return False
                continue
            for cx, cy, r2 in circles:
                dx = a - cx
                dy = b - cy
                if dx * dx + dy * dy <= r2:
                    return False
            for lx, ly, hx, hy in rects:
                if lx <= a <= hx and ly <= b <= hy:
                    return False
        return True

    # is_free's own name for the kernel, bound once here: a wrapper set on
    # World.all_free from outside (perfbench's tracer, a test's counter)
    # then sees edge checks only, never a point test.
    _free_run = all_free

    def is_free(self, x: State) -> bool:
        """Point-freeness: a 2-D point inside bounds and outside every obstacle."""
        # 1.0 * a + 0.0 * a is a itself when finite, and NaN (blocked) when not.
        return len(x) == 2 and self._free_run(((1.0, 0.0),), x, x)

    def true_cost(self, x: State, y: State, run=None) -> float:
        return segment_cost(self, x, y, run)


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
def _plain_weights(n: int) -> tuple[tuple[float, float], ...]:
    """The (1 - t, t) weights of n points spaced evenly on [0, 1], in order of t."""
    ts = np.linspace(0.0, 1.0, n)
    return tuple(zip((1.0 - ts).tolist(), ts.tolist()))


@cache
def _t_weights(n: int) -> tuple[tuple[float, float], ...]:
    """The n points spaced evenly along a segment x..y, endpoints included,
    as weight pairs: point (o, t) is o * x + t * y, the IEEE operations of
    numpy's (1 - ts) * x + ts * y. `_plain_weights(n)` in `_bisection_order`."""
    plain = _plain_weights(n)
    return tuple(plain[i] for i in _bisection_order(n))


def segment_cost(world, x: State, y: State, run=None) -> float:
    """Length of the straight edge x..y, or +inf when it hits an obstacle.

    The edge is sampled at ceil(length * checks_per_meter) + 1 points so both
    endpoints are always checked and the point set is symmetric under swap.
    A length that is NaN, infinite or over twice the bounds' diagonal is
    +inf at once: no points are built and no work is charged.

    Given the planner run (an `anytime.AnytimeRun`), the check is metered:
    it adds its point count to `run.units`, also for the points its early
    exit never examines, and tests with the run's grid `probe`. Without
    one it charges nothing and reads no probe.
    """
    d = math.dist(x, y)  # the edge heuristic c_hat
    if not d <= world._max_edge:  # NaN fails too
        return math.inf
    n = math.ceil(d * world.checks_per_meter) + 1
    probe = None if run is None else run.probe
    if run is not None:
        run.units += n
    return d if world.all_free(_t_weights(n), x, y, probe) else math.inf


def load_occupancy_grid(path, meters_per_cell: float, origin: State, threshold: int) -> World:
    """Load a PGM (P2 ASCII or P5 binary) image as an occupancy-grid world.

    Gray values <= threshold are blocked, for a threshold in 0..255. The
    grid's world extent is derived from its size, `meters_per_cell`, and
    `origin`. A P2 raster is tokens of the form [+-]?[0-9]+ separated by
    ASCII whitespace (no digit-group underscores); it is checked and
    converted as one byte array, without a Python object per pixel.
    """
    if not 0 < meters_per_cell < math.inf:
        raise GridLoadError("meters_per_cell must be positive and finite")
    if not 0 <= threshold <= 255:
        raise GridLoadError(f"threshold: must be in 0..255, got {threshold}")
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
        values = _p2_values(np.frombuffer(data, np.uint8, offset=pos), n)
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


def save_occupancy_grid(grid: OccupancyGrid, path) -> None:
    """Write the grid as a P2 (ASCII) PGM image (0 = blocked, 255 = free).

    The raster has one text line per grid row, its values separated by
    single spaces. Loading the file back with threshold 127 reproduces the
    blocked array.
    """
    values = np.where(grid.blocked, np.uint8(0), np.uint8(255))
    with open(path, "wb") as fh:
        fh.write(f"P2\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        np.savetxt(fh, values, fmt="%d")


# A P2 raster byte's class: whitespace as bytes.split() sees it, digit,
# sign, or anything else.
_SPACE, _DIGIT, _SIGN, _OTHER = range(4)
_P2_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_P2_CLASS[list(b" \t\n\r\v\f")] = _SPACE
_P2_CLASS[list(b"0123456789")] = _DIGIT
_P2_CLASS[list(b"+-")] = _SIGN


def _p2_values(raster: np.ndarray, n: int) -> np.ndarray:
    """The n values of a P2 raster's bytes, as int64, read without splitting.

    Raises GridLoadError unless the raster holds exactly n tokens, each
    matching [+-]?[0-9]+. A value past int64 saturates, so the caller's range
    check still reports it.
    """
    cls = _P2_CLASS[raster]
    space = cls == _SPACE
    start = ~space  # a token starts at a non-space byte after a space
    start[1:] &= space[:-1]
    count = int(np.count_nonzero(start))
    if count != n:
        raise GridLoadError(f"size: expected {n} pixel values, got {count}")
    # A sign must open its token and be followed by a digit; a sign that
    # ends the raster reads itself as its successor.
    signs = np.flatnonzero(cls == _SIGN)
    after = cls[np.minimum(signs + 1, cls.size - 1)]
    if cls.max() == _OTHER or not start[signs].all() or (after != _DIGIT).any():
        raise GridLoadError("pixels: non-integer pixel value")
    del cls, space, start  # three bytes per raster byte, freed before the int64 array
    return np.fromstring(raster, dtype=np.int64, sep=" ")


# A PGM header is tokens separated by gaps of ASCII whitespace and # comments
# (each running to the end of its line); a # inside a token is part of it.
_HEADER_GAP = re.compile(rb"(?:\s|#[^\n]*)*")
_HEADER_TOKEN = re.compile(rb"\S+")


def _header_tokens(data: bytes, count: int):
    """First `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one (where a P5 raster begins).
    """
    tokens, pos = [], 0
    for _ in range(count):
        token = _HEADER_TOKEN.match(data, _HEADER_GAP.match(data, pos).end())
        if token is None:
            raise GridLoadError("header: truncated file")
        tokens.append(token[0])
        pos = token.end()
    if pos >= len(data):
        raise GridLoadError("header: missing pixel data")
    return tokens, pos + 1
