from __future__ import annotations

import math
import random

import numpy as np
import pytest

from bitplan import (
    Box,
    Circle,
    GridLoadError,
    OccupancyGrid,
    Rect,
    World,
    c_hat,
    load_occupancy_grid,
    save_occupancy_grid,
)
from bitplan.world import _bisection_order, segment_points
from conftest import make_demo_world


def _point_segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def test_is_free_examples(demo_world):
    assert not demo_world.is_free((0.0, 0.0))  # circle center
    assert demo_world.is_free((0.0, -8.0))
    assert not demo_world.is_free((11.0, 0.0))  # outside bounds


def test_obstacle_boundaries_are_blocked(demo_world):
    assert not demo_world.is_free((1.5, 0.0))  # exactly on the circle
    assert demo_world.is_free((1.5000001, 0.0))
    w = World(Box((-10.0, -10.0), (10.0, 10.0)), [Rect((0.0, 0.0), (1.0, 1.0))])
    assert not w.is_free((1.0, 1.0))
    assert w.is_free((1.0001, 1.0))


def test_true_cost_examples(demo_world):
    assert demo_world.true_cost((0.0, -8.0), (0.0, 8.0)) == math.inf
    assert demo_world.true_cost((-3.0, -3.0), (-3.0, 4.0)) == 7.0
    assert demo_world.true_cost((2.0, -5.0), (2.0, -5.0)) == 0.0
    assert demo_world.true_cost((0.0, 0.0), (0.0, 0.0)) == math.inf  # blocked endpoint


def test_true_cost_segment_clearance_oracle(demo_world):
    # The x = -3 vertical segment clears every circle by the point-segment
    # distance oracle, so its cost must equal its length.
    a, b = (-3.0, -3.0), (-3.0, 4.0)
    for ob in demo_world.obstacles:
        assert _point_segment_distance(ob.center, a, b) > ob.radius
    assert demo_world.true_cost(a, b) == c_hat(a, b)


def test_true_cost_symmetric_random(demo_world):
    rng = random.Random(11)
    for _ in range(300):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert demo_world.true_cost(a, b) == demo_world.true_cost(b, a)


def test_true_cost_is_length_or_inf(demo_world):
    rng = random.Random(13)
    for _ in range(300):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        cost = demo_world.true_cost(a, b)
        assert cost == c_hat(a, b) or cost == math.inf


def test_nested_refinement(demo_world):
    # With nested check-point sets (n and 2n-1 points), freeness at the finer
    # resolution implies freeness at the coarser one.
    rng = random.Random(17)
    for _ in range(300):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        n = math.ceil(c_hat(a, b) * 4.0) + 1
        if n < 2:
            continue
        if demo_world.all_free(segment_points(a, b, 2 * n - 1)):
            assert demo_world.all_free(segment_points(a, b, n))


def test_world_requires_exactly_one_representation():
    grid = OccupancyGrid(2, 2, 1.0, (0.0, 0.0), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        World(Box((0.0, 0.0), (2.0, 2.0)), obstacles=[], grid=grid)
    with pytest.raises(ValueError):
        World()


def test_pgm_p2_example(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n0 255 255 0\n")
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert bool(w.grid.blocked[0, 0]) and bool(w.grid.blocked[1, 1])
    assert not w.grid.blocked[0, 1] and not w.grid.blocked[1, 0]
    assert not w.is_free((0.5, 0.5))
    assert w.is_free((1.5, 0.5))
    assert w.is_free((0.5, 1.5))
    assert not w.is_free((1.5, 1.5))


def test_pgm_all_free(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n# a comment\n3 2\n255\n" + " ".join(["255"] * 6) + "\n")
    w = load_occupancy_grid(f, 0.5, (-1.0, -1.0), 127)
    rng = random.Random(5)
    for _ in range(100):
        x = (rng.uniform(-1, 0.4999), rng.uniform(-1, -0.0001))
        assert w.is_free(x)


def test_pgm_grid_max_edge_out_of_bounds(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n255 255 255 255\n")
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert not w.is_free((2.0, 1.0))  # on the max edge
    assert not w.is_free((1.0, 2.0))
    assert w.is_free((1.999999, 1.0))


def test_pgm_size_mismatch(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n0 255 255\n")
    with pytest.raises(GridLoadError, match="size"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)


def test_pgm_bad_header(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P3\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(GridLoadError, match="magic"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    f.write_text("P2\n2 2\n15\n0 0 0 0\n")
    with pytest.raises(GridLoadError, match="maxval"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    f.write_text("P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(GridLoadError, match="meters_per_cell"):
        load_occupancy_grid(f, 0.0, (0.0, 0.0), 127)


def test_pgm_p5_binary(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert bool(w.grid.blocked[0, 0]) and bool(w.grid.blocked[1, 1])


@pytest.mark.parametrize("binary", [False, True])
def test_grid_round_trip(tmp_path, binary):
    rng = np.random.default_rng(21)
    blocked = rng.random((7, 5)) < 0.4
    grid = OccupancyGrid(5, 7, 0.25, (1.0, -2.0), blocked)
    f = tmp_path / "g.pgm"
    save_occupancy_grid(grid, f, binary=binary)
    w = load_occupancy_grid(f, 0.25, (1.0, -2.0), 127)
    assert np.array_equal(w.grid.blocked, blocked)


def test_grid_world_bounds_derived(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n4 2\n255\n" + " ".join(["255"] * 8) + "\n")
    w = load_occupancy_grid(f, 0.5, (1.0, 2.0), 127)
    assert w.bounds.lo == (1.0, 2.0)
    assert w.bounds.hi == (3.0, 3.0)


def test_counting_world_tracks_work(demo_world):
    from bitplan import CountingWorld

    cw = CountingWorld(demo_world)
    cw.is_free((0.0, -8.0))
    assert cw.units == 1
    cost = cw.true_cost((0.0, -8.0), (0.0, -4.0))
    assert cost == 4.0
    assert cw.units == 1 + (math.ceil(4.0 * 4.0) + 1)
    cw.tick(10)
    assert cw.units == 28
    assert cw.elapsed_s() == 28 / 250_000.0


def _agreement_worlds():
    circles = make_demo_world()
    rects = World(Box((0.0, 0.0), (10.0, 10.0)), [Rect((2.0, 2.0), (4.0, 5.0)),
                                                  Rect((6.0, 1.0), (8.0, 3.0))])
    blocked = np.zeros((6, 8), dtype=bool)
    blocked[1, 2] = blocked[3, 3:6] = blocked[5, 7] = True
    grid = World(grid=OccupancyGrid(8, 6, 0.5, (1.0, -2.0), blocked))
    rim = [(1.5 * math.cos(a) + cx, 1.5 * math.sin(a)) for cx in (0.0, -7.0, 7.0)
           for a in np.linspace(0.0, 2.0 * math.pi, 17)]
    rim += [(1.5, 0.0), (-1.5, 0.0), (0.0, 1.5), (0.0, -1.5), (-5.5, 0.0), (8.5, 0.0)]
    faces = [(x, y) for x in (2.0, 3.0, 4.0, 6.0, 7.0, 8.0) for y in (1.0, 2.0, 3.0, 3.5, 5.0)]
    edges = [(1.0 + 0.5 * i, -2.0 + 0.5 * j) for i in range(9) for j in range(7)]
    edges += [(3.0, 0.25), (4.25, -0.5), (4.99, 0.99), (5.0, 1.0), (2.0, 1.0 + 1e-12)]
    return [(circles, rim), (rects, faces), (grid, edges)]


@pytest.mark.parametrize("which", range(3), ids=["circles", "rects", "grid"])
def test_is_free_agrees_with_all_free(which):
    world, boundary = _agreement_worlds()[which]
    lo, hi = world.bounds.lo, world.bounds.hi
    # The bounds faces, corners and a hair beyond them.
    xs = (lo[0] - 1e-9, lo[0], (lo[0] + hi[0]) / 2, hi[0], hi[0] + 1e-9)
    ys = (lo[1] - 1e-9, lo[1], (lo[1] + hi[1]) / 2, hi[1], hi[1] + 1e-9)
    rng = random.Random(17 + which)
    randoms = [(rng.uniform(lo[0] - 1, hi[0] + 1), rng.uniform(lo[1] - 1, hi[1] + 1))
               for _ in range(1000)]
    nans = [(math.nan, ys[2]), (xs[2], math.nan), (math.nan, math.nan)]
    points = boundary + [(x, y) for x in xs for y in ys] + randoms + nans
    verdicts = {world.is_free(p) for p in boundary}
    assert verdicts == {True, False}  # the boundary set straddles free and blocked
    assert not any(world.is_free(p) for p in nans)
    for p in points:
        assert world.is_free(p) == world.all_free(np.asarray([p])), p


def _reference_points(a, b, n):
    """The float64 array `segment_points` built before its points were lazy."""
    ts = np.linspace(0.0, 1.0, n)
    return (1 - ts)[:, None] * np.asarray(a, dtype=float) + ts[:, None] * np.asarray(b, dtype=float)


def _reference_all_free(world, a, b, n):
    """The numpy edge test `World.all_free` ran before the per-point kernel,
    on the reference array of the segment a..b at n points."""
    points = _reference_points(a, b, n)
    lo, hi = np.asarray(world.bounds.lo, dtype=float), np.asarray(world.bounds.hi, dtype=float)
    if ((points < lo) | (points > hi)).any():
        return False
    g = world.grid
    if g is not None:
        cells = np.floor((points - np.asarray(g.origin)) / g.meters_per_cell).astype(int)
        cols, rows = cells[:, 0], cells[:, 1]
        if ((cols < 0) | (cols >= g.width) | (rows < 0) | (rows >= g.height)).any():
            return False
        return not g.blocked[rows, cols].any()
    circles = [ob for ob in world.obstacles if isinstance(ob, Circle)]
    if circles:
        centers = np.asarray([c.center for c in circles], dtype=float)
        r2 = np.asarray([c.radius ** 2 for c in circles], dtype=float)
        dx = points[:, 0, None] - centers[:, 0]
        dy = points[:, 1, None] - centers[:, 1]
        if (dx * dx + dy * dy <= r2).any():
            return False
    for ob in world.obstacles:
        if isinstance(ob, Rect) and np.all((points >= np.asarray(ob.lo)) & (points <= np.asarray(ob.hi)),
                                           axis=1).any():
            return False
    return True


def _boundary_segments(world):
    """Segments that graze obstacle boundaries: tangent to each circle, along
    each rectangle face, or along the grid's cell edges."""
    if world.grid is not None:
        g = world.grid
        (x0, y0), (x1, y1) = world.bounds.lo, world.bounds.hi
        xs = [g.origin[0] + g.meters_per_cell * i for i in range(g.width + 1)]
        ys = [g.origin[1] + g.meters_per_cell * j for j in range(g.height + 1)]
        return [((x, y0), (x, y1)) for x in xs] + [((x0, y), (x1, y)) for y in ys]
    segments = []
    for ob in world.obstacles:
        if isinstance(ob, Circle):
            (cx, cy), r = ob.center, ob.radius
            for s in (-r, r):
                segments += [((cx - 3.0, cy + s), (cx + 3.0, cy + s)),
                             ((cx + s, cy - 3.0), (cx + s, cy + 3.0))]
        else:
            (lx, ly), (hx, hy) = ob.lo, ob.hi
            for y in (ly, hy):
                segments.append(((lx - 1.0, y), (hx + 1.0, y)))
            for x in (lx, hx):
                segments.append(((x, ly - 1.0), (x, hy + 1.0)))
    return segments


@pytest.mark.parametrize("which", range(3), ids=["circles", "rects", "grid"])
def test_all_free_matches_the_numpy_reference_on_segments(which):
    world, _ = _agreement_worlds()[which]
    lo, hi = world.bounds.lo, world.bounds.hi
    rng = random.Random(31 + which)
    segments = _boundary_segments(world) + [
        tuple((rng.uniform(lo[0] - 1, hi[0] + 1), rng.uniform(lo[1] - 1, hi[1] + 1)) for _ in "ab")
        for _ in range(300)
    ]
    verdicts = set()
    for n in (1, 2, 3, 26, 200):
        for a, b in segments:
            points = segment_points(a, b, n)
            rows = np.array([points[i] for i in range(n)], dtype=float)
            assert rows.tobytes() == _reference_points(a, b, n).tobytes(), (a, b, n)  # bitwise
            verdict = world.all_free(points)
            assert verdict == _reference_all_free(world, a, b, n), (a, b, n)
            assert verdict == world.all_free(rows), (a, b, n)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    grazing = {_reference_all_free(world, a, b, 3) for a, b in _boundary_segments(world)}
    assert False in grazing  # midpoints on a tangent, face or cell edge are blocked


def test_segment_points_is_a_read_only_sequence():
    a, b = (1.0, -2.0), (-3.5, 4.25)
    points = segment_points(a, b, 5)
    assert len(points) == 5
    assert points[0] == a and points[-1] == b and points[2] == (-1.25, 1.125)
    assert [points[i] for i in range(-5, 0)] == [points[i] for i in range(5)] == list(points)
    assert list(reversed(points)) == list(points)[::-1]
    for i in (5, -6):
        with pytest.raises(IndexError):
            points[i]
    with pytest.raises(TypeError):
        points[0] = a
    assert len(segment_points(a, b, 1)) == 1 and segment_points(a, b, 1)[0] == a


def test_bisection_order_is_a_permutation():
    for n in range(1, 301):
        order = _bisection_order(n)
        assert sorted(order) == list(range(n)), n
    assert _bisection_order(9) == (4, 2, 6, 1, 3, 5, 7, 0, 8)


@pytest.mark.parametrize("make", [
    lambda: World(Box((0.0, 0.0, 0.0), (10.0, 10.0, 10.0)), []),
    lambda: World(Box((0.0,), (10.0,)), []),
    lambda: World(Box((0.0, 0.0), (10.0, 10.0)), [Circle((5.0, 5.0, 5.0), 1.0)]),
    lambda: World(Box((0.0, 0.0), (10.0, 10.0)), [Rect((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))]),
], ids=["3-D bounds", "1-D bounds", "3-D circle", "3-D rect"])
def test_world_is_planar(make):
    with pytest.raises(ValueError, match="2-D"):
        make()


_FREE_2X2 = np.zeros((2, 2), dtype=bool)


@pytest.mark.parametrize("make", [
    lambda: Circle((0.0, 0.0), math.nan),
    lambda: Circle((0.0, 0.0), math.inf),
    lambda: Circle((math.nan, 0.0), 1.0),
    lambda: Circle((0.0, -math.inf), 1.0),
    lambda: World(Box((0.0, 0.0), (1.0, 1.0)), [], checks_per_meter=math.nan),
    lambda: World(Box((0.0, 0.0), (1.0, 1.0)), [], checks_per_meter=math.inf),
    lambda: OccupancyGrid(2, 2, math.nan, (0.0, 0.0), _FREE_2X2),
    lambda: OccupancyGrid(2, 2, math.inf, (0.0, 0.0), _FREE_2X2),
    lambda: OccupancyGrid(2, 2, 1.0, (math.nan, 0.0), _FREE_2X2),
    lambda: OccupancyGrid(2, 2, 1.0, (0.0, math.inf), _FREE_2X2),
], ids=["radius nan", "radius inf", "center nan", "center -inf", "checks_per_meter nan",
        "checks_per_meter inf", "meters_per_cell nan", "meters_per_cell inf", "origin nan",
        "origin inf"])
def test_world_types_reject_non_finite_numbers(make):
    with pytest.raises(ValueError):
        make()


def test_pgm_load_rejects_non_finite_cell_size(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n0 0 0 0\n")
    for mpc in (math.nan, math.inf):
        with pytest.raises(GridLoadError, match="meters_per_cell"):
            load_occupancy_grid(f, mpc, (0.0, 0.0), 127)
