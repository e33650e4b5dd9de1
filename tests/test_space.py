from __future__ import annotations

import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

import bitplan.space as space
from bitplan import Box, Circle, ProblemDef, RngStream, SamplerStarvedError, World
from bitplan.space import h_hat, h_hat_rows, informed_box, informed_test, sample_batch, sq_dists
from bitplan.world import OccupancyGrid
from conftest import DEMO_BOUNDS, make_demo_problem, make_demo_world, make_run


# The paper's edge heuristic c_hat(x, y) is math.dist(x, y), and its
# cost-to-come heuristic g_hat(x) is math.dist(root, x): the planners call
# math.dist directly, and these tests pin the properties they rely on.
def test_c_hat_examples():
    assert math.dist((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert math.dist((1.0, 1.0), (1.0, 1.0)) == 0.0
    assert math.dist((0.0, -8.0), (0.0, 8.0)) == 16.0


def test_c_hat_symmetric_and_dimension_checked():
    assert math.dist((1.0, 2.0), (4.0, 6.0)) == math.dist((4.0, 6.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        math.dist((0.0, 0.0), (1.0, 2.0, 3.0))


def test_c_hat_higher_dimensions():
    assert math.dist((0.0, 0.0, 0.0), (1.0, 2.0, 2.0)) == 3.0


def test_g_hat_examples():
    p = make_demo_problem()
    assert math.dist(p.root, (0.0, -8.0)) == 0.0
    assert math.dist(p.root, (0.0, 8.0)) == 16.0
    p2 = ProblemDef((0.0, 0.0), ((3.0, 4.0),), Circle((3.0, 4.0), 0.5))
    assert math.dist(p2.root, (3.0, 4.0)) == 5.0


def test_h_hat_examples():
    assert h_hat((0.0, 8.0), ((0.0, 8.0),)) == 0.0
    assert h_hat((0.0, -8.0), ((0.0, 8.0),)) == 16.0
    assert h_hat((0.0, 0.0), ((0.0, 8.0), (8.0, 0.0))) == 8.0
    with pytest.raises(ValueError):
        h_hat((0.0, 0.0), ())


def test_h_hat_rows_matches_scalar_heuristic():
    rng = random.Random(21)
    pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(200)]
    for goals in [((1.0, 2.0),), ((1.0, 2.0), (-3.0, 4.0), (0.0, -9.0))]:
        vec = h_hat_rows(np.asarray(pts).T, goals)
        for p, hv in zip(pts, vec):
            assert abs(hv - h_hat(p, goals)) < 1e-12


def _reference_sq_dists(states, x):
    return ((states - np.asarray(x, dtype=float)) ** 2).sum(axis=1)


def _reference_in_order(states, x):
    """Square the (n, d) differences, then add the columns one after another."""
    d = states - np.asarray(x, dtype=float)
    d *= d
    out = d[:, 0].copy()
    for j in range(1, d.shape[1]):
        out += d[:, j]
    return out


def _references(dim):
    """Row-major references that add each row in order: the column loop for
    any d, and numpy's reduce, which sums 8 or more terms in unrolled blocks."""
    return (_reference_in_order, _reference_sq_dists) if dim < 8 else (_reference_in_order,)


def _kernel_inputs(dim, rng):
    """0, 1 and 1000 rows at magnitudes from 1e-300 to 1e300, then rows with inf and NaN."""
    yield np.empty((0, dim))
    for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
        yield rng.uniform(-scale, scale, (1, dim))
        yield rng.uniform(-scale, scale, (1000, dim))
    mixed = rng.uniform(-1, 1, (1000, dim)) * 10.0 ** rng.integers(-300, 301, (1000, dim))
    mixed[::7, 0] = np.inf
    mixed[3::11, -1] = -np.inf
    mixed[5::13, 0] = np.nan
    yield mixed


def test_sq_dists_is_bitwise_the_reference():
    # sq_dists reads the (d, n) transpose of the row-major reference's input.
    rng = np.random.default_rng(17)
    with np.errstate(all="ignore"):  # squares of 1e300 overflow to inf
        for dim in (1, 2, 3, 8, 9):
            for states in _kernel_inputs(dim, rng):
                cols = np.ascontiguousarray(states.T)
                for x in (np.zeros(dim), rng.uniform(-1e3, 1e3, dim),
                          np.full(dim, 1e300), np.full(dim, np.inf)):
                    got = sq_dists(cols, tuple(x))
                    for reference in _references(dim):
                        want = reference(states, tuple(x))
                        assert got.shape == want.shape == (len(states),)
                        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_h_hat_rows_is_bitwise_the_per_goal_minimum():
    rng = np.random.default_rng(23)
    with np.errstate(all="ignore"):
        for dim in (1, 2, 3, 8, 9):
            pts = rng.uniform(-10, 10, (3, dim))
            goals = tuple(tuple(row) for row in (pts[0], -pts[0], pts[1], pts[2]))
            for states in _kernel_inputs(dim, rng):
                # The origin is exactly as far from goals[0] as from goals[1]: a tie.
                states = np.vstack([states, np.zeros(dim)])
                cols = np.ascontiguousarray(states.T)
                for k, reference in itertools.product((1, 2, 4), _references(dim)):
                    want = np.sqrt(np.minimum.reduce(
                        [reference(states, g) for g in goals[:k]]))
                    got = h_hat_rows(cols, goals[:k])
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_h_hat_is_math_dist_to_one_goal_and_the_minimum_over_several():
    rng = random.Random(29)
    goals = tuple((rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4))
    for _ in range(300):
        x = (rng.uniform(-12, 12), rng.uniform(-12, 12))
        dists = [math.dist(x, g) for g in goals]
        assert [h_hat(x, (g,)).hex() for g in goals] == [d.hex() for d in dists]
        for k in (2, 3, 4):
            assert h_hat(x, goals[:k]).hex() == min(dists[:k]).hex()


def test_heuristics_vanish_at_their_anchors():
    p = make_demo_problem()
    assert math.dist(p.root, p.root) == 0.0
    for g in p.goal_samples:
        assert h_hat(g, p.goal_samples) == 0.0


def test_triangle_inequality_random_triples():
    rng = random.Random(7)
    for _ in range(500):
        x, y, z = (
            (rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
        )
        assert math.dist(x, z) <= math.dist(x, y) + math.dist(y, z) + 1e-12


def test_informed_test_examples():
    p = make_demo_problem()
    assert informed_test(p, 20.0)((0.0, 0.0))
    assert not informed_test(p, 20.0)((6.0, 0.0))  # 10 + 10 on the boundary
    assert informed_test(p, math.inf)((9.9, 9.9))


def _ellipse_extremes(root, goal, c):
    """The four axis-extreme points of {x : |x - root| + |x - goal| = c}."""
    d = math.dist(root, goal)
    a = c / 2
    b = math.sqrt(max(a * a - d * d / 4, 0.0))
    m = ((root[0] + goal[0]) / 2, (root[1] + goal[1]) / 2)
    u = ((goal[0] - root[0]) / d, (goal[1] - root[1]) / d)
    v = (-u[1], u[0])
    out = []
    for k in (0, 1):
        reach = math.hypot(a * u[k], b * v[k])
        for s in (1.0, -1.0):
            out.append(tuple(m[j] + s * (a * a * u[k] * u[j] + b * b * v[k] * v[j]) / reach
                             for j in (0, 1)))
    return out


def _nudged(x):
    """x, and x moved by one ulp (math.nextafter) in each direction of each coordinate."""
    steps = [lambda t: t, lambda t: math.nextafter(t, -math.inf), lambda t: math.nextafter(t, math.inf)]
    return [(f(x[0]), g(x[1])) for f in steps for g in steps]


def test_informed_box_holds_every_state_the_informed_test_accepts():
    rng = random.Random(61)
    accepted = 0
    for case in range(300):
        root = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        r, theta = rng.uniform(0.01, 15), rng.uniform(0, 2 * math.pi)
        goals = [(root[0] + r * math.cos(theta), root[1] + r * math.sin(theta))]
        if case % 3:  # a goal on the opposite side of the root, then maybe one anywhere
            r2 = rng.uniform(0.01, 15)
            goals.append((root[0] - r2 * math.cos(theta), root[1] - r2 * math.sin(theta)))
        if case % 3 == 2:
            goals.append((rng.uniform(-10, 10), rng.uniform(-10, 10)))
        p = ProblemDef(root, tuple(goals), Circle(goals[0], 1.0))
        d = min(math.dist(root, g) for g in goals)
        for c in (d, math.nextafter(d, math.inf), d * (1 + 1e-12), d * (1 + 1e-6), d * 1.01,
                  d * 1.5, d * 3):
            test = informed_test(p, c)
            lo0, lo1, hi0, hi1 = informed_box(p, c)
            points = [x for g in goals for e in _ellipse_extremes(root, g, c) for x in _nudged(e)]
            points += [(rng.uniform(lo0 - 1, hi0 + 1), rng.uniform(lo1 - 1, hi1 + 1))
                       for _ in range(20)]
            for x in points:
                if test(x):
                    accepted += 1
                    assert lo0 <= x[0] <= hi0 and lo1 <= x[1] <= hi1, (root, goals, c, x)
    assert accepted > 10_000
    assert informed_box(make_demo_problem(), math.inf) == (-math.inf, -math.inf, math.inf, math.inf)


def test_informed_box_covers_the_farther_goal():
    # Goals on opposite sides of the root, 16 m apart: c_sol = 9 leaves each
    # goal's ellipse outside the other goal's box, so the box must span both.
    p = ProblemDef((0.0, 6.0), ((-8.0, 8.0), (8.0, 8.0)), Circle((0.0, 8.0), 8.5))
    lo0, lo1, hi0, hi1 = informed_box(p, 9.0)
    assert lo0 < -8.0 and hi0 > 8.0 and lo1 < 6.0 and hi1 > 8.0
    assert informed_test(p, 9.0)((-8.0, 7.9)) and informed_test(p, 9.0)((8.0, 7.9))


def test_sample_batch_uniform_in_bounds_without_rejection():
    p = make_demo_problem()
    empty = World(DEMO_BOUNDS, [])
    out = sample_batch(5, p, make_run(empty, p), RngStream(1))
    assert len(out) == 5
    assert all(DEMO_BOUNDS.contains(x) for x in out)


def test_sample_batch_respects_world_and_acceptance_rate():
    p = make_demo_problem()
    w = make_demo_world()
    run = make_run(w, p)
    out = sample_batch(1000, p, run, RngStream(42))
    assert len(out) == 1000
    assert all(w.is_free(x) for x in out)
    # Free-area fraction of the demo box: 1 - 3*pi*1.5^2 / 400 ~= 0.947.
    rate = 1000 / run.units
    assert abs(rate - 0.947) < 0.03


def test_sample_batch_respects_informed_set():
    p = make_demo_problem()
    w = make_demo_world()
    out = sample_batch(1000, p, make_run(w, p, 20.0), RngStream(3))
    assert all(map(informed_test(p, 20.0), out))
    assert all(w.is_free(x) for x in out)


def test_sample_batch_deterministic():
    p = make_demo_problem()
    w = make_demo_world()
    a = sample_batch(50, p, make_run(w, p, 20.0), RngStream(9))
    b = sample_batch(50, p, make_run(w, p, 20.0), RngStream(9))
    assert a == b


def test_sample_batch_starves_on_empty_informed_set():
    p = make_demo_problem()
    w = make_demo_world()
    # c_sol below the root-goal distance makes the informed set empty.
    with pytest.raises(SamplerStarvedError, match="acceptance rate"):
        sample_batch(1, p, make_run(w, p, 10.0), RngStream(1))


class _CountingRng(RngStream):
    """RngStream that counts its draws."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = 0

    def point(self, bounds: Box):
        self.draws += 1
        return super().point(bounds)


def test_sample_batch_charges_one_unit_per_draw():
    # Draws outside the informed set never reach is_free; they must still
    # cost their unit on the work clock.
    p = make_demo_problem()
    run = make_run(make_demo_world(), p, 18.0)
    rng = _CountingRng(5)
    out = sample_batch(200, p, run, rng)
    assert len(out) == 200
    assert rng.draws > 200
    assert run.units == rng.draws


def test_sample_batch_charges_every_draw_before_starving(monkeypatch):
    monkeypatch.setattr(space, "REJECTION_BUDGET", 300)
    p = make_demo_problem()
    run = make_run(make_demo_world(), p, 16.01)
    rng = _CountingRng(1)
    # A sliver of an ellipse around the root-goal segment: samples land now
    # and then, until 300 draws in a row miss it.
    with pytest.raises(SamplerStarvedError):
        sample_batch(1000, p, run, rng)
    assert rng.draws > 300
    assert run.units == rng.draws


def test_sample_batch_rejects_bad_count():
    p = make_demo_problem()
    with pytest.raises(ValueError):
        sample_batch(0, p, make_run(make_demo_world(), p), RngStream(1))


def _reference_sample_batch(m, problem, run, rng):
    """sample_batch before informed_test: a generator-expression draw and
    c_hat + h_hat < c_sol per draw; every draw costs one unit."""
    world, c_sol = run.world, run.c_sol
    bounds = world.bounds
    r = rng._rng.random
    out = []
    attempts = 0
    for _ in range(m):
        for _ in range(space.REJECTION_BUDGET):
            attempts += 1
            x = tuple(l + (h - l) * r() for l, h in zip(bounds.lo, bounds.hi))
            if ((math.isinf(c_sol)
                 or math.dist(problem.root, x) + h_hat(x, problem.goal_samples) < c_sol)
                    and world.is_free(x)):
                out.append(x)
                break
        else:
            run.units += attempts
            raise SamplerStarvedError(
                f"no acceptable sample in {space.REJECTION_BUDGET} consecutive draws "
                f"(acceptance rate estimate {len(out) / attempts:.3g}); the informed set is "
                f"empty or vanishingly small"
            )
    run.units += attempts
    return out


def _generated_grid():
    """The grid-informed-bitstar map and query (perfbench/gridworld.py, seed 1)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gridworld.py"
    spec = importlib.util.spec_from_file_location("gridworld", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    gw = module.GridWorld(1)
    world = World(grid=OccupancyGrid(module.CELLS, module.CELLS, module.METERS_PER_CELL,
                                     (0.0, 0.0), gw.blocked), checks_per_meter=10)
    problem = ProblemDef(gw.root, (gw.goal,), Circle(gw.goal, module.GOAL_RADIUS_M))
    return world, problem, gw.detour_cost()


def _first_draw_on_the_boundary(problem, seed):
    """c_sol for which the stream's first draw lies exactly on the ellipse,
    so a sampler that tests <= instead of < accepts it."""
    x = RngStream(seed).point(DEMO_BOUNDS)
    assert make_demo_world().is_free(x)
    return math.dist(problem.root, x) + h_hat(x, problem.goal_samples)


def _sampler_cases():
    demo, p = make_demo_world(), make_demo_problem()
    # A second goal sample off the root-goal axis: its ellipse pokes out of
    # the first one, so h_hat's minimum over both goals decides some draws.
    two = ProblemDef(p.root, ((0.0, 8.0), (0.3, 7.7)), Circle((0.0, 8.0), 0.5))
    # Goals 16 m apart with the root between them: the draws near either goal
    # lie outside the other goal's box (from the demo root they do not).
    far = ProblemDef((0.0, 6.0), ((-8.0, 8.0), (8.0, 8.0)), Circle((0.0, 8.0), 8.5))
    # A root by the corner: its box reaches past the bounds.
    corner = ProblemDef((-9.5, -9.5), ((-6.0, -7.0),), Circle((-6.0, -7.0), 0.5))
    grid, gp, detour = _generated_grid()
    return {
        "demo-uninformed": (demo, p, math.inf, 500, 1),
        "demo-tight": (demo, p, 16.5, 200, 2),
        "demo-boundary": (demo, p, _first_draw_on_the_boundary(p, 3), 50, 3),
        "two-goals": (demo, two, 16.3, 200, 4),
        "two-goals-boundary": (demo, two, _first_draw_on_the_boundary(two, 7), 50, 7),
        "two-goals-far": (demo, far, 9.0, 200, 8),
        "corner-root": (demo, corner, 1.2 * math.dist(corner.root, corner.goal_samples[0]), 100, 9),
        "grid-uninformed": (grid, gp, math.inf, 300, 5),
        "grid-tight": (grid, gp, 1.02 * detour, 50, 6),
    }


@pytest.mark.parametrize("case", ["demo-uninformed", "demo-tight", "demo-boundary", "two-goals",
                                  "two-goals-boundary", "two-goals-far", "corner-root",
                                  "grid-uninformed", "grid-tight"])
def test_sample_batch_is_bitwise_the_reference_sampler(case):
    world, problem, c_sol, m, seed = _sampler_cases()[case]
    got_run, got_rng = make_run(world, problem, c_sol), RngStream(seed)
    want_run, want_rng = make_run(world, problem, c_sol), RngStream(seed)
    got = sample_batch(m, problem, got_run, got_rng)
    want = _reference_sample_batch(m, problem, want_run, want_rng)
    assert [tuple(map(float.hex, x)) for x in got] == [tuple(map(float.hex, x)) for x in want]
    assert got_run.units == want_run.units > m
    assert got_rng._rng.getstate() == want_rng._rng.getstate()


def test_sample_batch_starves_like_the_reference_sampler(monkeypatch):
    monkeypatch.setattr(space, "REJECTION_BUDGET", 300)
    p = make_demo_problem()
    runs = []
    for sampler in (sample_batch, _reference_sample_batch):
        run, rng = make_run(make_demo_world(), p, 16.01), RngStream(1)
        with pytest.raises(SamplerStarvedError) as err:
            sampler(1000, p, run, rng)
        runs.append((str(err.value), run.units, rng._rng.getstate()))
    assert runs[0] == runs[1]
    assert "in 300 consecutive draws" in runs[0][0]


def test_rng_stream_determinism():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.point(DEMO_BOUNDS) for _ in range(100)] == [b.point(DEMO_BOUNDS) for _ in range(100)]
    with pytest.raises(ValueError):
        RngStream(-1)


@pytest.mark.parametrize("seed", [1.5, 3.0, "3", None])
def test_rng_stream_refuses_a_seed_that_is_not_an_integer(seed):
    # random.Random accepts any hashable seed, and a sign check alone lets a
    # float through and raises TypeError on a string.
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        RngStream(seed)


@pytest.mark.parametrize("box", [((-10.0, -10.0), (10.0, 10.0)),
                                 ((-1.5, 0.25, 3.0), (2.0, 7.75, 3.125))])
def test_rng_stream_point_is_bitwise_random_uniform(box):
    stream, ref = RngStream(77), random.Random(77)
    if len(box[0]) != 2:
        # Every draw comes from world.bounds, a Box, and a Box is planar.
        with pytest.raises(ValueError, match="2-D"):
            Box(*box)
        return
    box = Box(*box)
    for _ in range(10_000):
        expected = tuple(ref.uniform(l, h) for l, h in zip(box.lo, box.hi))
        assert stream.point(box) == expected


def test_problem_validation(demo_world):
    with pytest.raises(ValueError, match="outside the planning bounds"):
        ProblemDef((0.0, -11.0), ((0.0, 8.0),), Circle((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="inside an obstacle"):
        ProblemDef((0.0, 0.0), ((0.0, 8.0),), Circle((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="outside the goal region"):
        ProblemDef((0.0, -8.0), ((0.0, 6.0),), Circle((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="^at least one goal sample is required$"):
        ProblemDef((0.0, -8.0), (), Circle((0.0, 8.0), 0.5))
    # Every goal sample is checked: here the second fails, inside the region.
    for goal, message in [((0.0, 11.0), "goal sample lies outside the planning bounds"),
                          ((0.0, 0.0), "goal sample lies inside an obstacle")]:
        problem = ProblemDef((0.0, -8.0), ((0.0, 8.0), goal), Circle((0.0, 8.0), 12.0))
        with pytest.raises(ValueError, match=f"^{message}$"):
            problem.validate(demo_world)


@pytest.mark.parametrize("build", [
    lambda: ProblemDef((0.0, -8.0, 0.0), ((0.0, 8.0),), Circle((0.0, 8.0), 0.5)),
    lambda: ProblemDef((0.0, -8.0), ((0.0, 8.0), (0.0, 8.0, 0.0)), Circle((0.0, 8.0), 0.5)),
    lambda: ProblemDef((0.0, -8.0), ((0.0, 8.0),), Circle((0.0, 8.0, 0.0), 0.5)),
    lambda: ProblemDef((0.0,), ((0.0, 8.0),), Circle((0.0, 8.0), 0.5)),
], ids=["3-D root", "3-D goal sample", "3-D goal region center", "1-D root"])
def test_a_problem_off_the_plane_is_refused_at_construction(build):
    # The planners are planar, so a problem off the plane is refused where it
    # is made, not with a math.dist or reshape error deep inside a planner.
    with pytest.raises(ValueError, match="2-D"):
        build()


@pytest.mark.parametrize("center, radius", [
    ((0.0, 0.0), math.nan),
    ((0.0, 0.0), math.inf),
    ((0.0, 0.0), 0.0),
    ((0.0, 0.0), -1.0),
    ((math.nan, 0.0), 1.0),
    ((0.0, math.inf), 1.0),
    ((-math.inf, 0.0), 1.0),
], ids=["radius nan", "radius inf", "radius zero", "radius negative", "center nan",
        "center inf", "center -inf"])
def test_goal_region_rejects_non_finite_or_non_positive_input(center, radius):
    # The goal region is a world.Circle: it refuses a disc it could not test.
    with pytest.raises(ValueError, match="circle needs a finite 2-D center"):
        Circle(center, radius)
