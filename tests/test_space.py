from __future__ import annotations

import math
import random

import numpy as np
import pytest

import bitplan.space as space
from bitplan import (
    Box,
    CountingWorld,
    GoalRegion,
    ProblemDef,
    RngStream,
    SamplerStarvedError,
    World,
    c_hat,
    g_hat,
    h_hat,
    informed_contains,
    sample_batch,
)
from bitplan.space import h_hat_rows, sq_dists
from conftest import DEMO_BOUNDS, make_demo_problem, make_demo_world


def test_c_hat_examples():
    assert c_hat((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert c_hat((1.0, 1.0), (1.0, 1.0)) == 0.0
    assert c_hat((0.0, -8.0), (0.0, 8.0)) == 16.0


def test_c_hat_symmetric_and_dimension_checked():
    assert c_hat((1.0, 2.0), (4.0, 6.0)) == c_hat((4.0, 6.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        c_hat((0.0, 0.0), (1.0, 2.0, 3.0))


def test_c_hat_higher_dimensions():
    assert c_hat((0.0, 0.0, 0.0), (1.0, 2.0, 2.0)) == 3.0


def test_g_hat_examples():
    p = make_demo_problem()
    assert g_hat((0.0, -8.0), p) == 0.0
    assert g_hat((0.0, 8.0), p) == 16.0
    p2 = ProblemDef((0.0, 0.0), ((3.0, 4.0),), GoalRegion((3.0, 4.0), 0.5))
    assert g_hat((3.0, 4.0), p2) == 5.0


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
        vec = h_hat_rows(np.asarray(pts), goals)
        for p, hv in zip(pts, vec):
            assert abs(hv - h_hat(p, goals)) < 1e-12


def _reference_sq_dists(states, x):
    return ((states - np.asarray(x, dtype=float)) ** 2).sum(axis=1)


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
    rng = np.random.default_rng(17)
    with np.errstate(all="ignore"):  # squares of 1e300 overflow to inf
        for dim in (1, 2, 3):
            for states in _kernel_inputs(dim, rng):
                for x in (np.zeros(dim), rng.uniform(-1e3, 1e3, dim),
                          np.full(dim, 1e300), np.full(dim, np.inf)):
                    got = sq_dists(states, tuple(x))
                    want = _reference_sq_dists(states, tuple(x))
                    assert got.shape == want.shape == (len(states),)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_h_hat_rows_is_bitwise_the_per_goal_minimum():
    rng = np.random.default_rng(23)
    with np.errstate(all="ignore"):
        for dim in (1, 2, 3):
            pts = rng.uniform(-10, 10, (3, dim))
            goals = tuple(tuple(row) for row in (pts[0], -pts[0], pts[1], pts[2]))
            for states in _kernel_inputs(dim, rng):
                # The origin is exactly as far from goals[0] as from goals[1]: a tie.
                states = np.vstack([states, np.zeros(dim)])
                for k in (1, 2, 4):
                    want = np.sqrt(np.minimum.reduce(
                        [_reference_sq_dists(states, g) for g in goals[:k]]))
                    got = h_hat_rows(states, goals[:k])
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_heuristics_vanish_at_their_anchors():
    p = make_demo_problem()
    assert g_hat(p.root, p) == 0.0
    for g in p.goal_samples:
        assert h_hat(g, p.goal_samples) == 0.0


def test_triangle_inequality_random_triples():
    rng = random.Random(7)
    for _ in range(500):
        x, y, z = (
            (rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
        )
        assert c_hat(x, z) <= c_hat(x, y) + c_hat(y, z) + 1e-12


def test_informed_contains_examples():
    p = make_demo_problem()
    assert informed_contains((0.0, 0.0), p, 20.0)
    assert not informed_contains((6.0, 0.0), p, 20.0)  # 10 + 10 on the boundary
    assert informed_contains((9.9, 9.9), p, math.inf)


def test_sample_batch_uniform_in_bounds_without_rejection():
    p = make_demo_problem()
    empty = World(DEMO_BOUNDS, [])
    out = sample_batch(5, p, CountingWorld(empty), math.inf, RngStream(1))
    assert len(out) == 5
    assert all(DEMO_BOUNDS.contains(x) for x in out)


def test_sample_batch_respects_world_and_acceptance_rate():
    p = make_demo_problem()
    cw = CountingWorld(make_demo_world())
    out = sample_batch(1000, p, cw, math.inf, RngStream(42))
    assert len(out) == 1000
    assert all(cw.inner.is_free(x) for x in out)
    # Free-area fraction of the demo box: 1 - 3*pi*1.5^2 / 400 ~= 0.947.
    rate = 1000 / cw.units
    assert abs(rate - 0.947) < 0.03


def test_sample_batch_respects_informed_set():
    p = make_demo_problem()
    w = make_demo_world()
    out = sample_batch(1000, p, CountingWorld(w), 20.0, RngStream(3))
    assert all(informed_contains(x, p, 20.0) for x in out)
    assert all(w.is_free(x) for x in out)


def test_sample_batch_deterministic():
    p = make_demo_problem()
    w = make_demo_world()
    a = sample_batch(50, p, CountingWorld(w), 20.0, RngStream(9))
    b = sample_batch(50, p, CountingWorld(w), 20.0, RngStream(9))
    assert a == b


def test_sample_batch_starves_on_empty_informed_set():
    p = make_demo_problem()
    w = make_demo_world()
    # c_sol below the root-goal distance makes the informed set empty.
    with pytest.raises(SamplerStarvedError, match="acceptance rate"):
        sample_batch(1, p, CountingWorld(w), 10.0, RngStream(1))


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
    cw = CountingWorld(make_demo_world())
    rng = _CountingRng(5)
    out = sample_batch(200, p, cw, 18.0, rng)
    assert len(out) == 200
    assert rng.draws > 200
    assert cw.units == rng.draws


def test_sample_batch_charges_every_draw_before_starving(monkeypatch):
    monkeypatch.setattr(space, "REJECTION_BUDGET", 300)
    p = make_demo_problem()
    cw = CountingWorld(make_demo_world())
    rng = _CountingRng(1)
    # A sliver of an ellipse around the root-goal segment: samples land now
    # and then, until 300 draws in a row miss it.
    with pytest.raises(SamplerStarvedError):
        sample_batch(1000, p, cw, 16.01, rng)
    assert rng.draws > 300
    assert cw.units == rng.draws


def test_sample_batch_rejects_bad_count():
    p = make_demo_problem()
    with pytest.raises(ValueError):
        sample_batch(0, p, make_demo_world(), math.inf, RngStream(1))


def test_rng_stream_determinism():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.point(DEMO_BOUNDS) for _ in range(100)] == [b.point(DEMO_BOUNDS) for _ in range(100)]
    with pytest.raises(ValueError):
        RngStream(-1)


@pytest.mark.parametrize("box", [Box((-10.0, -10.0), (10.0, 10.0)),
                                 Box((-1.5, 0.25, 3.0), (2.0, 7.75, 3.125))])
def test_rng_stream_point_is_bitwise_random_uniform(box):
    stream, ref = RngStream(77), random.Random(77)
    for _ in range(10_000):
        expected = tuple(ref.uniform(l, h) for l, h in zip(box.lo, box.hi))
        assert stream.point(box) == expected


def test_problem_validation(demo_world):
    with pytest.raises(ValueError, match="outside the planning bounds"):
        ProblemDef((0.0, -11.0), ((0.0, 8.0),), GoalRegion((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="inside an obstacle"):
        ProblemDef((0.0, 0.0), ((0.0, 8.0),), GoalRegion((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="outside the goal region"):
        ProblemDef((0.0, -8.0), ((0.0, 6.0),), GoalRegion((0.0, 8.0), 0.5)).validate(demo_world)
