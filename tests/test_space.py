from __future__ import annotations

import math
import random

import numpy as np
import pytest

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
from bitplan.space import h_hat_rows
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
    out = sample_batch(5, p, empty, math.inf, RngStream(1))
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
    out = sample_batch(1000, p, w, 20.0, RngStream(3))
    assert all(informed_contains(x, p, 20.0) for x in out)
    assert all(w.is_free(x) for x in out)


def test_sample_batch_deterministic():
    p = make_demo_problem()
    w = make_demo_world()
    a = sample_batch(50, p, w, 20.0, RngStream(9))
    b = sample_batch(50, p, w, 20.0, RngStream(9))
    assert a == b


def test_sample_batch_starves_on_empty_informed_set():
    p = make_demo_problem()
    w = make_demo_world()
    # c_sol below the root-goal distance makes the informed set empty.
    with pytest.raises(SamplerStarvedError, match="acceptance rate"):
        sample_batch(1, p, w, 10.0, RngStream(1))


def test_sample_batch_rejects_bad_count():
    p = make_demo_problem()
    with pytest.raises(ValueError):
        sample_batch(0, p, make_demo_world(), math.inf, RngStream(1))


def test_rng_stream_determinism():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.uniform(0, 1) for _ in range(100)] == [b.uniform(0, 1) for _ in range(100)]
    assert RngStream(123).point(DEMO_BOUNDS) == RngStream(123).point(DEMO_BOUNDS)
    with pytest.raises(ValueError):
        RngStream(-1)


def test_problem_validation(demo_world):
    with pytest.raises(ValueError, match="outside the planning bounds"):
        ProblemDef((0.0, -11.0), ((0.0, 8.0),), GoalRegion((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="inside an obstacle"):
        ProblemDef((0.0, 0.0), ((0.0, 8.0),), GoalRegion((0.0, 8.0), 0.5)).validate(demo_world)
    with pytest.raises(ValueError, match="outside the goal region"):
        ProblemDef((0.0, -8.0), ((0.0, 6.0),), GoalRegion((0.0, 8.0), 0.5)).validate(demo_world)
