from __future__ import annotations

import math

import pytest

import bitplan.rrtstar as rrtstar
from bitplan import Circle, ProblemDef, RngStream, World
from bitplan.anytime import AnytimeRun, StopCondition
from bitplan.rrtstar import RrtParams, rrt_plan, steer
from conftest import DEMO_BOUNDS, make_demo_problem

DEMO_RRT = RrtParams(eta=2.0, alpha=20, goal_period=50)
DEMO_STOP = StopCondition(max_batches=2000)


def test_steer_clamps_along_axis():
    assert steer((0.0, 0.0), (10.0, 0.0), 4.0) == (4.0, 0.0)


def test_steer_within_range_returns_target():
    assert steer((0.0, 0.0), (1.0, 0.0), 4.0) == (1.0, 0.0)


def test_steer_degenerate_and_distance_law():
    assert steer((2.0, 2.0), (2.0, 2.0), 4.0) == (2.0, 2.0)
    import random

    rng = random.Random(6)
    for _ in range(200):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        eta = rng.uniform(0.1, 5.0)
        out = steer(a, b, eta)
        assert abs(math.dist(a, out) - min(eta, math.dist(a, b))) < 1e-9


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
def test_steer_refuses_a_step_that_is_not_positive(eta):
    # NaN passes an `eta <= 0` check and would steer to (nan, nan).
    with pytest.raises(ValueError, match="eta must be positive"):
        steer((0.0, 0.0), (5.0, 0.0), eta)


def test_rrt_direct_goal_in_empty_world():
    problem = make_demo_problem()
    world = World(DEMO_BOUNDS, [])
    params = RrtParams(eta=20.0, alpha=10, goal_period=50)
    result = rrt_plan(problem, world, params, StopCondition(max_batches=60), RngStream(1))
    # The first goal-targeted sample (iteration 50) connects at the latest.
    assert result.path is not None
    assert result.cost >= 16.0 - 1e-9
    first = result.convergence[0]
    assert first.batch <= 50


def test_rrt_goal_bias_cycles_through_every_goal_sample(monkeypatch):
    # Every iteration is goal-biased: the first draws goal sample 0, the
    # second goal sample 1, and each connects straight from the tree.
    goals = ((-0.3, 8.0), (0.3, 7.8))
    problem = ProblemDef((0.0, -8.0), goals, Circle((0.0, 8.0), 0.5))
    runs = []

    def kept_run(*args):
        runs.append(AnytimeRun(*args))
        return runs[-1]

    monkeypatch.setattr(rrtstar, "AnytimeRun", kept_run)
    params = RrtParams(eta=20.0, alpha=10, goal_period=1)
    result = rrt_plan(problem, World(DEMO_BOUNDS, []), params, StopCondition(max_batches=2),
                      RngStream(1))
    assert set(goals) <= runs[0].tree.by_state.keys()
    assert result.convergence[-1].tree_vertices == 3


def test_rrt_demo_world(demo_world):
    result = rrt_plan(make_demo_problem(), demo_world, DEMO_RRT, DEMO_STOP, RngStream(1))
    assert result.path is not None
    # Any collision-free path to the goal disc is at least this long.
    assert result.cost >= 15.5
    for u, v in zip(result.path, result.path[1:]):
        assert math.isfinite(demo_world.true_cost(u, v))


def test_rrt_trace_monotone_and_deterministic(demo_world):
    problem = make_demo_problem()
    a = rrt_plan(problem, demo_world, DEMO_RRT, DEMO_STOP, RngStream(9))
    b = rrt_plan(problem, demo_world, DEMO_RRT, DEMO_STOP, RngStream(9))
    assert a.convergence == b.convergence
    assert a.path == b.path
    costs = [p.cost for p in a.convergence]
    assert all(x >= y for x, y in zip(costs, costs[1:]))


def test_rrt_time_budget(demo_world):
    stop = StopCondition(time_budget_s=0.2)
    result = rrt_plan(make_demo_problem(), demo_world, DEMO_RRT, stop, RngStream(4))
    assert result.convergence[-1].elapsed_s >= 0.2


def test_rrt_root_inside_goal_region():
    problem = ProblemDef((0.0, 8.0), ((0.0, 8.0),), Circle((0.0, 8.0), 0.5))
    params = RrtParams(eta=2.0, alpha=5, goal_period=50)
    result = rrt_plan(problem, World(DEMO_BOUNDS, []), params, StopCondition(max_batches=10),
                      RngStream(1))
    assert result.cost == 0.0


def test_rrt_through_occupancy_grid_gap():
    import numpy as np

    from bitplan.world import OccupancyGrid

    blocked = np.zeros((20, 20), dtype=bool)
    blocked[10, :] = True
    blocked[10, 15:18] = False
    world = World(grid=OccupancyGrid(20, 20, 1.0, (0.0, 0.0), blocked))
    problem = ProblemDef((10.0, 2.0), ((10.0, 18.0),), Circle((10.0, 18.0), 1.0))
    params = RrtParams(eta=3.0, alpha=10, goal_period=20)
    result = rrt_plan(problem, world, params, StopCondition(max_batches=1500), RngStream(2))
    assert result.path is not None
    # The straight shot (16) is walled off; the gap detour optimum is ~18.
    assert 17.5 < result.cost < 24.0
    for u, v in zip(result.path, result.path[1:]):
        assert math.isfinite(world.true_cost(u, v))


def test_rrt_param_validation():
    with pytest.raises(ValueError):
        RrtParams(eta=0.0, alpha=5, goal_period=50)
    with pytest.raises(ValueError):
        RrtParams(eta=1.0, alpha=0, goal_period=50)
    with pytest.raises(ValueError):
        RrtParams(eta=1.0, alpha=5, goal_period=0)


@pytest.mark.parametrize("field", ["alpha", "goal_period"])
def test_rrt_params_reject_non_integers(field):
    args = {"eta": 1.0, "alpha": 5, "goal_period": 10, field: 2.5}
    with pytest.raises(ValueError, match=field):
        RrtParams(**args)


def test_rrt_params_reject_nan():
    for args in [(math.nan, 5, 10), (1.0, math.nan, 10), (1.0, 5, math.nan)]:
        with pytest.raises(ValueError):
            RrtParams(*args)
