from __future__ import annotations

import math

import pytest

import bitplan.rrtstar as rrtstar
from bitplan import Circle, ProblemDef, RngStream, World
from bitplan.anytime import AnytimeRun, StopCondition
from bitplan.rrtstar import RrtParams, rrt_plan, steer
from bitplan.space import sq_dists
from conftest import DEMO_BOUNDS, make_demo_problem, tree_audit

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


def test_every_insertion_chooses_its_parent_and_rewires_its_near_set(demo_scenario, monkeypatch):
    # RRT*'s definition at each insertion, checked on its own near set (the
    # alpha nearest older vertices within eta, ties to the lower id): the new
    # vertex costs at most any member plus a free edge from it (choose-parent),
    # and after the rewires no member costs more than the new vertex plus a
    # free edge to it (rewire). The edges run in the directions rrt_plan
    # checks them. AnytimeRun.improve runs once per iteration, after rewiring.
    world, params = demo_scenario.world, demo_scenario.rrtstar
    eta2 = params.eta * params.eta
    improve = AnytimeRun.improve
    seen = {"vertices": 1, "insertions": 0, "members": 0}
    worst = 0.0

    def checked_improve(run):
        nonlocal worst
        states, costs = run.tree.states, run.tree.costs
        if len(states) == seen["vertices"] + 1:
            seen["insertions"] += 1
            new, g_new = states[-1], costs[-1]
            d2 = sq_dists(run.tree.states_matrix()[:, :-1], new)
            within = (d2 <= eta2).nonzero()[0]
            for v in within[d2[within].argsort(kind="stable")][: params.alpha].tolist():
                seen["members"] += 1
                into, out = world.true_cost(states[v], new), world.true_cost(new, states[v])
                if math.isfinite(into):
                    worst = max(worst, g_new - (costs[v] + into))
                if math.isfinite(out):
                    worst = max(worst, costs[v] - (g_new + out))
        seen["vertices"] = len(states)
        improve(run)

    monkeypatch.setattr(AnytimeRun, "improve", checked_improve)
    for seed in (1, 2, 3):
        seen["vertices"] = 1
        rrt_plan(demo_scenario.problem, world, params, StopCondition(max_batches=1500),
                 RngStream(seed))
    assert seen["insertions"] > 0 and seen["members"] > 0
    assert worst <= 1e-12, f"{seen}: worst violation {worst}"


def test_an_iteration_whose_every_candidate_parent_is_blocked_adds_nothing(demo_scenario,
                                                                          monkeypatch):
    # Choose-parent's else: when every ranked neighbor's edge to the new state
    # is blocked, the iteration adds no vertex and does not call improve, yet
    # it counts as a batch. Such an iteration checks edges (a repeated state
    # checks none) and calls no improve, which runs once per insertion.
    world = demo_scenario.world
    true_cost, improve = world.true_cost, AnytimeRun.improve
    checks, improves = [], []  # (batch, edge free) per check; (batch, vertices) per improve

    def recorded_true_cost(x, y, run=None):
        cost = true_cost(x, y, run)
        checks.append((run.batch, math.isfinite(cost)))
        return cost

    def recorded_improve(run):
        improves.append((run.batch, len(run.tree)))
        improve(run)

    monkeypatch.setattr(world, "true_cost", recorded_true_cost)
    monkeypatch.setattr(AnytimeRun, "improve", recorded_improve)
    result = rrt_plan(demo_scenario.problem, world, demo_scenario.rrtstar,
                      StopCondition(max_batches=60), RngStream(2))
    blocked = {batch for batch, _ in checks} - {batch for batch, _ in improves}
    assert blocked, "seed 2's first 60 iterations no longer hold a blocked one"
    assert not any(free for batch, free in checks if batch in blocked)
    # One vertex per improve: a blocked iteration added none.
    assert [n for _, n in improves] == list(range(2, len(improves) + 2))
    last = result.convergence[-1]
    assert (last.batch, last.samples_drawn, last.tree_vertices) == (60, 60, len(improves) + 1)


def test_the_tree_rrt_plan_builds_passes_the_audit(demo_scenario, monkeypatch):
    # rrt_plan hands the tree ids fresh from numpy (order.tolist()), so its
    # tree is the one where a caller's int could be stored beside the tree's
    # own; the audit checks that none is, and that only vertices with a
    # child hold a child list. The run is captured as it returns its result.
    result = AnytimeRun.result
    trees = []

    def captured_result(run):
        trees.append(run.tree)
        return result(run)

    monkeypatch.setattr(AnytimeRun, "result", captured_result)
    for seed in (1, 2, 3):
        rrt_plan(demo_scenario.problem, demo_scenario.world, demo_scenario.rrtstar,
                 StopCondition(max_batches=1500), RngStream(seed))
    assert len(trees) == 3
    for tree in trees:
        assert len(tree) > 1000
        tree_audit(tree)
