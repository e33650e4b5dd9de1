from __future__ import annotations

import dataclasses
import math

import pytest

from bitplan import GoalRegion, ProblemDef, RngStream, World
from bitplan.anytime import AnytimeRun, ConvergencePoint, StopCondition
from bitplan.bench import resolve_scenario, run_single
from bitplan.bitstar import PlannerParams, plan
from bitplan.rrtstar import RrtParams, rrt_plan
from conftest import DEMO_BOUNDS, make_demo_problem

STOP = StopCondition(max_batches=5)


def _run(problem=None) -> AnytimeRun:
    return AnytimeRun(problem or make_demo_problem(), World(DEMO_BOUNDS, []), STOP)


def test_a_fresh_run_has_no_incumbent_and_no_records():
    run = _run()
    assert len(run.tree) == 1 and run.v_sol == set()
    assert run.c_sol == math.inf and run.path is None and run.records == []
    result = run.result()
    assert result.path is None and result.cost == math.inf
    assert result.convergence == [ConvergencePoint(0.0, math.inf, 0, 1, 0)]


@pytest.mark.parametrize("planner", ["run", "bitstar", "rrtstar"])
def test_a_root_inside_the_goal_region_is_the_first_record(planner):
    problem = ProblemDef((0.0, 8.0), ((0.0, 8.0),), GoalRegion((0.0, 8.0), 0.5))
    world = World(DEMO_BOUNDS, [])
    if planner == "run":
        result = AnytimeRun(problem, world, STOP).result()
    elif planner == "bitstar":
        result = plan(problem, world, PlannerParams(10, 8.0), STOP, RngStream(1))
    else:
        result = rrt_plan(problem, world, RrtParams(2.0, 10, 50), STOP, RngStream(1))
    assert tuple(result.convergence[0]) == (0.0, 0.0, 0, 1, 0)
    assert result.cost == 0.0 and result.path == [(0.0, 8.0)]


def test_improve_takes_only_a_strictly_cheaper_goal_vertex():
    run = _run()
    tree = run.tree
    a = tree.add_child(tree.root_id, (1.0, 0.0), 10.0)
    b = tree.add_child(tree.root_id, (2.0, 0.0), 10.0)
    run.improve()  # no goal vertex yet
    assert run.c_sol == math.inf and run.records == []
    run.v_sol.add(b)
    run.improve()
    assert run.c_sol == 10.0 and run.path == [(0.0, -8.0), (2.0, 0.0)]
    # An equal cost is no improvement, even from a lower id.
    run.v_sol.add(a)
    run.units += 5
    run.improve()
    assert run.path == [(0.0, -8.0), (2.0, 0.0)] and len(run.records) == 1
    run.v_sol.add(tree.add_child(a, (3.0, 0.0), 0.5))  # dearer: 10.5
    run.improve()
    assert run.c_sol == 10.0 and len(run.records) == 1
    tree.rewire(a, tree.root_id, 4.0)
    run.improve()
    assert run.c_sol == 4.0 and run.path == [(0.0, -8.0), (1.0, 0.0)]
    assert [p.cost for p in run.records] == [10.0, 4.0]


def test_improve_breaks_cost_ties_by_the_lowest_id():
    run = _run()
    tree = run.tree
    ids = [tree.add_child(tree.root_id, (float(i), 0.0), 5.0) for i in range(1, 9)]
    low, high = ids[0], ids[-1]
    run.v_sol.update((high, low))
    # The set yields the higher id first, so a cost-only minimum would take it.
    assert next(iter(run.v_sol)) == high
    run.improve()
    assert run.c_sol == 5.0 and run.path == [(0.0, -8.0), tree.states[low]]


def test_c_sol_never_rises_when_the_best_goal_vertex_leaves():
    run = _run()
    tree = run.tree
    a = tree.add_child(tree.root_id, (1.0, 0.0), 3.0)
    b = tree.add_child(tree.root_id, (2.0, 0.0), 6.0)
    run.v_sol.update((a, b))
    run.improve()
    tree.remove_subtree(a)  # a stays in v_sol and reads cost inf
    run.improve()
    assert run.c_sol == 3.0 and run.path == [(0.0, -8.0), (1.0, 0.0)]
    assert len(run.records) == 1


def test_result_adds_a_final_record_only_when_the_clock_moved():
    run = _run()
    tree = run.tree
    run.v_sol.add(tree.add_child(tree.root_id, (1.0, 0.0), 7.0))
    run.units += 10
    run.improve()
    assert len(run.result().convergence) == 1
    run.units += 10
    run.batch = run.samples_drawn = 3
    convergence = run.result().convergence
    assert len(convergence) == 2
    assert convergence[-1].elapsed_s > convergence[0].elapsed_s
    assert convergence[-1][1:] == (7.0, 3, 2, 3)


def test_a_stop_needs_a_bound_that_always_fires():
    with pytest.raises(ValueError, match="^at least one stop bound must be set$"):
        StopCondition()
    for bound in ({"max_batches": 3}, {"time_budget_s": 1.0}):
        assert dataclasses.asdict(StopCondition(**bound)) == {"time_budget_s": None,
                                                              "max_batches": None, **bound}


@pytest.mark.parametrize("max_batches", [2.5, 3.0, "3"])
def test_stop_condition_rejects_a_non_integer_max_batches(max_batches):
    with pytest.raises(ValueError, match="max_batches"):
        StopCondition(max_batches=max_batches)


@pytest.mark.parametrize("planner, max_batches, first", [("bitstar", 1, (16.680007, 1)),
                                                          ("rrtstar", 150, (21.664062, 150))],
                         ids=["bitstar", "rrtstar"])
def test_the_first_record_of_a_capped_demo_run_is_its_first_solution(planner, max_batches, first):
    # The time to a first solution is read from the records: each planner's
    # first solution on the demo (seed 1) comes in the run's last batch.
    scenario = dataclasses.replace(resolve_scenario("demo"),
                                   stop=StopCondition(max_batches=max_batches))
    result = run_single(scenario, planner, 1)
    assert result.path is not None
    assert (round(result.convergence[0].cost, 6), result.convergence[0].batch) == first


def test_stop_condition_rejects_a_negative_max_batches():
    with pytest.raises(ValueError, match="^max batches must be non-negative$"):
        StopCondition(max_batches=-1)


@pytest.mark.parametrize("budget", [math.inf, -math.inf, -1.0, math.nan])
def test_stop_condition_requires_a_finite_non_negative_time_budget(budget):
    # An infinite budget never fires: rrt_plan under it alone never returns.
    with pytest.raises(ValueError, match="^time budget must be non-negative and finite$"):
        StopCondition(time_budget_s=budget)
    with pytest.raises(ValueError, match="^time budget must be non-negative and finite$"):
        StopCondition(time_budget_s=budget, max_batches=10)
    assert StopCondition(time_budget_s=0.0).time_budget_s == 0.0
