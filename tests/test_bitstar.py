from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

import bitplan.bitstar as bitstar
import bitplan.space as space
from bitplan import (
    Box,
    Circle,
    ProblemDef,
    RngStream,
    SamplerStarvedError,
    World,
)
from bitplan.anytime import AnytimeRun, StopCondition
from bitplan.bench import resolve_scenario, run_single
from bitplan.bitstar import (
    PlannerContext,
    PlannerParams,
    Samples,
    expand_edge,
    expand_vertex,
    plan,
    prune,
    start_new_batch,
)
from bitplan.queues import CostQueue
from bitplan.rrtstar import RrtParams, rrt_plan
from bitplan.space import h_hat, h_hat_rows, informed_test, sq_dists
from bitplan.tree import Tree
from conftest import (DEMO_BOUNDS, make_demo_problem, make_demo_world, samples_audit,
                      tree_audit, tree_lists_audit)

DEMO_PARAMS = PlannerParams(batch_size=100, radius=8.0)
DEMO_STOP = StopCondition(max_batches=10)


def _context(problem, samples=(), world=None) -> PlannerContext:
    """A lone root on `world` (default: the demo world); x_ncon holds the
    goal samples (the slice x_ncon.new) and then `samples` (not new)."""
    ctx = PlannerContext(problem, make_demo_world() if world is None else world, DEMO_STOP)
    goals = problem.goal_samples
    ctx.x_ncon = Samples(goals, new=goals, reused=samples)
    return ctx


def _queued_targets(x, samples, radius):
    """Edge targets expand_vertex queues for a lone root vertex at x, no solution yet."""
    problem = ProblemDef(x, ((9.5, 9.5),), Circle((9.5, 9.5), 0.1))
    ctx = PlannerContext(problem, World(DEMO_BOUNDS, []), DEMO_STOP)
    ctx.x_ncon = Samples(problem.goal_samples, samples)
    ctx.qv.insert(0.0, 0.0, ctx.tree.root_id)
    params = PlannerParams(batch_size=1, radius=radius)
    assert expand_vertex(ctx, problem, params) == len(samples)
    targets = []
    while ctx.qe:
        _, _, (_, target, _, _) = ctx.qe.pop_best()
        targets.append(target)
    return sorted(targets)


def test_near_includes_boundary():
    cands = [(3.0, 0.0), (0.0, 5.0), (7.0, 0.0)]
    assert _queued_targets((0.0, 0.0), cands, 5.0) == [(0.0, 5.0), (3.0, 0.0)]


def test_near_empty_when_nothing_close():
    assert _queued_targets((0.0, 0.0), [(1.0, 1.0)], 0.001) == []


def test_near_excludes_the_query_point(demo_world, monkeypatch):
    # No vertex queues an edge to its own state. expand_vertex needs no
    # filter for it, since x_ncon never holds a tree state (see
    # test_no_state_in_both_tree_and_samples); checked here on every edge
    # that a short demo run queues.
    run, not_self = [], []
    orig_expand, orig_insert = bitstar.expand_vertex, CostQueue.insert

    def expand(ctx, problem, params):
        run[:] = [ctx]
        return orig_expand(ctx, problem, params)

    def insert(queue, key, tiebreak, item):
        if isinstance(item, tuple):  # an edge (vid, target, c_hat, h_hat)
            not_self.append(run[0].tree.states[item[0]] != item[1])
        orig_insert(queue, key, tiebreak, item)

    monkeypatch.setattr(bitstar, "expand_vertex", expand)
    monkeypatch.setattr(CostQueue, "insert", insert)
    stop = StopCondition(max_batches=3)
    plan(make_demo_problem(), demo_world, PlannerParams(batch_size=50, radius=8.0), stop,
         RngStream(11))
    assert not_self and all(not_self)


def test_near_matches_linear_scan_oracle():
    rng = random.Random(4)
    cands = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(1000)]
    x = (0.5, -0.25)
    rho = 4.0
    expected = sorted(c for c in cands if c != x and math.dist(x, c) <= rho)
    assert expected and _queued_targets(x, cands, rho) == expected


def test_plan_trivial_direct_connection():
    problem = make_demo_problem()
    world = World(DEMO_BOUNDS, [])
    params = PlannerParams(batch_size=50, radius=20.0)
    stop = StopCondition(max_batches=5)
    result = plan(problem, world, params, stop, RngStream(1))
    assert result.path == [(0.0, -8.0), (0.0, 8.0)]
    assert abs(result.cost - 16.0) < 1e-9
    # Direct connection happens in batch 0, before any sampling.
    assert result.convergence[0].samples_drawn == 0
    assert result.convergence[0].batch == 0


def test_plan_zero_batches_no_path(demo_world):
    problem = make_demo_problem()
    params = PlannerParams(batch_size=50, radius=8.0)
    stop = StopCondition(max_batches=0)
    result = plan(problem, demo_world, params, stop, RngStream(1))
    assert result.path is None
    assert result.cost == math.inf


def test_plan_demo_world_finds_detour(ten_batch_results):
    result = ten_batch_results[0]  # seed 1
    assert result.path is not None
    assert 16.0 < result.cost < 20.0


def test_plan_deterministic(demo_world, ten_batch_results):
    a = plan(make_demo_problem(), demo_world, DEMO_PARAMS, DEMO_STOP, RngStream(5))
    b = ten_batch_results[4]  # seed 5; the demo scenario is this same query
    assert a.path == b.path
    assert a.cost == b.cost
    assert a.convergence == b.convergence


def test_plan_solution_is_collision_free_and_priced_right(demo_world, ten_batch_results):
    result = ten_batch_results[1]  # seed 2
    path = result.path
    length = 0.0
    for u, v in zip(path, path[1:]):
        cost = demo_world.true_cost(u, v)
        assert math.isfinite(cost)
        length += cost
    assert abs(length - result.cost) < 1e-9


def test_plan_convergence_non_increasing(ten_batch_results):
    result = ten_batch_results[2]  # seed 3
    costs = [p.cost for p in result.convergence]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    times = [p.elapsed_s for p in result.convergence]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_plan_respects_time_budget(demo_world):
    params = PlannerParams(batch_size=100, radius=8.0)
    stop = StopCondition(time_budget_s=0.25)
    result = plan(make_demo_problem(), demo_world, params, stop, RngStream(1))
    assert result.convergence[-1].elapsed_s >= 0.25
    assert all(p.elapsed_s <= result.convergence[-1].elapsed_s for p in result.convergence)


@pytest.mark.parametrize("batch_size", [2.5, 100.0, "100"])
def test_planner_params_reject_a_non_integer_batch_size(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        PlannerParams(batch_size, 8.0)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_planner_params_reject_a_batch_size_below_one(batch_size):
    with pytest.raises(ValueError, match="^batch size must be at least 1$"):
        PlannerParams(batch_size, 8.0)


def test_planner_params_reject_nan():
    for batch_size, radius in [(10, math.nan), (math.nan, 8.0)]:
        with pytest.raises(ValueError):
            PlannerParams(batch_size, radius)


def test_stop_condition_rejects_nan():
    for kwargs in [{"time_budget_s": math.nan}, {"max_batches": math.nan}]:
        with pytest.raises(ValueError):
            StopCondition(**kwargs)


def test_plan_root_inside_goal_region():
    problem = ProblemDef((0.0, 8.0), ((0.0, 8.0),), Circle((0.0, 8.0), 0.5))
    result = plan(problem, World(DEMO_BOUNDS, []), DEMO_PARAMS, DEMO_STOP, RngStream(1))
    assert result.cost == 0.0
    assert result.path == [(0.0, 8.0)]
    assert result.convergence[-1].samples_drawn == 0


def test_sampler_starvation_keeps_the_best_path(monkeypatch):
    # Root and goal 2 m apart around a 5 cm circle in a 60 m box: once a
    # solution exists the informed ellipse covers a sliver of the box, so
    # rejection sampling starves a few batches later.
    monkeypatch.setattr(space, "REJECTION_BUDGET", 2000)
    bounds = Box((-30.0, -30.0), (30.0, 30.0))
    world = World(bounds, [Circle((0.0, 0.0), 0.05)])
    problem = ProblemDef((-1.0, 0.0), ((1.0, 0.0),), Circle((1.0, 0.0), 0.1))
    params = PlannerParams(batch_size=50, radius=100.0)
    stop = StopCondition(max_batches=20)
    result = plan(problem, world, params, stop, RngStream(1))
    assert result.path is not None
    assert f"{result.cost:.4f}" == "2.0130"
    last = result.convergence[-1]
    assert last.cost == result.cost
    assert last.batch < 20
    # With no solution to return, starvation is still an error.
    walled = World(bounds, [Box((-29.99, -31.0), (29.99, 31.0))])
    problem = ProblemDef((-29.995, 0.0), ((29.995, 0.0),), Circle((29.995, 0.0), 0.1))
    with pytest.raises(SamplerStarvedError):
        plan(problem, walled, params, stop, RngStream(1))


def test_queue_selection_trace(monkeypatch, demo_world):
    # The planner may only expand a vertex while the vertex queue's best key
    # does not exceed the edge queue's best key.
    orig = bitstar.expand_vertex
    sound = []

    def spy(ctx, problem, params):
        sound.append(ctx.qv.best_value() <= ctx.qe.best_value())
        return orig(ctx, problem, params)

    monkeypatch.setattr(bitstar, "expand_vertex", spy)
    params = PlannerParams(batch_size=50, radius=8.0)
    stop = StopCondition(max_batches=3)
    plan(make_demo_problem(), demo_world, params, stop, RngStream(7))
    assert sound and all(sound)


def test_no_state_in_both_tree_and_samples(demo_world, monkeypatch):
    # expand_vertex queues every admitted sample without comparing it with
    # the vertex's own state; this invariant is why that is safe. It is
    # checked at every batch boundary and before every expansion.
    disjoint = []
    orig = bitstar.expand_vertex

    def spy(ctx, problem, params):
        disjoint.append(set(ctx.x_ncon.rows).isdisjoint(ctx.tree.by_state))
        return orig(ctx, problem, params)

    def hook(batch, ctx):
        samples_audit(ctx.x_ncon)
        tree_lists_audit(ctx.tree)
        disjoint.append(set(ctx.x_ncon.rows).isdisjoint(ctx.tree.by_state))

    monkeypatch.setattr(bitstar, "expand_vertex", spy)
    params = PlannerParams(batch_size=50, radius=8.0)
    stop = StopCondition(max_batches=3)
    plan(make_demo_problem(), demo_world, params, stop, RngStream(11), batch_hook=hook)
    assert disjoint and all(disjoint)


def test_plan_with_multiple_goal_samples(demo_world):
    region = Circle((0.0, 8.0), 1.5)
    problem = ProblemDef((0.0, -8.0), ((0.9, 8.0), (-0.9, 8.0)), region)
    result = plan(problem, demo_world, DEMO_PARAMS, DEMO_STOP, RngStream(6))
    assert result.path is not None
    assert result.path[-1] in {(0.9, 8.0), (-0.9, 8.0)} or region.contains(result.path[-1])
    again = plan(problem, demo_world, DEMO_PARAMS, DEMO_STOP, RngStream(6))
    assert again.convergence == result.convergence


def test_v_sol_matches_goal_region_membership(demo_world, monkeypatch):
    """The live ids in v_sol are exactly the live vertices in the goal
    region: for BIT* at every batch boundary, and for RRT*, whose goal
    check is in rrt_plan, once its run ends."""
    problem = make_demo_problem()
    checked = []

    def hook(batch, run):
        states = run.tree.states
        in_region = {
            vid for vid, state in enumerate(states)
            if state is not None and problem.goal_region.contains(state)
        }
        # A pruned id stays in v_sol; compare the live members.
        checked.append(({v for v in run.v_sol if states[v] is not None}, in_region))

    params = PlannerParams(batch_size=50, radius=8.0)
    stop = StopCondition(max_batches=4)
    plan(problem, demo_world, params, stop, RngStream(13), batch_hook=hook)
    bitstar_checks = len(checked)
    finish = AnytimeRun.result
    monkeypatch.setattr(AnytimeRun, "result", lambda run: hook(None, run) or finish(run))
    rrt_plan(problem, demo_world, RrtParams(eta=2.0, alpha=20, goal_period=50),
             StopCondition(max_batches=2000), RngStream(13))
    assert bitstar_checks and len(checked) == bitstar_checks + 1
    assert checked[bitstar_checks - 1][1] and checked[-1][1]  # both reached the region
    assert all(live == in_region for live, in_region in checked)


def test_plan_through_occupancy_grid_gap():
    import numpy as np

    from bitplan.world import OccupancyGrid

    blocked = np.zeros((20, 20), dtype=bool)
    blocked[10, :] = True
    blocked[10, 15:18] = False  # off-center gap forces a detour
    world = World(grid=OccupancyGrid(20, 20, 1.0, (0.0, 0.0), blocked))
    problem = ProblemDef((10.0, 2.0), ((10.0, 18.0),), Circle((10.0, 18.0), 1.0))
    params = PlannerParams(batch_size=50, radius=10.0)
    stop = StopCondition(max_batches=5)
    result = plan(problem, world, params, stop, RngStream(2))
    assert result.path is not None
    # The straight shot (16) is walled off; the gap detour optimum is ~18.
    assert 17.5 < result.cost < 22.0
    for u, v in zip(result.path, result.path[1:]):
        assert math.isfinite(world.true_cost(u, v))


def test_prune_noop_without_incumbent():
    problem = make_demo_problem()
    ctx = _context(problem, [(9.0, 9.0)])
    reuse = prune(ctx, problem)
    assert reuse == []
    assert (9.0, 9.0) in ctx.x_ncon.rows


def test_prune_drops_hopeless_samples():
    problem = make_demo_problem()
    # (9, 9): g_hat + h_hat ~= 28.29 >= 20; (0, 0): 8 + 8 = 16 < 20.
    ctx = _context(problem, [(9.0, 9.0), (0.0, 0.0)])
    ctx.c_sol = 20.0
    prune(ctx, problem)
    assert (9.0, 9.0) not in ctx.x_ncon.rows
    assert (0.0, 0.0) in ctx.x_ncon.rows
    # The goal sample itself sits at g_hat + h_hat = 16 < 20 and survives.
    assert (0.0, 8.0) in ctx.x_ncon.rows


def test_prune_reuses_vertices_that_could_still_help():
    problem = make_demo_problem()
    ctx = _context(problem)
    # (0, 1): tree key 14 + 7 = 21 > 20, but g_hat + h_hat = 9 + 7 = 16 < 20.
    vid = ctx.tree.add_child(ctx.tree.root_id, (0.0, 1.0), 14.0)
    ctx.v_exp.add(vid)
    ctx.v_sol.add(vid)
    ctx.c_sol = 20.0
    reuse = prune(ctx, problem)
    assert reuse == [(0.0, 1.0)]
    assert ctx.tree.states[vid] is None and vid in ctx.v_exp and vid in ctx.v_sol
    # The pruned id stays in v_sol but reads cost inf: it never becomes the
    # incumbent, even with no incumbent to beat.
    ctx.c_sol = math.inf
    ctx.improve()
    assert ctx.c_sol == math.inf and ctx.path is None and ctx.records == []


def test_prune_removes_whole_subtrees_and_classifies_each():
    problem = make_demo_problem()
    ctx = _context(problem)
    # Parent fails the tree test; its child fails even the reuse test.
    a = ctx.tree.add_child(ctx.tree.root_id, (0.0, 1.0), 14.0)
    b = ctx.tree.add_child(a, (9.0, 9.0), 12.0)
    ctx.c_sol = 20.0
    reuse = prune(ctx, problem)
    assert reuse == [(0.0, 1.0)]
    assert ctx.tree.states[a] is ctx.tree.states[b] is None
    tree_audit(ctx.tree)


def test_prune_soundness_postcondition():
    problem = make_demo_problem()
    ctx = _context(problem)
    rng = random.Random(8)
    ids = [ctx.tree.root_id]
    samples = []
    for _ in range(200):
        parent = rng.choice(ids)
        state = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        if state in ctx.tree.by_state:
            continue
        ids.append(ctx.tree.add_child(parent, state, math.dist(ctx.tree.states[parent], state)))
        samples.append((rng.uniform(-10, 10), rng.uniform(-10, 10)))
    ctx.x_ncon = Samples(problem.goal_samples, [*ctx.x_ncon.rows, *samples])
    ctx.c_sol = 18.0
    prune(ctx, problem)
    goals = problem.goal_samples
    for vid, state in enumerate(ctx.tree.states):
        if state is not None:
            assert ctx.tree.costs[vid] + h_hat(state, goals) <= ctx.c_sol
    for x in ctx.x_ncon.rows:
        assert math.dist(problem.root, x) + h_hat(x, goals) < ctx.c_sol
    tree_audit(ctx.tree)


def test_start_new_batch_refills_queues(demo_world):
    problem = make_demo_problem()
    ctx = _context(problem, world=demo_world)
    a = ctx.tree.add_child(ctx.tree.root_id, (0.0, -4.0), 4.0)
    ctx.tree.add_child(a, (2.0, -3.0), 3.0)
    start_new_batch(ctx, problem, DEMO_PARAMS, RngStream(1))
    assert len(ctx.qv) == len(ctx.tree) == 3
    # 1 goal sample + 100 fresh samples, X_reuse empty pre-incumbent.
    assert len(ctx.x_ncon.rows) == 101
    x_new = ctx.x_ncon.states[ctx.x_ncon.new]
    assert len(x_new) == 100
    assert all(x in ctx.x_ncon.rows for x in x_new)


def test_start_new_batch_requires_empty_queues(demo_world):
    problem = make_demo_problem()
    ctx = _context(problem, world=demo_world)
    ctx.qv.insert(0.0, 0.0, ctx.tree.root_id)
    with pytest.raises(ValueError, match="empty"):
        start_new_batch(ctx, problem, DEMO_PARAMS, RngStream(1))


def test_expand_vertex_no_neighbors_in_range():
    # Batch 0 of the demo: the goal is 16 away, the radius is 8, so popping
    # the root adds nothing to the edge queue.
    problem = make_demo_problem()
    ctx = _context(problem)
    ctx.qv.insert(16.0, 0.0, ctx.tree.root_id)
    expand_vertex(ctx, problem, DEMO_PARAMS)
    assert len(ctx.qe) == 0
    assert ctx.tree.root_id in ctx.v_exp


def test_expand_vertex_skips_rewiring_without_incumbent():
    problem = make_demo_problem()
    ctx = _context(problem)
    ctx.tree.add_child(ctx.tree.root_id, (1.0, -7.0), math.dist((0.0, -8.0), (1.0, -7.0)))
    ctx.qv.insert(16.0, 0.0, ctx.tree.root_id)
    expand_vertex(ctx, problem, DEMO_PARAMS)
    assert ctx.v_rewire == set()
    assert len(ctx.qe) == 0


def test_expand_vertex_rewiring_after_incumbent():
    problem = make_demo_problem()
    ctx = _context(problem)
    root = ctx.tree.root_id
    mid = ctx.tree.add_child(root, (0.0, -4.0), 4.0)
    # A deliberately overpriced grandchild that the root could improve; the
    # existing edges (root, mid) and (mid, detour) themselves are not
    # rewiring candidates.
    detour = ctx.tree.add_child(mid, (3.0, -6.0), 20.0)
    ctx.c_sol = 40.0
    ctx.qv.insert(0.0, 0.0, root)
    expand_vertex(ctx, problem, DEMO_PARAMS)
    assert root in ctx.v_rewire
    assert len(ctx.qe) == 1
    _, _, (src, target, _, _) = ctx.qe.pop_best()
    assert src == root and target == (3.0, -6.0)
    assert ctx.tree.states[detour] is not None


def test_expand_vertex_never_queues_a_removed_vertex():
    problem = make_demo_problem()
    ctx = _context(problem)
    root = ctx.tree.root_id
    mid = ctx.tree.add_child(root, (0.0, -4.0), 4.0)
    # Both overpriced, so the root could rewire either; gone is removed.
    kept = ctx.tree.add_child(mid, (1.0, -7.0), 20.0)
    gone = ctx.tree.add_child(mid, (-1.0, -7.0), 20.0)
    ctx.tree.add_child(gone, (-1.0, -6.0), 1.0)
    ctx.tree.remove_subtree(gone)
    ctx.c_sol = 40.0
    ctx.qv.insert(0.0, 0.0, root)
    scanned = expand_vertex(ctx, problem, DEMO_PARAMS)
    # The goal sample is out of range; the scan is charged the live count.
    assert scanned == len(ctx.x_ncon.rows) + len(ctx.tree) == 4
    targets = []
    while ctx.qe:
        targets.append(ctx.qe.pop_best()[2][1])
    assert targets == [ctx.tree.states[kept]]


def test_expand_vertex_second_expansion_sees_only_new_samples():
    problem = make_demo_problem()
    goals = problem.goal_samples
    ctx = _context(problem)
    root = ctx.tree.root_id
    ctx.v_exp.add(root)
    # The goal and an old sample within radius, neither of them new.
    ctx.x_ncon = Samples(goals, [*goals, (1.0, -7.0)])
    ctx.qv.insert(16.0, 0.0, root)
    expand_vertex(ctx, problem, DEMO_PARAMS)
    assert len(ctx.qe) == 0


def test_samples_rows_are_old_then_new_then_reused_and_keep_their_first_row():
    goals = make_demo_problem().goal_samples
    a, b, c, d = (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)
    # A new state equal to an old one keeps its old row, so it is not new.
    samples = Samples(goals, [a, b], [c, a, c], [b, d, c])
    assert samples.states == [a, b, c, d]
    assert samples.rows == {a: 0, b: 1, c: 2, d: 3}
    assert samples.states[samples.new] == [c]
    samples.discard(c)
    assert samples.states[samples.new] == [c] and c not in samples.rows
    samples_audit(samples)


def test_the_scan_charge_counts_live_candidates_only():
    # A hand-built run with an incumbent, so that every expansion below scans
    # the samples and then the tree: one dead sample column inside the new
    # slice, one outside it, and a removed subtree's two tree columns.
    problem = make_demo_problem()
    goals = problem.goal_samples
    ctx = PlannerContext(problem, make_demo_world(), DEMO_STOP)
    old, new, reused = [(1.0, -7.0), (2.0, -6.0)], [(-1.0, -7.0), (-2.0, -6.0)], [(3.0, -5.0)]
    ctx.x_ncon = samples = Samples(goals, [*goals, *old], new, reused)
    samples.discard(new[0])
    samples.discard(old[1])
    samples_audit(samples)
    tree = ctx.tree
    root = tree.root_id
    mid = tree.add_child(root, (0.0, -4.0), 4.0)
    gone = tree.add_child(mid, (1.0, -3.0), math.dist((0.0, -4.0), (1.0, -3.0)))
    tree.add_child(gone, (1.0, -2.0), 1.0)
    tree.remove_subtree(gone)
    ctx.c_sol = 40.0
    live = [x for x in [*goals, *old, *new, *reused] if x not in (new[0], old[1])]
    live_new = [x for x in new if x != new[0]]
    assert len(samples.states) == 6 and len(tree.states) == 4

    def queued_targets():
        targets = []
        while ctx.qe:
            targets.append(ctx.qe.pop_best()[2][1])
        return sorted(targets)

    # First expansion of the root: every sample row, then every tree column.
    # Only samples are queued: mid is the root's child.
    ctx.qv.insert(0.0, 0.0, root)
    assert expand_vertex(ctx, problem, DEMO_PARAMS) == len(live) + 2 == 6
    assert queued_targets() == sorted(x for x in live if math.dist(problem.root, x) <= 8.0)
    # A repeat expansion of mid, whose rewiring edges were never queued: the
    # new slice, then every tree column. Only the new slice's live sample is
    # queued: the root's cost cannot be beaten.
    ctx.v_exp.add(mid)
    ctx.qv.insert(0.0, 4.0, mid)
    assert expand_vertex(ctx, problem, DEMO_PARAMS) == len(live_new) + 2 == 3
    assert queued_targets() == live_new
    assert ctx.v_rewire == {root, mid}


def test_expand_vertex_queues_plain_floats_that_dominate_the_vertex_key(monkeypatch, demo_world):
    # Every number an edge entry carries is a Python float, not a numpy scalar,
    # and every edge key is at least its vertex's key g + h_hat(v): criterion 4
    # on the planner's own keys, which come from sq_dists and h_hat_rows.
    problem = make_demo_problem()
    goals = problem.goal_samples
    inserted = []
    insert = CostQueue.insert

    def recording_insert(queue, key, tiebreak, item):
        inserted.append((queue, key, tiebreak, item))
        insert(queue, key, tiebreak, item)

    orig = bitstar.expand_vertex
    edges = {False: 0, True: 0}  # edges queued before and after a solution exists
    not_float = []
    worst = -math.inf

    def spy(ctx, problem, params):
        nonlocal worst
        inserted.clear()
        scanned = orig(ctx, problem, params)
        for queue, key, tiebreak, (vid, x, edge, h) in inserted:
            if queue is not ctx.qe:
                continue
            edges[ctx.c_sol < math.inf] += 1
            numbers = (key, tiebreak, edge, h, *x)
            not_float.extend(n for n in numbers if type(n) is not float)
            tree = ctx.tree
            vertex_key = tree.costs[vid] + h_hat(tree.states[vid], goals)
            worst = max(worst, vertex_key - key)
        return scanned

    monkeypatch.setattr(CostQueue, "insert", recording_insert)
    monkeypatch.setattr(bitstar, "expand_vertex", spy)
    plan(problem, demo_world, DEMO_PARAMS, StopCondition(max_batches=3), RngStream(1))
    assert edges[False] > 0 and edges[True] > 0
    assert not_float == []
    assert worst <= 1e-9


def test_expand_vertex_scans_the_rows_of_the_old_sample_sets(monkeypatch, demo_world):
    # Oracle: x_ncon and x_new kept as insertion-ordered dicts, as the planner
    # kept them before it owned a samples matrix. A first expansion must scan
    # list(x_ncon), a repeat the new samples still in x_ncon, in that order:
    # those are the finite columns of the scanned view of the samples matrix,
    # bitwise, and their h values are bitwise those of a fresh h_hat_rows.
    problem = make_demo_problem()
    goals = problem.goal_samples
    x_ncon = dict.fromkeys(g for g in goals if g != problem.root)
    x_new = dict(x_ncon)
    drawn, reused, scans = [], [], []
    seen = {True: 0, False: 0}  # first and repeat expansions checked

    def record(fn, out):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            out.append(result)
            return result
        return wrapped

    add_child = Tree.add_child

    def connect(tree, parent, state, edge_cost):
        x_ncon.pop(state, None)
        return add_child(tree, parent, state, edge_cost)

    orig_batch = bitstar.start_new_batch

    def batch(ctx, problem, params, rng):
        nonlocal x_ncon, x_new
        c = ctx.c_sol
        orig_batch(ctx, problem, params, rng)
        if not math.isinf(c):
            informed = informed_test(problem, c)
            x_ncon = {x: None for x in x_ncon if informed(x)}
        x_new = {x: None for x in drawn.pop() if x not in ctx.tree.by_state}
        x_ncon.update(x_new)
        x_ncon.update(dict.fromkeys(reused.pop()))
        assert list(ctx.x_ncon.rows) == list(x_ncon)
        assert ctx.x_ncon.states[ctx.x_ncon.new] == list(x_new)

    orig_expand = bitstar.expand_vertex

    def expand(ctx, problem, params):
        expanded = len(ctx.v_exp)
        scans.clear()
        scanned = orig_expand(ctx, problem, params)
        first = len(ctx.v_exp) > expanded
        expected = list(x_ncon) if first else [x for x in x_new if x in x_ncon]
        samples = ctx.x_ncon
        span = slice(0, None) if first else samples.new
        # The samples scan comes first; it reads the span's view of the
        # matrix, one contiguous row per coordinate, and copies nothing.
        cols, snapshot = scans[0]
        assert cols.base is samples.mat and cols.strides[1] == cols.itemsize
        view = samples.mat[:, span]
        assert cols.shape == view.shape
        assert cols.__array_interface__["data"] == view.__array_interface__["data"]
        live = np.isfinite(snapshot).all(axis=0)
        assert live.tolist() == [x in samples.rows for x in samples.states[span]]
        want = np.asarray(expected, dtype=float).reshape(-1, 2).T
        assert snapshot[:, live].tobytes() == want.tobytes()
        assert samples.h[span][live].tobytes() == h_hat_rows(want, goals).tobytes()
        seen[first] += 1
        return scanned

    def scan(cols, x):
        scans.append((cols, cols.copy()))
        return sq_dists(cols, x)

    monkeypatch.setattr(bitstar, "prune", record(bitstar.prune, reused))
    monkeypatch.setattr(bitstar, "sample_batch", record(bitstar.sample_batch, drawn))
    monkeypatch.setattr(bitstar, "sq_dists", scan)
    monkeypatch.setattr(Tree, "add_child", connect)
    monkeypatch.setattr(bitstar, "start_new_batch", batch)
    monkeypatch.setattr(bitstar, "expand_vertex", expand)
    plan(problem, demo_world, DEMO_PARAMS, DEMO_STOP, RngStream(1))
    assert seen[True] > 0 and seen[False] > 0


def test_expand_edge_blocked_by_obstacle(demo_world):
    problem = make_demo_problem()
    ctx = _context(problem, world=demo_world)
    root = ctx.tree.root_id
    ctx.qe.insert(16.0, 16.0, (root, (0.0, 8.0), 16.0, 0.0))
    expand_edge(ctx)
    assert len(ctx.tree) == 1
    assert (0.0, 8.0) in ctx.x_ncon.rows
    assert ctx.c_sol == math.inf
    assert ctx.path is None and ctx.records == []


def test_expand_edge_connects_goal():
    problem = make_demo_problem()
    ctx = _context(problem, world=World(DEMO_BOUNDS, []))
    root = ctx.tree.root_id
    ctx.qe.insert(16.0, 16.0, (root, (0.0, 8.0), 16.0, 0.0))
    expand_edge(ctx)
    assert ctx.c_sol == 16.0
    assert len(ctx.v_sol) == 1
    # The new goal vertex is the incumbent: its path and one record.
    assert ctx.path == [(0.0, -8.0), (0.0, 8.0)]
    assert [(p.cost, p.batch, p.tree_vertices) for p in ctx.records] == [(16.0, 0, 2)]
    assert (0.0, 8.0) not in ctx.x_ncon.rows
    assert len(ctx.qv) == 1  # the new vertex was queued


def test_expand_edge_clears_queues_when_best_cannot_help(demo_world):
    problem = make_demo_problem()
    ctx = _context(problem, world=demo_world)
    root = ctx.tree.root_id
    ctx.c_sol = 10.0
    ctx.qv.insert(0.0, 0.0, root)
    ctx.qe.insert(16.0, 16.0, (root, (0.0, 8.0), 16.0, 0.0))
    expand_edge(ctx)
    assert len(ctx.qe) == 0
    assert len(ctx.qv) == 0


def test_expand_edge_rewires_connected_vertex():
    problem = make_demo_problem()
    ctx = _context(problem, world=World(DEMO_BOUNDS, []))
    root = ctx.tree.root_id
    mid = ctx.tree.add_child(root, (0.0, 0.0), 8.0)
    far = ctx.tree.add_child(root, (3.0, 0.0), 20.0)  # overpriced
    ctx.c_sol = 40.0
    edge = math.dist((0.0, 0.0), (3.0, 0.0))
    h = h_hat((3.0, 0.0), problem.goal_samples)
    ctx.qe.insert(8.0 + edge + h, 8.0 + edge, (mid, (3.0, 0.0), edge, h))
    expand_edge(ctx)
    assert ctx.tree.parents[far] == mid
    assert ctx.tree.costs[far] == 11.0
    tree_audit(ctx.tree)


@pytest.mark.parametrize("g_far", [10.0, 11.0])
def test_expand_edge_drops_a_stale_rewire_before_its_edge_check(g_far):
    # The queued edge mid -> far cannot make far cheaper even by its
    # heuristic (8 + 3 >= g_far), so it is dropped before any collision check.
    problem = make_demo_problem()
    ctx = _context(problem, world=World(DEMO_BOUNDS, []))
    root = ctx.tree.root_id
    mid = ctx.tree.add_child(root, (0.0, 0.0), 8.0)
    ctx.tree.add_child(root, (3.0, 0.0), g_far)
    ctx.c_sol = 40.0
    edge = math.dist((0.0, 0.0), (3.0, 0.0))
    h = h_hat((3.0, 0.0), problem.goal_samples)
    ctx.qe.insert(8.0 + edge + h, 8.0 + edge, (mid, (3.0, 0.0), edge, h))
    units, parents, costs = ctx.units, list(ctx.tree.parents), list(ctx.tree.costs)
    expand_edge(ctx)
    assert ctx.units == units
    assert list(ctx.tree.parents) == parents and list(ctx.tree.costs) == costs


def test_expand_edge_refuses_a_target_it_does_not_know():
    # Every queued target is an unconnected sample or a tree vertex; one that
    # is neither means a queue entry outlived its state.
    problem = make_demo_problem()
    ctx = _context(problem, world=World(DEMO_BOUNDS, []))
    root = ctx.tree.root_id
    x = (5.0, 5.0)
    assert x not in ctx.x_ncon.rows and x not in ctx.tree.by_state
    edge, h = math.dist(problem.root, x), h_hat(x, problem.goal_samples)
    ctx.qe.insert(edge + h, edge, (root, x, edge, h))
    with pytest.raises(AssertionError, match="^edge target is neither unconnected nor in the tree$"):
        expand_edge(ctx)


def test_the_clock_is_draws_plus_edge_points_plus_scanned_candidates(monkeypatch):
    # Count each kind of work at its source, with pass-through wrappers: the
    # run's clock must charge exactly one unit per draw, per edge-check point
    # and per scanned candidate, and nothing else.
    scenario = replace(resolve_scenario("demo"), stop=StopCondition(max_batches=3))
    work = {"draws": 0, "points": 0, "scanned": 0}
    point, all_free, expand = RngStream.point, World.all_free, bitstar.expand_vertex

    def counted_point(self, bounds):
        work["draws"] += 1
        return point(self, bounds)

    def counted_all_free(self, weights, x, y, probe=None):
        work["points"] += len(weights)
        return all_free(self, weights, x, y, probe)

    def counted_expand(*args):
        scanned = expand(*args)
        work["scanned"] += scanned
        return scanned

    monkeypatch.setattr(RngStream, "point", counted_point)
    monkeypatch.setattr(World, "all_free", counted_all_free)
    monkeypatch.setattr(bitstar, "expand_vertex", counted_expand)
    runs = []
    result = run_single(scenario, "bitstar", 1, batch_hook=lambda batch, ctx: runs.append(ctx))
    ctx = runs[-1]
    assert ctx.batch == 3 and math.isfinite(result.cost)
    assert all(work.values()), work
    assert ctx.units == work["draws"] + work["points"] + work["scanned"]
