"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavy trial batteries are fixtures shared across
criteria: the one-second one here, the ten-batch one (`ten_batch_results`) in
conftest.py, where test_bitstar.py reads it too.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
import statistics

import numpy as np
import pytest

import bitplan.bitstar as bitstar
from bitplan import RngStream, World
from bitplan.bench import run_single
from bitplan.anytime import StopCondition
from bitplan.bitstar import PlannerParams, plan
from bitplan.cli import cli_main
from bitplan.space import h_hat
from conftest import DEMO_BOUNDS, SEEDS, make_demo_problem, tree_audit, tree_fuzz

# 8-connected shortest path across the demo world on a 0.05 m lattice,
# computed by the Dijkstra oracle below and frozen here.
ORACLE_COST = 17.284062043356666

# Exact optimum from the demo root (0, -8) to the goal sample (0, 8): a
# tangent, a 1.5 m arc round the centre circle, and a tangent.
ANALYTIC_OPTIMUM = 2 * math.sqrt(8**2 - 1.5**2) + 1.5 * (math.pi - 2 * math.acos(1.5 / 8))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _grid_shortest_path(resolution: float = 0.05) -> float:
    """Independent reference optimum: Dijkstra on an 8-connected lattice.

    Uses its own obstacle algebra (boundary blocked, matching the world
    contract) rather than any planner code.
    """
    lo, hi = -10.0, 10.0
    n = int(round((hi - lo) / resolution)) + 1
    xs = lo + resolution * np.arange(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    free = np.ones(len(pts), dtype=bool)
    for (cx, cy), r in [((0.0, 0.0), 1.5), ((-7.0, 0.0), 1.5), ((7.0, 0.0), 1.5)]:
        free &= (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 > r * r
    free = free.reshape(n, n)

    start = (200, 40)   # (0, -8)
    goal = (200, 360)   # (0, 8)
    assert free[start] and free[goal]
    diag = resolution * math.sqrt(2.0)
    moves = [(1, 0, resolution), (-1, 0, resolution), (0, 1, resolution), (0, -1, resolution),
             (1, 1, diag), (1, -1, diag), (-1, 1, diag), (-1, -1, diag)]
    dist = np.full((n, n), math.inf)
    dist[start] = 0.0
    pq = [(0.0, start)]
    while pq:
        d, (i, j) = heapq.heappop(pq)
        if (i, j) == goal:
            return d
        if d > dist[i, j]:
            continue
        for di, dj, c in moves:
            ni, nj = i + di, j + dj
            if 0 <= ni < n and 0 <= nj < n and free[ni, nj] and d + c < dist[ni, nj]:
                dist[ni, nj] = d + c
                heapq.heappush(pq, (d + c, (ni, nj)))
    return math.inf


@pytest.fixture(scope="module")
def one_second_results(demo_scenario):
    budget = dataclasses.replace(demo_scenario, stop=StopCondition(time_budget_s=1.0))
    return {
        planner: [run_single(budget, planner, seed) for seed in SEEDS]
        for planner in ("bitstar", "rrtstar")
    }


def test_criterion_1_demo_world_near_optimality(ten_batch_results):
    oracle = _grid_shortest_path()
    assert abs(oracle - ORACLE_COST) < 1e-9, f"oracle drifted: {oracle!r}"
    med = statistics.median(r.cost for r in ten_batch_results)
    ok = med <= 1.05 * oracle
    _report(1, ok, f"median cost {med:.4f} <= 1.05 x oracle {oracle:.4f} = {1.05 * oracle:.4f}")


def test_bitstar_never_beats_the_analytic_optimum(demo_scenario, ten_batch_results,
                                                  one_second_results):
    assert f"{ANALYTIC_OPTIMUM:.6f}" == "16.282083"
    goals = demo_scenario.problem.goal_samples
    results = [*ten_batch_results, *one_second_results["bitstar"]]
    assert all(r.path is not None and r.path[-1] in goals for r in results)
    lowest = min(r.cost for r in results)
    assert lowest >= ANALYTIC_OPTIMUM - 1e-9, f"cost {lowest!r} beats the optimum"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="goal disc: ROADMAP item 1")
def test_bitstar_at_seeds_34_and_40_never_beats_the_analytic_optimum(demo_scenario):
    # Any vertex in the 0.5 m goal disc is a solution today. At the demo's
    # 10 batches these two seeds end off the goal sample, at 15.877506 and
    # 15.867385, below the optimum. Making the goal samples the only
    # solutions turns this xfail into a pass, which strict=True reports.
    goals = demo_scenario.problem.goal_samples
    results = [run_single(demo_scenario, "bitstar", seed) for seed in (34, 40)]
    assert all(r.path is not None and r.path[-1] in goals for r in results)
    lowest = min(r.cost for r in results)
    assert lowest >= ANALYTIC_OPTIMUM - 1e-9, f"cost {lowest!r} beats the optimum"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="goal disc: ROADMAP item 1")
def test_rrtstar_at_8_planner_seconds_never_beats_the_analytic_optimum(demo_scenario):
    # RRT*'s side of the goal-disc defect: on seeds 1-5 at 8 planner-s,
    # seeds 1, 4 and 5 end at 16.1830, 16.1754 and 16.0835, below the
    # optimum, and four of the five paths end off the goal sample.
    scenario = dataclasses.replace(demo_scenario, stop=StopCondition(time_budget_s=8.0))
    goals = scenario.problem.goal_samples
    results = [run_single(scenario, "rrtstar", seed) for seed in range(1, 6)]
    assert all(r.path is not None and r.path[-1] in goals for r in results)
    lowest = min(r.cost for r in results)
    assert lowest >= ANALYTIC_OPTIMUM - 1e-9, f"cost {lowest!r} beats the optimum"


def test_criterion_2_anytime_monotonicity(ten_batch_results, one_second_results):
    trials = list(ten_batch_results)
    for results in one_second_results.values():
        trials.extend(results)
    bad = 0
    for r in trials:
        costs = [p.cost for p in r.convergence]
        if any(a < b for a, b in zip(costs, costs[1:])):
            bad += 1
    _report(2, bad == 0, f"{len(trials)} trials, {bad} with an increasing cost record")


def test_criterion_3_prune_soundness(demo_scenario, monkeypatch):
    problem = demo_scenario.problem
    goals = problem.goal_samples
    violations = []
    calls = 0
    orig = bitstar.prune

    def checked_prune(ctx, prob):
        # The incumbent's vertices, read before the prune, must all survive it.
        nonlocal calls
        path_ids = [ctx.tree.by_state[x] for x in ctx.path or ()]
        x_reuse = orig(ctx, prob)
        calls += 1
        for pos, vid in enumerate(path_ids):
            if ctx.tree.states[vid] is None:
                violations.append(("path", seed, ctx.batch, pos, len(path_ids)))
        for vid, state in enumerate(ctx.tree.states):
            if state is None:
                continue
            key = ctx.tree.costs[vid] + h_hat(state, goals)
            if key > ctx.c_sol:
                violations.append(("vertex", vid, key, ctx.c_sol))
        for x in ctx.x_ncon.rows:
            est = math.dist(problem.root, x) + h_hat(x, goals)
            if est >= ctx.c_sol:
                violations.append(("sample", x, est, ctx.c_sol))
        return x_reuse

    monkeypatch.setattr(bitstar, "prune", checked_prune)
    for seed in (1, 2, 3):
        plan(problem, demo_scenario.world, demo_scenario.bitstar, demo_scenario.stop,
             RngStream(seed))
    ok = calls > 0 and not violations
    _report(3, ok, f"{calls} instrumented prunes, {len(violations)} violations"
                   + (f", first {violations[:4]}" if violations else ""))


def test_criterion_4_queue_dominance():
    rng = random.Random(44)
    worst = -math.inf
    for _ in range(10_000):
        v = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        x = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        goals = tuple(
            (rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(rng.randint(1, 3))
        )
        g_v = rng.uniform(0, 30)  # any cost-to-come; it appears on both sides
        vertex_key = g_v + h_hat(v, goals)
        edge_key = g_v + math.dist(v, x) + h_hat(x, goals)
        worst = max(worst, vertex_key - edge_key)
    ok = worst <= 1e-9
    _report(4, ok, f"10000 pairs, max(vertex_key - edge_key) = {worst:.3e} <= 1e-9")


def test_criterion_5_tree_fuzz_audit():
    for ops, tree in tree_fuzz(55, 10_000, add_frac=0.55, max_cost=10.0):
        if ops % 1000 == 0:
            tree_audit(tree, tol=1e-9)
    tree_audit(tree, tol=1e-9)
    _report(5, True, f"{ops} randomized operations, final tree size {len(tree)}, audit clean")


def test_criterion_6_bitstar_beats_rrtstar_at_budget(one_second_results):
    med_bit = statistics.median(r.cost for r in one_second_results["bitstar"])
    med_rrt = statistics.median(r.cost for r in one_second_results["rrtstar"])
    ok = med_bit <= med_rrt
    _report(6, ok, f"median at 1 s: bitstar {med_bit:.4f} <= rrtstar {med_rrt:.4f}")


def test_criterion_7_batch_zero_trivial_case():
    problem = make_demo_problem()
    world = World(DEMO_BOUNDS, [])
    params = PlannerParams(batch_size=100, radius=20.0)
    result = plan(problem, world, params, StopCondition(max_batches=10), RngStream(123))
    direct = math.dist(problem.root, problem.goal_samples[0])
    first = result.convergence[0]
    ok = first.samples_drawn == 0 and abs(result.cost - direct) <= 1e-9
    _report(7, ok, f"solved with {first.samples_drawn} samples at cost {result.cost!r} "
                   f"(direct distance {direct!r})")


def test_criterion_8_cli_byte_determinism(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        csv = tmp_path / f"{tag}.csv"
        svgs = tmp_path / f"{tag}_svgs"
        rc = cli_main([
            "plan", "--scenario", "demo", "--planner", "bitstar", "--seed", "7",
            "--max-batches", "3", "--out", str(csv), "--svg-dir", str(svgs),
        ])
        assert rc == 0
        agg = tmp_path / f"{tag}_agg.csv"
        rc = cli_main([
            "bench", "--scenario", "demo", "--planner", "rrtstar", "--trials", "3",
            "--time-budget", "0.5", "--out", str(agg),
        ])
        assert rc == 0
        blob = [csv.read_bytes(), agg.read_bytes()]
        for f in sorted(svgs.iterdir()):
            blob.append(f.read_bytes())
        outputs.append(blob)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 2
    _report(8, ok, f"{len(outputs[0])} output files byte-identical across reruns")


def test_criterion_9_heuristic_admissibility(demo_world):
    rng = random.Random(99)

    def free_point():
        while True:
            x = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            if demo_world.is_free(x):
                return x

    bad = 0
    for _ in range(10_000):
        a, b = free_point(), free_point()
        if math.dist(a, b) > demo_world.true_cost(a, b):
            bad += 1
    _report(9, bad == 0, f"10000 free pairs, {bad} with c_hat exceeding the true cost")
