from __future__ import annotations

import math
import random

import numpy as np
import pytest

from bitplan import Box, Circle, ProblemDef, StopCondition, World
from bitplan.anytime import AnytimeRun
from bitplan.bench import resolve_scenario, run_single
from bitplan.tree import Tree

DEMO_BOUNDS = Box((-10.0, -10.0), (10.0, 10.0))
DEMO_ROOT = (0.0, -8.0)
DEMO_GOAL = (0.0, 8.0)

# The seeds of the acceptance battery's trials.
SEEDS = range(1, 21)


def make_demo_world() -> World:
    return World(
        DEMO_BOUNDS,
        [Circle((0.0, 0.0), 1.5), Circle((-7.0, 0.0), 1.5), Circle((7.0, 0.0), 1.5)],
    )


def make_demo_problem(goal_radius: float = 0.5) -> ProblemDef:
    return ProblemDef(DEMO_ROOT, (DEMO_GOAL,), Circle(DEMO_GOAL, goal_radius))


def make_run(world: World, problem: ProblemDef | None = None,
             c_sol: float = math.inf) -> AnytimeRun:
    """A fresh run on world (of the demo problem by default) whose incumbent
    cost is c_sol, for tests of its clock, its probe and the sampler."""
    run = AnytimeRun(problem or make_demo_problem(), world, StopCondition(max_batches=0))
    run.c_sol = c_sol
    return run


def tree_lists_audit(tree) -> None:
    """The per-id lists agree with each other: every live id's cached cost is
    bitwise its parent's plus its edge's, and every removed id reads state
    None, parent None and cost inf. by_state maps exactly the live states to
    their ids. states_matrix() is (2, len(states)) with contiguous rows;
    column v is bitwise states[v] for a live v and all inf for a removed v."""
    assert tree.by_state == {s: v for v, s in enumerate(tree.states) if s is not None}
    edge_costs = tree._edge_costs
    for vid, (state, p, cost) in enumerate(zip(tree.states, tree.parents, tree.costs)):
        if state is None:
            assert p is None and cost == math.inf, f"removed id {vid} reads {p}, {cost}"
        elif p is not None:
            assert cost == tree.costs[p] + edge_costs[vid], (
                f"cached cost {cost} of {vid} is not its parent's plus its edge's"
            )
    mat = tree.states_matrix()
    assert mat.shape == (2, len(tree.states)) and mat.strides[1] == mat.itemsize
    cols = [(math.inf, math.inf) if s is None else s for s in tree.states]
    assert mat.T.tobytes() == np.array(cols, dtype=float).tobytes()


def samples_audit(samples) -> None:
    """A bitstar.Samples set agrees with itself: its states are distinct,
    rows maps each live state to its own row in row order, and mat is
    (2, len(states)) with contiguous rows, where a live row's column is
    bitwise its state and every other column is inf in both coordinates,
    as the tree's states_matrix() keeps a removed vertex."""
    states, rows = samples.states, samples.rows
    assert len(set(states)) == len(states)
    assert all(states[r] == x for x, r in rows.items())
    assert list(rows.values()) == sorted(rows.values())
    mat = samples.mat
    assert mat.shape == (2, len(states)) and mat.strides[1] == mat.itemsize
    cols = [x if x in rows else (math.inf, math.inf) for x in states]
    assert mat.T.tobytes() == np.array(cols, dtype=float).reshape(-1, 2).tobytes()


def tree_audit(tree, tol: float = 1e-9) -> None:
    """Full structural audit: the lists agree (tree_lists_audit), a single
    root, mutual parent/child consistency, acyclicity, and cached
    cost-to-come equal to the parent-walk sum."""
    tree_lists_audit(tree)
    parents, costs = tree.parents, tree.costs
    ids = [vid for vid, state in enumerate(tree.states) if state is not None]
    roots = [v for v in ids if parents[v] is None]
    assert roots == [tree.root_id], f"expected exactly one root, found {roots}"
    for vid in ids:
        p = parents[vid]
        if p is not None:
            assert vid in tree.children(p), f"{vid} missing from children of {p}"
        for ch in tree.children(vid):
            assert parents[ch] == vid, f"child {ch} does not point back to {vid}"
    for vid in ids:
        seen = set()
        cur = vid
        walked = 0.0
        while parents[cur] is not None:
            assert cur not in seen, f"cycle through vertex {cur}"
            seen.add(cur)
            walked += tree._edge_costs[cur]
            assert costs[cur] >= costs[parents[cur]], (
                f"cost-to-come decreases from {parents[cur]} to {cur}"
            )
            cur = parents[cur]
        assert cur == tree.root_id
        assert abs(walked - costs[vid]) <= tol, (
            f"cached cost {costs[vid]} != walked {walked} for {vid}"
        )


def tree_fuzz(seed: int, n_ops: int, add_frac: float, max_cost: float):
    """Yield (ops, tree) after each of n_ops random operations on a Tree
    rooted at the origin, ops counting the operations done so far.

    An operation adds a child to a random vertex with probability add_frac
    (always while the tree has under three vertices), rewires a random
    non-root vertex to a random parent up to 0.85 (a refused cycle still
    counts), and removes a random non-root subtree otherwise. States are
    uniform on [-100, 100]^2 and edge costs on [0, max_cost]; a drawn state
    already in the tree is skipped and not counted.
    """
    rng = random.Random(seed)
    tree = Tree((0.0, 0.0))
    ids = [tree.root_id]
    ops = 0
    while ops < n_ops:
        roll = rng.random()
        if roll < add_frac or len(ids) < 3:
            parent = rng.choice(ids)
            state = (rng.uniform(-100, 100), rng.uniform(-100, 100))
            if state in tree.by_state:
                continue
            ids.append(tree.add_child(parent, state, rng.uniform(0, max_cost)))
        elif roll < 0.85:
            child = rng.choice(ids[1:])
            parent = rng.choice(ids)
            try:
                tree.rewire(child, parent, rng.uniform(0, max_cost))
            except ValueError:
                pass  # rejected cycles still count as exercised operations
        else:
            victim = rng.choice(ids[1:])
            gone = {vid for vid, _ in tree.remove_subtree(victim)}
            ids = [v for v in ids if v not in gone]
        ops += 1
        yield ops, tree


@pytest.fixture(scope="session")
def demo_scenario():
    return resolve_scenario("demo")


@pytest.fixture(scope="session")
def ten_batch_results(demo_scenario):
    """BIT* on the built-in demo at its own stop (10 batches), one result per
    seed of SEEDS in order: planned once for every module that reads it."""
    return [run_single(demo_scenario, "bitstar", seed) for seed in SEEDS]


@pytest.fixture
def demo_world() -> World:
    return make_demo_world()


@pytest.fixture
def demo_problem() -> ProblemDef:
    return make_demo_problem()
