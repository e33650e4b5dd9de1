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


def edited(text, old, new):
    """A scenario text (str or bytes) with its one occurrence of the anchor old
    replaced by new. An anchor that is absent, or not unique, fails the test
    here, so an edit cannot quietly leave the text unedited."""
    assert text.count(old) == 1, f"anchor {old!r} occurs {text.count(old)} times, not once"
    return text.replace(old, new)


def make_run(world: World, problem: ProblemDef | None = None,
             c_sol: float = math.inf) -> AnytimeRun:
    """A fresh run on world (of the demo problem by default) whose incumbent
    cost is c_sol, for tests of its clock, its probe and the sampler."""
    run = AnytimeRun(problem or make_demo_problem(), world, StopCondition(max_batches=0))
    run.c_sol = c_sol
    return run


def sq_dist_to_segment(x, y, c) -> float:
    """Squared distance from the point c to the closed segment x..y: to the
    projection of c onto the segment's line, clamped to the segment."""
    dx, dy = y[0] - x[0], y[1] - x[1]
    l2 = dx * dx + dy * dy
    t = 0.0 if l2 == 0.0 else min(1.0, max(0.0, ((c[0] - x[0]) * dx + (c[1] - x[1]) * dy) / l2))
    px, py = x[0] + t * dx - c[0], x[1] + t * dy - c[1]
    return px * px + py * py


def segment_blocked(world: World, x, y) -> bool:
    """The exact answer, independent of World's point kernel: whether the
    closed segment x..y leaves a geometric world's closed bounds or meets
    one of its closed obstacles. The bounds are convex, so both endpoints
    inside means the segment is; a circle is met when the segment comes
    within its radius; a Box is met when Liang-Barsky clipping of the
    segment to it leaves a nonempty parameter interval."""
    assert world.grid is None, "the reference covers geometric worlds only"
    lo, hi = world.bounds.lo, world.bounds.hi
    if not all(lo[i] <= p[i] <= hi[i] for p in (x, y) for i in (0, 1)):
        return True
    for ob in world.obstacles:
        if isinstance(ob, Circle):
            if sq_dist_to_segment(x, y, ob.center) <= ob.radius ** 2:
                return True
            continue
        t0, t1 = 0.0, 1.0
        for i in (0, 1):
            d = y[i] - x[i]
            if d == 0.0:
                if not ob.lo[i] <= x[i] <= ob.hi[i]:
                    t0, t1 = 1.0, 0.0
            else:
                a, b = sorted(((ob.lo[i] - x[i]) / d, (ob.hi[i] - x[i]) / d))
                t0, t1 = max(t0, a), min(t1, b)
        if t0 <= t1:
            return True
    return False


def tree_lists_audit(tree) -> None:
    """The per-id lists agree with each other: every live id's cached cost is
    bitwise its parent's plus its edge's, and every removed id reads state
    None, parent None and cost inf. by_state maps exactly the live states to
    their ids. states_matrix() is (2, len(states)) with contiguous rows;
    column v is bitwise states[v] for a live v and all inf for a removed v.
    The storage holds no leaf's own container and no duplicate id object: a
    vertex's child ids are a tuple, the (shared) empty tuple exactly when no
    live id has it as parent, and every stored parent id and child id is that
    vertex's own id object, by_state[states[v]]."""
    by_state, states = tree.by_state, tree.states
    assert by_state == {s: v for v, s in enumerate(states) if s is not None}
    with_child = {p for s, p in zip(states, tree.parents) if s is not None and p is not None}
    for vid, kids in enumerate(tree._children):
        assert type(kids) is tuple and (kids == ()) == (vid not in with_child), (
            f"vertex {vid} has child ids {kids!r} and {'a' if vid in with_child else 'no'} "
            f"live child"
        )
        for ch in kids:
            assert ch is by_state.get(states[ch]), f"child id {ch} of {vid} is not the tree's own"
    edge_costs = tree._edge_costs
    for vid, (state, p, cost) in enumerate(zip(states, tree.parents, tree.costs)):
        if state is None:
            assert p is None and cost == math.inf, f"removed id {vid} reads {p}, {cost}"
        elif p is not None:
            assert p is by_state.get(states[p]), f"parent id {p} of {vid} is not the tree's own"
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
    as the tree's states_matrix() keeps a removed vertex. h_list holds one
    Python float per row, element for element the numpy h_hat values h,
    whose form (h_hat_rows, not the scalar h_hat) it must keep: the two
    can differ by an ulp."""
    states, rows = samples.states, samples.rows
    assert len(samples.h_list) == len(states) == samples.h.shape[0]
    assert all(type(v) is float for v in samples.h_list)
    assert samples.h_list == samples.h.tolist()
    assert len(set(states)) == len(states)
    assert all(states[r] == x for x, r in rows.items())
    assert list(rows.values()) == sorted(rows.values())
    mat = samples.mat
    assert mat.shape == (2, len(states)) and mat.strides[1] == mat.itemsize
    cols = [x if x in rows else (math.inf, math.inf) for x in states]
    assert mat.T.tobytes() == np.array(cols, dtype=float).reshape(-1, 2).tobytes()


def tree_audit(tree, tol: float = 1e-9) -> None:
    """Full structural audit: the lists agree (tree_lists_audit), a single
    root, each live vertex's children exactly the live ids whose parent it
    is, each once, acyclicity, and cached cost-to-come equal to the
    parent-walk sum."""
    tree_lists_audit(tree)
    parents, costs = tree.parents, tree.costs
    ids = [vid for vid, state in enumerate(tree.states) if state is not None]
    roots = [v for v in ids if parents[v] is None]
    assert roots == [tree.root_id], f"expected exactly one root, found {roots}"
    # A child list can hold an id twice, or a stale or foreign one: compare
    # each vertex's children, as a sorted list, with the ids pointing to it.
    pointing = {vid: [] for vid in ids}
    for vid in ids:
        p = parents[vid]
        if p is not None:
            assert p in pointing, f"{vid}'s parent {p} is not a live vertex"
            pointing[p].append(vid)
    for vid in ids:
        kids = tree.children(vid)
        assert sorted(kids) == pointing[vid], (
            f"children of {vid} are {kids}, but the ids whose parent is {vid} are {pointing[vid]}"
        )
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
