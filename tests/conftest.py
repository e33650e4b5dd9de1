from __future__ import annotations

import pytest

from bitplan import Box, Circle, GoalRegion, ProblemDef, World

DEMO_BOUNDS = Box((-10.0, -10.0), (10.0, 10.0))
DEMO_ROOT = (0.0, -8.0)
DEMO_GOAL = (0.0, 8.0)


def make_demo_world() -> World:
    return World(
        DEMO_BOUNDS,
        [Circle((0.0, 0.0), 1.5), Circle((-7.0, 0.0), 1.5), Circle((7.0, 0.0), 1.5)],
    )


def make_demo_problem(goal_radius: float = 0.5) -> ProblemDef:
    return ProblemDef(DEMO_ROOT, (DEMO_GOAL,), GoalRegion(DEMO_GOAL, goal_radius))


def tree_audit(tree, tol: float = 1e-9) -> None:
    """Full structural audit: single root, mutual parent/child consistency,
    acyclicity, and cached cost-to-come equal to the parent-walk sum."""
    ids = [vid for vid, _ in tree.items()]
    roots = [v for v in ids if tree.parent(v) is None]
    assert roots == [tree.root_id], f"expected exactly one root, found {roots}"
    for vid in ids:
        p = tree.parent(vid)
        if p is not None:
            assert vid in tree.children(p), f"{vid} missing from children of {p}"
        for ch in tree.children(vid):
            assert tree.parent(ch) == vid, f"child {ch} does not point back to {vid}"
    for vid in ids:
        seen = set()
        cur = vid
        walked = 0.0
        while tree.parent(cur) is not None:
            assert cur not in seen, f"cycle through vertex {cur}"
            seen.add(cur)
            walked += tree.edge_cost(cur)
            assert tree.cost_to_come(cur) >= tree.cost_to_come(tree.parent(cur)), (
                f"cost-to-come decreases from {tree.parent(cur)} to {cur}"
            )
            cur = tree.parent(cur)
        assert cur == tree.root_id
        assert abs(walked - tree.cost_to_come(vid)) <= tol, (
            f"cached cost {tree.cost_to_come(vid)} != walked {walked} for {vid}"
        )


@pytest.fixture
def demo_world() -> World:
    return make_demo_world()


@pytest.fixture
def demo_problem() -> ProblemDef:
    return make_demo_problem()
