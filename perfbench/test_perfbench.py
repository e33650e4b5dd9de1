"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bitplan.bitstar  # noqa: E402
import bitplan.cli  # noqa: E402
import bitplan.world  # noqa: E402
from gridworld import GridWorld  # noqa: E402
from run import ResultTap, run_query  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_traced_demo_query_reproduces_the_reanchor_baseline(tmp_path):
    """Demo, BIT*, seed 1, 10 batches: the counts the ROADMAP baseline states."""
    originals = (bitplan.cli.run_single, bitplan.world.World.all_free,
                 bitplan.bitstar.sample_batch)
    tap = ResultTap(bitplan.cli.run_single)
    bitplan.cli.run_single = tap
    tracer = Tracer()
    tracer.install()
    try:
        q = run_query(WORKLOADS["demo-bitstar"], "demo", 1, tmp_path, tap)
    finally:
        tracer.uninstall()
        bitplan.cli.run_single = tap.run_single
    assert (bitplan.cli.run_single, bitplan.world.World.all_free,
            bitplan.bitstar.sample_batch) == originals

    assert q.code == 0 and q.error is None
    assert tracer.calls("world.segment_cost") == 60_653
    assert tracer.counts["world.segment_cost.inf"] == 60_197
    assert tracer.counts["world.all_free.points"] == 1_532_700
    assert tracer.counts["bitstar.scanned"] == 337_182
    assert tracer.calls("space.point") == 10_381
    last = q.result.convergence[-1]
    assert f"{last.elapsed_s:.6f}" == "7.521052"
    assert f"{q.result.cost:.6f}" == "16.294207"
    assert last.tree_vertices == 437
    # Spans nest: every kept span lies inside its parent.
    spans = tracer.spans
    assert spans[0][0] == "cli.cli_main" and spans[0][3] == -1
    for name, start, end, parent, _ in spans[1:]:
        assert spans[parent][1] <= start <= end <= spans[parent][2], name


def test_grid_world_is_a_pure_function_of_the_seed(tmp_path):
    a = GridWorld(7).write(tmp_path / "a")
    b = GridWorld(7).write(tmp_path / "b")
    c = GridWorld(8).write(tmp_path / "c")
    assert (a.parent / "map.pgm").read_bytes() == (b.parent / "map.pgm").read_bytes()
    assert (a.parent / "map.pgm").read_bytes() != (c.parent / "map.pgm").read_bytes()
    assert a.read_text() == b.read_text()


def test_grid_world_blocks_the_straight_line_and_leaves_room_to_sample():
    world = GridWorld(3)
    from bitplan.world import OccupancyGrid, World

    grid = OccupancyGrid(400, 400, 0.1, (0.0, 0.0), world.blocked)
    w = World(grid=grid, checks_per_meter=10)
    assert w.is_free(world.root) and w.is_free(world.goal)
    assert w.true_cost(world.root, world.goal) == float("inf")
    assert world.check_not_starved() > 3e-4
