from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np

from bitplan import Box, OccupancyGrid, World
from bitplan.svg import render_svg
from conftest import make_demo_world

NS = "{http://www.w3.org/2000/svg}"


def _tags(path):
    root = ET.parse(path).getroot()
    return root, Counter(el.tag.removeprefix(NS) for el in root.iter())


def test_empty_tree_renders_frame_and_obstacles(tmp_path):
    out = tmp_path / "w.svg"
    render_svg(make_demo_world(), [], None, [], [], out)
    root, tags = _tags(out)
    assert tags["svg"] == 1
    assert tags["rect"] == 1  # the frame
    assert tags["circle"] == 3  # the obstacles
    assert "path" not in tags
    assert "ellipse" not in tags


def test_no_ellipse_without_incumbent(tmp_path):
    out = tmp_path / "w.svg"
    render_svg(make_demo_world(), [((0.0, -8.0), (1.0, -4.0))], None, [], [], out)
    _, tags = _tags(out)
    assert "ellipse" not in tags
    assert tags["path"] == 1


def test_ellipse_semi_axes(tmp_path):
    out = tmp_path / "w.svg"
    render_svg(
        make_demo_world(), [], None, [((0.0, -8.0), (0.0, 8.0), 20.0)], [], out
    )
    root, tags = _tags(out)
    assert tags["ellipse"] == 1
    ell = root.find(f"{NS}ellipse")
    assert math.isclose(float(ell.get("rx")), 10.0)
    assert math.isclose(float(ell.get("ry")), 6.0)  # 0.5 * sqrt(400 - 256)


def test_one_path_element_per_tree_edge(tmp_path):
    out = tmp_path / "w.svg"
    edges = [((0.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (2.0, 0.0)), ((0.0, 0.0), (-1.0, 2.0))]
    samples = [(5.0, 5.0), (-5.0, -5.0)]
    path = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    render_svg(make_demo_world(), edges, path, [], samples, out)
    _, tags = _tags(out)
    assert tags["path"] == len(edges)
    assert tags["polyline"] == 1
    assert tags["circle"] == 3 + len(samples)


def test_rect_obstacles_and_grid_rendering(tmp_path):
    w = World(Box((0.0, 0.0), (4.0, 4.0)), [Box((1.0, 1.0), (2.0, 3.0))])
    out = tmp_path / "r.svg"
    render_svg(w, [], None, [], [], out)
    _, tags = _tags(out)
    assert tags["rect"] == 2  # frame + obstacle

    import numpy as np

    from bitplan import OccupancyGrid

    grid = OccupancyGrid(2, 2, 1.0, (0.0, 0.0), np.array([[True, False], [False, True]]))
    gw = World(grid=grid)
    out2 = tmp_path / "g.svg"
    render_svg(gw, [], None, [], [], out2)
    _, tags2 = _tags(out2)
    assert tags2["rect"] == 3  # frame + two blocked cells


def test_svg_bytes_reproducible(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    args = (make_demo_world(), [((0.0, -8.0), (2.0, -3.0))], [(0.0, -8.0), (2.0, -3.0)],
            [((0.0, -8.0), (0.0, 8.0), 18.0)], [(1.0, 1.0)])
    render_svg(*args, a)
    render_svg(*args, b)
    assert a.read_bytes() == b.read_bytes()


def _per_cell_grid_rects(grid):
    """The grid's <rect> lines as a loop over every cell writes them."""
    lines, mpc = [], grid.meters_per_cell
    for row in range(grid.height):
        for col in range(grid.width):
            if grid.blocked[row, col]:
                x = grid.origin[0] + col * mpc
                y = grid.origin[1] + (row + 1) * mpc
                lines.append(f'<rect x="{x:.6f}" y="{-y:.6f}" width="{mpc:.6f}" '
                             f'height="{mpc:.6f}" fill="#555555"/>')
    return lines


def test_grid_cells_render_as_the_per_cell_loop_writes_them(tmp_path):
    # A column-major array, so row-major order must not come from memory order.
    blocked = (np.random.default_rng(5).random((37, 23)) < 0.3).T
    grid = OccupancyGrid(37, 23, 0.3, (-2.5, 1.25), blocked)
    render_svg(World(grid=grid), [], None, [], [], tmp_path / "grid.svg")
    free = OccupancyGrid(37, 23, 0.3, (-2.5, 1.25), np.zeros_like(blocked))
    render_svg(World(grid=free), [], None, [], [], tmp_path / "free.svg")
    head, frame, *tail = (tmp_path / "free.svg").read_text().split("\n")
    want = "\n".join([head, frame, *_per_cell_grid_rects(grid), *tail])
    assert (tmp_path / "grid.svg").read_text() == want
