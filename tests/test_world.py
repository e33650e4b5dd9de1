from __future__ import annotations

import copy
import math
import pickle
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import bitplan.world as world_module
from bitplan import Box, Circle, World
from bitplan.anytime import StopCondition
from bitplan.bench import resolve_scenario, run_single
from bitplan.space import ProblemDef
from bitplan.world import (
    GridLoadError,
    OccupancyGrid,
    _bisection_order,
    _p2_values,
    _t_weights,
    load_occupancy_grid,
    save_occupancy_grid,
)
from conftest import DEMO_BOUNDS, make_demo_world, make_run, segment_blocked, sq_dist_to_segment


def _rows(a, b, n):
    """The n points of the edge a..b in `_t_weights(n)` order, as the kernel computes them."""
    (x0, x1), (y0, y1) = a, b
    return [(o * x0 + t * y0, o * x1 + t * y1) for o, t in _t_weights(n)]


def test_is_free_examples(demo_world):
    assert not demo_world.is_free((0.0, 0.0))  # circle center
    assert demo_world.is_free((0.0, -8.0))
    assert not demo_world.is_free((11.0, 0.0))  # outside bounds


def test_obstacle_boundaries_are_blocked(demo_world):
    assert not demo_world.is_free((1.5, 0.0))  # exactly on the circle
    assert demo_world.is_free((1.5000001, 0.0))
    w = World(Box((-10.0, -10.0), (10.0, 10.0)), [Box((0.0, 0.0), (1.0, 1.0))])
    assert not w.is_free((1.0, 1.0))
    assert w.is_free((1.0001, 1.0))


def test_true_cost_examples(demo_world):
    assert demo_world.true_cost((0.0, -8.0), (0.0, 8.0)) == math.inf
    assert demo_world.true_cost((-3.0, -3.0), (-3.0, 4.0)) == 7.0
    assert demo_world.true_cost((2.0, -5.0), (2.0, -5.0)) == 0.0
    assert demo_world.true_cost((0.0, 0.0), (0.0, 0.0)) == math.inf  # blocked endpoint


def test_true_cost_segment_clearance_oracle(demo_world):
    # The x = -3 vertical segment clears every circle by the point-segment
    # distance oracle, so its cost must equal its length.
    a, b = (-3.0, -3.0), (-3.0, 4.0)
    for ob in demo_world.obstacles:
        assert sq_dist_to_segment(a, b, ob.center) > ob.radius ** 2
    assert demo_world.true_cost(a, b) == math.dist(a, b)


def test_a_point_checked_edge_tunnels_into_the_centre_circle(demo_world):
    # An edge of demo seed 1's tree: its 15 check points all miss the centre
    # circle, so its cost is finite, yet the segment enters the circle by
    # 1.53 mm. The exact reference sees it. ROADMAP item 13 makes the kernel
    # exact.
    a, b = (0.9018760379477904, -3.2672570860533696), (1.5411212723037409, 0.08172882435119533)
    assert math.ceil(math.dist(a, b) * demo_world.checks_per_meter) + 1 == 15
    assert demo_world.true_cost(a, b) == 3.409448796761008
    assert segment_blocked(demo_world, a, b)
    depth = 1.5 - math.sqrt(sq_dist_to_segment(a, b, (0.0, 0.0)))
    assert 0.00153 < depth < 0.00154


@pytest.mark.parametrize("which", ["demo", "rects"])
def test_the_point_kernel_blocks_only_edges_the_reference_blocks(which):
    # Soundness of the point kernel: a check point that is blocked lies on
    # the segment, so the exact reference must block the edge too. The
    # converse fails where an edge tunnels (see the test above).
    world = resolve_scenario(which).world
    rng = random.Random(41)
    blocked = 0
    for _ in range(2000):
        a = (rng.uniform(-10.5, 10.5), rng.uniform(-10.5, 10.5))
        b = (rng.uniform(-10.5, 10.5), rng.uniform(-10.5, 10.5))
        if world.true_cost(a, b) == math.inf:
            blocked += 1
            assert segment_blocked(world, a, b), (a, b)
    assert 0 < blocked < 2000


def test_true_cost_symmetric_random(demo_world):
    rng = random.Random(11)
    for _ in range(300):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert demo_world.true_cost(a, b) == demo_world.true_cost(b, a)


def test_true_cost_is_length_or_inf(demo_world):
    rng = random.Random(13)
    for _ in range(300):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        cost = demo_world.true_cost(a, b)
        assert cost == math.dist(a, b) or cost == math.inf


def test_true_cost_refuses_an_edge_longer_than_any_in_bounds(demo_world):
    """A NaN, infinite, or longer than twice the bounds' diagonal edge costs
    inf at once: no exception, no point charged, no weights cached for it."""
    run = make_run(demo_world)
    cached = _t_weights.cache_info().currsize
    # Non-finite endpoints first: before the check they raised at once.
    for a, b in [((math.inf, 0.0), (0.0, -8.0)), ((math.nan, 0.0), (0.0, -8.0)),
                 ((0.0, -8.0), (-math.inf, math.inf)), ((0.0, -8.0), (1e5, -8.0))]:
        assert demo_world.true_cost(a, b) == math.inf
        assert demo_world.true_cost(b, a, run) == math.inf
    assert run.units == 0
    assert _t_weights.cache_info().currsize == cached


def test_nested_refinement(demo_world):
    # With nested check-point sets (n and 2n-1 points), freeness at the finer
    # resolution implies freeness at the coarser one.
    rng = random.Random(17)
    for _ in range(300):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        n = math.ceil(math.dist(a, b) * 4.0) + 1
        if n < 2:
            continue
        if demo_world.all_free(_t_weights(2 * n - 1), a, b):
            assert demo_world.all_free(_t_weights(n), a, b)


def test_world_requires_exactly_one_representation():
    grid = OccupancyGrid(2, 2, 1.0, (0.0, 0.0), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        World(Box((0.0, 0.0), (2.0, 2.0)), obstacles=[], grid=grid)
    with pytest.raises(ValueError):
        World()


def test_pgm_p2_example(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n0 255 255 0\n")
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert bool(w.grid.blocked[0, 0]) and bool(w.grid.blocked[1, 1])
    assert not w.grid.blocked[0, 1] and not w.grid.blocked[1, 0]
    assert not w.is_free((0.5, 0.5))
    assert w.is_free((1.5, 0.5))
    assert w.is_free((0.5, 1.5))
    assert not w.is_free((1.5, 1.5))


def test_pgm_all_free(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n# a comment\n3 2\n255\n" + " ".join(["255"] * 6) + "\n")
    w = load_occupancy_grid(f, 0.5, (-1.0, -1.0), 127)
    rng = random.Random(5)
    for _ in range(100):
        x = (rng.uniform(-1, 0.4999), rng.uniform(-1, -0.0001))
        assert w.is_free(x)


def test_pgm_grid_max_edge_out_of_bounds(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n255 255 255 255\n")
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert not w.is_free((2.0, 1.0))  # on the max edge
    assert not w.is_free((1.0, 2.0))
    assert w.is_free((1.999999, 1.0))


def test_pgm_size_mismatch(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n0 255 255\n")
    with pytest.raises(GridLoadError, match="size"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    f.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255]))
    with pytest.raises(GridLoadError, match="^size: expected 4 pixel bytes, got 3$"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)


@pytest.mark.parametrize("bad, detail", [
    ("1.5", "non-integer"),
    ("0x1", "non-integer"),
    ("256", "out of range 0..255"),
    ("-1", "out of range 0..255"),
    ("12345678901234567890", "out of range 0..255"),  # past int64
])
def test_pgm_p2_bad_pixel_value(tmp_path, bad, detail):
    f = tmp_path / "g.pgm"
    f.write_text(f"P2\n2 2\n255\n0 255 {bad} 0\n")
    with pytest.raises(GridLoadError, match=f"pixels: .*{detail}"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)


def _reference_p2_values(raster: bytes, n: int) -> np.ndarray:
    """The split() + int() parser the byte-array one replaced, range check included."""
    body = raster.split()
    if len(body) != n:
        raise GridLoadError(f"size: expected {n} pixel values, got {len(body)}")
    try:
        values = np.array(body, dtype=np.int64)
    except ValueError:
        raise GridLoadError("pixels: non-integer pixel value") from None
    except OverflowError:
        raise GridLoadError("pixels: value out of range 0..255") from None
    if values.min() < 0 or values.max() > 255:
        raise GridLoadError("pixels: value out of range 0..255")
    return values


def _load_p2_raster(path, raster: bytes, n: int) -> World:
    path.write_bytes(b"P2\n%d 1\n255\n" % n + raster)
    return load_occupancy_grid(path, 1.0, (0.0, 0.0), 127)


_NON_INT = "pixels: non-integer pixel value"
_RANGE = "pixels: value out of range 0..255"


@pytest.mark.parametrize("raster, expected", [
    *((b"0%c255%c" % (sep, sep), [0, 255]) for sep in b" \t\n\r\v\f"),
    (b"+5 00255", [5, 255]),
    (b"-0\n255", [0, 255]),
    (b" \t\n\r\v\f ", "size: expected 2 pixel values, got 0"),
    (b"+ 255", _NON_INT),
    (b"0 -", _NON_INT),
    (b"5-3 0", _NON_INT),
    (b"0 2\x0055", _NON_INT),
    (b"0 #255", _NON_INT),
    (b"1_0 0", _NON_INT),  # int() took it; PGM has no digit-group underscores
    (b"0 99999999999999999999", _RANGE),
    (b"-99999999999999999999 0", _RANGE),
    (b"+99999999999999999999 0", _RANGE),
])
def test_p2_raster_grammar(tmp_path, raster, expected):
    f = tmp_path / "g.pgm"
    if isinstance(expected, str):
        with pytest.raises(GridLoadError, match=f"^{re.escape(expected)}$"):
            _load_p2_raster(f, raster, 2)
    else:
        w = _load_p2_raster(f, raster, 2)
        assert w.grid.blocked.tolist() == [[v <= 127 for v in expected]]


def test_p2_crlf_header(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_bytes(b"P2\r\n2 1\r\n255\r\n0 255\r\n")
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert w.grid.blocked.tolist() == [[True, False]]


def test_p2_parser_agrees_with_split_and_int(tmp_path):
    # Short random rasters over a small alphabet. A verdict may differ only
    # where the raster holds a "_", which int() took between digits: past the
    # token count, such a raster is now non-integer whatever the reference said.
    alphabet = [*b"0123456789" * 3, *b"+-" * 2, *b" \t\n\r\v\f" * 2, *b"_.x\x00", 0x85, 0xA0, 0xE9]
    rng = random.Random(20)
    f = tmp_path / "g.pgm"
    verdicts = dict.fromkeys(["same values", "same error", "underscore", "underscore, was accepted"], 0)
    for _ in range(3000):
        raster = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        n = max(1, len(raster.split())) + (rng.random() < 0.1)
        try:
            want, want_err = _reference_p2_values(raster, n), None
        except GridLoadError as e:
            want, want_err = None, str(e)
        try:
            _load_p2_raster(f, raster, n)
            got_err = None
        except GridLoadError as e:
            got_err = str(e)
        if b"_" in raster and not (want_err or "").startswith("size"):
            assert got_err == _NON_INT, raster
            verdicts["underscore, was accepted" if want_err is None else "underscore"] += 1
        elif want_err is not None:
            assert got_err == want_err, raster
            verdicts["same error"] += 1
        else:
            assert got_err is None, raster
            assert np.array_equal(_p2_values(np.frombuffer(raster, np.uint8), n), want), raster
            verdicts["same values"] += 1
    assert min(verdicts.values()) >= 5, verdicts


def test_p2_load_builds_no_object_per_pixel(tmp_path):
    # A 400 x 400 map, the size of the benchmark's grid. The split() parser
    # peaked above 8 MB on it, one bytes object per pixel; the byte-array
    # parser stays near 3 MB.
    rng = np.random.default_rng(4)
    f = tmp_path / "g.pgm"
    save_occupancy_grid(OccupancyGrid(400, 400, 0.1, (0.0, 0.0), rng.random((400, 400)) < 0.15), f)
    tracemalloc.start()
    try:
        load_occupancy_grid(f, 0.1, (0.0, 0.0), 127)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("threshold", [300, -1])
def test_pgm_load_rejects_a_threshold_outside_0_255(tmp_path, threshold):
    # At 300 every cell was blocked, at -1 every cell was free.
    f = tmp_path / "g.pgm"
    f.write_text("P2\n3 1\n255\n0 1 255\n")
    with pytest.raises(GridLoadError, match=f"^threshold: must be in 0..255, got {threshold}$"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), threshold)


@pytest.mark.parametrize("threshold, blocked", [(0, [True, False, False]), (255, [True, True, True])])
def test_pgm_load_threshold_ends(tmp_path, threshold, blocked):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n3 1\n255\n0 1 255\n")
    assert load_occupancy_grid(f, 1.0, (0.0, 0.0), threshold).grid.blocked.tolist() == [blocked]


def test_p2_writer_writes_one_line_per_row(tmp_path):
    blocked = np.random.default_rng(8).random((3, 4)) < 0.5
    f = tmp_path / "g.pgm"
    save_occupancy_grid(OccupancyGrid(4, 3, 1.0, (0.0, 0.0), blocked), f)
    rows = [" ".join("0" if b else "255" for b in row) for row in blocked]
    assert f.read_bytes() == ("P2\n4 3\n255\n" + "\n".join(rows) + "\n").encode("ascii")


def test_pgm_bad_header(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P3\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(GridLoadError, match="magic"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    f.write_text("P2\n2 2\n15\n0 0 0 0\n")
    with pytest.raises(GridLoadError, match="maxval"):
        load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    f.write_text("P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(GridLoadError, match="meters_per_cell"):
        load_occupancy_grid(f, 0.0, (0.0, 0.0), 127)
    for data, message in [
        (b"P2\nx 2\n255\n0 0 0 0\n", "header: width, height, and maxval must be integers"),
        (b"P2\n0 2\n255\n0\n", "size: width and height must be positive"),
        (b"P2\n2 2", "header: truncated file"),
        (b"P2\n2 2\n255", "header: missing pixel data"),
        (b"P2\n2 1\n# runs to the end of the file", "header: truncated file"),
        (b"P2 2 1 # 255\n", "header: truncated file"),
        (b"P2#x\n2 1\n255\n0 255\n", "magic: expected P2 or P5, got 'P2#x'"),
        (b"P2\n2 1\n255#\n0 255\n", "header: width, height, and maxval must be integers"),
        # The one whitespace byte after maxval ends the header, so a # after
        # it is raster, not a comment.
        (b"P2\n2 1\n255\n#0 255\n", "pixels: non-integer pixel value"),
        (b"P2\n2 1\n255 # 0\n", "pixels: non-integer pixel value"),
    ]:
        f.write_bytes(data)
        with pytest.raises(GridLoadError) as excinfo:
            load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
        assert str(excinfo.value) == message, data


@pytest.mark.parametrize("header", [
    b"P2 # magic\n2 1\n255\n",
    b"P2\n# before the width\n2 # width\n# between\n1 # height\n# before maxval\n255\n",
    b"P2\r2\x0b1\x0c255\n",
    b"P2\x0c2\r1\x0b255\r",
    b"P2\n2 1\n255\x0b",
])
def test_pgm_header_skips_comments_and_every_ascii_space(tmp_path, header):
    # A P2 raster; the same header then starts a P5 raster right after the
    # single whitespace byte that ends maxval.
    f = tmp_path / "g.pgm"
    f.write_bytes(header + b"0 255\n")
    assert load_occupancy_grid(f, 1.0, (0.0, 0.0), 127).grid.blocked.tolist() == [[True, False]]
    f.write_bytes(b"P5" + header[2:] + bytes([255, 0]))
    assert load_occupancy_grid(f, 1.0, (0.0, 0.0), 127).grid.blocked.tolist() == [[False, True]]


def test_occupancy_grid_rejects_an_array_of_the_wrong_shape():
    with pytest.raises(ValueError, match="^occupancy array shape does not match width/height$"):
        OccupancyGrid(2, 3, 1.0, (0.0, 0.0), np.zeros((2, 3), dtype=bool))


def test_world_rejects_an_obstacle_that_is_neither_a_circle_nor_a_box():
    with pytest.raises(ValueError) as excinfo:
        World(Box((0.0, 0.0), (4.0, 4.0)), [(1.0, 1.0)])
    assert str(excinfo.value) == "obstacles must be Circles or Boxes, got (1.0, 1.0)"


def test_pgm_p5_binary(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    w = load_occupancy_grid(f, 1.0, (0.0, 0.0), 127)
    assert bool(w.grid.blocked[0, 0]) and bool(w.grid.blocked[1, 1])


@pytest.mark.parametrize("binary", [False, True])
def test_grid_round_trip(tmp_path, binary):
    """The writer's P2 file, or the same raster as P5 bytes, loads back."""
    rng = np.random.default_rng(21)
    blocked = rng.random((7, 5)) < 0.4
    f = tmp_path / "g.pgm"
    if binary:
        f.write_bytes(b"P5\n5 7\n255\n" + np.where(blocked, 0, 255).astype(np.uint8).tobytes())
    else:
        save_occupancy_grid(OccupancyGrid(5, 7, 0.25, (1.0, -2.0), blocked), f)
    w = load_occupancy_grid(f, 0.25, (1.0, -2.0), 127)
    assert np.array_equal(w.grid.blocked, blocked)


def test_grid_world_bounds_derived(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n4 2\n255\n" + " ".join(["255"] * 8) + "\n")
    w = load_occupancy_grid(f, 0.5, (1.0, 2.0), 127)
    assert w.bounds.lo == (1.0, 2.0)
    assert w.bounds.hi == (3.0, 3.0)


def test_a_run_tracks_work(demo_world):
    run = make_run(demo_world)
    # A point test is not metered: the sampler charges its draws itself.
    assert demo_world.is_free((0.0, -8.0))
    assert run.units == 0
    cost = demo_world.true_cost((0.0, -8.0), (0.0, -4.0), run)
    assert cost == 4.0
    assert run.units == math.ceil(4.0 * 4.0) + 1
    run.units += 10
    assert run.units == 27
    assert run.elapsed_s() == 27 / 250_000.0
    # A zero-length edge checks its one point, x itself, at one unit.
    assert demo_world.true_cost((0.0, -8.0), (0.0, -8.0), run) == 0.0
    assert run.units == 28



def _walled_grid_world(seed):
    """A 40 x 30 grid of 0.25 m cells with one-cell walls, each with a gap."""
    rng = np.random.default_rng(seed)
    blocked = np.zeros((30, 40), dtype=bool)
    for col in rng.choice(np.arange(2, 38), 5, replace=False):
        blocked[:, col] = True
        blocked[rng.integers(0, 30), col] = False
    for row in rng.choice(np.arange(2, 28), 3, replace=False):
        blocked[row, :] = True
        blocked[row, rng.integers(0, 40)] = False
    return World(grid=OccupancyGrid(40, 30, 0.25, (-1.0, 2.0), blocked))


def test_probe_order_never_changes_a_verdict():
    world = _walled_grid_world(5)
    (x0, y0), (x1, y1) = world.bounds.lo, world.bounds.hi
    rng = random.Random(23)

    def point():
        return (rng.uniform(x0 - 0.5, x1 + 0.5), rng.uniform(y0 - 0.5, y1 + 0.5))

    segments = [(point(), point(), None) for _ in range(600)]
    segments += [(p, p, None) for p in (point() for _ in range(20))]  # zero-length
    segments += [(point(), point(), n) for n in (1, 2) for _ in range(20)]
    segments += [((x1, rng.uniform(y0, y1)), point(), None) for _ in range(10)]  # max edge
    segments += [(point(), (rng.uniform(x0, x1), y1), None) for _ in range(10)]
    bad = (math.nan, math.inf, -math.inf)
    segments += [((v, rng.uniform(y0, y1)), point(), n) for v in bad for n in (1, 2, 9)]
    segments += [(point(), (rng.uniform(x0, x1), v), n) for v in bad for n in (1, 2, 9)]
    # Finite, but the projection's dot product is inf - inf = NaN.
    far = ((1e169, -1e169), (1e169 + 7e153, -1e169 + 7e153))
    segments += [(*far, n) for n in (1, 2, 9)]
    rng.shuffle(segments)
    nan_segment = ((math.nan, 3.0), (2.0, 4.0), 9)
    probe = make_run(world).probe
    verdicts = set()
    for a, b, n in segments + [nan_segment, segments[0]]:
        if n is None:
            n = math.ceil(math.dist(a, b) * world.checks_per_meter) + 1
        weights = _t_weights(n)
        assert len(weights) == n
        verdict = world.all_free(weights, a, b, probe)
        assert verdict == world.all_free(weights, a, b) == _reference_all_free(world, a, b, n), (a, b, n)
        verdicts.add(verdict)
        # The probe is the last blocked point found inside the bounds.
        assert probe == [] or (x0 <= probe[0] <= x1 and y0 <= probe[1] <= y1
                                and not world.is_free(tuple(probe))), probe
    assert verdicts == {True, False} and probe


def _fields(world):
    """Each field of a World with its object id and its pickled value."""
    return {k: (id(v), pickle.dumps(v)) for k, v in vars(world).items()}


@pytest.mark.parametrize("which", ["demo", "grid"])
def test_planning_never_writes_the_scenario_world(which):
    scenario = resolve_scenario("demo")
    if which == "grid":
        world = _walled_grid_world(7)
        problem = ProblemDef((-0.875, 2.125), ((8.875, 9.375),), Circle((8.875, 9.375), 0.3))
        problem.validate(world)
        scenario = replace(scenario, world=world, problem=problem)
    before = _fields(scenario.world)
    for planner, batches in (("bitstar", 3), ("rrtstar", 400)):
        run_single(replace(scenario, stop=StopCondition(max_batches=batches)), planner, 1)
        assert _fields(scenario.world) == before, planner
    a, b = make_run(scenario.world), make_run(scenario.world)
    if which == "grid":
        assert a.probe == b.probe == [] and a.probe is not b.probe
        scenario.world.all_free(_t_weights(50), problem.root, problem.goal_samples[0], a.probe)
        assert a.probe and b.probe == []
    else:
        assert a.probe is b.probe is None  # a geometric world keeps no probe
    assert _fields(scenario.world) == before


@pytest.mark.parametrize("which", ["circles", "rects", "grid"])
def test_metered_and_plain_checks_agree(which):
    """world.true_cost(a, b, run) is world.true_cost(a, b) plus metering:
    it adds the edge's point count to run.units and, on a grid only, keeps
    the run's probe. Neither writes the world."""
    world = {"circles": make_demo_world(), "rects": _agreement_worlds()[1][0],
             "grid": _walled_grid_world(3)}[which]
    (x0, y0), (x1, y1) = world.bounds.lo, world.bounds.hi
    diagonal = math.dist(world.bounds.lo, world.bounds.hi)
    rng = random.Random(29)

    def point():
        return (rng.uniform(x0 - 0.5, x1 + 0.5), rng.uniform(y0 - 0.5, y1 + 0.5))

    segments = [(point(), point()) for _ in range(400)]
    segments += [(p, p) for p in (point() for _ in range(20))]  # zero-length
    segments += [((v, rng.uniform(y0, y1)), point()) for v in (math.nan, math.inf, -math.inf)]
    segments += [(point(), (rng.uniform(x0, x1), v)) for v in (math.nan, math.inf, -math.inf)]
    segments += [((x0, y0), (x1 + 2.0 * diagonal, y1)), ((x0 - 3.0 * diagonal, y0), (x1, y1))]
    before = _fields(world)
    run, other = make_run(world), make_run(world)
    for a, b in segments:
        units, probe = run.units, copy.copy(run.probe)
        plain = world.true_cost(a, b)
        assert run.units == units and run.probe == probe
        assert world.true_cost(a, b, run) == plain
        d = math.dist(a, b)
        n = math.ceil(d * world.checks_per_meter) + 1 if d <= 2.0 * diagonal else 0
        assert run.units == units + n, (a, b)
        assert (run.probe is None) == (which != "grid")
    assert _fields(world) == before
    assert run.units > 0 and other.units == 0
    if which == "grid":
        # The walls block some edges, so the run's probe holds a point, and
        # a second run on the same world keeps its own, still empty.
        assert run.probe and other.probe == [] and run.probe is not other.probe


@pytest.mark.parametrize("planner", ["bitstar", "rrtstar"])
def test_a_wrapper_on_all_free_sees_every_edge_check_and_no_point_test(planner, monkeypatch):
    # perfbench's tracer counts edge-check points with a wrapper set on
    # World.all_free. is_free reaches the kernel by its own class-body name,
    # so the wrapper sees every metered and plain edge check and no point test.
    seen, costs, points = [], [], []
    all_free, cost, is_free = World.all_free, world_module.segment_cost, World.is_free

    def counted_all_free(self, weights, x, y, probe=None):
        seen.append(len(weights))
        return all_free(self, weights, x, y, probe)

    def counted_cost(*args):
        costs.append(args[1:3])
        return cost(*args)

    def counted_is_free(self, x):
        points.append(x)
        return is_free(self, x)

    monkeypatch.setattr(World, "all_free", counted_all_free)
    monkeypatch.setattr(world_module, "segment_cost", counted_cost)
    monkeypatch.setattr(World, "is_free", counted_is_free)
    world = make_demo_world()
    run = make_run(world)
    assert world.is_free((0.0, -8.0)) and not world.is_free((0.0, 0.0))
    assert seen == []
    a, b = (0.0, -8.0), (0.0, -6.0)
    assert world.true_cost(a, b) == world.true_cost(a, b, run) == 2.0
    assert seen == [9, 9] and run.units == 9

    del seen[:], costs[:], points[:]
    scenario = replace(resolve_scenario("demo"), world=world, stop=StopCondition(max_batches=2))
    run_single(scenario, planner, 1)
    # No demo edge is longer than the bounds allow, so each check reaches
    # the kernel. The scenario's problem check (and BIT*'s sampler) test
    # points, which the kernel's wrapper must not see.
    assert len(seen) == len(costs) > 0 and points


def _agreement_worlds():
    circles = make_demo_world()
    rects = World(Box((0.0, 0.0), (10.0, 10.0)), [Box((2.0, 2.0), (4.0, 5.0)),
                                                  Box((6.0, 1.0), (8.0, 3.0))])
    blocked = np.zeros((6, 8), dtype=bool)
    blocked[1, 2] = blocked[3, 3:6] = blocked[5, 7] = True
    grid = World(grid=OccupancyGrid(8, 6, 0.5, (1.0, -2.0), blocked))
    rim = [(1.5 * math.cos(a) + cx, 1.5 * math.sin(a)) for cx in (0.0, -7.0, 7.0)
           for a in np.linspace(0.0, 2.0 * math.pi, 17)]
    rim += [(1.5, 0.0), (-1.5, 0.0), (0.0, 1.5), (0.0, -1.5), (-5.5, 0.0), (8.5, 0.0)]
    faces = [(x, y) for x in (2.0, 3.0, 4.0, 6.0, 7.0, 8.0) for y in (1.0, 2.0, 3.0, 3.5, 5.0)]
    edges = [(1.0 + 0.5 * i, -2.0 + 0.5 * j) for i in range(9) for j in range(7)]
    edges += [(3.0, 0.25), (4.25, -0.5), (4.99, 0.99), (5.0, 1.0), (2.0, 1.0 + 1e-12)]
    # Both obstacle kinds in one world, so a free point runs both inner loops.
    boxes = [Box((-5.0, 3.0), (-2.0, 6.0)), Box((2.0, -6.0), (5.0, -3.0))]
    mixed = World(DEMO_BOUNDS, circles.obstacles + boxes)
    box_faces = [(x, y) for x in (-5.0, -3.5, -2.0, 2.0, 3.5, 5.0)
                 for y in (-6.0, -4.5, -3.0, 3.0, 4.5, 6.0)]
    return [(circles, rim), (rects, faces), (grid, edges), (mixed, rim + box_faces)]


@pytest.mark.parametrize("which", range(4), ids=["circles", "rects", "grid", "mixed"])
def test_is_free_agrees_with_all_free(which):
    world, boundary = _agreement_worlds()[which]
    lo, hi = world.bounds.lo, world.bounds.hi
    # The bounds faces, corners and a hair beyond them.
    xs = (lo[0] - 1e-9, lo[0], (lo[0] + hi[0]) / 2, hi[0], hi[0] + 1e-9)
    ys = (lo[1] - 1e-9, lo[1], (lo[1] + hi[1]) / 2, hi[1], hi[1] + 1e-9)
    rng = random.Random(17 + which)
    randoms = [(rng.uniform(lo[0] - 1, hi[0] + 1), rng.uniform(lo[1] - 1, hi[1] + 1))
               for _ in range(1000)]
    nans = [(math.nan, ys[2]), (xs[2], math.nan), (math.nan, math.nan)]
    infs = [(v, ys[2]) for v in (math.inf, -math.inf)] + [(xs[2], v) for v in (math.inf, -math.inf)]
    zeros = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    points = boundary + [(x, y) for x in xs for y in ys] + randoms + nans + infs + zeros
    verdicts = {world.is_free(p) for p in boundary}
    assert verdicts == {True, False}  # the boundary set straddles free and blocked
    assert not any(world.is_free(p) for p in nans + infs)
    for p in points:
        assert world.is_free(p) == world.all_free(_t_weights(1), p, p), p


def _cells_as(layout, cells):
    """The bool array cells as OccupancyGrid.blocked of another dtype or memory layout."""
    if layout == "int":
        return cells.astype(np.int64)
    if layout == "float":
        return cells.astype(float)
    if layout == "fortran":
        return np.asfortranarray(cells)
    if layout == "strided":
        wide = np.zeros((2 * cells.shape[0], 3 * cells.shape[1]), dtype=bool)
        wide[::2, 1::3] = cells
        return wide[::2, 1::3]
    return cells


@pytest.mark.parametrize("layout", ["bool", "int", "float", "fortran", "strided"])
def test_grid_cells_read_the_same_from_any_blocked_dtype_or_layout(layout):
    height, width, mpc, (ox, oy) = 5, 7, 0.5, (-1.25, 2.5)
    cells = np.random.default_rng(41).random((height, width)) < 0.4
    blocked = _cells_as(layout, cells)
    assert layout == "bool" or blocked.dtype != bool or not blocked.flags.c_contiguous
    world = World(grid=OccupancyGrid(width, height, mpc, (ox, oy), blocked))
    x1, y1 = ox + width * mpc, oy + height * mpc
    rng = random.Random(43)
    points = [(rng.uniform(ox, x1), rng.uniform(oy, y1)) for _ in range(2000)]
    points += [(ox + mpc * i, oy + mpc * j) for i in range(width + 1) for j in range(height + 1)]
    points += [(x1, rng.uniform(oy, y1)) for _ in range(20)] + [(rng.uniform(ox, x1), y1)
                                                                  for _ in range(20)]
    for a, b in points:
        col, row = math.floor((a - ox) / mpc), math.floor((b - oy) / mpc)
        want = 0 <= col < width and 0 <= row < height and not cells[row, col]
        p = (a, b)
        assert world.is_free(p) == world.all_free(_t_weights(1), p, p) == want, p


def _reference_points(a, b, n):
    """The float64 array of an edge's n points, as edge checks built it before
    their points were lazy."""
    ts = np.linspace(0.0, 1.0, n)
    return (1 - ts)[:, None] * np.asarray(a, dtype=float) + ts[:, None] * np.asarray(b, dtype=float)


def _reference_all_free(world, a, b, n):
    """The numpy edge test `World.all_free` ran before the per-point kernel,
    on the reference array of the segment a..b at n points. A NaN or
    infinite point is blocked (NaN passes the bounds comparisons below)."""
    with np.errstate(invalid="ignore"):  # 0 * inf at an infinite endpoint
        points = _reference_points(a, b, n)
    if not np.isfinite(points).all():
        return False
    lo, hi = np.asarray(world.bounds.lo, dtype=float), np.asarray(world.bounds.hi, dtype=float)
    if ((points < lo) | (points > hi)).any():
        return False
    g = world.grid
    if g is not None:
        cells = np.floor((points - np.asarray(g.origin)) / g.meters_per_cell).astype(int)
        cols, rows = cells[:, 0], cells[:, 1]
        if ((cols < 0) | (cols >= g.width) | (rows < 0) | (rows >= g.height)).any():
            return False
        return not g.blocked[rows, cols].any()
    circles = [ob for ob in world.obstacles if isinstance(ob, Circle)]
    if circles:
        centers = np.asarray([c.center for c in circles], dtype=float)
        r2 = np.asarray([c.radius ** 2 for c in circles], dtype=float)
        dx = points[:, 0, None] - centers[:, 0]
        dy = points[:, 1, None] - centers[:, 1]
        if (dx * dx + dy * dy <= r2).any():
            return False
    for ob in world.obstacles:
        if isinstance(ob, Box) and np.all((points >= np.asarray(ob.lo)) & (points <= np.asarray(ob.hi)),
                                           axis=1).any():
            return False
    return True


def _boundary_segments(world):
    """Segments that graze obstacle boundaries: tangent to each circle, along
    each rectangle face, or along the grid's cell edges."""
    if world.grid is not None:
        g = world.grid
        (x0, y0), (x1, y1) = world.bounds.lo, world.bounds.hi
        xs = [g.origin[0] + g.meters_per_cell * i for i in range(g.width + 1)]
        ys = [g.origin[1] + g.meters_per_cell * j for j in range(g.height + 1)]
        return [((x, y0), (x, y1)) for x in xs] + [((x0, y), (x1, y)) for y in ys]
    segments = []
    for ob in world.obstacles:
        if isinstance(ob, Circle):
            (cx, cy), r = ob.center, ob.radius
            for s in (-r, r):
                segments += [((cx - 3.0, cy + s), (cx + 3.0, cy + s)),
                             ((cx + s, cy - 3.0), (cx + s, cy + 3.0))]
        else:
            (lx, ly), (hx, hy) = ob.lo, ob.hi
            for y in (ly, hy):
                segments.append(((lx - 1.0, y), (hx + 1.0, y)))
            for x in (lx, hx):
                segments.append(((x, ly - 1.0), (x, hy + 1.0)))
    return segments


@pytest.mark.parametrize("which", range(4), ids=["circles", "rects", "grid", "mixed"])
def test_all_free_matches_the_numpy_reference_on_segments(which):
    world, _ = _agreement_worlds()[which]
    lo, hi = world.bounds.lo, world.bounds.hi
    rng = random.Random(31 + which)
    segments = _boundary_segments(world) + [
        tuple((rng.uniform(lo[0] - 1, hi[0] + 1), rng.uniform(lo[1] - 1, hi[1] + 1)) for _ in "ab")
        for _ in range(300)
    ]
    verdicts = set()
    for n in (1, 2, 3, 26, 200):
        for a, b in segments:
            rows = _rows(a, b, n)
            want = _reference_points(a, b, n)[list(_bisection_order(n))]
            assert np.array(rows).tobytes() == want.tobytes(), (a, b, n)  # bitwise, in bisection order
            verdict = world.all_free(_t_weights(n), a, b)
            assert verdict == _reference_all_free(world, a, b, n), (a, b, n)
            assert verdict == all(map(world.is_free, rows)), (a, b, n)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    grazing = {_reference_all_free(world, a, b, 3) for a, b in _boundary_segments(world)}
    assert False in grazing  # midpoints on a tangent, face or cell edge are blocked


def test_t_weights_give_the_midpoint_first_and_the_endpoints_last():
    a, b = (1.0, -2.0), (-3.5, 4.25)
    assert len(_t_weights(5)) == 5 and _t_weights(5) is _t_weights(5)  # built once
    rows = _rows(a, b, 5)
    # Bisection order (2, 1, 3, 0, 4): the midpoint first, the endpoints last.
    assert rows[0] == (-1.25, 1.125) and rows[3] == a and rows[-1] == b
    assert set(rows) == set(map(tuple, _reference_points(a, b, 5).tolist()))
    assert _rows(a, b, 1) == [a]  # a one-point edge is its start


def test_bisection_order_is_a_permutation():
    for n in range(1, 301):
        order = _bisection_order(n)
        assert sorted(order) == list(range(n)), n
    assert _bisection_order(9) == (4, 2, 6, 1, 3, 5, 7, 0, 8)


@pytest.mark.parametrize("make", [
    lambda: World(Box((-math.inf, -math.inf), (math.inf, math.inf)), []),
    lambda: World(Box((-1e308, -1e308), (1e308, 1e308)), []),
    lambda: World(Box((0.0, 0.0), (1e300, 1e300)), [], checks_per_meter=1e10),
    lambda: World(grid=OccupancyGrid(400, 1, 1e306, (0.0, 0.0), np.zeros((1, 400), dtype=bool))),
], ids=["infinite bounds", "huge bounds", "dense checks", "overflowing grid"])
def test_world_refuses_bounds_whose_edge_point_count_is_not_finite(make):
    # Such a world used to build, and an edge check as long as its diagonal
    # raised OverflowError from math.ceil in segment_cost.
    with pytest.raises(ValueError, match="diagonal times checks_per_meter must be finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: World(Box((0.0, 0.0, 0.0), (10.0, 10.0, 10.0)), []),
    lambda: World(Box((0.0,), (10.0,)), []),
    lambda: World(Box((0.0, 0.0), (10.0, 10.0)), [Circle((5.0, 5.0, 5.0), 1.0)]),
    lambda: World(Box((0.0, 0.0), (10.0, 10.0)), [Box((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))]),
], ids=["3-D bounds", "1-D bounds", "3-D circle", "3-D rect"])
def test_world_is_planar(make):
    with pytest.raises(ValueError, match="2-D"):
        make()


_FREE_2X2 = np.zeros((2, 2), dtype=bool)


@pytest.mark.parametrize("make", [
    lambda: Circle((0.0, 0.0), math.nan),
    lambda: Circle((0.0, 0.0), math.inf),
    lambda: Circle((math.nan, 0.0), 1.0),
    lambda: Circle((0.0, -math.inf), 1.0),
    lambda: World(Box((0.0, 0.0), (1.0, 1.0)), [], checks_per_meter=math.nan),
    lambda: World(Box((0.0, 0.0), (1.0, 1.0)), [], checks_per_meter=math.inf),
    lambda: OccupancyGrid(2, 2, math.nan, (0.0, 0.0), _FREE_2X2),
    lambda: OccupancyGrid(2, 2, math.inf, (0.0, 0.0), _FREE_2X2),
    lambda: OccupancyGrid(2, 2, 1.0, (math.nan, 0.0), _FREE_2X2),
    lambda: OccupancyGrid(2, 2, 1.0, (0.0, math.inf), _FREE_2X2),
], ids=["radius nan", "radius inf", "center nan", "center -inf", "checks_per_meter nan",
        "checks_per_meter inf", "meters_per_cell nan", "meters_per_cell inf", "origin nan",
        "origin inf"])
def test_world_types_reject_non_finite_numbers(make):
    with pytest.raises(ValueError):
        make()


def test_circle_contains_is_the_closed_disc_by_math_dist():
    # The goal rule: math.dist(x, center) <= radius, boundary included.
    disc = Circle((1.0, 2.0), 5.0)
    assert disc.contains((4.0, 6.0)) and disc.contains((1.0, 2.0))
    assert not disc.contains((4.0, 6.000001))
    assert not disc.contains((math.nan, 2.0))


def test_pgm_load_rejects_non_finite_cell_size(tmp_path):
    f = tmp_path / "g.pgm"
    f.write_text("P2\n2 2\n255\n0 0 0 0\n")
    for mpc in (math.nan, math.inf):
        with pytest.raises(GridLoadError, match="meters_per_cell"):
            load_occupancy_grid(f, mpc, (0.0, 0.0), 127)
