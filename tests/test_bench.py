from __future__ import annotations

import math
import random
import re
import statistics
from bisect import bisect_right
from dataclasses import fields, replace

import pytest

from bitplan.bench import (
    AggregatePoint,
    ScenarioError,
    aggregate,
    builtin_scenario_path,
    load_scenario,
    resolve_scenario,
    run_single,
    run_trials,
    write_convergence_csv,
)
from bitplan.anytime import ConvergencePoint, StopCondition
from bitplan.cli import cli_main
from bitplan.world import Circle, GridLoadError

DEMO_SCN = """
name = tiny
[world]
bounds = -10 -10 10 10
[obstacles]
circle 0 0 1.5
[problem]
root = 0 -8
goal_center = 0 8
goal_radius = 0.5
[bitstar]
batch_size = 30
rho = 8
[rrtstar]
eta = 2
alpha = 10
goal_period = 50
[stop]
max_batches = 2
"""


def _write(tmp_path, text, name="s.scn"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _write_bytes(tmp_path, data, name="s.scn"):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def _pts(pairs):
    return tuple(ConvergencePoint(e, c, 0, 1, 0) for e, c in pairs)


def test_load_builtin_demo_scenario():
    scn = resolve_scenario("demo")
    assert scn.name == "demo"
    assert len(scn.world.obstacles) == 3
    assert all(isinstance(ob, Circle) for ob in scn.world.obstacles)
    assert scn.problem.root == (0.0, -8.0)
    assert scn.problem.goal_region.center == (0.0, 8.0)
    assert scn.problem.goal_samples == ((0.0, 8.0),)
    assert scn.bitstar.batch_size == 100
    assert scn.bitstar.radius == 8.0
    assert scn.rrtstar.eta == 2.0


def test_load_scenario_file(tmp_path):
    scn = load_scenario(_write(tmp_path, DEMO_SCN))
    assert scn.name == "tiny"
    assert scn.stop.max_batches == 2


def test_missing_root_names_the_field(tmp_path):
    text = DEMO_SCN.replace("root = 0 -8\n", "")
    with pytest.raises(ScenarioError, match="root"):
        load_scenario(_write(tmp_path, text))


def test_negative_rho_names_the_field(tmp_path):
    text = DEMO_SCN.replace("rho = 8", "rho = -1")
    with pytest.raises(ScenarioError, match="rho"):
        load_scenario(_write(tmp_path, text))


def test_parse_errors_carry_line_numbers(tmp_path):
    text = DEMO_SCN.replace("circle 0 0 1.5", "circle 0 0")
    with pytest.raises(ScenarioError, match=r"s\.scn:6"):
        load_scenario(_write(tmp_path, text))
    with pytest.raises(ScenarioError, match="unknown section"):
        load_scenario(_write(tmp_path, DEMO_SCN + "\n[surprise]\n"))
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(_write(tmp_path, DEMO_SCN + "\n[stop]\nmax_batches = 3\n"))


# Each case edits the built-in demo (rho is on line 21) and pins the whole
# message, so a loader rewrite cannot drop a line number or wrap a message.
# A message that wraps a constructor's refusal ends with that refusal and
# chains it as its cause; a message of the parser's own chains nothing.
@pytest.mark.parametrize("old, new, message, cause", [
    ("rho = 8", "rho 8", ":21: expected 'key = value'", None),
    ("rho = 8", "= 8", ":21: empty key", None),
    ("root = 0 -8", "", ": missing required key 'root' in [problem]", None),
    ("bounds = -10 -10 10 10", "bounds = -10 -10 10", ":6: bounds: expected 4 numbers, got 3", None),
    ("bounds = -10 -10 10 10", "bounds = 10 -10 -10 10",
     ": bounds: box needs 2-D corners with lo < hi componentwise", ValueError),
    ("bounds = -10 -10 10 10", "bounds = -1e308 -1e308 1e308 1e308",
     ": [world] the bounds' diagonal times checks_per_meter must be finite", ValueError),
    ("max_batches = 10", "max_batches = 10\ntime_budget_s = -1",
     ":30: time_budget_s: must be non-negative", None),
    ("max_batches = 10", "max_batches = -1", ":29: max_batches: must be non-negative", None),
    # The trial count and seeds are the command line's.
    ("max_batches = 10", "max_batches = 10\n[bench]", ":30: unknown section [bench]", None),
    ("circle 0 0 1.5", "circle 0 0",
     ":10: expected 'circle CX CY R' or 'rect XMIN YMIN XMAX YMAX', got 'circle 0 0'", None),
    ("circle 0 0 1.5", "circle 0 0 -1.5",
     ":10: bad obstacle: circle needs a finite 2-D center and a positive finite radius", ValueError),
    ("root = 0 -8", "root = 0 0", ": problem: root lies inside an obstacle", ValueError),
    ("max_batches = 10", "", ": [stop]: at least one stop bound must be set", ValueError),
    ("[problem]", "[grid]\nfile = map.pgm\n[problem]", ": give either [obstacles] or [grid], not both",
     None),
    ("rho = 8", "rho = abc", ":21: rho: invalid value 'abc'", None),
    ("batch_size = 100", "batch_size = 0", ":20: batch_size: must be positive", None),
    ("eta = 2", "eta = -2", ":24: eta: must be positive", None),
    ("alpha = 20", "alpha = 2.5", ":25: alpha: invalid value '2.5'", None),
    ("goal_period = 50", "goal_period = 0", ":26: goal_period: must be positive", None),
], ids=["no-equals", "empty-key", "missing-root", "bounds-count", "bounds-box", "bounds-overflow",
        "time-budget", "max-batches", "bench-section", "obstacle-shape", "bad-obstacle",
        "blocked-root", "no-stop", "obstacles-and-grid",
        "rho", "batch-size", "eta", "alpha", "goal-period"])
def test_scenario_error_messages(tmp_path, old, new, message, cause):
    text = builtin_scenario_path("demo").read_text()
    assert text.count(old) == 1
    path = _write(tmp_path, text.replace(old, new))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}{message}"
    chained = excinfo.value.__cause__
    if cause is None:
        assert chained is None
    else:
        assert type(chained) is cause and message.endswith(f" {chained}"), repr(chained)


def _accepts(make) -> bool:
    try:
        make()
    except ValueError:  # a ScenarioError is one too
        return False
    return True


# A stop bound has three entry points, and they accept the same values: the
# library's StopCondition, a scenario's [stop] line and the command line's flag.
STOP_VALUES = [("time_budget_s", "--time-budget", text, ok) for text, ok in
               [("0", True), ("0.5", True), ("-1", False), ("nan", False), ("inf", False)]]
STOP_VALUES += [("max_batches", "--max-batches", text, ok) for text, ok in
                [("0", True), ("3", True), ("-1", False), ("2.5", False), ("nan", False)]]


@pytest.mark.parametrize("key, flag, text, ok", STOP_VALUES,
                         ids=[f"{key}={text}" for key, _, text, _ in STOP_VALUES])
def test_the_three_stop_entry_points_agree(tmp_path, capsys, key, flag, text, ok):
    value = int(text) if text.lstrip("-").isdigit() else float(text)
    library = _accepts(lambda: StopCondition(**{key: value}))
    path = _write(tmp_path, builtin_scenario_path("demo").read_text().replace(
        "max_batches = 10", f"{key} = {text}"))
    scenario_file = _accepts(lambda: load_scenario(path))
    command_line = cli_main(["plan", "--scenario", "demo", "--planner", "rrtstar", flag, text]) == 0
    capsys.readouterr()
    assert (library, scenario_file, command_line) == (ok, ok, ok)


# A file with several faults is refused at the first in file order: the
# unknown key (line 6) before the bad rho (line 22), and a key left at the top
# level by a deleted header before the required key it leaves missing.
@pytest.mark.parametrize("edits, message", [
    ((("[world]\n", "[world]\nchecks_per_metre = 40\n"), ("rho = 8", "rho = -1")),
     ":6: unknown key 'checks_per_metre' in [world]"),
    ((("[world]\n", ""),), ":5: unknown key 'bounds' in top level"),
], ids=["unknown-key-before-bad-rho", "deleted-header"])
def test_the_first_fault_in_file_order_is_reported(tmp_path, edits, message):
    text = builtin_scenario_path("demo").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = _write(tmp_path, text)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}{message}"


# A misspelt or misplaced key would otherwise load and run on a default
# (checks_per_metre = 40 ran at the default of 4 checks per meter).
@pytest.mark.parametrize("old, new, where", [
    ("[world]\n", "[world]\nchecks_per_metre = 40\n", "[world]"),
    ("rho = 8\n", "rho = 8\nrho_typo = 3\n", "[bitstar]"),
    ("name = tiny\n", "name = tiny\nbounds = -10 -10 10 10\n", "top level"),
    ("max_batches = 2\n", "max_batches = 2\ngoal_sample = 0 8\n", "[stop]"),
    ("alpha = 10\n", "alpha = 10\nseed = 5\nalso_unknown = 1\n", "[rrtstar]"),
], ids=["world", "bitstar", "top-level", "goal-sample-in-stop", "first-of-two"])
def test_unknown_key_names_file_line_and_key(tmp_path, old, new, where):
    text = DEMO_SCN.replace(old, new)
    bad_line = new.splitlines()[1]
    line_no = text.splitlines().index(bad_line) + 1
    key = bad_line.split()[0]
    with pytest.raises(ScenarioError,
                       match=rf"s\.scn:{line_no}: unknown key '{key}' in {re.escape(where)}$"):
        load_scenario(_write(tmp_path, text))


def test_unknown_grid_key_is_rejected(tmp_path):
    _write_grid_map(tmp_path)
    text = GRID_SCN.replace("threshold = 127\n", "threshold = 127\ninvert = 1\n")
    with pytest.raises(ScenarioError, match=r"s\.scn:9: unknown key 'invert' in \[grid\]$"):
        load_scenario(_write(tmp_path, text))


# Unchecked, each value breaks a run: a NaN time budget never runs out, an
# infinite check rate overflows mid-plan, a NaN radius blocks nothing, and a
# NaN rho or eta finds no path.
@pytest.mark.parametrize("old, new", [
    ("max_batches = 10", "max_batches = 10\ntime_budget_s = nan"),
    ("checks_per_meter = 4", "checks_per_meter = inf"),
    ("circle 0 0 1.5", "circle 0 0 nan"),
    ("rho = 8", "rho = nan"),
    ("eta = 2", "eta = nan"),
], ids=["time_budget_s", "checks_per_meter", "circle", "rho", "eta"])
def test_non_finite_number_names_file_line_and_field(tmp_path, old, new):
    text = builtin_scenario_path("demo").read_text().replace(old, new)
    bad_line = new.splitlines()[-1]
    line_no = text.splitlines().index(bad_line) + 1
    field = bad_line.split()[0]
    with pytest.raises(ScenarioError, match=rf"s\.scn:{line_no}: {field}: numbers must be finite"):
        load_scenario(_write(tmp_path, text))


def test_scenario_requires_a_stop_bound(tmp_path):
    text = DEMO_SCN.replace("max_batches = 2", "")
    with pytest.raises(ScenarioError, match="stop"):
        load_scenario(_write(tmp_path, text))


def test_scenario_rejects_blocked_root(tmp_path):
    text = DEMO_SCN.replace("root = 0 -8", "root = 0 0")
    with pytest.raises(ScenarioError, match="obstacle"):
        load_scenario(_write(tmp_path, text))


GRID_SCN = """
[world]
bounds = 0 0 4 4
[grid]
file = map.pgm
meters_per_cell = 1
origin = 0 0
threshold = 127
[problem]
root = 1 1
goal_center = 3 3
goal_radius = 0.5
[bitstar]
batch_size = 10
rho = 4
[rrtstar]
eta = 1
alpha = 5
goal_period = 10
[stop]
max_batches = 1
"""


def _write_grid_map(tmp_path):
    (tmp_path / "map.pgm").write_text("P2\n4 4\n255\n" + " ".join(["255"] * 16) + "\n")


def test_scenario_with_grid_world(tmp_path):
    _write_grid_map(tmp_path)
    scn = load_scenario(_write(tmp_path, GRID_SCN))
    assert scn.world.grid is not None
    assert scn.world.bounds.hi == (4.0, 4.0)


# At 300 the loader blocked every cell and the error blamed the root; at -1
# it silently freed every cell.
@pytest.mark.parametrize("threshold", ["300", "-1"])
def test_a_grid_threshold_outside_0_255_names_its_own_line(tmp_path, threshold):
    _write_grid_map(tmp_path)
    text = GRID_SCN.replace("threshold = 127", f"threshold = {threshold}")
    with pytest.raises(ScenarioError,
                       match=rf"s\.scn:8: threshold: must be in 0\.\.255, got {threshold}$"):
        load_scenario(_write(tmp_path, text))


def test_a_grid_threshold_of_0_or_255_is_accepted(tmp_path):
    _write_grid_map(tmp_path)
    scn = load_scenario(_write(tmp_path, GRID_SCN.replace("threshold = 127", "threshold = 0")))
    assert not scn.world.grid.blocked.any()
    # 255 blocks every cell, so what fails is the root, not the threshold.
    with pytest.raises(ScenarioError, match="problem: root lies inside an obstacle"):
        load_scenario(_write(tmp_path, GRID_SCN.replace("threshold = 127", "threshold = 255")))


# A 400-digit integer is finite: the number check compares it with inf
# instead of calling math.isfinite, which raises OverflowError on it.
HUGE = "9" * 400
HUGE_KEYS = ("max_batches", "batch_size", "alpha", "goal_period")


def _huge(*keys):
    text = DEMO_SCN
    for key in keys:
        text = re.sub(rf"^{key} = .*$", f"{key} = {HUGE}", text, flags=re.M)
    return text


@pytest.mark.parametrize("key", HUGE_KEYS)
def test_a_400_digit_integer_loads_with_its_exact_value(tmp_path, key):
    scn = load_scenario(_write(tmp_path, _huge(key)))
    params = {"max_batches": scn.stop, "batch_size": scn.bitstar}.get(key, scn.rrtstar)
    assert getattr(params, key) == int(HUGE)


def test_a_400_digit_threshold_is_refused_at_its_line(tmp_path):
    _write_grid_map(tmp_path)
    text = GRID_SCN.replace("threshold = 127", f"threshold = {HUGE}")
    path = _write(tmp_path, text)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}:8: threshold: must be in 0..255, got {HUGE}"


def test_a_scenario_of_400_digit_integers_plans_from_the_command_line(tmp_path):
    path = _write(tmp_path, _huge(*HUGE_KEYS))
    assert cli_main(["plan", "--scenario", str(path), "--planner", "bitstar",
                     "--max-batches", "0"]) == 0


def test_grid_scenario_bounds_may_round_the_map_extent(tmp_path):
    # 7 cells of 0.1 m span 0.7000000000000001 m in floating point.
    (tmp_path / "map.pgm").write_text("P2\n7 7\n255\n" + " ".join(["255"] * 49) + "\n")
    text = (GRID_SCN.replace("bounds = 0 0 4 4", "bounds = 0 0 0.7 0.7")
            .replace("meters_per_cell = 1", "meters_per_cell = 0.1")
            .replace("root = 1 1", "root = 0.1 0.1")
            .replace("goal_center = 3 3", "goal_center = 0.6 0.6")
            .replace("goal_radius = 0.5", "goal_radius = 0.05"))
    scn = load_scenario(_write(tmp_path, text))
    assert scn.world.bounds == scn.world.grid.extent()


def test_grid_scenario_bounds_must_match_map_extent(tmp_path):
    # The world's bounds are the planning region, so a 4 x 4 m map declared
    # as 100 x 100 m would send almost every draw off the map.
    _write_grid_map(tmp_path)
    path = _write(tmp_path, GRID_SCN.replace("bounds = 0 0 4 4", "bounds = 0 0 100 100"))
    with pytest.raises(ScenarioError, match="bounds") as excinfo:
        load_scenario(path)
    assert str(path) in str(excinfo.value)


def test_a_grid_map_whose_extent_overflows_names_the_scenario_line_and_the_map(tmp_path):
    # 400 cells of 1e306 m span 4e308 m, past the largest float.
    (tmp_path / "map.pgm").write_text("P2\n400 1\n255\n" + " ".join(["255"] * 400) + "\n")
    path = _write(tmp_path, GRID_SCN.replace("meters_per_cell = 1", "meters_per_cell = 1e306"))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    msg = str(excinfo.value)
    assert msg.startswith(f"{path}:5: file: {tmp_path / 'map.pgm'}: ") and "diagonal" in msg, msg
    assert type(excinfo.value.__cause__) is ValueError


def test_scenario_missing_grid_file(tmp_path):
    text = DEMO_SCN.replace("[obstacles]\ncircle 0 0 1.5", "[grid]\nfile = nope.pgm\nmeters_per_cell = 1\norigin = 0 0\nthreshold = 127")
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario(_write(tmp_path, text))


@pytest.mark.parametrize("kind", ["p6-map", "directory"])
def test_a_bad_grid_map_names_the_scenario_line_and_the_map(tmp_path, kind):
    if kind == "p6-map":
        (tmp_path / "map.pgm").write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        detail = "expected P2 or P5, got 'P6'"
    else:
        (tmp_path / "map.pgm").mkdir()
        detail = "is not a file"
    path = _write(tmp_path, GRID_SCN)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    msg = str(excinfo.value)
    assert msg.startswith(f"{path}:5: file: {tmp_path / 'map.pgm'}") and detail in msg, msg
    # The directory fails the loader's own is-a-file check before any read.
    cause = excinfo.value.__cause__
    assert isinstance(cause, GridLoadError) if kind == "p6-map" else cause is None, repr(cause)


def test_resolve_scenario_unknown_name():
    with pytest.raises(ScenarioError, match="no such file"):
        resolve_scenario("definitely-not-a-scenario")


def test_a_directory_does_not_shadow_a_builtin_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo").mkdir()
    scn = resolve_scenario("demo")
    builtin = load_scenario(builtin_scenario_path("demo"))
    assert scn.name == "demo"
    assert (scn.problem, scn.bitstar, scn.stop) == (builtin.problem, builtin.bitstar, builtin.stop)


def test_load_scenario_on_a_directory_names_the_path(tmp_path):
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(tmp_path)
    msg = str(excinfo.value)
    assert msg.startswith(f"{tmp_path}: ") and "Is a directory" in msg, msg
    assert isinstance(excinfo.value.__cause__, IsADirectoryError)


def _demo_bytes():
    return builtin_scenario_path("demo").read_bytes()


def test_a_byte_order_mark_is_ignored(tmp_path):
    # The built-in demo opens with a comment; DEMO_SCN (stripped) opens with a key.
    demo = load_scenario(builtin_scenario_path("demo"))
    bom = load_scenario(_write_bytes(tmp_path, b"\xef\xbb\xbf" + _demo_bytes()))
    for field in fields(demo):
        a, b = getattr(demo, field.name), getattr(bom, field.name)
        assert (vars(a) == vars(b)) if field.name == "world" else a == b, field.name
    assert load_scenario(_write(tmp_path, "\ufeff" + DEMO_SCN.lstrip(), "t.scn")).name == "tiny"
    stop = StopCondition(max_batches=2)
    runs = [run_single(replace(s, stop=stop), "bitstar", 1) for s in (demo, bom)]
    assert runs[0].convergence and runs[0].convergence == runs[1].convergence


def test_a_file_that_is_not_utf8_names_its_path(tmp_path):
    # A Latin-1 e-acute (byte 0xE9) in the demo's first comment.
    path = _write_bytes(tmp_path, _demo_bytes().replace(b"Three", b"Thr\xe9e", 1))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)


# Every input either loads or fails with a ScenarioError that names the
# file: no mutant of a valid scenario may escape as another exception.
MUTANT_TOKENS = [b"nan", b"-nan", b"inf", b"1e309", b"-1e309", b"1e-320", b"0", b"-1", b"2.5",
                 b"abc", b"=", b"==", b"#", b"[", b"]", b"[]", b"\xe9", b"\xef\xbb\xbf", b"\x00",
                 b"\xff\xfe", b"\t", b"", b"[grid]", b"[obstacles]", b"[bench]", b"[nope]",
                 b"file = x.pgm", b"circle", b"rect", b"circle 0 0 1", b"rect 1 1 0 0",
                 b"goal_sample = 0 8", b"name =", b"threshold = 300"]


def _mutant(rng, lines):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(3)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        else:
            tokens = lines[i].split(b" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(MUTANT_TOKENS)
            lines[i] = b" ".join(tokens)
        if not lines:
            break
    return b"\n".join(lines)


def test_every_mutant_of_the_demo_loads_or_names_its_path(tmp_path):
    rng = random.Random(0)
    lines = _demo_bytes().split(b"\n")
    path = tmp_path / "m.scn"
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(2000):
        path.write_bytes(_mutant(rng, lines))
        try:
            load_scenario(path)
        except ScenarioError as e:
            assert str(e).startswith(f"{path}:"), str(e)
            outcomes["refused"] += 1
        else:
            outcomes["loaded"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_run_single_rejects_an_unknown_planner(tmp_path):
    scn = load_scenario(_write(tmp_path, DEMO_SCN))
    with pytest.raises(ValueError) as excinfo:
        run_single(scn, "dijkstra", 1)
    assert str(excinfo.value) == (
        "unknown planner 'dijkstra'; expected one of ('bitstar', 'rrtstar')")


def test_run_trials_deterministic_and_seeded(tmp_path):
    scn = load_scenario(_write(tmp_path, DEMO_SCN))
    a = run_trials(scn, "bitstar", 2, 5)
    b = run_trials(scn, "bitstar", 2, 5)
    assert a == b
    assert a == [run_single(scn, "bitstar", seed).convergence for seed in (5, 6)]
    with pytest.raises(ValueError):
        run_trials(scn, "bitstar", 0, 5)
    with pytest.raises(ValueError, match="unknown planner"):
        run_trials(scn, "dijkstra", 1, 5)


def test_run_trials_annotates_failures_with_seed(tmp_path, monkeypatch):
    import bitplan.bench as bench

    scn = load_scenario(_write(tmp_path, DEMO_SCN))

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench, "run_single", boom)
    with pytest.raises(RuntimeError, match="seed 5"):
        bench.run_trials(scn, "bitstar", 1, 5)


def test_demo_two_second_budget_solves_almost_every_trial():
    # Frozen after measuring: at a 2 planner-second budget every demo trial
    # reaches a finite cost; the contract requires at least 19 of 20.
    scn = replace(resolve_scenario("demo"), stop=StopCondition(time_budget_s=2.0))
    traces = run_trials(scn, "bitstar", 20, 1)
    solved = sum(1 for trace in traces if math.isfinite(trace[-1].cost))
    assert solved >= 19


def cost_at(trace, t):
    """The staircase reference: the last recorded cost at or before t, else +inf."""
    i = bisect_right([p.elapsed_s for p in trace], t)
    return trace[i - 1].cost if i else math.inf


def test_cost_at_staircase():
    s = _pts([(1.0, 10.0), (3.0, 8.0)])
    assert cost_at(s, 0.0) == math.inf
    assert cost_at(s, 1.0) == 10.0
    assert cost_at(s, 2.0) == 10.0
    assert cost_at(s, 3.0) == 8.0
    assert cost_at(s, 4.0) == 8.0


def _random_traces(rng, grid_step):
    """Traces with strictly increasing times, some on grid times exactly, and
    costs that may stay infinite."""
    traces = []
    for _ in range(rng.randrange(8)):
        t, c, pts = 0.0, rng.choice([math.inf, rng.uniform(20, 30)]), []
        for _ in range(rng.randrange(6)):
            on_grid = math.ceil(t / grid_step + 1e-9) * grid_step
            t = on_grid if rng.random() < 0.4 and on_grid > t else t + rng.uniform(0.0, 0.7)
            c = rng.choice([c, c - rng.uniform(0.0, 3.0)])
            pts.append((t, c))
        traces.append(_pts(pts))
    return traces


@pytest.mark.parametrize("seed", range(40))
def test_aggregate_is_bitwise_the_staircase_at_every_grid_time(seed):
    rng = random.Random(seed)
    grid_step = rng.choice([0.1, 0.25, 0.3])
    traces = _random_traces(rng, grid_step)
    rows = aggregate(traces, grid_step, rng.choice([0.0, 0.3, 2.0, 4.5, None]))
    want = []
    for t, *_ in rows:
        costs = [c for trace in traces if math.isfinite(c := cost_at(trace, t))]
        want.append((len(costs), statistics.median(costs) if costs else math.nan,
                     statistics.fmean(costs) if costs else math.nan))
    got = [row[1:] for row in rows]
    assert [(n, med.hex(), mean.hex()) for n, med, mean in got] == \
        [(n, med.hex(), mean.hex()) for n, med, mean in want]


def test_aggregate_staircase_example():
    s = _pts([(1.0, 10.0), (3.0, 8.0)])
    rows = aggregate([s], 1.0, 4.0)
    assert [r.t_s for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert [r.n_solved for r in rows] == [0, 1, 1, 1, 1]
    assert math.isnan(rows[0].median_cost)
    assert [r.median_cost for r in rows[1:]] == [10.0, 10.0, 8.0, 8.0]


def test_aggregate_median_of_two():
    a = _pts([(0.5, 10.0)])
    b = _pts([(0.5, 20.0)])
    rows = aggregate([a, b], 1.0, 1.0)
    assert rows[1] == AggregatePoint(1.0, 2, 15.0, 15.0)
    assert [r.n_solved for r in rows] == [0, 2]


def test_aggregate_medians_monotone_once_all_defined():
    rng = random.Random(12)
    traces = []
    for _ in range(6):
        t, c = 0.0, rng.uniform(50, 60)
        pts = []
        for _ in range(10):
            t += rng.uniform(0.05, 0.5)
            c -= rng.uniform(0.0, 5.0)
            pts.append((t, c))
        traces.append(_pts(pts))
    first_defined = max(trace[0].elapsed_s for trace in traces)
    meds = [r.median_cost for r in aggregate(traces, 0.1, 6.0) if r.t_s >= first_defined]
    assert all(x >= y for x, y in zip(meds, meds[1:]))


@pytest.mark.parametrize("horizon", [0.3, 0.7])
def test_aggregate_ends_at_a_horizon_of_whole_steps(horizon):
    # horizon / 0.1 falls just below a whole number in floats; the grid must
    # still reach the horizon, where the last improvement is on the table.
    s = _pts([(0.05, 20.0), (horizon - 0.01, 19.0)])
    rows = aggregate([s], 0.1, horizon)
    steps = round(horizon * 10)
    assert [f"{r.t_s:.6f}" for r in rows] == [f"{i / 10:.6f}" for i in range(steps + 1)]
    assert rows[-1].median_cost == 19.0


# With no horizon the grid ends at the first grid time at or past the last
# record: 414 * 0.3 is 124.19999999999999 and 4254 * 0.03 is 127.61999999999999,
# so rounding the quotient alone ends those grids one step short; 3 * 0.1 is
# 0.30000000000000004, which a record there reaches without another step.
@pytest.mark.parametrize("grid_step, last, steps", [
    (0.3, 124.2, 415), (0.03, 127.62, 4255), (0.1, 0.3, 3), (0.1, 3 * 0.1, 3), (0.1, 0.0, 0),
])
def test_an_untimed_grid_ends_at_the_first_grid_time_at_or_past_the_last_record(
        grid_step, last, steps):
    rows = aggregate([_pts([(0.0, 20.0)]), _pts([(last, 19.0)])], grid_step)
    assert [r.t_s for r in rows] == [i * grid_step for i in range(steps + 1)]
    assert rows[-1].t_s >= last and all(r.t_s < last for r in rows[:-1])
    assert rows[-1].n_solved == 2


def test_aggregate_rejects_bad_grid():
    for grid_step in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="grid step must be positive and finite"):
            aggregate([], grid_step, 1.0)


def test_aggregate_rejects_a_grid_of_over_a_million_steps():
    # Unbounded, 1e-9 s steps over 1 s would build a billion-entry grid.
    with pytest.raises(ValueError, match=r"^grid step 1e-09 s over a horizon of 1 s gives "
                                         r"1000000001 grid steps; at most 1000000 are allowed$"):
        aggregate([], 1e-9, 1.0)
    with pytest.raises(ValueError, match="inf grid steps"):
        aggregate([], 0.1, math.inf)
    # A huge count reads in ten significant digits, not hundreds.
    with pytest.raises(ValueError, match=r"^grid step 1e-300 s over a horizon of 1 s gives "
                                         r"1\.000000001e\+300 grid steps; at most 1000000 "
                                         r"are allowed$"):
        aggregate([], 1e-300, 1.0)
    # With no horizon, the grid's end is the last record's time.
    with pytest.raises(ValueError, match=r"^grid step 9\.99989e-321 s over a horizon of 2 s gives "
                                         r"inf grid steps; at most 1000000 are allowed$"):
        aggregate([_pts([(2.0, 20.0)])], 1e-320)


def test_csv_empty_series_header_only(tmp_path):
    out = tmp_path / "c.csv"
    write_convergence_csv((), out)
    assert out.read_text() == "elapsed_s,cost,batch,tree_vertices,samples_drawn\n"


def test_csv_fixed_decimal_formatting(tmp_path):
    out = tmp_path / "c.csv"
    # An int in a float field keeps the float field's format.
    write_convergence_csv([ConvergencePoint(1.5, 12.25, 2, 7, 100), ConvergencePoint(3, 10, 1, 2, 3)],
                          out)
    lines = out.read_text().splitlines()
    assert lines[1:] == ["1.500000,12.250000,2,7,100", "3.000000,10.000000,1,2,3"]


def test_csv_bytes_reproducible(tmp_path):
    pts = _pts([(0.1234567, 19.0), (2.0, 17.5)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_convergence_csv(pts, a)
    write_convergence_csv(pts, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_aggregate_format(tmp_path):
    rows = [AggregatePoint(0.0, 0, math.nan, math.nan), AggregatePoint(0.5, 2, 15.0, 15.0),
            AggregatePoint(3, 2, 15, 15)]
    out = tmp_path / "agg.csv"
    write_convergence_csv(rows, out, AggregatePoint)
    assert out.read_text() == (
        "t_s,n_solved,median_cost,mean_cost\n"
        "0.000000,0,nan,nan\n"
        "0.500000,2,15.000000,15.000000\n"
        "3.000000,2,15.000000,15.000000\n"
    )
