"""Scenario files, seeded multi-trial execution, aggregation, and CSV output.

A scenario file is line-oriented UTF-8 text (a leading byte-order mark
ignored) with `[sections]` of `key = value` lines; README's "Scenario files"
block documents the format, and `_KEYS` states each key's rules.

The trial count and the seeds are the caller's: trial k of a benchmark uses
seed base_seed + k, so reruns and concurrent executions produce identical,
order-stable results. A trace and an aggregate are each a list of one
NamedTuple row kind, and `write_convergence_csv` writes either through that
kind's one format.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .anytime import ConvergencePoint, StopCondition
from .bitstar import PlannerParams, plan
from .rrtstar import RrtParams, rrt_plan
from .space import Box, GoalRegion, ProblemDef, RngStream
from .world import Circle, World, load_occupancy_grid

PLANNERS = ("bitstar", "rrtstar")
MAX_GRID_STEPS = 1_000_000  # an aggregate grid holds one entry per step


# Every scenario key: section (None is the top level) -> key -> (required,
# count, type, rule). A text key has count 0; rule is None, "positive",
# "non-negative" or an inclusive (lo, hi) range on the first number.
# goal_sample is the one repeatable key, [obstacles] holds shape lines
# instead of keys, and [grid]'s keys are required only when it is given.
_KEYS: dict[str | None, dict[str, tuple]] = {
    None: {"name": (False, 0, str, None)},
    "world": {"bounds": (True, 4, float, None),
              "checks_per_meter": (False, 1, float, "positive")},
    "obstacles": {},
    "grid": {"file": (True, 0, str, None),
             "meters_per_cell": (True, 1, float, "positive"),
             "origin": (True, 2, float, None),
             "threshold": (True, 1, int, (0, 255))},
    "problem": {"root": (True, 2, float, None),
                "goal_center": (True, 2, float, None),
                "goal_radius": (True, 1, float, "positive"),
                "goal_sample": (False, 2, float, None)},
    "bitstar": {"batch_size": (True, 1, int, "positive"),
                "rho": (True, 1, float, "positive")},
    "rrtstar": {"eta": (True, 1, float, "positive"),
                "alpha": (True, 1, int, "positive"),
                "goal_period": (True, 1, int, "positive")},
    "stop": {"max_batches": (False, 1, int, "non-negative"),
             "time_budget_s": (False, 1, float, "non-negative")},
}


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message names file:line/field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    world: World
    problem: ProblemDef
    bitstar: PlannerParams
    rrtstar: RrtParams
    stop: StopCondition


class AggregatePoint(NamedTuple):
    """One grid time's statistics over the trials that have a solution by then."""

    t_s: float
    n_solved: int
    median_cost: float
    mean_cost: float


# One CSV row format per row kind; an int in a float field still reads 3.000000.
_ROW_FORMATS = {ConvergencePoint: "{:.6f},{:.6f},{},{},{}",
                AggregatePoint: "{:.6f},{},{:.6f},{:.6f}"}


def builtin_scenario_path(name: str) -> Path:
    return Path(__file__).with_name("scenarios") / f"{name}.scn"


def resolve_scenario(ref: str) -> Scenario:
    """Load a scenario from a file path, or by built-in name (e.g. "demo")."""
    p = Path(ref)
    if p.is_file():
        return load_scenario(p)
    builtin = builtin_scenario_path(ref)
    if builtin.exists():
        return load_scenario(builtin)
    raise ScenarioError(f"scenario {ref!r}: no such file or built-in scenario")


def load_scenario(path) -> Scenario:
    """Load a scenario file. Its first fault in file order is refused with a
    ScenarioError naming the file, and the line when one line is at fault."""
    path = Path(path)

    def made(where: str, make, *args, **kwargs):
        # The one path from a refusal (a constructor's ValueError, a read's
        # OSError or UnicodeDecodeError) to a ScenarioError naming the file.
        try:
            return make(*args, **kwargs)
        except (ValueError, OSError) as e:
            raise ScenarioError(f"{path}{where}{e}") from e

    def err(line_no: int, msg: str):
        raise ScenarioError(f"{path}:{line_no}: {msg}")

    def numbers(line_no, field, parts, n, conv=float):
        # The one parser for every number in the file: exactly n finite values.
        # A comparison, not math.isfinite, which overflows on a 400-digit int.
        if len(parts) != n:
            err(line_no, f"{field}: expected {n} number{'s' * (n > 1)}, got {len(parts)}")
        try:
            values = tuple(conv(p) for p in parts)
        except ValueError:
            err(line_no, f"{field}: invalid value {' '.join(parts)!r}")
        if not all(-math.inf < v < math.inf for v in values):
            err(line_no, f"{field}: numbers must be finite, got {' '.join(parts)!r}")
        return values

    text = made(": ", path.read_text, encoding="utf-8-sig")
    # Each given section's values by key, each key's line, and the obstacles.
    got: dict[str | None, dict] = {None: {}}
    lines: dict[tuple[str | None, str], int] = {}
    obstacles, section = [], None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                err(line_no, f"unknown section [{section}]")
            got.setdefault(section, {})
            continue
        if section == "obstacles":
            kind, *parts = line.split()
            if (kind, len(parts)) not in (("circle", 3), ("rect", 4)):
                err(line_no, f"expected 'circle CX CY R' or 'rect XMIN YMIN XMAX YMAX', got {line!r}")
            v = numbers(line_no, kind, parts, len(parts))
            make, rest = (Circle, v[2]) if kind == "circle" else (Box, v[2:])
            obstacles.append(made(f":{line_no}: bad obstacle: ", make, v[:2], rest))
            continue
        if "=" not in line:
            err(line_no, "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            err(line_no, "empty key")
        if key not in _KEYS[section]:
            err(line_no, f"unknown key {key!r} in {f'[{section}]' if section else 'top level'}")
        if (section, key) in lines and key != "goal_sample":
            err(line_no, f"duplicate key {key!r}")
        lines[section, key] = line_no
        _, n, conv, rule = _KEYS[section][key]
        v = numbers(line_no, key, value.split(), n, conv) if n else value
        if (rule == "positive" and v[0] <= 0) or (rule == "non-negative" and v[0] < 0):
            err(line_no, f"{key}: must be {rule}")
        if isinstance(rule, tuple) and not rule[0] <= v[0] <= rule[1]:
            err(line_no, f"{key}: must be in {rule[0]}..{rule[1]}, got {v[0]}")
        if key == "goal_sample":
            v = got[section].get(key, ()) + (v,)
        got[section][key] = v[0] if n == 1 else v

    if "obstacles" in got and "grid" in got:
        raise ScenarioError(f"{path}: give either [obstacles] or [grid], not both")
    for section, keys in _KEYS.items():
        missing = [key for key, row in keys.items() if row[0] and key not in got.get(section, {})]
        if missing and (section != "grid" or section in got):
            raise ScenarioError(f"{path}: missing required key {missing[0]!r} in [{section}]")

    w = got["world"]
    w.update(bounds=made(": bounds: ", Box, w["bounds"][:2], w["bounds"][2:]), obstacles=obstacles)
    if "grid" in got:
        g, line_no = got["grid"], lines["grid", "file"]
        grid_path = path.parent / g["file"]
        if not grid_path.is_file():
            err(line_no, f"file: {grid_path} does not exist or is not a file")
        # A GridLoadError, or an extent that World refuses.
        grid = made(f":{line_no}: file: {grid_path}: ", load_occupancy_grid, grid_path,
                    g["meters_per_cell"], g["origin"], g["threshold"]).grid
        w.update(obstacles=None, grid=grid)
    world = made(": [world] ", World, **w)

    # The table enforces every rule of the goal region and both parameter types.
    p = got["problem"]
    goal = GoalRegion(p["goal_center"], p["goal_radius"])
    problem = made(": problem: ", ProblemDef, p["root"], p.get("goal_sample", (goal.center,)), goal)
    made(": problem: ", problem.validate, world)
    stop = made(": [stop]: ", StopCondition, **got.get("stop", {}))
    bit = PlannerParams(batch_size=got["bitstar"]["batch_size"], radius=got["bitstar"]["rho"])
    name = got[None]["name"] if "name" in got[None] else path.stem
    return Scenario(name, world, problem, bit, RrtParams(**got["rrtstar"]), stop)


def run_single(scenario: Scenario, planner: str, seed: int, **hooks):
    if planner == "bitstar":
        return plan(scenario.problem, scenario.world, scenario.bitstar, scenario.stop,
                    RngStream(seed), **hooks)
    if planner == "rrtstar":
        return rrt_plan(scenario.problem, scenario.world, scenario.rrtstar, scenario.stop,
                        RngStream(seed))
    raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")


def run_trials(scenario: Scenario, planner: str, n: int,
               base_seed: int) -> list[list[ConvergencePoint]]:
    """The improvement traces of n independent trials, with seeds base_seed ..
    base_seed + n - 1; in each, elapsed strictly increases and cost never rises."""
    if n < 1:
        raise ValueError("trial count must be at least 1")
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    traces = []
    for k in range(n):
        seed = base_seed + k
        try:
            traces.append(run_single(scenario, planner, seed).convergence)
        except Exception as e:
            raise RuntimeError(f"trial with seed {seed} failed: {e}") from e
    return traces


def aggregate(traces, grid_step: float, horizon: float | None = None) -> list[AggregatePoint]:
    """Median/mean cost on a uniform time grid over trials solved by each time.

    The grid runs from 0 to the horizon, or with no horizon to the first grid
    time at or past the last record of any trace. A trial contributes at grid
    time t only once it has a finite cost at t: the cost of its last record
    at or before t (staircase interpolation of its improvement trace). One
    walk over all traces' records in time order updates each trial's cost;
    the statistics are recomputed only at a grid time that some record
    reaches, and repeat the previous row otherwise.
    """
    if not 0 < grid_step < math.inf:  # an infinite step would put a NaN time on the grid
        raise ValueError("grid step must be positive and finite")
    # A stable sort: of one trial's records at the same time, the last wins.
    records = sorted(((p.elapsed_s, k, p.cost) for k, trace in enumerate(traces) for p in trace),
                     key=itemgetter(0))
    last = records[-1][0] if records else 0.0
    end = last if horizon is None else horizon
    # Round the step count down, except when end is a whole number of steps
    # up to rounding: 0.3 / 0.1 is 2.9999999999999996 in floats.
    steps = end / grid_step * (1 + 1e-9)
    n = math.floor(steps) if steps < MAX_GRID_STEPS + 1 else math.inf  # also an inf or NaN end
    if horizon is None and n * grid_step < last:
        n += 1  # the last record lies past the rounded-down grid
    if n > MAX_GRID_STEPS:
        raise ValueError(f"grid step {grid_step:g} s over a horizon of {end:g} s gives "
                         f"{steps:.10g} grid steps; at most {MAX_GRID_STEPS} are allowed")
    current = [math.inf] * len(traces)
    rows, i, stats = [], 0, (0, math.nan, math.nan)
    for t in (j * grid_step for j in range(n + 1)):
        if i < len(records) and records[i][0] <= t:
            while i < len(records) and records[i][0] <= t:
                _, k, current[k] = records[i]
                i += 1
            costs = [c for c in current if math.isfinite(c)]
            stats = ((len(costs), statistics.median(costs), statistics.fmean(costs)) if costs
                     else (0, math.nan, math.nan))
        rows.append(AggregatePoint(t, *stats))
    return rows


def write_convergence_csv(rows: Sequence[tuple], path, kind=ConvergencePoint) -> None:
    """Write rows of one kind (a trial's ConvergencePoint trace, or aggregate
    AggregatePoint rows) as CSV: kind's field names, then one line per row.

    Fixed 6-decimal float formatting makes output bytes a pure function of
    the data.
    """
    row_format = _ROW_FORMATS[kind]
    lines = [",".join(kind._fields), *(row_format.format(*row) for row in rows)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
