"""Scenario files, seeded multi-trial execution, aggregation, and CSV output.

Scenario format (UTF-8 text, a leading byte-order mark ignored; line-oriented,
'#' starts a comment, blank lines ignored; every number must be finite; an
unknown section or key is an error):

    name = demo                 # optional, defaults to the file stem
    [world]
    bounds = XMIN YMIN XMAX YMAX  # with [grid]: must equal the map extent
    checks_per_meter = 4        # optional, default 4
    [obstacles]                 # or a [grid] section, not both
    circle CX CY R
    rect XMIN YMIN XMAX YMAX
    [grid]
    file = map.pgm              # relative to the scenario file
    meters_per_cell = 0.1
    origin = X Y
    threshold = 127             # 0..255; gray value <= threshold is blocked
    [problem]
    root = X Y
    goal_center = X Y
    goal_radius = R
    goal_sample = X Y           # repeatable; defaults to goal_center
    [bitstar]
    batch_size = 100
    rho = 8
    [rrtstar]
    eta = 2
    alpha = 20
    goal_period = 50
    [stop]                      # at least one bound
    max_batches = 10
    time_budget_s = 1.0
    target_cost = 17.0

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
    path = Path(path)

    def made(where: str, make, *args):
        # The one path from a refusal (a constructor's ValueError, a read's
        # OSError or UnicodeDecodeError) to a ScenarioError naming the file.
        try:
            return make(*args)
        except (ValueError, OSError) as e:
            raise ScenarioError(f"{path}{where}{e}") from e

    text = made(": ", lambda: path.read_text(encoding="utf-8-sig"))

    # Each section's keys as (line, text); None is the top level. Reading a
    # key pops it, so whatever is left at the end was never read.
    stores: dict[str | None, dict[str, tuple[int, str]]] = {None: {}}
    obstacle_lines: list[tuple[int, str]] = []
    goal_sample_lines: list[tuple[int, str]] = []
    section = None

    def err(line_no: int, msg: str):
        raise ScenarioError(f"{path}:{line_no}: {msg}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("world", "obstacles", "grid", "problem", "bitstar", "rrtstar", "stop"):
                err(line_no, f"unknown section [{section}]")
            stores.setdefault(section, {})
            continue
        if section == "obstacles":
            obstacle_lines.append((line_no, line))
            continue
        if "=" not in line:
            err(line_no, "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            err(line_no, "empty key")
        if section == "problem" and key == "goal_sample":
            goal_sample_lines.append((line_no, value))
            continue
        if key in stores[section]:
            err(line_no, f"duplicate key {key!r}")
        stores[section][key] = (line_no, value)

    def where(section_name):
        return f"[{section_name}]" if section_name else "top level"

    def entry(section_name, key, required=True):
        """A key's (line, text), or None when it is absent and not required."""
        found = stores.get(section_name, {}).pop(key, None)
        if found is None and required:
            raise ScenarioError(f"{path}: missing required key {key!r} in {where(section_name)}")
        return found

    def numbers(line_no, field, parts, n, conv=float):
        # The one parser for every number in the file: exactly n finite values.
        if len(parts) != n:
            err(line_no, f"{field}: expected {n} number{'s' * (n > 1)}, got {len(parts)}")
        try:
            values = tuple(conv(p) for p in parts)
        except ValueError:
            err(line_no, f"{field}: invalid value {' '.join(parts)!r}")
        if not all(math.isfinite(v) for v in values):
            err(line_no, f"{field}: numbers must be finite, got {' '.join(parts)!r}")
        return values

    def read(section_name, key, n=1, conv=float, low=None, within=None, required=True,
             default=None):
        """n numbers as a tuple, or one bare; low is "positive" or "non-negative",
        within an inclusive (lo, hi) range."""
        found = entry(section_name, key, required)
        if found is None:
            return default
        line_no, value = found
        values = numbers(line_no, key, value.split(), n, conv)
        if (low == "positive" and values[0] <= 0) or (low == "non-negative" and values[0] < 0):
            err(line_no, f"{key}: must be {low}")
        if within and not within[0] <= values[0] <= within[1]:
            err(line_no, f"{key}: must be in {within[0]}..{within[1]}, got {values[0]}")
        return values if n > 1 else values[0]

    found = entry(None, "name", required=False)
    name = found[1] if found else path.stem

    b = read("world", "bounds", 4)
    bounds = made(": bounds: ", Box, (b[0], b[1]), (b[2], b[3]))
    cpm = read("world", "checks_per_meter", low="positive", required=False, default=4.0)

    if "obstacles" in stores and "grid" in stores:
        raise ScenarioError(f"{path}: give either [obstacles] or [grid], not both")
    if "grid" in stores:
        line_no, grid_file = entry("grid", "file")
        grid_path = path.parent / grid_file
        if not grid_path.is_file():
            err(line_no, f"file: {grid_path} does not exist or is not a file")
        mpc = read("grid", "meters_per_cell", low="positive")
        origin = read("grid", "origin", 2)
        threshold = read("grid", "threshold", conv=int, within=(0, 255))
        # A GridLoadError, or an extent that World refuses.
        grid = made(f":{line_no}: file: {grid_path}: ", load_occupancy_grid,
                    grid_path, mpc, origin, threshold).grid
        obstacles = None
    else:
        grid, obstacles = None, []
        for line_no, line in obstacle_lines:
            kind, *parts = line.split()
            if (kind, len(parts)) not in (("circle", 3), ("rect", 4)):
                err(line_no, f"expected 'circle CX CY R' or 'rect XMIN YMIN XMAX YMAX', got {line!r}")
            v = numbers(line_no, kind, parts, len(parts))
            make, rest = (Circle, v[2]) if kind == "circle" else (Box, v[2:])
            obstacles.append(made(f":{line_no}: bad obstacle: ", make, v[:2], rest))
    world = made(": [world] ", World, bounds, obstacles, grid, cpm)

    root = read("problem", "root", 2)
    goal_center = read("problem", "goal_center", 2)
    goal_radius = read("problem", "goal_radius", low="positive")
    goal_samples = tuple(
        numbers(line_no, "goal_sample", value.split(), 2) for line_no, value in goal_sample_lines
    ) or (goal_center,)
    problem = made(": problem: ",
                   lambda: ProblemDef(root, goal_samples, GoalRegion(goal_center, goal_radius)))
    made(": problem: ", problem.validate, world)

    time_budget = read("stop", "time_budget_s", low="positive", required=False)
    max_batches = read("stop", "max_batches", conv=int, low="non-negative", required=False)
    target_cost = read("stop", "target_cost", low="positive", required=False)
    stop = made(": [stop]: ", StopCondition, time_budget, max_batches, target_cost)

    # The reads enforce every rule of both parameter types.
    bit = PlannerParams(batch_size=read("bitstar", "batch_size", conv=int, low="positive"),
                        radius=read("bitstar", "rho", low="positive"))
    rrt = RrtParams(eta=read("rrtstar", "eta", low="positive"),
                    alpha=read("rrtstar", "alpha", conv=int, low="positive"),
                    goal_period=read("rrtstar", "goal_period", conv=int, low="positive"))

    # A key nothing read is a typo or misplaced: running without it would
    # silently use a default.
    first = min(((line_no, key, section_name) for section_name, store in stores.items()
                 for key, (line_no, _) in store.items()), default=None)
    if first is not None:
        line_no, key, section_name = first
        err(line_no, f"unknown key {key!r} in {where(section_name)}")

    return Scenario(name, world, problem, bit, rrt, stop)


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
