"""Scenario files, seeded multi-trial execution, aggregation, and CSV output.

Scenario format (line-oriented, '#' starts a comment, blank lines ignored;
every number must be finite; an unknown section or key is an error):

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
    threshold = 127
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
    [bench]
    trials = 20                 # optional, default 20
    base_seed = 1               # optional, default 1

Trial k of a benchmark uses seed base_seed + k, so reruns and concurrent
executions produce identical, order-stable results.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .anytime import ConvergencePoint, StopCondition
from .bitstar import PlannerParams, plan
from .rrtstar import RrtParams, rrt_plan
from .space import Box, GoalRegion, ProblemDef, RngStream
from .world import Circle, GridLoadError, Rect, World, load_occupancy_grid

PLANNERS = ("bitstar", "rrtstar")


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
    trials: int
    base_seed: int


@dataclass(frozen=True)
class ConvergenceSeries:
    """One trial's improvement trace; elapsed strictly increasing, cost non-increasing."""

    planner: str
    seed: int
    points: tuple[ConvergencePoint, ...]


@dataclass(frozen=True)
class AggregateTable:
    """Per-gridpoint statistics over the trials that have a solution by then."""

    times: tuple[float, ...]
    n_solved: tuple[int, ...]
    median_cost: tuple[float, ...]
    mean_cost: tuple[float, ...]


def builtin_scenario_path(name: str) -> Path:
    p = resources.files("bitplan").joinpath(f"scenarios/{name}.scn")
    return Path(str(p))


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
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"{path}: {e}") from e

    top: dict[str, tuple[int, str]] = {}
    sections: dict[str, dict[str, tuple[int, str]]] = {}
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
            if section not in ("world", "obstacles", "grid", "problem", "bitstar", "rrtstar", "stop", "bench"):
                err(line_no, f"unknown section [{section}]")
            sections.setdefault(section, {})
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
        store = top if section is None else sections[section]
        if key in store:
            err(line_no, f"duplicate key {key!r}")
        store[key] = (line_no, value)

    def where(section_name):
        return f"[{section_name}]" if section_name else "top level"

    read: set[tuple[str | None, str]] = set()  # every (section, key) looked up

    def get(section_name, key, required=True, default=None):
        read.add((section_name, key))
        store = top if section_name is None else sections.get(section_name, {})
        if key not in store:
            if required:
                raise ScenarioError(f"{path}: missing required key {key!r} in {where(section_name)}")
            return None, default
        return store[key]

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

    def floats(section_name, key, n, required=True, default=None):
        line_no, value = get(section_name, key, required, None)
        if value is None:
            return default
        return numbers(line_no, key, value.split(), n)

    def scalar(section_name, key, conv, required=True, default=None):
        line_no, value = get(section_name, key, required, None)
        if value is None:
            return default
        return numbers(line_no, key, value.split(), 1, conv)[0]

    def positive(section_name, key, conv, required=True, default=None):
        v = scalar(section_name, key, conv, required, default)
        if v is not None and v <= 0:
            line_no, _ = get(section_name, key)
            err(line_no, f"{key}: must be positive")
        return v

    _, name = get(None, "name", required=False, default=path.stem)

    b = floats("world", "bounds", 4)
    try:
        bounds = Box((b[0], b[1]), (b[2], b[3]))
    except ValueError as e:
        raise ScenarioError(f"{path}: bounds: {e}") from e
    cpm = positive("world", "checks_per_meter", float, required=False, default=4.0)

    has_obstacles = "obstacles" in sections
    has_grid = "grid" in sections
    if has_obstacles and has_grid:
        raise ScenarioError(f"{path}: give either [obstacles] or [grid], not both")
    if has_grid:
        line_no, grid_file = get("grid", "file")
        grid_path = path.parent / grid_file
        if not grid_path.is_file():
            err(line_no, f"file: {grid_path} does not exist or is not a file")
        mpc = positive("grid", "meters_per_cell", float)
        origin = floats("grid", "origin", 2)
        threshold = scalar("grid", "threshold", int)
        try:
            grid = load_occupancy_grid(grid_path, mpc, origin, threshold).grid
        except (GridLoadError, OSError) as e:
            raise ScenarioError(f"{path}:{line_no}: file: {grid_path}: {e}") from e
        try:
            world = World(bounds, grid=grid, checks_per_meter=cpm)
        except ValueError as e:
            raise ScenarioError(f"{path}: [world] {e}") from e
    else:
        obstacles = []
        for line_no, line in obstacle_lines:
            kind, *parts = line.split()
            if (kind, len(parts)) not in (("circle", 3), ("rect", 4)):
                err(line_no, f"expected 'circle CX CY R' or 'rect XMIN YMIN XMAX YMAX', got {line!r}")
            v = numbers(line_no, kind, parts, len(parts))
            try:
                obstacles.append(Circle(v[:2], v[2]) if kind == "circle" else Rect(v[:2], v[2:]))
            except ValueError as e:
                err(line_no, f"bad obstacle: {e}")
        world = World(bounds, obstacles, checks_per_meter=cpm)

    root = floats("problem", "root", 2)
    goal_center = floats("problem", "goal_center", 2)
    goal_radius = positive("problem", "goal_radius", float)
    goal_samples = tuple(
        numbers(line_no, "goal_sample", value.split(), 2) for line_no, value in goal_sample_lines
    ) or (goal_center,)
    try:
        problem = ProblemDef(root, goal_samples, GoalRegion(goal_center, goal_radius))
        problem.validate(world)
    except ValueError as e:
        raise ScenarioError(f"{path}: problem: {e}") from e

    time_budget = positive("stop", "time_budget_s", float, required=False)
    max_batches = scalar("stop", "max_batches", int, required=False)
    if max_batches is not None and max_batches < 0:
        line_no, _ = get("stop", "max_batches")
        err(line_no, "max_batches: must be non-negative")
    target_cost = positive("stop", "target_cost", float, required=False)
    try:
        stop = StopCondition(time_budget, max_batches, target_cost)
    except ValueError as e:
        raise ScenarioError(f"{path}: [stop]: {e}") from e

    try:
        bit = PlannerParams(
            batch_size=positive("bitstar", "batch_size", int),
            radius=positive("bitstar", "rho", float),
        )
        rrt = RrtParams(
            eta=positive("rrtstar", "eta", float),
            alpha=positive("rrtstar", "alpha", int),
            goal_period=positive("rrtstar", "goal_period", int),
        )
    except ValueError as e:
        raise ScenarioError(f"{path}: planner params: {e}") from e

    trials = positive("bench", "trials", int, required=False, default=20)
    base_seed = scalar("bench", "base_seed", int, required=False, default=1)
    if base_seed < 0:
        line_no, _ = get("bench", "base_seed")
        err(line_no, "base_seed: must be non-negative")

    # A key nothing read is a typo or misplaced: running without it would
    # silently use a default.
    first = min(((line_no, key, name) for name, store in [(None, top), *sections.items()]
                 for key, (line_no, _) in store.items() if (name, key) not in read), default=None)
    if first is not None:
        line_no, key, name = first
        err(line_no, f"unknown key {key!r} in {where(name)}")

    return Scenario(name, world, problem, bit, rrt, stop, trials, base_seed)


def run_single(scenario: Scenario, planner: str, seed: int, **hooks):
    if planner == "bitstar":
        return plan(scenario.problem, scenario.world, scenario.bitstar, scenario.stop,
                    RngStream(seed), **hooks)
    if planner == "rrtstar":
        return rrt_plan(scenario.problem, scenario.world, scenario.rrtstar, scenario.stop,
                        RngStream(seed))
    raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")


def run_trials(scenario: Scenario, planner: str, n: int) -> list[ConvergenceSeries]:
    """n independent trials with seeds base_seed .. base_seed + n - 1."""
    if n < 1:
        raise ValueError("trial count must be at least 1")
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    out = []
    for k in range(n):
        seed = scenario.base_seed + k
        try:
            result = run_single(scenario, planner, seed)
        except Exception as e:
            raise RuntimeError(f"trial with seed {seed} failed: {e}") from e
        out.append(ConvergenceSeries(planner, seed, tuple(result.convergence)))
    return out


def cost_at(series: ConvergenceSeries, t: float) -> float:
    """Staircase interpolation: last recorded cost at or before t, else +inf."""
    times = [p.elapsed_s for p in series.points]
    i = bisect_right(times, t)
    return series.points[i - 1].cost if i else math.inf


def aggregate(series_list, grid_step: float, horizon: float) -> AggregateTable:
    """Median/mean cost on a uniform time grid over trials solved by each time.

    A trial contributes at grid time t only once it has a finite cost at t
    (staircase interpolation of its improvement trace).
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    # Round the step count down, except when the horizon is a whole number of
    # steps up to rounding: 0.3 / 0.1 is 2.9999999999999996 in floats.
    times = [i * grid_step for i in range(math.floor(horizon / grid_step * (1 + 1e-9)) + 1)]
    n_solved, medians, means = [], [], []
    for t in times:
        costs = [c for s in series_list if math.isfinite(c := cost_at(s, t))]
        n_solved.append(len(costs))
        medians.append(statistics.median(costs) if costs else math.nan)
        means.append(statistics.fmean(costs) if costs else math.nan)
    return AggregateTable(tuple(times), tuple(n_solved), tuple(medians), tuple(means))


def write_convergence_csv(obj: ConvergenceSeries | AggregateTable, path) -> None:
    """Write a per-trial trace (ConvergenceSeries) or an AggregateTable as CSV.

    Fixed 6-decimal float formatting makes output bytes a pure function of
    the data.
    """
    if isinstance(obj, AggregateTable):
        lines = ["t_s,n_solved,median_cost,mean_cost"]
        for t, n, med, mean in zip(obj.times, obj.n_solved, obj.median_cost, obj.mean_cost):
            lines.append(f"{t:.6f},{n},{med:.6f},{mean:.6f}")
    else:
        lines = ["elapsed_s,cost,batch,tree_vertices,samples_drawn"]
        for p in obj.points:
            lines.append(
                f"{p.elapsed_s:.6f},{p.cost:.6f},{p.batch},{p.tree_vertices},{p.samples_drawn}"
            )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
