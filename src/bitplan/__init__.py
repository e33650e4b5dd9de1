"""Anytime sampling-based motion planning: BIT* with an RRT* baseline."""

from .anytime import ConvergencePoint, PlanResult, StopCondition
from .bitstar import PlannerContext, PlannerParams, plan
from .rrtstar import RrtParams, rrt_plan, steer
from .space import (
    Box,
    GoalRegion,
    ProblemDef,
    RngStream,
    SamplerStarvedError,
    State,
    c_hat,
    g_hat,
    h_hat,
    informed_test,
    sample_batch,
)
from .world import (
    WORK_UNITS_PER_SECOND,
    Circle,
    CountingWorld,
    GridLoadError,
    OccupancyGrid,
    World,
    load_occupancy_grid,
    save_occupancy_grid,
)

__all__ = [
    "Box",
    "WORK_UNITS_PER_SECOND",
    "Circle",
    "ConvergencePoint",
    "CountingWorld",
    "GoalRegion",
    "GridLoadError",
    "OccupancyGrid",
    "PlanResult",
    "PlannerContext",
    "PlannerParams",
    "ProblemDef",
    "RngStream",
    "RrtParams",
    "SamplerStarvedError",
    "State",
    "StopCondition",
    "World",
    "c_hat",
    "g_hat",
    "h_hat",
    "informed_test",
    "load_occupancy_grid",
    "plan",
    "rrt_plan",
    "sample_batch",
    "save_occupancy_grid",
    "steer",
]
