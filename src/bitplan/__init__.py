"""Anytime sampling-based motion planning: BIT* with an RRT* baseline.

The package exports the library API that README's "Library use" section
documents; everything else is imported from its own module (say,
`bitplan.world.load_occupancy_grid` or `bitplan.space.h_hat`).
"""

from .anytime import ConvergencePoint, PlanResult, StopCondition
from .bitstar import PlannerParams, plan
from .rrtstar import RrtParams, rrt_plan
from .space import Box, ProblemDef, RngStream, SamplerStarvedError
from .world import Circle, World

__all__ = [
    "Box",
    "Circle",
    "ConvergencePoint",
    "PlanResult",
    "PlannerParams",
    "ProblemDef",
    "RngStream",
    "RrtParams",
    "SamplerStarvedError",
    "StopCondition",
    "World",
    "plan",
    "rrt_plan",
]
