"""The benchmark's workloads: which scenario, which planner, which queries.

Each workload is a closed loop: one caller runs its queries one after
another through `bitplan.cli.cli_main`, exactly as a user would type them.
Every query stops on a structural limit (batches for BIT*, iterations for
RRT*), never on a planner-second budget, so the work a query does is fixed
by its seed and does not depend on how the work clock is calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from gridworld import GridWorld

# Functions every BIT* query reaches; a workload fails its traced run if one
# of its expected names records no call.
_BITSTAR_CALLS = (
    "cli.cli_main", "bench.run_single", "bench.load_scenario", "bench.write_convergence_csv",
    "bitstar.plan", "bitstar.start_new_batch", "bitstar.prune", "bitstar.expand_vertex",
    "bitstar.expand_edge", "space.sample_batch", "space.point", "world.segment_cost",
    "world.all_free", "world.is_free", "queues.insert", "queues.pop_best", "tree.add_child",
    "tree.rewire", "tree.remove_subtree", "tree.states_matrix",
)


@dataclass(frozen=True)
class Workload:
    name: str
    planner: str
    nominal_query_s: float  # rough wall time of one query; sizes the query set
    expected_calls: tuple[str, ...]

    def prepare(self, seed: int, workdir: Path) -> tuple[str, dict]:
        """Scenario reference for the CLI, plus facts about generated inputs."""
        return "demo", {}

    def argv(self, scenario: str, query_seed: int, workdir: Path) -> list[str]:
        out = workdir / "query.csv"
        return ["plan", "--scenario", scenario, "--planner", self.planner,
                "--seed", str(query_seed), "--out", str(out)]

    def query_seeds(self, seed: int, seconds: float) -> list[int]:
        """Planner seeds of the fixed query set for this workload seed.

        The count follows from the run length alone, so one (seed, seconds)
        pair always runs the same work, on any machine and any commit.
        """
        n = max(3, round(seconds / self.nominal_query_s))
        return [1000 * seed + k for k in range(n)]


class DemoBitstar(Workload):
    def argv(self, scenario, query_seed, workdir):
        return ["demo", "--seed", str(query_seed), "--max-batches", "10",
                "--out", str(workdir / "query.csv"), "--svg-dir", str(workdir / "svg")]


class DemoRrtstar(Workload):
    def argv(self, scenario, query_seed, workdir):
        return super().argv(scenario, query_seed, workdir) + ["--max-batches", "6000"]


class GridInformedBitstar(Workload):
    def prepare(self, seed, workdir):
        world = GridWorld(seed)
        accept = world.check_not_starved()
        scn = world.write(workdir / "grid")
        return str(scn), {"accept_ratio_at_optimum": accept}

    def argv(self, scenario, query_seed, workdir):
        return super().argv(scenario, query_seed, workdir) + ["--max-batches", "10"]


WORKLOADS = {
    w.name: w
    for w in (
        DemoBitstar("demo-bitstar", "bitstar", 2.5, _BITSTAR_CALLS + ("svg.render_svg",)),
        DemoRrtstar("demo-rrtstar", "rrtstar", 2.1, (
            "cli.cli_main", "bench.run_single", "bench.load_scenario",
            "bench.write_convergence_csv", "rrtstar.rrt_plan", "rrtstar.steer", "space.point",
            "world.segment_cost", "world.all_free", "tree.add_child", "tree.rewire")),
        GridInformedBitstar("grid-informed-bitstar", "bitstar", 4.0, _BITSTAR_CALLS),
    )
}
