#!/usr/bin/env python3
"""bitplan benchmark: wall time and solution cost at fixed work.

Run from the repository root:

    python3 perfbench/run.py --workload demo-bitstar --seed 1 --seconds 20 --trace 0

The workload seed fixes the inputs and `--seconds` fixes how many queries
run (see workloads.py), so one argument set always does the same work. The
queries run one after another in this process through `bitplan.cli.cli_main`.
Every returned path is checked; one query is run twice and must replay
exactly.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each query
untraced and then traced (tracing.py), reports the per-layer metrics and the
tracing overhead, and writes the spans to .perfbench_out/.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every query passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MIN_SAMPLES = 7

# What one `bitplan plan` call pays before planning starts, timed inside a
# fresh interpreter: importing bitplan, then loading and validating the
# scenario (for a grid scenario this parses the PGM map).
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import bitplan.cli
from bitplan.bench import resolve_scenario
resolve_scenario({ref!r})
print(repr(time.perf_counter() - t0))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Query:
    seed: int
    wall_s: float
    code: int | None
    stdout: str
    result: object  # the PlanResult cli_main computed, or None
    error: str | None = None


class ResultTap:
    """Stands in for `bitplan.cli.run_single` and keeps the PlanResult.

    cli_main returns only an exit code, so this pass-through is how the
    output check sees the path. It does no timing and costs one extra call
    per query.
    """

    def __init__(self, run_single):
        self.run_single = run_single
        self.result = None

    def __call__(self, *args, **kwargs):
        self.result = self.run_single(*args, **kwargs)
        return self.result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class SetupProbe:
    """Setup seconds of one `bitplan plan` call, timed in fresh interpreters.

    `sample` is called between queries, so the samples spread over the run
    and the median does not hinge on one moment of a noisy machine.
    """

    def __init__(self, scenario_ref: str):
        self.code = SETUP_PROBE.format(ref=scenario_ref)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self._probe()  # warm-up: may compile bytecode

    def _probe(self) -> float:
        out = subprocess.run([sys.executable, "-c", self.code], env=self.env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def sample(self) -> None:
        self.samples.append(self._probe())

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def run_query(workload, scenario_ref, seed, workdir, tap) -> Query:
    import bitplan.cli

    argv = workload.argv(scenario_ref, seed, workdir)
    tap.result = None
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = bitplan.cli.cli_main(argv)
    except Exception as e:  # a query that raises is a failed query
        code, error = None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    return Query(seed, wall, code, buf.getvalue(), tap.result, error)


def check_query(q: Query, scenario, csv_path: Path) -> str | None:
    """Why the query's output is wrong, or None when it passes."""
    if q.error is not None:
        return q.error
    if q.code != 0:
        return f"cli_main exited {q.code}"
    r = q.result
    if r is None or r.path is None or not math.isfinite(r.cost):
        return "no path"
    problem = scenario.problem
    if tuple(r.path[0]) != tuple(problem.root):
        return "path does not start at the root"
    if not problem.goal_region.contains(r.path[-1]):
        return "path does not end in the goal region"
    total = 0.0
    for a, b in zip(r.path, r.path[1:]):
        c = scenario.world.true_cost(a, b)  # a plain World: nothing is counted
        if not math.isfinite(c):
            return f"edge {a} -> {b} is blocked"
        total += c
    if abs(total - r.cost) > 1e-9:
        return f"edge lengths add to {total!r}, reported cost is {r.cost!r}"
    if f"cost={r.cost:.6f}" not in q.stdout:
        return "printed cost differs from the returned cost"
    rows = csv_path.read_text(encoding="ascii").splitlines()
    if len(rows) != len(r.convergence) + 1 or rows[-1].split(",")[1] != f"{r.cost:.6f}":
        return "convergence CSV does not match the returned records"
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cost_p50(runs: list[Query]) -> float:
    costs = [q.result.cost for q in runs if q.result is not None and math.isfinite(q.result.cost)]
    return statistics.median(costs) if costs else 0.0  # 0: every query failed


def end_to_end(setup_s: float, runs: list[Query], failed: int) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": sum(q.wall_s for q in runs),
        "query_wall_s_p50": statistics.median(q.wall_s for q in runs),
        "cost_p50": cost_p50(runs),
        "ok_frac": 1.0 - failed / len(runs),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tr, untraced: list[Query], traced: list[Query]) -> dict[str, float]:
    """Per-query means of the traced counts and times, plus ratios."""
    n = len(traced)
    calls, total, self_s, counts = tr.calls, tr.total_s, tr.self_s, tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    finals = [q.result.convergence[-1] for q in traced if q.result is not None]
    planner_s = [p.elapsed_s for p in finals]
    traced_wall = sum(q.wall_s for q in traced)
    untraced_wall = sum(q.wall_s for q in untraced)
    layers = tr.self_by_layer()
    m = {
        "space.sample_batch.calls": calls("space.sample_batch") / n,
        "space.sample_batch.self_s": self_s("space.sample_batch") / n,
        "space.draws": calls("space.point") / n,
        # RRT* draws without sample_batch, so it has no acceptance ratio.
        "space.accept_ratio": (ratio(counts["space.accepted"], calls("space.point"))
                               if calls("space.sample_batch") else 0.0),
        "world.is_free.calls": calls("world.is_free") / n,
        "world.is_free.s": total("world.is_free") / n,
        "world.all_free.calls": calls("world.all_free") / n,
        "world.all_free.s": total("world.all_free") / n,
        "world.all_free.points": counts["world.all_free.points"] / n,
        "world.segment_cost.calls": calls("world.segment_cost") / n,
        "world.segment_cost.self_s": self_s("world.segment_cost") / n,
        "world.edge_free_ratio": ratio(calls("world.segment_cost") - counts["world.segment_cost.inf"],
                                       calls("world.segment_cost")),
        "world.points_per_edge": ratio(counts["world.all_free.points"], calls("world.segment_cost")),
        "world.planner_s": sum(planner_s) / n,
        "world.wall_per_planner_s": ratio(untraced_wall, sum(planner_s)),
        "queues.insert.calls": calls("queues.insert") / n,
        "queues.pop_best.calls": calls("queues.pop_best") / n,
        "queues.s": (total("queues.insert") + total("queues.pop_best")) / n,
        "tree.add_child.calls": calls("tree.add_child") / n,
        "tree.rewire.calls": calls("tree.rewire") / n,
        "tree.remove_subtree.calls": calls("tree.remove_subtree") / n,
        "tree.states_matrix.calls": calls("tree.states_matrix") / n,
        "tree.s": sum(total(k) for k in ("tree.add_child", "tree.rewire",
                                          "tree.remove_subtree", "tree.states_matrix")) / n,
        "tree.vertices_p50": statistics.median(p.tree_vertices for p in finals) if finals else 0,
        "bitstar.expand_vertex.calls": calls("bitstar.expand_vertex") / n,
        "bitstar.expand_vertex.self_s": self_s("bitstar.expand_vertex") / n,
        "bitstar.scanned": counts["bitstar.scanned"] / n,
        "bitstar.expand_edge.calls": calls("bitstar.expand_edge") / n,
        "bitstar.expand_edge.self_s": self_s("bitstar.expand_edge") / n,
        # BIT* changes the tree only inside expand_edge.
        "bitstar.edge_yield": ratio(calls("tree.add_child") + calls("tree.rewire"),
                                    calls("bitstar.expand_edge")),
        "bitstar.prune.s": total("bitstar.prune") / n,
        "bitstar.start_new_batch.s": total("bitstar.start_new_batch") / n,
        "bitstar.plan.self_s": self_s("bitstar.plan") / n,
        "rrtstar.rrt_plan.self_s": self_s("rrtstar.rrt_plan") / n,
        "rrtstar.steer.calls": calls("rrtstar.steer") / n,
        "bench.load_scenario.s": total("bench.load_scenario") / n,
        "bench.write_convergence_csv.s": total("bench.write_convergence_csv") / n,
        "svg.render_svg.calls": calls("svg.render_svg") / n,
        "svg.render_svg.s": total("svg.render_svg") / n,
        "svg.bytes": counts["svg.bytes"] / n,
        "cli.cli_main.s": total("cli.cli_main") / n,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for layer, seconds in layers.items():
        m[f"{layer}.self_frac"] = seconds / traced_wall
    return m


def replay_mismatch(a: Query, b: Query) -> bool:
    ra, rb = a.result, b.result
    return ra is None or rb is None or list(ra.convergence) != list(rb.convergence)


def run(args, spec) -> tuple[dict, int, int, list[str]]:
    """Run one workload; returns (metrics, attempted, failed, problems)."""
    import bitplan.cli
    from bitplan.bench import resolve_scenario
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    tap = ResultTap(bitplan.cli.run_single)
    bitplan.cli.run_single = tap
    try:
        scenario_ref, facts = workload.prepare(args.seed, workdir)
        for key, value in facts.items():
            print(f"input {key} = {value!r}")
        probe = SetupProbe(scenario_ref)
        scenario = resolve_scenario(scenario_ref)
        seeds = workload.query_seeds(args.seed, args.seconds)
        csv_path = workdir / "query.csv"

        tracer = Tracer() if args.trace else None
        runs, traced = [], []
        problems = []
        failed_seeds = set()
        for k, seed in enumerate(seeds):  # check each query before the next overwrites its CSV
            q = run_query(workload, scenario_ref, seed, workdir, tap)
            why = check_query(q, scenario, csv_path)
            if why is not None:
                problems.append(f"query seed {seed}: {why}")
                failed_seeds.add(seed)
            runs.append(q)
            probe.sample()  # outside the timed query
            if tracer is not None:
                # The traced twin runs right after, so on a machine whose speed
                # drifts both runs of a query see the same speed.
                tracer.query = k
                tracer.install()
                try:
                    traced.append(run_query(workload, scenario_ref, seed, workdir, tap))
                finally:
                    tracer.uninstall()
        if tracer is None:  # replay one query; a traced run replays every query
            pairs = [(runs[0], run_query(workload, scenario_ref, seeds[0], workdir, tap))]
        else:
            pairs = list(zip(runs, traced))
        for first, second in pairs:
            if replay_mismatch(first, second):
                problems.append(f"query seed {first.seed}: a second run gave other records")
                failed_seeds.add(first.seed)
        failed = len(failed_seeds)
        e2e = end_to_end(probe.median(), runs, failed)

        if tracer is None:
            for name, value in e2e.items():
                print(f"{name} = {value!r} {spec[name]['unit']}")
            print(f"query_wall_s_p50 is the median of {len(runs)} queries")
            return e2e, len(runs), failed, problems

        unused = [name for name in workload.expected_calls if tracer.calls(name) == 0]
        if unused:
            problems.append(f"traced layers recorded no calls: {', '.join(unused)}")
        layer = per_layer(tracer, runs, traced)
        if cost_p50(traced) != e2e["cost_p50"]:
            problems.append("traced cost_p50 differs from the untraced one")

        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed, "query_seeds": seeds,
                       "end_to_end": e2e, "per_layer": layer, **tracer.dump()}, fh)
        for name, value in e2e.items():
            print(f"{name} = {value!r} {spec[name]['unit']} (untraced)")
        for name, value in layer.items():
            print(f"{name} = {value!r} {spec.get(name, {}).get('unit', '')}")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        return layer, len(traced), failed, problems
    finally:
        bitplan.cli.run_single = tap.run_single
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "bitplan" / "__init__.py").is_file():
            raise BenchmarkError(f"no bitplan sources under {SRC}")
        bench_file = ROOT / "BENCHMARK.json"
        config = json.loads(bench_file.read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        import bitplan

        if Path(bitplan.__file__).resolve().parent != SRC / "bitplan":
            raise BenchmarkError(f"imported bitplan from {bitplan.__file__}, not from {SRC}")
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"expected one of {sorted(WORKLOADS)}")
    except (BenchmarkError, OSError, ValueError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    metrics, attempted, failed, problems = run(args, spec)
    wanted = [m["name"] for m in config[section]]
    missing = [name for name in wanted if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        problems.append(f"metrics not computed or not finite: {', '.join(missing)}")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name]["unit"]}
                    for name in wanted if name not in missing},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
