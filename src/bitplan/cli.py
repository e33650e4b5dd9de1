"""Command-line interface: single runs, benchmarks, and the demo scenario.

Exit codes: 0 success, 1 usage error, 2 runtime failure. All outputs are a
pure function of (scenario, seed): rerunning a command reproduces its CSV
and SVG files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    PLANNERS,
    AggregatePoint,
    aggregate,
    resolve_scenario,
    run_single,
    run_trials,
    write_convergence_csv,
)
from .anytime import StopCondition
from .svg import render_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(conv, low, strict=False):
    """An argparse type for numbers conv(text) with low <= value < inf, or
    low < value < inf if strict. Text conv refuses reads as NaN, which fails
    both. The float wordings take low to be 0. An int is compared with inf
    directly: math.isfinite raises OverflowError on an int past float range."""
    kind = (f"an integer >= {low}" if conv is int
            else f"a {'positive' if strict else 'non-negative'} finite number")

    def parse(text: str):
        try:
            value = conv(text)
        except ValueError:
            value = math.nan
        if not (low < value < math.inf if strict else low <= value < math.inf):
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        return value
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="bitplan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_plan = sub.add_parser("plan", help="run one trial and emit its convergence CSV")
    p_bench = sub.add_parser("bench", help="run seeded trials and emit the aggregate CSV")
    # `demo` is `plan` on the built-in scenario with BIT*; only its stdout line differs.
    p_demo = sub.add_parser("demo", help="run the built-in demo with per-batch snapshots")
    p_demo.set_defaults(scenario="demo", planner="bitstar", time_budget=None)
    for p in (p_plan, p_bench):
        p.add_argument("--scenario", required=True, help="scenario file path or built-in name (e.g. demo)")
        p.add_argument("--planner", required=True, choices=PLANNERS)
        p.add_argument("--time-budget", type=_at_least(float, 0), default=None,
                       metavar="S", help="replace the stop: planner-seconds budget")
    for p in (p_plan, p_bench, p_demo):
        p.add_argument("--seed", type=_at_least(int, 0), default=1,
                       help="planner seed (default 1); bench runs seeds SEED to SEED+TRIALS-1")
        p.add_argument("--max-batches", type=_at_least(int, 0), default=None, metavar="N",
                       help="replace the stop: batch (bitstar) / iteration (rrtstar) cap")
        p.add_argument("--out", type=Path, default=None, help="CSV output path")
    p_plan.add_argument("--svg-dir", type=Path, default=None,
                        help="write per-batch SVG snapshots here (bitstar only)")
    p_demo.add_argument("--svg-dir", type=Path, default=Path("demo_out"))
    p_bench.add_argument("--trials", type=_at_least(int, 1), default=20,
                         help="trial count (default 20)")
    p_bench.add_argument("--grid-step", type=_at_least(float, 0, strict=True), default=0.1,
                         metavar="S", help="aggregate time-grid step (default 0.1)")

    return parser


def _snapshot_hook(svg_dir: Path, scenario):
    svg_dir.mkdir(parents=True, exist_ok=True)
    problem = scenario.problem

    def hook(batch: int, ctx):
        states = ctx.tree.states
        edges = [(states[p], s) for p, s in zip(ctx.tree.parents, states) if p is not None]
        # The informed set g_hat + h_hat < c_sol is the union of one ellipse
        # per goal sample, each with the root and that sample as foci;
        # render_svg draws none while c_sol is inf.
        ellipses = [(problem.root, g, ctx.c_sol) for g in problem.goal_samples]
        render_svg(scenario.world, edges, ctx.path, ellipses, list(ctx.x_ncon.rows),
                   svg_dir / f"batch_{batch:03d}.svg")

    return hook


def _cmd_plan(args, scenario) -> int:
    hooks = {}
    if args.svg_dir is not None:
        if args.planner == "bitstar":
            hooks["batch_hook"] = _snapshot_hook(args.svg_dir, scenario)
        else:
            print("note: --svg-dir snapshots are per batch and apply to bitstar only",
                  file=sys.stderr)
    result = run_single(scenario, args.planner, args.seed, **hooks)
    if args.out is not None:
        write_convergence_csv(result.convergence, args.out)
    if args.command == "demo":
        print(f"demo seed={args.seed} cost={result.cost:.6f} snapshots in {args.svg_dir}")
    else:
        print(f"{args.planner} seed={args.seed} cost={result.cost:.6f} "
              f"records={len(result.convergence)}")
    return 0


def _cmd_bench(args, scenario) -> int:
    traces = run_trials(scenario, args.planner, args.trials, args.seed)
    rows = aggregate(traces, args.grid_step, scenario.stop.time_budget_s)
    if args.out is not None:
        write_convergence_csv(rows, args.out, AggregatePoint)
    # The summary is the CSV's last row: on a timed run, the row at the horizon.
    print(f"{args.planner} trials={args.trials} solved={rows[-1].n_solved} "
          f"median_cost={rows[-1].median_cost:.6f}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        scenario = resolve_scenario(args.scenario)
        if args.time_budget is not None or args.max_batches is not None:
            # Either flag replaces the scenario's whole stop condition.
            scenario = replace(scenario, stop=StopCondition(args.time_budget, args.max_batches))
        if args.command == "bench":
            return _cmd_bench(args, scenario)
        return _cmd_plan(args, scenario)
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
