#!/usr/bin/env python3
"""Print the tracemalloc heap peak of one benchmark query per workload.

For each workload in REPO_ROOT/perfbench/workloads.py, this prepares the
inputs of workload seed 1 in a temporary directory, runs the workload's
first query (planner seed 1000) once as a warm-up, then once more through
`bitplan.cli.cli_main` with tracemalloc tracing from the query's start. It
prints one `workload peak_bytes planning_peak_bytes` row per workload:
peak_bytes is the most memory the query held at once, in bytes, counting
only what it allocated (imports, caches and the warm-up's leftovers are made
before tracing starts, and a full collection then empties the free lists, so
every tuple and float the query holds is counted); planning_peak_bytes is
the most it held from the return of `bitplan.bench.load_scenario` to its
end, so a scenario load that outweighs the planning (a large grid map) does
not hide the planner's heap. The peaks repeat within a few hundred bytes
across processes and hash seeds, so running this script on two trees shows
what a change does to a query's heap, which `peak_rss_mb` sees only through
the allocator's page reuse. Like scripts/work_ledger.py, it imports a
copy of REPO_ROOT's `src/` and `perfbench/` made in a temporary directory
and removed at the end, and writes nothing into REPO_ROOT.

With `--sites N`, each workload's row is followed by N rows
`workload file:line bytes count`: the allocation sites that hold the most
bytes when the traced query's planner returns its result (a tracemalloc
snapshot taken in a wrapper on `AnytimeRun.result`), largest first, with
the live bytes and blocks allocated at each line; file is the source file's
base name. The snapshot's own tables are not traced; only its small Python
object stays live to the query's end, within the few hundred bytes the peaks
vary by anyway.

Usage: PYTHONHASHSEED=0 scripts/query_peak.py [--sites N] [REPO_ROOT]
(default REPO_ROOT: the repository that holds this script; N is a
non-negative decimal integer, and --sites comes before REPO_ROOT). Any other
command line prints the usage line and exits 1.
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
import tracemalloc
from pathlib import Path

from work_ledger import first_queries, imported_copy, repo_root


def main(argv: list[str]) -> int:
    args, sites = argv[1:], 0
    if args[:1] == ["--sites"] and args[1:2] and args[1].isdecimal():
        args, sites = args[2:], int(args[1])
    if (root := repo_root(args)) is None:
        print(f"usage: {argv[0]} [--sites N] [REPO_ROOT]", file=sys.stderr)
        return 1
    with imported_copy(root):
        from bitplan import bench
        from bitplan.anytime import AnytimeRun
        from bitplan.cli import cli_main

        snapshots = []
        result = AnytimeRun.result

        def result_then_snapshot(run):
            # Only the traced query is seen: tracing is off in the warm-up.
            planned = result(run)
            if tracemalloc.is_tracing():
                snapshots.append(tracemalloc.take_snapshot())
            return planned

        if sites:
            AnytimeRun.result = result_then_snapshot

        load_peaks = []
        load_scenario = bench.load_scenario

        def load_then_reset_peak(path):
            # The peak so far is the load's; the planning peak starts here.
            scenario = load_scenario(path)
            load_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return scenario

        bench.load_scenario = load_then_reset_peak
        for name, query in first_queries():
            with contextlib.redirect_stdout(io.StringIO()):
                warm = cli_main(query)
                load_peaks.clear()
                snapshots.clear()
                # A full collection empties the interpreter's free lists, so
                # the query cannot reuse, untraced, tuples and floats that
                # the warm-up freed; those would hide up to 2,000 tuples of
                # each length from the count.
                gc.collect()
                tracemalloc.start()
                try:
                    code = cli_main(query)
                    planning = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            if (warm, code) != (0, 0) or len(load_peaks) != 1 or len(snapshots) != bool(sites):
                print(f"{name}: query {query} exited {(warm, code)} after "
                      f"{len(load_peaks)} scenario loads and {len(snapshots)} "
                      f"snapshots", file=sys.stderr)
                return 1
            print(name, max(load_peaks[0], planning), planning)
            for stat in snapshots[0].statistics("lineno")[:sites] if sites else ():
                frame = stat.traceback[0]
                print(name, f"{Path(frame.filename).name}:{frame.lineno}", stat.size, stat.count)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
