#!/usr/bin/env python3
"""Print the tracemalloc heap peak of one benchmark query per workload.

For each workload in REPO_ROOT/perfbench/workloads.py, this prepares the
inputs of workload seed 1 in a temporary directory, runs the workload's
first query (planner seed 1000) once as a warm-up, then once more through
`bitplan.cli.cli_main` with tracemalloc tracing from the query's start. It
prints one `workload peak_bytes` row per workload: the most memory the query
held at once, in bytes, counting only what it allocated (imports, caches
and the warm-up's leftovers are made before tracing starts). The peak
repeats within a few hundred bytes across processes and hash seeds, so
running this script on two trees shows what a change does to a query's
heap, which `peak_rss_mb` sees only through the allocator's page reuse. Like
scripts/calls_per_query.py, it imports a copy of REPO_ROOT's `src/` and
`perfbench/` made in a temporary directory and removed at the end, and
writes nothing into REPO_ROOT.

Usage: PYTHONHASHSEED=0 scripts/query_peak.py [REPO_ROOT]
(default REPO_ROOT: the repository that holds this script)
"""

from __future__ import annotations

import contextlib
import io
import sys
import tracemalloc

from calls_per_query import first_queries, imported_copy


def main(argv: list[str]) -> int:
    with imported_copy(argv):
        from bitplan.cli import cli_main

        for name, query in first_queries():
            with contextlib.redirect_stdout(io.StringIO()):
                warm = cli_main(query)
                tracemalloc.start()
                try:
                    code = cli_main(query)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            if (warm, code) != (0, 0):
                print(f"{name}: query {query} exited {(warm, code)}", file=sys.stderr)
                return 1
            print(name, peak)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
