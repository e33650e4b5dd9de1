#!/usr/bin/env python3
"""Count the Python calls of one benchmark query per workload, under cProfile.

For each workload in REPO_ROOT/perfbench/workloads.py, this prepares the
inputs of workload seed 1 in a temporary directory, runs the workload's
first query (planner seed 1000) once as a warm-up, then once more under
cProfile through `bitplan.cli.cli_main`. It prints one
`workload file:function calls` row per function, where file is the base
name of the function's source file (`~` for a builtin) and same-named
functions of one file are summed, so a row does not move when its function
moves to another line, and then `workload total total_calls`, the rows' sum.
An object address in a builtin's name (`... at 0x7f...`) is dropped: it
differs from one process to the next.
The count is exact for one commit under a fixed PYTHONHASHSEED, so running
this script on two trees shows the calls a change adds or removes per query,
and which functions they are, free of timing noise. It counts calls only,
not the bytecode run between them: a builtin call counts one however much
work it does, and inline code counts nothing. So the total can rise on a
change that removes work, say one that replaces a dict store, which
cProfile does not see, with a `list.append` call; read it as where calls
moved, not as the work done. It imports a copy of
REPO_ROOT's `src/` and `perfbench/`, made in a temporary directory and
removed at the end, because path handling in a query (`pathlib`, `sys.intern`)
makes calls that vary with the depth of the checkout's path. It writes
nothing into REPO_ROOT.

Usage: PYTHONHASHSEED=0 scripts/calls_per_query.py [REPO_ROOT]
(default REPO_ROOT: the repository that holds this script)
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import re
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

WORKLOAD_SEED = 1


def calls_by_function(stats: pstats.Stats) -> Counter:
    """Calls per `file:function`, same-named functions of one file summed."""
    calls: Counter = Counter()
    for (path, _, function), (_, ncalls, *_) in stats.stats.items():
        calls[f"{Path(path).name}:{re.sub(r' at 0x[0-9a-f]+', '', function)}"] += ncalls
    return calls


@contextlib.contextmanager
def imported_copy(argv: list[str]):
    """Put a temporary copy of REPO_ROOT's `src/` and `perfbench/` (argv[1],
    default the repository that holds this script) first on sys.path; the
    copy is deleted on exit."""
    root = (Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent).resolve()
    with tempfile.TemporaryDirectory() as copy:
        for part in ("src", "perfbench"):
            shutil.copytree(root / part, Path(copy) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path[:0] = [str(Path(copy) / "src"), str(Path(copy) / "perfbench")]
        yield


def first_queries():
    """Yield (workload name, argv) for the first query of every workload at
    WORKLOAD_SEED, its inputs prepared in a temporary directory that lives
    until the next item; imports the workloads from sys.path."""
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            scenario, _ = workload.prepare(WORKLOAD_SEED, workdir)
            query_seed = workload.query_seeds(WORKLOAD_SEED, 1.0)[0]
            yield name, workload.argv(scenario, query_seed, workdir)


def main(argv: list[str]) -> int:
    with imported_copy(argv):
        return count_calls()


def count_calls() -> int:
    """Print the rows of every workload, importing bitplan from sys.path."""
    from bitplan.cli import cli_main

    for name, query in first_queries():
        profile = cProfile.Profile()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli_main(query), profile.runcall(cli_main, query))
        if codes != (0, 0):
            print(f"{name}: query {query} exited {codes}", file=sys.stderr)
            return 1
        stats = pstats.Stats(profile)
        for function, calls in sorted(calls_by_function(stats).items()):
            print(name, function, calls)
        print(name, "total", stats.total_calls)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
