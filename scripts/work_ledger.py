#!/usr/bin/env python3
"""Count the Python bytecodes that `bitplan` executes in one benchmark query
per workload.

For each workload in REPO_ROOT/perfbench/workloads.py, this prepares the
inputs of workload seed 1 in a temporary directory, runs the workload's
first query (planner seed 1000) once as a warm-up, then once more through
`bitplan.cli.cli_main` under `sys.settrace`, with opcode events on in every
frame of a `bitplan` function and in no other frame. It prints one
`workload file:function bytecodes` row per function, where file is the base
name of the function's source file and function its qualified name
(same-named functions of one file summed, so a row does not move when its
function moves to another line), and then `workload total bytecodes`, the
rows' sum.
The count is exact for one commit under a fixed PYTHONHASHSEED and does not
depend on machine load, so running this script on two trees shows the
Python work a change adds or removes per query, and in which functions.
Its blind spot is work done outside `bitplan`'s own code: a call into C (a
numpy scan, a `heapq` push, `math.dist`) or into Python outside the package
(the standard library, numpy's Python layer) counts as the one bytecode
that makes the call, however much work it does. So a change that moves
work into such a call reads as a fall here; time the layer to claim speed.
A traced query runs about 20-50 times slower than an untraced one.
It imports a copy of REPO_ROOT's `src/` and `perfbench/`, made in a
temporary directory and removed at the end, so that checkouts at different
paths run the same code; it writes nothing into REPO_ROOT.

Usage: PYTHONHASHSEED=0 scripts/work_ledger.py [REPO_ROOT]
(default REPO_ROOT: the repository that holds this script). Any other
command line, such as an option in REPO_ROOT's place or a second root,
prints the usage line and exits 1.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOAD_SEED = 1


def count_bytecodes(run, *args):
    """Return (run(*args), {file:function: bytecodes}) for the frames of
    functions defined in the `bitplan` package imported from sys.path."""
    import bitplan

    package = str(Path(bitplan.__file__).parent)
    counts: dict[str, list[int]] = {}
    tracers: dict = {}  # code object -> its frames' local tracer, or None

    def local_tracer(cell):
        def tracer(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return tracer
        return tracer

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            ours = str(Path(code.co_filename).parent) == package
            key = f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"
            tracers[code] = local_tracer(counts.setdefault(key, [0])) if ours else None
        tracer = tracers[code]
        if tracer is not None:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return tracer

    sys.settrace(on_call)
    try:
        result = run(*args)
    finally:
        sys.settrace(None)
    return result, {key: cell[0] for key, cell in counts.items()}


def repo_root(args: list[str]) -> Path | None:
    """REPO_ROOT from the arguments that follow a script's options: the
    repository that holds this script when there are none, else the one
    argument if it is not an option; None for anything else."""
    if len(args) > 1 or args and args[0].startswith("-"):
        return None
    return (Path(args[0]) if args else Path(__file__).parent.parent).resolve()


@contextlib.contextmanager
def imported_copy(root: Path):
    """Put a temporary copy of root's `src/` and `perfbench/` first on
    sys.path; the copy is deleted on exit."""
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
    if (root := repo_root(argv[1:])) is None:
        print(f"usage: {argv[0]} [REPO_ROOT]", file=sys.stderr)
        return 1
    with imported_copy(root):
        return print_ledger()


def print_ledger() -> int:
    """Print the rows of every workload, importing bitplan from sys.path."""
    from bitplan.cli import cli_main

    for name, query in first_queries():
        with contextlib.redirect_stdout(io.StringIO()):
            warm = cli_main(query)
            code, counts = count_bytecodes(cli_main, query)
        if (warm, code) != (0, 0):
            print(f"{name}: query {query} exited {(warm, code)}", file=sys.stderr)
            return 1
        for function, n in sorted(counts.items()):
            print(name, function, n)
        print(name, "total", sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
