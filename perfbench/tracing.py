"""Spans and counts around bitplan's public functions, installed from outside.

Nothing in bitplan knows about this module. `Tracer.install` swaps each
traced function for a timing wrapper at the place its caller looks it up:
names brought in with `from ... import` are patched in the importing module
(`bitplan.bench.plan`, `bitplan.bitstar.sample_batch`, ...), methods on their
class. `uninstall` puts the originals back.

Every wrapped call updates (calls, total seconds, self seconds) for its
name; self time is the call's duration minus the time covered by the traced
calls made inside it. Calls of the coarse functions (one per query, batch
or output file) are also kept as spans: (name, start, end, parent span,
query id). The hot leaves (per edge, per draw, per queue operation) run
hundreds of thousands of times per query, so they are only aggregated.
"""

from __future__ import annotations

import importlib
import math
import os
import time

# (module, attribute, span name, keep individual spans). An attribute
# "Class.method" is patched on the class.
PLACEMENTS = (
    ("bitplan.cli", "cli_main", "cli.cli_main", True),
    ("bitplan.cli", "run_single", "bench.run_single", True),
    ("bitplan.cli", "render_svg", "svg.render_svg", True),
    ("bitplan.cli", "write_convergence_csv", "bench.write_convergence_csv", True),
    ("bitplan.bench", "load_scenario", "bench.load_scenario", True),
    ("bitplan.bench", "plan", "bitstar.plan", True),
    ("bitplan.bench", "rrt_plan", "rrtstar.rrt_plan", True),
    ("bitplan.bitstar", "start_new_batch", "bitstar.start_new_batch", True),
    ("bitplan.bitstar", "prune", "bitstar.prune", True),
    ("bitplan.bitstar", "sample_batch", "space.sample_batch", True),
    ("bitplan.bitstar", "expand_vertex", "bitstar.expand_vertex", False),
    ("bitplan.bitstar", "expand_edge", "bitstar.expand_edge", False),
    ("bitplan.rrtstar", "steer", "rrtstar.steer", False),
    ("bitplan.world", "segment_cost", "world.segment_cost", False),
    ("bitplan.world", "World.is_free", "world.is_free", False),
    ("bitplan.world", "World.all_free", "world.all_free", False),
    ("bitplan.queues", "CostQueue.insert", "queues.insert", False),
    ("bitplan.queues", "CostQueue.pop_best", "queues.pop_best", False),
    ("bitplan.tree", "Tree.add_child", "tree.add_child", False),
    ("bitplan.tree", "Tree.rewire", "tree.rewire", False),
    ("bitplan.tree", "Tree.remove_subtree", "tree.remove_subtree", False),
    ("bitplan.tree", "Tree.states_matrix", "tree.states_matrix", False),
    ("bitplan.space", "RngStream.point", "space.point", False),
)

# Counts read off a call's arguments or result, keyed by span name.
COUNTERS = {
    "bitstar.expand_vertex": ("bitstar.scanned", lambda args, result: result),
    "space.sample_batch": ("space.accepted", lambda args, result: len(result)),
    "world.all_free": ("world.all_free.points", lambda args, result: len(args[1])),
    "world.segment_cost": ("world.segment_cost.inf",
                           lambda args, result: 0 if math.isfinite(result) else 1),
    "svg.render_svg": ("svg.bytes", lambda args, result: os.path.getsize(args[5])),
}


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a placement; fails if it is gone."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, name):
        raise RuntimeError(f"cannot trace {module_name}.{attr}: no such attribute")
    return owner, name


class Tracer:
    """In-memory spans, per-name timing and counts for one traced run."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.query = None
        self._stack: list[list] = []  # open calls: [child seconds, span index]
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, keep in PLACEMENTS:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._saved.append((owner, key, original))
            setattr(owner, key, self._wrap(name, original, keep))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn, keep):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.setdefault(counter[0], 0)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, tracer.query])
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans[index][1] = start
                    spans[index][2] = end
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def self_s(self, name: str) -> float:
        return self.stats[name][2]

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds summed per layer (the module prefix of a span name)."""
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "stats": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["name", "start_s", "end_s", "parent", "query"],
            "spans": self.spans,
        }
