"""Batch Informed Trees (BIT*): anytime, asymptotically optimal planning.

The planner interleaves two priority queues: a vertex queue keyed by
cost-to-come + heuristic cost-to-go, and an edge queue keyed by
cost-to-come + heuristic edge cost + heuristic cost-to-go. Because the
vertex key lower-bounds every edge key the vertex can produce, processing
the cheaper queue first exhausts all potentially useful edges before any
expensive collision check runs. When both queues are empty, the batch ends:
provably useless vertices and samples are pruned and a fresh batch of
uniform samples is drawn from the informed set.

The run state is `PlannerContext`, an `anytime.AnytimeRun` (the tree, the goal
vertices, the incumbent, the stop bounds, the work clock and the convergence
records, shared with RRT*) with the two queues and the sample sets added.
`expand_edge` adds vertices through `AnytimeRun.add_vertex`, which decides
which are solutions, and hands every possible improvement to
`AnytimeRun.improve`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Iterable

import numpy as np

from .anytime import AnytimeRun, PlanResult, StopCondition
from .queues import CostQueue
from .space import (ProblemDef, RngStream, SamplerStarvedError, State, h_hat, h_hat_rows,
                    informed_test, sample_batch, sq_dists)
from .world import World


@dataclass(frozen=True)
class PlannerParams:
    batch_size: int
    radius: float

    def __post_init__(self):
        if not isinstance(self.batch_size, Integral):
            raise ValueError(f"batch_size must be an integer, got {self.batch_size!r}")
        # Negated comparisons, so that NaN fails them too.
        if not self.batch_size >= 1:
            raise ValueError("batch size must be at least 1")
        if not self.radius > 0:
            raise ValueError("connection radius must be positive")


class Samples:
    """The unconnected samples x_ncon, held as one (2, n) matrix per batch.

    Row i of the set is column i of `mat`, `h[i]` its h_hat and `states[i]`
    its state. Rows keep insertion order: the old samples, then this batch's
    new ones (the slice `new`), then the reused ones, and a state given twice
    keeps its first row. The rows are fixed when the set is built: by
    `PlannerContext` at set-up and by `start_new_batch` once per batch.
    Between builds the only change is `discard`, when `prune` drops the
    sample or `expand_edge` connects it, and it follows the tree's removal
    rule: the row leaves `rows` and its column becomes inf, so no radius test
    admits it again.
    `rows` maps each live sample to its row, in row order, so readers ask it
    for membership (`x in samples.rows`) and iterate it for the live samples
    and never see a removed one.
    """

    def __init__(self, goal_samples: tuple[State, ...], old: Iterable[State] = (),
                 new: Iterable[State] = (), reused: Iterable[State] = ()):
        rows = dict.fromkeys(old)
        start = len(rows)
        rows |= dict.fromkeys(new)
        self.new = slice(start, len(rows))
        rows |= dict.fromkeys(reused)
        self.states = list(rows)  # every row's state, live or not
        self.rows = {x: i for i, x in enumerate(self.states)}  # live samples only
        self.mat = np.array(self.states, dtype=float).reshape(-1, 2).T.copy()
        self.h = h_hat_rows(self.mat, goal_samples)

    def discard(self, x: State) -> None:
        """Remove the live sample x."""
        self.mat[:, self.rows.pop(x)] = math.inf


class PlannerContext(AnytimeRun):
    """The BIT* run: the anytime run state plus the queues and sample sets.

    x_ncon owns the unconnected samples (see Samples): it starts as the goal
    samples other than the root, and `start_new_batch` rebuilds it, matrix
    and h_hat included, once per batch; in between, `prune` and `expand_edge`
    only discard from it. Its rows keep insertion order, so every
    iteration order in the planner is deterministic. v_exp holds the vertices
    already expanded (a repeat expansion scans only the batch's new samples)
    and v_rewire those whose rewiring edges were queued. Neither forgets a
    pruned id: ids are never reused and only live ids are requeued, so a
    removed id in them is never read again. c_sol, the incumbent cost,
    doubles as the pruning threshold; it never increases.
    """

    def __init__(self, problem: ProblemDef, world: World, stop: StopCondition):
        super().__init__(problem, world, stop)
        self.qv = CostQueue()
        self.qe = CostQueue()
        goals = problem.goal_samples
        self.x_ncon = Samples(goals, new=[g for g in goals if g != problem.root])
        self.v_exp: set[int] = set()
        self.v_rewire: set[int] = set()


def prune(ctx: PlannerContext, problem: ProblemDef) -> list[State]:
    """Drop everything that provably cannot improve the incumbent solution.

    Unconnected samples go when g_hat + h_hat >= c_sol. Tree vertices go when
    their tree key g_T + h_hat exceeds c_sol; the key is monotone along any
    root path, so whole subtrees are removed root-first, which matches the
    per-vertex rule exactly. Removed states that still pass the g_hat + h_hat
    test are returned for reuse as unconnected samples (this keeps sample
    density uniform inside the informed set). The root is never removed.
    """
    c = ctx.c_sol
    if math.isinf(c):
        return []
    goals = problem.goal_samples
    informed = informed_test(problem, c)
    for x in [x for x in ctx.x_ncon.rows if not informed(x)]:
        ctx.x_ncon.discard(x)
    x_reuse: list[State] = []
    tree = ctx.tree
    states, costs = tree.states, tree.costs
    queue = deque([tree.root_id])
    while queue:
        vid = queue.popleft()
        for ch in tree.children(vid):
            if costs[ch] + h_hat(states[ch], goals) > c:
                x_reuse += [s for _, s in tree.remove_subtree(ch) if informed(s)]
            else:
                queue.append(ch)
    return x_reuse


def start_new_batch(ctx: PlannerContext, problem: ProblemDef, params: PlannerParams,
                    rng: RngStream) -> None:
    """Prune, draw a fresh batch, rebuild x_ncon and requeue every tree vertex.

    New samples are informed once an incumbent exists. x_ncon is rebuilt here,
    once per batch, from the surviving samples, the new ones and the reused
    pruned states, in that order; the rebuild computes the batch's samples
    matrix and h_hat values, and the new rows are the slice x_ncon.new.
    Reused pruned states rejoin x_ncon but not x_new:
    vertices that saw them in earlier batches already considered those
    connections, and pruned vertices lose their expanded flag, so no
    connection opportunity is lost.
    """
    if ctx.qv or ctx.qe:
        raise ValueError("a new batch may only start when both queues are empty")
    x_reuse = prune(ctx, problem)
    fresh = sample_batch(params.batch_size, problem, ctx, rng)
    goals = problem.goal_samples
    x_new = [x for x in fresh if x not in ctx.tree.by_state]  # keep tree and samples disjoint
    ctx.x_ncon = Samples(goals, ctx.x_ncon.rows, x_new, x_reuse)
    tree = ctx.tree
    for vid, (state, g) in enumerate(zip(tree.states, tree.costs)):
        if state is not None:
            ctx.qv.insert(g + h_hat(state, goals), g, vid)


def expand_vertex(ctx: PlannerContext, problem: ProblemDef, params: PlannerParams) -> int:
    """Pop the best vertex and queue its potentially useful outgoing edges.

    Runs entirely on heuristics, no collision checks. Edges to unconnected
    samples are admitted with the optimistic g_hat test; a first-time vertex
    scans every row of x_ncon, a repeat only the slice `x_ncon.new`, both as
    views of the matrix and h_hat values x_ncon computed when the batch
    began, and only the admitted samples' states are looked up. Rewiring
    edges to tree neighbors are queued once per vertex and only after a
    solution exists. Queue entries memoize the edge and cost-to-go
    heuristics (pure functions of the states) as plain floats; only
    cost-to-come can go stale and is re-read at pop time. Returns the number
    of live candidates scanned so the caller can charge the work clock.
    """
    scanned = 0
    _, _, vid = ctx.qv.pop_best()
    tree = ctx.tree
    states, costs = tree.states, tree.costs
    vstate = states[vid]
    gh_v = math.dist(problem.root, vstate)
    gt_v = costs[vid]

    def near(cols: np.ndarray, h: np.ndarray):
        # Columns within the radius whose edge could still beat the
        # incumbent, with their edge and cost-to-go heuristics. A removed
        # state's column is inf, so it is never admitted and the scan is
        # charged only the live (finite) columns. Only Python floats leave:
        # the queues compare them far faster than numpy scalars.
        nonlocal scanned
        d = np.sqrt(sq_dists(cols, vstate))
        scanned += int(np.count_nonzero(d < math.inf))
        admit = ((d <= params.radius) & (gh_v + d + h < ctx.c_sol)).nonzero()[0]
        return admit, d[admit].tolist(), h[admit].tolist()

    samples = ctx.x_ncon
    span = samples.new if vid in ctx.v_exp else slice(0, None)
    ctx.v_exp.add(vid)
    admit, d, h = near(samples.mat[:, span], samples.h[span])
    # x_ncon and the tree are disjoint, so no sample is vstate.
    for r, dx, hx in zip((admit + span.start).tolist(), d, h):
        ctx.qe.insert(gt_v + dx + hx, gt_v + dx, (vid, samples.states[r], dx, hx))

    if vid not in ctx.v_rewire and ctx.c_sol < math.inf:
        ctx.v_rewire.add(vid)
        # Column w is vertex w; a removed w's column is inf and never admitted.
        cols = tree.states_matrix()
        admit, d, h = near(cols, h_hat_rows(cols, problem.goal_samples))
        for wid, dw, hw in zip(admit.tolist(), d, h):
            wstate = states[wid]
            if wstate == vstate or tree.parents[wid] == vid:
                continue
            if gh_v + dw < costs[wid]:
                ctx.qe.insert(gt_v + dw + hw, gt_v + dw, (vid, wstate, dw, hw))
    return scanned


def expand_edge(ctx: PlannerContext) -> None:
    """Pop the best edge and process it against the tree with true costs:
    the paper's ProcessEdge, one rule for an unconnected sample and a tree
    vertex alike.

    All admission conditions are re-checked with fresh cost-to-come values,
    which is what makes lazily keyed (possibly stale) queue entries safe. If
    even the best edge cannot beat the incumbent, nothing in either queue
    can, and both are cleared to end the batch. Otherwise the target's
    cost-to-come g_x is inf for a sample and its tree cost for a vertex; an
    edge whose heuristic cannot lower g_x is dropped before its collision
    check, and one whose true cost lowers g_x and can beat the incumbent
    connects the sample or rewires the vertex. Either may improve the
    incumbent, so both end with `ctx.improve()`.
    """
    _, _, (vid, x, edge, h_x) = ctx.qe.pop_best()
    tree = ctx.tree
    costs = tree.costs
    gt_v = costs[vid]

    if gt_v + edge + h_x >= ctx.c_sol:
        ctx.qe.clear()
        ctx.qv.clear()
        return

    if x in ctx.x_ncon.rows:
        xid, g_x = None, math.inf
    elif (xid := tree.by_state.get(x)) is not None:
        g_x = costs[xid]
    else:
        raise AssertionError("edge target is neither unconnected nor in the tree")
    if gt_v + edge < g_x:
        cost = ctx.world.true_cost(tree.states[vid], x, ctx)
        if gt_v + cost + h_x < ctx.c_sol and gt_v + cost < g_x:
            if xid is None:
                ctx.x_ncon.discard(x)
                new_id = ctx.add_vertex(vid, x, cost)
                g_new = costs[new_id]
                ctx.qv.insert(g_new + h_x, g_new, new_id)
            else:
                tree.rewire(xid, vid, cost)
            ctx.improve()


def plan(problem: ProblemDef, world: World, params: PlannerParams, stop: StopCondition,
         rng: RngStream, *, batch_hook: Callable | None = None) -> PlanResult:
    """Run BIT* until `stop` fires; never raises on "no path".

    The result is the best path ever found with its convergence records (see
    AnytimeRun). If the sampler starves once a path exists, the run ends and
    returns it; before that, SamplerStarvedError propagates. batch_hook(batch,
    ctx) fires at every batch boundary, with the PlannerContext as ctx.
    """
    ctx = PlannerContext(problem, world, stop)
    ctx.qv.insert(h_hat(problem.root, problem.goal_samples), 0.0, ctx.tree.root_id)
    while not ctx.should_stop():
        # CostQueue keys are finite, so an infinite best value means empty.
        kv, ke = ctx.qv.best_value(), ctx.qe.best_value()
        if kv == ke == math.inf:
            if batch_hook is not None:
                batch_hook(ctx.batch, ctx)
            # The informed set is empty iff the root lies outside it; then no
            # admission test can ever pass again and the run has converged.
            if (ctx.batch_limit_reached()
                    or not informed_test(problem, ctx.c_sol)(problem.root)):
                break
            try:
                start_new_batch(ctx, problem, params, rng)
            except SamplerStarvedError:
                if ctx.path is None:
                    raise
                break
            ctx.batch += 1
            ctx.samples_drawn += params.batch_size
        elif kv <= ke:
            ctx.units += expand_vertex(ctx, problem, params)
        else:
            expand_edge(ctx)
    return ctx.result()
