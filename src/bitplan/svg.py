"""SVG snapshots of a planner state: world, tree, samples, incumbent, ellipse.

Geometry is emitted in world coordinates (y negated, since SVG's y axis
points down) inside a viewBox, so semantic attributes like the informed
ellipse's radii can be read back in meters. All numbers use fixed 6-decimal
formatting, which keeps output byte-stable for identical inputs. Tree edges
are the only <path> elements in the file; everything else uses dedicated
shapes.
"""

from __future__ import annotations

import math

import numpy as np

from .space import State
from .world import Circle, World


def _f(v: float) -> str:
    return f"{v:.6f}"


def render_svg(world: World, edges, path, ellipses, samples, out_path) -> None:
    """Write one SVG snapshot.

    edges: iterable of (parent_state, child_state) segments.
    path: incumbent solution as a state sequence, or None.
    ellipses: (focus_a, focus_b, major_axis_length) per informed-set
        ellipse; empty when there is no incumbent yet.
    samples: iterable of unconnected sample states.
    """
    lo, hi = world.bounds.lo, world.bounds.hi
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    margin = 0.02 * max(width, height)
    stroke = 0.003 * max(width, height)

    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{h}" viewBox="{vb}">'.format(
            h=_f(800.0 * (height + 2 * margin) / (width + 2 * margin)),
            vb=" ".join(
                _f(v)
                for v in (lo[0] - margin, -hi[1] - margin, width + 2 * margin, height + 2 * margin)
            ),
        )
    )
    parts.append(
        f'<rect x="{_f(lo[0])}" y="{_f(-hi[1])}" width="{_f(width)}" height="{_f(height)}" '
        f'fill="white" stroke="black" stroke-width="{_f(2 * stroke)}"/>'
    )

    if world.grid is not None:
        g = world.grid
        mpc = g.meters_per_cell
        # argwhere lists the blocked cells in row-major order, which the bytes rest on.
        for row, col in np.argwhere(g.blocked).tolist():
            x = g.origin[0] + col * mpc
            y = g.origin[1] + (row + 1) * mpc
            parts.append(
                f'<rect x="{_f(x)}" y="{_f(-y)}" width="{_f(mpc)}" height="{_f(mpc)}" '
                f'fill="#555555"/>'
            )
    else:
        for ob in world.obstacles:
            if isinstance(ob, Circle):
                parts.append(
                    f'<circle cx="{_f(ob.center[0])}" cy="{_f(-ob.center[1])}" '
                    f'r="{_f(ob.radius)}" fill="#555555"/>'
                )
            else:
                parts.append(
                    f'<rect x="{_f(ob.lo[0])}" y="{_f(-ob.hi[1])}" width="{_f(ob.hi[0] - ob.lo[0])}" '
                    f'height="{_f(ob.hi[1] - ob.lo[1])}" fill="#555555"/>'
                )

    for fa, fb, major in ellipses:
        focal = math.dist(fa, fb)
        if math.isfinite(major) and major > focal:
            cx = (fa[0] + fb[0]) / 2.0
            cy = (fa[1] + fb[1]) / 2.0
            rx = major / 2.0
            ry = 0.5 * math.sqrt(major * major - focal * focal)
            angle = math.degrees(math.atan2(-(fb[1] - fa[1]), fb[0] - fa[0]))
            parts.append(
                f'<ellipse cx="{_f(cx)}" cy="{_f(-cy)}" rx="{_f(rx)}" ry="{_f(ry)}" '
                f'transform="rotate({_f(angle)} {_f(cx)} {_f(-cy)})" '
                f'fill="orange" fill-opacity="0.15" stroke="orange" stroke-width="{_f(stroke)}"/>'
            )

    for a, b in edges:
        parts.append(
            f'<path d="M {_f(a[0])} {_f(-a[1])} L {_f(b[0])} {_f(-b[1])}" '
            f'stroke="#2060c0" stroke-width="{_f(stroke)}" fill="none"/>'
        )

    for s in samples:
        parts.append(
            f'<circle cx="{_f(s[0])}" cy="{_f(-s[1])}" r="{_f(2.5 * stroke)}" '
            f'fill="none" stroke="black" stroke-width="{_f(0.5 * stroke)}"/>'
        )

    if path:
        pts = " ".join(f"{_f(p[0])},{_f(-p[1])}" for p in path)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="red" stroke-width="{_f(3 * stroke)}"/>'
        )

    parts.append("</svg>")
    with open(out_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
