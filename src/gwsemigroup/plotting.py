"""Deterministic SVG scatter plots of two-point semigroup windows.

Open circles mark maximal elements, filled dots the remaining members, with
the first coordinate rightward and the second upward on a unit grid.  The
points are classified from the ``dim`` grid of a ``series._Request`` grown by
one layer below, by the dimension tests of ``is_member`` and ``is_maximal``;
the grid is sliced from the dim table and asks ``dimension`` nothing.
The SVG is assembled by hand so identical inputs give byte-identical files.
"""

from __future__ import annotations

from .core import Box, SemigroupDescription, require_description
from .series import _Request, _window

__all__ = ["render_membership_svg"]

_SCALE = 18
_MARGIN = 24
_RADIUS_OPEN = 5
_RADIUS_FILL = 3


def render_membership_svg(d: SemigroupDescription, box: Box) -> str:
    """Classify the box and render it; two-point descriptions only."""
    if require_description(d).m != 2:
        raise ValueError("plots are drawn for two-point descriptions only")
    request = _Request(d, box, 1)
    (x_lo, y_lo), (x_hi, y_hi) = box.lower, box.upper

    def sx(x: int) -> int:
        return _MARGIN + (x - x_lo) * _SCALE

    def sy(y: int) -> int:
        return _MARGIN + (y_hi - y) * _SCALE

    width = sx(x_hi) + _MARGIN
    height = sy(y_lo) + _MARGIN

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if x_lo <= 0 <= x_hi:
        lines.append(
            f'<line x1="{sx(0)}" y1="{sy(y_lo) + _MARGIN // 2}" x2="{sx(0)}" '
            f'y2="{sy(y_hi) - _MARGIN // 2}" stroke="black" stroke-width="1"/>'
        )
    if y_lo <= 0 <= y_hi:
        lines.append(
            f'<line x1="{sx(x_lo) - _MARGIN // 2}" y1="{sy(0)}" x2="{sx(x_hi) + _MARGIN // 2}" '
            f'y2="{sy(0)}" stroke="black" stroke-width="1"/>'
        )
    size = request.size
    shape = (size[0] + 1, size[1] + 1)
    grid = request.near
    # dim at alpha, alpha - e_1, alpha - e_2 and alpha - (1, 1)
    cells = zip(
        box.points(),
        _window(grid, shape, (1, 1), size),
        _window(grid, shape, (0, 1), size),
        _window(grid, shape, (1, 0), size),
        _window(grid, shape, (0, 0), size),
    )
    for alpha, here, west, south, corner in cells:
        # a member loses one dimension when either coordinate drops
        if here == 0 or west != here - 1 or south != here - 1:
            continue
        cx, cy = sx(alpha[0]), sy(alpha[1])
        # maximal: raising either coordinate of alpha - (1, 1) keeps its dimension
        if west == corner == south:
            lines.append(
                f'<circle cx="{cx}" cy="{cy}" r="{_RADIUS_OPEN}" '
                f'fill="none" stroke="black" stroke-width="1.2"/>'
            )
        else:
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="{_RADIUS_FILL}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
