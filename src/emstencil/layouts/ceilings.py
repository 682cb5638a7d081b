"""Pre-simplification upper-bound expressions for the non-compulsory transfers.

These are the exact per-layout counting expressions that the asymptotic table
rates are later simplified from, evaluated at the sweep-shape size m actually
used.  They hold as hard ceilings for the measured counts because every
step that simplifies them to the table rate only drops nonnegative slack.
"""

from __future__ import annotations

import math

from emstencil.bounds import LayoutKind
from emstencil.layouts.base import Layout


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def noncompulsory_ceiling(layout: Layout) -> float:
    """Hard upper bound for total non-compulsory transfers of a sweep run."""
    kind = layout.kind
    sides = layout.grid.sides
    s = layout.stencil.s
    m = layout.shape.m
    B = layout.B
    if kind is LayoutKind.ROW_2D:
        k1, k2 = sides
        return _ceil(k2, m - 2 * s) * (2 * m + (_ceil(k1, B) + 1) * 4 * s)
    if kind is LayoutKind.COLUMN_2D:
        k1, k2 = sides
        return _ceil(_ceil(k2, m - 2 * s) * k1 * 2 * s, B) * 2
    if kind is LayoutKind.DIAGONAL_2D:
        k1, k2 = sides
        return _ceil((_ceil(k1, 2 * m - 2 * s) + 1) * 2 * s * k2, B) * 2
    if kind is LayoutKind.ROW_3D:
        k1, k2, k3 = sides
        per_plane = 2 * s * (m - 4 * s) + 2 * 2 * s * 2 * s
        return (
            _ceil(k2, m - 2 * s)
            * _ceil(k3, m - 2 * s)
            * (2 * m * m + (_ceil(k1, B) + 1) * 4 * per_plane)
        )
    if kind is LayoutKind.COLUMN_POLE_3D:
        k1, k2, k3 = sides
        bands = _ceil(k2, m - 2 * s) * _ceil(k3, m - 2 * s)
        return bands * (
            (_ceil(k1 * (m - 4 * s) * 2 * s, B) + 1) * 4
            + (_ceil(k1 * (2 * s) ** 2, B) + 1) * 4 * 2
        )
    if kind is LayoutKind.COLUMN_ND:
        k1 = sides[0]
        bands = 1
        for k in sides[1:]:
            bands *= _ceil(k, m - 2 * s)
        total = 0
        import itertools

        d = layout.grid.n - 1
        for combo in itertools.product(((2 * s, True), (m - 4 * s, False)), repeat=d):
            # wing zone products; two wing zones per axis
            if all(not w for _, w in combo):
                continue
            width = 1
            wings = 0
            for v, w in combo:
                width *= v
                wings += w
            mult = 2 ** sum(1 for _, w in combo if w)  # zones per axis pair up
            io = 1 if mult == 2 else 2  # >2-shared wings charged twice per band
            total += (_ceil(k1 * width, B) + 1) * mult * io
        return bands * total
    if kind is LayoutKind.BALL_2D_IN_3D:
        k1, k2, k3 = sides
        # a band touches its own fringe and the mirror fringe of each
        # neighbor, so per band the shared vertices count twice
        two, three_plus = _template_wing_sums(layout)
        a_p = _ceil(2 * two, 4)
        a_pp = _ceil(2 * three_plus, 4)
        bands = (_ceil(k2, 2 * m - 3 * s) + 1) * (_ceil(k3, m) + 1)
        return bands * ((_ceil(k1 * a_p, B) + 1) * 4 + (_ceil(k1 * a_pp, B) + 1) * 4 * 2)
    if kind is LayoutKind.HEX_3D:
        k1, k2, k3 = sides
        two, three_plus = _template_wing_sums(layout)
        c = _ceil(2 * two, 6)
        cp = _ceil(2 * three_plus, 6)
        denom = 9 * m * m + 9 * m + 1 - 24 * (m + 1) * s
        if denom <= 0:
            return math.inf
        bands = (k2 + 14 * m) * (k3 + 14 * m) / denom
        return bands * (6 * (_ceil(k1 * c, B) + 1) + 6 * (_ceil(k1 * cp, B) + 1) * 2)
    raise ValueError(kind)


def _template_wing_sums(layout: Layout) -> tuple[int, int]:
    """(2-shared, 3-or-more-shared) wing vertices of one band per sweep cycle.

    Summed over the template phases, i.e. per x1x2-plane of a working band in
    the hexagonal case; plane-constant for the 2D-ball case.
    """
    geo = layout.geometry
    two = 0
    more = 0
    for totals in geo._class_totals:
        for cid, cnt in enumerate(totals):
            users = len(geo._class_offsets[cid])
            if users == 2:
                two += cnt
            elif users > 2:
                more += cnt
    return two, more
