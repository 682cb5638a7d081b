"""Sweep-shape sizing: closed forms and the block-granular capacity search.

The closed forms are the per-layout floor expressions with their gathered
block constants (2D column/diagonal c' = 9, 2D row c' = 5+4s, 3D kinds c' =
27, hexagonal c = 13); the search instead takes the largest m whose exact
block-rounded residency (output staging + core window + wing windows, every
piece rounded up to whole blocks) fits in M.  Closed forms are conservative
solutions of the same inequalities, so closed <= search everywhere except the
2D-ball-in-3D kind, whose classical closed form omits the mirror fringes a
band holds for its neighbors and may land a unit or two above the honest
search.  The hexagonal and n-D constants depend on exact template counts, so
there the search is the definition.
"""

from __future__ import annotations

import math

from emstencil.bounds import LayoutKind
from emstencil.layouts import planar
from emstencil.layouts.base import SweepShapeSize, UnusableConfiguration

_TEMPLATE_KINDS = (LayoutKind.BALL_2D_IN_3D, LayoutKind.HEX_3D)


def _ceil_blocks(x: int, B: int) -> int:
    """(ceil(x/B) + 1) * B: a window of x elements in whole blocks, plus slack."""
    return (-(-x // B) + 1) * B


def out_staging_blocks(kind: LayoutKind, n: int, s: int, m: int) -> int:
    if kind in (LayoutKind.ROW_2D, LayoutKind.COLUMN_2D, LayoutKind.DIAGONAL_2D):
        return 3
    if kind in (LayoutKind.ROW_3D, LayoutKind.COLUMN_POLE_3D):
        return 9
    if kind is LayoutKind.COLUMN_ND:
        return 3 ** (n - 1)
    if kind in _TEMPLATE_KINDS:
        return len(_template(kind, m, s).class_offsets)
    raise ValueError(kind)


def _template(kind: LayoutKind, m: int, s: int) -> planar.Template:
    cls = planar.Ball2DIn3DGeometry if kind is LayoutKind.BALL_2D_IN_3D else planar.HexGeometry
    return planar.template(cls, m, s)


def _window(totals, cid: int, w: int, end_phase: int) -> int:
    """Count of class cid over the w planes ending at a plane of phase end_phase.

    The per-phase counts cycle with the sweep, so a window of w planes holds
    w // phases whole cycles plus the last w % phases phases.
    """
    per = [tot[cid] for tot in totals]
    phases = len(per)
    got = (w // phases) * sum(per)
    for j in range(w % phases):
        got += per[(end_phase - j) % phases]
    return got


def input_residency(kind: LayoutKind, n: int, s: int, m: int, B: int) -> int:
    """Exact block-rounded internal-memory requirement of the input windows."""
    if kind is LayoutKind.ROW_2D:
        return m * B + _ceil_blocks(2 * s * (m - 4 * s), B) + 4 * s * B
    if kind is LayoutKind.ROW_3D:
        return (
            m * m * B
            + _ceil_blocks(2 * s * (m - 4 * s) ** 2, B)
            + 4 * 2 * s * (m - 2 * s) * B
        )
    if kind is LayoutKind.DIAGONAL_2D:
        return _ceil_blocks(2 * s * (m - 2 * s) + s, B) + 2 * _ceil_blocks((2 * s + 1) * s, B)
    if kind in (LayoutKind.COLUMN_2D, LayoutKind.COLUMN_POLE_3D, LayoutKind.COLUMN_ND):
        d = n - 1
        core = (m - 4 * s) ** d
        carry = s * (m - 4 * s) ** (d - 1) if d > 1 else s
        total = _ceil_blocks(2 * s * core + carry, B)
        # wing pieces: every per-axis zone-width product except the pure core
        for combo in _mixed_products(d, 2 * s, m - 4 * s):
            total += _ceil_blocks((2 * s + 1) * combo, B)
        return total
    if kind in _TEMPLATE_KINDS:
        tpl = _template(kind, m, s)
        totals = tpl.class_totals
        worst = 0
        for phase in range(len(totals)):
            total = 0
            for cid, offsets in enumerate(tpl.class_offsets):
                if len(offsets) == 1:
                    total += _ceil_blocks(_window(totals, cid, 2 * s, phase) + tpl.rank_reach, B)
                else:
                    # held twice: the band's own fringe and the mirror fringe
                    # of the sharing neighbors (these tilings do not overlap)
                    total += 2 * _ceil_blocks(_window(totals, cid, 2 * s + 1, phase), B)
            worst = max(worst, total)
        return worst
    raise ValueError(kind)


def _mixed_products(d: int, wing: int, core: int):
    """Widths of all zone products over d axes except the all-core one.

    Each axis has three zones (low wing, core, high wing), so a band holds
    3^d - 1 wing pieces.
    """
    import itertools

    for combo in itertools.product(((wing, "w"), (core, "c"), (wing, "w")), repeat=d):
        if all(tag == "c" for _, tag in combo):
            continue
        w = 1
        for width, _ in combo:
            w *= width
        yield w


def closed_form_m(kind: LayoutKind, n: int, s: int, M: int, B: int) -> int:
    if kind is LayoutKind.COLUMN_2D:
        return (M - 9 * B - 5 * s) // (2 * s)
    if kind is LayoutKind.DIAGONAL_2D:
        return (M - 9 * B - 3 * s) // (2 * s)
    if kind is LayoutKind.ROW_2D:
        return (M - (5 + 4 * s) * B + 8 * s * s) // (B + 2 * s)
    if kind is LayoutKind.ROW_3D:
        inner = M - 32 * s**3 - 2 * B - 9 * B
        if inner <= 0:
            return 0
        return int((math.sqrt(inner) - 4 * s * B / math.sqrt(B + 2 * s)) / math.sqrt(B + 2 * s))
    if kind is LayoutKind.COLUMN_POLE_3D:
        inner = M - 27 * B
        if inner <= 0:
            return 0
        return int((math.sqrt(inner) - 9 * math.sqrt(s) / math.sqrt(2)) / math.sqrt(2 * s))
    if kind is LayoutKind.BALL_2D_IN_3D:
        inner = M - 11 * s - 27 * B
        if inner <= 0:
            return 0
        return int((math.sqrt(inner) - 13 * math.sqrt(s) / 4) / (2 * math.sqrt(s)))
    if kind in (LayoutKind.HEX_3D, LayoutKind.COLUMN_ND):
        # unnamed constants in the source analyses: the capacity search is the
        # definition here
        return capacity_search_m(kind, n, s, M, B)
    raise ValueError(kind)


def capacity_search_m(kind: LayoutKind, n: int, s: int, M: int, B: int) -> int:
    def fits(m: int) -> bool:
        need = input_residency(kind, n, s, m, B) + out_staging_blocks(kind, n, s, m) * B + B
        return need <= M

    lo = 4 * s + 1
    if not fits(lo):
        return 0
    hi = lo
    while fits(hi * 2):
        hi *= 2
    lo_ok, hi_bad = hi, hi * 2
    while lo_ok + 1 < hi_bad:
        mid = (lo_ok + hi_bad) // 2
        if fits(mid):
            lo_ok = mid
        else:
            hi_bad = mid
    return lo_ok


def sweep_shape_size(kind: LayoutKind, n: int, s: int, M: int, B: int) -> SweepShapeSize:
    """The sweep-shape parameter m for a configuration, or UnusableConfiguration."""
    want = kind.dimensions
    if want is not None and n != want:
        raise ValueError(f"{kind.value} needs n={want}, got {n}")
    if kind is LayoutKind.COLUMN_ND and not 2 <= n <= 6:
        raise UnusableConfiguration("n-D column layout supports 2 <= n <= 6")
    if kind in (LayoutKind.ROW_2D, LayoutKind.ROW_3D) and B < 2 * s:
        raise UnusableConfiguration("row layouts assume B >= 2s")
    m = capacity_search_m(kind, n, s, M, B)
    if m < 4 * s + 1:
        raise UnusableConfiguration(
            f"{kind.value}: M={M}, B={B}, s={s} leaves sweep shape m={m} < {4 * s + 1}"
        )
    return SweepShapeSize(m=m)
