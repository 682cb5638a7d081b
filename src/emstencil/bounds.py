"""Closed-form bound evaluators for the s-star stencil in the (M, B) model.

All rates are per grid point.  `lower_bound_constant` is the coefficient of
prod(k_i)/B in the non-compulsory term (the block size is already factored
out); `upper_bound_leading` returns each layout's table rate verbatim, which
for the 2D/3D row layouts does NOT carry a 1/B factor.  Comparisons between
the two therefore normalize by B (see `gap_ratio`).
"""

from __future__ import annotations

import enum
import math


class LayoutKind(enum.Enum):
    ROW_2D = "row2d"
    COLUMN_2D = "column2d"
    DIAGONAL_2D = "diagonal2d"
    ROW_3D = "row3d"
    COLUMN_POLE_3D = "column3d"
    BALL_2D_IN_3D = "ball2din3d"
    HEX_3D = "hex3d"
    COLUMN_ND = "columnnd"

    @property
    def dimensions(self) -> int | None:
        """Fixed dimensionality of the kind, or None for the n-D family."""
        return _KIND_DIMS[self]


_KIND_DIMS = {
    LayoutKind.ROW_2D: 2,
    LayoutKind.COLUMN_2D: 2,
    LayoutKind.DIAGONAL_2D: 2,
    LayoutKind.ROW_3D: 3,
    LayoutKind.COLUMN_POLE_3D: 3,
    LayoutKind.BALL_2D_IN_3D: 3,
    LayoutKind.HEX_3D: 3,
    LayoutKind.COLUMN_ND: None,
}


def lower_bound_constant(n: int, s: int, M: int) -> float:
    """4(n-1) * (2 s^n / n!)^(1/(n-1)) / M^(1/(n-1)).

    Non-compulsory transfers per grid point, before division by B.
    """
    if n < 2 or s < 1 or M < 2:
        raise ValueError("need n >= 2, s >= 1, M >= 2")
    root = 1.0 / (n - 1)
    return 4.0 * (n - 1) * (2.0 * s**n / math.factorial(n)) ** root / M**root


def round_quantities(n: int, s: int, M: int) -> tuple[int, float]:
    """Optimal round length c = 2(n-1)M and round radius r0 = ((n!/2^n) M/s)^(1/(n-1))."""
    if n < 2 or s < 1 or M < 2:
        raise ValueError("need n >= 2, s >= 1, M >= 2")
    c = 2 * (n - 1) * M
    r0 = (math.factorial(n) / 2**n * M / s) ** (1.0 / (n - 1))
    return c, r0


def upper_bound_leading(layout: LayoutKind, n: int, s: int, M: int, B: int) -> float:
    """Per-grid-point leading rate of the non-compulsory transfers for a layout.

    Values are the table rates: row layouts carry no 1/B factor (they move a
    whole block per wing row), everything else does.
    """
    if s < 1 or M < 2 or B < 1:
        raise ValueError("need s >= 1, M >= 2, B >= 1")
    want = layout.dimensions
    if want is not None and n != want:
        raise ValueError(f"{layout.value} is a {want}-D layout, got n={n}")
    if layout is LayoutKind.ROW_2D:
        return 8.0 * s / M
    if layout is LayoutKind.COLUMN_2D:
        return 8.0 * s**2 / (B * M)
    if layout is LayoutKind.DIAGONAL_2D:
        return 4.0 * s**2 / (B * M)
    if layout is LayoutKind.ROW_3D:
        return 8.0 * s / (math.sqrt(B) * math.sqrt(M))
    if layout is LayoutKind.COLUMN_POLE_3D:
        return 8.0 * math.sqrt(2.0) * s**1.5 / (B * math.sqrt(M))
    if layout is LayoutKind.BALL_2D_IN_3D:
        return 8.0 * s**1.5 / (B * math.sqrt(M))
    if layout is LayoutKind.HEX_3D:
        return 8.0 * math.sqrt(2.0) * s**1.5 / (math.sqrt(3.0) * B * math.sqrt(M))
    if layout is LayoutKind.COLUMN_ND:
        if n < 2:
            raise ValueError("need n >= 2")
        root = 1.0 / (n - 1)
        return 4.0 * 2.0**root * s ** (n / (n - 1)) * (n - 1) / (B * M**root)
    raise ValueError(f"unknown layout {layout}")


def gap_ratio(n: int) -> float:
    """(n!)^(1/(n-1)): best-known upper bound over lower bound in n dimensions."""
    if n < 2:
        raise ValueError("need n >= 2")
    return math.factorial(n) ** (1.0 / (n - 1))


def prior_gap(n: int, M: int, B: int) -> float:
    """Leopold's upper bound over his lower bound (s = 1, n = 2 or 3).

    The gap the paper closes in 2D and narrows to sqrt(2) in 3D.
    """
    upper = REFERENCE_BOUNDS[f"leopold_upper_{n}d"](M, B)
    return upper / REFERENCE_BOUNDS[f"leopold_lower_{n}d"](M, B)


def best_layout(n: int) -> LayoutKind:
    """The layout with the smallest leading constant for a given dimension."""
    if n == 2:
        return LayoutKind.DIAGONAL_2D
    if n == 3:
        return LayoutKind.HEX_3D
    return LayoutKind.COLUMN_ND


# Reference constants from prior work, per grid point with s=1 (used only by
# the comparison tables, never re-derived): Frumkin & Van der Wijngaart,
# J. ACM 2002, and Leopold, ICCS 2002.
REFERENCE_BOUNDS = {
    "frumkin_wijngaart_lower_2d": lambda M, B: (8.0 / 9.0) / (B * M),
    "frumkin_wijngaart_lower_3d": lambda M, B: (2.0 / math.sqrt(3.0)) / (B * math.sqrt(M)),
    "leopold_lower_2d": lambda M, B: 2.0 / (B * M),
    "leopold_lower_3d": lambda M, B: 2.0 / (B * math.sqrt(M)),
    "leopold_upper_2d": lambda M, B: 8.0 / (B * M),
    "leopold_upper_3d": lambda M, B: 4.0 * math.sqrt(6.0) / (math.sqrt(B) * math.sqrt(M)),
}
