"""Concrete banded data layouts and their sweep-shape sizing."""

from __future__ import annotations

from emstencil.bounds import LayoutKind
from emstencil.grid import GridSpec, StencilSpec
from emstencil.layouts.base import (
    Layout,
    Piece,
    SweepShapeSize,
    UnusableConfiguration,
    WorkingBand,
)
from emstencil.layouts.capacity import capacity_search_m, closed_form_m, sweep_shape_size
from emstencil.layouts.planar import Ball2DIn3DGeometry, HexGeometry
from emstencil.layouts.prism import AxisColumnGeometry, Diag2DGeometry
from emstencil.layouts.rows import RowGeometry
from emstencil.machine import MachineConfig

_GEOMETRY = {
    LayoutKind.ROW_2D: RowGeometry,
    LayoutKind.ROW_3D: RowGeometry,
    LayoutKind.COLUMN_2D: AxisColumnGeometry,
    LayoutKind.COLUMN_POLE_3D: AxisColumnGeometry,
    LayoutKind.COLUMN_ND: AxisColumnGeometry,
    LayoutKind.DIAGONAL_2D: Diag2DGeometry,
    LayoutKind.BALL_2D_IN_3D: Ball2DIn3DGeometry,
    LayoutKind.HEX_3D: HexGeometry,
}


def build_layout(
    kind: LayoutKind,
    grid: GridSpec,
    stencil: StencilSpec,
    cfg: MachineConfig,
) -> Layout:
    """Construct the banded layout for a configuration.

    Raises UnusableConfiguration when M cannot hold the minimal sweep shape.
    """
    want = kind.dimensions
    if want is not None and grid.n != want:
        raise ValueError(f"{kind.value} needs a {want}-D grid, got {grid.n}-D")
    stencil.validate_for(grid)
    shape = sweep_shape_size(kind, grid.n, stencil.s, cfg.M, cfg.B)
    geometry = _GEOMETRY[kind](grid, stencil, cfg, shape.m)
    return Layout(kind, grid, stencil, cfg, geometry, shape)


def working_band_tiling(kind: LayoutKind, grid: GridSpec, stencil: StencilSpec,
                        cfg: MachineConfig, m: int | None = None) -> list[WorkingBand]:
    """Enumerate the working bands covering the grid for a layout kind."""
    if m is None:
        m = sweep_shape_size(kind, grid.n, stencil.s, cfg.M, cfg.B).m
    geometry = _GEOMETRY[kind](grid, stencil, cfg, m)
    return geometry.working_bands()


def hexagonal_projection(st: StencilSpec, x: tuple[int, int]) -> set[tuple[int, int]]:
    """The 2D projection P_s(x) of the s-star stencil onto a sweep plane.

    The l1 ball of radius s around x together with the two signed l-infinity
    quadrant pieces: offsets that are componentwise nonpositive or
    componentwise nonnegative.  For s = 1 this is the 7-point hexagonal
    neighborhood (the plus shape with the two diagonal corners).
    """
    s = st.s
    out = set()
    for da in range(-s, s + 1):
        for db in range(-s, s + 1):
            if (
                abs(da) + abs(db) <= s
                or (da <= 0 and db <= 0)
                or (da >= 0 and db >= 0)
            ):
                out.add((x[0] + da, x[1] + db))
    return out


__all__ = [
    "LayoutKind",
    "Layout",
    "Piece",
    "SweepShapeSize",
    "UnusableConfiguration",
    "WorkingBand",
    "build_layout",
    "working_band_tiling",
    "hexagonal_projection",
    "sweep_shape_size",
    "closed_form_m",
    "capacity_search_m",
]
