"""Shared structure for banded data layouts.

Every layout is a list of pieces.  An input piece is the set of grid vertices
needed by one fixed set of working bands (a core when one band needs it, a
wing when several share it); an output piece is the set of vertices one band
evaluates, split along the same geometry.  Pieces own disjoint whole-block
ranges (input pieces first, then output pieces), and within a piece vertices
are stored in exactly the order the sweep consumes them: plane by plane along
the sweep direction, scan-ordered inside a plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from emstencil.bounds import LayoutKind
from emstencil.grid import GridSpec, StencilSpec, Vertex, linearize, vertex_count
from emstencil.machine import MachineConfig


class UnusableConfiguration(Exception):
    """M too small (or B too large) for the layout's sweep shape to fit."""


@dataclass(frozen=True)
class SweepShapeSize:
    m: int


@dataclass
class Piece:
    pid: int
    layer: str  # "in" | "out"
    key: Hashable  # (band(s), class tag)
    users: tuple  # band keys that touch the piece, in processing order
    n_elems: int
    start_block: int = -1
    n_blocks: int = 0
    row_len: int = 0  # row-major pieces: real elements per block-padded row

    @property
    def is_shared(self) -> bool:
        return self.layer == "in" and len(self.users) > 1


def axis_band_origins(k: int, m: int, overlap: int) -> list[int]:
    """Origins of bands of width m overlapping by `overlap` covering [0, k)."""
    if m >= k:
        return [0]
    step = m - overlap
    nb = -(-(k - overlap) // step)  # ceil
    return [j * step for j in range(nb)]


@dataclass(frozen=True)
class WorkingBand:
    """One working band for the tiling report: origin, extent, partial flag."""

    key: Hashable
    origin: tuple
    plane_range: tuple[int, int]
    partial: bool


class Layout:
    """A concrete banded layout; doubles as the machine's address space."""

    def __init__(
        self,
        kind: LayoutKind,
        grid: GridSpec,
        stencil: StencilSpec,
        cfg: MachineConfig,
        geometry,
        shape: SweepShapeSize,
    ):
        self.kind = kind
        self.grid = grid
        self.stencil = stencil
        self.cfg = cfg
        self.geometry = geometry
        self.shape = shape
        self.B = cfg.B
        self.n_vertices = vertex_count(grid)

        self.pieces: list[Piece] = []
        self._piece_by_key: dict[tuple[str, Hashable], Piece] = {}
        in_pieces, out_pieces = geometry.piece_catalog()
        next_block = 0
        for layer, catalog in (("in", in_pieces), ("out", out_pieces)):
            for entry in catalog:
                key, users, n_elems = entry[:3]
                row_len = entry[3] if len(entry) > 3 else 0
                if n_elems == 0:
                    continue
                if row_len:
                    # row-major piece: every row padded to whole blocks
                    bpr = -(-row_len // self.B)
                    n_blocks = (n_elems // row_len) * bpr
                else:
                    n_blocks = -(-n_elems // self.B)
                p = Piece(
                    pid=len(self.pieces),
                    layer=layer,
                    key=key,
                    users=tuple(users),
                    n_elems=n_elems,
                    start_block=next_block,
                    n_blocks=n_blocks,
                    row_len=row_len,
                )
                self.pieces.append(p)
                self._piece_by_key[(layer, key)] = p
                next_block += p.n_blocks
            if layer == "in":
                self.n_input_blocks = next_block
        self.n_blocks = next_block
        total_in = sum(p.n_elems for p in self.pieces if p.layer == "in")
        total_out = sum(p.n_elems for p in self.pieces if p.layer == "out")
        if total_in != self.n_vertices or total_out != self.n_vertices:
            raise AssertionError(
                f"piece catalog does not partition the grid: in={total_in} "
                f"out={total_out} expected={self.n_vertices}"
            )
        self._pos_in = None
        self._pos_out = None

    # -- AddressSpace protocol -------------------------------------------------

    def piece(self, layer: str, key: Hashable) -> Piece:
        return self._piece_by_key[(layer, key)]

    def maybe_piece(self, layer: str, key: Hashable) -> Optional[Piece]:
        return self._piece_by_key.get((layer, key))

    def block_occupancy(self, block_id: int) -> int:
        p = self._piece_at_block(block_id)
        if p.row_len:
            bpr = -(-p.row_len // self.B)
            rel = (block_id - p.start_block) % bpr
            if rel == bpr - 1:
                return p.row_len - (bpr - 1) * self.B
            return self.B
        if block_id == p.start_block + p.n_blocks - 1:
            return p.n_elems - (p.n_blocks - 1) * self.B
        return self.B

    def piece_position(self, p: Piece, elem_index: int) -> int:
        """Global element position of the elem_index-th real element of a piece."""
        if p.row_len:
            bpr = -(-p.row_len // self.B)
            row, col = divmod(elem_index, p.row_len)
            return (p.start_block + row * bpr) * self.B + col
        return p.start_block * self.B + elem_index

    def _piece_at_block(self, block_id: int) -> Piece:
        from bisect import bisect_right

        starts = self._block_starts
        i = bisect_right(starts, block_id) - 1
        return self.pieces[i]

    @property
    def _block_starts(self) -> list[int]:
        cached = getattr(self, "_block_starts_cache", None)
        if cached is None:
            cached = [p.start_block for p in self.pieces]
            self._block_starts_cache = cached
        return cached

    def materialize(self) -> None:
        """Build O(1) vertex->address tables (desk-scale grids only)."""
        if self._pos_in is not None:
            return
        import numpy as np

        n = self.n_vertices
        if n > 1 << 22:
            raise MemoryError(f"refusing to materialize addresses for {n} vertices")
        pos_in = np.full(n, -1, dtype=np.int64)
        pos_out = np.full(n, -1, dtype=np.int64)
        for p in self.pieces:
            table = pos_in if p.layer == "in" else pos_out
            for i, v in enumerate(self.geometry.iter_piece_vertices(p.layer, p.key)):
                table[linearize(self.grid, v)] = self.piece_position(p, i)
        if (pos_in < 0).any() or (pos_out < 0).any():
            raise AssertionError("piece enumeration missed vertices")
        self._pos_in = pos_in
        self._pos_out = pos_out

    def address_of(self, x: Vertex, layer: str) -> tuple[int, int]:
        if self._pos_in is None:
            self.materialize()
        idx = linearize(self.grid, x)
        pos = int((self._pos_in if layer == "in" else self._pos_out)[idx])
        return pos // self.B, pos % self.B

    # -- band decomposition views ------------------------------------------------

    def working_bands(self) -> list[WorkingBand]:
        return self.geometry.working_bands()
