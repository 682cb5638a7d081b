"""Row layouts: blocks extend along the sweep axis x1.

The band tiling and piece classification are identical to the axis-aligned
column family, but input pieces are stored row-major (one block-padded x1-run
per cross-section cell), so the sweep holds one block per row and compacts
passed blocks down to their last 2s columns instead of streaming whole sweep
shapes.  Output is written in block-aligned column layout (the one kind whose
input and output layouts differ), which keeps the number of open output
blocks constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from emstencil.grid import GridSpec, StencilSpec
from emstencil.layouts.prism import AxisColumnGeometry
from emstencil.machine import MachineConfig


@dataclass(frozen=True)
class RowStream:
    """One cross-section cell's x1-run inside a row-major input piece."""

    use_index: int  # index into band_in_keys order
    row_rank: int  # row index within the piece
    is_core: bool  # core rows compact (shrink); wing rows keep whole blocks
    cross: tuple  # cross-section coordinates


class RowGeometry(AxisColumnGeometry):
    """Row-major input variant of the axis family (2D and 3D row layouts)."""

    def __init__(self, grid: GridSpec, stencil: StencilSpec, cfg: MachineConfig, m: int):
        if cfg.B < 2 * stencil.s:
            raise ValueError("row layouts assume B >= 2s")
        super().__init__(grid, stencil, cfg, m)

    def piece_catalog(self):
        in_pieces = []
        for key in itertools.product(*(range(len(z)) for z in self.zones)):
            n_elems = self._width(self._zone_spans(key)) * self.k1
            in_pieces.append((key, self._zone_users(key), n_elems, self.k1))
        out_pieces = []
        for band in self.bands:
            for okey, spans in self._band(band)["out"]:
                out_pieces.append(((band, okey), (band,), self._width(spans) * self.k1))
        return in_pieces, out_pieces

    def piece_elements(self, layer, key):
        if layer == "out":
            yield from super().piece_elements(layer, key)
            return
        for cross in self._iter_box(self._zone_spans(key)):
            rank = self._rank(cross)
            for x1 in range(self.k1):
                yield rank, (x1,) + cross

    def row_streams(self, band) -> list[RowStream]:
        """All x1-runs the band touches, with their piece-relative row ranks."""
        streams = []
        for ui, key in enumerate(self.band_in_keys(band)):
            spans = self._zone_spans(key)
            users = self._zone_users(key)
            is_core = len(users) == 1
            for rank, cross in enumerate(self._iter_box(spans)):
                streams.append(RowStream(ui, rank, is_core, cross))
        return streams
