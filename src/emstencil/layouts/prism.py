"""Prism-style banded geometries: sweep shapes swept plane by plane.

A geometry owns the band tiling, the core/wing pieces (keyed by the set of
working bands that need them), and two views of them that the sweep runner
consumes under both fidelities: per step, how many elements of each piece sit
on sweep plane tau (``step_counts``); per piece, its (rank, vertex) elements
in storage order (``piece_elements``).  Storage order is plane by plane and,
within a plane, by increasing in-plane scan rank, so cutting a piece's stream
by the step counts yields each step's plane in scan order.  (Row layouts
store their input pieces row by row instead; their runner cuts only the
output streams.)

This module has the interval-based geometries: the axis-aligned column family
(2D column, 3D column/pole, n-D column) and the 2D block-aligned diagonal.
The template-based cross-section geometries (2D ball in 3D, hexagonal) live in
emstencil.layouts.planar.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Hashable, Iterator

from emstencil.grid import GridSpec, StencilSpec, Vertex
from emstencil.layouts.base import WorkingBand, axis_band_origins
from emstencil.machine import MachineConfig


class PrismGeometry(ABC):
    """Common protocol for plane-swept banded layouts."""

    grid: GridSpec
    stencil: StencilSpec
    cfg: MachineConfig
    m: int
    bands: list[Hashable]
    rank_reach: int

    @property
    def s(self) -> int:
        return self.stencil.s

    @abstractmethod
    def piece_catalog(self):
        """([(in_key, users, n_elems)], [(out_key, users, n_elems)])"""

    @abstractmethod
    def band_steps(self, band) -> range:
        """Step values tau for the band (ramp and drain included)."""

    @abstractmethod
    def band_in_keys(self, band) -> list[Hashable]:
        ...

    @abstractmethod
    def band_out_keys(self, band) -> list[Hashable]:
        ...

    @abstractmethod
    def step_counts(self, band, tau) -> tuple[list[int], list[int]]:
        """(loads per in-key for plane tau, evals per out-key for shape tau-s)."""

    @abstractmethod
    def piece_elements(self, layer: str, key: Hashable) -> Iterator[tuple[int, Vertex]]:
        """(in-plane scan rank, vertex) of a piece, in storage order."""

    def iter_piece_vertices(self, layer: str, key: Hashable) -> Iterator[Vertex]:
        return (vertex for _, vertex in self.piece_elements(layer, key))

    @abstractmethod
    def working_bands(self) -> list[WorkingBand]:
        ...

    @abstractmethod
    def core_in_key(self, band) -> Hashable:
        """The band's own unshared piece (the one the fine runner interleaves)."""

    @abstractmethod
    def piece_planes(self, key) -> tuple[int, int]:
        """Inclusive sweep-plane range an input piece can occupy."""

    @abstractmethod
    def piece_plane_count(self, key, tau: int) -> int:
        ...


# ---------------------------------------------------------------------------
# Axis-aligned column family (block-aligned column 2D / column-pole 3D / n-D)
# ---------------------------------------------------------------------------


def _axis_zones(k: int, m: int, s: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Partition [0, k) into (lo, hi, needing-band-indices) zones for one axis."""
    origins = axis_band_origins(k, m, 2 * s)
    nb = len(origins)
    if nb == 1:
        return [(0, k, (0,))]
    zones: list[tuple[int, int, tuple[int, ...]]] = []
    cursor = 0
    for j in range(1, nb):
        o = origins[j]
        if cursor < o:
            zones.append((cursor, o, (j - 1,)))
        zones.append((o, o + 2 * s, (j - 1, j)))
        cursor = o + 2 * s
    zones.append((cursor, k, (nb - 1,)))
    return zones


def _axis_eval_bounds(k: int, m: int, s: int) -> list[tuple[int, int]]:
    """Per-band evaluated coordinate ranges: they tile [0, k)."""
    origins = axis_band_origins(k, m, 2 * s)
    nb = len(origins)
    out = []
    for j, o in enumerate(origins):
        lo = 0 if j == 0 else o + s
        hi = k if j == nb - 1 else o + m - s
        out.append((lo, hi))
    return out


class AxisColumnGeometry(PrismGeometry):
    """Hypercube sweep shapes in x2..xn, swept along x1, block-aligned.

    Bands tile every cross-section axis with width-m ranges overlapping by 2s;
    pieces are products of per-axis zones, so the wings shared by 2..2^(n-1)
    bands come out as exactly the zone products the capacity analysis expects.
    """

    def __init__(self, grid: GridSpec, stencil: StencilSpec, cfg: MachineConfig, m: int):
        self.grid = grid
        self.stencil = stencil
        self.cfg = cfg
        self.m = m
        s = stencil.s
        self.k1 = grid.sides[0]
        self.cross = grid.sides[1:]
        self.zones = [_axis_zones(k, m, s) for k in self.cross]
        self.evals = [_axis_eval_bounds(k, m, s) for k in self.cross]
        self.origins = [axis_band_origins(k, m, 2 * s) for k in self.cross]
        self.nb = [len(o) for o in self.origins]
        self.bands = list(itertools.product(*(range(n) for n in self.nb)))
        strides = []
        acc = 1
        for k in reversed(self.cross):
            strides.append(acc)
            acc *= k
        strides.reverse()
        self._strides = strides
        self.rank_reach = s * (strides[0] if strides else 1) + s
        self._band_cache: dict = {}

    def _zone_users(self, key) -> tuple:
        axis_sets = [self.zones[i][zi][2] for i, zi in enumerate(key)]
        return tuple(itertools.product(*axis_sets))

    def _zone_spans(self, key):
        return [self.zones[i][zi][:2] for i, zi in enumerate(key)]

    def _width(self, spans) -> int:
        w = 1
        for a, b in spans:
            w *= b - a
        return w

    def piece_catalog(self):
        in_pieces = []
        for key in itertools.product(*(range(len(z)) for z in self.zones)):
            in_pieces.append(
                (key, self._zone_users(key), self._width(self._zone_spans(key)) * self.k1)
            )
        out_pieces = []
        for band in self.bands:
            for key, spans in self._band(band)["out"]:
                out_pieces.append(((band, key), (band,), self._width(spans) * self.k1))
        return in_pieces, out_pieces

    def _out_spans_axis(self, i, j):
        e_lo, e_hi = self.evals[i][j]
        o = self.origins[i][j]
        s = self.s
        cuts = {e_lo, e_hi}
        for c in (o + 2 * s, o + self.m - 2 * s):
            if e_lo < c < e_hi:
                cuts.add(c)
        cc = sorted(cuts)
        return [(a, b) for a, b in zip(cc, cc[1:]) if b > a]

    def _band(self, band) -> dict:
        cached = self._band_cache.get(band)
        if cached is not None:
            return cached
        in_keys = []
        per_axis = []
        for i, j in enumerate(band):
            per_axis.append(
                [zi for zi, (lo, hi, users) in enumerate(self.zones[i]) if j in users]
            )
        for key in itertools.product(*per_axis):
            in_keys.append(key)
        in_widths = [self._width(self._zone_spans(k)) for k in in_keys]
        out = []
        per_axis_spans = [self._out_spans_axis(i, j) for i, j in enumerate(band)]
        for combo in itertools.product(*per_axis_spans):
            out.append((tuple(combo), list(combo)))
        out_widths = [self._width(spans) for _, spans in out]
        cached = {
            "in": in_keys,
            "in_widths": in_widths,
            "out": out,
            "out_widths": out_widths,
        }
        self._band_cache[band] = cached
        return cached

    def band_steps(self, band) -> range:
        return range(0, self.k1 + self.s)

    def band_in_keys(self, band):
        return self._band(band)["in"]

    def band_out_keys(self, band):
        return [(band, key) for key, _ in self._band(band)["out"]]

    def step_counts(self, band, tau):
        info = self._band(band)
        loads = info["in_widths"] if 0 <= tau < self.k1 else [0] * len(info["in"])
        te = tau - self.s
        evals = info["out_widths"] if 0 <= te < self.k1 else [0] * len(info["out"])
        return loads, evals

    def _rank(self, cross) -> int:
        return sum(c * st for c, st in zip(cross, self._strides))

    @staticmethod
    def _iter_box(spans):
        return itertools.product(*(range(a, b) for a, b in spans))

    def piece_elements(self, layer, key):
        spans = self._zone_spans(key) if layer == "in" else key[1]  # out key: (band, spans)
        plane = [(self._rank(cross), cross) for cross in self._iter_box(spans)]
        for x1 in range(self.k1):
            for rank, cross in plane:
                yield rank, (x1,) + cross

    def working_bands(self):
        out = []
        for band in self.bands:
            origin = tuple(self.origins[i][j] for i, j in enumerate(band))
            partial = any(
                self.origins[i][j] + self.m > self.cross[i] for i, j in enumerate(band)
            )
            out.append(WorkingBand(band, origin, (0, self.k1 - 1), partial))
        return out

    def core_in_key(self, band):
        key = []
        for i, j in enumerate(band):
            zones = self.zones[i]
            for zi, (lo, hi, users) in enumerate(zones):
                if users == (j,):
                    key.append(zi)
                    break
            else:
                raise AssertionError(f"no core zone for band {band} on axis {i}")
        return tuple(key)

    def piece_planes(self, key):
        return (0, self.k1 - 1)

    def piece_plane_count(self, key, tau):
        if 0 <= tau < self.k1:
            return self._width(self._zone_spans(key))
        return 0


# ---------------------------------------------------------------------------
# 2D block-aligned diagonal
# ---------------------------------------------------------------------------


class Diag2DGeometry(PrismGeometry):
    """Diagonal line sweep shapes of m vertices, shifted alternately in x1, x2.

    In rotated coordinates u = x1+x2 (sweep planes) and v = x1-x2, the l1
    stencil becomes the l-infinity ball, a sweep shape is the one-parity
    lattice points of a v-interval of length 2m, and working bands are
    45-degree strips of v-width 2m overlapping by 2s.  Per grid row a band
    covers 2m vertices: a 2m-4s core and two shared 2s wings.
    """

    def __init__(self, grid: GridSpec, stencil: StencilSpec, cfg: MachineConfig, m: int):
        if grid.n != 2:
            raise ValueError("diagonal layout is two dimensional")
        self.grid = grid
        self.stencil = stencil
        self.cfg = cfg
        self.m = m
        s = stencil.s
        self.k1, self.k2 = grid.sides
        self.v_lo, self.v_hi = -(self.k2 - 1), self.k1 - 1  # inclusive v range
        span = self.v_hi - self.v_lo + 1
        self.origins = [self.v_lo + o for o in axis_band_origins(span, 2 * m, 2 * s)]
        self.nb = len(self.origins)
        self.bands = list(range(self.nb))
        self.rank_reach = s

    # -- v-interval helpers (closed intervals throughout) ----------------------

    def _core_v(self, j) -> tuple[int, int]:
        lo = self.v_lo if j == 0 else self.origins[j] + 2 * self.s
        hi = self.v_hi if j == self.nb - 1 else self.origins[j] + 2 * self.m - 1 - 2 * self.s
        return lo, hi

    def _wing_v(self, j) -> tuple[int, int]:
        """Wing shared by bands j-1 and j (j >= 1)."""
        lo = self.origins[j]
        return lo, lo + 2 * self.s - 1

    def _eval_v(self, j) -> tuple[int, int]:
        lo = self.v_lo if j == 0 else self.origins[j] + self.s
        hi = self.v_hi if j == self.nb - 1 else self.origins[j] + 2 * self.m - 1 - self.s
        return lo, hi

    def _out_classes(self, j) -> list[tuple[int, int]]:
        e_lo, e_hi = self._eval_v(j)
        cuts = {e_lo, e_hi + 1}
        c_lo, c_hi = self._core_v(j)
        for c in (c_lo, c_hi + 1):
            if e_lo < c <= e_hi:
                cuts.add(c)
        cc = sorted(cuts)
        return [(a, b - 1) for a, b in zip(cc, cc[1:]) if b > a]

    def _grid_v_clip(self, u: int) -> tuple[int, int]:
        return max(-u, u - 2 * (self.k2 - 1)), min(u, 2 * (self.k1 - 1) - u)

    @staticmethod
    def _parity_count(lo: int, hi: int, parity: int) -> int:
        if hi < lo:
            return 0
        first = lo if (lo - parity) % 2 == 0 else lo + 1
        if first > hi:
            return 0
        return (hi - first) // 2 + 1

    def _count(self, u, v_int) -> int:
        glo, ghi = self._grid_v_clip(u)
        return self._parity_count(max(v_int[0], glo), min(v_int[1], ghi), u & 1)

    def _diag_len(self, v: int) -> int:
        """Grid vertices with x1 - x2 = v."""
        lo = max(0, -v)
        hi = min(self.k2 - 1, self.k1 - 1 - v)
        return max(0, hi - lo + 1)

    def _interval_total(self, v_lo, v_hi) -> int:
        lo, hi = max(v_lo, self.v_lo), min(v_hi, self.v_hi)
        return sum(self._diag_len(v) for v in range(lo, hi + 1))

    def _u_range(self, v_int) -> tuple[int, int]:
        lo, hi = max(v_int[0], self.v_lo), min(v_int[1], self.v_hi)
        if lo > 0:
            u_min = lo
        elif hi < 0:
            u_min = -hi
        else:
            u_min = 0
        # max_u(v) peaks where both grid corners bind, at v = k1 - k2
        peak = min(max(self.k1 - self.k2, lo), hi)
        u_max = 0
        for v in {lo, hi, peak}:
            u_max = max(u_max, 2 * (self.k1 - 1) - v if v >= 0 else 2 * (self.k2 - 1) + v)
        return u_min, u_max

    # -- geometry protocol ------------------------------------------------------

    def piece_catalog(self):
        in_pieces = []
        for j in range(self.nb):
            if j > 0:
                lo, hi = self._wing_v(j)
                in_pieces.append((("w", (j - 1, j)), (j - 1, j), self._interval_total(lo, hi)))
            lo, hi = self._core_v(j)
            in_pieces.append((("c", j), (j,), self._interval_total(lo, hi)))
        out_pieces = []
        for j in range(self.nb):
            for span in self._out_classes(j):
                out_pieces.append(((j, span), (j,), self._interval_total(*span)))
        return in_pieces, out_pieces

    def band_steps(self, band) -> range:
        lo = self.origins[band]
        hi = lo + 2 * self.m - 1
        u0, u1 = self._u_range((lo, hi))
        return range(u0, u1 + self.s + 1)

    def band_in_keys(self, band):
        keys = []
        if band > 0:
            keys.append(("w", (band - 1, band)))
        keys.append(("c", band))
        if band < self.nb - 1:
            keys.append(("w", (band, band + 1)))
        return keys

    def _key_interval(self, key) -> tuple[int, int]:
        tag, val = key
        if tag == "c":
            return self._core_v(val)
        return self._wing_v(val[1])

    def band_out_keys(self, band):
        return [(band, span) for span in self._out_classes(band)]

    def step_counts(self, band, tau):
        loads = [self._count(tau, self._key_interval(k)) for k in self.band_in_keys(band)]
        te = tau - self.s
        evals = [self._count(te, span) for span in self._out_classes(band)]
        return loads, evals

    def _interval_vertices(self, u, v_int):
        glo, ghi = self._grid_v_clip(u)
        lo, hi = max(v_int[0], glo), min(v_int[1], ghi)
        first = lo if (lo - u) % 2 == 0 else lo + 1
        for v in range(first, hi + 1, 2):
            yield v, ((u + v) // 2, (u - v) // 2)

    def piece_elements(self, layer, key):
        v_int = self._key_interval(key) if layer == "in" else key[1]
        u0, u1 = self._u_range(v_int)
        for u in range(u0, u1 + 1):
            yield from self._interval_vertices(u, v_int)

    def working_bands(self):
        out = []
        for j in range(self.nb):
            lo = self.origins[j]
            hi = lo + 2 * self.m - 1
            u0, u1 = self._u_range((lo, hi))
            partial = lo < self.v_lo or hi > self.v_hi
            out.append(WorkingBand(j, (lo,), (u0, u1), partial))
        return out

    def core_in_key(self, band):
        return ("c", band)

    def piece_planes(self, key):
        return self._u_range(self._key_interval(key))

    def piece_plane_count(self, key, tau):
        return self._count(tau, self._key_interval(key))
