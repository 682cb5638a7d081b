"""Template-based cross-section geometries: 2D l1-ball prisms and hexagonal prisms.

Both kinds tile a 2D cross-section lattice with congruent cells (diamonds on
the x2x3-plane, hexagons on the plane normal to (1,1,1)) and sweep the cell's
shape through the grid.  A per-cell template classifies every relative
position by the set of neighboring cells that also need it (via the 3D l1
stencil reach), which yields the core piece and the 8 (ball) or 12 (hex) wing
piece kinds of each band.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import NamedTuple, Optional

from emstencil.grid import GridSpec, StencilSpec, Vertex, l1_offsets
from emstencil.layouts.base import WorkingBand
from emstencil.layouts.prism import PrismGeometry
from emstencil.machine import MachineConfig

Cell = tuple[int, int]


def _lattice_candidates(p, basis):
    """Nearby lattice cells of a 2D point, by rounded inverse + 3x3 search."""
    (a11, a21), (a12, a22) = basis  # columns v1 = (a11, a21), v2 = (a12, a22)
    det = a11 * a22 - a12 * a21
    pa, pb = p
    # inverse of [[a11, a12], [a21, a22]] scaled by det
    i0 = round((a22 * pa - a12 * pb) / det)
    j0 = round((-a21 * pa + a11 * pb) / det)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            yield (i0 + di, j0 + dj)


def _lattice_point(basis, cell) -> tuple[int, int]:
    (a11, a21), (a12, a22) = basis
    i, j = cell
    return (i * a11 + j * a12, i * a21 + j * a22)


class Template(NamedTuple):
    """The cell template of one (kind, m, s): all a geometry needs of the tiling.

    A class is the set of cell offsets whose bands need a position (via the 3D
    l1 stencil reach); it can differ per sweep phase.
    """

    class_offsets: tuple[frozenset, ...]  # class id -> offsets of the cells needing it
    class_totals: tuple[tuple[int, ...], ...]  # phase -> unclipped count per class
    segments: tuple[tuple, ...]  # phase -> ((row, ((c_lo, c_hi, class), ...)), ...)
    rank_reach: int


def _rank_width(m: int) -> int:
    return 4 * m + 6


@functools.cache
def template(cls: type[_PlanarBase], m: int, s: int) -> Template:
    """The template of a template kind, built once per (kind, m, s).

    A shifted position that lies in the owned set belongs to cell (0, 0); only
    the boundary positions go through the lattice search.  Uniqueness of that
    ownership is the tiling property the layout tests check.
    """
    owned = [
        (pa, pb)
        for pa in range(-m, m + 1)
        for pb in range(-m, m + 1)
        if cls._owned(m, (pa, pb))
    ]
    (a11, a21), (a12, a22) = cls._cell_basis(m)
    det = a11 * a22 - a12 * a21
    if len(owned) != det:
        raise AssertionError(f"template size {len(owned)} != lattice determinant {det}")
    owned_set = set(owned)
    # per-phase class of each owned position: set of cell offsets needing it
    deltas = l1_offsets(3, s)
    phase_shifts = [sorted({cls._delta_rel(d, phase) for d in deltas})
                    for phase in range(cls.n_phases)]
    class_ids: dict[frozenset, int] = {}
    pos_class: list[dict[tuple[int, int], int]] = []
    for shifts in phase_shifts:
        mapping = {}
        for p in owned:
            users = set()
            for sh in shifts:
                q = (p[0] + sh[0], p[1] + sh[1])
                users.add((0, 0) if q in owned_set else cls._resolve(m, q))
            mapping[p] = class_ids.setdefault(frozenset(users), len(class_ids))
        pos_class.append(mapping)
    # scan-ordered rows, then per-phase class segments of adjacent columns
    rows: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for p in owned:
        r, c = cls.scan_rc(p)
        rows.setdefault(r, []).append((c, p))
    step = cls._col_step
    segments = []
    for mapping in pos_class:
        per_row = []
        for r in sorted(rows):
            lst: list[tuple[int, int, int]] = []
            for c, p in sorted(rows[r]):
                cid = mapping[p]
                if lst and lst[-1][2] == cid and c == lst[-1][1] + step:
                    lst[-1] = (lst[-1][0], c, cid)
                else:
                    lst.append((c, c, cid))
            per_row.append((r, tuple(lst)))
        segments.append(tuple(per_row))
    totals = []
    for mapping in pos_class:
        tot = [0] * len(class_ids)
        for cid in mapping.values():
            tot[cid] += 1
        totals.append(tuple(tot))
    # widest scan-rank distance of a stencil shift
    W = _rank_width(m)
    r0, c0 = cls.scan_rc((0, 0))
    reach = max(
        abs((r - r0) * W + (c - c0))
        for shifts in phase_shifts
        for r, c in map(cls.scan_rc, shifts)
    )
    return Template(
        class_offsets=tuple(class_ids),
        class_totals=tuple(totals),
        segments=tuple(segments),
        rank_reach=reach + step,
    )


class _PlanarBase(PrismGeometry):
    """Shared machinery; subclasses fill in cell/owner/projection specifics.

    Per-plane counts depend on a cell and a plane only through the clip key
    ``_clip(cell, tau)``: the sweep phase followed by (low, high) bound pairs
    on the template coordinates, each clamped to [-m-1, m+1].  Clamping keeps
    every comparison with the template span [-m, m], so the key determines the
    clipped counts, and it makes all interior planes of a phase share one key.
    """

    n_phases = 1
    _col_step = 1

    def __init__(self, grid: GridSpec, stencil: StencilSpec, cfg: MachineConfig, m: int):
        self.grid = grid
        self.stencil = stencil
        self.cfg = cfg
        self.m = m
        self._basis = self._cell_basis(m)
        tpl = template(type(self), m, stencil.s)
        self._class_offsets = tpl.class_offsets
        self._class_totals = tpl.class_totals
        self._segments = tpl.segments
        self.rank_reach = tpl.rank_reach
        self.n_classes = len(tpl.class_offsets)
        self._no_counts = (0,) * self.n_classes
        self._count_memo: dict[tuple, tuple[int, ...]] = {}
        self._enumerate_cells()
        self._key_cells()

    # ---- subclass hooks -------------------------------------------------------

    @staticmethod
    def _cell_basis(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
        raise NotImplementedError

    @classmethod
    def _owned(cls, m: int, p) -> bool:
        """Is relative position p owned by cell (0, 0)?  (|p| <= m covers the set.)"""
        raise NotImplementedError

    @staticmethod
    def _delta_rel(delta3d, phase) -> tuple[int, int]:
        raise NotImplementedError

    @staticmethod
    def scan_rc(p) -> tuple[int, int]:
        raise NotImplementedError

    @staticmethod
    def pos_of_rc(r, c) -> tuple[int, int]:
        raise NotImplementedError

    def _clip(self, cell: Cell, tau: int) -> tuple[int, ...]:
        """The clip key of a cell at sweep plane tau (built with _clip_key)."""
        raise NotImplementedError

    def row_clip(self, clip, row: int) -> Optional[tuple[int, int]]:
        """In-grid col interval (inclusive) of a template row under a clip key, or None."""
        raise NotImplementedError

    # ---- template --------------------------------------------------------------

    def cell_center(self, cell: Cell) -> tuple[int, int]:
        return _lattice_point(self._basis, cell)

    @classmethod
    def _resolve(cls, m: int, p) -> Cell:
        basis = cls._cell_basis(m)
        hits = []
        for cell in _lattice_candidates(p, basis):
            ca, cb = _lattice_point(basis, cell)
            if cls._owned(m, (p[0] - ca, p[1] - cb)):
                hits.append(cell)
        if len(hits) != 1:
            raise AssertionError(f"ownership not unique at {p}: {hits}")
        return hits[0]

    def resolve_cell(self, p) -> Cell:
        """The cell owning relative position p; raises unless exactly one does."""
        return self._resolve(self.m, p)

    # ---- cells ------------------------------------------------------------------

    def _enumerate_cells(self):
        raise NotImplementedError

    def _key_cells(self):
        """Per-cell pruned class -> piece-key mapping (phantom neighbors dropped)."""
        existing = set(self.bands)
        self._cell_keys: dict[Cell, list] = {}
        for cell in self.bands:
            keys = []
            for cid in range(self.n_classes):
                users = []
                for off in self._class_offsets[cid]:
                    user = (cell[0] + off[0], cell[1] + off[1])
                    if user in existing:
                        users.append(user)
                keys.append(tuple(sorted(users)))
            self._cell_keys[cell] = keys

    # ---- per-plane clipping ----------------------------------------------------------

    def plane_range(self, cell: Cell) -> tuple[int, int]:
        raise NotImplementedError

    def _clip_key(self, phase: int, bounds) -> tuple[int, ...]:
        lo, hi = -self.m - 1, self.m + 1
        return (phase, *[lo if x < lo else hi if x > hi else x for x in bounds])

    def fully_interior(self, clip) -> bool:
        """Does no grid bound of the clip key cut the template?"""
        m = self.m
        return all(lo <= -m for lo in clip[1::2]) and all(hi >= m for hi in clip[2::2])

    def plane_class_counts(self, cell: Cell, tau: int) -> tuple[int, ...]:
        """Count of each class at sweep plane tau (clipped to the grid)."""
        t0, t1 = self.plane_range(cell)
        if not t0 <= tau <= t1:
            return self._no_counts
        clip = self._clip(cell, tau)
        got = self._count_memo.get(clip)
        if got is None:
            got = self._count_memo[clip] = self._clipped_counts(clip)
        return got

    def _clipped_counts(self, clip) -> tuple[int, ...]:
        phase = clip[0]
        if self.fully_interior(clip):
            return self._class_totals[phase]
        counts = [0] * self.n_classes
        step = self._col_step
        for r, segs in self._segments[phase]:
            span = self.row_clip(clip, r)
            if span is None:
                continue
            lo, hi = span
            for c0, c1, cid in segs:
                a, b = max(c0, lo), min(c1, hi)
                if a <= b:
                    counts[cid] += (b - a) // step + 1
        return tuple(counts)

    def plane_class_elements(self, cell: Cell, tau: int):
        """Per class: scan-ordered [(rank, vertex)] at plane tau."""
        t0, t1 = self.plane_range(cell)
        out = [[] for _ in range(self.n_classes)]
        if not t0 <= tau <= t1:
            return out
        clip = self._clip(cell, tau)
        W = _rank_width(self.m)
        step = self._col_step
        for r, segs in self._segments[clip[0]]:
            span = self.row_clip(clip, r)
            if span is None:
                continue
            lo, hi = span
            for c0, c1, cid in segs:
                for c in range(max(c0, lo), min(c1, hi) + 1, step):
                    p = self.pos_of_rc(r, c)
                    out[cid].append((r * W + c, self.vertex_of(cell, p, tau)))
        return out

    def vertex_of(self, cell: Cell, p, tau: int) -> Vertex:
        raise NotImplementedError

    # ---- PrismGeometry protocol ---------------------------------------------------

    def piece_catalog(self):
        in_totals: dict = {}
        users_of: dict = {}
        for cell in self.bands:
            keys = self._cell_keys[cell]
            t0, t1 = self.plane_range(cell)
            for tau in range(t0, t1 + 1):
                counts = self.plane_class_counts(cell, tau)
                for cid, n in enumerate(counts):
                    if n == 0:
                        continue
                    key = (cell, keys[cid])
                    in_totals[key] = in_totals.get(key, 0) + n
                    users_of[key] = keys[cid]
        in_pieces = [(key, users_of[key], n) for key, n in sorted(in_totals.items())]
        out_pieces = [(key, (key[0],), n) for key, n in sorted(in_totals.items())]
        return in_pieces, out_pieces

    def band_steps(self, band) -> range:
        t0, t1 = self.plane_range(band)
        return range(t0 - self.s, t1 + self.s + 1)

    def _band_uses(self, band):
        """Stable per-band list of (piece_key, class_ids, source_cell)."""
        cached = getattr(self, "_band_uses_cache", None)
        if cached is None:
            cached = self._band_uses_cache = {}
        got = cached.get(band)
        if got is not None:
            return got
        uses: dict = {}
        own_keys = self._cell_keys[band]
        for cid in range(self.n_classes):
            key = (band, own_keys[cid])
            uses.setdefault(key, ([], band))[0].append(cid)
        # foreign pieces: neighbor cells whose classes include this band
        neigh: set[Cell] = set()
        for offs in self._class_offsets:
            for off in offs:
                if off != (0, 0):
                    neigh.add((band[0] - off[0], band[1] - off[1]))
                    neigh.add((band[0] + off[0], band[1] + off[1]))
        for nc in sorted(neigh):
            if nc == band or nc not in self._cell_keys:
                continue
            nkeys = self._cell_keys[nc]
            for cid in range(self.n_classes):
                if band in nkeys[cid] and len(nkeys[cid]) > 1:
                    key = (nc, nkeys[cid])
                    uses.setdefault(key, ([], nc))[0].append(cid)
        got = [(key, tuple(cids), src) for key, (cids, src) in sorted(uses.items())]
        cached[band] = got
        return got

    def band_in_keys(self, band):
        return [key for key, _, _ in self._band_uses(band)]

    def _band_out_map(self, band):
        """(out piece keys, class id -> out index) for the band, cached."""
        cached = getattr(self, "_band_out_cache", None)
        if cached is None:
            cached = self._band_out_cache = {}
        got = cached.get(band)
        if got is None:
            own_keys = self._cell_keys[band]
            keys: list = []
            cid_to_oi = []
            for cid in range(self.n_classes):
                key = (band, own_keys[cid])
                if key not in keys:
                    keys.append(key)
                cid_to_oi.append(keys.index(key))
            got = cached[band] = (keys, cid_to_oi)
        return got

    def band_out_keys(self, band):
        return self._band_out_map(band)[0]

    def step_counts(self, band, tau):
        per_cell: dict[Cell, list[int]] = {}

        def counts_for(cell):
            got = per_cell.get(cell)
            if got is None:
                got = per_cell[cell] = self.plane_class_counts(cell, tau)
            return got

        loads = []
        for key, cids, src in self._band_uses(band):
            loads.append(sum(counts_for(src)[cid] for cid in cids))
        eval_counts = self.plane_class_counts(band, tau - self.s)
        out_keys, cid_to_oi = self._band_out_map(band)
        evals = [0] * len(out_keys)
        for cid, n in enumerate(eval_counts):
            if n:
                evals[cid_to_oi[cid]] += n
        return loads, evals

    def piece_elements(self, layer, key):
        cell, users = key
        t0, t1 = self.plane_range(cell)
        cids = [
            cid for cid in range(self.n_classes) if self._cell_keys[cell][cid] == users
        ]
        for tau in range(t0, t1 + 1):
            elems = self.plane_class_elements(cell, tau)
            yield from heapq.merge(*(elems[cid] for cid in cids))

    def core_in_key(self, band):
        return (band, (band,))

    def piece_planes(self, key):
        return self.plane_range(key[0])

    def piece_plane_count(self, key, tau):
        cell, users = key
        counts = self.plane_class_counts(cell, tau)
        return sum(
            counts[cid]
            for cid in range(self.n_classes)
            if self._cell_keys[cell][cid] == users
        )

    def working_bands(self):
        out = []
        for cell in self.bands:
            t0, t1 = self.plane_range(cell)
            partial = not all(
                self.fully_interior(self._clip(cell, tau)) for tau in (t0, t1, (t0 + t1) // 2)
            )
            out.append(WorkingBand(cell, self.cell_center(cell), (t0, t1), partial))
        return out


# ---------------------------------------------------------------------------
# 2D l1 ball prisms in 3D (2D block-aligned diagonal layout of the x2x3-planes)
# ---------------------------------------------------------------------------


class Ball2DIn3DGeometry(_PlanarBase):
    """Radius-m l1-ball sweep shapes in the x2x3-plane, swept along x1.

    Ball centers sit on the lattice generated by (m, m) and (0, 2m): offsets of
    m in x2 and 2m in x3, the staggered diamond tiling.  Ownership of the thin
    overlap boundary goes to the nearest center (lexicographically smallest on
    ties); the stencil reach then defines up to 8 wing classes per band.
    """

    _col_step = 2

    def __init__(self, grid, stencil, cfg, m):
        if grid.n != 3:
            raise ValueError("ball-in-3D layout is three dimensional")
        super().__init__(grid, stencil, cfg, m)

    @staticmethod
    def _cell_basis(m):
        return ((m, m), (0, 2 * m))

    @classmethod
    def _owned(cls, m, p):
        # nearest center in l1, ties to the lexicographically smallest cell
        d0 = abs(p[0]) + abs(p[1])
        if d0 > m:
            return False
        basis = cls._cell_basis(m)
        best = (d0, (0, 0))
        for cell in _lattice_candidates(p, basis):
            if cell == (0, 0):
                continue
            ca, cb = _lattice_point(basis, cell)
            d = abs(p[0] - ca) + abs(p[1] - cb)
            if (d, cell) < best:
                best = (d, cell)
        return best[1] == (0, 0)

    @staticmethod
    def _delta_rel(delta3d, phase):
        return (delta3d[1], delta3d[2])

    @staticmethod
    def scan_rc(p):
        # diagonals of direction (1,-1): row = pa+pb, col = pa-pb
        return (p[0] + p[1], p[0] - p[1])

    @staticmethod
    def pos_of_rc(r, c):
        return ((r + c) // 2, (r - c) // 2)

    def _enumerate_cells(self):
        k2, k3 = self.grid.sides[1], self.grid.sides[2]
        m = self.m
        cells = []
        for i in range(-1, (k2 - 1 + m) // m + 1):
            ca = i * m
            j_lo = (-m - ca) // (2 * m) - 1
            j_hi = (k3 - 1 + m - ca) // (2 * m) + 1
            for j in range(j_lo, j_hi + 1):
                cb = ca + 2 * j * m
                if -m <= ca <= k2 - 1 + m and -m <= cb <= k3 - 1 + m:
                    if self._cell_in_grid((i, j)):
                        cells.append((i, j))
        self.bands = sorted(cells)

    def _cell_in_grid(self, cell) -> bool:
        clip = self._clip(cell, 0)
        return any(self.row_clip(clip, r) is not None for r, _ in self._segments[0])

    def plane_range(self, cell):
        return (0, self.grid.sides[0] - 1)

    def _clip(self, cell, tau):
        # pa in [-ca, k2-1-ca] and pb in [-cb, k3-1-cb], on every plane
        ca, cb = self.cell_center(cell)
        k2, k3 = self.grid.sides[1], self.grid.sides[2]
        return self._clip_key(0, (-ca, k2 - 1 - ca, -cb, k3 - 1 - cb))

    def row_clip(self, clip, row):
        # row r holds positions (pa, pb) with pa+pb = r, col = pa-pb; the l1
        # ball |pa|+|pb| <= m is the square max(|row|, |col|) <= m here, and
        # the pa and pb bounds of the clip key cut the col span.
        m = self.m
        if abs(row) > m:
            return None
        _, pa_lo, pa_hi, pb_lo, pb_hi = clip
        c_lo = max(2 * pa_lo - row, row - 2 * pb_hi, -m)
        c_hi = min(2 * pa_hi - row, row - 2 * pb_lo, m)
        # cols share the row's parity
        if (c_lo - row) % 2:
            c_lo += 1
        if (c_hi - row) % 2:
            c_hi -= 1
        if c_lo > c_hi:
            return None
        return c_lo, c_hi

    def vertex_of(self, cell, p, tau):
        ca, cb = self.cell_center(cell)
        return (tau, ca + p[0], cb + p[1])


# ---------------------------------------------------------------------------
# Hexagonal aligned diagonal layout
# ---------------------------------------------------------------------------


def _center_path(tau: int) -> tuple[int, int, int]:
    """Cumulative unit steps cycling x1, x2, x3; sum of coords equals tau."""
    return ((tau + 2) // 3, (tau + 1) // 3, tau // 3)


class HexGeometry(_PlanarBase):
    """Hexagonal sweep shapes on planes of normal (1,1,1), cycled unit shifts.

    A sweep shape is the intersection of the radius-2m l1 ball with the lattice
    plane x1+x2+x3 = const: in plane coordinates (a, b) = (w1, -w3) it is the
    hexagon max(|a|, |b|, |a-b|) <= m of 3m^2+3m+1 vertices.  Band origins
    form the lattice generated by (2m+1, m) and (-m, m+1), which tiles the
    plane exactly; wing membership cycles with the sweep phase (tau mod 3).
    """

    n_phases = 3

    def __init__(self, grid, stencil, cfg, m):
        if grid.n != 3:
            raise ValueError("hexagonal layout is three dimensional")
        super().__init__(grid, stencil, cfg, m)

    @staticmethod
    def _cell_basis(m):
        return ((2 * m + 1, m), (-m, m + 1))

    @classmethod
    def _owned(cls, m, p):
        return abs(p[0]) <= m and abs(p[1]) <= m and abs(p[0] - p[1]) <= m

    @staticmethod
    def _delta_rel(delta3d, phase):
        e = sum(delta3d)
        c0 = _center_path(phase)
        c1 = _center_path(phase + e)
        w = (
            delta3d[0] - (c1[0] - c0[0]),
            delta3d[1] - (c1[1] - c0[1]),
            delta3d[2] - (c1[2] - c0[2]),
        )
        return (w[0], -w[2])

    @staticmethod
    def scan_rc(p):
        # increasing z (= -b) first, then increasing y (= b - a): col = -a
        return (-p[1], -p[0])

    @staticmethod
    def pos_of_rc(r, c):
        return (-c, -r)

    def _cell3d(self, cell):
        ca, cb = self.cell_center(cell)
        return (ca, cb - ca, -cb)

    def vertex_of(self, cell, p, tau):
        base = _center_path(tau)
        c3 = self._cell3d(cell)
        return (
            base[0] + c3[0] + p[0],
            base[1] + c3[1] + (p[1] - p[0]),
            base[2] + c3[2] - p[1],
        )

    def _bounds(self, cell, tau):
        """In-grid intervals of a, b and d = a - b at plane tau, unclamped."""
        # the vertex at (a, b) is o + (a, b - a, -b) with o the cell origin on
        # plane tau; x1, x3 and x2 in [0, k) bound a, b and a - b in turn
        base = _center_path(tau)
        c3 = self._cell3d(cell)
        o1, o2, o3 = base[0] + c3[0], base[1] + c3[1], base[2] + c3[2]
        k1, k2, k3 = self.grid.sides
        return (-o1, k1 - 1 - o1, o3 - (k3 - 1), o3, o2 - (k2 - 1), o2)

    def _clip(self, cell, tau):
        return self._clip_key(tau % 3, self._bounds(cell, tau))

    def _feasible(self, cell, tau) -> bool:
        """Does the clipped hexagon contain any in-grid position at plane tau?"""
        a_lo, a_hi, b_lo, b_hi, d_lo, d_hi = self._bounds(cell, tau)
        m = self.m
        a_lo, a_hi = max(a_lo, -m), min(a_hi, m)
        b_lo, b_hi = max(b_lo, -m), min(b_hi, m)
        d_lo, d_hi = max(d_lo, -m), min(d_hi, m)
        if a_lo > a_hi or b_lo > b_hi or d_lo > d_hi:
            return False
        return a_lo - b_hi <= d_hi and d_lo <= a_hi - b_lo

    def _enumerate_cells(self):
        k1, k2, k3 = self.grid.sides
        tmax = k1 + k2 + k3 - 3
        # flood-fill over the cell lattice starting from cells of actual grid
        # vertices; feasibility is an O(1) interval check per plane
        seeds = set()
        pts = set(itertools.product((0, k1 - 1), (0, k2 - 1), (0, k3 - 1)))
        pts.add((k1 // 2, k2 // 2, k3 // 2))
        for x in pts:
            base = _center_path(x[0] + x[1] + x[2])
            w = (x[0] - base[0], x[1] - base[1], x[2] - base[2])
            seeds.add(self.resolve_cell((w[0], -w[2])))
        cells = {}
        seen = set()
        frontier = list(seeds)
        neigh_offs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        while frontier:
            cell = frontier.pop()
            if cell in seen:
                continue
            seen.add(cell)
            rng = self._scan_plane_range(cell, tmax)
            if rng is None:
                continue
            cells[cell] = rng
            for di, dj in neigh_offs:
                nxt = (cell[0] + di, cell[1] + dj)
                if nxt not in seen:
                    frontier.append(nxt)
        self.bands = sorted(cells)
        self._ranges = cells

    def _scan_plane_range(self, cell, tmax) -> Optional[tuple[int, int]]:
        lo = None
        for tau in range(0, tmax + 1):
            if self._feasible(cell, tau):
                lo = tau
                break
        if lo is None:
            return None
        hi = lo
        for tau in range(tmax, lo - 1, -1):
            if self._feasible(cell, tau):
                hi = tau
                break
        return lo, hi

    def plane_range(self, cell):
        rng = self._ranges.get(cell)
        if rng is None:
            return (0, -1)
        return rng

    def row_clip(self, clip, row):
        # row = -b, col = -a
        _, a_lo, a_hi, b_lo, b_hi, d_lo, d_hi = clip
        b = -row
        if not b_lo <= b <= b_hi:
            return None
        # a constrained by a-bounds, (a - b) bounds and the template row span
        # |a| <= m, |a - b| <= m
        m = self.m
        lo = max(a_lo, d_lo + b, -m, b - m)
        hi = min(a_hi, d_hi + b, m, b + m)
        if lo > hi:
            return None
        return (-hi, -lo)
