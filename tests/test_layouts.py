import pytest

from emstencil.bounds import LayoutKind
from emstencil.grid import GridSpec, StencilSpec, l1_offsets, vertex_count
from emstencil.layouts import (
    UnusableConfiguration,
    build_layout,
    capacity_search_m,
    closed_form_m,
    hexagonal_projection,
    sweep_shape_size,
    working_band_tiling,
)
from emstencil.machine import MachineConfig

ALL_KINDS = list(LayoutKind)


def small_config(kind, s=1):
    return {
        LayoutKind.ROW_2D: ((20, 24), 160, 4),
        LayoutKind.COLUMN_2D: ((20, 24), 64, 4),
        LayoutKind.DIAGONAL_2D: ((20, 24), 64, 4),
        LayoutKind.ROW_3D: ((10, 14, 14), 560, 4),
        LayoutKind.COLUMN_POLE_3D: ((10, 14, 14), 420, 4),
        LayoutKind.BALL_2D_IN_3D: ((8, 18, 18), 512, 4),
        LayoutKind.HEX_3D: ((12, 12, 12), 600, 4),
        LayoutKind.COLUMN_ND: ((8, 12, 12, 12), 2048, 4),
    }[kind]


def build_small(kind):
    sides, M, B = small_config(kind)
    g = GridSpec(sides)
    return build_layout(kind, g, StencilSpec(1), MachineConfig(M=M, B=B))


# ------------------------------------------------------------- shape sizing

def test_column2d_closed_form_example():
    assert closed_form_m(LayoutKind.COLUMN_2D, 2, 1, 4096, 16) == 1973


def test_diagonal_closed_form():
    assert closed_form_m(LayoutKind.DIAGONAL_2D, 2, 1, 4096, 16) == (4096 - 144 - 3) // 2


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("M,B,s", [(2048, 8, 1), (4096, 16, 1), (8192, 8, 2)])
def test_closed_form_at_most_search(kind, M, B, s):
    n = kind.dimensions or 4
    if kind in (LayoutKind.ROW_2D, LayoutKind.ROW_3D) and B < 2 * s:
        pytest.skip("row layouts need B >= 2s")
    closed = closed_form_m(kind, n, s, M, B)
    search = capacity_search_m(kind, n, s, M, B)
    if kind is LayoutKind.BALL_2D_IN_3D:
        # the source capacity analysis does not charge the mirror fringes of
        # neighboring bands, so its closed form can exceed the honest search
        # by a couple of units
        assert closed <= search + 2
    else:
        assert closed <= search


def test_unusable_configuration():
    with pytest.raises(UnusableConfiguration):
        sweep_shape_size(LayoutKind.COLUMN_2D, 2, 1, 32, 16)
    with pytest.raises(UnusableConfiguration):
        sweep_shape_size(LayoutKind.ROW_2D, 2, 2, 4096, 2)  # B < 2s
    with pytest.raises(UnusableConfiguration):
        sweep_shape_size(LayoutKind.COLUMN_ND, 7, 1, 1 << 20, 8)


def test_search_is_maximal():
    for kind in (LayoutKind.COLUMN_2D, LayoutKind.DIAGONAL_2D, LayoutKind.HEX_3D):
        n = kind.dimensions
        m = capacity_search_m(kind, n, 1, 2048, 8)
        from emstencil.layouts.capacity import input_residency, out_staging_blocks

        need = input_residency(kind, n, 1, m, 8) + (out_staging_blocks(kind, n, 1, m) + 1) * 8
        assert need <= 2048
        need_next = (
            input_residency(kind, n, 1, m + 1, 8)
            + (out_staging_blocks(kind, n, 1, m + 1) + 1) * 8
        )
        assert need_next > 2048


# ------------------------------------------------------------- bijection & bands

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_address_map_bijection(kind):
    layout = build_small(kind)
    layout.materialize()  # raises if any vertex is unmapped
    n = vertex_count(layout.grid)
    for table in (layout._pos_in, layout._pos_out):
        assert len(set(int(p) for p in table)) == n  # distinct addresses
        assert int(table.max()) < layout.n_blocks * layout.B
    # input addresses below the output range, outputs above
    assert int(layout._pos_in.max()) < layout.n_input_blocks * layout.B
    assert int(layout._pos_out.min()) >= layout.n_input_blocks * layout.B
    # deterministic: a second build yields the same address tables
    again = build_small(kind)
    again.materialize()
    assert (again._pos_in == layout._pos_in).all()
    assert (again._pos_out == layout._pos_out).all()
    # every vertex is an input of the band that evaluates it, and the origin
    # sits in that band's core piece
    geo = layout.geometry
    in_users = {
        v: p.users
        for p in layout.pieces if p.layer == "in"
        for v in geo.iter_piece_vertices("in", p.key)
    }
    origin = (0,) * layout.grid.n
    for p in layout.pieces:
        if p.layer == "out":
            for v in geo.iter_piece_vertices("out", p.key):
                assert p.users[0] in in_users[v]
                if v == origin:
                    core = geo.core_in_key(p.users[0])
                    assert origin in geo.iter_piece_vertices("in", core)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_band_separation(kind):
    # no block holds vertices of two pieces or two layers: piece block ranges
    # are disjoint by construction, so it suffices that addresses stay inside
    # their piece's range
    layout = build_small(kind)
    for p in layout.pieces:
        lo = p.start_block * layout.B
        hi = (p.start_block + p.n_blocks) * layout.B
        for i, v in enumerate(layout.geometry.iter_piece_vertices(p.layer, p.key)):
            pos = layout.piece_position(p, i)
            assert lo <= pos < hi
            if i > 64:
                break


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_wing_pieces_are_working_band_overlaps(kind):
    # an input piece is loaded by exactly the bands it names as users: one
    # band for its core, two or more for a shared wing
    layout = build_small(kind)
    geo = layout.geometry
    in_pieces = [p for p in layout.pieces if p.layer == "in"]
    for band in geo.bands:
        loaded = {k for k in geo.band_in_keys(band) if layout.maybe_piece("in", k)}
        assert loaded == {p.key for p in in_pieces if band in p.users}
    for p in in_pieces:
        assert len(set(p.users)) == len(p.users)
        if not p.is_shared:
            assert p.key == geo.core_in_key(p.users[0])
    # sanity: some wings exist in every small config
    assert any(p.is_shared for p in in_pieces)


def test_diag2d_per_row_band_widths():
    # interior band, interior row: 2m core + wing vertices per row,
    # split 2m-4s core and 2s per wing
    g = GridSpec((64, 64))
    layout = build_layout(LayoutKind.DIAGONAL_2D, g, StencilSpec(1), MachineConfig(M=64, B=4))
    geo = layout.geometry
    m, s = geo.m, 1
    j = len(geo.bands) // 2  # interior band
    row = g.sides[1] // 2
    in_band = [x1 for x1 in range(g.sides[0])
               if geo.origins[j] <= x1 - row <= geo.origins[j] + 2 * m - 1]
    assert len(in_band) == 2 * m  # fully interior
    core_piece = set(geo.iter_piece_vertices("in", ("c", j)))
    core = [x1 for x1 in in_band if (x1, row) in core_piece]
    assert len(core) == 2 * m - 4 * s
    assert len(in_band) - len(core) == 4 * s


def test_hex_cross_section_counts():
    # a working band meets a Sigma-plane in 3m^2+3m+1 vertices and an
    # x1x2-plane in three hexagons' worth
    layout = build_layout(LayoutKind.HEX_3D, GridSpec((30, 30, 30)), StencilSpec(1),
                          MachineConfig(M=600, B=4))
    geo = layout.geometry
    m = geo.m
    hexagon = 3 * m * m + 3 * m + 1
    assert sum(geo._class_totals[0]) == hexagon
    # pick an interior cell and an interior plane
    for cell in geo.bands:
        t0, t1 = geo.plane_range(cell)
        mid = (t0 + t1) // 2
        if geo.fully_interior(geo._clip(cell, mid)):
            assert sum(geo.plane_class_counts(cell, mid)) == hexagon
            # wing vertices over one full phase cycle: at most 24ms + O(s^2)
            wings = sum(
                geo._class_totals[ph][cid]
                for ph in range(3)
                for cid in range(geo.n_classes)
                if len(geo._class_offsets[cid]) > 1
            )
            assert wings <= 24 * m * 1 + 40
            break
    else:
        pytest.skip("no interior cell at this size")


def _assert_origin_lattice_tiles(kind):
    # the tiling proof for the whole template window: resolve_cell asserts
    # that exactly one cell owns each position, and cell (0, 0) owns exactly
    # the template's owned set (which the template build takes on trust)
    geo = build_small(kind).geometry
    m = geo.m
    for a in range(-2 * m, 2 * m + 1):
        for b in range(-2 * m, 2 * m + 1):
            assert (geo.resolve_cell((a, b)) == (0, 0)) == geo._owned(m, (a, b)), (a, b)


def test_hex_band_origin_lattice_tiles():
    _assert_origin_lattice_tiles(LayoutKind.HEX_3D)


def test_ball_band_origin_lattice_tiles():
    _assert_origin_lattice_tiles(LayoutKind.BALL_2D_IN_3D)


# (kind, s): M, B, a desk-scale grid, and a grid smaller than the sweep shape
# across the sweep, on which no plane of any band is interior
CLIP_CONFIGS = {
    (LayoutKind.HEX_3D, 1): (600, 4, (14, 12, 13), (5, 7, 4)),
    (LayoutKind.HEX_3D, 2): (3000, 8, (20, 17, 23), (7, 9, 5)),
    (LayoutKind.BALL_2D_IN_3D, 1): (512, 4, (5, 20, 23), (3, 7, 6)),
    (LayoutKind.BALL_2D_IN_3D, 2): (3000, 8, (6, 25, 31), (5, 9, 8)),
}


@pytest.mark.parametrize("kind,s", list(CLIP_CONFIGS), ids=lambda v: getattr(v, "value", v))
def test_plane_class_counts_match_brute_force(kind, s):
    # classify each owned template position with resolve_cell, place it with
    # vertex_of and tally the in-grid ones: an independent count of what
    # plane_class_counts reads from the clip key and the template segments
    M, B, desk, small = CLIP_CONFIGS[(kind, s)]
    for sides in (desk, small):
        geo = build_layout(kind, GridSpec(sides), StencilSpec(s), MachineConfig(M=M, B=B)).geometry
        m = geo.m
        cid_of = {users: cid for cid, users in enumerate(geo._class_offsets)}
        owned = [(a, b) for a in range(-m, m + 1) for b in range(-m, m + 1)
                 if geo._owned(m, (a, b))]
        per_phase = []
        for phase in range(geo.n_phases):
            shifts = {geo._delta_rel(d, phase) for d in l1_offsets(3, s)}
            per_phase.append([
                (p, cid_of[frozenset(geo.resolve_cell((p[0] + da, p[1] + db))
                                     for da, db in shifts)])
                for p in owned
            ])
        planes = [(band, tau) for band in geo.bands
                  for tau in range(geo.plane_range(band)[0], geo.plane_range(band)[1] + 1)]
        if sides == small:
            assert not any(geo.fully_interior(geo._clip(band, tau)) for band, tau in planes)
        for band, tau in planes:
            tally = [0] * geo.n_classes
            for p, cid in per_phase[tau % geo.n_phases]:
                x = geo.vertex_of(band, p, tau)
                if all(0 <= xi < k for xi, k in zip(x, sides)):
                    tally[cid] += 1
            got = geo.plane_class_counts(band, tau)
            for cid, (n, want) in enumerate(zip(got, tally)):
                assert n == want, (
                    f"{sides}: band {band}, tau {tau}, class {cid} "
                    f"{sorted(geo._class_offsets[cid])}: counted {n}, brute force {want}"
                )


def test_template_build_keeps_no_geometry_alive():
    # the capacity search and the geometry share one compact template per
    # (kind, m, s); no probe or geometry outlives its layout
    import gc

    from emstencil.layouts.planar import _PlanarBase

    def live():
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, _PlanarBase)}

    before = live()
    layout = build_layout(LayoutKind.HEX_3D, GridSpec((9, 10, 11)), StencilSpec(1),
                          MachineConfig(M=1000, B=4))
    assert live() - before
    del layout
    assert not live() - before


def test_row2d_row_major_addresses_single_band():
    # one working band: input is plain row-major with block-padded rows
    g = GridSpec((8, 8))
    layout = build_layout(LayoutKind.ROW_2D, g, StencilSpec(1), MachineConfig(M=128, B=4))
    assert len(layout.geometry.bands) == 1
    for r in range(8):
        for c in range(8):
            blk, off = layout.address_of((c, r), "in")  # (x1, x2) = (c, r)
            assert blk == (8 * r + c) // 4
            assert off == (8 * r + c) % 4


def test_working_band_tiling_column3d_example():
    g = GridSpec((8, 990, 990))
    bands = working_band_tiling(LayoutKind.COLUMN_POLE_3D, g, StencilSpec(1),
                                MachineConfig(M=2048, B=4), m=99)
    per_axis = -(-(990 - 2) // 97)
    assert per_axis == -(-990 // 97) == 11
    assert len(bands) == per_axis * per_axis


def test_working_band_tiling_diag_per_row_coverage():
    g = GridSpec((1000, 1000))
    bands = working_band_tiling(LayoutKind.DIAGONAL_2D, g, StencilSpec(1),
                                MachineConfig(M=4096, B=4), m=100)
    # per grid row, the number of bands covering it matches the per-row
    # estimate ceil(k1/(2m-2s)) + 1 = 7
    m, s = 100, 1
    bound = -(-1000 // (2 * m - 2 * s)) + 1
    assert bound == 7
    for row in (0, 499, 999):
        per_row = sum(
            1 for wb in bands
            if not (wb.origin[0] + 2 * m - 1 < -row or wb.origin[0] > 999 - row)
        )
        assert per_row <= bound


def test_hex_sweep_shape_size_near_leading():
    # m lands in the sqrt(M/6s) neighborhood fixed by the capacity search
    import math

    m = sweep_shape_size(LayoutKind.HEX_3D, 3, 1, 6144, 8).m
    lead = math.sqrt(6144 / 6)
    assert 0.75 * lead <= m <= lead
    assert m == 28


def test_working_band_tiling_single_band():
    g = GridSpec((30, 10))
    bands = working_band_tiling(LayoutKind.COLUMN_2D, g, StencilSpec(1),
                                MachineConfig(M=256, B=4))
    assert len(bands) == 1


# ------------------------------------------------------------- P_s projection

def test_hexagonal_projection_examples():
    st = StencilSpec(1)
    p = hexagonal_projection(st, (0, 0))
    assert p == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
    assert len(p) == 7
    # translation invariance: the same 7-point shape anywhere
    q = hexagonal_projection(st, (5, 7))
    assert q == {(xa + 5, xb + 7) for xa, xb in p}
    # monotone in s at the origin
    assert p <= hexagonal_projection(StencilSpec(2), (0, 0))


# ------------------------------------------------------------- export golden

def test_export_csv_golden():
    # the (block, offset) of every vertex in the 4x6 column2d layout, as the
    # former `Layout.export_csv` dump listed them: inputs row by row, outputs
    # with column 0..1 of each row first, then the rest of the band
    g = GridSpec((4, 6))
    layout = build_layout(LayoutKind.COLUMN_2D, g, StencilSpec(1), MachineConfig(M=64, B=2))
    layout.materialize()
    assert (layout.B, layout.n_input_blocks, layout.n_blocks) == (2, 12, 24)
    assert [int(p) for p in layout._pos_in] == list(range(24))
    assert [int(p) for p in layout._pos_out] == [
        24, 25, 32, 33, 34, 35,
        26, 27, 36, 37, 38, 39,
        28, 29, 40, 41, 42, 43,
        30, 31, 44, 45, 46, 47,
    ]
    # one band: (0, 0) lies in its core piece, which holds every vertex
    geo = layout.geometry
    (band,) = layout.working_bands()
    core = set(geo.iter_piece_vertices("in", geo.core_in_key(band.key)))
    assert (0, 0) in core and len(core) == 24
