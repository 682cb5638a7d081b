from collections import Counter
from functools import cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from emstencil.bounds import LayoutKind
from emstencil.grid import GridSpec, StencilSpec, vertex_count
from emstencil.layouts import UnusableConfiguration, build_layout
from emstencil.layouts.ceilings import noncompulsory_ceiling
from emstencil.machine import Fidelity, IoStats, Machine, MachineConfig, MachineError, replay
from emstencil.sweeps import (
    make_plan,
    materialize_input,
    run_oracle_compare,
    run_sweep,
)
from flat_space import FlatSpace

CONFIGS = {
    LayoutKind.ROW_2D: ((24, 30), 200, 4, 1),
    LayoutKind.COLUMN_2D: ((24, 24), 64, 4, 1),
    LayoutKind.DIAGONAL_2D: ((20, 26), 64, 4, 1),
    LayoutKind.ROW_3D: ((12, 20, 20), 800, 4, 1),
    LayoutKind.COLUMN_POLE_3D: ((16, 20, 20), 512, 4, 1),
    LayoutKind.BALL_2D_IN_3D: ((12, 24, 24), 512, 4, 1),
    LayoutKind.HEX_3D: ((16, 16, 16), 600, 4, 1),
    LayoutKind.COLUMN_ND: ((8, 12, 12, 12), 2048, 4, 1),
}

CONFIGS_S2 = {
    LayoutKind.COLUMN_2D: ((40, 33), 200, 8, 2),
    LayoutKind.DIAGONAL_2D: ((37, 29), 200, 8, 2),
    LayoutKind.ROW_2D: ((32, 40), 420, 8, 2),
    LayoutKind.HEX_3D: ((14, 18, 16), 2600, 8, 2),
    LayoutKind.BALL_2D_IN_3D: ((10, 30, 26), 2048, 8, 2),
}

# (kind, s) -> (m, counters, CountOnly peak, Full peak) of the configs above.
# These are the numbers the laboratory reports; a change to any of them is a
# change of result, not a refactoring.  The two fidelities count identically,
# but CountOnly retires the core's stale plane before loading the new one
# where Full interleaves both with the evaluations, so their peaks are pinned
# apart.
GOLDEN = {
    (LayoutKind.ROW_2D, 1): (28, IoStats(180, 12, 180, 12, 720), 180, 180),
    (LayoutKind.COLUMN_2D, 1): (13, IoStats(144, 12, 144, 12, 576), 52, 52),
    (LayoutKind.DIAGONAL_2D, 1): (15, IoStats(131, 9, 131, 9, 520), 52, 52),
    (LayoutKind.ROW_3D, 1): (10, IoStats(1200, 528, 1200, 432, 4800), 760, 760),
    (LayoutKind.COLUMN_POLE_3D, 1): (12, IoStats(1600, 336, 1600, 304, 6400), 348, 380),
    (LayoutKind.BALL_2D_IN_3D, 1): (7, IoStats(1728, 543, 1728, 447, 6912), 392, 408),
    (LayoutKind.HEX_3D, 1): (6, IoStats(1043, 213, 1043, 199, 4096), 500, 528),
    (LayoutKind.COLUMN_ND, 1): (8, IoStats(3456, 2032, 3456, 1456, 13824), 1340, 1432),
    (LayoutKind.COLUMN_2D, 2): (31, IoStats(165, 20, 165, 20, 1320), 176, 176),
    (LayoutKind.DIAGONAL_2D, 2): (31, IoStats(135, 3, 136, 3, 1073), 152, 152),
    (LayoutKind.ROW_2D, 2): (28, IoStats(160, 16, 160, 16, 1280), 376, 376),
    (LayoutKind.HEX_3D, 2): (10, IoStats(506, 9, 506, 11, 4032), 800, 856),
    (LayoutKind.BALL_2D_IN_3D, 2): (11, IoStats(995, 408, 995, 320, 7800), 1744, 1776),
}


def build(kind, sides, M, B, s):
    return build_layout(kind, GridSpec(sides), StencilSpec(s), MachineConfig(M=M, B=B))


def run_both(layout, seed=7):
    """(CountOnly machine, Full machine) after sweeping the layout under each,
    both traced."""
    mc = Machine(layout.cfg, layout, Fidelity.COUNT_ONLY, trace=[])
    run_sweep(make_plan(layout), mc, layout)
    mf = Machine(layout.cfg, layout, Fidelity.FULL, trace=[])
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << 62, size=layout.grid.sides, dtype=np.uint64)
    materialize_input(mf, layout, values)
    run_sweep(make_plan(layout), mf, layout)
    return mc, mf


@cache
def golden_run(kind, s):
    """(layout, CountOnly machine, Full machine) of one GOLDEN config."""
    sides, M, B, _ = (CONFIGS if s == 1 else CONFIGS_S2)[kind]
    layout = build(kind, sides, M, B, s)
    return (layout, *run_both(layout))


def input_transfers(trace, n_input_blocks) -> Counter:
    """Per-block counts of (op, block, wb) over the LOAD and EVICT range
    records of a trace, for input blocks only (wb is None for LOAD)."""
    counts: Counter = Counter()
    for rec in trace:
        if rec.startswith(("LOAD ", "EVICT ")):
            op, *args = rec.split()
            wb = int(args[2]) if op == "EVICT" else None
            for block in range(int(args[0]), min(int(args[1]), n_input_blocks)):
                counts[op, block, wb] += 1
    return counts


def assert_same_input_transfers(layout, mc, mf):
    """Both fidelities move every input block the same way, equally often."""
    counted = input_transfers(mc.trace, layout.n_input_blocks)
    full = input_transfers(mf.trace, layout.n_input_blocks)
    for op, block, wb in sorted(counted.keys() | full.keys()):
        n_c, n_f = counted[op, block, wb], full[op, block, wb]
        assert n_c == n_f, f"{op} of input block {block} (wb={wb}): CountOnly {n_c}, Full {n_f}"


@pytest.mark.parametrize("kind", list(CONFIGS))
def test_sweep_correctness(kind):
    sides, M, B, s = CONFIGS[kind]
    layout = build(kind, sides, M, B, s)
    mc, mf = run_both(layout)
    stats_c, ok_c = mc.run_report()
    stats_f, ok_f = mf.run_report()
    assert ok_c and ok_f
    assert stats_c == stats_f  # fidelities count identically
    eq, mismatch = run_oracle_compare(mf, layout)
    assert eq, f"first mismatch at {mismatch}"
    assert mf.max_footprint <= M and mc.max_footprint <= M
    # compulsory accounting: reads = input blocks, writes = output blocks
    assert stats_c.compulsory_reads == layout.n_input_blocks
    assert stats_c.compulsory_writes == layout.n_blocks - layout.n_input_blocks
    assert stats_c.evaluated_vertices == vertex_count(layout.grid)
    # the section-4 expression is a hard ceiling at the m actually used
    assert stats_c.total_noncompulsory <= noncompulsory_ceiling(layout)


@pytest.mark.parametrize("kind", list(CONFIGS))
def test_sweep_determinism(kind):
    sides, M, B, s = CONFIGS[kind]
    g = GridSpec(sides)
    layout = build_layout(kind, g, StencilSpec(s), MachineConfig(M=M, B=B))
    runs = []
    for _ in range(2):
        m = Machine(MachineConfig(M=M, B=B), layout, Fidelity.COUNT_ONLY)
        run_sweep(make_plan(layout), m, layout)
        runs.append(m.run_report())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", [LayoutKind.COLUMN_2D, LayoutKind.DIAGONAL_2D,
                                  LayoutKind.HEX_3D, LayoutKind.ROW_2D])
def test_trace_replay_reproduces_stats(kind):
    sides, M, B, s = CONFIGS[kind]
    g = GridSpec(sides)
    cfg = MachineConfig(M=M, B=B)
    layout = build_layout(kind, g, StencilSpec(s), cfg)
    trace: list[str] = []
    m = Machine(cfg, layout, Fidelity.COUNT_ONLY, trace=trace)
    run_sweep(make_plan(layout), m, layout)
    stats, ok = m.run_report()
    m2 = replay(trace, cfg, layout)
    stats2, ok2 = m2.run_report()
    assert stats == stats2 and ok == ok2
    assert m2.max_footprint == m.max_footprint <= M


def test_single_band_no_noncompulsory():
    g = GridSpec((30, 10))
    cfg = MachineConfig(M=256, B=4)
    layout = build_layout(LayoutKind.COLUMN_2D, g, StencilSpec(1), cfg)
    assert len(layout.geometry.bands) == 1
    m = Machine(cfg, layout, Fidelity.COUNT_ONLY)
    run_sweep(make_plan(layout), m, layout)
    stats, ok = m.run_report()
    assert ok
    assert stats.noncompulsory_reads == 0 and stats.noncompulsory_writes == 0


def test_column2d_spec_ceiling_example():
    # 64x64 grid, s=1, M=64, B=4
    g = GridSpec((64, 64))
    cfg = MachineConfig(M=64, B=4)
    layout = build_layout(LayoutKind.COLUMN_2D, g, StencilSpec(1), cfg)
    m = Machine(cfg, layout, Fidelity.COUNT_ONLY)
    run_sweep(make_plan(layout), m, layout)
    stats, ok = m.run_report()
    assert ok
    mm, s = layout.shape.m, 1
    ceiling = -(-(-(-64 // (mm - 2 * s)) * 64 * 2 * s) // 4) * 2
    assert stats.total_noncompulsory <= ceiling


def test_row_beats_nothing_column_wins():
    # identical config: the row layout moves whole blocks per wing row, the
    # block-aligned column layout only the 2s wing elements; for B > 2s the
    # column layout must do fewer non-compulsory transfers
    sides, M, B, s = (48, 60), 480, 8, 1
    g = GridSpec(sides)
    res = {}
    for kind in (LayoutKind.ROW_2D, LayoutKind.COLUMN_2D):
        layout = build_layout(kind, g, StencilSpec(s), MachineConfig(M=M, B=B))
        m = Machine(MachineConfig(M=M, B=B), layout, Fidelity.COUNT_ONLY)
        run_sweep(make_plan(layout), m, layout)
        stats, ok = m.run_report()
        assert ok
        res[kind] = stats.total_noncompulsory
    assert res[LayoutKind.ROW_2D] >= res[LayoutKind.COLUMN_2D]


def test_full_torus_fit_zero_noncompulsory_machine_level():
    # everything fits: only cold misses (machine-level, no banding involved)
    from emstencil.grid import Topology, iter_vertices

    g = GridSpec((4, 4), Topology.TORUS)
    space = FlatSpace(g, StencilSpec(1), B=4)
    m = Machine(MachineConfig(M=2 * 16 + 4, B=4), space, Fidelity.COUNT_ONLY)
    for b in range(space.n_input_blocks):
        m.load(b)
    for b in range(space.n_input_blocks, space.n_blocks):
        m.allocate(b)
    for x in iter_vertices(g):
        m.eval_stencil(x)
    for b in range(space.n_input_blocks, space.n_blocks):
        m.evict(b, write_back=True)
    stats, ok = m.run_report()
    assert ok and stats.noncompulsory_reads == 0 and stats.noncompulsory_writes == 0


@pytest.mark.parametrize("kind,s", [(kind, 2) for kind in CONFIGS_S2])
def test_sweep_correctness_s2(kind, s):
    sides, M, B, _ = CONFIGS_S2[kind]
    layout = build(kind, sides, M, B, s)
    mc, mf = run_both(layout)
    stats_c, ok_c = mc.run_report()
    stats_f, ok_f = mf.run_report()
    assert ok_c and ok_f and stats_c == stats_f
    eq, mismatch = run_oracle_compare(mf, layout)
    assert eq, f"first mismatch at {mismatch}"
    assert stats_c.total_noncompulsory <= noncompulsory_ceiling(layout)


@pytest.mark.parametrize("kind,s", list(GOLDEN))
def test_golden_counts(kind, s):
    layout, mc, mf = golden_run(kind, s)
    m, stats, peak_count_only, peak_full = GOLDEN[kind, s]
    assert layout.shape.m == m
    assert mc.stats() == stats
    assert mf.stats() == stats
    assert mc.max_footprint == peak_count_only
    assert mf.max_footprint == peak_full


@pytest.mark.parametrize("kind,s", list(GOLDEN))
def test_golden_traces_replay_to_the_same_state(kind, s):
    # a trace is the instruction stream: replaying it re-executes the same
    # instructions, so counters, completeness and peak all come back; a Full
    # trace replays under both fidelities
    layout, mc, mf = golden_run(kind, s)
    assert_same_input_transfers(layout, mc, mf)
    for traced, fidelities in ((mc, [Fidelity.COUNT_ONLY]),
                               (mf, [Fidelity.COUNT_ONLY, Fidelity.FULL])):
        for fidelity in fidelities:
            where = f"{traced.fidelity.value} trace under {fidelity.value}"
            replayed = replay(traced.trace, layout.cfg, layout, fidelity)
            assert replayed.run_report() == traced.run_report(), where
            assert replayed.max_footprint == traced.max_footprint, where


def test_count_only_trace_does_not_replay_under_full():
    # bulk STREAM records carry no values: a Full machine must refuse them
    # instead of reporting outputs it never computed as complete
    sides, M, B, s = CONFIGS[LayoutKind.DIAGONAL_2D]
    cfg = MachineConfig(M=M, B=B)
    layout = build_layout(LayoutKind.DIAGONAL_2D, GridSpec(sides), StencilSpec(s), cfg)
    trace: list[str] = []
    run_sweep(make_plan(layout), Machine(cfg, layout, Fidelity.COUNT_ONLY, trace=trace), layout)
    assert any(rec.startswith("STREAM ") for rec in trace)
    with pytest.raises(MachineError):
        replay(trace, cfg, layout, Fidelity.FULL)


@pytest.mark.parametrize("kind,s", list(GOLDEN))
def test_piece_streams_follow_step_counts(kind, s):
    # Full reads each step's core plane and evaluations off the piece streams
    # by step_counts: every cut must be in strictly increasing rank, and the
    # streams must run out exactly with the band's steps
    sides, M, B, _ = (CONFIGS if s == 1 else CONFIGS_S2)[kind]
    geo = build(kind, sides, M, B, s).geometry
    for band in geo.bands:
        in_keys = geo.band_in_keys(band)
        cuts = [("out", i, key) for i, key in enumerate(geo.band_out_keys(band))]
        if kind not in (LayoutKind.ROW_2D, LayoutKind.ROW_3D):  # rows store input row-major
            core = in_keys.index(geo.core_in_key(band))
            cuts.append(("in", core, in_keys[core]))
        streams = [(layer, i, key, geo.piece_elements(layer, key)) for layer, i, key in cuts]
        for tau in geo.band_steps(band):
            counts = dict(zip(("in", "out"), geo.step_counts(band, tau)))
            for layer, i, key, stream in streams:
                where = f"band {band}, step {tau}, {layer} piece {key}"
                ranks = [rank for rank, _ in islice(stream, counts[layer][i])]
                assert len(ranks) == counts[layer][i], f"{where}: stream ran out"
                bad = next((j for j in range(1, len(ranks)) if ranks[j - 1] >= ranks[j]), None)
                assert bad is None, f"{where}: rank {ranks[bad]} after {ranks[bad - 1]}"
        for layer, _, key, stream in streams:
            assert next(stream, None) is None, f"band {band}, {layer} piece {key}: not used up"


@st.composite
def sweep_configs(draw):
    """(kind, sides, M, B, s), small enough for a Full run and an oracle."""
    kind = draw(st.sampled_from(list(LayoutKind)))
    n = kind.dimensions or draw(st.integers(2, 4))
    s = draw(st.sampled_from((1, 2)))
    side = st.integers(2 * s + 1, {2: 40, 3: 18, 4: 9}[n])
    sides = tuple(draw(st.lists(side, min_size=n, max_size=n)))
    return kind, sides, draw(st.integers(16, 3000)), draw(st.sampled_from((2, 4, 8))), s


@settings(max_examples=60, derandomize=True, deadline=None)
@given(sweep_configs())
def test_fidelities_agree_on_random_configs(config):
    kind, sides, M, B, s = config
    try:
        layout = build(kind, sides, M, B, s)
    except (UnusableConfiguration, ValueError):
        assume(False)
    mc, mf = run_both(layout)
    (stats_c, ok_c), (stats_f, ok_f) = mc.run_report(), mf.run_report()
    assert ok_c and ok_f
    assert stats_c == stats_f
    assert mc.max_footprint <= M and mf.max_footprint <= M
    assert stats_c.compulsory_reads == layout.n_input_blocks
    assert stats_c.compulsory_writes == layout.n_blocks - layout.n_input_blocks
    assert_same_input_transfers(layout, mc, mf)
    eq, mismatch = run_oracle_compare(mf, layout)
    assert eq, f"first mismatch at {mismatch}"
