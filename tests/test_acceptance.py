"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The two large CountOnly experiments take about 40 s (32768^2 diagonal) and
2.5 min (1024^3 hexagonal) on one core of a 2-vCPU host; set
EMSTENCIL_HEX_SIDE=512 to shrink the hexagonal run during development (512 is
the sanctioned fallback size; the default 1024 finishes well inside its
ten-minute budget).
"""

import math
import os
import time

import numpy as np
import pytest

from emstencil import bounds
from emstencil.bounds import LayoutKind
from emstencil.combinatorics import ball_weight, boundary_weight
from emstencil.grid import GridSpec, StencilSpec, vertex_count
from emstencil.layouts import UnusableConfiguration, build_layout
from emstencil.layouts.ceilings import noncompulsory_ceiling
from emstencil.machine import Fidelity, Machine, MachineConfig, replay
from emstencil.oracles import brute_ball_weights, exhaustive_isoperimetry
from emstencil.sweeps import (
    make_plan,
    materialize_input,
    run_oracle_compare,
    run_sweep,
)

REL = 1e-12

pytestmark = pytest.mark.acceptance


def _verdict(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


# Rows produced by the experiment criteria, reused by criteria 4 and 8.
_ROWS: list[dict] = []


def _run_row(kind, sides, s, M, B):
    grid = GridSpec(sides)
    cfg = MachineConfig(M=M, B=B)
    layout = build_layout(kind, grid, StencilSpec(s), cfg)
    machine = Machine(cfg, layout, Fidelity.COUNT_ONLY)
    t0 = time.time()
    run_sweep(make_plan(layout), machine, layout)
    stats, complete = machine.run_report()
    row = {
        "kind": kind,
        "sides": sides,
        "s": s,
        "M": M,
        "B": B,
        "layout": layout,
        "stats": stats,
        "complete": complete,
        "seconds": time.time() - t0,
        "max_footprint": machine.max_footprint,
    }
    _ROWS.append(row)
    return row


def test_criterion_1_table_one_reproduction():
    checks = []
    for M, B in ((4096, 16), (10**6, 64), (77, 3)):
        # lower bounds, s = 1
        checks.append((bounds.lower_bound_constant(2, 1, M) / B, 4 / (B * M)))
        checks.append(
            (bounds.lower_bound_constant(3, 1, M) / B, 8 / (math.sqrt(3) * B * math.sqrt(M)))
        )
        for n in (4, 5):
            expected = (
                4 * 2 ** (1 / (n - 1)) * (n - 1)
                / (math.factorial(n) ** (1 / (n - 1)) * B * M ** (1 / (n - 1)))
            )
            checks.append((bounds.lower_bound_constant(n, 1, M) / B, expected))
        # upper bounds
        checks.append((bounds.upper_bound_leading(LayoutKind.DIAGONAL_2D, 2, 1, M, B), 4 / (B * M)))
        checks.append(
            (
                bounds.upper_bound_leading(LayoutKind.HEX_3D, 3, 1, M, B),
                8 * math.sqrt(2) / (math.sqrt(3) * B * math.sqrt(M)),
            )
        )
        for n in (4, 5):
            expected = 4 * 2 ** (1 / (n - 1)) * (n - 1) / (B * M ** (1 / (n - 1)))
            checks.append((bounds.upper_bound_leading(LayoutKind.COLUMN_ND, n, 1, M, B), expected))
    worst = max(abs(a - b) / abs(b) for a, b in checks)
    _verdict(1, worst <= REL, f"{len(checks)} table entries, worst relative error {worst:.2e}")


def test_criterion_2_matching_bound_2d():
    k, s, M, B = 32768, 1, 4096, 16
    row = _run_row(LayoutKind.DIAGONAL_2D, (k, k), s, M, B)
    stats = row["stats"]
    nc = stats.total_noncompulsory
    unit = k * k / (B * M)
    ratio = nc / unit
    ceiling = (
        -(-((-(-k // (2 * row["layout"].shape.m - 2 * s)) + 1) * 2 * s * k) // B) * 2
    )
    ok = (
        row["complete"]
        and 2.0 <= ratio <= 4.4
        and nc <= ceiling
        and row["max_footprint"] <= M
    )
    _verdict(
        2,
        ok,
        f"32768^2 diagonal: NC/(k1k2/BM) = {ratio:.4f} in [2.0, 4.4], "
        f"NC = {nc} <= ceiling {ceiling}, {row['seconds']:.0f}s",
    )


def test_criterion_3_hexagonal_3d():
    side = int(os.environ.get("EMSTENCIL_HEX_SIDE", "1024"))
    s, M, B = 1, 6144, 8
    row = _run_row(LayoutKind.HEX_3D, (side, side, side), s, M, B)
    stats = row["stats"]
    nc = stats.total_noncompulsory
    lead = 8 * math.sqrt(2) / (math.sqrt(3) * math.sqrt(M))
    ratio = nc / (side**3 / B) / lead
    ceiling = noncompulsory_ceiling(row["layout"])
    ok = (
        row["complete"]
        and 0.5 <= ratio <= 1.15
        and nc <= ceiling
        and row["max_footprint"] <= M
    )
    _verdict(
        3,
        ok,
        f"{side}^3 hexagonal: measured/leading = {ratio:.4f} in [0.5, 1.15], "
        f"NC = {nc} <= ceiling {ceiling:.0f}, {row['seconds']:.0f}s",
    )


def test_criterion_4_rows_respect_lower_bound():
    # moderate CountOnly rows for the remaining kinds join the two big runs
    extra = [
        (LayoutKind.ROW_2D, (2048, 2048), 1, 1024, 8),
        (LayoutKind.COLUMN_2D, (4096, 4096), 1, 1024, 8),
        (LayoutKind.ROW_3D, (128, 128, 128), 1, 2048, 8),
        (LayoutKind.COLUMN_POLE_3D, (128, 128, 128), 1, 2048, 8),
        (LayoutKind.BALL_2D_IN_3D, (96, 128, 128), 1, 2048, 8),
        (LayoutKind.COLUMN_ND, (36, 36, 36, 36), 1, 2048, 8),
        (LayoutKind.COLUMN_ND, (16, 16, 16, 16, 16), 1, 4096, 8),
    ]
    for kind, sides, s, M, B in extra:
        _run_row(kind, sides, s, M, B)
    bad = []
    for row in _ROWS:
        n = len(row["sides"])
        floor = (
            0.75
            * bounds.lower_bound_constant(n, row["s"], row["M"])
            * vertex_count(row["layout"].grid)
            / row["B"]
        )
        measured = row["stats"].total_noncompulsory
        if measured < floor:
            bad.append((row["kind"].value, measured, floor))
        if measured > noncompulsory_ceiling(row["layout"]):
            bad.append((row["kind"].value, measured, "ceiling"))
    _verdict(
        4,
        not bad,
        f"{len(_ROWS)} experiment rows all within [0.75 x lower bound, section-4 ceiling]"
        + (f"; violations: {bad}" if bad else ""),
    )


def _random_config(kind, rng):
    s = int(rng.choice([1, 2]))
    B = int(rng.choice([4, 8]))
    if kind in (LayoutKind.ROW_2D, LayoutKind.ROW_3D):
        B = max(B, 2 * s + (2 * s) % 4)
    n = kind.dimensions or int(rng.choice([4, 5, 6]))
    if n == 2:
        sides = tuple(int(rng.integers(24, 64)) for _ in range(2))
        M = int(rng.choice([256, 420] if kind is not LayoutKind.ROW_2D else [420, 640]))
        if s == 2:
            M = max(M, 420)
    elif n == 3:
        sides = tuple(int(rng.integers(14, 30)) for _ in range(3))
        M = int(rng.choice([1024, 2048]))
        if s == 2:
            M = max(M, 2600 if kind is LayoutKind.HEX_3D else 2048)
            sides = tuple(max(k, 2 * s + 2) for k in sides)
    else:
        sides = tuple(int(rng.integers(7, 11)) for _ in range(n))
        M = {4: 2048, 5: 4096, 6: 16384}[n]
        if s == 2:
            M *= 4
    return sides, s, M, B


def test_criterion_5_full_fidelity_correctness_suite():
    rng = np.random.default_rng(20260808)
    runs = 0
    details = []
    for kind in LayoutKind:
        done = 0
        attempts = 0
        while done < 3 and attempts < 20:
            attempts += 1
            sides, s, M, B = _random_config(kind, rng)
            try:
                StencilSpec(s).validate_for(GridSpec(sides))
                layout = build_layout(kind, GridSpec(sides), StencilSpec(s), MachineConfig(M, B))
            except (UnusableConfiguration, ValueError):
                continue
            if vertex_count(layout.grid) > 10**6:
                continue
            machine = Machine(MachineConfig(M, B), layout, Fidelity.FULL)
            materialize_input(
                machine,
                layout,
                rng.integers(0, 1 << 62, size=sides, dtype=np.uint64),
            )
            run_sweep(make_plan(layout), machine, layout)
            stats, complete = machine.run_report()
            eq, mismatch = run_oracle_compare(machine, layout)
            assert complete, f"{kind} {sides} incomplete"
            assert eq, f"{kind} {sides} mismatch at {mismatch}"
            assert machine.max_footprint <= M
            done += 1
            runs += 1
        assert done == 3, f"could not find 3 usable configurations for {kind}"
        details.append(f"{kind.value}:3")
    _verdict(5, runs == 24, f"{runs} randomized Full runs bit-exact vs naive oracle")


def test_criterion_6_combinatorics_oracle_equivalence():
    mism = 0
    for n in range(1, 5):
        rows = brute_ball_weights(n, 8)
        for row in rows:
            if row.ball != ball_weight(n, row.r):
                mism += 1
            core = ball_weight(n, row.r - 1) if row.r >= 1 else 0
            if row.inner_core != core or row.inner_boundary != row.ball - core:
                mism += 1
            if row.r >= 1 and ball_weight(n, row.r) - ball_weight(n, row.r - 1) != boundary_weight(n, row.r):
                mism += 1
    _verdict(6, mism == 0, "ball/boundary/core weights bit-exact for n <= 4, r <= 8")


def test_criterion_7_isoperimetric_brute_force():
    # at weights where an integral torus ball exists, it must attain both
    # extrema; at intermediate weights no integral ball exists (the fractional
    # bounds still hold, checked for every weight)
    t0 = time.time()
    v4 = exhaustive_isoperimetry(4, 2, 8)
    v6 = exhaustive_isoperimetry(6, 2, 5)
    bad = [v.weight for v in v4 + v6 if not (v.closure_ok and v.core_ok)]
    ball_fail = [
        v.weight
        for v in v4 + v6
        if v.is_ball_weight
        and not (v.ball_is_closure_minimizer and v.ball_is_core_maximizer)
    ]
    n_ball_weights = sum(1 for v in v4 + v6 if v.is_ball_weight)
    elapsed = time.time() - t0
    ok = not bad and not ball_fail and n_ball_weights >= 4 and elapsed < 300
    _verdict(
        7,
        ok,
        f"Z_4^2 v<=8 and Z_6^2 v<=5 exhaustive: ball extremal at all "
        f"{n_ball_weights} integral-ball weights, 0 counterexamples, {elapsed:.1f}s",
    )


def test_criterion_8_compulsory_accounting():
    bad = []
    for row in _ROWS:
        layout, stats = row["layout"], row["stats"]
        if not row["complete"]:
            bad.append((row["kind"].value, "incomplete"))
        if stats.compulsory_reads != layout.n_input_blocks:
            bad.append((row["kind"].value, "reads", stats.compulsory_reads, layout.n_input_blocks))
        if stats.compulsory_writes != layout.n_blocks - layout.n_input_blocks:
            bad.append((row["kind"].value, "writes"))
    _verdict(
        8,
        bool(_ROWS) and not bad,
        f"{len(_ROWS)} completed runs: compulsory reads == input blocks, "
        f"compulsory writes == output blocks" + (f"; {bad}" if bad else ""),
    )


def test_criterion_9_determinism_replay():
    checked = 0
    for kind, sides, s, M, B in [
        (LayoutKind.DIAGONAL_2D, (48, 40), 1, 128, 4),
        (LayoutKind.ROW_2D, (24, 30), 1, 200, 4),
        (LayoutKind.HEX_3D, (14, 14, 14), 1, 600, 4),
        (LayoutKind.COLUMN_ND, (8, 12, 12, 12), 1, 2048, 4),
    ]:
        layout = build_layout(kind, GridSpec(sides), StencilSpec(s), MachineConfig(M, B))
        trace: list[str] = []
        machine = Machine(MachineConfig(M, B), layout, Fidelity.COUNT_ONLY, trace=trace)
        run_sweep(make_plan(layout), machine, layout)
        stats, ok1 = machine.run_report()
        m2 = replay(trace, MachineConfig(M, B), layout)
        stats2, ok2 = m2.run_report()
        assert stats == stats2 and ok1 == ok2, f"replay drift for {kind}"
        checked += 1
    _verdict(9, checked == 4, f"{checked} trace dumps replayed to identical IoStats")
