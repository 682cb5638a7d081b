"""Sweep drivers: turn a layout into the machine instruction stream.

Bands are processed bottom-up in band order.  Within a band the runner keeps a
2s-plane window per input piece: each step retires the plane that fell out of
stencil reach, loads the incoming plane, and evaluates the middle sweep shape.
Shared wing pieces are written back by their first user and re-read by every
later one; core pieces are evicted clean; output blocks stream through,
written back the moment they fill.

CountOnly fidelity batches each step as range instructions (retire, load,
stream out); Full fidelity expands the same schedule into per-vertex
evaluations interleaved with the core piece's loads at stencil-reach
granularity, which is what keeps the resident footprint inside M.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from emstencil.bounds import LayoutKind
from emstencil.layouts.base import Layout, Piece
from emstencil.machine import Fidelity, IoStats, Machine

_ROW_KINDS = (LayoutKind.ROW_2D, LayoutKind.ROW_3D)


@dataclass(frozen=True)
class SweepPlan:
    """The layout kind a sweep was planned for; run_sweep checks it."""

    kind: LayoutKind


def make_plan(layout: Layout) -> SweepPlan:
    return SweepPlan(layout.kind)


def run_sweep(plan: SweepPlan, machine: Machine, layout: Layout) -> IoStats:
    """Drive the whole sweep; returns the final stats (report has completeness)."""
    if plan.kind is not layout.kind or machine.space is not layout:
        raise ValueError("plan, machine and layout must belong together")
    if layout.kind in _ROW_KINDS:
        _run_rows(machine, layout)
    else:
        _run_prism(machine, layout)
    return machine.stats()


# ---------------------------------------------------------------------------
# output streams (both runners)
# ---------------------------------------------------------------------------


class _OutUse:
    __slots__ = ("piece", "pos")

    def __init__(self, piece: Piece):
        self.piece = piece
        self.pos = 0


def _eval_vertex(machine: Machine, out: _OutUse, vertex, B: int) -> None:
    """Evaluate one vertex into the next slot of its output piece, allocating
    the slot's block at its first slot and writing it back once the block or
    the piece is full."""
    pos = out.piece.start_block * B + out.pos
    if pos % B == 0:
        machine.allocate(pos // B)
    machine.eval_stencil(vertex)
    out.pos += 1
    if (pos + 1) % B == 0 or out.pos == out.piece.n_elems:
        machine.evict(pos // B, write_back=True)


def _stream_outputs(machine: Machine, outs, evals, B: int) -> None:
    """CountOnly: evaluate one step's runs, evals[i] slots of output piece i."""
    for out, n in zip(outs, evals):
        if n:
            machine.stream_out(out.piece.start_block * B + out.pos, n)
            out.pos += n


def _check_filled(band, outs) -> None:
    for out in outs:
        if out is not None and out.pos != out.piece.n_elems:
            raise AssertionError(
                f"band {band} wrote {out.pos}/{out.piece.n_elems} of {out.piece.key}"
            )


# ---------------------------------------------------------------------------
# prism runner
# ---------------------------------------------------------------------------


class _InUse:
    __slots__ = ("piece", "wb", "elems", "retired", "blk_lo", "blk_hi", "plane_counts")

    def __init__(self, piece: Piece, wb: bool, prefix: int, B: int):
        self.piece = piece
        self.wb = wb
        self.elems = prefix  # piece-absolute elements loaded through
        self.retired = prefix
        self.blk_lo = prefix // B
        self.blk_hi = prefix // B
        self.plane_counts: dict[int, int] = {}


def _use_prefix(geo, key, first_step: int) -> int:
    """Elements of a piece on planes before the band's first step."""
    lo, hi = geo.piece_planes(key)
    if lo >= first_step:
        return 0
    total = 0
    for tau in range(lo, min(first_step, hi + 1)):
        total += geo.piece_plane_count(key, tau)
    return total


def _run_prism(machine: Machine, layout: Layout) -> None:
    geo = layout.geometry
    B = layout.B
    s = layout.stencil.s
    full = machine.fidelity is Fidelity.FULL
    for band in geo.bands:
        steps = geo.band_steps(band)
        in_keys = geo.band_in_keys(band)
        uses = []
        for key in in_keys:
            piece = layout.maybe_piece("in", key)
            if piece is None:
                uses.append(None)
                continue
            wb = piece.is_shared and piece.users[0] == band
            prefix = _use_prefix(geo, key, steps.start)
            uses.append(_InUse(piece, wb, prefix, B))
        outs = [
            _OutUse(p) if (p := layout.maybe_piece("out", k)) is not None else None
            for k in geo.band_out_keys(band)
        ]
        core_idx = in_keys.index(geo.core_in_key(band))
        window = deque()  # (tau, core plane element list) for Full mode
        for tau in steps:
            if full:
                detail = geo.step_detail(band, tau)
                loads = [len(e) for e in detail.in_elems]
            else:
                loads, evals = geo.step_counts(band, tau)
            # plane tau-2s is last used by this step's evaluations
            old = tau - 2 * s
            if full:
                _fine_step(machine, layout, uses, outs, core_idx, detail, window, tau, old, B)
                for ui, use in enumerate(uses):
                    if use is None or ui == core_idx:
                        continue
                    n = use.plane_counts.pop(old, 0)
                    if n:
                        _retire(machine, use, n, B)
            else:
                # counts are unaffected by retiring one step earlier; the
                # footprint trajectory stays below the Full-fidelity peak
                for use in uses:
                    if use is None:
                        continue
                    n = use.plane_counts.pop(old, 0)
                    if n:
                        _retire(machine, use, n, B)
                for use, n in zip(uses, loads):
                    if n:
                        use.plane_counts[tau] = n
                        _advance(machine, use, n, B)
                _stream_outputs(machine, outs, evals, B)
        # flush
        for use in uses:
            if use is not None and use.blk_hi > use.blk_lo:
                machine.evict_range(
                    use.piece.start_block + use.blk_lo,
                    use.piece.start_block + use.blk_hi,
                    use.wb,
                )
        _check_filled(band, outs)


def _advance(machine: Machine, use: _InUse, n: int, B: int) -> None:
    use.elems += n
    new_hi = -(-use.elems // B)
    if new_hi > use.blk_hi:
        machine.load_range(use.piece.start_block + use.blk_hi, use.piece.start_block + new_hi)
        use.blk_hi = new_hi


def _retire(machine: Machine, use: _InUse, n: int, B: int) -> None:
    use.retired += n
    new_lo = use.retired // B
    if new_lo > use.blk_lo:
        machine.evict_range(use.piece.start_block + use.blk_lo, use.piece.start_block + new_lo, use.wb)
        use.blk_lo = new_lo


def _fine_step(machine, layout, uses, outs, core_idx, detail, window, tau, old, B):
    """Full-fidelity step: wing planes up front, the core plane and the stale
    core plane interleaved with the evaluations at stencil-reach granularity."""
    geo = layout.geometry
    reach = geo.rank_reach
    # wing planes load whole
    for ui, (use, elems) in enumerate(zip(uses, detail.in_elems)):
        if ui == core_idx or use is None or not elems:
            continue
        use.plane_counts[tau] = len(elems)
        _advance(machine, use, len(elems), B)
    core = uses[core_idx]
    new_elems = detail.in_elems[core_idx]
    old_elems = None
    for t, elems in window:
        if t == old:
            old_elems = elems
    load_ptr = 0
    retire_ptr = 0
    for rank, vertex, oi in detail.evals:
        while load_ptr < len(new_elems) and new_elems[load_ptr][0] <= rank + reach:
            _advance(machine, core, 1, B)
            load_ptr += 1
        if old_elems is not None:
            while retire_ptr < len(old_elems) and old_elems[retire_ptr][0] < rank - reach:
                _retire(machine, core, 1, B)
                retire_ptr += 1
        _eval_vertex(machine, outs[oi], vertex, B)
    while load_ptr < len(new_elems):
        _advance(machine, core, 1, B)
        load_ptr += 1
    if old_elems is not None:
        while retire_ptr < len(old_elems):
            _retire(machine, core, 1, B)
            retire_ptr += 1
        for i, (t, _) in enumerate(window):
            if t == old:
                del window[i]
                break
        core.plane_counts.pop(old, None)
    if new_elems:
        core.plane_counts[tau] = len(new_elems)
        window.append((tau, new_elems))


# ---------------------------------------------------------------------------
# row runner
# ---------------------------------------------------------------------------


def _run_rows(machine: Machine, layout: Layout) -> None:
    geo = layout.geometry
    B = layout.B
    s = layout.stencil.s
    k1 = geo.k1
    full = machine.fidelity is Fidelity.FULL
    bpr = -(-k1 // B)
    for band in geo.bands:
        in_keys = geo.band_in_keys(band)
        pieces = [layout.piece("in", k) for k in in_keys]
        wb = [p.is_shared and p.users[0] == band for p in pieces]
        streams = geo.row_streams(band)
        bases = [pieces[st.use_index].start_block + st.row_rank * bpr for st in streams]
        outs = [_OutUse(layout.piece("out", k)) for k in geo.band_out_keys(band)]
        pending: dict[int, list[tuple[int, bool]]] = {}
        for tau in range(0, k1 + s):
            for blk, flag in pending.pop(tau, ()):  # scheduled evictions
                machine.evict(blk, flag)
            if tau < k1 and tau % B == 0:
                bi = tau // B
                for st, base in zip(streams, bases):
                    if bi > 0:
                        old_blk = base + bi - 1
                        if st.is_core and B > 2 * s:
                            machine.shrink(old_blk, B - 2 * s)
                            pending.setdefault(tau + 2 * s, []).append((old_blk, False))
                        else:
                            pending.setdefault(tau + 2 * s, []).append(
                                (old_blk, wb[st.use_index])
                            )
                    machine.load(base + bi)
            te = tau - s
            if 0 <= te < k1:
                if full:
                    for _, vertex, oi in geo.step_detail(band, tau).evals:
                        _eval_vertex(machine, outs[oi], vertex, B)
                else:
                    _stream_outputs(machine, outs, geo.step_counts(band, tau)[1], B)
        # flush: scheduled evictions beyond the last step, then current blocks
        for t in sorted(pending):
            for blk, flag in pending[t]:
                machine.evict(blk, flag)
        last_bi = (k1 - 1) // B
        for st, base in zip(streams, bases):
            machine.evict(base + last_bi, wb[st.use_index])
        _check_filled(band, outs)


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


def run_oracle_compare(machine: Machine, layout: Layout):
    """Compare a completed Full-fidelity run against the naive evaluator.

    Returns (equal, first_mismatch_vertex_or_None).
    """
    import numpy as np

    from emstencil.grid import iter_vertices, linearize
    from emstencil.oracles import naive_stencil

    values = np.empty(layout.grid.sides, dtype=np.uint64)
    flat = values.reshape(-1)
    for v in iter_vertices(layout.grid):
        b, off = layout.address_of(v, "in")
        flat[linearize(layout.grid, v)] = machine.get_external(b * layout.B + off)
    expected = naive_stencil(layout.grid, layout.stencil, values).reshape(-1)
    for v in iter_vertices(layout.grid):
        b, off = layout.address_of(v, "out")
        got = machine.get_external(b * layout.B + off)
        if got != int(expected[linearize(layout.grid, v)]):
            return False, v
    return True, None


def materialize_input(machine: Machine, layout: Layout, values) -> None:
    """Write a vertex-indexed value array into external memory, layout order."""
    import numpy as np

    from emstencil.grid import linearize

    flat = np.asarray(values, dtype=np.uint64).reshape(-1)
    for p in layout.pieces:
        if p.layer != "in":
            continue
        for i, v in enumerate(layout.geometry.iter_piece_vertices("in", p.key)):
            machine.set_external(layout.piece_position(p, i), int(flat[linearize(layout.grid, v)]))
