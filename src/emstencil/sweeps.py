"""Sweep drivers: turn a layout into the machine instruction stream.

Bands are processed bottom-up in band order.  Within a band the runner keeps a
2s-plane window per input piece: each step retires the plane that fell out of
stencil reach, loads the incoming plane, and evaluates the middle sweep shape.
Shared wing pieces are written back by their first user and re-read by every
later one; core pieces are evicted clean; output blocks stream through,
written back the moment they fill.

Both fidelities step on the same per-step counts, ``geometry.step_counts``.
CountOnly batches each step as range instructions (retire the core's stale
plane, load, stream out, retire the wings' stale planes).  Full reads the
step's vertices off the pieces' element streams (``piece_elements``, which
are in storage order): the core plane is the next ``loads[core]`` elements
of the core stream, and the evaluations are the next ``evals[i]`` elements
of each output stream, merged by in-plane rank.  It interleaves the core's
loads and retirements with the evaluations at stencil-reach granularity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice

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
    __slots__ = ("piece", "pos", "elems")

    def __init__(self, piece: Piece, geo):
        self.piece = piece
        self.pos = 0
        self.elems = geo.piece_elements("out", piece.key)  # read by Full only


def _step_evals(outs, evals):
    """Full: one step's (rank, vertex, out index) in rank order, the next
    evals[i] elements of output i's stream; ranks are unique in a band's plane."""
    return heapq.merge(*(
        [(rank, vertex, oi) for rank, vertex in islice(outs[oi].elems, n)]
        for oi, n in enumerate(evals)
        if n
    ))


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
            _OutUse(p, geo) if (p := layout.maybe_piece("out", k)) is not None else None
            for k in geo.band_out_keys(band)
        ]
        core_idx = in_keys.index(geo.core_in_key(band))
        core = uses[core_idx]  # None where a planar band's clip leaves no core
        wings = [use for use in uses if use is not core and use is not None]
        if full:
            core_elems = geo.piece_elements("in", core.piece.key) if core else iter(())
            window: dict[int, list] = {}  # tau -> core plane elements
        for tau in steps:
            loads, evals = geo.step_counts(band, tau)
            # plane tau-2s is last used by this step's evaluations
            old = tau - 2 * s
            # CountOnly loads the core plane whole and retires the core's stale
            # plane first; Full interleaves both with the evaluations
            if not full and core is not None and (n := core.plane_counts.pop(old, 0)):
                _retire(machine, core, n, B)
            for use, n in zip(uses, loads):
                if n and not (full and use is core):
                    use.plane_counts[tau] = n
                    _advance(machine, use, n, B)
            if full:
                new_elems = list(islice(core_elems, loads[core_idx]))
                _fine_step(machine, geo.rank_reach, core, outs, evals,
                           new_elems, window.pop(old, ()), B)
                if new_elems:
                    window[tau] = new_elems
            else:
                _stream_outputs(machine, outs, evals, B)
            # wing planes retire after the evaluations in both fidelities
            for use in wings:
                if n := use.plane_counts.pop(old, 0):
                    _retire(machine, use, n, B)
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


def _fine_step(machine, reach, core, outs, evals, new_elems, old_elems, B):
    """Full-fidelity step: the core plane new_elems loads and the stale core
    plane old_elems retires, both interleaved with the step's evaluations at
    stencil-reach granularity."""
    load_ptr = 0
    retire_ptr = 0
    for rank, vertex, oi in _step_evals(outs, evals):
        while load_ptr < len(new_elems) and new_elems[load_ptr][0] <= rank + reach:
            _advance(machine, core, 1, B)
            load_ptr += 1
        while retire_ptr < len(old_elems) and old_elems[retire_ptr][0] < rank - reach:
            _retire(machine, core, 1, B)
            retire_ptr += 1
        _eval_vertex(machine, outs[oi], vertex, B)
    for _ in range(load_ptr, len(new_elems)):
        _advance(machine, core, 1, B)
    for _ in range(retire_ptr, len(old_elems)):
        _retire(machine, core, 1, B)


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
        outs = [_OutUse(layout.piece("out", k), geo) for k in geo.band_out_keys(band)]
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
                evals = geo.step_counts(band, tau)[1]
                if full:
                    for _, vertex, oi in _step_evals(outs, evals):
                        _eval_vertex(machine, outs[oi], vertex, B)
                else:
                    _stream_outputs(machine, outs, evals, B)
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
