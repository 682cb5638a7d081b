"""The programmable two-level (M, B) machine.

Internal memory holds M element slots; external memory is an unbounded array
of B-element blocks.  Algorithms issue explicit load/allocate/evict/shrink
instructions and evaluate stencils only on resident data.  Reads are
compulsory on the first-ever load of a block, writes are compulsory for the
final write of an output block, and everything else is non-compulsory.

Residency and first-load history are kept as sets of block-id intervals, so
contiguous range instructions cost O(log) regardless of range length.  That is
what lets billion-element CountOnly experiments run at desk speed while the
scalar evaluation path (used by Full fidelity and unit tests) keeps per-vertex
semantics.

The trace is the instruction stream: each instruction appends one record,
named after itself and carrying its own arguments (the scalar load, allocate
and evict write the records of the range instructions they delegate to).
``replay`` sends each record back through the instruction that wrote it, so
the replayed machine ends with the same counters, completeness and peak.

Instruction batching note: the sweep drivers issue the same transfers under
both fidelities, in a different order.  CountOnly batches each step as
ranges: the core's stale plane is retired before the step's loads and the
wings' stale planes after its evaluations.  Full loads and retires the core
element by element, interleaved with the evaluations.  The two peak
footprints therefore differ, in either direction (columnnd 8x12^3, M=2048,
B=4: CountOnly 1340, Full 1432; one-band diagonal2d 8x8, M=189, B=8:
CountOnly 40, Full 32).  Neither bounds the other; each run checks its own
peak against M.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from emstencil.grid import GridSpec, StencilSpec, Vertex, stencil_neighbors

_U64 = (1 << 64) - 1


class MachineError(Exception):
    pass


class CapacityExceeded(MachineError):
    pass


class AlreadyResident(MachineError):
    pass


class NotResident(MachineError):
    pass


class MissingInput(MachineError):
    def __init__(self, vertex: Vertex):
        self.vertex = vertex
        super().__init__(f"input element for vertex {vertex} not resident")


class MissingOutputSlot(MachineError):
    pass


class AlreadyEvaluated(MachineError):
    pass


class IntervalSet:
    """Disjoint half-open integer intervals, flat sorted boundary list."""

    __slots__ = ("_b",)

    def __init__(self):
        self._b: list[int] = []

    def __bool__(self) -> bool:
        return bool(self._b)

    def __contains__(self, x: int) -> bool:
        return bisect_right(self._b, x) % 2 == 1

    def total(self) -> int:
        b = self._b
        return sum(b[i + 1] - b[i] for i in range(0, len(b), 2))

    def intervals(self) -> list[tuple[int, int]]:
        b = self._b
        return [(b[i], b[i + 1]) for i in range(0, len(b), 2)]

    def covered_len(self, lo: int, hi: int) -> int:
        if lo >= hi:
            return 0
        b = self._b
        i = bisect_left(b, lo)
        j = bisect_right(b, hi)
        cov = 0
        inside = i % 2 == 1
        cur = lo
        for idx in range(i, j):
            x = b[idx]
            if inside:
                cov += max(0, min(x, hi) - cur)
            cur = x
            inside = not inside
        if inside:
            cov += hi - cur
        return cov

    def covers(self, lo: int, hi: int) -> bool:
        if lo >= hi:
            return True
        b = self._b
        i = bisect_right(b, lo)
        return i % 2 == 1 and b[i] >= hi

    def overlaps(self, lo: int, hi: int) -> bool:
        if lo >= hi:
            return False
        b = self._b
        i = bisect_right(b, lo)
        j = bisect_left(b, hi)
        return i != j or i % 2 == 1

    def add(self, lo: int, hi: int) -> int:
        """Insert [lo, hi); returns the number of newly covered integers."""
        if lo >= hi:
            return 0
        added = (hi - lo) - self.covered_len(lo, hi)
        b = self._b
        i = bisect_left(b, lo)
        j = bisect_right(b, hi)
        new_lo, new_hi = lo, hi
        li = i
        if i % 2 == 1:
            li = i - 1
            new_lo = b[li]
        elif i > 0 and b[i - 1] == lo:
            li = i - 2
            new_lo = b[li]
        rj = j
        if j % 2 == 1:
            new_hi = b[j]
            rj = j + 1
        elif j < len(b) and b[j] == hi:
            new_hi = b[j + 1]
            rj = j + 2
        b[li:rj] = [new_lo, new_hi]
        return added

    def remove(self, lo: int, hi: int) -> None:
        """Remove [lo, hi); requires it to be fully covered."""
        if lo >= hi:
            return
        if not self.covers(lo, hi):
            raise KeyError(f"[{lo},{hi}) not fully covered")
        b = self._b
        i = bisect_right(b, lo)
        t = i - 1  # start boundary index of the containing interval
        seg_lo, seg_hi = b[t], b[t + 1]
        repl: list[int] = []
        if seg_lo < lo:
            repl += [seg_lo, lo]
        if hi < seg_hi:
            repl += [hi, seg_hi]
        b[t : t + 2] = repl


class Fidelity(enum.Enum):
    FULL = "full"
    COUNT_ONLY = "count_only"


@dataclass(frozen=True)
class MachineConfig:
    M: int  # internal capacity, elements
    B: int  # block size, elements

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("B must be >= 1")
        if self.M < self.B:
            raise ValueError("M must fit at least one block")


@dataclass(frozen=True)
class IoStats:
    compulsory_reads: int = 0
    noncompulsory_reads: int = 0
    compulsory_writes: int = 0
    noncompulsory_writes: int = 0
    evaluated_vertices: int = 0

    @property
    def total_noncompulsory(self) -> int:
        return self.noncompulsory_reads + self.noncompulsory_writes


class AddressSpace(Protocol):
    """What the machine needs from a data layout."""

    grid: GridSpec
    stencil: StencilSpec
    B: int
    n_blocks: int
    n_input_blocks: int  # input blocks are [0, n_input_blocks), output the rest
    n_vertices: int

    def block_occupancy(self, block_id: int) -> int: ...

    def address_of(self, x: Vertex, layer: str) -> tuple[int, int]: ...


class Machine:
    """One run of one algorithm on one layout; counters only move forward."""

    def __init__(
        self,
        cfg: MachineConfig,
        space: AddressSpace,
        fidelity: Fidelity = Fidelity.COUNT_ONLY,
        trace: Optional[list[str]] = None,
    ):
        if space.B != cfg.B:
            raise ValueError(f"layout block size {space.B} != machine block size {cfg.B}")
        self.cfg = cfg
        self.space = space
        self.fidelity = fidelity
        self.trace = trace

        self._resident = IntervalSet()
        self._ever_loaded = IntervalSet()
        self._written_out = IntervalSet()
        self._kept: dict[int, int] = {}  # block -> first kept offset (shrunk blocks)
        self._footprint = 0
        self.max_footprint = 0

        self._cr = 0
        self._ncr = 0
        self._cw = 0
        self._ncw = 0
        self._evaluated = 0
        self._out_full = IntervalSet()  # output blocks completely evaluated
        self._out_partial: dict[int, int] = {}  # output block -> evaluated count/watermark
        self._eval_addrs: set[int] = set()  # scalar-path exact duplicate detection

        # element values, Full fidelity only
        if fidelity is Fidelity.FULL:
            self._ext = [0] * (space.n_blocks * cfg.B)
            self._mem: dict[int, list[int]] = {}
        else:
            self._ext = None
            self._mem = {}

    # -- bookkeeping helpers ------------------------------------------------

    def _grow(self, elems: int) -> None:
        if self._footprint + elems > self.cfg.M:
            raise CapacityExceeded(
                f"footprint {self._footprint}+{elems} exceeds M={self.cfg.M}"
            )
        self._footprint += elems
        if self._footprint > self.max_footprint:
            self.max_footprint = self._footprint

    @property
    def footprint(self) -> int:
        return self._footprint

    def _fill_output(self, start_pos: int, count: int, op: str) -> bool:
        """Record `count` evaluations at consecutive output positions.

        The run must start at its first block's watermark and end within the
        last block's occupancy; blocks it completes are marked full.  Returns
        whether the last block was completed.
        """
        if count <= 0:
            raise MachineError("count must be > 0")
        B = self.cfg.B
        first, first_off = divmod(start_pos, B)
        end_pos = start_pos + count
        last = (end_pos - 1) // B
        end_off = (end_pos - 1) % B + 1
        if first < self.space.n_input_blocks:
            raise MachineError(f"{op} positions must lie in output blocks")
        if self._out_full.overlaps(first, last + 1):
            raise AlreadyEvaluated(f"output blocks in [{first},{last}] already complete")
        mark = self._out_partial.get(first, 0)
        if first_off != mark:
            raise AlreadyEvaluated(f"block {first} watermark {mark} != {first_off}")
        occ_last = self.space.block_occupancy(last)
        if end_off > occ_last:
            raise MachineError(f"{op} runs past block occupancy")
        closes_last = end_off == occ_last
        n_closed = (last - first) + closes_last
        if n_closed:
            self._out_partial.pop(first, None)
            self._out_full.add(first, first + n_closed)
        if not closes_last:
            self._out_partial[last] = end_off
        self._evaluated += count
        return closes_last

    # -- external values (Full fidelity) -------------------------------------

    def set_external(self, pos: int, value: int) -> None:
        if self._ext is None:
            raise MachineError("values only exist in Full fidelity")
        self._ext[pos] = value & _U64

    def get_external(self, pos: int) -> int:
        if self._ext is None:
            raise MachineError("values only exist in Full fidelity")
        return self._ext[pos]

    # -- instructions ---------------------------------------------------------

    def load(self, block_id: int) -> None:
        self.load_range(block_id, block_id + 1)

    def load_range(self, lo: int, hi: int) -> None:
        if lo < 0 or hi > self.space.n_blocks or lo >= hi:
            raise MachineError(f"bad block range [{lo},{hi})")
        if self._resident.overlaps(lo, hi):
            raise AlreadyResident(f"some block of [{lo},{hi}) already resident")
        n = hi - lo
        self._grow(n * self.cfg.B)
        self._resident.add(lo, hi)
        new = self._ever_loaded.add(lo, hi)
        self._cr += new
        self._ncr += n - new
        if self._ext is not None:
            B = self.cfg.B
            for b in range(lo, hi):
                self._mem[b] = self._ext[b * B : (b + 1) * B]
        if self.trace is not None:
            self.trace.append(f"LOAD {lo} {hi}")

    def allocate(self, block_id: int) -> None:
        self.allocate_range(block_id, block_id + 1)

    def allocate_range(self, lo: int, hi: int) -> None:
        """Make blocks resident without a read transfer (fresh output blocks)."""
        if lo < 0 or hi > self.space.n_blocks or lo >= hi:
            raise MachineError(f"bad block range [{lo},{hi})")
        if self._resident.overlaps(lo, hi):
            raise AlreadyResident(f"some block of [{lo},{hi}) already resident")
        self._grow((hi - lo) * self.cfg.B)
        self._resident.add(lo, hi)
        if self._ext is not None:
            for b in range(lo, hi):
                self._mem[b] = [0] * self.cfg.B
        if self.trace is not None:
            self.trace.append(f"ALLOC {lo} {hi}")

    def evict(self, block_id: int, write_back: bool = False) -> None:
        self.evict_range(block_id, block_id + 1, write_back)

    def evict_range(self, lo: int, hi: int, write_back: bool = False) -> None:
        if lo >= hi:  # a reversed range would count negative transfers
            raise MachineError(f"bad block range [{lo},{hi})")
        if not self._resident.covers(lo, hi):
            raise NotResident(f"some block of [{lo},{hi}) not resident")
        n = hi - lo
        if write_back:
            out_lo = max(lo, self.space.n_input_blocks)
            n_out = max(0, hi - out_lo)
            if n_out > 0:
                new = self._written_out.add(out_lo, hi)
                self._cw += new
                self._ncw += n_out - new
            self._ncw += n - n_out
            if self._ext is not None:
                B = self.cfg.B
                for b in range(lo, hi):
                    start = self._kept.get(b, 0)
                    self._ext[b * B + start : (b + 1) * B] = self._mem[b][start:]
        freed = n * self.cfg.B
        if self._kept:
            for b in list(self._kept):
                if lo <= b < hi:
                    freed -= self._kept.pop(b)
        self._resident.remove(lo, hi)
        self._footprint -= freed
        if self._ext is not None:
            for b in range(lo, hi):
                self._mem.pop(b, None)
        if self.trace is not None:
            self.trace.append(f"EVICT {lo} {hi} {int(bool(write_back))}")

    def shrink(self, block_id: int, keep_from: int) -> None:
        """Drop the first keep_from elements of a resident block (no transfer).

        Models in-memory compaction: the suffix stays addressable, the freed
        prefix no longer counts toward the footprint.
        """
        if block_id not in self._resident:
            raise NotResident(f"block {block_id} not resident")
        cur = self._kept.get(block_id, 0)
        if not cur <= keep_from <= self.cfg.B:
            raise MachineError(f"shrink offset {keep_from} not in [{cur},{self.cfg.B}]")
        self._footprint -= keep_from - cur
        self._kept[block_id] = keep_from
        if self.trace is not None:
            self.trace.append(f"SHRINK {block_id} {keep_from}")

    def _addr_resident(self, block: int, offset: int) -> bool:
        return block in self._resident and offset >= self._kept.get(block, 0)

    def eval_stencil(self, x: Vertex) -> None:
        """Evaluate one vertex; requires the whole s-star and the output slot resident."""
        space = self.space
        ob, oo = space.address_of(x, "out")
        if not self._addr_resident(ob, oo):
            raise MissingOutputSlot(f"output slot for {x} (block {ob}) not resident")
        opos = ob * self.cfg.B + oo
        if opos in self._eval_addrs or ob in self._out_full:
            raise AlreadyEvaluated(f"vertex {x} already evaluated")
        neighbors = stencil_neighbors(space.grid, space.stencil, x)
        if self._ext is not None:
            acc = 0
            for y in neighbors:
                ib, io = space.address_of(y, "in")
                if not self._addr_resident(ib, io):
                    raise MissingInput(y)
                acc = (acc + self._mem[ib][io]) & _U64
            self._mem[ob][oo] = acc
        else:
            for y in neighbors:
                ib, io = space.address_of(y, "in")
                if not self._addr_resident(ib, io):
                    raise MissingInput(y)
        self._eval_addrs.add(opos)
        filled = self._out_partial.get(ob, 0) + 1
        if filled == space.block_occupancy(ob):
            self._out_partial.pop(ob, None)
            self._out_full.add(ob, ob + 1)
        else:
            self._out_partial[ob] = filled
        self._evaluated += 1
        if self.trace is not None:
            self.trace.append("EVAL " + " ".join(map(str, x)))

    def eval_run(self, start_pos: int, count: int) -> None:
        """Bulk-evaluate `count` vertices at consecutive output positions.

        Positions are block_id*B + offset, must lie in resident output blocks
        and must advance each touched block exactly from its current
        watermark.  CountOnly only: no values are computed and input residency
        is not checked, so a Full machine refuses the instruction.

        No sweep issues it (outputs stream through stream_out).  It stays
        because the benchmark harness (perfbench/layers.py) wraps it by
        name, so it can only go with a change to the benchmark itself
        (ROADMAP item 1).
        """
        if self._ext is not None:
            raise MachineError("eval_run is a CountOnly fast path; Full runs use eval_stencil")
        B = self.cfg.B
        first, last = start_pos // B, (start_pos + count - 1) // B
        if not self._resident.covers(first, last + 1):
            raise MissingOutputSlot(f"output blocks [{first},{last}] not resident")
        self._fill_output(start_pos, count, "eval_run")
        if self.trace is not None:
            self.trace.append(f"EVALRUN {start_pos} {count}")

    def stream_out(self, start_pos: int, count: int) -> None:
        """Evaluate a run of output positions, streaming the blocks through.

        Equivalent to: per touched block, allocate it, fill it, and evict it
        with write-back as soon as it is complete; a trailing partial block
        stays resident.  Counts match that scalar sequence exactly.

        Peak charge: the entry footprint when the run stays inside an entry
        block that is already open, else entry + B.  That is B above the
        scalar sequence when the entry block is open and the run reaches a
        second block: the scalar sequence evicts the entry block before it
        allocates the next one, so it peaks at the entry footprint.
        """
        if self._ext is not None:
            raise MachineError("stream_out is a CountOnly fast path; Full runs use scalars")
        B = self.cfg.B
        end_pos = start_pos + count
        first, last = start_pos // B, (end_pos - 1) // B
        entry_open = first in self._resident
        if not entry_open and start_pos % B:
            raise AlreadyEvaluated(f"block {first} not open at offset {start_pos % B}")
        if self._resident.overlaps(first + 1, last + 1):
            raise AlreadyResident(f"blocks in ({first},{last}] already resident")
        # one block in flight beyond the entry state
        peak = self._footprint + (0 if (entry_open and last == first) else B)
        if peak > self.cfg.M:
            raise CapacityExceeded(f"stream_out transient {peak} exceeds M={self.cfg.M}")
        closes_last = self._fill_output(start_pos, count, "stream_out")
        if peak > self.max_footprint:
            self.max_footprint = peak
        n_closed = (last - first) + closes_last
        if n_closed:
            new = self._written_out.add(first, first + n_closed)
            self._cw += new
            self._ncw += n_closed - new
        if entry_open:
            self._resident.remove(first, first + 1)
            self._footprint -= B
        if not closes_last:
            self._resident.add(last, last + 1)
            self._footprint += B
        if self.trace is not None:
            self.trace.append(f"STREAM {start_pos} {count}")

    # -- reporting ------------------------------------------------------------

    def stats(self) -> IoStats:
        return IoStats(
            compulsory_reads=self._cr,
            noncompulsory_reads=self._ncr,
            compulsory_writes=self._cw,
            noncompulsory_writes=self._ncw,
            evaluated_vertices=self._evaluated,
        )

    def run_report(self) -> tuple[IoStats, bool]:
        """Final stats plus the completeness flag.

        Complete means: every vertex evaluated exactly once and every output
        block fully evaluated and written back.
        """
        space = self.space
        out_lo, out_hi = space.n_input_blocks, space.n_blocks
        complete = self._evaluated == space.n_vertices and not self._out_partial
        if out_hi > out_lo:
            complete = (
                complete
                and self._out_full.covers(out_lo, out_hi)
                and self._written_out.covers(out_lo, out_hi)
            )
        return self.stats(), complete


# trace record -> (the instruction it replays through, its argument count;
# None: one vertex of the grid's dimension)
_REPLAY = {
    "LOAD": ("load_range", 2),
    "ALLOC": ("allocate_range", 2),
    "EVICT": ("evict_range", 3),
    "SHRINK": ("shrink", 2),
    "EVAL": ("eval_stencil", None),
    "EVALRUN": ("eval_run", 2),
    "STREAM": ("stream_out", 2),
}
_INT = re.compile(r"-?[0-9]+")


def replay(trace: Iterable[str], cfg: MachineConfig, space: AddressSpace,
           fidelity: Fidelity = Fidelity.COUNT_ONLY) -> Machine:
    """Re-execute a trace dump on a fresh machine and return it.

    Each record is checked (known op, its argument count, integer arguments)
    and then replayed through the instruction that wrote it.
    """
    m = Machine(cfg, space, fidelity)
    for lineno, line in enumerate(trace, 1):
        op, *args = line.split() or ("",)
        if not op:
            continue
        name, arity = _REPLAY.get(op, ("", -1))
        vertex = arity is None
        if len(args) != (space.grid.n if vertex else arity) or not all(map(_INT.fullmatch, args)):
            raise MachineError(f"trace line {lineno}: bad record {line!r}")
        values = [int(a) for a in args]
        if vertex:
            m.eval_stencil(tuple(values))
        else:
            getattr(m, name)(*values)
    return m
