import pytest
from hypothesis import given, settings, strategies as st

import emstencil.machine as em
from emstencil.grid import GridSpec, StencilSpec, iter_vertices
from emstencil.machine import (
    AlreadyEvaluated,
    AlreadyResident,
    CapacityExceeded,
    Fidelity,
    IntervalSet,
    Machine,
    MachineConfig,
    MissingInput,
    MissingOutputSlot,
    NotResident,
    replay,
)
from flat_space import FlatSpace


# ---------------------------------------------------------------- IntervalSet

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                          st.integers(0, 40), st.integers(1, 12))))
def test_interval_set_matches_reference(ops):
    ivs = IntervalSet()
    ref: set[int] = set()
    for op, lo, ln in ops:
        hi = lo + ln
        if op == "add":
            added = ivs.add(lo, hi)
            assert added == len(set(range(lo, hi)) - ref)
            ref |= set(range(lo, hi))
        else:
            if ref >= set(range(lo, hi)):
                ivs.remove(lo, hi)
                ref -= set(range(lo, hi))
            else:
                with pytest.raises(KeyError):
                    ivs.remove(lo, hi)
        assert ivs.total() == len(ref)
        for lo2 in range(0, 45, 7):
            hi2 = lo2 + 5
            span = set(range(lo2, hi2))
            assert ivs.covers(lo2, hi2) == (span <= ref)
            assert ivs.overlaps(lo2, hi2) == bool(span & ref)
            assert ivs.covered_len(lo2, hi2) == len(span & ref)


def test_interval_set_merges_adjacent():
    ivs = IntervalSet()
    ivs.add(0, 3)
    ivs.add(3, 6)
    assert ivs.intervals() == [(0, 6)]
    ivs.add(10, 12)
    ivs.add(7, 10)
    assert ivs.intervals() == [(0, 6), (7, 12)]
    ivs.add(6, 7)
    assert ivs.intervals() == [(0, 12)]


# ---------------------------------------------------------------- scalar ops

def minimal_space():
    g = GridSpec((3,))
    return FlatSpace(g, StencilSpec(1), B=3)


def test_minimal_trace_stats():
    # 1D grid k=3, s=1, B=3, M=6: load input, allocate output, eval all, write back
    space = minimal_space()
    m = Machine(MachineConfig(M=6, B=3), space, Fidelity.FULL)
    for i in range(3):
        m.set_external(i, i + 10)
    m.load(0)
    m.allocate(1)
    for x in [(0,), (1,), (2,)]:
        m.eval_stencil(x)
    m.evict(1, write_back=True)
    stats, complete = m.run_report()
    assert stats.compulsory_reads == 1
    assert stats.noncompulsory_reads == 0
    assert stats.compulsory_writes == 1
    assert stats.noncompulsory_writes == 0
    assert stats.evaluated_vertices == 3
    assert complete
    # truncated stencil sums: [10+11, 10+11+12, 11+12]
    assert [m.get_external(3 + i) for i in range(3)] == [21, 33, 23]


def test_count_only_same_stats_as_full():
    space = minimal_space()
    results = []
    for fid in (Fidelity.FULL, Fidelity.COUNT_ONLY):
        m = Machine(MachineConfig(M=6, B=3), space, fid)
        m.load(0)
        m.allocate(1)
        for x in [(0,), (1,), (2,)]:
            m.eval_stencil(x)
        m.evict(1, write_back=True)
        results.append(m.run_report())
    assert results[0] == results[1]


def test_missing_input_error():
    space = minimal_space()
    m = Machine(MachineConfig(M=6, B=3), space, Fidelity.COUNT_ONLY)
    m.allocate(1)
    with pytest.raises(MissingInput):
        m.eval_stencil((1,))


def test_missing_output_slot():
    space = minimal_space()
    m = Machine(MachineConfig(M=6, B=3), space, Fidelity.COUNT_ONLY)
    m.load(0)
    with pytest.raises(MissingOutputSlot):
        m.eval_stencil((1,))


def test_already_evaluated():
    space = minimal_space()
    m = Machine(MachineConfig(M=6, B=3), space, Fidelity.COUNT_ONLY)
    m.load(0)
    m.allocate(1)
    m.eval_stencil((1,))
    with pytest.raises(AlreadyEvaluated):
        m.eval_stencil((1,))


def test_capacity_and_residency_errors():
    space = minimal_space()
    m = Machine(MachineConfig(M=3, B=3), space, Fidelity.COUNT_ONLY)
    m.load(0)
    with pytest.raises(AlreadyResident):
        m.load(0)
    with pytest.raises(CapacityExceeded):
        m.allocate(1)
    with pytest.raises(NotResident):
        m.evict(1)
    m.evict(0)
    assert m.footprint == 0
    m.load(0)  # reload counts non-compulsory
    s = m.stats()
    assert (s.compulsory_reads, s.noncompulsory_reads) == (1, 1)


def test_full_torus_run_zero_noncompulsory():
    from emstencil.grid import Topology

    g = GridSpec((4, 4), Topology.TORUS)
    space = FlatSpace(g, StencilSpec(1), B=4)
    m = Machine(MachineConfig(M=4 * 16 + 4, B=4), space, Fidelity.FULL)
    for b in range(space.n_input_blocks):
        m.load(b)
    for b in range(space.n_input_blocks, space.n_blocks):
        m.allocate(b)
    for x in iter_vertices(g):
        m.eval_stencil(x)
    for b in range(space.n_input_blocks, space.n_blocks):
        m.evict(b, write_back=True)
    stats, complete = m.run_report()
    assert complete
    assert stats.noncompulsory_reads == 0 and stats.noncompulsory_writes == 0
    assert stats.compulsory_reads == space.n_input_blocks
    assert stats.compulsory_writes == space.n_input_blocks
    # all-ones torus: every output is the 5-point star count... values were zero here
    assert stats.evaluated_vertices == 16


def test_shrink_footprint_and_gating():
    space = minimal_space()
    m = Machine(MachineConfig(M=6, B=3), space, Fidelity.COUNT_ONLY)
    m.load(0)
    m.allocate(1)
    m.shrink(0, 1)
    assert m.footprint == 5
    with pytest.raises(MissingInput):
        m.eval_stencil((0,))  # needs offset 0, shrunk away
    m.eval_stencil((2,))  # needs offsets 1,2 only
    # shrink must be monotone
    with pytest.raises(em.MachineError):
        m.shrink(0, 0)


def test_eval_run_watermarks():
    g = GridSpec((8,))
    space = FlatSpace(g, StencilSpec(1), B=4)
    m = Machine(MachineConfig(M=16, B=4), space, Fidelity.COUNT_ONLY)
    m.load_range(0, 2)
    m.allocate_range(2, 4)
    m.eval_run(2 * 4, 3)
    with pytest.raises(AlreadyEvaluated):
        m.eval_run(2 * 4, 1)  # watermark is 3, not 0
    m.eval_run(2 * 4 + 3, 5)  # finishes block 2, fills block 3
    m.evict_range(2, 4, write_back=True)
    m.evict_range(0, 2)
    stats, complete = m.run_report()
    assert complete
    assert stats == em.IoStats(2, 0, 2, 0, 8)


def test_eval_run_rejects_refill():
    g = GridSpec((8,))
    space = FlatSpace(g, StencilSpec(1), B=4)
    m = Machine(MachineConfig(M=16, B=4), space, Fidelity.COUNT_ONLY)
    m.allocate_range(2, 4)
    m.eval_run(8, 8)
    with pytest.raises(AlreadyEvaluated):
        m.eval_run(8, 1)


def test_write_classification_last_write_compulsory():
    g = GridSpec((8,))
    space = FlatSpace(g, StencilSpec(1), B=4)
    m = Machine(MachineConfig(M=16, B=4), space, Fidelity.COUNT_ONLY)
    m.allocate(2)
    m.evict(2, write_back=True)  # first write of output block: compulsory
    m.load(2)  # first-ever load of this block id: compulsory read
    m.evict(2, write_back=True)  # rewrite: one of the two writes is non-compulsory
    s = m.stats()
    assert s.compulsory_writes == 1
    assert s.noncompulsory_writes == 1
    assert s.compulsory_reads == 1
    # input-layer write-backs are always non-compulsory
    m.load(0)
    m.evict(0, write_back=True)
    s = m.stats()
    assert s.compulsory_writes == 1
    assert s.noncompulsory_writes == 2


def test_trace_replay_identical():
    space = minimal_space()
    trace: list[str] = []
    m = Machine(MachineConfig(M=6, B=3), space, Fidelity.FULL, trace=trace)
    m.load(0)
    m.allocate(1)
    for x in [(0,), (2,), (1,)]:
        m.eval_stencil(x)
    m.evict(1, write_back=True)
    m.evict(0)
    stats, complete = m.run_report()
    m2 = replay(trace, MachineConfig(M=6, B=3), space)
    stats2, complete2 = m2.run_report()
    assert stats == stats2 and complete == complete2
    assert m2.max_footprint == m.max_footprint
    assert trace[0] == "LOAD 0 1" and trace[1] == "ALLOC 1 2"
    assert trace[-1] == "EVICT 0 1 0"


@pytest.mark.parametrize("record", ["LOAD", "LOAD x", "LOAD 0 1 2", "EVICT 0 1"])
def test_replay_rejects_malformed_records(record):
    # trace files come from outside the program: a bad record must name its
    # line instead of escaping as IndexError/ValueError or replaying silently
    with pytest.raises(em.MachineError, match=f"line 2: bad record '{record}'"):
        replay(["LOAD 0 1", record], MachineConfig(M=6, B=3), minimal_space())


def test_evict_range_rejects_empty_range():
    # a reversed range passes the residency check; it must not move the
    # counters or the footprint backwards
    m = Machine(MachineConfig(M=6, B=3), minimal_space(), Fidelity.COUNT_ONLY)
    m.load(0)
    for lo, hi in ((1, 1), (1, 0)):
        with pytest.raises(em.MachineError, match="bad block range"):
            m.evict_range(lo, hi, write_back=True)
    assert m.stats() == em.IoStats(1, 0, 0, 0, 0) and m.footprint == 3


def test_footprint_never_exceeds_m():
    g = GridSpec((8,))
    space = FlatSpace(g, StencilSpec(1), B=4)
    m = Machine(MachineConfig(M=8, B=4), space, Fidelity.COUNT_ONLY)
    m.load(0)
    m.allocate(2)
    assert m.max_footprint == 8
    with pytest.raises(CapacityExceeded):
        m.load(1)
    assert m.footprint == 8
