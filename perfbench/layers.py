"""Per-layer timing for one benchmark row, recorded from outside the program.

Two kinds of record, both kept in memory:

* spans: one per row per stage the benchmark itself calls (build, sweep,
  materialize, oracle compare, verdict, ...), with name, parent and host
  start/end;
* call totals: seconds and call count per (layer, function) for the entry
  points the sweep calls many times (geometry step methods, machine
  instructions).  No per-call objects are kept: desk alone makes millions of
  machine calls.

Wrappers are installed on the instance (or module attribute) for the duration
of one stage and removed afterwards.  A single busy flag makes a wrapped call
that happens inside another wrapped call (``Machine.load`` calling
``self.load_range``, a geometry method calling another) run unwrapped, so it
is neither counted nor timed twice: its time belongs to the outer call.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

MACHINE_RANGE_OPS = ("load_range", "evict_range", "allocate_range", "stream_out", "eval_run")
MACHINE_BLOCK_OPS = ("load", "evict", "allocate", "shrink")
MACHINE_EVAL_OPS = ("eval_stencil",)
MACHINE_OPS = MACHINE_RANGE_OPS + MACHINE_BLOCK_OPS + MACHINE_EVAL_OPS
GEOMETRY_STEP_OPS = ("step_counts", "step_detail")


class Recorder:
    """Spans and call totals of one row."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.totals: dict[tuple[str, str], list] = {}  # (layer, fn) -> [seconds, calls]
        self._busy = [False]

    @contextmanager
    def span(self, name: str, parent: str | None = None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, parent, t0 - self.origin, time.perf_counter() - self.origin))

    def seconds(self, name: str) -> float:
        return sum((end - start for n, _, start, end in self.spans if n == name), 0.0)

    def total(self, layer: str, fn: str) -> tuple[float, int]:
        got = self.totals.get((layer, fn))
        return (got[0], got[1]) if got else (0.0, 0)

    def layer_seconds(self, layer: str) -> float:
        return sum((v[0] for (lay, _), v in self.totals.items() if lay == layer), 0.0)

    def _wrap(self, layer: str, name: str, fn):
        acc = self.totals.setdefault((layer, name), [0.0, 0])
        busy = self._busy
        now = time.perf_counter

        def timed(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += now() - t0
                acc[1] += 1
                busy[0] = False

        return timed

    @contextmanager
    def instrument(self, obj, layer: str, names):
        """Time calls to obj.<name> for each name while the block runs."""
        saved = {name: obj.__dict__.get(name, _MISSING) for name in names}
        for name in names:
            setattr(obj, name, self._wrap(layer, name, getattr(obj, name)))
        try:
            yield
        finally:
            for name, old in saved.items():
                if old is _MISSING:
                    delattr(obj, name)
                else:
                    setattr(obj, name, old)


_MISSING = object()


def geometry_entry_points(geometry) -> list[str]:
    """Public methods of a geometry, minus generators (a call returns before any work)."""
    return [
        name
        for name, fn in inspect.getmembers(type(geometry), inspect.isfunction)
        if not name.startswith("_") and not inspect.isgeneratorfunction(fn)
    ]


def row_layers(rec: Recorder) -> dict[str, float]:
    """The per-layer split of one row: self times, call counts."""
    out: dict[str, float] = {}
    build = rec.seconds("layouts.build")
    capacity = rec.total("capacity", "sweep_shape_size")[0]
    out["layouts.capacity_s"] = capacity
    out["layouts.build_s"] = build - capacity
    geo_total = rec.layer_seconds("layouts")
    step_s = 0.0
    for fn in GEOMETRY_STEP_OPS:
        secs, calls = rec.total("layouts", fn)
        out[f"layouts.{fn}_s"] = secs
        out[f"layouts.{fn}_calls"] = calls
        step_s += secs
    out["layouts.geometry_other_s"] = geo_total - step_s
    machine_total = rec.layer_seconds("machine")
    groups = (("range", MACHINE_RANGE_OPS), ("block", MACHINE_BLOCK_OPS),
              ("eval_stencil", MACHINE_EVAL_OPS))
    instructions = 0
    for group, ops in groups:
        secs = 0.0
        for fn in ops:
            s, calls = rec.total("machine", fn)
            secs += s
            out[f"machine.{fn}_calls"] = calls
            instructions += calls
        out[f"machine.{group}_s"] = secs
    out["machine.instructions"] = instructions
    out["sweeps.self_s"] = rec.seconds("sweeps.run_sweep") - geo_total - machine_total
    out["sweeps.materialize_s"] = rec.seconds("sweeps.materialize")
    naive = rec.total("oracles", "naive_stencil")[0]
    out["sweeps.oracle_compare_s"] = rec.seconds("sweeps.oracle_compare") - naive
    out["oracles.naive_stencil_s"] = naive
    out["bounds.verdict_s"] = rec.seconds("bounds.verdict")
    out["machine.replay_s"] = rec.seconds("machine.replay")
    return out
