"""One pass over a workload's rows in a fresh interpreter.

Started by perfbench/run.py with the checkout's ``src`` on PYTHONPATH, so the
process-global capacity probe cache and every geometry's lazy caches start
empty, as they do for a user of ``emstencil run``.  Prints one JSON document
as its last line of standard output.

    python3 perfbench/worker.py --config C --mode run|setup [--seed N] [--trace 0|1]

``run`` follows the ``emstencil run`` path for each row (ExperimentSpec,
build_layout, Machine, run_sweep, run_report, bounds and ceiling verdict,
run_oracle_compare for Full rows) and checks every output; ``setup`` only
builds each row's layout and reports the time spent in build_layout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext

ORIGIN = time.perf_counter()

import numpy as np  # noqa: E402

import emstencil.layouts  # noqa: E402
import emstencil.oracles  # noqa: E402
from emstencil import bench, bounds  # noqa: E402
from emstencil.grid import GridSpec, StencilSpec, vertex_count  # noqa: E402
from emstencil.layouts import build_layout  # noqa: E402
from emstencil.layouts.ceilings import noncompulsory_ceiling  # noqa: E402
from emstencil.machine import Fidelity, Machine, MachineConfig, replay  # noqa: E402
from emstencil.sweeps import make_plan, materialize_input, run_oracle_compare, run_sweep  # noqa: E402

from layers import MACHINE_OPS, Recorder, geometry_entry_points, row_layers  # noqa: E402

COUNTERS = (
    "compulsory_reads",
    "noncompulsory_reads",
    "compulsory_writes",
    "noncompulsory_writes",
    "evaluated_vertices",
)


def load_specs(path: str) -> list[bench.ExperimentSpec]:
    return [bench.ExperimentSpec.from_dict(d) for d in bench.load_config(path)["experiments"]]


def _fidelity(spec: bench.ExperimentSpec, grid: GridSpec) -> Fidelity:
    if spec.fidelity is not None:
        return spec.fidelity
    return Fidelity.FULL if vertex_count(grid) <= bench.FULL_AUTO_LIMIT else Fidelity.COUNT_ONLY


def _build(spec: bench.ExperimentSpec, rec: Recorder, traced: bool):
    cfg = MachineConfig(M=spec.M, B=spec.B)
    timed = rec.instrument(emstencil.layouts, "capacity", ["sweep_shape_size"])
    with rec.span("layouts.build", "row"), timed if traced else nullcontext():
        layout = build_layout(spec.kind, GridSpec(spec.sides), StencilSpec(spec.s), cfg)
    return layout, cfg


def _sweep(machine: Machine, layout, rec: Recorder, traced: bool, row: dict) -> None:
    plan = make_plan(layout)
    geo = layout.geometry
    start, cpu0 = time.monotonic(), time.process_time()
    with rec.span("sweeps.run_sweep", "row"), ExitStack() as timed:
        if traced:
            timed.enter_context(rec.instrument(geo, "layouts", geometry_entry_points(geo)))
            timed.enter_context(rec.instrument(machine, "machine", MACHINE_OPS))
        run_sweep(plan, machine, layout)
    row["sweep_cpu_s"] = time.process_time() - cpu0
    row["sweep_window"] = [start, time.monotonic()]  # matched against reference samples


def run_row(index: int, spec: bench.ExperimentSpec, seed: int, traced: bool) -> dict:
    """Run one row through the user path; every failed check is named in the record."""
    rec = Recorder(ORIGIN)
    row = {"kind": spec.kind.value, "sides": list(spec.sides), "s": spec.s, "M": spec.M, "B": spec.B}
    failed: list[str] = []
    with rec.span("row"):
        try:
            status = _run_checked(index, spec, seed, traced, rec, row, failed)
        except Exception as exc:  # recorded per row, the pass continues (as bench.run_one does)
            status = f"ERROR: {type(exc).__name__}: {exc}"
            failed.append(f"status is {status!r}")
            traceback.print_exc(file=sys.stderr)
    row["status"] = status
    row["failed_checks"] = failed
    row["build_s"] = rec.seconds("layouts.build")
    row["sweep_s"] = rec.seconds("sweeps.run_sweep")
    if traced:
        row["layers"] = row_layers(rec)
        row["spans"] = [
            {"name": n, "parent": p, "start": round(a, 6), "end": round(b, 6)}
            for n, p, a, b in rec.spans
        ]
        row["calls"] = {f"{lay}.{fn}": v for (lay, fn), v in rec.totals.items() if v[1]}
    return row


def _run_checked(index, spec, seed, traced, rec: Recorder, row: dict, failed: list[str]) -> str:
    layout, cfg = _build(spec, rec, traced)
    grid = layout.grid
    fid = _fidelity(spec, grid)
    nverts = vertex_count(grid)
    row.update(
        fidelity=fid.value,
        m=layout.shape.m,
        pieces=len(layout.pieces),
        bands=len(layout.working_bands()),
        input_blocks=layout.n_input_blocks,
        output_blocks=layout.n_blocks - layout.n_input_blocks,
        vertices=nverts,
    )
    machine = Machine(cfg, layout, fid)
    if fid is Fidelity.FULL:
        # the seed reaches the program only as these generated input values
        rng = np.random.default_rng([seed, index])
        values = rng.integers(0, 1 << 64, size=spec.sides, dtype=np.uint64)
        with rec.span("sweeps.materialize", "row"):
            materialize_input(machine, layout, values)
    _sweep(machine, layout, rec, traced, row)
    stats, complete = machine.run_report()
    row.update({c: getattr(stats, c) for c in COUNTERS})
    row["max_footprint"] = machine.max_footprint
    row["complete"] = complete
    with rec.span("bounds.verdict", "row"):
        predicted = bounds.upper_bound_leading(spec.kind, spec.n, spec.s, spec.M, spec.B) * nverts
        lower = bounds.lower_bound_constant(spec.n, spec.s, spec.M) * nverts / spec.B
        ceiling = noncompulsory_ceiling(layout)
    measured = stats.total_noncompulsory
    row["ratio_measured_predicted"] = measured / predicted if predicted else math.inf
    row["nc_over_lower"] = measured / lower
    # the verdict of bench.run_one
    ok = complete and measured <= ceiling
    ok = ok and measured <= spec.tolerance * predicted
    ok = ok and measured >= 0.75 * lower
    status = "pass" if ok else "fail"
    if fid is Fidelity.FULL:
        timed = rec.instrument(emstencil.oracles, "oracles", ["naive_stencil"])
        with rec.span("sweeps.oracle_compare", "row"), timed if traced else nullcontext():
            eq, mismatch = run_oracle_compare(machine, layout)
        if not eq:
            status = f"ORACLE_MISMATCH at {mismatch}"

    if status != "pass":
        failed.append(f"status is {status!r}")
    if machine.max_footprint > spec.M:
        failed.append(f"peak {machine.max_footprint} > M={spec.M}")
    if stats.compulsory_reads != row["input_blocks"]:
        failed.append(f"compulsory reads {stats.compulsory_reads} != input blocks {row['input_blocks']}")
    if stats.compulsory_writes != row["output_blocks"]:
        failed.append(
            f"compulsory writes {stats.compulsory_writes} != output blocks {row['output_blocks']}"
        )
    if stats.evaluated_vertices != nverts:
        failed.append(f"evaluated {stats.evaluated_vertices} != vertices {nverts}")
    if fid is Fidelity.FULL:
        failed += _full_row_checks(layout, cfg, stats, row, rec)
    return status


def _full_row_checks(layout, cfg: MachineConfig, full_stats, row: dict, rec: Recorder) -> list[str]:
    """CountOnly = Full, trace dump and CountOnly replay, shared wings exercised."""
    failed = []
    if row["bands"] < 2 or full_stats.noncompulsory_reads == 0 or full_stats.noncompulsory_writes == 0:
        failed.append(
            f"row has {row['bands']} band(s) and NC reads/writes "
            f"{full_stats.noncompulsory_reads}/{full_stats.noncompulsory_writes}: shared wings unused"
        )
    trace: list[str] = []
    with rec.span("sweeps.count_only_check", "row"):
        counted = Machine(cfg, layout, Fidelity.COUNT_ONLY, trace=trace)
        run_sweep(make_plan(layout), counted, layout)
        count_stats, _ = counted.run_report()
    if count_stats != full_stats:
        failed.append(f"CountOnly {count_stats} != Full {full_stats}")
    # the dump `emstencil run --trace-dir` writes, replayed under CountOnly
    text = "\n".join(trace) + "\n"
    row["trace_records"] = len(trace)
    row["trace_bytes"] = len(text.encode("utf-8"))
    with rec.span("machine.replay", "row"):
        replayed = replay(text.splitlines(), cfg, layout, Fidelity.COUNT_ONLY)
    replay_stats, _ = replayed.run_report()
    if replay_stats != count_stats:
        failed.append(f"replayed {replay_stats} != traced run {count_stats}")
    row["replay_s"] = rec.seconds("machine.replay")
    return failed


def setup_row(spec: bench.ExperimentSpec) -> dict:
    rec = Recorder(ORIGIN)
    layout, _ = _build(spec, rec, traced=False)
    return {"kind": spec.kind.value, "m": layout.shape.m, "build_s": rec.seconds("layouts.build")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--mode", choices=("run", "setup"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    specs = load_specs(args.config)
    if args.mode == "setup":
        rows = [setup_row(spec) for spec in specs]
    else:
        rows = [run_row(i, spec, args.seed, bool(args.trace)) for i, spec in enumerate(specs)]
    result = {
        "module": emstencil.layouts.__file__,
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
