"""Experiment harness: run configured sweeps, compare against the bounds.

A config is a JSON document:

    {
      "mode": "simulate",              # or "bounds" (formula evaluation only)
      "experiments": [
        {"kind": "diagonal2d", "s": 1, "M": 4096, "B": 16,
         "sides": [32768, 32768], "fidelity": "count_only", "tolerance": 1.15},
        ...
      ]
    }

M and B have no defaults.  Every experiment becomes one CSV row; failures are
recorded in the row and the run continues.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from emstencil import bounds
from emstencil.bounds import LayoutKind
from emstencil.grid import GridSpec, StencilSpec, vertex_count
from emstencil.layouts import UnusableConfiguration, build_layout
from emstencil.layouts.ceilings import noncompulsory_ceiling
from emstencil.machine import Fidelity, Machine, MachineConfig
from emstencil.sweeps import make_plan, materialize_input, run_oracle_compare, run_sweep

FULL_AUTO_LIMIT = 1 << 20  # vertices; above this CountOnly is auto-selected

CSV_COLUMNS = [
    "kind",
    "n",
    "s",
    "M",
    "B",
    "sides",
    "fidelity",
    "m",
    "input_blocks",
    "output_blocks",
    "compulsory_reads",
    "noncompulsory_reads",
    "compulsory_writes",
    "noncompulsory_writes",
    "evaluated_vertices",
    "max_footprint",
    "complete",
    "predicted_leading",
    "ceiling",
    "ratio_measured_predicted",
    "lower_bound",
    "status",
]


@dataclass(frozen=True)
class ExperimentSpec:
    kind: LayoutKind
    s: int
    M: int
    B: int
    sides: tuple[int, ...]
    fidelity: Optional[Fidelity] = None  # None: auto by grid size
    tolerance: float = 1.15
    seed: int = 0

    @property
    def n(self) -> int:
        return len(self.sides)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if "M" not in d or "B" not in d:
            raise ValueError("experiment entries must define M and B explicitly")
        fid = d.get("fidelity")
        return cls(
            kind=LayoutKind(d["kind"]),
            s=int(d["s"]),
            M=int(d["M"]),
            B=int(d["B"]),
            sides=tuple(int(k) for k in d["sides"]),
            fidelity=Fidelity(fid) if fid else None,
            tolerance=float(d.get("tolerance", 1.15)),
            seed=int(d.get("seed", 0)),
        )


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def run_one(spec: ExperimentSpec) -> dict:
    """Execute one experiment; exceptions land in the status column."""
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        kind=spec.kind.value,
        n=spec.n,
        s=spec.s,
        M=spec.M,
        B=spec.B,
        sides="x".join(map(str, spec.sides)),
    )
    try:
        grid = GridSpec(spec.sides)
        stencil = StencilSpec(spec.s)
        cfg = MachineConfig(M=spec.M, B=spec.B)
        fid = spec.fidelity
        if fid is None:
            fid = Fidelity.FULL if vertex_count(grid) <= FULL_AUTO_LIMIT else Fidelity.COUNT_ONLY
        row["fidelity"] = fid.value
        layout = build_layout(spec.kind, grid, stencil, cfg)
        row["m"] = layout.shape.m
        row["input_blocks"] = layout.n_input_blocks
        row["output_blocks"] = layout.n_blocks - layout.n_input_blocks
        machine = Machine(cfg, layout, fid)
        if fid is Fidelity.FULL:
            rng = np.random.default_rng(spec.seed)
            materialize_input(
                machine, layout, rng.integers(0, 1 << 62, size=spec.sides, dtype=np.uint64)
            )
        run_sweep(make_plan(layout), machine, layout)
        stats, complete = machine.run_report()
        row.update(
            compulsory_reads=stats.compulsory_reads,
            noncompulsory_reads=stats.noncompulsory_reads,
            compulsory_writes=stats.compulsory_writes,
            noncompulsory_writes=stats.noncompulsory_writes,
            evaluated_vertices=stats.evaluated_vertices,
            max_footprint=machine.max_footprint,
            complete=complete,
        )
        nverts = vertex_count(grid)
        rate = bounds.upper_bound_leading(spec.kind, spec.n, spec.s, spec.M, spec.B)
        predicted = rate * nverts
        ceiling = noncompulsory_ceiling(layout)
        lower = bounds.lower_bound_constant(spec.n, spec.s, spec.M) * nverts / spec.B
        measured = stats.total_noncompulsory
        row.update(
            predicted_leading=predicted,
            ceiling=ceiling,
            ratio_measured_predicted=measured / predicted if predicted else math.inf,
            lower_bound=lower,
        )
        ok = complete and measured <= ceiling
        ok = ok and measured <= spec.tolerance * predicted
        ok = ok and measured >= 0.75 * lower
        if fid is Fidelity.FULL:
            eq, mismatch = run_oracle_compare(machine, layout)
            ok = ok and eq
            if not eq:
                row["status"] = f"ORACLE_MISMATCH at {mismatch}"
                return row
        row["status"] = "pass" if ok else "fail"
    except UnusableConfiguration as exc:
        row["status"] = f"UnusableConfiguration: {exc}"
    except Exception as exc:  # recorded, run continues
        row["status"] = f"ERROR: {type(exc).__name__}: {exc}"
    return row


def bounds_row(spec: ExperimentSpec) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        kind=spec.kind.value,
        n=spec.n,
        s=spec.s,
        M=spec.M,
        B=spec.B,
        sides="x".join(map(str, spec.sides)),
        fidelity="bounds",
    )
    nverts = math.prod(spec.sides)
    try:
        rate = bounds.upper_bound_leading(spec.kind, spec.n, spec.s, spec.M, spec.B)
        row["predicted_leading"] = rate * nverts
        row["lower_bound"] = (
            bounds.lower_bound_constant(spec.n, spec.s, spec.M) * nverts / spec.B
        )
        row["status"] = "bounds-only"
    except Exception as exc:
        row["status"] = f"ERROR: {type(exc).__name__}: {exc}"
    return row


def run_experiments(config: dict, jobs: int = 1) -> list[dict]:
    """All rows of a config, in config order regardless of completion order."""
    specs = [ExperimentSpec.from_dict(d) for d in config.get("experiments", [])]
    mode = config.get("mode", "simulate")
    if mode == "bounds":
        return [bounds_row(s) for s in specs]
    if mode != "simulate":
        raise ValueError(f"unknown mode {mode!r}")
    if jobs <= 1 or len(specs) <= 1:
        return [run_one(s) for s in specs]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_one, specs))


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def report_tables() -> str:
    """Leading-constant comparison: lower bound, per-layout upper bounds, gaps."""
    out = []
    M, B = 4096, 16  # display constants; the gap column is parameter-free
    out.append("Leading non-compulsory constants per grid point (s = 1, M = %d, B = %d)" % (M, B))
    out.append("")
    rows_2d = [LayoutKind.ROW_2D, LayoutKind.COLUMN_2D, LayoutKind.DIAGONAL_2D]
    rows_3d = [
        LayoutKind.ROW_3D,
        LayoutKind.COLUMN_POLE_3D,
        LayoutKind.BALL_2D_IN_3D,
        LayoutKind.HEX_3D,
    ]
    for n, kinds in ((2, rows_2d), (3, rows_3d), (4, [LayoutKind.COLUMN_ND])):
        lower = bounds.lower_bound_constant(n, 1, M) / B
        out.append(f"n = {n}:  lower bound rate {lower:.6e}")
        for kind in kinds:
            rate = bounds.upper_bound_leading(kind, n, 1, M, B)
            out.append(f"    {kind.value:12s} upper {rate:.6e}   gap {rate / lower:.6f}")
        best_gap = bounds.upper_bound_leading(bounds.best_layout(n), n, 1, M, B) / lower
        out.append(f"    gap of the matching layout: {best_gap:.6f}")
        if n in (2, 3):
            for name, rate in bounds.REFERENCE_BOUNDS.items():
                if name.endswith(f"_{n}d"):
                    out.append(f"    prior {name[:-3]:26s} {rate(M, B):.6e}")
            prior = bounds.prior_gap(n, M, B)
            out.append(f"    prior gap (Leopold upper / lower) {prior:.6f}, "
                       f"improved by {prior / best_gap:.6f}")
        out.append(f"    n-D column gap (n!)^(1/(n-1)) = {bounds.gap_ratio(n):.6f}")
        out.append("")
    return "\n".join(out)
