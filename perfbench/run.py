"""emstencil benchmark runner.

    python3 perfbench/run.py --workload desk|hex-paper|full-oracle \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload pass runs in a fresh
single-threaded interpreter (perfbench/worker.py) against the checkout's
``src`` tree, so set-up is measured cold.  This process and everything it starts
share one CPU, on which perfbench/reference.py times a fixed kernel during each
pass; pass times are reported in units of that kernel ("ref") as well as in
host seconds.

With ``--trace 0`` the run makes one pass, then repeats the layout build alone
in further fresh interpreters (at least two, more while ``--seconds`` allows)
and prints the end-to-end metrics.  With ``--trace 1`` it makes one untraced
and one traced pass and prints the per-layer metrics plus the tracing
overhead.

Every row is checked (see perfbench/README.md).  Earlier stdout lines hold one
JSON record per row and one line of host-second figures; the last line is the
result object.  A failed check is named on stderr and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = {
    "desk": "configs/desk_suite.json",
    "hex-paper": "perfbench/workloads/hex_paper.json",
    "full-oracle": "perfbench/workloads/full_oracle.json",
}
MIN_EXTRA_SETUPS = 2
MAX_EXTRA_SETUPS = 8
DEADLINE_S = 170.0
MIN_REFERENCE_SAMPLES = 20

# summed over rows
SUMMED_LAYERS = {
    "layouts.capacity_s": "s",
    "layouts.build_s": "s",
    "layouts.step_counts_s": "s",
    "layouts.step_counts_calls": "count",
    "layouts.step_detail_s": "s",
    "layouts.step_detail_calls": "count",
    "layouts.geometry_other_s": "s",
    "machine.range_s": "s",
    "machine.block_s": "s",
    "machine.eval_stencil_s": "s",
    **{f"machine.{op}_calls": "count" for op in (
        "load_range", "evict_range", "allocate_range", "stream_out", "eval_run",
        "load", "evict", "allocate", "shrink", "eval_stencil")},
    "machine.instructions": "count",
    "machine.replay_s": "s",
    "sweeps.self_s": "s",
    "sweeps.materialize_s": "s",
    "sweeps.oracle_compare_s": "s",
    "oracles.naive_stencil_s": "s",
    "bounds.verdict_s": "s",
}
SUMMED_ROW_FIELDS = {
    "layouts.m": ("m", "count"),
    "layouts.pieces": ("pieces", "count"),
    "layouts.bands": ("bands", "count"),
    "machine.compulsory_reads": ("compulsory_reads", "blocks"),
    "machine.noncompulsory_reads": ("noncompulsory_reads", "blocks"),
    "machine.compulsory_writes": ("compulsory_writes", "blocks"),
    "machine.noncompulsory_writes": ("noncompulsory_writes", "blocks"),
    "machine.trace_records": ("trace_records", "count"),
    "machine.trace_bytes": ("trace_bytes", "bytes"),
}
# simulated outputs that must repeat exactly between passes
EXACT_FIELDS = (
    "m", "pieces", "bands", "compulsory_reads", "noncompulsory_reads",
    "compulsory_writes", "noncompulsory_writes", "evaluated_vertices", "max_footprint",
)


class BenchError(Exception):
    pass


class Pass:
    """One finished worker process: its result, host seconds and CPU seconds."""

    def __init__(self, result: dict, start: float, end: float, cpu_s: float):
        self.result = result
        self.rows: list[dict] = result["rows"]
        self.start = start
        self.end = end
        self.wall_s = end - start
        self.cpu_s = cpu_s
        self.kernel_s = math.nan  # mean reference-kernel CPU seconds over the pass
        self.sweep_kernel_s = math.nan  # the same over the rows' run_sweep calls

    @property
    def cpu_ref(self) -> float:
        return self.cpu_s / self.kernel_s

    @property
    def sweep_vertices_per_ref(self) -> float:
        cpu_s = _sum(self.rows, "sweep_cpu_s")
        if not cpu_s:
            return 0.0
        return _sum(self.rows, "evaluated_vertices") / cpu_s * self.sweep_kernel_s

    def host_figures(self) -> dict:
        sweep_s = _sum(self.rows, "sweep_s")
        vertices = _sum(self.rows, "evaluated_vertices")
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "sweep_vertices_per_s": vertices / sweep_s if sweep_s else 0.0,
            "reference_kernel_s": self.kernel_s,
        }


class Run:
    """One benchmark invocation: worker processes, reference clock, failure log."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.config = WORKLOADS[workload]
        self.started = time.monotonic()
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, mode: str, trace: int = 0) -> Pass:
        """Run one fresh worker to completion."""
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        cmd = [
            sys.executable, str(self.root / "perfbench" / "worker.py"),
            "--config", str(self.root / self.config), "--mode", mode,
            "--seed", str(self.seed), "--trace", str(trace),
        ]
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        cpu0 = _children_cpu_s()
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s budget") from exc
        end = time.monotonic()
        cpu_s = _children_cpu_s() - cpu0
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        src = (self.root / "src").resolve()
        if src not in Path(result["module"]).resolve().parents:
            raise BenchError(f"worker imported emstencil from {result['module']}, not {src}")
        return Pass(result, start, end, cpu_s)

    def timed_passes(self, traces: list[int]) -> list[Pass]:
        """Run workload passes while the reference kernel is timed beside them."""
        ref = subprocess.Popen([sys.executable, str(self.root / "perfbench" / "reference.py")],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            passes = [self.worker("run", trace) for trace in traces]
            out, _ = ref.communicate(timeout=10)
        finally:
            if ref.poll() is None:
                ref.kill()
                ref.wait()
        if ref.returncode != 0:
            raise BenchError(f"reference kernel exited with code {ref.returncode}")
        # time.monotonic is CLOCK_MONOTONIC, one clock for every process on Linux
        samples = json.loads(out)
        for p in passes:
            p.kernel_s = _mean_within(samples, [(p.start, p.end)])
            sweeps = [r["sweep_window"] for r in p.rows if "sweep_window" in r]
            if sweeps:
                p.sweep_kernel_s = _mean_within(samples, sweeps)
        return passes

    def fail(self, rows: list[dict], i: int, what: str) -> None:
        self.failures.append(f"workload {self.workload}, row {i} ({_row_name(rows[i])}): {what}")

    def check_rows(self, rows: list[dict], label: str) -> set[int]:
        bad = set()
        for i, row in enumerate(rows):
            for what in row["failed_checks"]:
                self.fail(rows, i, f"{label}: {what}")
                bad.add(i)
        return bad

    def same_outputs(self, rows: list[dict], other: list[dict], label: str,
                     fields=EXACT_FIELDS) -> set[int]:
        bad = set()
        for i, (a, b) in enumerate(zip(rows, other)):
            for f in fields:
                if a.get(f) != b.get(f):
                    self.fail(rows, i, f"{label}: {f} {b.get(f)} != {a.get(f)}")
                    bad.add(i)
        return bad


def _mean_within(samples: list, windows: list) -> float:
    """Mean kernel CPU seconds of the reference samples taken inside the windows."""
    got = [s for t, s in samples if any(a <= t <= b for a, b in windows)]
    if len(got) < MIN_REFERENCE_SAMPLES:
        raise BenchError(f"only {len(got)} reference samples during a pass")
    return statistics.fmean(got)


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _row_name(row: dict) -> str:
    sides = "x".join(map(str, row["sides"]))
    return f"{row['kind']} {sides} s={row['s']} M={row['M']} B={row['B']}"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _sum(rows: list[dict], key: str):
    return sum(r.get(key, 0) for r in rows)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict, list[dict], set[int]]:
    (main,) = run.timed_passes([0])
    rows = main.rows
    bad = run.check_rows(rows, "run")
    setups = [_sum(rows, "build_s")]
    extra, last = 0, 0.0
    while extra < MIN_EXTRA_SETUPS or (
        extra < MAX_EXTRA_SETUPS and run.elapsed() + last <= seconds
    ):
        setup = run.worker("setup")
        last = setup.wall_s
        setups.append(_sum(setup.rows, "build_s"))
        bad |= run.same_outputs(rows, setup.rows, "cold set-up", fields=("m",))
        extra += 1
    ratios = [r["nc_over_lower"] for r in rows if r.get("nc_over_lower")]
    host = main.host_figures()
    host["setup_samples_s"] = setups
    metrics = {
        "cpu_ref": _metric(main.cpu_ref, "ref"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "sweep_vertices_per_ref": _metric(main.sweep_vertices_per_ref, "1/ref"),
        "peak_rss_mb": _metric(main.result["peak_rss_mb"], "MB"),
        "pass_ratio": _metric((len(rows) - len(bad)) / len(rows), "ratio"),
        "nc_io_over_lower": _metric(
            math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 0.0, "ratio"),
    }
    return metrics, host, rows, bad


def per_layer(run: Run) -> tuple[dict, dict, list[dict], set[int]]:
    plain, traced = run.timed_passes([0, 1])
    rows = traced.rows
    bad = run.check_rows(plain.rows, "untraced pass") | run.check_rows(rows, "traced pass")
    bad |= run.same_outputs(rows, plain.rows, "traced vs untraced pass")
    layers = [r.get("layers", {}) for r in rows]
    metrics = {name: _metric(_sum(layers, name), unit) for name, unit in SUMMED_LAYERS.items()}
    for name, (field, unit) in SUMMED_ROW_FIELDS.items():
        metrics[name] = _metric(_sum(rows, field), unit)
    transfers = sum(_sum(rows, f) for f in (
        "compulsory_reads", "noncompulsory_reads", "compulsory_writes", "noncompulsory_writes"))
    instructions = metrics["machine.instructions"]["value"]
    metrics["machine.blocks_per_instruction"] = _metric(
        transfers / instructions if instructions else 0.0, "ratio")
    fracs = [r["max_footprint"] / r["M"] for r in rows if "max_footprint" in r]
    metrics["machine.footprint_frac"] = _metric(statistics.fmean(fracs) if fracs else 0.0, "ratio")
    metrics["trace.overhead_s"] = _metric(traced.wall_s - plain.wall_s, "s")
    metrics["trace.overhead_frac"] = _metric(traced.cpu_ref / plain.cpu_ref - 1.0, "ratio")
    host = {"untraced": plain.host_figures(), "traced": traced.host_figures()}
    return metrics, host, rows, bad


def _stop(signum, frame):
    # unwinds through subprocess.run and timed_passes, which kill and reap their children
    sys.exit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "emstencil" / "__init__.py", root / WORKLOADS[args.workload]]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a checkout root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _stop)
    # the passes and the reference kernel must share a CPU for the ratio to cancel contention
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, host, rows, bad = per_layer(run)
        else:
            metrics, host, rows, bad = end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"perfbench: workload {args.workload}: {exc}", file=sys.stderr)
        return 1
    for i, row in enumerate(rows):
        print(json.dumps({"workload": args.workload, "row": i, **row}))
    print(json.dumps({"workload": args.workload, "host": host}))
    for msg in run.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(rows),
        "failed": len(bad),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
