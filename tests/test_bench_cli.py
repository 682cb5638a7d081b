import json
import math

import pytest

from emstencil import bench
from emstencil.bench import CSV_COLUMNS, ExperimentSpec, rows_to_csv, run_experiments
from emstencil.bounds import LayoutKind
from emstencil.cli import main


def small_config():
    return {
        "mode": "simulate",
        "experiments": [
            {"kind": "column2d", "s": 1, "M": 64, "B": 4, "sides": [24, 24],
             "tolerance": 2.0},
            {"kind": "diagonal2d", "s": 1, "M": 64, "B": 4, "sides": [20, 26],
             "tolerance": 3.0},
            {"kind": "column2d", "s": 1, "M": 16, "B": 16, "sides": [24, 24]},
        ],
    }


def test_run_experiments_rows_and_errors():
    rows = run_experiments(small_config())
    assert len(rows) == 3
    assert rows[0]["status"] == "pass"
    assert rows[1]["status"] == "pass"
    assert rows[2]["status"].startswith("UnusableConfiguration")
    assert rows[0]["compulsory_reads"] == rows[0]["input_blocks"]
    assert rows[0]["complete"] is True


def test_csv_schema_stable_and_golden():
    rows = run_experiments(small_config())
    csv = rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "kind,n,s,M,B,sides,fidelity,m,input_blocks,output_blocks,"
        "compulsory_reads,noncompulsory_reads,compulsory_writes,"
        "noncompulsory_writes,evaluated_vertices,max_footprint,complete,"
        "predicted_leading,ceiling,ratio_measured_predicted,lower_bound,status"
    )
    first = lines[1].split(",")
    assert first[0] == "column2d" and first[-1] == "pass"
    # reals render through %.12g and parse back exactly at this scale
    assert float(first[CSV_COLUMNS.index("predicted_leading")]) == 18.0
    ratio = float(first[CSV_COLUMNS.index("ratio_measured_predicted")])
    assert 0 < ratio < 10


def test_rerun_reproduces_identical_rows():
    a = rows_to_csv(run_experiments(small_config()))
    b = rows_to_csv(run_experiments(small_config()))
    assert a == b


def test_parallel_jobs_preserve_order():
    rows1 = run_experiments(small_config(), jobs=1)
    rows3 = run_experiments(small_config(), jobs=3)
    assert rows_to_csv(rows1) == rows_to_csv(rows3)


def test_bounds_only_mode_reproduces_table_one():
    config = {
        "mode": "bounds",
        "experiments": [
            {"kind": "diagonal2d", "s": 1, "M": 4096, "B": 16, "sides": [1024, 1024]},
            {"kind": "hex3d", "s": 1, "M": 4096, "B": 16, "sides": [64, 64, 64]},
        ],
    }
    rows = run_experiments(config)
    n = 1024 * 1024
    assert math.isclose(rows[0]["predicted_leading"], 4 / (16 * 4096) * n, rel_tol=1e-12)
    assert math.isclose(rows[0]["lower_bound"], 4 / 4096 * n / 16, rel_tol=1e-12)
    n3 = 64**3
    assert math.isclose(
        rows[1]["predicted_leading"],
        8 * math.sqrt(2) / (math.sqrt(3) * 16 * math.sqrt(4096)) * n3,
        rel_tol=1e-12,
    )


def test_missing_M_or_B_rejected():
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({"kind": "column2d", "s": 1, "sides": [8, 8], "B": 4})


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    out_path = tmp_path / "report.csv"
    # the unusable row counts as a failure -> nonzero exit
    assert main(["run", str(cfg_path), "--out", str(out_path)]) == 1
    text = out_path.read_text()
    assert text.startswith("kind,")
    good = {
        "mode": "simulate",
        "experiments": [small_config()["experiments"][0]],
    }
    cfg2 = tmp_path / "good.json"
    cfg2.write_text(json.dumps(good))
    assert main(["run", str(cfg2), "--out", str(out_path)]) == 0


def test_cli_trace_dir(tmp_path):
    cfg = {
        "mode": "simulate",
        "experiments": [small_config()["experiments"][0]],
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    traces = tmp_path / "traces"
    assert main(["run", str(cfg_path), "--out", str(out), "--trace-dir", str(traces)]) == 0
    files = list(traces.glob("*.trace"))
    assert len(files) == 1
    body = files[0].read_text().strip().split("\n")
    assert body[0].startswith("LOAD ")
    # replayable
    from emstencil.grid import GridSpec, StencilSpec
    from emstencil.layouts import build_layout
    from emstencil.machine import MachineConfig, replay

    layout = build_layout(
        LayoutKind.COLUMN_2D, GridSpec((24, 24)), StencilSpec(1), MachineConfig(64, 4)
    )
    m = replay(body, MachineConfig(64, 4), layout)
    stats, ok = m.run_report()
    assert ok


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "gap" in out and "hex3d" in out
    assert "prior gap (Leopold upper / lower) 4.000000, improved by 4.000000" in out
