import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskbundle.bundle import AnalyticFrame, constant_field, defect_field, save_frame
from diskbundle.calculus import build_grid
from diskbundle.cli import emit_heatmap
from diskbundle.errors import NumericalError
from diskbundle.rational import RationalFunction
from diskbundle.toeplitz import MatrixSymbol, save_symbol

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "diskbundle", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def constant_frame_file(tmp_path):
    path = tmp_path / "frame.json"
    save_frame(AnalyticFrame.constant([[1.0], [0.0]]), path)
    return path


def test_curvature_constant_frame(tmp_path, constant_frame_file):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "out_dir": "out", "grid": {"radial_count": 2, "angular_count": 4, "margin": 0.1}},
    )
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["defect"] == {"min": 0.0, "max": 0.0, "mean": 0.0}
    heatmap = (tmp_path / "out" / "defect_field.csv").read_text().splitlines()
    assert heatmap[0] == "re,im,value"
    assert len(heatmap) == 1 + 8
    assert all(line.endswith(",0.0") for line in heatmap[1:])


def test_counterexample_command(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"epsilon": 0.1, "spike_count": 2, "length": 128, "out_dir": "out"},
    )
    result = run_cli(["counterexample", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["spikes"][0]["N_j"] == 10
    assert report["spikes"][1]["N_j"] == 66
    assert report["kernel_ratio"]["min"] >= 0.826446 - 1e-9
    assert (tmp_path / "out" / "weights.csv").exists()


def test_malformed_frame_exits_2(tmp_path):
    (tmp_path / "frame.json").write_text('{"rows": 1, "cols": 1, "entries": [[{"den": [[1.0, 0.0]]}]]}')
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json"})
    result = run_cli(["criteria", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2
    error = json.loads(result.stdout)
    assert error["status"] == "error" and error["kind"] == "validation"
    assert "entries[0][0]" in (error["field"] or "") or "entries[0][0]" in error["message"]


def test_unknown_config_key_exits_2(tmp_path, constant_frame_file):
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "bogus": 1})
    result = run_cli(["criteria", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2
    assert "bogus" in json.loads(result.stdout)["message"]


def test_partial_field_exits_3(tmp_path):
    grid = build_grid(4, 16, 0.01)
    z0 = grid.points[5]
    frame = AnalyticFrame([[RationalFunction([-z0, 1.0])]])
    save_frame(frame, tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01}},
    )
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 3
    assert json.loads(result.stdout)["kind"] == "numerical"


def test_reports_are_deterministic(tmp_path, constant_frame_file):
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json"})
    for out in ("a", "b"):
        result = run_cli(["criteria", "--config", str(cfg), "--out", str(tmp_path / out)], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
    first = (tmp_path / "a" / "report.json").read_bytes()
    second = (tmp_path / "b" / "report.json").read_bytes()
    assert first == second


def test_cli_grid_overrides(tmp_path, constant_frame_file):
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "out_dir": "out"})
    result = run_cli(
        ["curvature", "--config", str(cfg), "--grid-radial", "3", "--grid-angular", "8", "--margin", "0.2"],
        cwd=tmp_path,
    )
    assert result.returncode == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["grid"]["radial_count"] == 3
    assert report["grid"]["angular_count"] == 8
    assert report["grid"]["margin"] == 0.2


def test_toeplitz_command_scalar_symbol(tmp_path):
    save_symbol(
        MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True),
        tmp_path / "symbol.json",
    )
    save_symbol(
        MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.3]), analytic=True),
        tmp_path / "second.json",
    )
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "symbol": "symbol.json",
            "second_symbol": "second.json",
            "lambda": [0.3, 0.0],
            "out_dir": "out",
            "truncation": 32,
        },
    )
    result = run_cli(["toeplitz", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["multiplicativity"] <= 1e-12
    assert report["intertwining"] <= 1e-12
    assert report["kernel_action"]["discrepancy"] <= 1e-10
    assert report["inner_outer"]["disk_zeros"] == [[0.5, 0.0]]
    assert "grid" in report["margin_scope"]


def test_criteria_probe_csv_minimum_is_green_inf(tmp_path):
    save_frame(AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]]), tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "frame": "frame.json",
            "out_dir": "out",
            "probe_stride": 1,
            "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01},
        },
    )
    result = run_cli(["criteria", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rows = (tmp_path / "out" / "criteria_probes.csv").read_text().splitlines()
    assert rows[0] == "re,im,defect,green_potential"
    values = [[float(part) for part in row.split(",")] for row in rows[1:]]
    assert len(values) == 4 * 16
    assert min(row[3] for row in values) == report["green_inf"] < 0.0


def test_curvature_report_carries_lambda_samples(tmp_path, constant_frame_file):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "out_dir": "out", "grid": {"radial_count": 2, "angular_count": 4, "margin": 0.1}},
    )
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    samples = json.loads((tmp_path / "out" / "report.json").read_text())["samples"]
    assert [s["lambda"] for s in samples] == [[0.0, 0.0], [0.5, 0.0]]
    for sample in samples:
        assert set(sample) == {
            "lambda",
            "total",
            "shift_part",
            "defect",
            "tensor_total",
            "discrepancy",
            "truncation_tail",
        }
        assert sample["discrepancy"] <= 1e-6


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"lambda": ["a", 0]}, "lambda"),
        ({"vector": [1.0]}, "vector"),
    ],
)
def test_malformed_complex_values_exit_2(tmp_path, payload, field):
    save_symbol(MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True), tmp_path / "s.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json", "truncation": 16, **payload})
    result = run_cli(["toeplitz", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "validation" and error["field"] == field


def test_truncation_override_is_range_checked(tmp_path, constant_frame_file):
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "out_dir": "out"})
    result = run_cli(["curvature", "--config", str(cfg), "--truncation", "200000"], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert json.loads(result.stdout)["field"] == "truncation"
    assert not (tmp_path / "out" / "report.json").exists()


def test_missing_config_file(tmp_path):
    result = run_cli(["criteria", "--config", str(tmp_path / "nope.json")], cwd=tmp_path)
    assert result.returncode == 2


def test_emit_heatmap_refuses_partial(tmp_path):
    grid = build_grid(2, 4, 0.1)
    field = constant_field(grid, 1.0)
    partial = type(field)(grid=grid, values=field.values, failures=((0, "boom"),))
    with pytest.raises(NumericalError):
        emit_heatmap(partial, tmp_path / "x.csv")


def test_heatmap_matches_closed_form(tmp_path):
    grid = build_grid(2, 4, 0.1)
    frame = AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]])
    emit_heatmap(defect_field(frame, grid), tmp_path / "field.csv")
    rows = (tmp_path / "field.csv").read_text().splitlines()[1:]
    for row, z in zip(rows, grid.points):
        re, im, value = (float(part) for part in row.split(","))
        assert complex(re, im) == z
        assert abs(value - (1 + abs(z) ** 2) ** -2) < 1e-12


_HUGE = 10**400  # a JSON integer literal beyond float range


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("counterexample", {"epsilon": _HUGE}, "epsilon"),
        ("counterexample", {"grid": {"margin": _HUGE}}, "grid.margin"),
        ("counterexample", {"thresholds": {"M": _HUGE}}, "thresholds.M"),
        ("counterexample", {"thresholds": {"C": _HUGE}}, "thresholds.C"),
        ("counterexample", {"radii": [0.5, _HUGE]}, "radii"),
        ("toeplitz", {"lambda": [_HUGE, 0]}, "lambda"),
    ],
)
def test_integer_beyond_float_range_exits_2(tmp_path, command, payload, field):
    base = {"counterexample": {"epsilon": 0.1, "spike_count": 1, "length": 64}, "toeplitz": {"symbol": "s.json"}}
    cfg = write_config(tmp_path / "cfg.json", {**base[command], **payload})
    result = run_cli([command, "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "validation" and error["field"] == field


def test_toeplitz_margin_failure_exits_3(tmp_path):
    grid = build_grid(4, 16, 0.01)
    p = complex(grid.points[5])
    save_symbol(MatrixSymbol.scalar(RationalFunction([1.0], [-p, 1.0]), analytic=False), tmp_path / "s.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"symbol": "s.json", "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01}},
    )
    result = run_cli(["toeplitz", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 3, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "numerical" and repr(p) in error["message"]


def test_boolean_frame_shape_exits_2(tmp_path):
    (tmp_path / "frame.json").write_text(
        '{"rows": true, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}]]}'
    )
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json"})
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "validation" and error["field"] == "rows"


def test_overflowing_gram_exits_3(tmp_path):
    # finite entries whose Gram matrix overflows: every point fails, none is silently NaN
    save_frame(AnalyticFrame([[RationalFunction([1e200])], [RationalFunction([0.0, 1e200])]]), tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "grid": {"radial_count": 2, "angular_count": 8, "margin": 0.01}},
    )
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 3, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "numerical" and "16 failures" in error["message"]
