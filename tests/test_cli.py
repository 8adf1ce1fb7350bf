import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskbundle import cli
from diskbundle.bundle import AnalyticFrame, defect_field, full_bundle_curvature, gram_bounds
from diskbundle.calculus import build_grid
from diskbundle.cli import COMMANDS, _KEYS, _REQUIRED, _int, emit_heatmap, main
from diskbundle.errors import NumericalError, ParameterError
from diskbundle.rational import RationalFunction
from diskbundle.toeplitz import MatrixSymbol, toeplitz_section
from diskbundle.weights import build_spike_weight, kernel_ratio_check, spike_peak_bound, weights_from_csv
from oracles import constant_field, whole_array_kernel_diag

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
    AnalyticFrame.constant([[1.0], [0.0]]).save(path)
    return path


def test_curvature_constant_frame(tmp_path, constant_frame_file):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "grid": {"radial_count": 2, "angular_count": 4, "margin": 0.1}},
    )
    result = run_cli(["curvature", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
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
        {"epsilon": 0.1, "spike_count": 2, "length": 128},
    )
    result = run_cli(["counterexample", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["spikes"][0]["N_j"] == 10
    assert report["spikes"][1]["N_j"] == 66
    assert report["kernel_ratio"]["min"] >= 0.826446 - 1e-9
    assert (tmp_path / "out" / "weights.csv").exists()


@pytest.mark.parametrize("epsilon", [1e-17, 5e-324])
def test_counterexample_epsilon_below_alpha_resolution_exits_2(tmp_path, epsilon):
    # alpha = 1 - (1 + epsilon)^-2 rounds to 0, and the spike starts divide by it
    cfg = write_config(tmp_path / "cfg.json", {"epsilon": epsilon, "spike_count": 1, "length": 100})
    result = run_cli(["counterexample", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["type"] == "ParameterError" and error["field"] == "epsilon"
    assert result.stderr == ""
    assert not (tmp_path / "out").exists()


def test_counterexample_at_benchmark_length(tmp_path):
    # the length the benchmark runs, checked against the reparsed dump the
    # way the benchmark's output checks do
    eps, radii = 0.1, [0.0, 0.6, 0.955, 0.999, 0.9999]
    cfg = write_config(tmp_path / "cfg.json", {"epsilon": eps, "spike_count": 3, "length": 10**5, "radii": radii})
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    w = weights_from_csv(tmp_path / "out" / "weights.csv")
    assert w.length == 10**5 and w.values[0] == 1.0
    assert report["growth_max"] == float(w.values.max())
    assert report["growth_max"] == pytest.approx((1.0 + eps) ** 6, rel=1e-15, abs=0.0)
    # kernel ratios from the reparsed weights, every term summed in extended precision
    ratios = [float((1.0 - r * r) * whole_array_kernel_diag(w, r)) for r in radii]
    assert report["kernel_ratio"]["min"] == pytest.approx(min(ratios), rel=1e-14, abs=0.0)
    assert report["kernel_ratio"]["max"] == pytest.approx(max(ratios), rel=1e-14, abs=0.0)
    assert 1.0 - report["alpha"] - 1e-9 <= report["kernel_ratio"]["min"] <= report["kernel_ratio"]["max"] <= 1.0 + 1e-9


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
    frame.save(tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01}},
    )
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 3
    assert json.loads(result.stdout)["kind"] == "numerical"


def test_criteria_partial_field_reports_failures_and_writes_no_csv(tmp_path, capsys):
    # the field that makes curvature exit 3 gives criteria a partial report
    grid = build_grid(4, 16, 0.01)
    z0 = grid.points[5]
    AnalyticFrame([[RationalFunction([-z0, 1.0])]]).save(tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01}},
    )
    assert main(["criteria", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["heatmap_csv"] is None
    for key in ("gram_bounds", "green_inf", "carleson_const", "pointwise_const"):
        assert report[key] is None
    assert report["verdict"] == {"partial": True, "similar_at_grid_scale": False}
    assert report["failures"] == [
        [5, "Gram matrix condition inf exceeds cap 1e+12 (eigenvalues in [0.000e+00, 0.000e+00])"]
    ]


def test_failing_sample_leaves_no_heatmap(tmp_path, capsys):
    # the frame (lam) is nondegenerate on the grid but not at the sample lam = 0
    AnalyticFrame.from_polynomials([[0.0, 1.0]]).save(tmp_path / "frame.json")
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "grid": {"radial_count": 2, "angular_count": 8}})
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().out)["type"] == "ConditioningError"
    assert not (tmp_path / "out").exists()


def test_report_failing_after_the_csv_removes_only_this_runs_files(tmp_path, capsys, monkeypatch):
    # exit 3 from the report writer, which fails before it opens report.json
    def refuse(doc, path):
        raise NumericalError("non-finite value in report")

    monkeypatch.setattr(cli, "write_report", refuse)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.json").write_text("an earlier report\n")
    cfg = write_config(tmp_path / "cfg.json", {"epsilon": 0.1, "spike_count": 1, "length": 16})
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().out)["type"] == "NumericalError"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]
    assert (tmp_path / "out" / "report.json").read_text() == "an earlier report\n"


def test_non_finite_report_value_exits_3_and_leaves_no_files(tmp_path, capsys, monkeypatch):
    # the serializer refuses the NaN after weights.csv is written; the run removes it
    monkeypatch.setattr("diskbundle.weights.counterexample_report", lambda w, radii: {"alpha": float("nan")})
    cfg = write_config(tmp_path / "cfg.json", {"epsilon": 0.1, "spike_count": 1, "length": 16})
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == "NumericalError" and error["message"] == "non-finite value in report"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "x", [float("nan"), float("inf"), -float("inf"), np.float32("inf")], ids=["nan", "inf", "-inf", "float32-inf"]
)
def test_non_finite_report_value_is_numerical(x):
    with pytest.raises(NumericalError, match="non-finite value in report"):
        cli._json_text({"a": [1.0, x]})


def test_numpy_scalars_are_written_as_plain_json_values():
    doc = {"i": np.int64(3), "b": np.bool_(True), "f": np.float32(0.5), "g": np.float64(0.1)}
    assert cli._json_text(doc) == '{\n  "b": true,\n  "f": 0.5,\n  "g": 0.1,\n  "i": 3\n}'


def test_value_with_no_json_form_is_a_parameter_error():
    with pytest.raises(ParameterError, match="cannot serialize complex"):
        cli._json_text({"z": [1j]})


def float_tokens(text: str) -> list:
    """The float tokens of a JSON text, as written."""
    tokens = []
    json.loads(text, parse_float=lambda token: tokens.append(token) or float(token))
    return tokens


def test_report_floats_are_written_as_their_repr(tmp_path, capsys):
    AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]]).save(tmp_path / "frame.json")
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "s.json")
    grid = {"radial_count": 4, "angular_count": 16}
    payloads = {
        "curvature": {"frame": "frame.json", "grid": grid},
        "criteria": {"frame": "frame.json", "grid": grid},
        "toeplitz": {"symbol": "s.json", "second_symbol": "s.json", "grid": grid},
        "counterexample": {"epsilon": 0.1, "spike_count": 2, "length": 128},
    }
    for command, payload in payloads.items():
        cfg = write_config(tmp_path / f"{command}.json", payload)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        tokens = float_tokens((tmp_path / command / "report.json").read_text())
        assert tokens and all(token == repr(float(token)) for token in tokens), command
    assert '"M": 1000.0\n' in (tmp_path / "criteria" / "report.json").read_text()


def test_writer_failing_midway_leaves_no_part(tmp_path, capsys, monkeypatch):
    def disk_full(w, path):
        with open(path, "w") as fh:
            fh.write("n,w_n,ln_w_n\r\n0,1.0")
            fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr("diskbundle.weights.weights_to_csv", disk_full)
    cfg = write_config(tmp_path / "cfg.json", {"epsilon": 0.1, "spike_count": 1, "length": 16})
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["field"] == "--out"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, payload, written",
    [
        ("curvature", {"frame": "frame.json"}, {"report.json", "defect_field.csv"}),
        ("criteria", {"frame": "frame.json"}, {"report.json", "criteria_probes.csv"}),
        ("toeplitz", {"symbol": "s.json"}, {"report.json"}),
        ("counterexample", {"epsilon": 0.1, "spike_count": 2, "length": 128}, {"report.json", "weights.csv"}),
    ],
    ids=COMMANDS,
)
def test_reports_are_deterministic(tmp_path, constant_frame_file, command, payload, written):
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "s.json")
    cfg = write_config(tmp_path / "cfg.json", payload)
    for out in ("a", "b"):
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / out)], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert {path.name for path in (tmp_path / out).iterdir()} == written
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_toeplitz_command_scalar_symbol(tmp_path):
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "symbol.json")
    MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.3]), analytic=True).save(tmp_path / "second.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "symbol": "symbol.json",
            "second_symbol": "second.json",
            "lambda": [0.3, 0.0],
        },
    )
    result = run_cli(["toeplitz", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["multiplicativity"] <= 1e-12
    assert report["intertwining"] <= 1e-12
    assert report["kernel_action"]["discrepancy"] <= 1e-10
    assert report["inner_outer"]["disk_zeros"] == [[0.5, 0.0]]
    assert "grid" in report["margin_scope"]


def test_toeplitz_command_runs_no_svd_for_two_columns(tmp_path, monkeypatch):
    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD called")

    # numpy's own norm(x, 2) reaches svd through its implementation module
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", no_svd)
    first = [
        [RationalFunction([1.0, 0.2]), RationalFunction([0.0, 0.5])],
        [RationalFunction([0.3]), RationalFunction([1.0], [1.0, -0.4])],
    ]
    second = [
        [RationalFunction([0.5, -0.25]), RationalFunction([1.0])],
        [RationalFunction([0.0, 0.0, 1.0]), RationalFunction([2.0])],
    ]
    MatrixSymbol(first, analytic=True).save(tmp_path / "symbol.json")
    MatrixSymbol(second, analytic=True).save(tmp_path / "second.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "symbol.json", "second_symbol": "second.json"})
    assert main(["toeplitz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["margin"] > 0.0 and report["multiplicativity"] <= 1e-12


def test_criteria_probe_csv_minimum_is_green_inf(tmp_path):
    AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]]).save(tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "frame": "frame.json",
            "probe_stride": 1,
            "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01},
        },
    )
    result = run_cli(["criteria", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
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
        {"frame": "frame.json", "grid": {"radial_count": 2, "angular_count": 4, "margin": 0.1}},
    )
    result = run_cli(["curvature", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
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
        }
        assert sample["discrepancy"] <= 1e-6


def test_library_results_are_the_curvature_report(tmp_path, capsys):
    # gram_bounds and full_bundle_curvature return what curvature writes, under the same keys
    frame = AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]])
    frame.save(tmp_path / "frame.json")
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "grid": {"radial_count": 4, "angular_count": 16}})
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    grid = build_grid(4, 16, _KEYS["grid.margin"].default)
    assert report["gram_bounds"] == gram_bounds(defect_field(frame, grid))
    for sample in report["samples"]:
        lam = complex(*sample.pop("lambda"))
        assert sample == full_bundle_curvature(frame, lam)


def test_library_results_are_the_counterexample_report(tmp_path, capsys):
    # spike_peak_bound gives the report's spike rows and kernel_ratio_check its kernel_ratio, as they are
    radii = [0.0, 0.5, 0.9, 0.999]
    cfg = write_config(tmp_path / "cfg.json", {"epsilon": 0.1, "spike_count": 3, "length": 4096, "radii": radii})
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    w = build_spike_weight(0.1, 3, 4096)
    assert report["spikes"] == [spike_peak_bound(n_j, j) for j, n_j in enumerate(w.spike_starts, start=1)]
    assert report["kernel_ratio"] == kernel_ratio_check(w, radii)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"lambda": ["a", 0]}, "lambda"),
        ({"vector": [1.0]}, "vector"),
        ({"second_symbol": "tall.json"}, "second_symbol"),
        ({"second_symbol": "not_analytic.json"}, "second_symbol"),
    ],
)
def test_malformed_complex_values_exit_2(tmp_path, payload, field):
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "s.json")
    # the faults of the multiplicativity check: a 2x1 symbol does not compose with the 1x1 one, and a
    # symbol with a pole in the disk is not analytic
    tall = MatrixSymbol([[RationalFunction([1.0])], [RationalFunction([0.0, 1.0])]], analytic=True)
    tall.save(tmp_path / "tall.json")
    not_analytic = MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -2.0]), analytic=False)
    not_analytic.save(tmp_path / "not_analytic.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json", **payload})
    result = run_cli(["toeplitz", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "validation" and error["field"] == field


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
        ("criteria", {"grid": {"margin": _HUGE}}, "grid.margin"),
        # criteria reads no thresholds: the verdict's level is fixed, and the key is unknown
        ("criteria", {"thresholds": {"M": _HUGE}}, "config.thresholds"),
        ("criteria", {"thresholds": {"C": _HUGE}}, "config.thresholds"),
        ("counterexample", {"radii": [0.5, _HUGE]}, "radii"),
        ("toeplitz", {"lambda": [_HUGE, 0]}, "lambda"),
        ("counterexample", {"spike_count": 5, "length": 100}, "length"),  # the five spikes need 1661 slots
        # counterexample reads no grid and no thresholds: they are unknown keys there
        ("counterexample", {"grid": {"margin": _HUGE}}, "config.grid"),
        ("counterexample", {"thresholds": {"M": _HUGE}}, "config.thresholds"),
        ("criteria", {"probe_stride": 10**20}, "probe_stride"),  # an integer beyond int64
    ],
)
def test_integer_beyond_float_range_exits_2(tmp_path, command, payload, field):
    base = {
        "counterexample": {"epsilon": 0.1, "spike_count": 1, "length": 64},
        "toeplitz": {"symbol": "s.json"},
        "criteria": {"frame": "frame.json"},
    }
    cfg = write_config(tmp_path / "cfg.json", {**base[command], **payload})
    result = run_cli([command, "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "validation" and error["field"] == field


def test_toeplitz_margin_failure_exits_3(tmp_path):
    grid = build_grid(4, 16, 0.01)
    p = complex(grid.points[5])
    MatrixSymbol.scalar(RationalFunction([1.0], [-p, 1.0]), analytic=False).save(tmp_path / "s.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"symbol": "s.json", "grid": {"radial_count": 4, "angular_count": 16, "margin": 0.01}},
    )
    result = run_cli(["toeplitz", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 3, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "numerical" and repr(p) in error["message"]


@pytest.mark.parametrize(
    "entry, analytic",
    [
        ({"num": [[1e300, 0.0], [1e300, 0.0]], "den": [[1e-10, 0.0]]}, True),
        ({"num": [[1.0, 0.0]], "den": [[1e-320, 0.0]]}, True),
        ({"num": [[1e300, 0.0], [1e300, 0.0]], "den": [[1e-10, 0.0]]}, False),
    ],
    ids=["analytic_overflow", "analytic_subnormal_den", "general_overflow"],
)
def test_symbol_values_beyond_the_float_range_exit_3_quietly(tmp_path, entry, analytic):
    # finite coefficients whose Taylor coefficients (analytic) or values on the circle (general) overflow:
    # refused, no numpy warning
    one, zero = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}, {"num": [[0.0, 0.0]], "den": [[1.0, 0.0]]}
    doc = {"rows": 2, "cols": 2, "analytic": analytic, "entries": [[entry, zero], [zero, one]]}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json"})
    result = run_cli(["toeplitz", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 3, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["type"] == "NumericalError" and "is not finite" in error["message"]
    assert result.stderr == ""


def test_toeplitz_reads_a_pole_near_the_circle_from_converged_coefficients(tmp_path):
    # on the 512-point circle that order 64 asks for, the kernel action was 3.4 and the aliasing estimate 1.9;
    # the Taylor series samples no circle
    MatrixSymbol.scalar(RationalFunction([1.0], [-1.001, 1.0]), analytic=True).save(tmp_path / "s.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json"})
    result = run_cli(["toeplitz", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 0 and result.stderr == "", result.stdout + result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kernel_action"]["discrepancy"] <= 1e-12 and report["aliasing_estimate"] == 0.0, report


@pytest.mark.parametrize("p", [1.0001, 1 + 1e-6, 1 + 2e-8])
def test_toeplitz_reads_poles_next_to_the_circle_from_their_series(tmp_path, capsys, p):
    # each of these was refused, exit 3, while sections came from a circle capped at 2^20 points
    MatrixSymbol.scalar(RationalFunction([1.0], [-p, 1.0]), analytic=True).save(tmp_path / "s.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json", "second_symbol": "s.json"})
    assert main(["toeplitz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kernel_action"]["discrepancy"] <= 1e-13 and report["aliasing_estimate"] == 0.0, report
    # the product's coefficients reach 64; the gap, rounding, is about 2e-14 of the two sections' norms multiplied
    assert report["multiplicativity"] <= 1e-10, report


@pytest.mark.parametrize("poles, field", [((1 + 1e-6, 2.0), "symbol")], ids=["symbol"])
def test_toeplitz_names_the_symbol_whose_coefficients_do_not_converge(tmp_path, poles, field):
    # flagged not analytic, 1/(z - (1 + 1e-6)) takes the circle, which would need about 1.3e8 points
    for name, p in zip(("a.json", "b.json"), poles):
        MatrixSymbol.scalar(RationalFunction([1.0], [-p, 1.0]), analytic=False).save(tmp_path / name)
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "a.json", "second_symbol": "b.json"})
    result = run_cli(["toeplitz", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 3 and result.stderr == "", result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert (error["type"], error["field"]) == ("NumericalError", field)
    assert "coefficients of the symbol do not converge" in error["message"], error
    assert not (tmp_path / "out").exists()


def test_toeplitz_pairs_a_symbol_on_the_circle_its_section_reaches(tmp_path):
    # 1/(z - 1.001) I, which once needed a 2^17-point circle: the check takes its section from the same series
    # as the report, and the product with I from the series of the same entries
    pole, zero = RationalFunction([1.0], [-1.001, 1.0]), RationalFunction([0.0])
    MatrixSymbol([[pole, zero], [zero, pole]], analytic=True).save(tmp_path / "a.json")
    MatrixSymbol.constant(np.eye(2)).save(tmp_path / "b.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "a.json", "second_symbol": "b.json"})
    result = run_cli(["toeplitz", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
    assert result.returncode == 0 and result.stderr == "", result.stdout + result.stderr
    assert json.loads((tmp_path / "out" / "report.json").read_text())["multiplicativity"] == 0.0


def test_curvature_maps_a_failed_svd_to_numerical_error(tmp_path, capsys, monkeypatch):
    # three columns: the Gram extremes of every point come from one batched svd(R)
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    rng = np.random.default_rng(4)
    AnalyticFrame.constant(np.linalg.qr(rng.standard_normal((4, 3)))[0]).save(tmp_path / "frame.json")
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "grid": {"radial_count": 2, "angular_count": 8}})
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == "NumericalError" and error["kind"] == "numerical"
    assert "SVD did not converge" in error["message"]
    assert not (tmp_path / "out").exists()


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
    AnalyticFrame([[RationalFunction([1e200])], [RationalFunction([0.0, 1e200])]]).save(tmp_path / "frame.json")
    cfg = write_config(
        tmp_path / "cfg.json",
        {"frame": "frame.json", "grid": {"radial_count": 2, "angular_count": 8, "margin": 0.01}},
    )
    result = run_cli(["curvature", "--config", str(cfg)], cwd=tmp_path)
    assert result.returncode == 3, result.stdout + result.stderr
    error = json.loads(result.stdout)
    assert error["kind"] == "numerical" and "16 failures" in error["message"]



@pytest.mark.parametrize(
    "command, config, payload, out, field",
    [
        ("curvature", "cfg.json", {"frame": "nope.json"}, None, "frame"),
        ("criteria", "cfg.json", {"frame": "folder"}, None, "frame"),
        ("curvature", "cfg.json", {"frame": "latin1.json"}, None, "frame"),
        ("toeplitz", "cfg.json", {"symbol": "nope.json"}, None, "symbol"),
        ("toeplitz", "cfg.json", {"symbol": "s.json", "second_symbol": "folder"}, None, "second_symbol"),
        ("curvature", "cfg.json", {"frame": "frame.json"}, "taken", "--out"),
        ("curvature", "cfg.json", {"frame": "frame.json"}, "taken/out", "--out"),
        ("criteria", "folder", {}, None, "config"),
        ("criteria", "latin1.json", {}, None, "config"),
        ("curvature", "cfg.json", {"frame": "not_json.json"}, None, "frame"),
        ("criteria", "cfg.json", {"frame": "list.json"}, None, "frame"),
        ("toeplitz", "cfg.json", {"symbol": "not_json.json"}, None, "symbol"),
        ("toeplitz", "cfg.json", {"symbol": "list.json"}, None, "symbol"),
        ("toeplitz", "cfg.json", {"symbol": "s.json", "second_symbol": "not_json.json"}, None, "second_symbol"),
        ("toeplitz", "cfg.json", {"symbol": "s.json", "second_symbol": "list.json"}, None, "second_symbol"),
        ("curvature", "cfg.json", {"frame": "frame.json"}, "report_taken", "--out"),
        ("curvature", "cfg.json", {"frame": "frame.json"}, "csv_taken", "--out"),
        ("criteria", "cfg.json", {"frame": "frame.json"}, "csv_taken", "--out"),
        ("counterexample", "cfg.json", {"epsilon": 0.1, "spike_count": 1, "length": 16}, "csv_taken", "--out"),
        ("criteria", "cfg.json", {"frame": "frame.json"}, "report_taken", "--out"),
        ("counterexample", "cfg.json", {"epsilon": 0.1, "spike_count": 1, "length": 16}, "report_taken", "--out"),
    ],
    ids=[
        "frame_missing",
        "frame_directory",
        "frame_not_utf8",
        "symbol_missing",
        "second_symbol_directory",
        "out_option_is_a_file",
        "out_inside_a_file",
        "config_directory",
        "config_not_utf8",
        "frame_not_json",
        "frame_not_an_object",
        "symbol_not_json",
        "symbol_not_an_object",
        "second_symbol_not_json",
        "second_symbol_not_an_object",
        "report_is_a_directory",
        "defect_field_is_a_directory",
        "criteria_probes_is_a_directory",
        "weights_is_a_directory",
        "report_is_a_directory_after_criteria_probes",
        "report_is_a_directory_after_weights",
    ],
)
def test_unusable_file_exits_2(tmp_path, capsys, command, config, payload, out, field):
    AnalyticFrame.constant([[1.0], [0.0]]).save(tmp_path / "frame.json")
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "s.json")
    (tmp_path / "folder").mkdir()
    (tmp_path / "taken").write_text("a file, not a directory\n")
    (tmp_path / "latin1.json").write_bytes(b'{"frame": "fr\xe9me.json"}')
    (tmp_path / "not_json.json").write_text('{"rows": 1,')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "report_taken" / "report.json").mkdir(parents=True)
    for name in ("defect_field.csv", "criteria_probes.csv", "weights.csv"):
        (tmp_path / "csv_taken" / name).mkdir(parents=True)
    grid = {} if command == "counterexample" else {"grid": {"radial_count": 1, "angular_count": 4}}
    write_config(tmp_path / "cfg.json", {**payload, **grid})
    argv = [command, "--config", str(tmp_path / config)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "validation" and error["type"] == "DataError" and error["field"] == field
    # a CSV written before the report failed is removed again; nothing that was there goes
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "den, field",
    [
        ([[1.0, 0.0], [float("nan"), 0.0]], "entries[0][0].den[1]"),
        ([[float("nan"), 0.0], [1.0, 0.0]], "entries[0][0].den[0]"),
        ([[1.0, 0.0], [1e-320, 0.0]], "entries[0][0]"),
    ],
    ids=["trailing_nan", "leading_nan", "subnormal_leading"],
)
@pytest.mark.parametrize("command", ["curvature", "toeplitz"])
def test_non_finite_or_extreme_coefficient_exits_2(tmp_path, capsys, command, den, field):
    doc = {"rows": 1, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": den}]]}
    name = "frame" if command == "curvature" else "symbol"
    if name == "symbol":
        doc["analytic"] = False
    (tmp_path / "m.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", {name: "m.json", "grid": {"radial_count": 2, "angular_count": 4}})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == "DataError" and error["field"] == field


@pytest.mark.parametrize("leading", [1e-320, 1e-10], ids=["subnormal_leading", "overflowing_row"])
@pytest.mark.parametrize("command", ["curvature", "toeplitz"])
def test_unlocatable_poles_among_stacked_entries_exit_2(tmp_path, capsys, command, leading):
    # the four linear denominators share one batched eigvals; the entry whose
    # companion row -1e300/leading overflows is named, as when it stands alone
    ok = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0], [-0.25, 0.0]]}
    bad = {"num": [[1.0, 0.0]], "den": [[1e300, 0.0], [leading, 0.0]]}
    doc = {"rows": 2, "cols": 2, "entries": [[ok, ok], [bad, ok]]}
    name = "frame" if command == "curvature" else "symbol"
    if name == "symbol":
        doc["analytic"] = False
    (tmp_path / "m.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", {name: "m.json", "grid": {"radial_count": 2, "angular_count": 4}})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert (error["type"], error["field"]) == ("DataError", "entries[1][0]")
    assert error["message"] == "entries[1][0]: roots cannot be located: the companion matrix overflows"


@pytest.mark.parametrize("den", [[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], ids=["zero", "zero_pair"])
@pytest.mark.parametrize("command", ["curvature", "criteria", "toeplitz"])
def test_zero_denominator_names_its_field(tmp_path, capsys, command, den):
    doc = {"rows": 1, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": den}]]}
    name = "symbol" if command == "toeplitz" else "frame"
    if name == "symbol":
        doc["analytic"] = True
    (tmp_path / "m.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", {name: "m.json"})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == "DataError" and error["field"] == "entries[0][0].den"
    assert error["message"] == "entries[0][0].den: denominator is identically zero"


@pytest.mark.parametrize(
    "command, den, analytic, kind",
    [
        ("curvature", [[1.0, 0.0], [-2.0, 0.0]], None, "ParameterError"),
        ("toeplitz", [[1.0, 0.0], [-1.0, 0.0]], False, "SymbolError"),
        ("toeplitz", [[-0.5, 0.0], [1.0, 0.0]], True, "SymbolError"),
    ],
    ids=["frame_pole_in_disk", "symbol_pole_on_circle", "analytic_symbol_pole_in_disk"],
)
def test_refused_pole_names_its_entry(tmp_path, capsys, command, den, analytic, kind):
    doc = {"rows": 1, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": den}]]}
    name = "frame" if command == "curvature" else "symbol"
    if analytic is not None:
        doc["analytic"] = analytic
    (tmp_path / "m.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", {name: "m.json", "grid": {"radial_count": 2, "angular_count": 4}})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == kind and error["field"] == "entries[0][0]"
    assert error["message"].startswith("entries[0][0]: ")


def test_each_command_takes_the_keys_it_reads():
    """The ``cfg["..."]`` keys each ``_cmd_*`` reads, through the helpers it hands ``cfg`` to,
    are the command's rows of ``_KEYS``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def read(name):
        keys = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
                keys.add(node.slice.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
                if any(isinstance(arg, ast.Name) and arg.id == "cfg" for arg in node.args):
                    keys |= read(node.func.id)
        return keys

    for command in COMMANDS:
        table = {key for key, row in _KEYS.items() if command in row.commands}
        assert read(f"_cmd_{command}") == table, command


@pytest.mark.parametrize("key", [key for key, row in _KEYS.items() if row.parse is _int])
def test_integer_rows_refuse_beyond_int64(key):
    # numpy would raise OverflowError on such a value; every integer key needs an upper bound
    assert not _KEYS[key].ok(2**63)


@pytest.mark.parametrize(
    "command, option",
    [
        ("counterexample", "--grid-radial"),
        ("counterexample", "--margin"),
        ("curvature", "--grid-radial"),
        ("criteria", "--grid-angular"),
        ("toeplitz", "--margin"),
        ("criteria", "--truncation"),
        ("curvature", "--truncation"),
        ("toeplitz", "--truncation"),
    ],
)
def test_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, option):
    assert main([command, "--config", str(tmp_path / "cfg.json"), option, "40"]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)
    assert (error["type"], error["field"], captured.err) == ("ParameterError", option, "")
    assert f"{command} takes no option {option!r}" in error["message"]


def help_text(capsys, argv) -> str:
    """The help ``main(argv)`` prints, after checking that it holds the description, each command and the exit codes."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    text = " ".join(captured.out.split())
    assert captured.err == ""
    for command in COMMANDS:
        assert f"{command} {cli._DISPATCH[command].__doc__}" in text, command
    assert "Exit codes: 0 success, 2 invalid input, 3 numerical failure." in text
    assert "_KEYS" not in text and "_cmd_" not in text and "``" not in text
    return text


def test_help_describes_each_command_and_the_exit_codes(capsys):
    assert help_text(capsys, ["--help"]) == help_text(capsys, ["-h"])


@pytest.mark.parametrize("argv", [["criteria", "--help"], ["counterexample", "-h"]])
def test_help_after_a_command_lists_its_options(capsys, argv):
    # every command takes the same two options, so its help is the one text
    text = help_text(capsys, argv)
    assert text == help_text(capsys, ["--help"])
    assert "usage: diskbundle COMMAND --config PATH [--out DIR]" in text
    assert set(re.findall(r"--[a-z-]+", text)) == {"--config", "--out"}


@pytest.mark.parametrize(
    "argv, field",
    [
        ([], "command"),
        (["nope", "--config", "{cfg}"], "command"),
        (["--config", "{cfg}", "criteria"], "command"),
        (["criteria", "--out", "{out}"], "--config"),
        (["criteria", "--config"], "--config"),
        (["criteria", "--config", "{cfg}", "--out"], "--out"),
        (["criteria", "--config", "--out", "{out}"], "--config"),
        (["criteria", "--config", "{cfg}", "--out", "{out}", "--bogus", "1"], "--bogus"),
        (["criteria", "--config", "{cfg}", "--out", "{out}", "--bogus=1"], "--bogus"),
        (["criteria", "--config", "{cfg}", "--out", "{out}", "extra"], "extra"),
        (["counterexample", "--config", "{cfg}", "--out", "{out}", "--margin", "0.5"], "--margin"),
        (["counterexample", "--config", "{cfg}", "--out", "{out}", "--margin=0.5"], "--margin"),
        (["criteria", "--conf", "{cfg}", "--out", "{out}"], "--conf"),
        (["criteria", "--config", "{cfg}", "--out", "{out}", "--grid-rad", "3"], "--grid-rad"),
    ],
    ids=[
        "no_command", "unknown_command", "option_before_command", "missing_config", "config_without_value",
        "out_without_value", "config_followed_by_option", "unknown_option", "unknown_option_with_value",
        "positional", "option_of_another_command", "option_of_another_command_with_value", "abbreviation",
        "abbreviated_flag",
    ],
)
def test_argv_fault_exits_2_with_its_field_and_writes_nothing(tmp_path, capsys, constant_frame_file, argv, field):
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json"})
    out = tmp_path / "out"
    assert main([arg.format(cfg=cfg, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)
    assert (error["status"], error["kind"], error["type"]) == ("error", "validation", "ParameterError")
    assert (error["field"], captured.err) == (field, "")
    assert not out.exists()


def test_argv_fault_in_a_fresh_process_prints_json_and_nothing_on_stderr(tmp_path):
    result = run_cli(["criteria", "--out", str(tmp_path / "out")], cwd=tmp_path)
    assert (result.returncode, result.stderr) == (2, "")
    assert json.loads(result.stdout)["field"] == "--config"
    assert not (tmp_path / "out").exists()


def test_option_equals_value_reads_like_option_then_value(tmp_path, capsys, constant_frame_file):
    cfg = write_config(tmp_path / "cfg.json", {"frame": "frame.json", "grid": {"radial_count": 3, "margin": 0.2}})
    apart = ["--config", str(cfg), "--out", str(tmp_path / "a")]
    joined = [f"--config={cfg}", f"--out={tmp_path / 'b'}"]
    for argv in (apart, joined):
        assert main(["curvature", *argv]) == 0
    report = (tmp_path / "a" / "report.json").read_text()
    assert json.loads(report)["grid"]["radial_count"] == 3
    for name in ("report.json", "defect_field.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_repeated_option_keeps_its_last_value(tmp_path, capsys, constant_frame_file):
    five = write_config(tmp_path / "five.json", {"frame": "frame.json", "grid": {"radial_count": 5}})
    two = write_config(tmp_path / "two.json", {"frame": "frame.json", "grid": {"radial_count": 2}})
    argv = ["curvature", "--config", str(five), "--out", str(tmp_path / "x"), "--out", str(tmp_path / "y")]
    assert main([*argv, f"--config={two}", f"--out={tmp_path / 'out'}"]) == 0
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()
    assert json.loads((tmp_path / "out" / "report.json").read_text())["grid"]["radial_count"] == 2


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("curvature", {"frame": "frame.json", "thresholds": {"M": -1}}, "config.thresholds"),
        ("criteria", {"frame": "frame.json", "truncation": 8}, "config.truncation"),
        ("counterexample", {"epsilon": 0.1, "spike_count": 1, "length": 16, "truncation": 8}, "config.truncation"),
        ("curvature", {"frame": "frame.json", "truncation": 512}, "config.truncation"),
        ("toeplitz", {"symbol": "s.json", "truncation": 64}, "config.truncation"),
        ("criteria", {"thresholds": {"M": 1.0}}, "config.thresholds"),
        ("curvature", {"out_dir": "out"}, "config.out_dir"),
    ],
)
def test_key_the_command_does_not_read_exits_2(tmp_path, capsys, constant_frame_file, command, payload, field):
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == "ParameterError" and error["field"] == field
    assert not (tmp_path / "out").exists()


def test_readme_key_table_matches_config_table():
    """The README lists every config key with the table's commands, default and range,
    and its usage block the two options every command takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```\n", readme.index("## Command line")) + len("```\n")
    usage = readme[start : readme.index("```", start)]
    assert set(re.findall(r"--[a-z-]+", usage)) == set(cli._OPTIONS) == {"--config", "--out"}

    rows = {}
    for line in readme[readme.index("| key ") :].split("\n\n")[0].splitlines()[2:]:
        key, commands, default, allowed = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = (commands, default, allowed)
    assert set(rows) == set(_KEYS)
    for key, row in _KEYS.items():
        commands, default, allowed = rows[key]
        assert commands == ("all" if row.commands == COMMANDS else ", ".join(f"`{c}`" for c in row.commands)), key
        assert (default == "required") == (row.default is _REQUIRED), key
        assert allowed.endswith(row.rule), key
        value = row.default
        if isinstance(value, complex):
            value = [value.real, value.imag]
        if value is not None and value is not _REQUIRED:
            assert default.startswith(f"`{list(value) if isinstance(value, tuple) else value}`"), key


def test_readme_example_config_loads(tmp_path):
    """The README's example ``criteria`` config is one the command reads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```json\n", readme.index("## Command line")) + len("```json\n")
    (tmp_path / "cfg.json").write_text(readme[start : readme.index("```", start)])
    cfg = cli.load_config(tmp_path / "cfg.json", "criteria")
    assert cfg["frame"] == tmp_path.resolve() / "frame.json"
    assert (cfg["grid.radial_count"], cfg["grid.angular_count"], cfg["grid.margin"]) == (8, 64, 1e-3)


@pytest.mark.parametrize(
    "config, frame, field",
    [
        ('{"frame": ' + "1" * 5000 + "}", None, "config"),
        ("[" * 10000 + "]" * 10000, None, "config"),
        ('{"frame": "frame.json"}', '{"rows": ' + "1" * 5000 + "}", "frame"),
    ],
    ids=["config_integer_too_long", "config_nested_too_deep", "frame_integer_too_long"],
)
def test_json_beyond_the_reader_limits_exits_2(tmp_path, capsys, config, frame, field):
    (tmp_path / "cfg.json").write_text(config)
    if frame is not None:
        (tmp_path / "frame.json").write_text(frame)
    assert main(["curvature", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == "DataError" and error["field"] == field and "not valid JSON" in error["message"]


@pytest.mark.parametrize(
    "num, kind, message",
    [
        # the inner-outer split needs the zeros; a subnormal leading coefficient overflows their companion matrix
        ([1.0, 1e-320], "DataError", "roots cannot be located"),
        ([0.0], "ParameterError", "cannot factor the zero function"),
        ([1.0, -1.0], "BoundaryZeroError", "zero on the unit circle"),
    ],
    ids=["unlocatable", "zero", "boundary-zero"],
)
def test_unlocatable_numerator_zeros_exit_2(tmp_path, capsys, num, kind, message):
    MatrixSymbol.scalar(RationalFunction(num), analytic=True).save(tmp_path / "s.json")
    grid = {"radial_count": 2, "angular_count": 4}
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json", "grid": grid})
    assert main(["toeplitz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["type"] == kind and message in error["message"]
    assert error["field"] == "entries[0][0].num"


def test_toeplitz_run_builds_one_section(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return toeplitz_section(*args)

    monkeypatch.setattr("diskbundle.toeplitz.toeplitz_section", counted)
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "s.json")
    cfg = write_config(tmp_path / "cfg.json", {"symbol": "s.json", "second_symbol": "s.json"})
    assert main(["toeplitz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kernel_action"] is not None and report["intertwining"] is not None
    assert len(calls) == 1
