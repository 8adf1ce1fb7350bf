import json

import numpy as np
import pytest

from diskbundle.bundle import AnalyticFrame, DefectField, defect_field
from diskbundle import criteria
from diskbundle.calculus import TWO_PI, build_grid
from diskbundle.cli import _KEYS, main
from diskbundle.criteria import (
    carleson_check,
    default_probes,
    green_potential,
    green_sweep,
    pointwise_bound,
    similarity_verdict,
    write_probe_heatmap,
)
from diskbundle.errors import DataError, DomainError, ParameterError
from diskbundle.rational import RationalFunction

from oracles import constant_field, subcell_green_potential


@pytest.fixture(scope="module")
def grid():
    return build_grid(8, 64, 1e-3)


def one_lambda_frame():
    return AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]])


def lacunary_frame():
    coeffs = np.zeros(33)
    coeffs[0] = 0.0
    for k in range(6):
        coeffs[2**k] = 2.0**-k
    return AnalyticFrame.from_polynomials([[1.0], coeffs])


# --- Green potential ---


def test_zero_field_gives_exact_zero(grid):
    assert green_potential(constant_field(grid, 0.0), 0.0) == 0.0


def test_constant_field_anchor(grid):
    # uniform density over |z| < 0.999: exact value 2 R^2 ln R - R^2
    exact = 2 * 0.999**2 * np.log(0.999) - 0.999**2
    value = green_potential(constant_field(grid, 1.0), 0.0)
    assert abs(value - exact) <= 0.02


def test_potential_is_nonpositive(grid):
    field = defect_field(one_lambda_frame(), grid)
    for lam in (0.0, 0.3, 0.5j, -0.7, 0.9):
        assert green_potential(field, lam) <= 0.0
    assert green_potential(constant_field(grid, 1.0), 0.5) < -1e-10


def test_one_lambda_field_value_and_stability(grid):
    value = green_potential(defect_field(one_lambda_frame(), grid), 0.0)
    assert -1.0 < value < 0.0
    fine = build_grid(16, 128, 1e-3)
    value_fine = green_potential(defect_field(one_lambda_frame(), fine), 0.0)
    assert abs(value - value_fine) <= 0.05 * abs(value_fine)


def test_potential_outside_coverage(grid):
    with pytest.raises(DomainError):
        green_potential(constant_field(grid, 1.0), 0.9995)


def test_potential_refuses_partial_field(grid):
    z0 = grid.points[3]
    frame = AnalyticFrame([[RationalFunction([-z0, 1.0])]])
    field = defect_field(frame, grid)
    assert field.is_partial
    with pytest.raises(DataError):
        green_potential(field, 0.0)


def test_green_boundedness_constant_field(grid):
    field = constant_field(grid, 1.0)
    rings = [0, 2, grid.radial_count - 1]
    swept = green_sweep(field, rings)
    assert float(np.min(swept)) == min(float(np.min(green_sweep(field, [q]))) for q in rings)
    assert np.all((-1.02 <= swept) & (swept < 0.0))
    assert all(-1.02 <= green_potential(field, p) < 0.0 for p in (0.0, 0.5, 0.9))


# --- one quadrature, held to the subcell loop ---


def within_tolerance(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    return bool(np.all(np.abs(value - reference) <= 1e-12 * np.abs(reference) + 1e-15))


def assert_sweep_matches_oracle(field, rings, checked=None):
    """The sweep of ``rings`` against the subcell loop, at every swept point
    or at the positions ``checked`` of the flattened sweep."""
    count = field.grid.angular_count
    swept = green_sweep(field, rings)
    assert swept.shape == (len(rings), count)
    points = field.grid.points.reshape(-1, count)[rings].ravel()
    checked = np.arange(points.size) if checked is None else checked
    reference = np.array([subcell_green_potential(field, points[i]) for i in checked])
    assert within_tolerance(swept.ravel()[checked], reference)


def sweep_fields(sweep_grid):
    # the defect of (1, 0.3 + lam + 0.5i lam^2) is not radial, so a probe read
    # from the wrong sector of its ring shows
    skew = AnalyticFrame.from_polynomials([[1.0], [0.3, 1.0, 0.5j]])
    return (defect_field(skew, sweep_grid), constant_field(sweep_grid, 1.0), constant_field(sweep_grid, 0.0))


@pytest.mark.parametrize("shape", [(2, 8), (8, 64), (20, 64), (1, 1), (7, 30)])
def test_green_sweep_matches_scalar_potential(shape):
    sweep_grid = build_grid(*shape, 1e-3)
    # off the grid: the center, next to it, on a cell edge angle, near the rim
    off_grid = [0.0, 1e-13, 0.5 * np.exp(1j * 3 * TWO_PI / shape[1]), 0.998]
    for field in sweep_fields(sweep_grid):
        assert_sweep_matches_oracle(field, np.arange(sweep_grid.radial_count))
        for lam in off_grid:
            assert within_tolerance(green_potential(field, lam), subcell_green_potential(field, lam))


def test_green_sweep_default_probes():
    sweep_grid = build_grid(7, 30, 1e-3)
    for stride in (1, 3):
        rings = default_probes(sweep_grid, stride)
        assert np.array_equal(rings, np.arange(0, 7, stride))
        for field in sweep_fields(sweep_grid):
            assert_sweep_matches_oracle(field, rings)


@pytest.mark.parametrize("shape", [(12, 256), (16, 512)])
def test_green_sweep_sampled_on_fine_grids(shape):
    sweep_grid = build_grid(*shape, 1e-3)
    rng = np.random.default_rng(7)
    rings = rng.choice(sweep_grid.radial_count, size=2, replace=False)
    checked = rng.choice(2 * sweep_grid.angular_count, size=10, replace=False)
    for field in sweep_fields(sweep_grid)[:2]:
        assert_sweep_matches_oracle(field, rings, checked)


def test_green_sweep_mixed_probe_list(grid):
    # out of order and repeated: a repeated ring gives the same row
    field = sweep_fields(grid)[0]
    swept = green_sweep(field, [3, 0, 3])
    assert np.array_equal(swept[0], swept[2])
    assert np.array_equal(swept, green_sweep(field, [3, 0, 3, 5])[:3])
    assert_sweep_matches_oracle(field, [3, 0, 3])


def no_stencil(*args):
    raise AssertionError("the sweep started before validating its rings")


def test_green_sweep_refuses_probe_outside_grid(grid, monkeypatch):
    monkeypatch.setattr(criteria, "_green_stencil", no_stencil)
    for rings in ([0, 5, grid.radial_count, 1], [0, -1]):
        with pytest.raises(DomainError):
            green_sweep(constant_field(grid, 1.0), rings)


def test_green_sweep_refuses_non_integer_index(grid, monkeypatch):
    monkeypatch.setattr(criteria, "_green_stencil", no_stencil)
    for rings in ([0.0, 5.0], [0, 5.5], [grid.points[5]], [True, False], [[0, 1]]):
        with pytest.raises(ParameterError):
            green_sweep(constant_field(grid, 1.0), rings)


def test_green_sweep_refuses_partial_field(grid, monkeypatch):
    z0 = grid.points[3]
    field = defect_field(AnalyticFrame([[RationalFunction([-z0, 1.0])]]), grid)
    monkeypatch.setattr(criteria, "_green_stencil", lambda *args: pytest.fail("stencil built for a partial field"))
    with pytest.raises(DataError):
        green_sweep(field, [0, 5])


# --- pointwise bound ---


def test_pointwise_zero_field(grid):
    assert pointwise_bound(constant_field(grid, 0.0)) == 0.0


def test_pointwise_one_lambda(grid):
    assert pointwise_bound(defect_field(one_lambda_frame(), grid)) <= 1.0


def test_pointwise_full_shift_curvature(grid):
    # density (1-|z|^2)^-2 gives sqrt * (1-|z|) = 1/(1+|z|)
    field = DefectField(grid, values=(1 - np.abs(grid.points) ** 2) ** -2)
    value = pointwise_bound(field)
    assert 0.5 <= value <= 1.0
    expected = 1.0 / (1.0 + np.min(np.abs(grid.points)))
    assert abs(value - expected) < 1e-12


# --- Carleson ---


def test_carleson_check_delegates(grid):
    field = defect_field(one_lambda_frame(), grid)
    from diskbundle.calculus import carleson_constant

    assert carleson_check(field, 6) == carleson_constant(field.values, grid, 6)


def test_carleson_refinement_stability():
    coarse = build_grid(8, 64, 1e-3)
    fine = build_grid(16, 128, 1e-3)
    a = carleson_check(defect_field(one_lambda_frame(), coarse), 8)
    b = carleson_check(defect_field(one_lambda_frame(), fine), 8)
    assert abs(a - b) <= 0.05 * max(a, b)


# --- scaling covariance ---


def test_scaling_covariance(grid):
    field = defect_field(one_lambda_frame(), grid)
    scaled = field.scaled(4.0)
    for lam in (0.0, 0.4 + 0.3j):
        g1, g4 = green_potential(field, lam), green_potential(scaled, lam)
        assert abs(g4 - 4.0 * g1) <= 1e-10 * abs(g1)
    c1, c4 = carleson_check(field, 6), carleson_check(scaled, 6)
    assert abs(c4 - 4.0 * c1) <= 1e-10 * c1
    p1, p4 = pointwise_bound(field), pointwise_bound(scaled)
    assert abs(p4 - 2.0 * p1) <= 1e-10 * p1


# --- verdict ---

#: probe stride and Carleson depth at the command line's defaults
CLI_DEFAULTS = (_KEYS["probe_stride"].default, _KEYS["max_depth"].default)


def test_verdict_constant_frame(grid):
    report, _ = similarity_verdict(AnalyticFrame.constant([[1.0], [0.0]]), grid, *CLI_DEFAULTS)
    assert report["green_inf"] == 0.0
    assert report["carleson_const"] == 0.0
    assert report["pointwise_const"] == 0.0
    assert report["verdict"]["similar_at_grid_scale"]
    assert set(report) == {
        "gram_bounds",
        "green_inf",
        "carleson_const",
        "pointwise_const",
        "verdict",
        "grid",
        "thresholds",
    }


def test_verdict_one_lambda(grid):
    report, _ = similarity_verdict(one_lambda_frame(), grid, *CLI_DEFAULTS)
    assert report["verdict"]["similar_at_grid_scale"]
    assert report["gram_bounds"]["c_min"] > 0
    assert np.isfinite(report["green_inf"])
    assert np.isfinite(report["carleson_const"])
    assert np.isfinite(report["pointwise_const"])


def test_verdict_partial_field(grid):
    z0 = grid.points[3]
    frame = AnalyticFrame([[RationalFunction([-z0, 1.0])]])
    report, probed = similarity_verdict(frame, grid, *CLI_DEFAULTS)
    assert report["verdict"]["partial"]
    assert not report["verdict"]["similar_at_grid_scale"]
    assert report["green_inf"] is None
    assert report["failures"]
    assert probed is None


def test_verdict_lacunary_exploratory(grid):
    # no ground-truth claim here: the report just has to exist and be finite
    report, _ = similarity_verdict(lacunary_frame(), grid, *CLI_DEFAULTS)
    assert not report["verdict"]["partial"]
    for key in ("green_inf", "carleson_const", "pointwise_const"):
        assert np.isfinite(report[key])


def test_boundedness_follows_from_carleson_and_pointwise(grid):
    # regression property over the fixture frames: whenever the Carleson and
    # pointwise constants are finite, the probe minimum is finite as well
    for frame in (AnalyticFrame.constant([[1.0], [0.0]]), one_lambda_frame(), lacunary_frame()):
        report, _ = similarity_verdict(frame, grid, *CLI_DEFAULTS)
        assert np.isfinite(report["carleson_const"])
        assert np.isfinite(report["pointwise_const"])
        assert np.isfinite(report["green_inf"])


def test_library_report_is_the_command_report(tmp_path, capsys):
    # what the library returns is what criteria writes, less the command's own keys
    frame = one_lambda_frame()
    frame.save(tmp_path / "frame.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"frame": "frame.json"}))
    assert main(["criteria", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (written.pop("command"), written.pop("heatmap_csv")) == ("criteria", "criteria_probes.csv")
    grid = build_grid(*(_KEYS[f"grid.{key}"].default for key in ("radial_count", "angular_count", "margin")))
    report, _ = similarity_verdict(frame, grid, *CLI_DEFAULTS)
    assert report == written


def test_probe_heatmap(tmp_path, grid):
    field = defect_field(one_lambda_frame(), grid)
    rings = default_probes(grid, 4)
    swept = green_sweep(field, rings)
    path = tmp_path / "probes.csv"
    write_probe_heatmap(field, rings, path, swept)
    lines = path.read_text().splitlines()
    assert lines[0] == "re,im,defect,green_potential"
    index = [q * grid.angular_count + k for q in rings for k in range(grid.angular_count)]
    for line, i, potential in zip(lines[1:], index, swept.ravel(), strict=True):
        re, im, defect, green = (float(part) for part in line.split(","))
        assert complex(re, im) == grid.points[i]
        assert defect == field.values[i]
        assert green == potential
