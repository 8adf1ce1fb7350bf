"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import math

import numpy as np

from diskbundle.bundle import (
    AnalyticFrame,
    defect_field,
    full_bundle_curvature,
    hs_norm_sq,
    projection,
    projection_dz,
)
from diskbundle.calculus import build_grid
from diskbundle.criteria import carleson_check, green_potential, pointwise_bound
from diskbundle.rational import RationalFunction, poly_mul
from diskbundle.toeplitz import (
    MatrixSymbol,
    intertwining_check,
    kernel_action_check,
    left_invertibility_margin,
    multiplicativity_check,
    scalar_inner_outer,
    toeplitz_section,
)
from diskbundle.weights import build_spike_weight, counterexample_report
from oracles import (
    backward_shift_apply,
    constant_field,
    hardy_line_frame,
    kernel_identities,
    projection_sample,
    wirtinger_dz,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {number:02d} {label}: FAIL")
        raise
    print(f"[acceptance] {number:02d} {label}: PASS")


def disk_points(count, radius, seed):
    rng = np.random.default_rng(seed)
    r, t = rng.random((2, count))
    return radius * np.sqrt(r) * np.exp(2j * np.pi * t)


def one_lambda_frame():
    return AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]])


def quadratic_frame():
    return AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])


def fixture_frames():
    return [
        AnalyticFrame.constant([[1.0], [0.0]]),
        AnalyticFrame.constant(np.eye(2)),
        one_lambda_frame(),
        quadratic_frame(),
    ]


def test_criterion_01_hardy_curvature():
    with criterion(1, "hardy line-bundle curvature"):
        start = time.perf_counter()
        frame = hardy_line_frame(512)
        for lam in (0.0, 0.3, 0.5 + 0.2j, 0.9 * np.exp(1j * np.pi / 7)):
            expected = (1.0 - abs(lam) ** 2) ** -2
            value = hs_norm_sq(projection_dz(frame, lam))
            assert abs(value - expected) <= 1e-6 * expected
        assert time.perf_counter() - start < 5.0


def test_criterion_02_curvature_sum():
    with criterion(2, "curvature split vs tensored total"):
        start = time.perf_counter()
        for frame in fixture_frames():
            for lam in disk_points(20, 0.9, seed=17):
                split = full_bundle_curvature(frame, lam)
                assert split["discrepancy"] <= 1e-6
            # the kernel sums are closed forms, so the two routes agree up to the rim
            for radius in (0.99, 0.999, 0.9999):
                for angle in (0.0, 1.0):
                    split = full_bundle_curvature(frame, radius * np.exp(1j * angle))
                    assert split["discrepancy"] <= 1e-14 * split["total"]
        assert time.perf_counter() - start < 30.0


def test_criterion_03_projection_identities():
    with criterion(3, "projection identities and fd agreement"):
        for frame in fixture_frames():
            for lam in disk_points(50, 0.9, seed=29):
                res = projection_sample(frame, lam).residuals()
                assert res["hermitian"] <= 1e-12
                assert res["idempotent"] <= 1e-10
                assert res["trace"] <= 1e-10
                assert res["derivative_identity"] <= 1e-9
        frame = one_lambda_frame()
        lam = 0.3 + 0.2j
        exact = projection_dz(frame, lam)

        def fd_error(h):
            fd = np.array(
                [
                    [wirtinger_dz(lambda w, i=i, j=j: projection(frame, w)[i, j], lam, h) for j in range(2)]
                    for i in range(2)
                ]
            )
            return np.max(np.abs(fd - exact))

        ratio = fd_error(1e-2) / fd_error(5e-3)
        assert 3.5 < ratio < 4.5


def test_criterion_04_hs_tensor_identity():
    with criterion(4, "Hilbert-Schmidt tensor identity"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            lhs = hs_norm_sq(np.kron(a, b))
            rhs = hs_norm_sq(a) * hs_norm_sq(b)
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_criterion_05_kernel_identities():
    with criterion(5, "kernel closed forms vs series oracle"):
        rng = np.random.default_rng(55)
        for _ in range(20):
            r, t = rng.random(2)
            lam = 0.95 * np.sqrt(r) * np.exp(2j * np.pi * t)
            x = abs(lam) ** 2
            n_terms = min(10**6, int(np.log(1e-18) / np.log(x)) + 64) if x > 0 else 64
            n = np.arange(n_terms)
            # identities hold at the conjugate parameter: coefficients lam^n
            k = lam**n
            kt = np.zeros(n_terms, dtype=complex)
            kt[1:] = n[1:] * lam ** (n[1:] - 1)
            combo = -np.conj(lam) * k + (1 - x) * kt
            ki = kernel_identities(lam)
            assert abs(ki.k_norm_sq - np.sum(np.abs(k) ** 2)) <= 1e-9 * ki.k_norm_sq
            assert abs(ki.ktilde_norm_sq - np.sum(np.abs(kt) ** 2)) <= 1e-9 * ki.ktilde_norm_sq
            assert abs(ki.mixed_inner - np.sum(kt * np.conj(k))) <= 1e-9 * max(1.0, abs(ki.mixed_inner))
            assert abs(ki.combo_norm_sq - np.sum(np.abs(combo) ** 2)) <= 1e-9 * ki.combo_norm_sq


def test_criterion_06_defect_nonnegativity():
    with criterion(6, "defect field nonnegativity"):
        grid = build_grid(8, 64, 1e-3)
        extra = AnalyticFrame.from_polynomials(
            [[1.0], [1.0 / math.factorial(kk) for kk in range(13)]]
        )
        for frame in fixture_frames() + [extra]:
            field = defect_field(frame, grid)
            assert not field.is_partial
            assert np.min(field.values) >= -1e-10


def test_criterion_07_green_anchor():
    with criterion(7, "green potential anchor at the origin"):
        grid = build_grid(8, 64, 1e-3)
        assert green_potential(constant_field(grid, 0.0), 0.0) == 0.0
        value = green_potential(constant_field(grid, 1.0), 0.0)
        assert abs(value - (-1.0)) <= 0.02


def test_criterion_08_scaling_covariance():
    with criterion(8, "criteria scaling covariance"):
        grid = build_grid(8, 64, 1e-3)
        field = defect_field(one_lambda_frame(), grid)
        scaled = field.scaled(4.0)
        g1, g4 = green_potential(field, 0.3), green_potential(scaled, 0.3)
        assert abs(g4 - 4.0 * g1) <= 1e-10 * abs(g1)
        c1, c4 = carleson_check(field, 8), carleson_check(scaled, 8)
        assert abs(c4 - 4.0 * c1) <= 1e-10 * c1
        p1, p4 = pointwise_bound(field), pointwise_bound(scaled)
        assert abs(p4 - 2.0 * p1) <= 1e-10 * p1


def test_criterion_09_toeplitz_identities():
    with criterion(9, "toeplitz identity battery"):
        shift = MatrixSymbol.scalar(RationalFunction([0.0, 1.0]), analytic=True)
        blaschke = MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True)
        cauchy = MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.3]), analytic=True)
        rng = np.random.default_rng(7)
        matrix = MatrixSymbol(
            [
                [RationalFunction(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(2)]
                for _ in range(2)
            ],
            analytic=True,
        )
        corpus = [(shift, shift), (blaschke, cauchy), (matrix, matrix), (cauchy, blaschke)]
        for f, g in corpus:
            assert multiplicativity_check(f, g, 16) <= 1e-12
        for lam in (0.5, 0.3):
            values = [kernel_action_check(toeplitz_section(blaschke, n), lam, [1.0]) for n in (24, 25, 26)]
            for a, b in zip(values, values[1:]):
                assert abs(b / a - lam) <= 0.1 * lam
        for f in (shift, blaschke, matrix):
            assert intertwining_check(toeplitz_section(f, 16)) <= 1e-12


def test_criterion_10_inner_outer():
    with criterion(10, "scalar inner-outer factorization"):
        f = RationalFunction(poly_mul([-0.5, 1.0], [1.0, -0.3]))
        split = scalar_inner_outer(f)
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.max(np.abs(np.abs(split.inner(z)) - 1.0)) <= 1e-12
        # zero-free outer: winding of the boundary curve is zero
        phases = np.angle(split.outer(np.exp(2j * np.pi * np.arange(1024) / 1024)))
        winding = round(float(np.sum(np.angle(np.exp(1j * np.diff(phases, append=phases[0]))))) / (2 * np.pi))
        assert winding == 0


def test_criterion_11_left_invertibility_margin():
    with criterion(11, "left-invertibility margin"):
        unitary = MatrixSymbol.constant([[0.0, 1.0], [1.0, 0.0]])
        assert left_invertibility_margin(unitary, build_grid(4, 16, 0.05)) == 1.0
        grid = build_grid(3, 256, 0.2)
        assert np.min(np.abs(grid.points - 0.5)) <= 1e-2  # grid reaches z = 0.5
        blaschke = MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True)
        assert left_invertibility_margin(blaschke, grid) <= 1e-2


def test_criterion_12_counterexample_build():
    with criterion(12, "spike-weight counterexample build"):
        start = time.perf_counter()
        report = counterexample_report(build_spike_weight(0.1, 2, 128), radii=(0.0, 0.5, 0.9, 0.99, 0.999))
        assert abs(report["alpha"] - 0.21 / 1.21) <= 1e-15
        assert report["spikes"][0]["N_j"] == 10
        assert report["spikes"][1]["N_j"] == 66
        assert report["ratio_check"] == (1.1) ** 2
        a1 = report["spikes"][0]["A_j"]
        assert abs(a1 - 0.032) <= 1e-4
        assert a1 <= 1 / 12 <= report["alpha"] / 2
        assert report["kernel_ratio"]["min"] >= 0.826446 - 1e-9
        assert report["kernel_ratio"]["max"] <= 1.0 + 1e-9
        assert report["growth_max"] == (1.1) ** 4
        assert time.perf_counter() - start < 60.0


def test_criterion_13_weighted_eigenvector():
    with criterion(13, "weighted backward-shift eigenvectors"):
        w = build_spike_weight(0.1, 2, 512)
        n_terms = 448
        for lam in (0.3, 0.5 + 0.2j, 0.9):
            coeffs = lam ** np.arange(n_terms) / w.values[:n_terms]
            out = backward_shift_apply(w, coeffs)
            tail_bound = abs(lam) ** n_terms + 1e-13
            assert np.max(np.abs(out - lam * coeffs[: n_terms - 1])) <= tail_bound


def test_criterion_14_cli_determinism(tmp_path):
    with criterion(14, "byte-identical CLI reports"):
        one_lambda_frame().save(tmp_path / "frame.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"frame": "frame.json"}))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for out in ("a", "b"):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "diskbundle",
                    "criteria",
                    "--config",
                    str(tmp_path / "cfg.json"),
                    "--out",
                    str(tmp_path / out),
                ],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )
            assert result.returncode == 0, result.stdout + result.stderr
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
