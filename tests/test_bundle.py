import math

import numpy as np
import pytest

from diskbundle.bundle import (
    AnalyticFrame,
    _truncated_power_sums,
    constant_field,
    curvature_defect,
    defect_field,
    full_bundle_curvature,
    gram,
    gram_bounds,
    hardy_line_frame,
    hs_norm_sq,
    load_frame,
    projection,
    projection_dz,
    projection_sample,
    save_frame,
)
from diskbundle.calculus import build_grid, laplacian, wirtinger_dz
from diskbundle.errors import AccuracyError, ConditioningError, DataError, ParameterError
from diskbundle.rational import RationalFunction, poly_from_roots


def one_lambda_frame():
    return AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]])  # column (1, lam)


def quadratic_frame():
    return AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])


def exp_taylor_frame(degree=12):
    coeffs = [1.0 / math.factorial(k) for k in range(degree + 1)]
    return AnalyticFrame.from_polynomials([[1.0], coeffs])


def gauge_frame():
    """``(1, lam)^T (1 - lam/1.05)^-6``: large ``|F'|``, defect ``(1 + |lam|^2)^-2``."""
    den = poly_from_roots([1.05] * 6, leading=(-1 / 1.05) ** 6)
    return AnalyticFrame([[RationalFunction([1.0], den)], [RationalFunction([0.0, 1.0], den)]])


def seeded_rational_frame(rows, cols, seed):
    """Orthonormal constant block plus ``c lam + b / (lam - p)`` with ``1.5 <= |p| <= 3``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            p = rng.uniform(1.5, 3.0) * np.exp(2j * np.pi * rng.random())
            b, c = 0.04 * np.exp(2j * np.pi * rng.random(2))
            row.append(RationalFunction([b - q[i, j] * p, q[i, j] - c * p, c], [-p, 1.0]))
        entries.append(row)
    return AnalyticFrame(entries)


def near_cap_frame(grid, passing, failing):
    """Columns ``(1, lam, 0)`` and ``(0, 0, (lam - a)(lam - b))``.

    ``a`` sits 3e-6 from grid point ``passing`` (Gram condition about 2e11,
    under the cap) and ``b`` on grid point ``failing`` (singular Gram). The
    columns stay orthogonal, so the scalar path is accurate next to the cap.
    """
    a, b = grid.points[passing] + 3e-6, grid.points[failing]
    e = RationalFunction([0.0])
    return AnalyticFrame(
        [
            [RationalFunction([1.0]), e],
            [RationalFunction([0.0, 1.0]), e],
            [e, RationalFunction(poly_from_roots([a, b]))],
        ]
    )


def scalar_defect_field(frame, grid):
    """The per-point loop the batched field replaced: values and failures."""
    values = np.full(grid.n, np.nan)
    failures = []
    for i, z in enumerate(grid.points):
        try:
            values[i] = curvature_defect(frame, z)
        except ConditioningError as exc:
            failures.append((i, str(exc)))
    return values, tuple(failures)


def assert_matches_scalar(field, frame):
    values, failures = scalar_defect_field(frame, field.grid)
    assert field.failures == failures
    ok = np.isfinite(values)
    assert np.array_equal(ok, np.isfinite(field.values))
    gap = np.abs(field.values[ok] - values[ok])
    assert np.all(gap <= 1e-12 * np.abs(values[ok]) + 1e-14)


def random_disk_points(count, radius, seed):
    rng = np.random.default_rng(seed)
    r, t = rng.random((2, count))
    return radius * np.sqrt(r) * np.exp(2j * np.pi * t)


# --- frame construction and validation ---


def test_frame_rejects_pole_in_disk():
    with pytest.raises(ParameterError):
        AnalyticFrame([[RationalFunction([1.0], [1.0, -2.0])]])  # pole at 0.5


def test_frame_rejects_ragged_rows():
    with pytest.raises(ParameterError):
        AnalyticFrame([[RationalFunction([1.0])], [RationalFunction([1.0]), RationalFunction([1.0])]])


def test_frame_json_round_trip(tmp_path):
    frame = AnalyticFrame(
        [
            [RationalFunction([1.0, 0.5j], [1.0, 0.0, -0.2])],
            [RationalFunction([0.0, 1.0])],
        ]
    )
    path = tmp_path / "frame.json"
    save_frame(frame, path)
    back = load_frame(path)
    for row_a, row_b in zip(frame.entries, back.entries):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a.num, b.num)
            assert np.array_equal(a.den, b.den)


def test_frame_json_validation_field_names(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[{"den": [[1.0, 0.0]]}]]}')
    with pytest.raises(DataError) as err:
        load_frame(path)
    assert "entries[0][0]" in str(err.value)


# --- gram / projection ---


def test_frame_exact_derivative_matches_wirtinger():
    frame = AnalyticFrame(
        [
            [RationalFunction([1.0, 0.0, 2.0], [1.0, 0.0, -0.3])],
            [RationalFunction([0.0, 1.0, 0.5])],
        ]
    )
    lam = 0.35 - 0.2j
    exact = frame.eval_dz(lam)
    for i in range(2):
        fd = wirtinger_dz(lambda w, i=i: frame.eval(w)[i, 0], lam, 1e-4)
        assert abs(fd - exact[i, 0]) < 1e-7


def test_gram_examples():
    assert abs(gram(one_lambda_frame(), 0.5)[0, 0] - 1.25) < 1e-15
    eye = AnalyticFrame.constant(np.eye(2))
    assert np.allclose(gram(eye, 0.3 + 0.1j), np.eye(2))
    assert abs(gram(quadratic_frame(), 0.0)[0, 0] - 1.0) < 1e-15


def test_projection_examples():
    basis = AnalyticFrame.constant([[1.0], [0.0]])
    assert np.allclose(projection(basis, 0.2), np.diag([1.0, 0.0]))
    expected = np.array([[0.8, 0.4], [0.4, 0.2]])
    assert np.allclose(projection(one_lambda_frame(), 0.5), expected, atol=1e-14)
    assert np.allclose(projection(one_lambda_frame(), 0.0), np.diag([1.0, 0.0]), atol=1e-15)


def test_projection_dz_examples():
    const = AnalyticFrame.constant([[1.0], [0.0]])
    assert np.allclose(projection_dz(const, 0.4), 0.0)
    expected = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(projection_dz(one_lambda_frame(), 0.0), expected, atol=1e-15)


def test_projection_dz_matches_finite_differences():
    frame = one_lambda_frame()
    lam = 0.3 + 0.2j
    exact = projection_dz(frame, lam)
    fd = np.empty_like(exact)
    for i in range(2):
        for j in range(2):
            fd[i, j] = wirtinger_dz(lambda w, i=i, j=j: projection(frame, w)[i, j], lam, 1e-4)
    assert np.max(np.abs(fd - exact)) < 1e-7


def test_finite_difference_error_halves_like_h_squared():
    frame = quadratic_frame()
    lam = 0.25 + 0.15j
    exact = projection_dz(frame, lam)

    def fd_error(h):
        fd = np.array(
            [
                [wirtinger_dz(lambda w, i=i, j=j: projection(frame, w)[i, j], lam, h) for j in range(3)]
                for i in range(3)
            ]
        )
        return np.max(np.abs(fd - exact))

    ratio = fd_error(1e-2) / fd_error(5e-3)
    assert 3.5 < ratio < 4.5


def test_ill_conditioned_gram_is_reported():
    # column vanishes at 0.5; the Gram matrix is singular there
    frame = AnalyticFrame.from_polynomials([[-0.5, 1.0]])
    with pytest.raises(ConditioningError):
        projection(frame, 0.5)


def test_projection_sample_invariants():
    frames = [one_lambda_frame(), quadratic_frame(), AnalyticFrame.constant(np.eye(3)[:, :2])]
    for frame in frames:
        for lam in random_disk_points(50, 0.9, seed=hash(frame.rows) % 1000):
            res = projection_sample(frame, lam).residuals()
            assert res["hermitian"] <= 1e-12
            assert res["idempotent"] <= 1e-10
            assert res["trace"] <= 1e-10
            assert res["derivative_identity"] <= 1e-9


# --- Hilbert-Schmidt norm ---


def test_hs_norm_examples():
    assert hs_norm_sq(np.eye(3)) == 3.0
    assert hs_norm_sq(np.array([[0.0, 0.0], [1.0, 0.0]])) == 1.0


def test_hs_norm_tensor_multiplicativity():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = hs_norm_sq(np.kron(a, b))
        rhs = hs_norm_sq(a) * hs_norm_sq(b)
        assert abs(lhs - rhs) <= 1e-12 * rhs


# --- curvature ---


def test_curvature_defect_examples():
    const = AnalyticFrame.constant([[1.0], [0.0]])
    assert curvature_defect(const, 0.3) == 0.0
    assert abs(curvature_defect(one_lambda_frame(), 0.0) - 1.0) < 1e-14
    assert abs(curvature_defect(one_lambda_frame(), 0.5) - 0.64) < 1e-14


def test_curvature_defect_closed_form():
    frame = one_lambda_frame()
    for lam in random_disk_points(10, 0.9, seed=2):
        expected = (1 + abs(lam) ** 2) ** -2
        assert abs(curvature_defect(frame, lam) - expected) < 1e-12


def test_curvature_equals_laplacian_of_log_det_gram():
    frames = [one_lambda_frame(), quadratic_frame(), exp_taylor_frame()]
    for frame in frames:
        for lam in random_disk_points(5, 0.7, seed=frame.rows):
            oracle = laplacian(
                lambda w: float(np.log(np.linalg.det(gram(frame, w)).real)), lam, 1e-3
            )
            assert abs(curvature_defect(frame, lam) - oracle) < 1e-5


def test_full_curvature_examples():
    const1 = AnalyticFrame.constant([[1.0], [0.0]])
    split = full_bundle_curvature(const1, 0.0, 128)
    assert (split.total, split.shift_part, split.defect) == (1.0, 1.0, 0.0)
    assert split.discrepancy < 1e-12

    split = full_bundle_curvature(one_lambda_frame(), 0.5, 512)
    assert abs(split.shift_part - 16 / 9) < 1e-14
    assert abs(split.defect - 0.64) < 1e-14
    assert abs(split.total - (16 / 9 + 0.64)) < 1e-13
    assert split.discrepancy < 1e-12

    const2 = AnalyticFrame.constant(np.eye(2))
    split = full_bundle_curvature(const2, 0.5, 512)
    assert abs(split.total - 32 / 9) < 1e-13
    assert split.defect == 0.0


def test_truncated_power_sums_closed_forms():
    for x, n in ((0.0, 2), (0.25, 3), (0.25, 512), (0.81, 64), (0.9, 200)):
        k = np.arange(n + 4000, dtype=float)
        terms = (x**k, k * x ** np.maximum(k - 1, 0), k * k * x ** np.maximum(k - 1, 0))
        sums, tails = _truncated_power_sums(x, n)
        for total, tail, series in zip(sums, tails, terms):
            assert abs(total - math.fsum(series[:n])) <= 1e-14 * total
            assert tail >= 0.0
            assert abs(tail - math.fsum(series[n:])) <= 1e-13 * tail


def test_full_curvature_reports_the_exact_tail():
    split = full_bundle_curvature(one_lambda_frame(), 0.9, 200)
    x, n = 0.81, 200
    k = np.arange(n, n + 4000, dtype=float)
    assert abs(split.truncation_tail - math.fsum(k * k * x ** (k - 1))) <= 1e-13 * split.truncation_tail
    assert full_bundle_curvature(one_lambda_frame(), 0.0, 512).truncation_tail == 0.0


def test_full_curvature_truncation_guard():
    with pytest.raises(AccuracyError):
        full_bundle_curvature(one_lambda_frame(), 0.999, 128)


def test_hardy_line_frame_curvature_converges():
    lam = 0.9
    expected = (1 - lam**2) ** -2
    errors = []
    for n in (64, 256, 512):
        value = hs_norm_sq(projection_dz(hardy_line_frame(n), lam))
        errors.append(abs(value - expected) / expected)
    assert errors[0] > errors[-1]
    assert errors[-1] <= 1e-6


# --- grid sweeps ---


def test_gram_bounds_identity():
    grid = build_grid(3, 8, 0.1)
    bounds = gram_bounds(AnalyticFrame.constant(np.eye(2)), grid)
    assert bounds.c_min == 1.0 and bounds.c_max == 1.0


def test_gram_bounds_one_lambda():
    grid = build_grid(8, 64, 1e-3)
    bounds = gram_bounds(one_lambda_frame(), grid)
    assert 1.0 <= bounds.c_min <= 1.1
    assert 1.9 <= bounds.c_max <= 2.0


def test_gram_bounds_degenerate_frame():
    grid = build_grid(8, 64, 1e-3)
    frame = AnalyticFrame([[RationalFunction([0.0, 1.0])], [RationalFunction([0.0])]])
    bounds = gram_bounds(frame, grid)
    min_r = np.min(np.abs(grid.points))
    assert abs(bounds.c_min - min_r**2) < 1e-12


def test_defect_field_constant_frame_is_zero():
    grid = build_grid(4, 16, 0.01)
    field = defect_field(AnalyticFrame.constant([[1.0], [0.0]]), grid)
    assert not field.is_partial
    assert np.all(field.values == 0.0)


def test_defect_field_matches_closed_form():
    grid = build_grid(8, 64, 1e-3)
    field = defect_field(one_lambda_frame(), grid)
    expected = (1 + np.abs(grid.points) ** 2) ** -2
    assert np.max(np.abs(field.values - expected)) < 1e-12


def test_defect_field_entire_entry():
    grid = build_grid(6, 32, 1e-2)
    field = defect_field(exp_taylor_frame(), grid)
    assert not field.is_partial
    assert np.all(np.isfinite(field.values))
    assert np.all(field.values > 0)


def test_defect_field_collects_failures():
    grid = build_grid(4, 16, 0.01)
    z0 = grid.points[5]
    frame = AnalyticFrame([[RationalFunction([-z0, 1.0])]])  # column vanishes at a grid point
    field = defect_field(frame, grid)
    assert field.is_partial
    assert any(i == 5 for i, _ in field.failures)
    # same indices and messages as the scalar path, NaN only there
    assert_matches_scalar(field, frame)
    assert np.flatnonzero(np.isnan(field.values)).tolist() == [i for i, _ in field.failures]


@pytest.mark.parametrize(
    "make_frame, grid_shape",
    [
        (one_lambda_frame, (8, 64)),
        (quadratic_frame, (8, 64)),
        (exp_taylor_frame, (6, 32)),
        (lambda: hardy_line_frame(64), (8, 32)),
        (lambda: seeded_rational_frame(12, 2, seed=5), (16, 64)),
        (gauge_frame, (8, 64)),
    ],
    ids=["one_lambda", "quadratic", "exp_taylor", "hardy_64", "rational_12x2", "gauge"],
)
def test_defect_field_matches_scalar_oracle(make_frame, grid_shape):
    grid = build_grid(*grid_shape, 1e-3)
    frame = make_frame()
    field = defect_field(frame, grid)
    assert not field.is_partial
    assert_matches_scalar(field, frame)


def test_defect_field_gauge_frame_closed_form():
    grid = build_grid(8, 64, 1e-3)
    field = defect_field(gauge_frame(), grid)
    expected = (1 + np.abs(grid.points) ** 2) ** -2
    assert np.max(np.abs(field.values - expected) / expected) <= 1e-12


def test_defect_field_near_condition_cap():
    grid = build_grid(4, 16, 0.01)
    frame = near_cap_frame(grid, passing=21, failing=40)
    eigs = np.linalg.eigvalsh(gram(frame, grid.points[21]))
    assert 1e10 < eigs[-1] / eigs[0] < 1e12
    field = defect_field(frame, grid)
    assert [i for i, _ in field.failures] == [40]
    assert_matches_scalar(field, frame)
    ok = np.isfinite(field.values)
    expected = (1 + np.abs(grid.points[ok]) ** 2) ** -2
    assert np.max(np.abs(field.values[ok] - expected) / expected) <= 1e-12


def test_defect_field_refuses_non_finite_values():
    # the Gram matrix overflows although every entry is a finite float
    grid = build_grid(2, 8, 0.01)
    frame = AnalyticFrame([[RationalFunction([1e200])], [RationalFunction([0.0, 1e200])]])
    field = defect_field(frame, grid)
    assert [i for i, _ in field.failures] == list(range(grid.n))
    assert "not finite" in field.failures[0][1]
    assert np.all(np.isnan(field.values))


def test_gram_bounds_match_pointwise_eigvalsh():
    grid = build_grid(8, 32, 1e-3)
    for frame in (quadratic_frame(), seeded_rational_frame(12, 2, seed=5), gauge_frame()):
        eigs = np.array([np.linalg.eigvalsh(gram(frame, z)) for z in grid.points])
        bounds = gram_bounds(frame, grid)
        assert abs(bounds.c_min - eigs[:, 0].min()) <= 1e-12 * eigs[:, 0].min()
        assert abs(bounds.c_max - eigs[:, -1].max()) <= 1e-12 * eigs[:, -1].max()


def test_defect_field_rejects_negative_values():
    grid = build_grid(2, 4, 0.1)
    with pytest.raises(DataError):
        constant_field(grid, -1.0)
