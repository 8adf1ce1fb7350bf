import math

import numpy as np
import pytest

from diskbundle import rational
from diskbundle.bundle import (
    CONDITION_CAP,
    AnalyticFrame,
    curvature_defect,
    defect_field,
    full_bundle_curvature,
    gram_bounds,
    load_frame,
)
from diskbundle.calculus import build_grid
from diskbundle.criteria import carleson_check, default_probes, green_potential
from diskbundle.errors import ConditioningError, DataError, DomainError, ParameterError
from diskbundle.kernels import weighted_kernel_diag_certified
from diskbundle.rational import RationalFunction, poly_from_roots
from diskbundle.toeplitz import MatrixSymbol, kernel_action_check, multiplicativity_check, toeplitz_section
from diskbundle.weights import build_spike_weight, shift_growth_witness, spike_peak_bound
from oracles import (
    benchmark_file,
    constant_field,
    entrywise_jet,
    gram,
    hardy_line_frame,
    hs_norm_sq,
    lapack_defect_field,
    laplacian,
    projection,
    projection_dz,
    projection_sample,
    scalar_curvature_defect,
    wirtinger_dz,
)


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
    columns stay orthogonal, so the LAPACK oracle is accurate next to the cap.
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


def cap_crossing_frame(grid, center):
    """Columns ``(1, lam, 0)`` and ``(0, 0, 2e-6 (lam - a))``, ``a`` next to
    grid point ``center``: the Gram condition, ``(1 + |lam|^2)`` over
    ``|2e-6 (lam - a)|^2``, crosses the cap about 0.5 from ``a``. The Gram
    matrix is diagonal, so its eigenvalues are exact on every route."""
    a = grid.points[center] + 1e-3
    e = RationalFunction([0.0])
    return AnalyticFrame(
        [[RationalFunction([1.0]), e], [RationalFunction([0.0, 1.0]), e], [e, RationalFunction([-2e-6 * a, 2e-6])]]
    )


def zero_column_frame(zero_first):
    """``(1, lam)`` beside a zero column."""
    zero = RationalFunction([0.0])
    column = [RationalFunction([1.0]), RationalFunction([0.0, 1.0])]
    return AnalyticFrame([[zero, e] if zero_first else [e, zero] for e in column])


def pointwise_defect_field(defect, frame, grid):
    """``defect(frame, z)`` at every grid point: values, and failures as
    ``(index, message)`` with NaN there."""
    values = np.full(grid.n, np.nan)
    failures = []
    for i, z in enumerate(grid.points):
        try:
            values[i] = defect(frame, z)
        except ConditioningError as exc:
            failures.append((i, str(exc)))
    return values, tuple(failures)


def scalar_defect_field(frame, grid):
    """The per-point loop of the LAPACK oracle: values and failures."""
    return pointwise_defect_field(scalar_curvature_defect, frame, grid)


def assert_matches_scalar(field, frame):
    values, failures = scalar_defect_field(frame, field.grid)
    assert field.failures == failures
    ok = np.isfinite(values)
    assert np.array_equal(ok, np.isfinite(field.values))
    gap = np.abs(field.values[ok] - values[ok])
    assert np.all(gap <= 1e-12 * np.abs(values[ok]) + 1e-14)


def assert_matches_lapack(field, frame):
    """Same failures as the batched LAPACK field, and its values and Gram
    extremes at every other point within 1e-12 relative plus 1e-14."""
    values, failures, lo, hi = lapack_defect_field(frame, field.grid)
    assert field.failures == failures
    ok = np.isfinite(values)
    assert np.array_equal(ok, np.isfinite(field.values))
    for got, want in ((field.values, values), (field.gram_lo, lo), (field.gram_hi, hi)):
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.abs(want[ok]) + 1e-14)


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
    frame.save(path)
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
    exact = frame.eval_jet(lam)[1]
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
    split = full_bundle_curvature(const1, 0.0)
    assert (split["total"], split["shift_part"], split["defect"]) == (1.0, 1.0, 0.0)
    assert split["discrepancy"] < 1e-12

    split = full_bundle_curvature(one_lambda_frame(), 0.5)
    assert abs(split["shift_part"] - 16 / 9) < 1e-14
    assert abs(split["defect"] - 0.64) < 1e-14
    assert abs(split["total"] - (16 / 9 + 0.64)) < 1e-13
    assert split["discrepancy"] < 1e-12

    const2 = AnalyticFrame.constant(np.eye(2))
    split = full_bundle_curvature(const2, 0.5)
    assert abs(split["total"] - 32 / 9) < 1e-13
    assert split["defect"] == 0.0


def test_full_curvature_evaluates_the_frame_once_per_lambda(monkeypatch):
    """Both routes share one ``eval_jet``; the defect is
    ``curvature_defect``'s value to the bit and within 1e-14 relative of
    the LAPACK oracle's."""
    frame = seeded_rational_frame(3, 2, seed=7)
    calls = []
    for name in ("eval", "eval_jet"):
        method = getattr(frame, name)
        monkeypatch.setattr(frame, name, lambda lam, name=name, method=method: calls.append(name) or method(lam))
    for lam in (0.0, 0.5, 0.3 - 0.6j):
        calls.clear()
        split = full_bundle_curvature(frame, lam)
        assert calls == ["eval_jet"]
        assert split["defect"] == curvature_defect(frame, lam)
        oracle = scalar_curvature_defect(frame, lam)
        assert abs(split["defect"] - oracle) <= 1e-14 * oracle


def test_hardy_line_frame_curvature_converges():
    lam = 0.9
    expected = (1 - lam**2) ** -2
    errors = []
    for n in (64, 256, 512):
        value = curvature_defect(hardy_line_frame(n), lam)
        errors.append(abs(value - expected) / expected)
    assert errors[0] > errors[-1]
    assert errors[-1] <= 1e-6


# --- grid sweeps ---


def test_gram_bounds_identity():
    grid = build_grid(3, 8, 0.1)
    bounds = gram_bounds(defect_field(AnalyticFrame.constant(np.eye(2)), grid))
    assert bounds["c_min"] == 1.0 and bounds["c_max"] == 1.0


def test_gram_bounds_one_lambda():
    grid = build_grid(8, 64, 1e-3)
    bounds = gram_bounds(defect_field(one_lambda_frame(), grid))
    assert 1.0 <= bounds["c_min"] <= 1.1
    assert 1.9 <= bounds["c_max"] <= 2.0


def test_gram_bounds_degenerate_frame():
    grid = build_grid(8, 64, 1e-3)
    frame = AnalyticFrame([[RationalFunction([0.0, 1.0])], [RationalFunction([0.0])]])
    bounds = gram_bounds(defect_field(frame, grid))
    min_r = np.min(np.abs(grid.points))
    assert abs(bounds["c_min"] - min_r**2) < 1e-12


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
    # same indices and messages as the LAPACK oracle at each point, NaN only there
    assert_matches_scalar(field, frame)
    assert_matches_lapack(field, frame)
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
        (lambda: seeded_rational_frame(3, 2, seed=1), (20, 64)),
        (lambda: seeded_rational_frame(5, 3, seed=3), (8, 64)),
        (lambda: seeded_rational_frame(4, 4, seed=4), (4, 16)),
    ],
    ids=[
        "one_lambda", "quadratic", "exp_taylor", "hardy_64", "rational_12x2", "gauge",
        "rational_3x2", "rational_5x3", "rational_4x4",
    ],
)
def test_defect_field_matches_scalar_oracle(make_frame, grid_shape):
    grid = build_grid(*grid_shape, 1e-3)
    frame = make_frame()
    field = defect_field(frame, grid)
    assert not field.is_partial
    assert_matches_scalar(field, frame)
    assert_matches_lapack(field, frame)


@pytest.mark.parametrize(
    "make_frame, failing",
    [
        (lambda grid: cap_crossing_frame(grid, center=21), [*range(3, 8), *range(19, 24), *range(35, 40), *range(51, 56)]),
        (
            lambda grid: AnalyticFrame(
                [
                    [RationalFunction([1e200]), RationalFunction([0.0, 1e200])],
                    [RationalFunction([0.0, 1e200]), RationalFunction([2e200])],
                ]
            ),
            list(range(64)),
        ),
        (lambda grid: zero_column_frame(zero_first=True), list(range(64))),
        (lambda grid: zero_column_frame(zero_first=False), list(range(64))),
    ],
    ids=["crosses_cap", "gram_overflows", "zero_first_column", "zero_second_column"],
)
def test_gram_schmidt_field_fails_where_lapack_does(make_frame, failing):
    grid = build_grid(4, 16, 0.01)
    frame = make_frame(grid)
    field = defect_field(frame, grid)
    assert [i for i, _ in field.failures] == failing
    assert_matches_lapack(field, frame)


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
    assert_matches_lapack(field, frame)
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


def test_scalar_path_refuses_non_finite_gram():
    # the Gram matrix overflows to inf, so hi / lo is NaN and no comparison with the cap fails
    frame = AnalyticFrame([[RationalFunction([1e200])], [RationalFunction([0.0, 1e200])]])
    for check in (projection, projection_dz):
        with pytest.raises(ConditioningError, match="exceeds cap") as info:
            check(frame, 0.3)
        assert "condition inf" in str(info.value)
        assert "nan" not in str(info.value)
    # one point raises the message the field lists
    listed = defect_field(frame, build_grid(2, 8, 0.01)).failures[0][1]
    for check in (curvature_defect, full_bundle_curvature):
        with pytest.raises(ConditioningError) as info:
            check(frame, 0.3)
        assert str(info.value) == listed
        assert "nan" not in str(info.value)


@pytest.mark.filterwarnings("error")
def test_one_point_tiny_denominator_is_a_conditioning_error():
    # 1/1e-320 overflows and d*d underflows to 0: the point fails the check, not the division
    frame = AnalyticFrame([[RationalFunction([1.0], [1e-320])], [RationalFunction([0.0, 1.0])]])
    for check in (curvature_defect, full_bundle_curvature):
        with pytest.raises(ConditioningError, match="^frame, derivative or Gram matrix is not finite$"):
            check(frame, 0.3)


def mixed_degree_frame():
    """Ten rows of two columns: numerators of degree 0 to 4 over
    denominators of degree 0 to 2, poles at ``1.5 <= |p| <= 3``."""
    rng = np.random.default_rng(11)
    entries = []
    for i in range(10):
        row = []
        for j in range(2):
            size, poles = 1 + (i + 2 * j) % 5, (i + j) % 3
            num = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            roots = rng.uniform(1.5, 3.0, poles) * np.exp(2j * np.pi * rng.random(poles))
            row.append(RationalFunction(num, poly_from_roots(roots)))
        entries.append(row)
    return AnalyticFrame(entries)


@pytest.mark.parametrize(
    "make_frame",
    [
        lambda grid, directory: seeded_rational_frame(3, 2, seed=1),
        lambda grid, directory: seeded_rational_frame(12, 2, seed=5),
        lambda grid, directory: seeded_rational_frame(5, 3, seed=3),
        lambda grid, directory: near_cap_frame(grid, passing=21, failing=40),
        lambda grid, directory: load_frame(benchmark_file("criteria-20x64", "curvature", "frame", directory)),
        lambda grid, directory: load_frame(benchmark_file("sweeps", "curvature", "frame", directory)),
        lambda grid, directory: mixed_degree_frame(),
    ],
    ids=["rational_3x2", "rational_12x2", "rational_5x3", "near_cap", "bench_3x2", "bench_12x2", "mixed_10x2"],
)
def test_one_point_defect_is_the_field_value(make_frame, tmp_path):
    # a point is a one-element grid: its jet is its column of the grid's jet, and its defect
    # the field's value, bit for bit; the 10- and 12-row frames have more rows than the 8
    # beyond which numpy's sum(0) of a single point adds pairwise
    grid = build_grid(16, 64, 1e-3)
    frame = make_frame(grid, tmp_path)
    field = defect_field(frame, grid)
    values, failures = pointwise_defect_field(curvature_defect, frame, grid)
    assert failures == field.failures
    assert np.array_equal(values, field.values, equal_nan=True)
    f, fp = frame.eval_jet(grid.points)
    for i, z in enumerate(grid.points.tolist()):
        value, deriv = frame.eval_jet(z)
        assert np.array_equal(value, f[..., i]) and np.array_equal(deriv, fp[..., i]), i


# the chunk counts matrix elements: on this 3x2 frame 7 is one point, 30 five and 383 sixty-three
@pytest.mark.parametrize("chunk", [1, 7, 64, 30, 383])
def test_defect_field_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    grid = build_grid(4, 16, 0.01)
    frame = cap_crossing_frame(grid, center=21)
    whole = defect_field(frame, grid)  # one chunk of the default size
    assert whole.failures and rational._CHUNK >= grid.n * frame.rows * frame.cols
    monkeypatch.setattr(rational, "_CHUNK", chunk)
    sizes = []
    jet = frame.eval_jet
    monkeypatch.setattr(frame, "eval_jet", lambda z: sizes.append(len(z)) or jet(z))
    field = defect_field(frame, grid)
    step = max(1, chunk // 6)
    assert sizes == [min(step, grid.n - start) for start in range(0, grid.n, step)]
    assert field.failures == whole.failures
    for name in ("values", "gram_lo", "gram_hi"):
        assert np.array_equal(getattr(field, name), getattr(whole, name), equal_nan=True), name


def test_gram_bounds_match_pointwise_eigvalsh():
    grid = build_grid(8, 32, 1e-3)
    for frame in (quadratic_frame(), seeded_rational_frame(12, 2, seed=5), gauge_frame()):
        eigs = np.array([np.linalg.eigvalsh(gram(frame, z)) for z in grid.points])
        bounds = gram_bounds(defect_field(frame, grid))
        assert abs(bounds["c_min"] - eigs[:, 0].min()) <= 1e-12 * eigs[:, 0].min()
        assert abs(bounds["c_max"] - eigs[:, -1].max()) <= 1e-12 * eigs[:, -1].max()


def ill_conditioned_5x3_frame():
    """``A0 + lam A1`` with ``A0 = U diag(1, 1e-2, 1e-5) V*`` and ``A1`` of
    size 1e-6: Gram condition about 1.5e10 on the disk."""
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a0 = (u * [1.0, 1e-2, 1e-5]) @ v.conj().T
    a1 = 1e-6 * (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    return AnalyticFrame([[RationalFunction([a0[i, j], a1[i, j]]) for j in range(3)] for i in range(5)])


@pytest.mark.parametrize(
    "frame",
    [
        one_lambda_frame(),
        quadratic_frame(),
        exp_taylor_frame(),
        gauge_frame(),
        seeded_rational_frame(3, 2, seed=1),
        seeded_rational_frame(12, 2, seed=5),
        seeded_rational_frame(5, 3, seed=3),
        near_cap_frame(build_grid(16, 64, 1e-3), passing=21, failing=40),
        cap_crossing_frame(build_grid(4, 16, 0.01), center=21),
        zero_column_frame(True),
        zero_column_frame(False),
        mixed_degree_frame(),
        ill_conditioned_5x3_frame(),
        hardy_line_frame(6),
        AnalyticFrame.constant(np.eye(2)),
    ],
    ids=lambda frame: f"{frame.rows}x{frame.cols}",
)
def test_stacked_jet_is_the_entrywise_jet(frame):
    grid = build_grid(8, 32, 1e-3)
    f, fp = entrywise_jet(frame, grid.points)
    value, deriv = frame.eval_jet(grid.points)
    assert np.array_equal(value, f) and np.array_equal(deriv, fp)
    assert np.array_equal(frame.eval(grid.points), f)
    for z in (complex(grid.points[0]), grid.points[100], 0.0):
        f, fp = entrywise_jet(frame, z)
        value, deriv = frame.eval_jet(z)
        assert np.array_equal(value, f) and np.array_equal(deriv, fp)


@pytest.mark.parametrize("workload", ["criteria-20x64", "sweeps"])
def test_benchmark_frame_jet_is_the_entrywise_jet(tmp_path, workload):
    frame = load_frame(benchmark_file(workload, "curvature", "frame", tmp_path))
    grid = build_grid(16, 64, 1e-3)
    for z in (grid.points, complex(grid.points[17]), 0.5):
        f, fp = entrywise_jet(frame, z)
        value, deriv = frame.eval_jet(z)
        assert np.array_equal(value, f) and np.array_equal(deriv, fp)


def test_wide_gram_extremes_match_pointwise_svd():
    # the squared extremes of svd(R) keep the relative accuracy that eigvalsh(R*R) loses
    grid = build_grid(4, 16, 0.01)
    frame = ill_conditioned_5x3_frame()
    field = defect_field(frame, grid)
    sigma = np.linalg.svd(np.moveaxis(frame.eval(grid.points), -1, 0), compute_uv=False)
    lo, hi = sigma[:, -1] ** 2, sigma[:, 0] ** 2
    assert not field.is_partial and 1e10 < np.max(hi / lo) < CONDITION_CAP
    assert np.all(np.abs(field.gram_lo - lo) <= 1e-10 * lo)
    assert np.all(np.abs(field.gram_hi - hi) <= 1e-14 * hi)
    assert abs(gram_bounds(field)["c_min"] - lo.min()) <= 1e-10 * lo.min()


def test_gram_bounds_refuse_fields_without_full_extremes():
    grid = build_grid(4, 16, 0.01)
    frame = AnalyticFrame([[RationalFunction([-grid.points[5], 1.0])]])  # vanishes at point 5
    with pytest.raises(DataError, match="partial"):
        gram_bounds(defect_field(frame, grid))
    with pytest.raises(DataError, match="no Gram extremes"):
        gram_bounds(constant_field(grid, 1.0))


def test_scaled_field_keeps_gram_extremes():
    grid = build_grid(4, 16, 0.01)
    field = defect_field(one_lambda_frame(), grid)
    scaled = field.scaled(2.0)
    assert np.array_equal(scaled.values, 2.0 * field.values)
    assert scaled.gram_lo is field.gram_lo and scaled.gram_hi is field.gram_hi
    assert gram_bounds(scaled) == gram_bounds(field)


def test_defect_field_rejects_negative_values():
    grid = build_grid(2, 4, 0.1)
    with pytest.raises(DataError):
        constant_field(grid, -1.0)


def _symbol():
    return MatrixSymbol.scalar(RationalFunction([0.0, 1.0]), analytic=True)


def _analytic_section():
    return toeplitz_section(_symbol(), 4)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: green_potential(constant_field(build_grid(2, 4, 0.1), 1.0), _NAN), DomainError, "outside grid"),
        (lambda: kernel_action_check(_analytic_section(), _NAN, [1.0]), ParameterError, "open unit disk"),
        (lambda: weighted_kernel_diag_certified(build_spike_weight(0.1, 1, 64), _NAN), ParameterError, "open unit"),
        (lambda: full_bundle_curvature(one_lambda_frame(), _NAN), ParameterError, "open unit disk"),
        (lambda: build_spike_weight(_NAN, 1, 64), ParameterError, "epsilon must be positive"),
        (lambda: constant_field(build_grid(2, 4, 0.1), 1.0).scaled(_NAN), ParameterError, "must be nonnegative"),
    ],
    ids=["green_potential", "kernel_action_check", "weighted_kernel_diag", "full_bundle_curvature", "spike", "scaled"],
)
def test_range_checks_refuse_nan(call, error, message):
    # each check is the negation of its allowed range, so NaN falls outside it,
    # with the error an out-of-range value gets
    with pytest.raises(error, match=message):
        call()


def _field():
    return constant_field(build_grid(2, 4, 0.1), 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplicativity_check(_symbol(), _symbol(), 0), "section order must be >= 1"),
        (lambda: multiplicativity_check(_symbol(), _symbol(), -1), "section order must be >= 1"),
        (lambda: toeplitz_section(_symbol(), 2.0), "section order must be >= 1"),
        (lambda: toeplitz_section(_symbol(), True), "section order must be >= 1"),
        (lambda: default_probes(build_grid(2, 4, 0.1), 1.5), "stride must be >= 1"),
        (lambda: default_probes(build_grid(2, 4, 0.1), _NAN), "stride must be >= 1"),
        (lambda: carleson_check(_field(), 2.0), "max_depth must be >= 0"),
        (lambda: carleson_check(_field(), _NAN), "max_depth must be >= 0"),
        (lambda: build_spike_weight(0.1, 2.0, 64), "spike_count must be >= 1"),
        (lambda: build_spike_weight(0.1, 1, 64.0), "length must be >= 1"),
        (lambda: shift_growth_witness(build_spike_weight(0.1, 1, 64), [1.0], 2.5), "n_max must be >= 0"),
        (lambda: spike_peak_bound(1.5, 1), "need n_start >= 1 and j >= 1"),
        (lambda: spike_peak_bound(True, 1), "need n_start >= 1 and j >= 1"),
        (lambda: spike_peak_bound(5, _NAN), "need n_start >= 1 and j >= 1"),
    ],
    ids=[
        "multiplicativity_zero", "multiplicativity_negative", "section_float", "section_bool", "probes_float",
        "probes_nan", "carleson_float", "carleson_nan", "spike_count_float", "length_float", "n_max_float",
        "n_start_float", "n_start_bool", "j_nan",
    ],
)
def test_count_arguments_refuse_non_integers(call, message):
    # the rule of a grid's counts: an int or numpy integer, not a bool, at least the minimum
    with pytest.raises(ParameterError, match=message):
        call()
