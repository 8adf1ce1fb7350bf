import numpy as np
import pytest

from diskbundle.calculus import build_grid, ring_grid
from diskbundle.errors import BoundaryZeroError, DataError, NumericalError, ParameterError, SymbolError
from diskbundle.rational import RationalFunction, poly_mul
from diskbundle.toeplitz import (
    MatrixSymbol,
    fourier_block,
    intertwining_check,
    kernel_action_check,
    left_invertibility_margin,
    load_symbol,
    multiplicativity_check,
    save_symbol,
    scalar_inner_outer,
    toeplitz_section,
)


def shift_symbol():
    return MatrixSymbol.scalar(RationalFunction([0.0, 1.0]), analytic=True)


def blaschke_half():
    return MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True)


def cauchy_03():
    return MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.3]), analytic=True)


def random_poly_symbol(rows, cols, degree, seed):
    rng = np.random.default_rng(seed)
    entries = [
        [
            RationalFunction(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return MatrixSymbol(entries, analytic=True)


# --- symbol validation ---


def test_pole_on_circle_rejected():
    with pytest.raises(SymbolError):
        MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -1.0]), analytic=False)


def test_analytic_flag_with_inside_pole_rejected():
    with pytest.raises(SymbolError):
        MatrixSymbol.scalar(RationalFunction([0.0, 1.0], [-0.5, 1.0]), analytic=True)


def test_general_symbol_has_negative_coefficients():
    gen = MatrixSymbol.scalar(RationalFunction([0.0, 1.0], [-0.5, 1.0]), analytic=False)
    assert abs(fourier_block(gen, -1)[0, 0] - 0.5) < 1e-13
    assert abs(fourier_block(gen, 0)[0, 0] - 1.0) < 1e-13


# --- Fourier blocks ---


def test_fourier_of_shift():
    s = shift_symbol()
    assert abs(fourier_block(s, 1)[0, 0] - 1.0) < 1e-14
    for k in (0, 2, 3, -1):
        assert abs(fourier_block(s, k)[0, 0]) < 1e-14


def test_fourier_geometric_series():
    c = MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.5]), analytic=True)
    for k in range(9):
        assert abs(fourier_block(c, k)[0, 0] - 0.5**k) < 1e-13


# --- sections ---


def test_section_of_shift():
    sec = toeplitz_section(shift_symbol(), 3).matrix
    expected = np.diag([1.0, 1.0], k=-1)
    assert np.allclose(sec, expected, atol=1e-14)


def test_section_of_constant_identity():
    sym = MatrixSymbol.constant(np.eye(2))
    assert np.allclose(toeplitz_section(sym, 2).matrix, np.eye(4), atol=1e-14)


def test_section_blaschke_first_column():
    sec = toeplitz_section(blaschke_half(), 4).matrix
    assert np.allclose(sec[:, 0], [-0.5, 0.75, 0.375, 0.1875], atol=1e-13)


def test_analytic_section_is_exactly_lower_triangular():
    sec = toeplitz_section(random_poly_symbol(2, 2, 3, seed=1), 5).matrix
    for j in range(5):
        for k in range(j + 1, 5):
            assert np.all(sec[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] == 0.0)


def test_section_constant_along_block_diagonals():
    sec = toeplitz_section(blaschke_half(), 6).matrix
    for off in range(6):
        vals = [sec[j + off, j] for j in range(6 - off)]
        assert len(set(vals)) == 1


# --- multiplicativity (analytic symbols only) ---


def test_multiplicativity_shift_squared():
    assert multiplicativity_check(shift_symbol(), shift_symbol(), 5) <= 1e-14


def test_multiplicativity_rational_pair():
    assert multiplicativity_check(blaschke_half(), cauchy_03(), 16) <= 1e-12


def test_multiplicativity_matrix_pair():
    f = random_poly_symbol(2, 2, 3, seed=2)
    g = random_poly_symbol(2, 2, 2, seed=3)
    assert multiplicativity_check(f, g, 12) <= 1e-12


def test_multiplicativity_requires_analytic():
    gen = MatrixSymbol.scalar(RationalFunction([0.0, 1.0], [-0.5, 1.0]), analytic=False)
    with pytest.raises(ParameterError):
        multiplicativity_check(shift_symbol(), gen, 8)


# --- kernel action ---


def test_kernel_action_shift():
    d = kernel_action_check(shift_symbol(), 0.5, [1.0], 32)
    assert d <= 1e-8


def test_kernel_action_constant_unitary():
    u = MatrixSymbol.constant([[0.0, 1.0], [1.0, 0.0]])
    assert kernel_action_check(u, 0.4 + 0.2j, [1.0, 0.0], 16) <= 1e-14


def test_kernel_action_blaschke():
    assert kernel_action_check(blaschke_half(), 0.3, [1.0], 64) <= 1e-10


def test_kernel_action_geometric_decay():
    lam = 0.5
    values = [kernel_action_check(blaschke_half(), lam, [1.0], n) for n in (24, 25, 26)]
    for a, b in zip(values, values[1:]):
        assert abs(b / a - lam) <= 0.1 * lam


# --- intertwining ---


def test_intertwining_shift():
    assert intertwining_check(shift_symbol(), 8) <= 1e-14


def test_intertwining_matrix_polynomial():
    assert intertwining_check(random_poly_symbol(2, 2, 3, seed=4), 16) <= 1e-12


def test_intertwining_needs_order_two():
    with pytest.raises(ParameterError):
        intertwining_check(shift_symbol(), 1)


# --- inner-outer ---


def test_inner_outer_single_zero():
    split = scalar_inner_outer(RationalFunction([-0.5, 1.0]))
    assert np.allclose(split.inner.num, [-0.5, 1.0])
    assert np.allclose(split.inner.den, [1.0, -0.5])
    assert np.allclose(split.outer.num, [1.0, -0.5])


def test_inner_outer_no_disk_zero():
    f = RationalFunction([1.0, -0.5])
    split = scalar_inner_outer(f)
    assert np.allclose(split.inner.num, [1.0]) and np.allclose(split.inner.den, [1.0])
    assert np.allclose(split.outer.num, f.num)


def test_inner_outer_monomial():
    split = scalar_inner_outer(RationalFunction([0.0, 0.0, 1.0]))
    assert np.allclose(split.inner.num, [0.0, 0.0, 1.0])
    assert np.allclose(split.outer.num, [1.0])


def test_inner_outer_boundary_zero_rejected():
    with pytest.raises(BoundaryZeroError):
        scalar_inner_outer(RationalFunction([-1.0, 1.0]))


def test_inner_outer_verifies_on_circle():
    f = RationalFunction(poly_mul([-0.5, 1.0], [1.0, -0.3]))
    split = scalar_inner_outer(f)
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.abs(split.inner(z)) - 1.0)) <= 1e-12
    assert np.max(np.abs(split.inner(z) * split.outer(z) - f(z))) <= 1e-10


# --- left-invertibility margin ---


def test_margin_constant_unitary():
    grid = build_grid(3, 8, 0.1)
    u = MatrixSymbol.constant([[0.0, 1.0], [1.0, 0.0]])
    assert left_invertibility_margin(u, grid) == 1.0


def test_margin_scalar_shift_tracks_grid_minimum():
    grid = build_grid(8, 64, 1e-3)
    margin = left_invertibility_margin(shift_symbol(), grid)
    assert abs(margin - np.min(np.abs(grid.points))) < 1e-14


def test_margin_blaschke_vanishes_near_interior_zero():
    grid = ring_grid(np.linspace(0.1, 0.9, 41), 256)
    margin = left_invertibility_margin(blaschke_half(), grid)
    assert margin <= 1e-2


def test_margin_monotone_under_refinement():
    base = np.linspace(0.1, 0.9, 11)
    finer = np.sort(np.concatenate([base, np.linspace(0.15, 0.85, 10)]))
    g1, g2 = ring_grid(base, 32), ring_grid(finer, 32)
    m1 = left_invertibility_margin(blaschke_half(), g1)
    m2 = left_invertibility_margin(blaschke_half(), g2)
    assert m2 <= m1 + 1e-15


def test_margin_refuses_a_partial_sweep():
    grid = build_grid(4, 16, 0.01)
    p = complex(grid.points[5])
    pole_on_grid = MatrixSymbol.scalar(RationalFunction([1.0], [-p, 1.0]), analytic=False)
    with pytest.raises(NumericalError) as err:
        left_invertibility_margin(pole_on_grid, grid)
    assert repr(p) in str(err.value)


def test_margin_names_the_first_non_finite_point_in_grid_order():
    grid = build_grid(4, 16, 0.01)
    first, later = complex(grid.points[5]), complex(grid.points[30])
    # poles exactly on two grid points; the later one sits in the first entry
    two_poles = MatrixSymbol(
        [[RationalFunction([1.0], [-later, 1.0])], [RationalFunction([1.0], [-first, 1.0])]], analytic=False
    )
    with pytest.raises(NumericalError) as err:
        left_invertibility_margin(two_poles, grid)
    assert repr(first) in str(err.value) and repr(later) not in str(err.value)


def test_margin_maps_a_failed_svd_to_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError) as err:
        left_invertibility_margin(shift_symbol(), build_grid(2, 8, 0.1))
    assert "SVD did not converge" in str(err.value)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (4, 4)])
def test_margin_matches_pointwise_svd(rows, cols):
    grid = build_grid(6, 32, 1e-3)
    symbol = random_poly_symbol(rows, cols, 3, seed=rows * 10 + cols)
    pointwise = min(np.linalg.svd(symbol.eval(z), compute_uv=False)[-1] for z in grid.points)
    assert abs(left_invertibility_margin(symbol, grid) - pointwise) <= 1e-12 * pointwise


def test_margin_requires_tall_symbol():
    wide = MatrixSymbol.constant(np.ones((1, 2)))
    with pytest.raises(ParameterError):
        left_invertibility_margin(wide, build_grid(2, 4, 0.1))


# --- symbol files ---


def test_symbol_json_round_trip(tmp_path):
    path = tmp_path / "symbol.json"
    save_symbol(blaschke_half(), path)
    back = load_symbol(path)
    assert back.analytic
    assert np.array_equal(back.entries[0][0].num, blaschke_half().entries[0][0].num)


def test_symbol_file_requires_flag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}]]}')
    with pytest.raises(DataError) as err:
        load_symbol(path)
    assert "analytic" in str(err.value)
