import tracemalloc
import warnings

import numpy as np
import pytest

from diskbundle import rational, toeplitz
from diskbundle.calculus import build_grid
from diskbundle.errors import BoundaryZeroError, DataError, NumericalError, ParameterError, SymbolError
from diskbundle.rational import RationalFunction, gram_schmidt, poly_mul
from diskbundle.toeplitz import (
    MatrixSymbol,
    ToeplitzSection,
    _product_sections,
    _spectral_norm,
    intertwining_check,
    kernel_action_check,
    left_invertibility_margin,
    load_symbol,
    multiplicativity_check,
    scalar_inner_outer,
    toeplitz_section,
)

from oracles import benchmark_file, entrywise_jet, kron_intertwining_gap, loop_toeplitz_section, symbol_product

EPS = np.finfo(float).eps


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


def random_rational_symbol(rows, cols, analytic, seed):
    """Quadratic numerators over a pole outside the disk, and for a general
    symbol a second pole inside it."""
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            p, q = rng.uniform(0.2, 0.7, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            den = [1.0, -p] if analytic else poly_mul([1.0, -p], [-q, 1.0])
            row.append(RationalFunction(rng.standard_normal(3) + 1j * rng.standard_normal(3), den))
        entries.append(row)
    return MatrixSymbol(entries, analytic=analytic)


def coefficient(symbol, k):
    """Fourier coefficient ``k`` read off an analytic symbol's section: block
    ``(k, 0)``, or block ``(0, 1)`` for ``k = -1``."""
    sec = toeplitz_section(symbol, max(k, 1) + 1).matrix
    j, col = (0, 1) if k == -1 else (k, 0)
    return sec[j * symbol.rows : (j + 1) * symbol.rows, col * symbol.cols : (col + 1) * symbol.cols]


# --- symbol validation ---


def test_pole_on_circle_rejected():
    with pytest.raises(SymbolError):
        MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -1.0]), analytic=False)


def test_analytic_flag_with_inside_pole_rejected():
    with pytest.raises(SymbolError):
        MatrixSymbol.scalar(RationalFunction([0.0, 1.0], [-0.5, 1.0]), analytic=True)


def test_building_an_analytic_symbol_runs_no_fft(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT while building a symbol")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    assert MatrixSymbol([[RationalFunction([1.0, 0.5])], [RationalFunction([0.0, 1.0])]], analytic=True).analytic


# --- Fourier blocks ---


def test_fourier_of_shift():
    s = shift_symbol()
    assert abs(coefficient(s, 1)[0, 0] - 1.0) < 1e-14
    for k in (0, 2, 3, -1):
        assert abs(coefficient(s, k)[0, 0]) < 1e-14


def test_fourier_geometric_series():
    c = MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.5]), analytic=True)
    for k in range(9):
        assert abs(coefficient(c, k)[0, 0] - 0.5**k) < 1e-13


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


SHAPES = [(1, 1), (2, 2), (3, 2), (2, 3)]


@pytest.mark.parametrize("rows, cols", SHAPES, ids=[f"analytic-{rows}-{cols}" for rows, cols in SHAPES])
def test_section_gather_matches_loop_oracle(rows, cols):
    # the section comes from the Taylor series, which the oracle's converged circle approximates
    sym = random_rational_symbol(rows, cols, True, seed=10 * rows + cols)
    for order in (1, 2, 5, 64):
        section, oracle = toeplitz_section(sym, order).matrix, loop_toeplitz_section(sym, order)
        assert np.max(np.abs(section - oracle)) <= 1e-15 * np.max(np.abs(oracle)), order


# --- multiplicativity (analytic symbols only) ---


def test_multiplicativity_shift_squared():
    assert multiplicativity_check(shift_symbol(), shift_symbol(), 5) <= 1e-14


def test_multiplicativity_rational_pair():
    assert multiplicativity_check(blaschke_half(), cauchy_03(), 16) <= 1e-12


def test_multiplicativity_matrix_pair():
    f = random_poly_symbol(2, 2, 3, seed=2)
    g = random_poly_symbol(2, 2, 2, seed=3)
    assert multiplicativity_check(f, g, 12) <= 1e-12


def sweeps_seed1_pair(directory):
    """The two symbols of the benchmark's ``sweeps`` workload, seed 1."""
    return tuple(load_symbol(benchmark_file("sweeps", "toeplitz", key, directory)) for key in ("symbol", "second_symbol"))


PRODUCT_PAIRS = {
    "shift-shift": (lambda _: (shift_symbol(), shift_symbol()), 5),
    "blaschke-cauchy": (lambda _: (blaschke_half(), cauchy_03()), 16),
    "matrix-pair": (lambda _: (random_poly_symbol(2, 2, 3, seed=2), random_poly_symbol(2, 2, 2, seed=3)), 12),
    "sweeps-seed1": (sweeps_seed1_pair, 64),
}


@pytest.mark.parametrize("pair", PRODUCT_PAIRS)
def test_product_section_matches_symbolic_product(pair, tmp_path):
    make, order = PRODUCT_PAIRS[pair]
    f, g = make(tmp_path)
    left, right, product = _product_sections(f, g, order)
    assert np.array_equal(left, toeplitz_section(f, order).matrix)
    assert np.array_equal(right, toeplitz_section(g, order).matrix)
    oracle = toeplitz_section(symbol_product(f, g), order).matrix
    assert np.max(np.abs(product - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("shape", [(128, 128), (6, 3), (3, 6)])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_spectral_norm_matches_the_svd_norm(shape, scale):
    rng = np.random.default_rng(sum(shape))
    x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    reference = np.linalg.norm(x, 2)
    assert abs(_spectral_norm(x) - reference) <= 1e-13 * reference


def test_spectral_norm_of_a_zero_gap_is_zero():
    assert _spectral_norm(np.zeros((128, 128), dtype=complex)) == 0.0


@pytest.mark.parametrize(
    "consumer",
    [
        lambda gen: toeplitz_section(gen, 8),
        lambda gen: multiplicativity_check(shift_symbol(), gen, 8),
        lambda gen: kernel_action_check(ToeplitzSection(gen, 8, np.zeros((8, 8), dtype=complex)), 0.5, [1.0]),
        lambda gen: intertwining_check(ToeplitzSection(gen, 8, np.zeros((8, 8), dtype=complex))),
    ],
    ids=["section", "multiplicativity", "kernel_action", "intertwining"],
)
def test_multiplicativity_requires_analytic(consumer):
    # a symbol with a pole in the disk has no section, and no check reads one
    gen = MatrixSymbol.scalar(RationalFunction([0.0, 1.0], [-0.5, 1.0]), analytic=False)
    with pytest.raises(ParameterError, match="analytic"):
        consumer(gen)


@pytest.mark.parametrize("pair", PRODUCT_PAIRS)
def test_multiplicativity_sees_a_perturbed_coefficient_of_f(pair, tmp_path, monkeypatch):
    # fg comes from the series of each product term, not from the factors' series, so a wrong f shows
    make, order = PRODUCT_PAIRS[pair]
    f, g = make(tmp_path)
    taylor = toeplitz._taylor

    def perturbed(stacks, *args):
        out = taylor(stacks, *args)
        if stacks[0] is f._stacks[0]:
            out[1, 0] += 1e-8
        return out

    monkeypatch.setattr(toeplitz, "_taylor", perturbed)
    assert multiplicativity_check(f, g, order) >= 1e-9


# --- kernel action ---


def test_kernel_action_shift():
    d = kernel_action_check(toeplitz_section(shift_symbol(), 32), 0.5, [1.0])
    assert d <= 1e-8


def test_kernel_action_constant_unitary():
    u = MatrixSymbol.constant([[0.0, 1.0], [1.0, 0.0]])
    assert kernel_action_check(toeplitz_section(u, 16), 0.4 + 0.2j, [1.0, 0.0]) <= 1e-14


def test_kernel_action_blaschke():
    assert kernel_action_check(toeplitz_section(blaschke_half(), 64), 0.3, [1.0]) <= 1e-10


def test_kernel_action_geometric_decay():
    lam = 0.5
    values = [kernel_action_check(toeplitz_section(blaschke_half(), n), lam, [1.0]) for n in (24, 25, 26)]
    for a, b in zip(values, values[1:]):
        assert abs(b / a - lam) <= 0.1 * lam


# --- poles near the circle ---


def pole_symbol(p, num=(1.0,)):
    """``num(z) / (z - p)``; with ``num = 1`` its coefficients are ``-p^(-k-1)``."""
    return MatrixSymbol.scalar(RationalFunction(list(num), [-p, 1.0]), analytic=True)


@pytest.mark.parametrize("p", [1.05, 1.02, 1.01, 1.001, 1.0001, 1 + 1e-6, 1 + 2e-8])
def test_a_pole_near_the_circle_gets_converged_coefficients(p):
    # the 512-point circle that order 64 asks for is off by up to 1.4e-11, 4.0e-5, 6.2e-3 and 1.5 on the first
    # four poles; a circle doubled up to 2^20 points refused the last three. The series samples no circle.
    section = toeplitz_section(pole_symbol(p), 64)
    exact = -(p ** -np.arange(1.0, 65.0))
    assert np.max(np.abs(section.matrix[:, 0] - exact)) <= 1e-14 * np.max(np.abs(exact))
    assert kernel_action_check(section, 0.5, [1.0]) <= 1e-13


def test_multiplicativity_of_symbols_with_poles_near_the_circle():
    f, g = pole_symbol(1.001j, (0.5, 1.0)), pole_symbol(-1.01)
    assert multiplicativity_check(f, g, 64) <= 1e-12
    assert multiplicativity_check(g, f, 64) <= 1e-12
    # 1/(z - 1.001) I, which once needed a 2^17-point circle, times I: fg's series is f's, term for term
    pole, zero = RationalFunction([1.0], [-1.001, 1.0]), RationalFunction([0.0])
    near, identity = MatrixSymbol([[pole, zero], [zero, pole]], analytic=True), MatrixSymbol.constant(np.eye(2))
    assert multiplicativity_check(near, identity, 64) == 0.0 == multiplicativity_check(identity, near, 64)


@pytest.mark.parametrize("workload", ["criteria-20x64", "sweeps"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_symbols_converge_on_the_first_circle(monkeypatch, tmp_path, workload, seed):
    # the circle oracle converges on the one 512-point circle that order 64 asks for; the package's sections and
    # multiplicativity check sample no circle, and its sections agree with the oracle's
    f, g = (load_symbol(benchmark_file(workload, "toeplitz", key, tmp_path, seed)) for key in ("symbol", "second_symbol"))
    circles, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a: circles.append(a.shape[-1]) or fft(a))
    oracles = [loop_toeplitz_section(s, 64) for s in (f, g)]
    assert circles == [512, 512]

    def no_circle(*args):
        raise AssertionError("an analytic symbol sampled a circle")

    monkeypatch.setattr(np.fft, "fft", no_circle)
    for s in (f, g):
        monkeypatch.setattr(s, "eval", no_circle)
    sections = [toeplitz_section(s, 64).matrix for s in (f, g)]
    assert multiplicativity_check(f, g, 64) <= 1e-12
    for section, oracle in zip(sections, oracles):
        assert np.max(np.abs(section - oracle)) <= 1e-15 * np.max(np.abs(oracle))


# --- intertwining ---


def test_intertwining_shift():
    assert intertwining_check(toeplitz_section(shift_symbol(), 8)) <= 1e-14


def test_intertwining_matrix_polynomial():
    assert intertwining_check(toeplitz_section(random_poly_symbol(2, 2, 3, seed=4), 16)) <= 1e-12


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_intertwining_slices_match_kron_oracle(rows, cols):
    f = random_rational_symbol(rows, cols, True, seed=10 * rows + cols)
    for order in (2, 5, 64):
        assert np.array_equal(intertwining_check(toeplitz_section(f, order)), kron_intertwining_gap(f, order)), order


def test_intertwining_needs_order_two():
    with pytest.raises(ParameterError):
        intertwining_check(toeplitz_section(shift_symbol(), 1))


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
    grid = build_grid(3, 256, 0.2)  # ring 1 sits at radius 0.5, 0.0061 from the zero
    margin = left_invertibility_margin(blaschke_half(), grid)
    assert margin <= 1e-2


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
    with pytest.raises(NumericalError) as err:  # three columns: the closed form does not apply
        left_invertibility_margin(random_poly_symbol(3, 3, 1, seed=5), build_grid(2, 8, 0.1))
    assert "SVD did not converge" in str(err.value)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (4, 4)])
def test_margin_matches_pointwise_svd(rows, cols):
    grid = build_grid(6, 32, 1e-3)
    symbol = random_poly_symbol(rows, cols, 3, seed=rows * 10 + cols)
    pointwise = min(np.linalg.svd(symbol.eval(z), compute_uv=False)[-1] for z in grid.points)
    assert abs(left_invertibility_margin(symbol, grid) - pointwise) <= 1e-12 * pointwise


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (4, 4)])
def test_margin_does_not_depend_on_the_chunk_size(monkeypatch, rows, cols):
    grid = build_grid(6, 32, 1e-3)
    symbol = random_poly_symbol(rows, cols, 3, seed=rows * 10 + cols)
    margins, sizes = [], []
    evaluate = symbol.eval
    monkeypatch.setattr(symbol, "eval", lambda z: sizes.append(len(z)) or evaluate(z))
    for chunk in (1, 7, grid.n * rows * cols):  # one point per chunk; 7 points of a 1x1 symbol, else one; the whole grid
        monkeypatch.setattr(rational, "_CHUNK", chunk)
        sizes.clear()
        margins.append(left_invertibility_margin(symbol, grid))
        step = max(1, chunk // (rows * cols))
        assert sizes == [min(step, grid.n - start) for start in range(0, grid.n, step)]
    assert margins[0] == margins[1] == margins[2]


@pytest.mark.parametrize("chunk", [2, 7, 2**13])
def test_margin_names_a_pole_in_a_later_chunk(monkeypatch, chunk):
    # a 2x1 symbol: one, three and every point of the grid per chunk; poles on points 45 and 60
    grid = build_grid(4, 16, 0.01)
    first, later = complex(grid.points[45]), complex(grid.points[60])
    symbol = MatrixSymbol(
        [[RationalFunction([1.0], [-later, 1.0])], [RationalFunction([1.0], [-first, 1.0])]], analytic=False
    )
    monkeypatch.setattr(rational, "_CHUNK", chunk)
    with pytest.raises(NumericalError) as err:
        left_invertibility_margin(symbol, grid)
    assert str(err.value) == f"margin sweep failed at z = {first!r}: non-finite symbol value"


def test_margin_memory_does_not_grow_with_the_grid(tmp_path):
    # the benchmark's 2x2 symbol on 196,608 points: a whole-grid pass holds about 64 MB of numpy arrays
    symbol = load_symbol(benchmark_file("criteria-20x64", "toeplitz", "symbol", tmp_path))
    grid = build_grid(48, 4096, 1e-3)
    tracemalloc.start()
    try:
        margin = left_invertibility_margin(symbol, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert margin > 0.0 and peak < 4e6, peak


def conditioned_batch(rows, cols, seed):
    """Matrices ``U diag(1, .., 1/kappa) V*`` with ``kappa`` from 1 to 1e8
    (1 for one column), and their condition numbers."""
    rng = np.random.default_rng(seed)
    kappa = np.logspace(0.0, 8.0, 97)
    out = np.empty((len(kappa), rows, cols), dtype=complex)
    for i, k in enumerate(kappa):
        u, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))
        out[i] = (u * np.geomspace(1.0, 1.0 / k, cols)) @ v.conj().T
    return out, kappa if cols > 1 else np.ones_like(kappa)


def smallest_singular_values(vals):
    """Smallest singular value of each matrix of an ``(n, rows, cols)``
    batch, from :func:`gram_schmidt` the way the margin takes it."""
    lo, _, exp, _ = gram_schmidt(np.ascontiguousarray(np.moveaxis(vals, 0, -1)))
    return np.ldexp(np.sqrt(lo), exp)


#: one and two columns take the closed form, wider matrices the SVD of ``R``
WIDTHS = [(2, 1), (3, 2), (12, 2), (3, 3), (5, 3), (4, 4), (12, 4)]


@pytest.mark.parametrize("rows, cols", WIDTHS)
def test_closed_form_matches_pointwise_svd(rows, cols):
    vals, kappa = conditioned_batch(rows, cols, seed=rows * 10 + cols)
    reference = np.array([np.linalg.svd(v, compute_uv=False)[-1] for v in vals])
    closed = smallest_singular_values(vals)
    assert np.all(np.abs(closed - reference) <= 8.0 * EPS * kappa * reference)


@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_margin_is_zero_where_the_symbol_vanishes(cols):
    grid = build_grid(4, 16, 0.01)
    p = complex(grid.points[5])
    rows = max(2, cols)
    m = np.arange(1.0, rows * cols + 1.0).reshape(rows, cols)
    vanishing = MatrixSymbol([[RationalFunction([-p * v, v]) for v in row] for row in m], analytic=False)
    assert not np.any(vanishing.eval(grid.points[5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert left_invertibility_margin(vanishing, grid) == 0.0
        assert np.array_equal(smallest_singular_values(np.zeros((3, rows, cols), dtype=complex)), np.zeros(3))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("rows, cols", WIDTHS)
def test_closed_form_keeps_extreme_scales(scale, rows, cols):
    vals, _ = conditioned_batch(rows, cols, seed=7)
    vals = scale * vals[:9]  # kappa up to 10
    reference = np.array([np.linalg.svd(v, compute_uv=False)[-1] for v in vals])
    assert np.all(np.abs(smallest_singular_values(vals) - reference) <= 1e-14 * reference)


@pytest.mark.parametrize("rows", [2, 3, 12])
def test_closed_form_of_a_rank_one_symbol(rows):
    rng = np.random.default_rng(rows)
    for cols in range(2, min(rows, 4) + 1):
        u = rng.standard_normal((50, rows, 1)) + 1j * rng.standard_normal((50, rows, 1))
        v = rng.standard_normal((50, 1, cols)) + 1j * rng.standard_normal((50, 1, cols))
        vals = u @ v
        sigma_max = np.linalg.norm(u, axis=(1, 2)) * np.linalg.norm(v, axis=(1, 2))
        lo = gram_schmidt(np.ascontiguousarray(np.moveaxis(vals, 0, -1)))[0]
        assert np.all(lo >= 0.0), cols  # never a negative square, whose root would be NaN
        assert np.all(smallest_singular_values(vals) <= 1e-15 * sigma_max), cols


def test_margin_requires_tall_symbol():
    wide = MatrixSymbol.constant(np.ones((1, 2)))
    with pytest.raises(ParameterError):
        left_invertibility_margin(wide, build_grid(2, 4, 0.1))


@pytest.mark.parametrize(
    "make_symbol",
    [
        lambda directory: shift_symbol(),
        lambda directory: blaschke_half(),
        lambda directory: cauchy_03(),
        lambda directory: random_poly_symbol(2, 3, 5, seed=2),
        lambda directory: random_rational_symbol(3, 2, analytic=True, seed=1),
        lambda directory: random_rational_symbol(2, 2, analytic=False, seed=4),
        lambda directory: MatrixSymbol.constant(2.0 * np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.0, 0.8, -0.6]])),
        lambda directory: load_symbol(benchmark_file("sweeps", "toeplitz", "symbol", directory)),
    ],
    ids=["shift", "blaschke", "cauchy", "poly_2x3", "analytic_3x2", "general_2x2", "unitary_3x3", "bench"],
)
def test_stacked_symbol_values_are_the_entrywise_values(make_symbol, tmp_path):
    # on the grid, the FFT circle and at one point, as the margin, sections and kernel action take them
    symbol = make_symbol(tmp_path)
    for z in (build_grid(8, 32, 1e-3).points, np.exp(2j * np.pi * np.arange(64) / 64), 0.5j, complex(0.3, -0.1)):
        f, fp = entrywise_jet(symbol, z)
        assert np.array_equal(symbol.eval(z), f)
        value, deriv = symbol.eval_jet(z)
        assert np.array_equal(value, f) and np.array_equal(deriv, fp)


# --- symbol files ---


def test_symbol_json_round_trip(tmp_path):
    path = tmp_path / "symbol.json"
    blaschke_half().save(path)
    back = load_symbol(path)
    assert back.analytic
    assert np.array_equal(back.entries[0][0].num, blaschke_half().entries[0][0].num)


def test_symbol_file_requires_flag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}]]}')
    with pytest.raises(DataError) as err:
        load_symbol(path)
    assert "analytic" in str(err.value)


@pytest.mark.parametrize(
    "num, den",
    [([1e300, 1e300], [1e-10]), ([1.0], [1e-320])],
    ids=["overflow", "subnormal_den"],
)
def test_symbol_values_beyond_the_float_range_raise_numerical_error(num, den):
    # the first Taylor coefficient overflows to inf; the series refuses it, with no numpy warning
    entries = [[RationalFunction(num, den), RationalFunction([0.0])], [RationalFunction([0.0]), RationalFunction([1.0])]]
    with pytest.raises(NumericalError, match=r"^symbol Taylor coefficient 0 is not finite$"):
        toeplitz_section(MatrixSymbol(entries, analytic=True), 4)
