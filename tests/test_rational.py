import numpy as np
import pytest

from diskbundle.bundle import AnalyticFrame
from diskbundle.calculus import build_grid
from diskbundle.errors import DataError, ParameterError, SymbolError
from diskbundle.rational import (
    RationalFunction,
    RationalMatrix,
    _roots,
    _stack,
    poly_from_roots,
    poly_mul,
)
from diskbundle.toeplitz import MatrixSymbol
from oracles import entrywise_jet, poly_add, rational_product, rational_sum


def test_polynomial_evaluation():
    f = RationalFunction([1.0, 2.0, 3.0])  # 1 + 2z + 3z^2
    assert f(0.0) == 1.0
    assert f(1.0) == 6.0
    assert f(2.0) == 1 + 4 + 12


def test_rational_evaluation_and_pole():
    f = RationalFunction([1.0], [1.0, -0.5])  # 1/(1 - 0.5 z)
    assert f(0.0) == 1.0
    assert abs(f(1.0) - 2.0) < 1e-15
    assert np.allclose(f.poles(), [2.0])


def test_exact_derivative_matches_symbolic():
    f = RationalFunction([0.0, 1.0, 1.0], [1.0, -0.25])  # (z + z^2)/(1 - z/4)
    z = 0.3 + 0.1j
    h = 1e-6
    numeric = (f(z + h) - f(z - h)) / (2 * h)
    assert abs(f.eval_deriv(z) - numeric) < 1e-8


def test_vectorized_evaluation():
    f = RationalFunction([1.0, 1.0])
    z = np.array([0.0, 1.0, 1j])
    assert np.allclose(f(z), [1.0, 2.0, 1 + 1j])


def test_arithmetic():
    a = RationalFunction([0.0, 1.0])            # z
    b = RationalFunction([1.0], [1.0, -0.5])    # 1/(1-0.5z)
    z = 0.37 - 0.21j
    assert abs(rational_product(a, b)(z) - a(z) * b(z)) < 1e-14
    assert abs(rational_sum(a, b)(z) - (a(z) + b(z))) < 1e-14


def test_poly_helpers():
    assert np.allclose(poly_mul([1, 1], [1, -1]), [1, 0, -1])
    assert np.allclose(poly_add([1, 2], [3]), [4, 2])
    roots = RationalFunction(poly_from_roots([0.5, -2.0])).zeros()
    assert np.array_equal(roots, np.roots(poly_from_roots([0.5, -2.0])[::-1]))
    assert sorted(np.round(roots.real, 10)) == [-2.0, 0.5]


def test_zero_denominator_rejected():
    with pytest.raises(ParameterError):
        RationalFunction([1.0], [0.0])


def test_json_round_trip():
    f = RationalFunction([1.0, 2.0 + 1.0j], [1.0, 0.0, -0.125])
    g = RationalFunction.from_jsonable(f.to_jsonable())
    assert np.array_equal(f.num, g.num)
    assert np.array_equal(f.den, g.den)


def test_json_validation_names_field():
    with pytest.raises(DataError) as err:
        RationalFunction.from_jsonable({"num": [[1.0, 0.0]], "den": [[1.0]]}, field="entries[0][1]")
    assert "entries[0][1].den" in str(err.value)


_ENTRY = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}


def test_eval_jet_is_eval_and_eval_deriv_on_the_last_axis():
    matrix = AnalyticFrame(
        [
            [RationalFunction([1.0, 0.5j], [1.0, 0.0, -0.2]), RationalFunction([0.25])],
            [RationalFunction([0.0, 1.0, 0.3, -0.1j]), RationalFunction([1.0], [1.0, -0.3])],
            [RationalFunction([0.0]), RationalFunction([2.0, -1.0], [3.0, 1.0j])],
        ]
    )
    z = np.array([0.0, 0.3 - 0.4j, 0.9j, -0.7])
    f, fp = matrix.eval_jet(z)
    assert f.shape == fp.shape == (3, 2, 4)
    assert np.array_equal(f, matrix.eval(z))
    for i, row in enumerate(matrix.entries):
        for j, e in enumerate(row):
            assert np.array_equal(fp[i, j], e.eval_deriv(z))
    # a scalar gives rows x cols, as a one-element grid: the grid's column, bit for bit
    for k, w in enumerate(z):
        value, deriv = matrix.eval_jet(w)
        assert value.shape == deriv.shape == (3, 2)
        assert np.array_equal(matrix.eval(w), value)
        assert np.array_equal(value, f[..., k])
        assert np.array_equal(deriv, fp[..., k])


@pytest.mark.parametrize(
    "cls, flags", [(AnalyticFrame, {}), (MatrixSymbol, {"analytic": True})], ids=["frame", "symbol"]
)
def test_rational_matrix_json(tmp_path, cls, flags):
    matrix = cls(
        [
            [RationalFunction([1.0, 0.5j], [1.0, 0.0, -0.2]), RationalFunction([0.25])],
            [RationalFunction([0.0, 1.0]), RationalFunction([1.0], [1.0, -0.3])],
        ],
        **flags,
    )
    matrix.save(tmp_path / "m.json")
    back = cls.load(tmp_path / "m.json")
    assert back.to_jsonable() == matrix.to_jsonable()
    z = np.array([0.0, 0.3 - 0.4j, 0.9j])
    assert np.array_equal(back.eval(z), matrix.eval(z))
    assert back.eval(z).shape == (2, 2, 3)
    assert np.allclose(back.eval_jet(z)[1][..., 1], matrix.eval_jet(z[1])[1], rtol=1e-14, atol=0.0)

    def field_of(obj):
        with pytest.raises(DataError) as err:
            cls.from_jsonable(obj)
        return err.value.field

    good = {"rows": 1, "cols": 1, "entries": [[_ENTRY]], **flags}
    assert field_of([good]) == ""
    assert field_of({**good, "bogus": 1}) == "bogus"
    for key in good:
        assert field_of({k: v for k, v in good.items() if k != key}) == key
    assert field_of({**good, "rows": 0}) == "rows"
    assert field_of({**good, "cols": 1.0}) == "cols"
    assert field_of({**good, "cols": 0}) == "cols"
    assert field_of({**good, "entries": [[_ENTRY], [_ENTRY]]}) == "entries"
    assert field_of({**good, "cols": 2, "entries": [[_ENTRY]]}) == "entries[0]"
    bad_entries = {
        "entries[0][0].den[0]": {"num": [[1.0, 0.0]], "den": [["1", 0.0]]},
        "entries[0][0].num[1]": {"num": [[1.0, 0.0], [10**400, 0.0]], "den": [[1.0, 0.0]]},
    }
    for field, entry in bad_entries.items():
        assert field_of({**good, "entries": [[entry]]}) == field


@pytest.mark.parametrize(
    "cls, flags", [(AnalyticFrame, {}), (MatrixSymbol, {"analytic": True})], ids=["frame", "symbol"]
)
def test_json_booleans_are_not_numbers(cls, flags):
    # bool is an int in Python; a JSON true must not read as 1
    good = {"rows": 1, "cols": 1, "entries": [[_ENTRY]], **flags}
    payloads = {
        "rows": {**good, "rows": True},
        "entries[0][0].num[0]": {**good, "entries": [[{"num": [[True, False]], "den": [[1.0, 0.0]]}]]},
        "entries[0][0].den[0]": {**good, "entries": [[{"num": [[1.0, 0.0]], "den": [[1.0, False]]}]]},
    }
    for field, obj in payloads.items():
        with pytest.raises(DataError) as err:
            cls.from_jsonable(obj)
        assert err.value.field == field
    with pytest.raises(DataError) as err:
        cls.from_jsonable({**good, "cols": True})
    assert err.value.field == "cols"


def assert_entrywise(matrix, z):
    """``eval`` and ``eval_jet`` at ``z`` are the entry-by-entry jet, bit for bit."""
    f, fp = entrywise_jet(matrix, z)
    value, deriv = matrix.eval_jet(z)
    assert value.shape == deriv.shape == f.shape
    assert np.array_equal(value, f, equal_nan=True) and np.array_equal(deriv, fp, equal_nan=True)
    assert np.array_equal(matrix.eval(z), f, equal_nan=True)


def padded_matrix(pole):
    """Entries whose numerators and denominators mix degrees 0 to 3, a zero
    entry, low zero coefficients, and one entry with a pole at ``pole``."""
    rng = np.random.default_rng(7)

    def poly(degree):
        return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)

    return RationalMatrix(
        [
            [RationalFunction(poly(3), poly(0)), RationalFunction([0.0]), RationalFunction(poly(1), poly(2))],
            [RationalFunction([0.0, 0.0, 2.0]), RationalFunction(poly(2), poly(3)), RationalFunction(poly(0), poly(1))],
            [RationalFunction(poly(1), [-pole, 1.0]), RationalFunction(poly(0)), RationalFunction([0.0, *poly(2)])],
        ]
    )


def test_stacked_evaluation_pads_mixed_degrees_bit_for_bit():
    # one Horner pass per stack over entries of degrees 0 to 3: the padded zeros change no bit,
    # at one point and on grids alike, and a pole exactly on a grid point gives the same inf and nan
    grid = build_grid(4, 16, 0.01)
    pole = complex(grid.points[37])
    matrix = padded_matrix(pole)
    value, _ = matrix.eval_jet(grid.points)
    assert not np.isfinite(value[2, 0, 37]) and np.isfinite(np.delete(value[2, 0], 37)).all()
    for z in (grid.points, grid.points.reshape(4, 16), grid.points[:1], grid.points[37], pole, 0.5, 0.0):
        assert_entrywise(matrix, z)


def test_a_function_is_the_one_by_one_case():
    grid = build_grid(4, 16, 0.01)
    pole = complex(grid.points[5])
    for entry in [e for row in padded_matrix(pole).entries for e in row]:
        one = RationalMatrix([[entry]])
        for z in (grid.points, pole, 0.3 - 0.2j):
            f, fp = entrywise_jet(one, z)
            value, deriv = entry.jet(z)
            assert np.array_equal(value, f[0, 0], equal_nan=True) and np.array_equal(deriv, fp[0, 0], equal_nan=True)
            assert np.array_equal(entry(z), f[0, 0], equal_nan=True)
            assert np.array_equal(entry.eval_deriv(z), fp[0, 0], equal_nan=True)
            assert np.shape(value) == np.shape(z)


def test_pole_screen_moduli_are_those_of_the_companion_roots():
    # degrees 0 to 3, low zero coefficients (roots at 0) among them, batched by degree
    rng = np.random.default_rng(5)
    dens = [np.array([1.0 + 0j])]
    for degree in (1, 2, 3, 1, 2, 3, 3):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        dens.append(RationalFunction([1.0], c).den)
    dens += [RationalFunction([1.0], [0.0, 0.0, 1.0, 2.0]).den, RationalFunction([1.0], [0.0, 0.0, 0.0, 3.0]).den]
    for den, roots in zip(dens, _roots(_stack(dens)), strict=True):
        assert np.array_equal(roots, np.roots(den[::-1]))


def test_zeros_and_poles_are_those_of_np_roots():
    # 140 seeded polynomials of degree 0 to 6, a third of them with zero low coefficients (roots at 0)
    rng = np.random.default_rng(11)
    for k in range(140):
        degree = k % 7
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        c[: rng.integers(0, degree + 1) if k % 3 == 0 else 0] = 0.0
        f = RationalFunction(c, c)
        for roots in (f.zeros(), f.poles()):
            expected = np.roots(c[::-1])
            assert roots.shape == expected.shape and np.array_equal(roots, expected), (k, c)


@pytest.mark.parametrize("coeffs", [[1.0, 1e-320], [1e300, 1e-10], [1.0, 0.0, 1e-320]])
def test_roots_that_overflow_the_companion_matrix_cannot_be_located(coeffs):
    message = "roots cannot be located: the companion matrix overflows"
    for find in (RationalFunction(coeffs).zeros, RationalFunction([1.0], coeffs).poles):
        with pytest.raises(DataError) as err:
            find()
        assert str(err.value) == message
    with pytest.raises(DataError) as err:
        AnalyticFrame([[RationalFunction([1.0], [1.0, -0.25])], [RationalFunction([1.0], coeffs)]])
    assert (err.value.field, str(err.value)) == ("entries[1][0]", f"entries[1][0]: {message}")


def _refusal(make):
    with pytest.raises((DataError, ParameterError, SymbolError)) as err:
        make()
    return type(err.value).__name__, err.value.field, str(err.value)


def _frame_rows(dens):
    return [[RationalFunction([1.0], den) for den in row] for row in dens]


def test_pole_screen_refuses_the_first_entry_in_row_major_order():
    ok, inside = [1.0, -0.25], [1.0, -2.0]  # a pole at 4, and one at 0.5
    unlocatable = [1.0, 0.0, 1e-320]  # the companion row overflows
    cases = [
        (AnalyticFrame, {}, [[ok, inside], [inside, ok]], ("ParameterError", "entries[0][1]")),
        (AnalyticFrame, {}, [[ok, ok], [inside, unlocatable]], ("ParameterError", "entries[1][0]")),
        (AnalyticFrame, {}, [[ok, unlocatable], [inside, ok]], ("DataError", "entries[0][1]")),
        (AnalyticFrame, {}, [[ok, [0.0, 1.0]], [ok, ok]], ("ParameterError", "entries[0][1]")),  # pole at 0
        (MatrixSymbol, {"analytic": False}, [[ok, ok], [[1.0, -1.0], [1.0, 0.0, -1.0]]], ("SymbolError", "entries[1][0]")),
        (MatrixSymbol, {"analytic": True}, [[ok, [1.0, 0.0, -4.0]], [inside, ok]], ("SymbolError", "entries[0][1]")),
    ]
    messages = {
        "ParameterError": "frame entry has a pole inside or near the closed unit disk",
        "DataError": "roots cannot be located: the companion matrix overflows",
    }
    for cls, flags, dens, (kind, field) in cases:
        got_kind, got_field, message = _refusal(lambda: cls(_frame_rows(dens), **flags))
        assert (got_kind, got_field) == (kind, field), dens
        assert message.startswith(f"{field}: ")
        if kind in messages:
            assert message == f"{field}: {messages[kind]}"
        # the entry alone is refused the same way
        i, j = int(field[8]), int(field[11])
        alone = _refusal(lambda: cls([[RationalFunction([1.0], dens[i][j])]], **flags))
        assert alone == (kind, "entries[0][0]", message.replace(field, "entries[0][0]"))


def test_pole_screen_accepts_denominators_of_degree_zero_to_three():
    dens = [[1.0], [1.0, -0.5], [2.0, 0.0, 1.0], [1.0, 0.1, 0.0, -0.2j]]
    frame = AnalyticFrame(_frame_rows([dens]))
    assert_entrywise(frame, build_grid(2, 8, 0.1).points)
    # a pole within the buffer of the circle, in the cubic entry
    near = poly_from_roots([1.0 + 1e-10, 3.0, -3.0])
    assert _refusal(lambda: AnalyticFrame(_frame_rows([[*dens[:3], near]])))[:2] == ("ParameterError", "entries[0][3]")
