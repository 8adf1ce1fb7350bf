import numpy as np
import pytest

from diskbundle.bundle import AnalyticFrame
from diskbundle.errors import DataError, ParameterError
from diskbundle.rational import RationalFunction, poly_from_roots, poly_mul, poly_roots
from diskbundle.toeplitz import MatrixSymbol
from oracles import poly_add, rational_product, rational_sum


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
    roots = poly_roots(poly_from_roots([0.5, -2.0]))
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
