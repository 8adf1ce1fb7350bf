"""Metamorphic properties of the batched defect field and the Green sweep.

The curvature defect depends only on the projection onto the frame's
range, so it is unchanged by a gauge ``F -> F A`` (``A`` analytic and
invertible on the closed disk) and by a constant unitary ``F -> U F``; a
rotation of the argument by a grid angle shifts it cyclically within each
ring. The frame's Gram extremes are unchanged by a constant unitary
``F -> U F`` and scale by ``|c|^2`` under ``F -> c F``. The Green
quadrature is linear in the density. The Toeplitz
margin is a minimum of singular values, so constant unitaries on either
side of the symbol leave it alone. Hypothesis draws the coefficients;
frames and symbols are at most 4x3 and grids 4x16. A report writes every
finite float so that it reads back bit for bit.
"""

import json
import struct
from functools import reduce

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diskbundle.bundle import AnalyticFrame, DefectField, defect_field, gram_bounds
from diskbundle.calculus import build_grid
from diskbundle.cli import _json_text
from diskbundle.criteria import green_potential, green_sweep
from diskbundle.rational import RationalFunction
from diskbundle.toeplitz import MatrixSymbol, left_invertibility_margin
from oracles import rational_product, rational_sum

PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)

GRID = build_grid(4, 16, 1e-2)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def complex_array(shape):
    return arrays(np.float64, (2, *shape), elements=unit).map(lambda a: a[0] + 1j * a[1])


def scaled(m, size):
    """``m`` rescaled to spectral norm at most ``size``."""
    return m * (size / max(np.linalg.norm(m, 2), 1.0))


@st.composite
def frame_entries(draw, min_rows=2):
    """``[I; 0] + lam B1 + lam^2 B2`` with ``|B1| + |B2| <= 0.5``: rank ``cols`` on the closed disk."""
    rows = draw(st.integers(min_rows, 4))
    cols = draw(st.integers(1, min(rows, 3)))
    b1 = scaled(draw(complex_array((rows, cols))), 0.3)
    b2 = scaled(draw(complex_array((rows, cols))), 0.2)
    e = np.eye(rows, cols)
    return [[RationalFunction([e[i, j], b1[i, j], b2[i, j]]) for j in range(cols)] for i in range(rows)]


def frames():
    return frame_entries().map(AnalyticFrame)


def product(left, right):
    """Entries of the matrix product of two nested lists of rational functions."""
    return [[reduce(rational_sum, map(rational_product, row, col)) for col in zip(*right)] for row in left]


def unitary(data, n):
    u, _ = np.linalg.qr(data.draw(complex_array((n, n))) + 2.0 * np.eye(n))
    return u


def constant(m):
    return [[RationalFunction.constant(v) for v in row] for row in m]


def assert_same_field(a, b):
    assert not a.is_partial and not b.is_partial
    assert np.all(np.abs(a.values - b.values) <= 1e-11 * np.abs(a.values) + 1e-13)


@PROPERTY
@given(frames(), st.data())
def test_gauge_invariance(frame, data):
    cols = frame.cols
    a0 = 2.0 * np.eye(cols) + scaled(data.draw(complex_array((cols, cols))), 0.25)
    a1 = scaled(data.draw(complex_array((cols, cols))), 0.5)
    # a scalar factor 1 / (1 - lam/q) with |q| >= 1.5 makes the gauge rational
    q = data.draw(st.floats(1.5, 3.0)) * np.exp(2j * np.pi * data.draw(st.floats(0.0, 1.0)))
    pole = RationalFunction([1.0], [1.0, -1.0 / q])
    gauge = [[rational_product(RationalFunction([a0[i, j], a1[i, j]]), pole) for j in range(cols)] for i in range(cols)]
    # sigma_min(A(lam)) >= 2 - 0.25 - 0.5 on the closed disk, so A is invertible there
    moved = AnalyticFrame(product(frame.entries, gauge))
    assert_same_field(defect_field(frame, GRID), defect_field(moved, GRID))


@PROPERTY
@given(frames(), st.data())
def test_unitary_invariance(frame, data):
    moved = AnalyticFrame(product(constant(unitary(data, frame.rows)), frame.entries))
    assert_same_field(defect_field(frame, GRID), defect_field(moved, GRID))


@PROPERTY
@given(frames(), st.data())
def test_gram_bounds_unitary_invariance_and_scaling(frame, data):
    base = gram_bounds(defect_field(frame, GRID))
    turned = gram_bounds(defect_field(AnalyticFrame(product(constant(unitary(data, frame.rows)), frame.entries)), GRID))
    c = data.draw(st.floats(1e-3, 1e3)) * np.exp(2j * np.pi * data.draw(st.floats(0.0, 1.0)))
    times_c = RationalFunction.constant(c)
    scaled_frame = AnalyticFrame([[rational_product(times_c, e) for e in row] for row in frame.entries])
    grown = gram_bounds(defect_field(scaled_frame, GRID))
    for got, want in zip(
        (*turned.values(), *grown.values()), (*base.values(), *(abs(c) ** 2 * b for b in base.values()))
    ):
        assert abs(got - want) <= 1e-13 * want


@PROPERTY
@given(frames(), st.integers(0, GRID.angular_count - 1))
def test_rotation_shifts_each_ring(frame, k):
    m = GRID.angular_count
    omega = np.exp(2j * np.pi * k / m)

    def rotate(e):
        return RationalFunction(e.num * omega ** np.arange(len(e.num)), e.den * omega ** np.arange(len(e.den)))

    # G(lam) = F(omega lam), so G's defect at angle j is F's at angle j + k
    rotated = AnalyticFrame([[rotate(e) for e in row] for row in frame.entries])
    base = defect_field(frame, GRID).values.reshape(-1, m)
    turned = defect_field(rotated, GRID).values.reshape(-1, m)
    assert np.all(np.abs(turned - np.roll(base, -k, axis=1)) <= 1e-11 * np.abs(base) + 1e-13)


@PROPERTY
@given(
    arrays(np.float64, (2, GRID.n), elements=st.floats(0.0, 5.0, allow_subnormal=False)),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)
def test_green_sweep_is_linear_in_the_density(densities, a, b):
    def potentials(values):
        field = DefectField(grid=GRID, values=values)
        off_grid = [green_potential(field, lam) for lam in (0.0, 0.3 + 0.2j)]
        return np.concatenate([green_sweep(field, np.arange(0, GRID.n, 5)), off_grid])

    g1, g2 = (potentials(d) for d in densities)
    mixed = potentials(a * densities[0] + b * densities[1])
    scale = a * np.abs(g1) + b * np.abs(g2)
    assert np.all(np.abs(mixed - (a * g1 + b * g2)) <= 1e-12 * np.max(scale))


@PROPERTY
@given(frame_entries(min_rows=1), st.data())
def test_margin_unitary_invariance(entries, data):
    rows, cols = len(entries), len(entries[0])
    moved = product(product(constant(unitary(data, rows)), entries), constant(unitary(data, cols)))
    base = left_invertibility_margin(MatrixSymbol(entries, analytic=True), GRID)
    turned = left_invertibility_margin(MatrixSymbol(moved, analytic=True), GRID)
    assert abs(turned - base) <= 1e-13 * base


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
def test_report_floats_read_back_bit_for_bit(x):
    y = json.loads(_json_text({"x": x}))["x"]
    assert type(y) is float and struct.pack("<d", y) == struct.pack("<d", x)
