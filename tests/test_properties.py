"""Metamorphic properties of the batched defect field and the Green sweep.

The curvature defect depends only on the projection onto the frame's
range, so it is unchanged by a gauge ``F -> F A`` (``A`` analytic and
invertible on the closed disk) and by a constant unitary ``F -> U F``; a
rotation of the argument by a grid angle shifts it cyclically within each
ring. The Green quadrature is linear in the density. Hypothesis draws the
coefficients; frames are at most 4x3 and grids 4x16.
"""

import operator
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diskbundle.bundle import AnalyticFrame, DefectField, defect_field
from diskbundle.calculus import build_grid
from diskbundle.criteria import green_sweep
from diskbundle.rational import RationalFunction

PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)

GRID = build_grid(4, 16, 1e-2)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def complex_array(shape):
    return arrays(np.float64, (2, *shape), elements=unit).map(lambda a: a[0] + 1j * a[1])


def scaled(m, size):
    """``m`` rescaled to spectral norm at most ``size``."""
    return m * (size / max(np.linalg.norm(m, 2), 1.0))


@st.composite
def frames(draw):
    """``[I; 0] + lam B1 + lam^2 B2`` with ``|B1| + |B2| <= 0.5``: rank ``cols`` on the closed disk."""
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(1, min(rows, 3)))
    b1 = scaled(draw(complex_array((rows, cols))), 0.3)
    b2 = scaled(draw(complex_array((rows, cols))), 0.2)
    e = np.eye(rows, cols)
    return AnalyticFrame(
        [[RationalFunction([e[i, j], b1[i, j], b2[i, j]]) for j in range(cols)] for i in range(rows)]
    )


def product(left, right):
    """Entries of the matrix product of two nested lists of rational functions."""
    return [
        [reduce(operator.add, (a * right[k][j] for k, a in enumerate(row))) for j in range(len(right[0]))]
        for row in left
    ]


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
    gauge = [[RationalFunction([a0[i, j], a1[i, j]]) * pole for j in range(cols)] for i in range(cols)]
    # sigma_min(A(lam)) >= 2 - 0.25 - 0.5 on the closed disk, so A is invertible there
    moved = AnalyticFrame(product(frame.entries, gauge))
    assert_same_field(defect_field(frame, GRID), defect_field(moved, GRID))


@PROPERTY
@given(frames(), st.data())
def test_unitary_invariance(frame, data):
    u, _ = np.linalg.qr(data.draw(complex_array((frame.rows, frame.rows))) + 2.0 * np.eye(frame.rows))
    moved = AnalyticFrame(product(constant(u), frame.entries))
    assert_same_field(defect_field(frame, GRID), defect_field(moved, GRID))


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
    probes = np.concatenate([GRID.points[::5], [0.0, 0.3 + 0.2j]])
    g1, g2 = (green_sweep(DefectField(grid=GRID, values=d), probes) for d in densities)
    mixed = green_sweep(DefectField(grid=GRID, values=a * densities[0] + b * densities[1]), probes)
    scale = a * np.abs(g1) + b * np.abs(g2)
    assert np.all(np.abs(mixed - (a * g1 + b * g2)) <= 1e-12 * np.max(scale))
