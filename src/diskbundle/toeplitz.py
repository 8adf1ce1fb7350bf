"""Finite sections of Toeplitz operators with rational matrix symbols.

An analytic symbol's blocks are the Taylor coefficients of its entries,
from one recurrence over all entries and no circle, so its sections are
block lower-triangular. Any other symbol's are the FFT of its values on
a circle doubled until they converge, or it is refused past a cap on the
samples. A section is one gather from the table by the offset ``j - k``.
The kernel-action and shift-intertwining identities are verified on
interior sections where truncation cannot break them; the backward shift
acts on a section as a slice by one block. The multiplicativity check
takes the product's blocks from the series of each term ``f_ik g_kj``,
not from the factors' series.

Also here: scalar inner-outer factorization by Blaschke-deflating the
numerator zeros inside the disk, and the smallest-singular-value margin
that witnesses left invertibility of a symbol over a grid, taken for
every width from the Gram-Schmidt kernel that frames use too.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from .calculus import ComplexGrid
from .errors import AccuracyError, BoundaryZeroError, NumericalError, ParameterError, SymbolError, check_count
from .rational import RationalFunction, RationalMatrix, _stack, _taylor, gram_schmidt, poly_from_roots, poly_mul

#: zeros/poles this close to the unit circle are rejected as boundary cases
_CIRCLE_TOL_POLE = 1e-8
_CIRCLE_TOL_ZERO = 1e-10

#: a non-analytic symbol's Fourier coefficients have converged once those at
#: offsets ``|k| >= m/4`` are at most this, relative to the largest of their table
_TAIL_TOL = 1e-13

#: the most matrix elements sampled on a doubled circle
_CIRCLE_CAP = 2**20

#: circle samples on which a winding number is counted
_WINDING_SAMPLES = 1024


class MatrixSymbol(RationalMatrix):
    """Rational matrix function on the circle with an analyticity flag.

    ``analytic=True`` requires all entry poles strictly outside the closed
    disk, so each entry has a Taylor series that its sections read;
    symbols in the general class only need their poles off the unit
    circle.
    """

    noun = "symbol"
    flags = ("analytic",)

    def __init__(self, entries: List[List[RationalFunction]], analytic: bool):
        self.analytic = bool(analytic)
        super().__init__(entries)

    def _check_pole_radii(self, radii: np.ndarray) -> None:
        if np.any(np.abs(radii - 1.0) <= _CIRCLE_TOL_POLE):
            raise SymbolError("symbol has a pole on or near the unit circle")
        if self.analytic and np.any(radii < 1.0):
            raise SymbolError("analytic-flagged symbol has a pole inside the disk")

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    def degree_hint(self) -> int:
        return max(len(e.num) - 1 + len(e.den) - 1 for row in self.entries for e in row)

    @classmethod
    def scalar(cls, fn: RationalFunction, analytic: bool) -> "MatrixSymbol":
        return cls([[fn]], analytic=analytic)

    @classmethod
    def constant(cls, matrix, analytic: bool = True) -> "MatrixSymbol":
        return super().constant(matrix, analytic=analytic)


def load_symbol(path) -> MatrixSymbol:
    return MatrixSymbol.load(path)


def _fourier_table(symbol: MatrixSymbol, order: int):
    """``(table, edge)`` of a symbol that is not analytic: the FFT table, in
    its usual layout, on the first circle of ``m = 64 * 2^j >= 4 (max(degree,
    order) + 1)`` points or more where the offsets ``|k| >= m/4`` are at most
    ``_TAIL_TOL`` of the largest, and its largest coefficient around ``m/2``.
    A circle past ``_CIRCLE_CAP`` matrix elements, or a value that is not
    finite, raises :class:`NumericalError` naming the tail or the point."""
    m = 64
    while m < 4 * (max(symbol.degree_hint(), order) + 1):
        m *= 2
    while True:
        vals = symbol.eval(np.exp(2j * np.pi * np.arange(m) / m))
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=(0, 1)))
        if bad.size:
            raise NumericalError(f"symbol value at z = {complex(np.exp(2j * np.pi * bad[0] / m))!r} is not finite")
        table = np.fft.fft(vals) / m
        size = np.abs(table)
        largest = float(np.max(size))
        tail = float(np.max(size[..., m // 4 : m - m // 4 + 1])) / largest if largest else 0.0
        if not tail > _TAIL_TOL:
            return table, float(np.max(size[..., m // 2 - 1 : m // 2 + 2]))
        if 2 * m * size[..., 0].size > _CIRCLE_CAP:
            raise NumericalError(
                f"Fourier coefficients of the symbol do not converge within {_CIRCLE_CAP} sampled matrix elements: "
                f"on the circle of {m} points, those at offsets |k| >= {m // 4} reach {tail:.3g} of the largest"
            )
        m *= 2


def _lay_out(blocks: np.ndarray, order: int) -> np.ndarray:
    """The ``order x order`` block section with block ``blocks[..., j - k]`` at ``(j, k)``;
    a table of ``m >= 2 order - 1`` offsets holds each ``j - k < 0`` at ``j - k + m``."""
    rows, cols, m = blocks.shape
    offsets = np.subtract.outer(np.arange(order), np.arange(order))  # j - k
    tiles = np.moveaxis(blocks, -1, 0).take(offsets % m, axis=0)  # gathered from an (m, rows, cols) table
    return tiles.transpose(0, 2, 1, 3).reshape(order * rows, order * cols)


def _series_section(stacks, shape: tuple, order: int, name: str) -> np.ndarray:
    """The section from the Taylor coefficients of the stacks ``(num, den)``: of shape
    ``(rows, cols, terms)``, each entry the sum of ``terms`` columns in a row."""
    rows, cols, terms = shape
    table = np.zeros((rows, cols, 2 * order), dtype=complex)
    table[..., :order] = _taylor(stacks, order, name).reshape(order, rows, cols, terms).sum(axis=-1).transpose(1, 2, 0)
    return _lay_out(table, order)


class ToeplitzSection(NamedTuple):
    """Leading ``N x N`` block section with blocks ``coeff(j - k)``."""

    symbol: MatrixSymbol
    order: int
    matrix: np.ndarray
    aliasing_estimate: float


def toeplitz_section(symbol: MatrixSymbol, order: int) -> ToeplitzSection:
    """An analytic symbol's section from its series, aliasing estimate 0.0; any other's from its circle."""
    check_count(order, 1, "section order must be >= 1")
    if symbol.analytic:
        matrix = _series_section(symbol._stacks[:2], (symbol.rows, symbol.cols, 1), order, "symbol")
        return ToeplitzSection(symbol=symbol, order=order, matrix=matrix, aliasing_estimate=0.0)
    table, edge = _fourier_table(symbol, order)
    return ToeplitzSection(symbol=symbol, order=order, matrix=_lay_out(table, order), aliasing_estimate=edge)


def _product_sections(f: MatrixSymbol, g: MatrixSymbol, order: int):
    """Sections of analytic ``f`` and ``g`` from their series, and of ``fg`` from the series
    of each term ``f_ik g_kj`` as one rational function, summed over ``k``."""
    terms = [(f.entries[i][k], g.entries[k][j]) for i in range(f.rows) for j in range(g.cols) for k in range(f.cols)]
    stacks = [_stack([poly_mul(getattr(a, part), getattr(b, part)) for a, b in terms]) for part in ("num", "den")]
    left, right = (_series_section(s._stacks[:2], (s.rows, s.cols, 1), order, "symbol") for s in (f, g))
    return left, right, _series_section(stacks, (f.rows, g.cols, f.cols), order, "product symbol")


def _spectral_norm(x: np.ndarray) -> float:
    """``|x|_2`` as the square root of the largest eigenvalue of ``x* x``,
    after scaling ``x`` by its largest entry so the squares stay normal."""
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return 0.0
    y = x / scale
    return scale * float(np.sqrt(max(0.0, np.linalg.eigvalsh(y.conj().T @ y)[-1])))


def multiplicativity_check(f: MatrixSymbol, g: MatrixSymbol, order: int) -> float:
    """Operator-norm gap in ``section(f) section(g) = section(fg)``.

    Requires both symbols analytic (the product identity needs it); then
    both sections are block lower-triangular and the gap is pure roundoff.
    """
    if not (f.analytic and g.analytic):
        raise ParameterError("multiplicativity requires analytic symbols on both sides")
    if f.cols != g.rows:
        raise ParameterError("symbol shapes do not compose")
    check_count(order, 1, "section order must be >= 1")
    left, right, product = _product_sections(f, g, order)
    return _spectral_norm(left @ right - product)


def kernel_action_check(section: ToeplitzSection, lam: complex, e) -> float:
    """Discrepancy in the kernel eigen-action of the adjoint section.

    Applies the section of ``F*`` to the truncated coefficient vector of
    ``k_lam e`` and compares with the coefficients of ``k_lam (F(lam)* e)``;
    the gap decays like ``|lam|^order``.
    """
    f = section.symbol
    if not f.analytic:
        raise ParameterError("kernel action check requires an analytic symbol")
    if not abs(lam) < 1.0:
        raise ParameterError("lam must lie in the open unit disk")
    e = np.asarray(e, dtype=complex)
    if e.shape != (f.rows,):
        raise ParameterError(f"vector must have length {f.rows}")
    kvec = np.conj(lam) ** np.arange(section.order)
    adj = np.ascontiguousarray(section.matrix.conj().T)
    lhs = adj @ np.kron(kvec, e)
    rhs = np.kron(kvec, f.eval(lam).conj().T @ e)
    return float(np.linalg.norm(lhs - rhs))


def intertwining_check(section: ToeplitzSection) -> float:
    """Gap between ``T_{F*} S*`` and ``S* T_{F*}`` on interior sections.

    The last block row is where truncation breaks the identity, so the two
    compositions are compared on the leading ``order - 1`` blocks only.
    ``S*`` moves the adjoint section one block column right (the first
    block column becomes zero) on one side and one block row up on the
    other, so both are slices of the one section.
    """
    f, order = section.symbol, section.order
    if not f.analytic:
        raise ParameterError("intertwining check requires an analytic symbol")
    if order < 2:
        raise ParameterError("section order must be >= 2")
    adj = section.matrix.conj().T
    rows_keep = (order - 1) * f.cols
    cols_keep = (order - 1) * f.rows
    left = np.zeros((rows_keep, cols_keep), dtype=complex)
    left[:, f.rows :] = adj[:rows_keep, : cols_keep - f.rows]
    right = adj[f.cols :, :cols_keep]
    return float(np.linalg.norm(left - right))


class InnerOuterFactorization(NamedTuple):
    inner: RationalFunction
    outer: RationalFunction
    disk_zeros: tuple


def _winding_number(fn) -> int:
    z = np.exp(2j * np.pi * np.arange(_WINDING_SAMPLES) / _WINDING_SAMPLES)
    vals = np.asarray(fn(z), dtype=complex)
    ratios = vals / np.roll(vals, 1)
    return int(round(float(np.sum(np.angle(ratios))) / (2 * np.pi)))


def _prod_blaschke_dens(roots) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for a in roots:
        out = poly_mul(out, [1.0, -np.conj(a)])
    return out


def scalar_inner_outer(f: RationalFunction) -> InnerOuterFactorization:
    """Split an analytic scalar rational function as inner times outer.

    The inner part is the Blaschke product over the numerator zeros inside
    the disk (companion-matrix roots); the outer part is what remains.
    Zeros within 1e-10 of the circle are refused, and the factorization is
    verified on circle samples before being returned.
    """
    if f.is_zero:
        raise ParameterError("cannot factor the zero function")
    poles = f.poles()
    if len(poles) and np.min(np.abs(poles)) <= 1.0 + _CIRCLE_TOL_POLE:
        raise ParameterError("inner-outer factorization needs an analytic input")
    zeros = f.zeros()
    radii = np.abs(zeros)
    if np.any(np.abs(radii - 1.0) <= _CIRCLE_TOL_ZERO):
        raise BoundaryZeroError("zero on the unit circle: no inner-outer split")
    disk = zeros[radii < 1.0]
    outside = zeros[radii > 1.0]
    leading = f.num[-1]
    inner = RationalFunction(poly_from_roots(disk), _prod_blaschke_dens(disk))
    outer_num = poly_mul(poly_from_roots(outside, leading), _prod_blaschke_dens(disk))
    outer = RationalFunction(outer_num, f.den)

    z = np.exp(2j * np.pi * np.arange(64) / 64)
    f_vals = f(z)
    scale = max(1.0, float(np.max(np.abs(f_vals))))
    if float(np.max(np.abs(np.abs(inner(z)) - 1.0))) > 1e-12:
        raise AccuracyError("inner factor is not unimodular on the circle")
    if float(np.max(np.abs(np.abs(outer(z)) - np.abs(f_vals)))) > 1e-10 * scale:
        raise AccuracyError("outer factor modulus mismatch on the circle")
    if float(np.max(np.abs(inner(z) * outer(z) - f_vals))) > 1e-10 * scale:
        raise AccuracyError("inner * outer does not reassemble the input")
    if _winding_number(outer) != 0:
        raise AccuracyError("outer factor winds around zero: it still has disk zeros")
    return InnerOuterFactorization(inner=inner, outer=outer, disk_zeros=tuple(disk))


def left_invertibility_margin(theta: MatrixSymbol, grid: ComplexGrid) -> float:
    """Minimum over the grid of the smallest singular value of the symbol.

    A margin bounded away from zero on a fine grid with small margin is
    numerical evidence of left invertibility; the sweep never extrapolates
    beyond the grid. The symbol is evaluated and factored by
    :func:`~diskbundle.rational.gram_schmidt` in the defect field's chunks
    of grid points, in grid order; ``lo`` is the squared smallest singular
    value of each point's matrix scaled by a power of two of its largest
    entry, so ``sigma`` is unscaled without its square overflowing or
    underflowing; a zero matrix gives 0. The first point in grid order
    where the symbol has no finite value raises :class:`NumericalError`
    naming it, and so does a failed SVD, so the minimum is never taken
    over part of the grid.
    """
    if theta.rows < theta.cols:
        raise ParameterError("need rows >= cols for a left-invertibility margin")
    smallest = []
    for part in theta._chunks(grid.n):
        vals = theta.eval(grid.points[part])
        finite = np.all(np.isfinite(vals), axis=(0, 1))
        if not np.all(finite):
            z = complex(grid.points[part][np.argmin(finite)])
            raise NumericalError(f"margin sweep failed at z = {z!r}: non-finite symbol value")
        lo, _, exp, _ = gram_schmidt(vals)
        smallest.append(np.min(np.ldexp(np.sqrt(lo), exp)))
    return float(np.min(smallest))
