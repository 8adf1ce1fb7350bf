"""Finite sections of Toeplitz operators with rational matrix symbols.

Sections are taken of analytic symbols only: their blocks are the Taylor
coefficients of the entries, from one recurrence over all entries and no
circle, so each section is block lower-triangular, one gather from the
coefficients by the offset ``j - k``. A symbol that is not analytic is
refused, as by every check that reads a section; it still has a margin.
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

#: circle samples on which a winding number is counted
_WINDING_SAMPLES = 1024


class MatrixSymbol(RationalMatrix):
    """Rational matrix function on the circle with an analyticity flag.

    ``analytic=True`` requires all entry poles strictly outside the closed
    disk, so each entry has a Taylor series that its sections read;
    symbols in the general class only need their poles off the unit
    circle, and get a margin but no section.
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

    @classmethod
    def scalar(cls, fn: RationalFunction, analytic: bool) -> "MatrixSymbol":
        return cls([[fn]], analytic=analytic)

    @classmethod
    def constant(cls, matrix, analytic: bool = True) -> "MatrixSymbol":
        return super().constant(matrix, analytic=analytic)


def load_symbol(path) -> MatrixSymbol:
    return MatrixSymbol.load(path)


def _series_section(stacks, shape: tuple, order: int, name: str) -> np.ndarray:
    """The ``order x order`` block section with the Taylor coefficient ``j - k`` of the
    stacks ``(num, den)`` at ``(j, k)``, and zero blocks above the diagonal: stacks of shape
    ``(rows, cols, terms)``, each entry the sum of ``terms`` columns in a row."""
    rows, cols, terms = shape
    table = np.zeros((order + 1, rows, cols), dtype=complex)  # the last block is the zero above the diagonal
    table[:order] = _taylor(stacks, order, name).reshape(order, rows, cols, terms).sum(axis=-1)
    offsets = np.subtract.outer(np.arange(order), np.arange(order))  # j - k
    tiles = table.take(np.where(offsets < 0, order, offsets), axis=0)
    return tiles.transpose(0, 2, 1, 3).reshape(order * rows, order * cols)


class ToeplitzSection(NamedTuple):
    """Leading ``N x N`` block section with blocks ``coeff(j - k)``."""

    symbol: MatrixSymbol
    order: int
    matrix: np.ndarray


def toeplitz_section(symbol: MatrixSymbol, order: int) -> ToeplitzSection:
    """An analytic symbol's section from its Taylor series."""
    if not symbol.analytic:
        raise ParameterError("a Toeplitz section requires an analytic symbol")
    check_count(order, 1, "section order must be >= 1")
    matrix = _series_section(symbol._stacks[:2], (symbol.rows, symbol.cols, 1), order, "symbol")
    return ToeplitzSection(symbol=symbol, order=order, matrix=matrix)


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
