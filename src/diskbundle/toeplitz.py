"""Finite sections of Toeplitz operators with rational matrix symbols.

Fourier blocks come from FFT sampling on the circle (exact for rational
symbols up to a reported aliasing level). Analytic symbols yield block
lower-triangular sections by construction, multiplication of analytic
sections is exact, and the kernel-action / shift-intertwining identities
are verified on interior sections where truncation cannot break them.

Also here: scalar inner-outer factorization by Blaschke-deflating the
numerator zeros inside the disk, and the smallest-singular-value margin
that witnesses left invertibility of a symbol over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .calculus import ComplexGrid
from .errors import (
    AccuracyError,
    BoundaryZeroError,
    NumericalError,
    ParameterError,
    SymbolError,
)
from .rational import RationalFunction, RationalMatrix, poly_from_roots, poly_mul

#: zeros/poles this close to the unit circle are rejected as boundary cases
_CIRCLE_TOL_POLE = 1e-8
_CIRCLE_TOL_ZERO = 1e-10

#: numeric verification level for "no negative Fourier coefficients"
_ANALYTIC_TOL = 1e-12


def _next_pow2(n: int) -> int:
    m = 64
    while m < n:
        m *= 2
    return m


class MatrixSymbol(RationalMatrix):
    """Rational matrix function on the circle with an analyticity flag.

    ``analytic=True`` requires all entry poles strictly outside the closed
    disk and is verified numerically through the FFT coefficients; symbols
    in the general class only need their poles off the unit circle.
    """

    noun = "symbol"
    flags = ("analytic",)

    def __init__(self, entries: List[List[RationalFunction]], analytic: bool):
        self.analytic = bool(analytic)
        super().__init__(entries)
        if self.analytic:
            self._verify_analytic()

    def _check_pole_radii(self, radii: np.ndarray) -> None:
        if np.any(np.abs(radii - 1.0) <= _CIRCLE_TOL_POLE):
            raise SymbolError("symbol has a pole on or near the unit circle")
        if self.analytic and np.any(radii < 1.0):
            raise SymbolError("analytic-flagged symbol has a pole inside the disk")

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    def degree_hint(self) -> int:
        return max(
            len(e.num) - 1 + len(e.den) - 1 for row in self.entries for e in row
        )

    def __matmul__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        if not isinstance(other, MatrixSymbol):
            return NotImplemented
        if self.cols != other.rows:
            raise ParameterError("symbol shapes do not compose")
        entries = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RationalFunction([0.0])
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            entries.append(row)
        return MatrixSymbol(entries, analytic=self.analytic and other.analytic)

    @classmethod
    def scalar(cls, fn: RationalFunction, analytic: bool) -> "MatrixSymbol":
        return cls([[fn]], analytic=analytic)

    @classmethod
    def constant(cls, matrix, analytic: bool = True) -> "MatrixSymbol":
        return super().constant(matrix, analytic=analytic)

    def _verify_analytic(self) -> None:
        # the pole check above already settles analyticity for rational
        # entries; this cross-checks the evaluation path at the aliasing floor
        blocks, edge = _fourier_blocks(self, 1, n_samples=max(256, 4 * (self.degree_hint() + 1)))
        m = blocks.shape[0]
        scale = max(1.0, float(np.max(np.abs(blocks))))
        neg = blocks[m // 2 + 1 :]  # offsets -(m/2 - 1) .. -1
        if float(np.max(np.abs(neg))) > max(_ANALYTIC_TOL * scale, 8.0 * edge):
            raise SymbolError(
                "symbol flagged analytic but has nonzero negative Fourier coefficients"
            )


def load_symbol(path) -> MatrixSymbol:
    return MatrixSymbol.load(path)


def save_symbol(symbol: MatrixSymbol, path) -> None:
    symbol.save(path)


def _fourier_blocks(symbol: MatrixSymbol, max_offset: int, n_samples: Optional[int] = None):
    """All Fourier blocks by one FFT; returns (blocks, aliasing_estimate).

    ``blocks[k]`` is the coefficient at offset ``k`` for ``k < n/2`` and at
    ``k - n`` beyond, the usual FFT layout.
    """
    need = max(64, 4 * (symbol.degree_hint() + 1), 4 * (max_offset + 1))
    m = _next_pow2(need if n_samples is None else max(n_samples, 2 * max_offset + 2))
    z = np.exp(2j * np.pi * np.arange(m) / m)
    vals = symbol.eval(z)
    blocks = np.fft.fft(vals, axis=0) / m
    edge = np.abs(blocks[m // 2 - 1 : m // 2 + 2])
    return blocks, float(np.max(edge))


def fourier_block(symbol: MatrixSymbol, k: int, n_samples: Optional[int] = None) -> np.ndarray:
    """The ``k``-th Fourier coefficient block of the symbol."""
    blocks, _ = _fourier_blocks(symbol, abs(k), n_samples)
    m = blocks.shape[0]
    if symbol.analytic and k < 0:
        return np.zeros((symbol.rows, symbol.cols), dtype=complex)
    return np.array(blocks[k % m])


@dataclass(frozen=True)
class ToeplitzSection:
    """Leading ``N x N`` block section with blocks ``coeff(j - k)``."""

    symbol: MatrixSymbol
    order: int
    matrix: np.ndarray
    aliasing_estimate: float


def toeplitz_section(symbol: MatrixSymbol, order: int) -> ToeplitzSection:
    if order < 1:
        raise ParameterError("section order must be >= 1")
    blocks, aliasing = _fourier_blocks(symbol, order)
    m = blocks.shape[0]
    rows, cols = symbol.rows, symbol.cols
    out = np.zeros((order * rows, order * cols), dtype=complex)
    for offset in range(-(order - 1), order):
        if symbol.analytic and offset < 0:
            continue  # exact zeros above the block diagonal
        block = blocks[offset % m]
        for j in range(order):
            k = j - offset
            if 0 <= k < order:
                out[j * rows : (j + 1) * rows, k * cols : (k + 1) * cols] = block
    return ToeplitzSection(symbol=symbol, order=order, matrix=out, aliasing_estimate=aliasing)


def _shift_down_section(block_dim: int, order: int) -> np.ndarray:
    return np.kron(np.eye(order, k=1), np.eye(block_dim))


def multiplicativity_check(f: MatrixSymbol, g: MatrixSymbol, order: int) -> float:
    """Operator-norm gap in ``section(f) section(g) = section(fg)``.

    Requires both symbols analytic (the product identity needs it); then
    both sections are block lower-triangular and the gap is pure roundoff.
    """
    if not (f.analytic and g.analytic):
        raise ParameterError("multiplicativity requires analytic symbols on both sides")
    if f.cols != g.rows:
        raise ParameterError("symbol shapes do not compose")
    left = toeplitz_section(f, order).matrix @ toeplitz_section(g, order).matrix
    right = toeplitz_section(f @ g, order).matrix
    return float(np.linalg.norm(left - right, 2))


def kernel_action_check(f: MatrixSymbol, lam: complex, e, order: int) -> float:
    """Discrepancy in the kernel eigen-action of the adjoint section.

    Applies the section of ``F*`` to the truncated coefficient vector of
    ``k_lam e`` and compares with the coefficients of ``k_lam (F(lam)* e)``;
    the gap decays like ``|lam|^order``.
    """
    if not f.analytic:
        raise ParameterError("kernel action check requires an analytic symbol")
    if abs(lam) >= 1.0:
        raise ParameterError("lam must lie in the open unit disk")
    if order < 1:
        raise ParameterError("section order must be >= 1")
    e = np.asarray(e, dtype=complex)
    if e.shape != (f.rows,):
        raise ParameterError(f"vector must have length {f.rows}")
    kvec = np.conj(lam) ** np.arange(order)
    adj = np.ascontiguousarray(toeplitz_section(f, order).matrix.conj().T)
    lhs = adj @ np.kron(kvec, e)
    rhs = np.kron(kvec, f.eval(lam).conj().T @ e)
    return float(np.linalg.norm(lhs - rhs))


def intertwining_check(f: MatrixSymbol, order: int) -> float:
    """Gap between ``T_{F*} S*`` and ``S* T_{F*}`` on interior sections.

    The last block row is where truncation breaks the identity, so the two
    compositions are compared on the leading ``order - 1`` blocks only.
    """
    if not f.analytic:
        raise ParameterError("intertwining check requires an analytic symbol")
    if order < 2:
        raise ParameterError("section order must be >= 2")
    adj = np.ascontiguousarray(toeplitz_section(f, order).matrix.conj().T)
    left = adj @ _shift_down_section(f.rows, order)
    right = _shift_down_section(f.cols, order) @ adj
    rows_keep = (order - 1) * f.cols
    cols_keep = (order - 1) * f.rows
    return float(np.linalg.norm(left[:rows_keep, :cols_keep] - right[:rows_keep, :cols_keep]))


@dataclass(frozen=True)
class InnerOuterFactorization:
    inner: RationalFunction
    outer: RationalFunction
    disk_zeros: tuple


def _winding_number(fn, samples: int = 1024) -> int:
    z = np.exp(2j * np.pi * np.arange(samples) / samples)
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
    beyond the grid. The symbol is evaluated on the whole grid at once and
    its singular values come from one batched SVD. The first point in grid
    order where the symbol has no finite value raises
    :class:`NumericalError` naming it, and so does a failed SVD, so the
    minimum is never taken over part of the grid.
    """
    if theta.rows < theta.cols:
        raise ParameterError("need rows >= cols for a left-invertibility margin")
    vals = theta.eval(grid.points)
    finite = np.all(np.isfinite(vals), axis=(1, 2))
    if not np.all(finite):
        z = complex(grid.points[np.argmin(finite)])
        raise NumericalError(f"margin sweep failed at z = {z!r}: non-finite symbol value")
    try:
        sigma = np.linalg.svd(vals, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"margin sweep failed: {exc}") from exc
    return float(np.min(sigma[:, -1]))
