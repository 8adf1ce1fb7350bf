"""Analytic families of subspaces given by frames, and their curvature.

A frame is a matrix of rational functions ``F(lam)`` whose columns span a
moving subspace; the orthogonal projection onto the range is
``P = F (F*F)^-1 F*`` and its holomorphic derivative has the closed form
``(I - P) F' (F*F)^-1 F*``. The squared Hilbert-Schmidt norm of that
derivative is the curvature defect tracked throughout the package, and
``full_bundle_curvature`` checks the rank-scaled split

    |dP_full|^2 = n / (1 - |lam|^2)^2 + |dP_frame|^2

by differentiating the projection of the kernel-tensored frame, whose Gram
scalars are closed-form kernel sums. It and ``gram_bounds`` return plain
dicts under the keys of the ``curvature`` report.

``defect_field`` evaluates the frame and its exact derivative in one
stacked Horner pass over each chunk of grid points (``rational._CHUNK``,
8192 matrix elements, as the symbol margin takes them), with the points
on the last axis, and factors ``F = QR`` at every point by
:func:`~diskbundle.rational.gram_schmidt`. The defect is ``|(I - QQ*) F' R^-1|_HS^2``, which needs no rows x rows
projection and keeps its accuracy when ``|F'|`` dwarfs the defect. The
extreme Gram eigenvalues are the squared extreme singular values of
``R`` (in closed form for up to two columns, from one batched SVD of the
``cols x cols`` factors for wider frames); they decide the condition
check, and the field keeps them for ``gram_bounds``. ``curvature_defect``
and ``full_bundle_curvature`` run the same kernel and check at their one
point, as a one-element grid, so their defect is the field's bit for bit:
a point the field would list as a failure makes them raise
:class:`~diskbundle.errors.ConditioningError` with the message listed.
"""

from __future__ import annotations

import numpy as np

from .calculus import ComplexGrid
from .errors import ConditioningError, DataError, Frozen, ParameterError
from .rational import RationalFunction, RationalMatrix, gram_schmidt

#: Gram matrices with a larger condition number are rejected, not regularized
CONDITION_CAP = 1e12

#: poles must stay this far outside the closed unit disk
_POLE_BUFFER = 1e-9


class AnalyticFrame(RationalMatrix):
    """Matrix of rational functions with poles off the closed disk."""

    noun = "frame"

    def _check_pole_radii(self, radii: np.ndarray) -> None:
        if len(radii) and np.min(radii) <= 1.0 + _POLE_BUFFER:
            raise ParameterError("frame entry has a pole inside or near the closed unit disk")

    @classmethod
    def from_polynomials(cls, columns_of_coeffs) -> "AnalyticFrame":
        """Single-column frame from a list of polynomial coefficient lists."""
        rows = [[RationalFunction(c)] for c in columns_of_coeffs]
        return cls(rows)


def load_frame(path) -> AnalyticFrame:
    return AnalyticFrame.load(path)


def _condition_message(lo: float, hi: float) -> str:
    # an overflowed Gram matrix has inf eigenvalues, whose quotient would read nan
    condition = hi / lo if lo > 0 and np.isfinite(lo) and np.isfinite(hi) else np.inf
    return (
        f"Gram matrix condition {condition:.3e} exceeds cap {CONDITION_CAP:.0e}"
        f" (eigenvalues in [{lo:.3e}, {hi:.3e}])"
    )


def _checked_defect(f: np.ndarray, fp: np.ndarray):
    """Defect and Gram check at every point of ``F`` and ``F'``, laid out
    ``(rows, cols, n)``; returns ``(values, failures, lo, hi)``.

    A point whose Gram matrix exceeds the condition cap, or where the
    frame, its derivative or its Gram matrix is not finite, gets NaN in
    ``values`` and is listed in ``failures`` as ``(index, message)``;
    ``lo`` and ``hi`` are NaN where something is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi, exp, values = gram_schmidt(f, fp)
        lo, hi = np.ldexp(lo, 2 * exp), np.ldexp(hi, 2 * exp)
    ok = np.isfinite(hi) & np.all(np.isfinite(fp), axis=(0, 1))
    lo[~ok] = hi[~ok] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        ok &= (lo > 0.0) & ~(hi / lo > CONDITION_CAP)
    values[~ok] = np.nan
    not_finite = "frame, derivative or Gram matrix is not finite"
    failures = tuple(
        (int(i), _condition_message(lo[i], hi[i]) if np.isfinite(lo[i]) else not_finite) for i in np.flatnonzero(~ok)
    )
    return values, failures, lo, hi


def _point_defect(f: np.ndarray, fp: np.ndarray) -> float:
    """The defect of :func:`_checked_defect` at one ``rows x cols`` point;
    a point it lists raises :class:`ConditioningError` with its message."""
    values, failures, _, _ = _checked_defect(f[..., None], fp[..., None])
    if failures:
        raise ConditioningError(failures[0][1])
    return float(values[0])


def curvature_defect(frame: AnalyticFrame, lam: complex) -> float:
    """``|dP/dz|_HS^2`` of the frame's projection at one point; always >= 0."""
    return _point_defect(*frame.eval_jet(lam))


def full_bundle_curvature(frame: AnalyticFrame, lam: complex) -> dict:
    """Curvature split ``n/(1-|lam|^2)^2 + defect`` at one parameter.

    ``total`` is ``shift_part + defect``; ``tensor_total`` recomputes the
    same quantity by differentiating the projection of the kernel-tensored
    frame, whose Gram scalars are the kernel sums in closed form, and
    ``discrepancy`` is the gap between the two routes.
    """
    x = abs(lam) ** 2
    if not x < 1.0:
        raise ParameterError("lam must lie in the open unit disk")
    n = frame.cols
    shift_part = n / (1.0 - x) ** 2
    # one evaluation serves both routes; the checked defect vouches for the Gram matrices
    f, fp = frame.eval_jet(lam)
    defect = _point_defect(f, fp)
    total = shift_part + defect

    # tensored route: cross-Gram scalars of the kernel vector (x^k) and its
    # derivative, the sums of x^k, k x^(k-1) and k^2 x^(k-1) over k >= 0
    one = 1.0 - x
    s00, sigma1, a11 = 1.0 / one, 1.0 / one**2, (1.0 + x) / one**3
    a01 = np.conj(lam) * sigma1
    gf = f.conj().T @ f
    gc = f.conj().T @ fp
    gd = fp.conj().T @ fp
    s = s00 * gf
    q = a01 * gf + s00 * gc
    p = a11 * gf + np.conj(a01) * gc + a01 * gc.conj().T + s00 * gd
    inner = p - q.conj().T @ np.linalg.solve(s, q)
    tensor_total = float(np.trace(np.linalg.solve(s, inner)).real)

    return {
        "total": total,
        "shift_part": shift_part,
        "defect": defect,
        "tensor_total": tensor_total,
        "discrepancy": abs(tensor_total - total),
    }


class DefectField(Frozen):
    """Curvature-defect samples on a grid.

    Failed evaluations are recorded in ``failures`` with NaN values; such a
    field is *partial* and refused by the quadrature consumers.
    ``gram_lo`` and ``gram_hi`` are the smallest and largest Gram
    eigenvalue at each point, kept by :func:`defect_field` for
    :func:`gram_bounds`; a field built from bare values has none.
    """

    __slots__ = _fields = ("grid", "values", "failures", "gram_lo", "gram_hi")

    def __init__(self, grid: ComplexGrid, values, failures: tuple = (), gram_lo=None, gram_hi=None):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.n,):
            raise DataError("field needs one value per grid point")
        finite = vals[np.isfinite(vals)]
        if finite.size and float(finite.min()) < -1e-10:
            raise DataError("defect values must be nonnegative (>= -1e-10)")
        self._set(grid=grid, values=vals, failures=failures, gram_lo=gram_lo, gram_hi=gram_hi)

    @property
    def is_partial(self) -> bool:
        return bool(self.failures) or bool(np.any(~np.isfinite(self.values)))

    def scaled(self, t: float) -> "DefectField":
        if not t >= 0:
            raise ParameterError("scale factor must be nonnegative")
        return DefectField(self.grid, self.values * t, self.failures, self.gram_lo, self.gram_hi)


def defect_field(frame: AnalyticFrame, grid: ComplexGrid) -> DefectField:
    """Curvature defect on the whole grid, one chunk of grid points at a
    time; failures are collected, not fatal.

    A point whose Gram matrix exceeds the condition cap, or where the
    frame, its derivative or its Gram matrix is not finite, gets NaN and
    the message :func:`curvature_defect` raises there. Every operation
    is per point, so the field's bits do not depend on the chunk size.
    """
    values, lo, hi = np.empty((3, grid.n))
    failures = []
    for part in frame._chunks(grid.n):
        values[part], found, lo[part], hi[part] = _checked_defect(*frame.eval_jet(grid.points[part]))
        failures += [(part.start + i, message) for i, message in found]
    return DefectField(grid=grid, values=values, failures=tuple(failures), gram_lo=lo, gram_hi=hi)


def gram_bounds(field: DefectField) -> dict:
    """Extreme Gram eigenvalues ``{"c_min", "c_max"}`` kept by :func:`defect_field`;
    ``c_min > 0`` certifies the frame is uniformly nondegenerate at grid resolution."""
    if field.gram_lo is None or field.gram_hi is None:
        raise DataError("field carries no Gram extremes; build it with defect_field")
    if field.is_partial:
        raise DataError("field is partial; its Gram extremes do not cover the grid")
    return {"c_min": float(np.min(field.gram_lo)), "c_max": float(np.max(field.gram_hi))}
