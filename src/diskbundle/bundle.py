"""Analytic families of subspaces given by frames, and their curvature.

A frame is a matrix of rational functions ``F(lam)`` whose columns span a
moving subspace; the orthogonal projection onto the range is
``P = F (F*F)^-1 F*`` and its holomorphic derivative has the closed form
``(I - P) F' (F*F)^-1 F*``. The squared Hilbert-Schmidt norm of that
derivative is the curvature defect tracked throughout the package, and
``full_bundle_curvature`` checks the rank-scaled split

    |dP_full|^2 = n / (1 - |lam|^2)^2 + |dP_frame|^2

by realizing the kernel-tensored frame on a truncated coefficient space.

The grid sweeps (``defect_field``, ``gram_bounds``) evaluate the frame and
its exact derivative once on the whole grid as ``(n, rows, cols)`` stacks.
The condition check is a batched ``eigvalsh`` of the Grams ``F*F`` with
the same cap as the scalar path; points that fail it are masked out before
any factorization, because one singular matrix makes a whole stack raise.
The defect then comes from the batched reduced QR ``F = QR`` as
``|(I - QQ*) F' R^-1|_HS^2``, which needs no rows x rows projection and
keeps its accuracy when ``|F'|`` dwarfs the defect. The scalar
``projection``, ``projection_dz`` and ``curvature_defect`` stay as the
reference the sweeps are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import ComplexGrid
from .errors import AccuracyError, ConditioningError, DataError, ParameterError
from .rational import RationalFunction, RationalMatrix

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


def hardy_line_frame(n_terms: int) -> AnalyticFrame:
    """Single-column frame listing the power-series coefficients
    ``(1, lam, lam^2, ...)`` of the backward-shift eigenvector, truncated
    to ``n_terms`` slots."""
    if n_terms < 1:
        raise ParameterError("n_terms must be >= 1")
    return AnalyticFrame([[RationalFunction.monomial(k)] for k in range(n_terms)])


def load_frame(path) -> AnalyticFrame:
    return AnalyticFrame.load(path)


def save_frame(frame: AnalyticFrame, path) -> None:
    frame.save(path)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def gram(frame: AnalyticFrame, lam) -> np.ndarray:
    """Hermitian Gram matrix ``F(lam)* F(lam)``, or the stack of them for an array."""
    a = frame.eval(lam)
    return _adjoint(a) @ a


def _condition_message(lo: float, hi: float) -> str:
    return (
        f"Gram matrix condition {hi / lo if lo > 0 else np.inf:.3e} exceeds cap {CONDITION_CAP:.0e}"
        f" (eigenvalues in [{lo:.3e}, {hi:.3e}])"
    )


def _checked_gram(g: np.ndarray):
    eigs = np.linalg.eigvalsh(g)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0 or hi / lo > CONDITION_CAP:
        raise ConditioningError(_condition_message(lo, hi))
    return g


def projection(frame: AnalyticFrame, lam: complex) -> np.ndarray:
    """Orthogonal projection onto the column span of ``F(lam)``."""
    a = frame.eval(lam)
    g = _checked_gram(a.conj().T @ a)
    return a @ np.linalg.solve(g, a.conj().T)


def projection_dz(frame: AnalyticFrame, lam: complex) -> np.ndarray:
    """Holomorphic derivative ``(I - P) F' (F*F)^-1 F*`` of the projection."""
    a = frame.eval(lam)
    d = frame.eval_dz(lam)
    g = _checked_gram(a.conj().T @ a)
    solve_at = np.linalg.solve(g, a.conj().T)
    p = a @ solve_at
    eye = np.eye(frame.rows, dtype=complex)
    return (eye - p) @ d @ solve_at


@dataclass(frozen=True)
class ProjectionSample:
    """Projection and its derivative at one parameter, with residual checks."""

    lam: complex
    pi: np.ndarray
    pi_dz: np.ndarray
    rank: int

    def residuals(self) -> dict:
        pi, dp = self.pi, self.pi_dz
        eye = np.eye(pi.shape[0], dtype=complex)
        return {
            "hermitian": float(np.linalg.norm(pi - pi.conj().T)),
            "idempotent": float(np.linalg.norm(pi @ pi - pi)),
            "trace": abs(float(np.trace(pi).real) - self.rank) + abs(float(np.trace(pi).imag)),
            "derivative_identity": float(np.linalg.norm((eye - pi) @ dp @ pi - dp)),
        }


def projection_sample(frame: AnalyticFrame, lam: complex) -> ProjectionSample:
    return ProjectionSample(
        lam=complex(lam),
        pi=projection(frame, lam),
        pi_dz=projection_dz(frame, lam),
        rank=frame.cols,
    )


def hs_norm_sq(m) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm, ``trace(m* m)``."""
    return float(np.sum(np.abs(np.asarray(m)) ** 2))


def curvature_defect(frame: AnalyticFrame, lam: complex) -> float:
    """``|dP/dz|_HS^2`` of the frame's projection; always >= 0."""
    return hs_norm_sq(projection_dz(frame, lam))


def _truncated_power_sums(x: float, n_terms: int):
    """``sum x^k``, ``sum k x^(k-1)`` and ``sum k^2 x^(k-1)`` over ``k < n_terms``.

    Returns the three sums and the three remainders the truncation drops.
    Each remainder is a closed form with positive factors only, and each
    sum is its series limit minus that remainder, so nothing cancels.
    """
    one = 1.0 - x
    lead = x ** (n_terms - 1)
    slope = n_terms - (n_terms - 1) * x
    tails = (x * lead / one, lead * slope / one**2, lead * (slope * slope + x) / one**3)
    limits = (1.0 / one, 1.0 / one**2, (1.0 + x) / one**3)
    return tuple(lim - tail for lim, tail in zip(limits, tails)), tails


@dataclass(frozen=True)
class BundleCurvature:
    """Curvature split at one parameter.

    ``total`` is ``shift_part + defect``; ``tensor_total`` recomputes the
    same quantity by differentiating the projection of the kernel-tensored
    frame on the truncated coefficient space, and ``discrepancy`` is the
    gap between the two routes. ``truncation_tail`` is the largest of the
    exact remainders of the three kernel sums the truncation ignored.
    """

    total: float
    shift_part: float
    defect: float
    tensor_total: float
    discrepancy: float
    truncation_tail: float


def full_bundle_curvature(frame: AnalyticFrame, lam: complex, truncation: int = 512) -> BundleCurvature:
    """Split ``n/(1-|lam|^2)^2 + defect`` and its tensored cross-check."""
    if truncation < 2:
        raise ParameterError("truncation must be >= 2")
    x = abs(lam) ** 2
    if x >= 1.0:
        raise ParameterError("lam must lie in the open unit disk")
    if x ** truncation > 1e-9:
        raise AccuracyError(
            f"truncation {truncation} cannot certify |lam| = {abs(lam):.4f}; increase it"
        )
    n = frame.cols
    shift_part = n / (1.0 - x) ** 2
    defect = curvature_defect(frame, lam)
    total = shift_part + defect

    # tensored route: cross-Gram scalars of the truncated kernel vector
    (s00, sigma1, a11), tails = _truncated_power_sums(x, truncation)
    a01 = np.conj(lam) * sigma1
    f = frame.eval(lam)
    fp = frame.eval_dz(lam)
    gf = _checked_gram(f.conj().T @ f)
    gc = f.conj().T @ fp
    gd = fp.conj().T @ fp
    s = s00 * gf
    q = a01 * gf + s00 * gc
    p = a11 * gf + np.conj(a01) * gc + a01 * gc.conj().T + s00 * gd
    inner = p - q.conj().T @ np.linalg.solve(s, q)
    tensor_total = float(np.trace(np.linalg.solve(s, inner)).real)

    return BundleCurvature(
        total=total,
        shift_part=shift_part,
        defect=defect,
        tensor_total=tensor_total,
        discrepancy=abs(tensor_total - total),
        truncation_tail=float(max(tails)),
    )


@dataclass(frozen=True)
class GramBounds:
    """Extreme Gram eigenvalues over a grid; ``c_min > 0`` certifies the
    frame is uniformly nondegenerate at grid resolution."""

    c_min: float
    c_max: float


def gram_bounds(frame: AnalyticFrame, grid: ComplexGrid) -> GramBounds:
    eigs = np.linalg.eigvalsh(gram(frame, grid.points))
    return GramBounds(c_min=float(np.min(eigs[:, 0])), c_max=float(np.max(eigs[:, -1])))


@dataclass(frozen=True)
class DefectField:
    """Curvature-defect samples on a grid.

    Failed evaluations are recorded in ``failures`` with NaN values; such a
    field is *partial* and refused by the quadrature consumers.
    """

    grid: ComplexGrid
    values: np.ndarray
    failures: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise DataError("field needs one value per grid point")
        finite = vals[np.isfinite(vals)]
        if finite.size and float(finite.min()) < -1e-10:
            raise DataError("defect values must be nonnegative (>= -1e-10)")

    @property
    def is_partial(self) -> bool:
        return bool(self.failures) or bool(np.any(~np.isfinite(self.values)))

    def scaled(self, t: float) -> "DefectField":
        if t < 0:
            raise ParameterError("scale factor must be nonnegative")
        return DefectField(grid=self.grid, values=self.values * t, failures=self.failures)


def defect_field(frame: AnalyticFrame, grid: ComplexGrid) -> DefectField:
    """Curvature defect on the whole grid at once; failures are collected, not fatal.

    A point whose Gram matrix fails the scalar path's condition check gets
    NaN and the scalar path's message; a point where the frame, its
    derivative or its Gram matrix is not finite gets NaN and says so.
    """
    f, fp = frame.eval(grid.points), frame.eval_dz(grid.points)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _adjoint(f) @ f
    ok = np.all(np.isfinite(g), axis=(1, 2)) & np.all(np.isfinite(fp), axis=(1, 2))
    lo, hi = np.full((2, grid.n), np.nan)
    eigs = np.linalg.eigvalsh(g[ok])
    lo[ok], hi[ok] = eigs[:, 0], eigs[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ok &= (lo > 0.0) & ~(hi / lo > CONDITION_CAP)

    q, r = np.linalg.qr(f[ok])
    normal = fp[ok] - q @ (_adjoint(q) @ fp[ok])
    # rows of (F' - QQ*F') R^-1, solved as R^T X^T = (F' - QQ*F')^T
    x = np.linalg.solve(np.swapaxes(r, 1, 2), np.swapaxes(normal, 1, 2))
    values = np.full(grid.n, np.nan)
    values[ok] = np.sum(np.abs(x) ** 2, axis=(1, 2))
    not_finite = "frame, derivative or Gram matrix is not finite"
    failures = tuple(
        (int(i), _condition_message(lo[i], hi[i]) if np.isfinite(lo[i]) else not_finite) for i in np.flatnonzero(~ok)
    )
    return DefectField(grid=grid, values=values, failures=failures)


def constant_field(grid: ComplexGrid, value: float) -> DefectField:
    """Uniform field, mainly for calibration and tests."""
    return DefectField(grid=grid, values=np.full(grid.n, float(value)))


def field_from_function(grid: ComplexGrid, fn) -> DefectField:
    return DefectField(grid=grid, values=np.array([float(fn(z)) for z in grid.points]))
