"""Analytic families of subspaces given by frames, and their curvature.

A frame is a matrix of rational functions ``F(lam)`` whose columns span a
moving subspace; the orthogonal projection onto the range is
``P = F (F*F)^-1 F*`` and its holomorphic derivative has the closed form
``(I - P) F' (F*F)^-1 F*``. The squared Hilbert-Schmidt norm of that
derivative is the curvature defect tracked throughout the package, and
``full_bundle_curvature`` checks the rank-scaled split

    |dP_full|^2 = n / (1 - |lam|^2)^2 + |dP_frame|^2

by realizing the kernel-tensored frame on a truncated coefficient space.
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


def gram(frame: AnalyticFrame, lam: complex) -> np.ndarray:
    """Hermitian Gram matrix ``F(lam)* F(lam)``."""
    a = frame.eval(lam)
    return a.conj().T @ a


def _checked_gram(g: np.ndarray):
    eigs = np.linalg.eigvalsh(g)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0 or hi / lo > CONDITION_CAP:
        raise ConditioningError(
            f"Gram matrix condition {hi / lo if lo > 0 else np.inf:.3e} exceeds cap {CONDITION_CAP:.0e}"
            f" (eigenvalues in [{lo:.3e}, {hi:.3e}])"
        )
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
    n = np.arange(n_terms)
    s00 = float(np.sum(np.power(x, n)))
    if n_terms > 1:
        k = n[1:]
        sigma1 = float(np.sum(k * np.power(x, k - 1)))
        a11 = float(np.sum(k * k * np.power(x, k - 1)))
    else:
        sigma1 = a11 = 0.0
    return s00, sigma1, a11


@dataclass(frozen=True)
class BundleCurvature:
    """Curvature split at one parameter.

    ``total`` is ``shift_part + defect``; ``tensor_total`` recomputes the
    same quantity by differentiating the projection of the kernel-tensored
    frame on the truncated coefficient space, and ``discrepancy`` is the
    gap between the two routes. ``truncation_tail`` bounds the coefficient
    mass the truncation ignored.
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
    s00, sigma1, a11 = _truncated_power_sums(x, truncation)
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

    one = 1.0 - x
    tail = max(
        1.0 / one - s00,
        1.0 / one ** 2 - sigma1,
        (1.0 + x) / one ** 3 - a11,
    )
    return BundleCurvature(
        total=total,
        shift_part=shift_part,
        defect=defect,
        tensor_total=tensor_total,
        discrepancy=abs(tensor_total - total),
        truncation_tail=float(tail),
    )


@dataclass(frozen=True)
class GramBounds:
    """Extreme Gram eigenvalues over a grid; ``c_min > 0`` certifies the
    frame is uniformly nondegenerate at grid resolution."""

    c_min: float
    c_max: float


def gram_bounds(frame: AnalyticFrame, grid: ComplexGrid) -> GramBounds:
    c_min, c_max = np.inf, -np.inf
    for z in grid.points:
        eigs = np.linalg.eigvalsh(gram(frame, z))
        c_min = min(c_min, float(eigs[0]))
        c_max = max(c_max, float(eigs[-1]))
    return GramBounds(c_min=c_min, c_max=c_max)


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
    """Per-point curvature defect; failures are collected, not fatal."""
    values = np.empty(grid.n, dtype=float)
    failures = []
    for i, z in enumerate(grid.points):
        try:
            values[i] = curvature_defect(frame, z)
        except (ConditioningError, FloatingPointError) as exc:
            values[i] = np.nan
            failures.append((i, str(exc)))
    return DefectField(grid=grid, values=values, failures=tuple(failures))


def constant_field(grid: ComplexGrid, value: float) -> DefectField:
    """Uniform field, mainly for calibration and tests."""
    return DefectField(grid=grid, values=np.full(grid.n, float(value)))


def field_from_function(grid: ComplexGrid, fn) -> DefectField:
    return DefectField(grid=grid, values=np.array([float(fn(z)) for z in grid.points]))
