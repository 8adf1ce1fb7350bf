"""Reference implementations the tests hold the package to.

None of these is reached by a command: finite-difference Wirtinger
derivatives and Laplacian, the brute-force dyadic Carleson boxes,
projection residuals, the kernel closed forms and the weighted backward
shift on coefficients. Every production derivative comes from exact
rational calculus, and ``carleson_constant`` bins the same boxes by sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from diskbundle.bundle import projection, projection_dz
from diskbundle.calculus import TWO_PI
from diskbundle.errors import CapacityError, DomainError, ParameterError

#: default finite-difference step; balances truncation against roundoff
DEFAULT_FD_STEP = 1e-4


def _check_stencil(z: complex, h: float) -> None:
    if h <= 0.0:
        raise ParameterError("step h must be positive")
    if abs(z) + h >= 1.0:
        raise DomainError("finite-difference stencil leaves the unit disk")


def wirtinger_dz(f: Callable[[complex], complex], z: complex, h: float = DEFAULT_FD_STEP) -> complex:
    """d/dz by the 4-point central stencil, O(h^2) for C^3 integrands."""
    _check_stencil(z, h)
    dx = (f(z + h) - f(z - h)) / (2.0 * h)
    dy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx - 1j * dy)


def laplacian(f: Callable[[complex], float], z: complex, h: float = DEFAULT_FD_STEP) -> float:
    """Normalized Laplacian (one quarter of the usual one) by 5-point stencil."""
    _check_stencil(z, h)
    s = f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)
    return 0.25 * float(s) / (h * h)


@dataclass(frozen=True)
class CarlesonBox:
    """Dyadic boundary box: radii in ``[1 - side, 1)``, arc of length
    ``2 pi side`` starting at angle ``theta0``."""

    side: float
    theta0: float

    def __post_init__(self):
        if not 0.0 < self.side <= 1.0:
            raise ParameterError("box side must lie in (0, 1]")

    def contains(self, z: complex) -> bool:
        if abs(z) < 1.0 - self.side:
            return False
        theta = np.angle(z) % TWO_PI
        offset = (theta - self.theta0) % TWO_PI
        return offset < TWO_PI * self.side


def dyadic_boxes(max_depth: int) -> Iterator[CarlesonBox]:
    """All dyadic boxes of depth 0..max_depth (2^k boxes of side 2^-k)."""
    if max_depth < 0:
        raise ParameterError("max_depth must be >= 0")
    for k in range(max_depth + 1):
        side = 2.0 ** (-k)
        for a in range(2 ** k):
            yield CarlesonBox(side=side, theta0=a * TWO_PI * side)


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


def projection_sample(frame, lam: complex) -> ProjectionSample:
    return ProjectionSample(
        lam=complex(lam),
        pi=projection(frame, lam),
        pi_dz=projection_dz(frame, lam),
        rank=frame.cols,
    )


@dataclass(frozen=True)
class KernelIdentities:
    """Closed forms attached to the kernel pair at one parameter."""

    k_norm_sq: float
    ktilde_norm_sq: float
    mixed_inner: complex
    combo_norm_sq: float


def kernel_identities(lam: complex) -> KernelIdentities:
    """The four closed forms for the kernel and its derivative at ``lam``:

    ``|k|^2 = (1-x)^-1``, ``|kt|^2 = (1+x)(1-x)^-3``,
    ``<kt, k> = conj(lam) (1-x)^-2`` and
    ``|-conj(lam) k + (1-x) kt|^2 = (1-x)^-1`` with ``x = |lam|^2``.
    """
    if abs(lam) >= 1.0:
        raise ParameterError("kernel parameter must lie in the open unit disk")
    x = abs(lam) ** 2
    one = 1.0 - x
    return KernelIdentities(
        k_norm_sq=1.0 / one,
        ktilde_norm_sq=(1.0 + x) / one ** 3,
        mixed_inner=complex(np.conj(lam) / one ** 2),
        combo_norm_sq=1.0 / one,
    )


def backward_shift_apply(w, coeffs) -> np.ndarray:
    """Apply the weighted backward shift: ``out_n = (w_{n+1}/w_n) a_{n+1}``."""
    a = np.asarray(coeffs, dtype=complex)
    if len(a) > w.length:
        raise CapacityError(
            f"coefficients of length {len(a)} exceed stored weights ({w.length})",
            required_length=len(a),
        )
    if len(a) <= 1:
        return np.zeros(0, dtype=complex)
    ratios = w.values[1:len(a)] / w.values[: len(a) - 1]
    return ratios * a[1:]
