"""Reference implementations the tests hold the package to.

None of these is reached by a command: finite-difference Wirtinger
derivatives and Laplacian, the projection and its derivative at one
point by ``solve`` on the ``eigvalsh``-checked Gram matrix, the defect
field from batched ``eigvalsh``, QR and ``solve``, the evaluation of a
rational matrix one entry at a time, the brute-force dyadic Carleson
boxes, projection residuals, the kernel closed forms, the weighted
backward shift on coefficients, the Green quadrature written as a loop
over cells and subcells, the CSV dump through ``csv.writer``, the
whole-sequence forms of the counterexample's three fast paths (the
kernel sum over every stored weight in extended precision, the spike
values one slot at a time, the weight dump through ``csv.writer``), the
Toeplitz section filled block by block with its shift-intertwining gap
taken through Kronecker shift matrices, and the product of two symbols
built entry by entry from sums and products of rational functions, which
live only here.
Three test inputs live here too: the truncated Hardy-line frame
``(1, lam, lam^2, ...)``, the uniform defect field and the benchmark's
seeded input files.
Every production derivative comes from exact rational calculus, the
Gram-Schmidt defect, at one point and on a grid, must match the LAPACK
one to roundoff with the same failures, ``carleson_constant`` bins the
same boxes by sector, the package's Green stencil computes the same
quadrature on whole arrays, the kernel sum must match its form here
within its rounding bound, the other fast paths, the stacked rational
evaluation and the section gather must match theirs bit for bit, and the
multiplicativity check takes the blocks of a product from pointwise
products of circle samples.
"""

from __future__ import annotations

import csv
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from diskbundle.bundle import CONDITION_CAP, AnalyticFrame, DefectField, _condition_message
from diskbundle.calculus import TWO_PI
from diskbundle.errors import CapacityError, ConditioningError, DomainError, ParameterError
from diskbundle.rational import RationalFunction, as_coeffs, poly_mul
from diskbundle.toeplitz import MatrixSymbol

#: default finite-difference step; balances truncation against roundoff
DEFAULT_FD_STEP = 1e-4

#: Green quadrature: cells within this many cell diagonals of the singular
#: point are subdivided, and subcells hold it up to the closure tolerance
NEAR_SINGULAR = 2.5
CONTAINS_TOL = 1e-12


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


def hardy_line_frame(n_terms: int) -> AnalyticFrame:
    """Single-column frame listing the power-series coefficients
    ``(1, lam, lam^2, ...)`` of the backward-shift eigenvector, truncated
    to ``n_terms`` slots."""
    if n_terms < 1:
        raise ParameterError("n_terms must be >= 1")
    return AnalyticFrame([[RationalFunction.monomial(k)] for k in range(n_terms)])


def constant_field(grid, value: float) -> DefectField:
    """Uniform defect field on a grid."""
    return DefectField(grid=grid, values=np.full(grid.n, float(value)))


def gram(frame: AnalyticFrame, lam: complex) -> np.ndarray:
    """Hermitian Gram matrix ``F(lam)* F(lam)`` at one point."""
    a = frame.eval(lam)
    return a.conj().T @ a


def _checked_gram(a: np.ndarray):
    """Gram matrix ``a* a``, refused when it is not finite or too ill-conditioned."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = a.conj().T @ a
    eigs = np.linalg.eigvalsh(g)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0.0 or hi / lo > CONDITION_CAP:
        raise ConditioningError(_condition_message(lo, hi))
    return g


def projection(frame: AnalyticFrame, lam: complex) -> np.ndarray:
    """Orthogonal projection onto the column span of ``F(lam)``."""
    a = frame.eval(lam)
    g = _checked_gram(a)
    return a @ np.linalg.solve(g, a.conj().T)


def _projection_dz(a: np.ndarray, d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``(I - P) F' (F*F)^-1 F*`` from ``F``, ``F'`` and the checked Gram ``F*F`` at one point."""
    solve_at = np.linalg.solve(g, a.conj().T)
    p = a @ solve_at
    eye = np.eye(a.shape[0], dtype=complex)
    return (eye - p) @ d @ solve_at


def projection_dz(frame: AnalyticFrame, lam: complex) -> np.ndarray:
    """Holomorphic derivative ``(I - P) F' (F*F)^-1 F*`` of the projection."""
    a, d = frame.eval_jet(lam)
    return _projection_dz(a, d, _checked_gram(a))


def hs_norm_sq(m) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm, ``trace(m* m)``."""
    return float(np.sum(np.abs(np.asarray(m)) ** 2))


def scalar_curvature_defect(frame: AnalyticFrame, lam: complex) -> float:
    """``|dP/dz|_HS^2`` at one point from the explicit projection
    derivative, with its Gram matrix checked by ``eigvalsh``."""
    return hs_norm_sq(projection_dz(frame, lam))


def lapack_defect_field(frame, grid):
    """The defect field from batched LAPACK calls on the ``(n, rows, cols)``
    stacks: ``eigvalsh`` of the Grams ``F*F`` for the condition check and
    the extremes, then the reduced QR ``F = QR`` of the points that pass
    and ``|(F' - QQ*F') R^-1|_HS^2`` by one batched ``solve``. Returns
    ``(values, failures, lo, hi)`` as ``defect_field`` lays them out."""
    with np.errstate(over="ignore", invalid="ignore"):
        f, fp = (np.moveaxis(v, -1, 0) for v in frame.eval_jet(grid.points))
        g = np.conj(np.swapaxes(f, 1, 2)) @ f
    ok = np.all(np.isfinite(g), axis=(1, 2)) & np.all(np.isfinite(fp), axis=(1, 2))
    lo, hi = np.full((2, grid.n), np.nan)
    eigs = np.linalg.eigvalsh(g[ok])
    lo[ok], hi[ok] = eigs[:, 0], eigs[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ok &= (lo > 0.0) & ~(hi / lo > CONDITION_CAP)
    values = np.full(grid.n, np.nan)
    if np.any(ok):
        q, r = np.linalg.qr(f[ok])
        normal = fp[ok] - q @ (np.conj(np.swapaxes(q, 1, 2)) @ fp[ok])
        x = np.linalg.solve(np.swapaxes(r, 1, 2), np.swapaxes(normal, 1, 2))
        values[ok] = np.sum(np.abs(x) ** 2, axis=(1, 2))
    not_finite = "frame, derivative or Gram matrix is not finite"
    failures = tuple(
        (int(i), _condition_message(lo[i], hi[i]) if np.isfinite(lo[i]) else not_finite) for i in np.flatnonzero(~ok)
    )
    return values, failures, lo, hi


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner's rule ``acc = acc * z + c`` for one polynomial, from zeros."""
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _deriv(coeffs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative; ``[0]`` for a constant."""
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, len(coeffs))


def entrywise_jet(matrix, z):
    """Values and exact derivatives of a rational matrix, laid out
    ``(rows, cols, *shape(z))``, one entry at a time: four Horner loops on
    each entry's own coefficients over the flattened points, then
    ``n/d`` and ``(n'd - nd')/d^2``. The stacked evaluation must match it
    bit for bit, inf and NaN where a pole sits on a point included."""
    z = np.asarray(z, dtype=complex)
    points = z.reshape(-1)
    out = np.empty((2, matrix.rows, matrix.cols, points.size), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, row in enumerate(matrix.entries):
            for j, e in enumerate(row):
                n, d = _horner(e.num, points), _horner(e.den, points)
                dn, dd = _horner(_deriv(e.num), points), _horner(_deriv(e.den), points)
                out[:, i, j] = n / d, (dn * d - n * dd) / (d * d)
    f, fp = out.reshape(2, matrix.rows, matrix.cols, *z.shape)
    return f, fp


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


def whole_array_kernel_diag(w, lam: complex) -> np.longdouble:
    """The weighted kernel diagonal ``sum x^n / w_n`` in extended precision:
    every stored weight term by term, then the unit tail ``x^N / (1-x)``,
    at the float ``x = |lam|^2`` the package sums at (``1/(1-x)`` is too
    sensitive to ``x`` to square ``|lam|`` in extended precision instead)."""
    values = np.asarray(w.values, dtype=np.longdouble)
    x = np.longdouble(abs(lam) ** 2)
    return np.sum(x ** np.arange(len(values)) / values) + x ** len(values) / (1 - x)


def spike_values_loop(starts, epsilon: float, length: int) -> np.ndarray:
    """Spike weight values one slot at a time: spike ``j`` from ``starts[j-1]``
    is the tent ``(1+epsilon)^(2e)``, ``e = 0, 1, ..., j, ..., 1, 0``."""
    values = np.ones(length, dtype=float)
    base = 1.0 + epsilon
    for j, start in enumerate(starts, start=1):
        for k in range(2 * j + 1):
            e = j - abs(k - j)
            if e:
                values[start + k] = base ** (2 * e)
    return values


def full_quotient_ratio(w) -> float:
    """``max_n max(w_{n+1}/w_n, w_n/w_{n+1})`` over every quotient, 1 for one value."""
    if w.length < 2:
        return 1.0
    r = w.values[1:] / w.values[:-1]
    return float(np.max(np.maximum(r, 1.0 / r)))


def csv_module_dump(path, header, rows) -> None:
    """A header and rows written through ``csv.writer``, whose bytes
    ``write_csv`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def csv_module_weights(w, path) -> None:
    """The ``n,w_n,ln_w_n`` dump written row by row through ``csv.writer``."""
    rows = zip(range(w.length), w.values.tolist(), np.log(w.values).tolist())
    csv_module_dump(path, ["n", "w_n", "ln_w_n"], rows)


def loop_toeplitz_section(symbol, order: int) -> np.ndarray:
    """An analytic symbol's section, with block ``coeff(j - k)`` at ``(j, k)``
    for ``j >= k``, written one offset and one block row at a time. The
    Fourier table is its own FFT of the symbol's values on a circle of ``m``
    points: 64, doubled until ``m >= 4 (max(degree, order) + 1)``, the degree
    the largest over the entries of ``deg num + deg den``, and then until no
    coefficient at an offset ``|k| >= m/4`` passes 1e-13 of the largest."""
    degree = max(len(e.num) - 1 + len(e.den) - 1 for row in symbol.entries for e in row)
    m = 64
    while m < 4 * (max(degree, order) + 1):
        m *= 2
    while True:
        blocks = np.moveaxis(np.fft.fft(symbol.eval(np.exp(2j * np.pi * np.arange(m) / m))) / m, -1, 0)
        largest = np.max(np.abs(blocks))
        if all(np.max(np.abs(blocks[k])) <= 1e-13 * largest for k in range(m // 4, 3 * m // 4 + 1)):
            break
        m *= 2
    rows, cols = symbol.rows, symbol.cols
    out = np.zeros((order * rows, order * cols), dtype=complex)
    for offset in range(order):
        for j in range(offset, order):
            k = j - offset
            out[j * rows : (j + 1) * rows, k * cols : (k + 1) * cols] = blocks[offset]
    return out


def poly_add(a, b) -> np.ndarray:
    a, b = as_coeffs(a), as_coeffs(b)
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] += b
    return as_coeffs(out)


def rational_sum(f, g) -> RationalFunction:
    """``f + g`` over the common denominator ``f.den g.den``."""
    num = poly_add(poly_mul(f.num, g.den), poly_mul(g.num, f.den))
    return RationalFunction(num, poly_mul(f.den, g.den))


def rational_product(f, g) -> RationalFunction:
    return RationalFunction(poly_mul(f.num, g.num), poly_mul(f.den, g.den))


def symbol_product(f, g):
    """The symbol ``fg``, each entry summed from rational products; analytic
    when both factors are."""
    if f.cols != g.rows:
        raise ParameterError("symbol shapes do not compose")
    entries = []
    for i in range(f.rows):
        row = []
        for j in range(g.cols):
            acc = RationalFunction([0.0])
            for k in range(f.cols):
                acc = rational_sum(acc, rational_product(f.entries[i][k], g.entries[k][j]))
            row.append(acc)
        entries.append(row)
    return MatrixSymbol(entries, analytic=f.analytic and g.analytic)


def kron_intertwining_gap(f, order: int) -> float:
    """``T_{F*} S*`` against ``S* T_{F*}`` on the leading ``order - 1``
    blocks, with ``S*`` a Kronecker shift matrix and both sides dense
    products."""
    adj = np.ascontiguousarray(loop_toeplitz_section(f, order).conj().T)
    left = adj @ np.kron(np.eye(order, k=1), np.eye(f.rows))
    right = np.kron(np.eye(order, k=1), np.eye(f.cols)) @ adj
    rows_keep = (order - 1) * f.cols
    cols_keep = (order - 1) * f.rows
    return float(np.linalg.norm(left[:rows_keep, :cols_keep] - right[:rows_keep, :cols_keep]))


def _cell_contains(r_lo, r_hi, t_lo, t_hi, lam, tol=CONTAINS_TOL) -> bool:
    r = abs(lam)
    if not r_lo - tol <= r <= r_hi + tol:
        return False
    if r <= tol:
        return r_lo <= tol  # the center belongs to every innermost sector
    t = float(np.angle(lam)) % TWO_PI
    return t_lo - tol <= t <= t_hi + tol or t_lo - tol <= t + TWO_PI <= t_hi + tol


def subcell_green_potential(field, lam: complex) -> float:
    """``(2/pi)`` times the Green integral of the field, one cell at a time.

    Midpoint rule on every cell except those within ``NEAR_SINGULAR`` cell
    diagonals of ``lam``; those are subdivided once, and the subcells whose
    closure holds ``lam`` are pooled into an equal-area disk centered at
    ``lam`` and integrated exactly.
    """
    grid = field.grid
    outer = float(grid.radial_edges[-1])
    if abs(lam) >= outer:
        raise DomainError(f"point |lam| = {abs(lam):.4f} outside grid coverage |z| < {outer:.4f}")

    rho = field.values
    pts = grid.points
    w = grid.area_weights
    # smooth half of the kernel, ordinary midpoint everywhere
    total = float(np.sum(rho * w * (-np.log(np.abs(1.0 - np.conj(lam) * pts)))))

    dtheta = TWO_PI / grid.angular_count
    rings = np.arange(grid.n) // grid.angular_count
    dr = np.diff(grid.radial_edges)[rings]
    diag = np.hypot(dr, np.abs(pts) * dtheta)
    dist = np.abs(pts - lam)
    near = dist <= NEAR_SINGULAR * diag  # always catches the cell owning lam

    total += float(np.sum(rho[~near] * w[~near] * np.log(dist[~near])))

    # near cells are subdivided once; only the subcells whose closure holds
    # lam are pooled into the exact-primitive disk, the rest use midpoints
    pooled_area = 0.0
    pooled_mass = 0.0
    for i in np.nonzero(near)[0]:
        ring, sector = divmod(int(i), grid.angular_count)
        r_lo, r_hi = float(grid.radial_edges[ring]), float(grid.radial_edges[ring + 1])
        t_lo, t_hi = sector * dtheta, (sector + 1) * dtheta
        r_mid, t_mid = 0.5 * (r_lo + r_hi), 0.5 * (t_lo + t_hi)
        for a, b in ((r_lo, r_mid), (r_mid, r_hi)):
            for c, d in ((t_lo, t_mid), (t_mid, t_hi)):
                r_s = 0.5 * (a + b)
                w_s = r_s * (b - a) * (d - c)
                if _cell_contains(a, b, c, d, lam):
                    pooled_area += w_s
                    pooled_mass += rho[i] * w_s
                else:
                    z_s = r_s * np.exp(1j * 0.5 * (c + d))
                    total += rho[i] * w_s * float(np.log(abs(z_s - lam)))
    if pooled_area > 0.0:
        # exact log integral over the equal-area disk centered at lam:
        # integral of ln|u| over |u| < R equals pi R^2 (ln R - 1/2)
        radius = np.sqrt(pooled_area / np.pi)
        total += pooled_mass * (float(np.log(radius)) - 0.5)
    return (2.0 / np.pi) * total


def benchmark_file(workload: str, command: str, key: str, directory: Path, seed: int = 1) -> Path:
    """The input file that the benchmark's ``command`` config of ``workload``
    at ``seed`` names under ``key``, written into ``directory`` by
    ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    cfg = json.loads(inputs.write_inputs(workload, seed, directory)[command].read_text())
    return directory / cfg[key]
