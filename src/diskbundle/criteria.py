"""Similarity-type diagnostics for a curvature-defect field.

Three measurable quantities are produced: the Green potential of the
defect (uniform boundedness is the integrability-type criterion), the
dyadic Carleson constant of ``defect * (1 - |z|) dA``, and the pointwise
constant ``sup sqrt(defect) * (1 - |z|)``. All three are reported over the
grid; the tool never claims anything about the full open disk.
:func:`similarity_verdict` measures them with the Gram bounds and returns
the report as the plain dict that the ``criteria`` command writes, plus
the swept rings for :func:`write_probe_heatmap`. Its flags compare the
constants with the fixed ``VERDICT_LEVEL`` (1e3), which the report states
as ``thresholds``; no input sets it: the constants carry the mathematics.

The potential quadrature follows the grid's midpoint rule except near the
logarithmic singularity: cells whose sample sits within ``_NEAR_SINGULAR``
(2.5) cell diagonals of the singular point are subdivided once, and the
subcells whose closure holds the singular point are integrated exactly
over an equal-area disk using the primitive of ``r ln r``.
:func:`_green_stencil` holds that quadrature as one weight per grid point.
:func:`green_potential` applies it at any covered point; :func:`green_sweep`
evaluates whole rings, one stencil per ring correlated over angle by FFT,
within 1e-12 relative plus 1e-15 absolute of the direct sum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bundle import AnalyticFrame, DefectField, defect_field, gram_bounds
from .calculus import TWO_PI, ComplexGrid, carleson_constant, grid_meta, write_csv
from .errors import DataError, DomainError, ParameterError, check_count

#: near-singular detection: distance below this multiple of the cell diagonal;
#: wide enough that the coarse inner cells get subdivided when the singular
#: point sits among them (the pooled set is containment-bound regardless)
_NEAR_SINGULAR = 2.5

#: closure tolerance of the subcells pooled around the singular point
_CONTAINS_TOL = 1e-12

#: the verdict's fixed level: ``green_inf >= -VERDICT_LEVEL``, and the
#: Carleson and pointwise constants ``<= VERDICT_LEVEL``
VERDICT_LEVEL = 1e3


def _require_complete(field: DefectField) -> None:
    if field.is_partial:
        raise DataError("field is partial; recompute the failing points first")


def green_potential(field: DefectField, lam: complex) -> float:
    """``(2/pi)`` times the integral of the Green function against the field.

    The exact potential of a nonnegative field is nonpositive, but the
    quadrature is biased at the rim, where it can come out slightly
    positive (up to about 1e-6 on a 20x64 grid; see the ROADMAP item on the
    Green potential by Green's identity). Raises :class:`DomainError` when
    ``lam`` is outside the grid's covered disk.
    """
    _require_complete(field)
    outer = float(field.grid.radial_edges[-1])
    if not abs(lam) < outer:
        raise DomainError(f"point |lam| = {abs(lam):.4f} outside grid coverage |z| < {outer:.4f}")
    return (2.0 / np.pi) * float(_green_stencil(field.grid, lam) @ field.values)


def _green_stencil(grid: ComplexGrid, lam: complex) -> np.ndarray:
    """Weights ``w`` with ``green_potential(field, lam) == (2/pi) * (w @ field.values)``.

    The quadrature is linear in the density, so the weights do not depend
    on it: far cells use their midpoint, each near cell its four subcells,
    and the subcells whose closure holds ``lam`` share the pooled disk.
    """
    pts = grid.points
    area = grid.area_weights
    dtheta = TWO_PI / grid.angular_count
    edges = grid.radial_edges
    ring, sector = np.divmod(np.arange(grid.n), grid.angular_count)
    w = area * -np.log(np.abs(1.0 - np.conj(lam) * pts))
    dist = np.abs(pts - lam)
    near = dist <= _NEAR_SINGULAR * np.hypot(np.diff(edges)[ring], np.abs(pts) * dtheta)
    w[~near] += area[~near] * np.log(dist[~near])

    # the four subcells of every near cell, as (cells, 4) arrays
    cell = np.nonzero(near)[0]
    r_lo, r_hi = edges[ring[cell]], edges[ring[cell] + 1]
    t_lo, t_hi = sector[cell] * dtheta, (sector[cell] + 1) * dtheta
    r_mid, t_mid = 0.5 * (r_lo + r_hi), 0.5 * (t_lo + t_hi)
    a = np.stack([r_lo, r_lo, r_mid, r_mid], axis=1)
    b = np.stack([r_mid, r_mid, r_hi, r_hi], axis=1)
    c = np.stack([t_lo, t_mid, t_lo, t_mid], axis=1)
    d = np.stack([t_mid, t_hi, t_mid, t_hi], axis=1)
    owner = np.repeat(cell, 4).reshape(-1, 4)
    r_s = 0.5 * (a + b)
    w_s = r_s * (b - a) * (d - c)

    # the subcells whose closure holds lam, one subcell per entry
    tol = _CONTAINS_TOL
    r, t = abs(lam), float(np.angle(lam)) % TWO_PI
    angular = ((c - tol <= t) & (t <= d + tol)) | ((c - tol <= t + TWO_PI) & (t + TWO_PI <= d + tol))
    pooled = (a - tol <= r) & (r <= b + tol) & (a <= tol if r <= tol else angular)

    kept = ~pooled
    z_s = r_s[kept] * np.exp(1j * (0.5 * (c[kept] + d[kept])))
    np.add.at(w, owner[kept], w_s[kept] * np.log(np.abs(z_s - lam)))
    pooled_area = float(np.sum(w_s[pooled]))
    if pooled_area > 0.0:
        # exact log integral over the equal-area disk centered at lam
        radius = np.sqrt(pooled_area / np.pi)
        np.add.at(w, owner[pooled], w_s[pooled] * (float(np.log(radius)) - 0.5))
    return w


def green_sweep(field: DefectField, rings: Sequence[int]) -> np.ndarray:
    """:func:`green_potential` at every sector of each ring, shape ``(len(rings), angular_count)``.

    The quadrature is linear in the density and, at grid points,
    equivariant under rotation by the grid angle, so the weights of sector
    ``k`` of a ring are those of its sector-0 point shifted by ``k``. Each
    ring gets one :func:`_green_stencil` ``W``, and all its sectors come
    from ``irfft(sum_q conj(rfft(W[q])) * rfft(rho[q]))`` over source rings
    ``q``, within 1e-12 relative plus 1e-15 absolute of the direct sum in
    :func:`green_potential`. Raises :class:`DataError` for a partial field
    and, before any stencil is built, :class:`ParameterError` for rings
    that are not integers and :class:`DomainError` for one outside
    ``0..radial_count-1``.
    """
    _require_complete(field)
    grid = field.grid
    rings = np.asarray(rings)
    if rings.ndim != 1 or (rings.size and not np.issubdtype(rings.dtype, np.integer)):
        raise ParameterError("rings must be a sequence of integer ring numbers")
    if rings.size and not 0 <= rings.min() <= rings.max() < grid.radial_count:
        raise DomainError(f"ring outside the grid's rings 0..{grid.radial_count - 1}")

    count = grid.angular_count
    out = np.empty((len(rings), count))
    rho_hat = np.fft.rfft(field.values.reshape(-1, count), axis=1)
    for i, q in enumerate(rings.tolist()):
        stencil = _green_stencil(grid, grid.points[q * count]).reshape(-1, count)
        spectrum = np.sum(np.conj(np.fft.rfft(stencil, axis=1)) * rho_hat, axis=0)
        out[i] = (2.0 / np.pi) * np.fft.irfft(spectrum, n=count)
    return out


def default_probes(grid: ComplexGrid, stride: int) -> np.ndarray:
    """The ring numbers ``0, stride, 2*stride, ...`` below ``radial_count``."""
    check_count(stride, 1, "stride must be >= 1")
    return np.arange(0, grid.radial_count, stride)


def pointwise_bound(field: DefectField) -> float:
    """Smallest admissible ``C`` in ``sqrt(defect) <= C / (1 - |z|)`` on the grid."""
    _require_complete(field)
    vals = np.sqrt(np.maximum(field.values, 0.0))
    return float(np.max(vals * (1.0 - np.abs(field.grid.points))))


def carleson_check(field: DefectField, max_depth: int) -> float:
    """Dyadic Carleson constant of ``defect * (1 - |z|) dA``."""
    _require_complete(field)
    return carleson_constant(field.values, field.grid, max_depth)


def similarity_verdict(frame: AnalyticFrame, grid: ComplexGrid, probe_stride: int, max_depth: int) -> tuple:
    """Aggregate the measurable criteria for one frame on one grid.

    Returns ``(report, probed)``. ``report`` is the plain dict that the
    ``criteria`` command writes as ``report.json``, less the command's own
    keys: the measured constants, and grid-scale flags that compare them
    with ``VERDICT_LEVEL``, stated as ``thresholds``.
    ``probed`` is ``(field, rings, potentials)``, what the sweep covered,
    for :func:`write_probe_heatmap`. A partial defect field does not
    raise: its report has the constants ``None``, the ``failures`` as
    ``[index, message]`` pairs and a partial verdict, and ``probed`` is
    ``None``.
    """
    field = defect_field(frame, grid)
    report = {
        "grid": grid_meta(grid),
        "thresholds": {"M": VERDICT_LEVEL, "C": VERDICT_LEVEL},
        **dict.fromkeys(("gram_bounds", "green_inf", "carleson_const", "pointwise_const")),
    }
    if field.is_partial:
        report["failures"] = [[int(i), msg] for i, msg in field.failures]
        report["verdict"] = {"partial": True, "similar_at_grid_scale": False}
        return report, None
    bounds = gram_bounds(field)
    rings = default_probes(grid, probe_stride)
    potentials = green_sweep(field, rings)
    green_inf = float(np.min(potentials))
    carleson = carleson_check(field, max_depth)
    pointwise = pointwise_bound(field)
    checks = {
        "gram": bounds["c_min"] > 0.0,
        "green": green_inf >= -VERDICT_LEVEL,
        "carleson": carleson <= VERDICT_LEVEL,
        "pointwise": pointwise <= VERDICT_LEVEL,
    }
    report.update(
        gram_bounds=bounds,
        green_inf=green_inf,
        carleson_const=carleson,
        pointwise_const=pointwise,
        verdict={**checks, "similar_at_grid_scale": all(checks.values()), "partial": False},
    )
    return report, (field, rings, potentials)


def write_probe_heatmap(field: DefectField, rings: Sequence[int], path, potentials: np.ndarray) -> None:
    """CSV ``re,im,defect,green_potential`` per grid point of ``rings``, ring by ring.

    ``potentials`` is :func:`green_sweep`'s result for ``rings``
    (:func:`similarity_verdict` returns all three as ``probed``).
    """
    _require_complete(field)
    count = field.grid.angular_count
    z = field.grid.points.reshape(-1, count)[rings].ravel()
    defect = field.values.reshape(-1, count)[rings].ravel()
    columns = [z.real.tolist(), z.imag.tolist(), defect.tolist(), np.ravel(potentials).tolist()]
    write_csv(path, ["re", "im", "defect", "green_potential"], columns)
