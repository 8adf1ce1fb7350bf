"""Numerical calculus on the open unit disk.

Provides the polar quadrature grid (geometric radial refinement toward the
boundary) and the dyadic Carleson-box constant of a sampled measure
density. :func:`write_csv` writes every CSV dump of the package.

All sup- and max-type quantities are taken over the grid, which covers
``|z| <= 1 - margin``; nothing here extrapolates to the full open disk.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, ParameterError

TWO_PI = 2.0 * np.pi

#: quadrature weights must reproduce the covered area to this relative error
_AREA_RTOL = 0.02


@dataclass(frozen=True)
class ComplexGrid:
    """Polar quadrature sampling of the disk ``|z| <= 1 - margin``.

    ``points`` are ordered radial-major: all angles of the innermost ring
    first. ``radial_edges`` are the ring boundaries (``len(radial_levels)+1``
    entries starting at 0). Sample ``i`` owns the polar cell of ring
    ``i // angular_count`` between its two edges and of sector
    ``k = i % angular_count``, angles ``[k, k + 1] * 2 pi / angular_count``;
    the Green quadrature subdivides these cells.
    """

    points: np.ndarray
    area_weights: np.ndarray
    radial_levels: np.ndarray
    margin: float
    radial_edges: np.ndarray
    angular_count: int

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ParameterError("margin must lie in (0, 1)")
        if len(self.points) != len(self.area_weights):
            raise DataError("points and area_weights must have equal length")
        if len(self.points) == 0:
            raise DataError("grid has no points")
        if np.any(self.area_weights <= 0.0):
            raise DataError("area weights must be positive")
        if np.max(np.abs(self.points)) > 1.0 - self.margin + 1e-14:
            raise DataError("grid point outside |z| <= 1 - margin")
        covered = np.pi * (1.0 - self.margin) ** 2
        total = float(np.sum(self.area_weights))
        if abs(total - covered) > _AREA_RTOL * covered:
            raise DataError(
                f"area weights sum to {total:.6g}, expected {covered:.6g} within {_AREA_RTOL:.0%}"
            )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def ring_count(self) -> int:
        return len(self.radial_levels)


def write_csv(path, header, rows) -> None:
    """The one writer behind every CSV dump, with ``\\r\\n`` line ends.

    ``csv`` writes a Python float as its ``repr``, so callers pass plain
    floats (not numpy scalars) and every value reparses exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_grid(radial_count: int, angular_count: int, margin: float) -> ComplexGrid:
    """Polar tensor grid with radii refined geometrically toward ``1 - margin``.

    Ring boundaries are ``(1 - margin) * (1 - 2^-k)`` with the outermost edge
    closed at ``1 - margin``; sample points sit at radial and angular cell
    midpoints with weights ``r * dr * dtheta``, which makes the weights sum
    to ``pi (1 - margin)^2`` exactly.
    """
    if radial_count < 1 or angular_count < 1:
        raise ParameterError("radial_count and angular_count must be >= 1")
    if not 0.0 < margin < 1.0:
        raise ParameterError("margin must lie in (0, 1)")
    outer = 1.0 - margin
    edges = outer * (1.0 - np.power(2.0, -np.arange(radial_count, dtype=float)))
    edges = np.append(edges, outer)
    if np.any(np.diff(edges) <= 0.0):
        raise ParameterError("radial_count too large: ring boundaries collapse at double precision")
    radii = 0.5 * (edges[:-1] + edges[1:])
    dr = np.diff(edges)
    dt = TWO_PI / angular_count
    angles = (np.arange(angular_count) + 0.5) * dt
    ring_phase = np.exp(1j * angles)
    points = (radii[:, None] * ring_phase[None, :]).ravel()
    weights = (radii * dr)[:, None].repeat(angular_count, axis=1).ravel() * dt
    return ComplexGrid(
        points=points,
        area_weights=weights,
        radial_levels=radii,
        margin=margin,
        radial_edges=edges,
        angular_count=angular_count,
    )


def grid_meta(grid: ComplexGrid) -> dict:
    """The ``grid`` block of the ``curvature`` and ``criteria`` reports."""
    return {
        "points": grid.n,
        "radial_count": int(grid.ring_count),
        "angular_count": int(grid.angular_count),
        "margin": float(grid.margin),
    }


def ring_grid(radii: Sequence[float], angular_count: int) -> ComplexGrid:
    """Grid with caller-chosen ring radii (for sup-type sweeps).

    Ring boundaries are placed halfway between consecutive radii, so for
    roughly uniform spacing the usual midpoint weights come out. Prefer
    :func:`build_grid` for quadrature; this constructor exists so sweeps can
    pin samples at specific radii.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if angular_count < 1:
        raise ParameterError("angular_count must be >= 1")
    if len(radii) == 0 or radii[0] <= 0.0:
        raise ParameterError("radii must be positive")
    mids = 0.5 * (radii[:-1] + radii[1:])
    outer = radii[-1] + (radii[-1] - mids[-1]) if len(radii) > 1 else 1.5 * radii[-1]
    edges = np.concatenate(([0.0], mids, [outer]))
    if outer >= 1.0:
        raise ParameterError("outermost ring boundary reaches the unit circle")
    dt = TWO_PI / angular_count
    angles = (np.arange(angular_count) + 0.5) * dt
    points = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    # exact annulus areas: samples sit off-center in their cells, so the
    # midpoint shortcut r*dr would not reproduce the covered area
    ring_area = 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)
    weights = ring_area[:, None].repeat(angular_count, axis=1).ravel() * dt
    return ComplexGrid(
        points=points,
        area_weights=weights,
        radial_levels=radii,
        margin=1.0 - outer,
        radial_edges=edges,
        angular_count=angular_count,
    )


def carleson_constant(density, grid: ComplexGrid, max_depth: int) -> float:
    """Largest box mass of ``density * (1 - |z|) dA`` divided by box side.

    The boxes are dyadic: depth ``k`` has ``2^k`` boxes of side ``2^-k``,
    radii in ``[1 - 2^-k, 1)`` and arcs starting at multiples of
    ``2 pi 2^-k``. Any comparable box convention changes the constant by a
    bounded factor only.
    """
    if max_depth < 0:
        raise ParameterError("max_depth must be >= 0")
    rho = np.asarray(density, dtype=float)
    if rho.shape != (grid.n,):
        raise DataError("density must have one sample per grid point")
    tol = 1e-10 * max(1.0, float(np.max(np.abs(rho))) if rho.size else 1.0)
    if np.any(rho < -tol):
        raise DataError("density has negative samples beyond tolerance")
    radii = np.abs(grid.points)
    mass = rho * (1.0 - radii) * grid.area_weights
    angles = np.angle(grid.points) % TWO_PI
    best = 0.0
    for k in range(max_depth + 1):
        side = 2.0 ** (-k)
        sectors = 2 ** k
        inside = radii >= 1.0 - side
        if not np.any(inside):
            continue
        idx = np.minimum((angles[inside] / (TWO_PI * side)).astype(int), sectors - 1)
        sums = np.bincount(idx, weights=mass[inside], minlength=sectors)
        best = max(best, float(np.max(sums)) / side)
    return best
