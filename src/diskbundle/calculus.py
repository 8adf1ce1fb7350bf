"""Numerical calculus on the open unit disk.

Provides the polar quadrature grid, set by its ring count, angle count and
margin, and the dyadic Carleson-box constant of a sampled measure
density. :func:`write_csv` writes the CSV dumps of the fields from their
columns as arrays, converting a block of rows at a time.

All sup- and max-type quantities are taken over the grid, which covers
``|z| <= 1 - margin``; nothing here extrapolates to the full open disk.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, Frozen, ParameterError, check_count

TWO_PI = 2.0 * np.pi


class ComplexGrid(Frozen):
    """Polar quadrature sampling of the disk ``|z| <= 1 - margin``.

    The three parameters are what a grid is: two grids are equal, and hash
    alike, when their parameters are. Construction checks them and derives
    ``radial_edges``, ``points`` and ``area_weights`` once, as read-only
    arrays, so a grid cannot drift from its parameters. The ring
    boundaries ``(1 - margin) * (1 - 2^-k)`` refine geometrically toward
    ``1 - margin``, where the last one closes. ``points`` are radial-major:
    sample ``i`` sits at the midpoint of the polar cell of ring
    ``i // angular_count`` and of sector ``k = i % angular_count``, angles
    ``[k, k + 1] * 2 pi / angular_count``; the Green quadrature subdivides
    these cells. The weights ``r * dr * dtheta`` sum to ``pi (1 - margin)^2``.
    """

    __slots__ = ("radial_count", "angular_count", "margin", "radial_edges", "points", "area_weights")
    _fields = ("radial_count", "angular_count", "margin")

    def __init__(self, radial_count: int, angular_count: int, margin: float):
        for count in (radial_count, angular_count):
            check_count(count, 1, "radial_count and angular_count must be integers >= 1")
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
        for array in (edges, points, weights):
            array.flags.writeable = False
        self._set(
            radial_count=radial_count,
            angular_count=angular_count,
            margin=margin,
            radial_edges=edges,
            points=points,
            area_weights=weights,
        )

    @property
    def n(self) -> int:
        return len(self.points)


def write_csv(path, header, columns) -> None:
    """The one writer behind every CSV dump, with ``\\r\\n`` line ends:
    the header, then row ``i`` of the ``columns``, arrays of one length.

    Values are written as their ``repr``. Each block of 8192 rows is
    converted to plain floats and ints (``tolist``), so every value
    reparses exactly, then joined and written at once: a long table is
    never one string, nor one list of Python numbers. The bytes are those
    the ``csv`` module writes for such rows. The header names need no
    quoting.
    """
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, 8192):
            block = (map(repr, column[start : start + 8192].tolist()) for column in columns)
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def build_grid(radial_count: int, angular_count: int, margin: float) -> ComplexGrid:
    """The polar grid of ``radial_count`` rings of ``angular_count`` samples
    covering ``|z| <= 1 - margin`` (see :class:`ComplexGrid`)."""
    return ComplexGrid(radial_count, angular_count, margin)


def grid_meta(grid: ComplexGrid) -> dict:
    """The ``grid`` block of the ``curvature`` and ``criteria`` reports."""
    return {
        "points": grid.n,
        "radial_count": grid.radial_count,
        "angular_count": grid.angular_count,
        "margin": grid.margin,
    }


def carleson_constant(density, grid: ComplexGrid, max_depth: int) -> float:
    """Largest box mass of ``density * (1 - |z|) dA`` divided by box side.

    The boxes are dyadic: depth ``k`` has ``2^k`` boxes of side ``2^-k``,
    radii in ``[1 - 2^-k, 1)`` and arcs starting at multiples of
    ``2 pi 2^-k``. Any comparable box convention changes the constant by a
    bounded factor only.
    """
    check_count(max_depth, 0, "max_depth must be >= 0")
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
