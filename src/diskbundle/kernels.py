"""Diagonal of the reproducing kernel of a weighted Hardy space.

The weighted diagonal ``sum |a|^(2n) / w_n`` is evaluated with a certified
geometric tail so that boundary radii up to 0.999 are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ParameterError

#: relative accuracy target for adaptive kernel sums
KERNEL_REL_TOL = 1e-12


def weighted_kernel_diag_certified(w, lam: complex, rel_tol: float = KERNEL_REL_TOL):
    """Weighted kernel diagonal with a certified absolute error bound.

    ``w`` is a weight sequence object exposing ``values`` (stored positive
    weights, ``w_0 = 1``) and the documented unit-tail convention
    ``w_n = 1`` for ``n >= len(values)``. Within the stored range the sum
    stops early once the geometric remainder bound
    ``x^(N+1) / ((1-x) min w)`` drops below ``rel_tol`` times the partial
    sum; past the stored range the unit tail is summed in closed form, so
    the returned bound is then pure roundoff.

    Returns ``(value, error_bound)``.
    """
    values = np.asarray(w.values, dtype=float)
    if np.any(values <= 0.0):
        raise DataError("weights must be positive")
    x = abs(lam) ** 2
    if x >= 1.0:
        raise ParameterError("kernel parameter must lie in the open unit disk")
    if x == 0.0:
        return float(1.0 / values[0]), 0.0
    wmin = min(float(values.min()), 1.0)
    n = np.arange(len(values))
    terms = np.power(x, n) / values
    partials = np.cumsum(terms)
    bounds = np.power(x, n + 1) / ((1.0 - x) * wmin)
    ok = bounds <= rel_tol * partials
    hit = np.nonzero(ok)[0]
    if hit.size and hit[0] < len(values) - 1:
        i = int(hit[0])
        return float(partials[i]), float(bounds[i])
    total = float(partials[-1]) + x ** len(values) / (1.0 - x)
    return total, 8.0 * np.finfo(float).eps * total
