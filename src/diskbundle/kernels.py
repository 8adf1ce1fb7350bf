"""Diagonal of the reproducing kernel of a weighted Hardy space.

The weighted diagonal ``sum |a|^(2n) / w_n`` is evaluated with a certified
geometric tail so that boundary radii up to 0.999 are safe. The sum runs
over a growing prefix of the weights (64 terms, doubled until the
certificate passes or the prefix is the whole sequence), so its cost is
set by the stopping index, not by the stored length. A partial sum
depends only on the terms before it, so where the prefix ends does not
change the result.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ParameterError

#: relative accuracy target for adaptive kernel sums
KERNEL_REL_TOL = 1e-12

#: terms in the first prefix of an adaptive kernel sum; doubled until it stops
_FIRST_PREFIX = 64


def weighted_kernel_diag_certified(w, lam: complex):
    """Weighted kernel diagonal with a certified absolute error bound.

    ``w`` is a weight sequence object exposing ``values`` (stored positive
    weights, ``w_0 = 1``) and the documented unit-tail convention
    ``w_n = 1`` for ``n >= len(values)``. Within the stored range the sum
    stops early once the geometric remainder bound
    ``x^(N+1) / ((1-x) min w)`` drops below ``KERNEL_REL_TOL`` times the partial
    sum; past the stored range the unit tail is summed in closed form, so
    the returned bound is then pure roundoff.

    Returns ``(value, error_bound)``.
    """
    values = np.asarray(w.values, dtype=float)
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise DataError("weights must be finite and positive")
    x = abs(lam) ** 2
    if x >= 1.0:
        raise ParameterError("kernel parameter must lie in the open unit disk")
    if x == 0.0:
        return float(1.0 / values[0]), 0.0
    wmin = min(float(values.min()), 1.0)
    size = _FIRST_PREFIX
    while True:
        n = np.arange(min(size, len(values)))
        partials = np.cumsum(np.power(x, n) / values[: len(n)])
        bounds = np.power(x, n + 1) / ((1.0 - x) * wmin)
        hit = np.flatnonzero(bounds <= KERNEL_REL_TOL * partials)
        if hit.size and hit[0] < len(values) - 1:
            i = int(hit[0])
            return float(partials[i]), float(bounds[i])
        if len(n) == len(values):
            break
        size *= 2
    total = float(partials[-1]) + x ** len(values) / (1.0 - x)
    return total, float(8.0 * np.finfo(float).eps * total)
