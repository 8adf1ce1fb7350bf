"""Diagonal of the reproducing kernel of a weighted Hardy space.

With the unit tail ``w_n = 1`` past the stored weights, the weighted
diagonal ``K_w(x) = sum x^n / w_n`` at ``x = |lam|^2`` is the Hardy
diagonal ``1/(1-x)`` plus ``sum x^n (1/w_n - 1)`` over the indices where
``w_n != 1``. That sum is finite, so the value is exact up to rounding at
every radius below 1, and its cost is set by the count of non-unit
weights, not by the radius.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ParameterError


def weighted_kernel_diag_certified(w, lam: complex):
    """Weighted kernel diagonal ``1/(1-x) + sum_{w_n != 1} x^n (1/w_n - 1)``.

    ``w`` is a weight sequence object exposing ``values`` (stored positive
    weights, ``w_0 = 1``) and the documented unit-tail convention
    ``w_n = 1`` for ``n >= len(values)``.

    The error bound ``(k + 4) eps (1/(1-x) + sum |terms|)`` covers the
    rounding of the sum at the float ``x``, with ``k`` the count of
    non-unit weights: a term's own rounding is a few ulps of
    ``x^n / w_n <= |term| + x^n``, which also covers the cancellation in
    ``1/w_n - 1``, and the ``x^n`` add up to at most ``1/(1-x)``.

    Returns ``(value, error_bound)``.
    """
    values = np.asarray(w.values, dtype=float)
    n = np.flatnonzero(values != 1.0)
    spikes = values[n]
    if not np.all(np.isfinite(spikes) & (spikes > 0.0)):
        raise DataError("weights must be finite and positive")
    x = abs(lam) ** 2
    if not x < 1.0:
        raise ParameterError("kernel parameter must lie in the open unit disk")
    hardy = 1.0 / (1.0 - x)
    terms = np.power(x, n) * (1.0 / spikes - 1.0)
    value = hardy + np.sum(terms)
    bound = (n.size + 4) * np.finfo(float).eps * (hardy + np.sum(np.abs(terms)))
    return float(value), float(bound)
