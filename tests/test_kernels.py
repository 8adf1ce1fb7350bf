import math
from types import SimpleNamespace

import numpy as np
import pytest

from diskbundle.errors import DataError, ParameterError
from diskbundle.kernels import weighted_kernel_diag_certified
from diskbundle.weights import WeightSequence, build_spike_weight
from oracles import kernel_identities


def _series_identities(lam, n_terms=None):
    """Truncated power-series oracle for the four closed forms.

    The identities live at the conjugate parameter: the eigenvector kernel
    has coefficients ``lam^n`` and its parameter derivative ``n lam^(n-1)``.
    """
    x = abs(lam) ** 2
    if n_terms is None:
        n_terms = 64 if x == 0 else min(10**6, int(np.log(1e-18) / np.log(x)) + 64)
    n = np.arange(n_terms)
    k = lam**n
    kt = np.zeros(n_terms, dtype=complex)
    kt[1:] = n[1:] * lam ** (n[1:] - 1)
    combo = -np.conj(lam) * k + (1 - x) * kt
    return (
        float(np.sum(np.abs(k) ** 2)),
        float(np.sum(np.abs(kt) ** 2)),
        complex(np.sum(kt * np.conj(k))),
        float(np.sum(np.abs(combo) ** 2)),
    )


def test_identities_at_zero():
    ki = kernel_identities(0.0)
    assert (ki.k_norm_sq, ki.ktilde_norm_sq, ki.mixed_inner, ki.combo_norm_sq) == (1.0, 1.0, 0.0, 1.0)


def test_identities_at_half():
    ki = kernel_identities(0.5)
    assert abs(ki.k_norm_sq - 4 / 3) < 1e-15
    assert abs(ki.ktilde_norm_sq - 1.25 / 0.421875) < 1e-12
    assert abs(ki.mixed_inner - 8 / 9) < 1e-15
    assert abs(ki.combo_norm_sq - 4 / 3) < 1e-15


def test_identities_match_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        r, t = rng.random(2)
        lam = 0.95 * np.sqrt(r) * np.exp(2j * np.pi * t)
        ki = kernel_identities(lam)
        s_k, s_kt, s_mix, s_combo = _series_identities(lam)
        assert abs(ki.k_norm_sq - s_k) <= 1e-9 * s_k
        assert abs(ki.ktilde_norm_sq - s_kt) <= 1e-9 * s_kt
        assert abs(ki.mixed_inner - s_mix) <= 1e-9 * max(abs(s_mix), 1.0)
        assert abs(ki.combo_norm_sq - s_combo) <= 1e-9 * s_combo


def test_identities_reject_boundary():
    with pytest.raises(ParameterError):
        kernel_identities(1.0)


def test_weighted_diag_unit_weights():
    ones = WeightSequence([1.0])
    assert weighted_kernel_diag_certified(ones, 0.0)[0] == 1.0
    assert abs(weighted_kernel_diag_certified(ones, 0.5)[0] - 4 / 3) < 1e-12


def test_weighted_diag_matches_hardy_for_unit_weights():
    ones = WeightSequence(np.ones(4))
    for lam in (0.1, 0.5, 0.9, 0.99):
        value, bound = weighted_kernel_diag_certified(ones, lam)
        assert abs(value - 1 / (1 - lam**2)) <= bound + 1e-12 * value


def test_weighted_diag_spike_bracket():
    w = build_spike_weight(0.1, 1, 64)
    lam = 0.9
    hardy = 1 / (1 - lam**2)
    value = weighted_kernel_diag_certified(w, lam)[0]
    assert (1.1) ** -2 * hardy <= value <= hardy


def test_weighted_diag_rejects_boundary():
    with pytest.raises(ParameterError):
        weighted_kernel_diag_certified(WeightSequence([1.0]), 1.0)


def test_weighted_diag_returns_plain_floats():
    # the origin, where only the x^0 term counts, and radii away from it
    w = build_spike_weight(0.1, 1, 64)
    for lam in (0.0, 0.5, 0.999):
        value, bound = weighted_kernel_diag_certified(w, lam)
        assert type(value) is float and type(bound) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_weighted_diag_refuses_non_finite_or_nonpositive_weights(bad):
    # any object with ``values`` is accepted, so the check cannot rely on
    # WeightSequence having refused the sequence already
    with pytest.raises(DataError, match="finite and positive"):
        weighted_kernel_diag_certified(SimpleNamespace(values=[1.0, bad]), 0.5)
