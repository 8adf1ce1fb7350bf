import math

import numpy as np
import pytest

from diskbundle.errors import AccuracyError, CapacityError, DataError, ParameterError
from diskbundle.kernels import weighted_kernel_diag_certified
from diskbundle.weights import (
    WeightSequence,
    build_spike_weight,
    counterexample_report,
    kernel_ratio_check,
    ratio_bound_check,
    shift_growth_witness,
    spike_peak_bound,
    weights_from_csv,
    weights_to_csv,
)
from oracles import (
    backward_shift_apply,
    csv_module_weights,
    full_quotient_ratio,
    spike_values_loop,
    whole_array_kernel_diag,
)

#: (epsilon, spike_count, length) of the spike weights the fast paths are held to
SPIKE_CASES = [(0.1, 1, 16), (0.3, 5, 4096), (0.05, 2, 777), (0.1, 3, 10**5)]
RUN_LENGTHS = [1, 2, 3000]
RADII = [0.0, 0.5, 0.955, 0.999, 0.9999]
#: weight levels of the seeded run weights
LEVELS = (1.0, 1.1**2, 1.1**4, 1.5, 3.0)


def _runs_weight(length: int, seed: int, levels=LEVELS) -> WeightSequence:
    """Seeded weights made of runs of equal values, 1 to 7 slots long."""
    rng = np.random.default_rng(seed)
    values = np.repeat(rng.choice(levels, size=length), rng.integers(1, 8, size=length))[:length]
    values[0] = 1.0
    return WeightSequence(values)


def _stepped_weight(length: int, cuts) -> WeightSequence:
    """Weights ``1, 2, 1, 2, ...``, one run between consecutive ``cuts``."""
    values = np.ones(length)
    for i, (start, end) in enumerate(zip(cuts, [*cuts[1:], length])):
        values[start:end] = 1.0 + i % 2
    return WeightSequence(values)


def _distinct_weight(length: int, seed: int) -> WeightSequence:
    """Seeded weights, every entry different from every other."""
    values = np.exp(np.random.default_rng(seed).normal(size=length))
    values[0] = 1.0
    assert np.unique(values).size == length
    return WeightSequence(values)


#: weights whose runs sit on the seams of the index widths: runs across 9|10,
#: 99|100 and 999|1000, runs starting at 10, 100, 1000 and 10^4, and single
#: runs ending at a width change
SEAM_WEIGHTS = [
    _stepped_weight(1200, [0, 5, 15, 95, 105, 995, 1005]),
    _stepped_weight(10**4 + 1, [0, 10, 11, 100, 101, 1000, 1001, 10**4]),
    *(WeightSequence(np.ones(length)) for length in (1, 10, 100, 10**4, 10**4 + 1)),
]


def _fast_path_weights():
    spikes = [build_spike_weight(*case) for case in SPIKE_CASES]
    return spikes + [_runs_weight(length, seed=length) for length in RUN_LENGTHS]


# --- construction ---


def test_single_spike_construction():
    w = build_spike_weight(0.1, 1, 64)
    assert w.spike_starts == (10,)
    assert abs(w.alpha - 0.21 / 1.21) < 1e-15
    assert w.values[11] == (1.1) ** 2
    assert w.values[10] == 1.0 and w.values[12] == 1.0


def test_two_spike_construction():
    w = build_spike_weight(0.1, 2, 128)
    assert w.spike_starts == (10, 66)
    assert w.values[68] == (1.1) ** 4


def test_capacity_error_reports_requirement():
    with pytest.raises(CapacityError) as err:
        build_spike_weight(0.1, 3, 8)
    assert err.value.required_length is not None
    build_spike_weight(0.1, 3, err.value.required_length)  # the reported length fits


def test_spike_pattern_invariants():
    # every step of the values is 1 or (1+eps)^(+-2), within the rounding of the powers and the quotient
    w = build_spike_weight(0.1, 2, 128)
    steps = w.values[1:] / w.values[:-1]

    def near(x):
        return np.abs(steps - x) <= 8.0 * 2.0**-53 * x

    assert np.all((steps == 1.0) | near(1.1**2) | near(1.1**-2))
    assert near(1.1**2).any() and near(1.1**-2).any()
    inside = np.zeros(w.length, dtype=bool)
    for j, start in enumerate(w.spike_starts, start=1):
        inside[start : start + 2 * j + 1] = True
        assert w.values[start + j] == (1.1) ** (2 * j)  # peak value
    assert np.all(w.values[~inside] == 1.0)  # unit plateaus


def test_weight_sequence_validation():
    with pytest.raises(DataError):
        WeightSequence([2.0, 1.0])  # w_0 != 1
    with pytest.raises(DataError):
        WeightSequence([1.0, -1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DataError, match="finite and positive"):
            WeightSequence([1.0, bad])
    with pytest.raises(ParameterError):
        build_spike_weight(-0.1, 1, 64)


def test_unit_tail_convention():
    # past the stored range w_n = 1, so the diagonal is 1 + x/2 + x^2/(1-x)
    w = WeightSequence([1.0, 2.0])
    x = 0.25
    value, bound = weighted_kernel_diag_certified(w, 0.5)
    assert abs(value - (1.0 + x / 2 + x**2 / (1.0 - x))) <= bound + 1e-15


# --- ratio bound ---


def test_ratio_bound_unit_weights():
    assert ratio_bound_check(WeightSequence(np.ones(16))) == 1.0


def test_ratio_bound_spike_exact():
    w = build_spike_weight(0.1, 1, 64)
    assert ratio_bound_check(w) == (1.1) ** 2


def test_ratio_bound_hand_sequence():
    assert ratio_bound_check(WeightSequence([1.0, 2.0])) == 2.0


@pytest.mark.parametrize(
    "w",
    [_runs_weight(length, seed=length) for length in RUN_LENGTHS]
    + [_runs_weight(3000, seed=9, levels=(1.0, 0.5, 1 / 3, 7.0, 1e-150, 1e150))]
    + SEAM_WEIGHTS
    + [_distinct_weight(2000, seed=3)],
)
def test_ratio_bound_matches_full_quotient_oracle(w):
    # dividing only where neighbours differ gives the full-quotient maximum bit for bit
    assert ratio_bound_check(w) == full_quotient_ratio(w)


@pytest.mark.parametrize("values", [[1.0, 1e-300, 1e300], [1.0, 1e300, 1e-300]], ids=["overflow", "underflow"])
def test_ratio_bound_beyond_the_float_range_is_inf(values):
    # a quotient that overflows, or underflows to 0 before its reciprocal, is inf without a warning
    assert ratio_bound_check(WeightSequence(values)) == np.inf


# --- kernel ratio ---


def test_kernel_ratio_unit_weights():
    kr = kernel_ratio_check(WeightSequence([1.0]), [0.0, 0.5, 0.9])
    assert abs(kr["min"] - 1.0) < 1e-12
    assert abs(kr["max"] - 1.0) < 1e-12


def test_kernel_ratio_spike_bracket():
    w = build_spike_weight(0.1, 1, 64)
    kr = kernel_ratio_check(w, [0.0, 0.5, 0.9, 0.99, 0.999])
    assert 1.0 - w.alpha - 1e-9 <= kr["min"]
    assert kr["max"] <= 1.0 + 1e-9


@pytest.mark.parametrize("side", ["above_one", "below_one_minus_alpha"])
def test_kernel_ratio_outside_its_band_is_an_accuracy_error(monkeypatch, side):
    # a kernel sum whose ratio leaves [1 - alpha, 1] by three rounding bounds
    w = build_spike_weight(0.1, 1, 64)

    def shifted(w, r):
        value, bound = weighted_kernel_diag_certified(w, r)
        target = 1.0 + 3.0 * bound * 0.75 if side == "above_one" else 1.0 - w.alpha - 3.0 * bound * 0.75
        return target / 0.75, bound

    monkeypatch.setattr("diskbundle.weights.weighted_kernel_diag_certified", shifted)
    with pytest.raises(AccuracyError, match="leaves"):
        kernel_ratio_check(w, [0.5])


def test_kernel_ratio_hand_spike_at_origin():
    w = WeightSequence([1.0, 2.0, 1.0, 1.0])
    kr = kernel_ratio_check(w, [0.0])
    assert kr["min"] == kr["max"] == 1.0


def test_kernel_ratio_rejects_radius_one():
    with pytest.raises(ParameterError):
        kernel_ratio_check(WeightSequence([1.0]), [1.0])


# --- extremal spike bound ---


def test_spike_peak_bound_example():
    sb = spike_peak_bound(10, 1)
    assert abs(sb["A_j"] - (11 / 12) ** 11 / 12) < 1e-15
    assert abs(sb["A_j"] - 0.032) < 1e-4
    assert sb["bound"] == 1 / 12
    assert sb["A_j"] <= sb["bound"]


def test_spike_peak_bound_second_spike():
    sb = spike_peak_bound(66, 2)
    assert sb["bound"] == 3 / 70
    alpha = 0.21 / 1.21
    assert sb["A_j"] <= sb["bound"] <= alpha / 4 + 1e-12


def test_spike_peak_bound_cubic():
    sb = spike_peak_bound(1, 1)
    assert abs(sb["A_j"] - 4 / 27) < 1e-12
    assert sb["bound"] == 1 / 3


@pytest.mark.parametrize("n_start,j", [(1, 1), (10, 1), (100, 3), (10**4, 5), (10**6, 10)])
def test_spike_peak_closed_form_vs_grid_search(n_start, j):
    # spike_peak_bound raises AccuracyError if the independent grid search
    # disagrees with the closed form beyond 1e-9
    sb = spike_peak_bound(n_start, j)
    assert 0.0 < sb["A_j"] <= sb["bound"]


def test_spike_peak_bound_rejects_bad_input():
    with pytest.raises(ParameterError):
        spike_peak_bound(0, 1)


# --- backward shift ---


def test_backward_shift_plain():
    w = WeightSequence(np.ones(3))
    out = backward_shift_apply(w, [0.0, 1.0, 0.0])
    assert np.allclose(out, [1.0, 0.0])


def test_backward_shift_weighted_ratio():
    w = WeightSequence([1.0, 2.0, 1.0])
    out = backward_shift_apply(w, [0.0, 0.0, 1.0])
    assert np.allclose(out, [0.0, 0.5])


def test_backward_shift_capacity():
    with pytest.raises(CapacityError):
        backward_shift_apply(WeightSequence([1.0, 2.0]), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("lam", [0.3, 0.5 + 0.2j, 0.9])
def test_backward_shift_eigenvector(lam):
    w = build_spike_weight(0.1, 2, 512)
    n_terms = 448
    coeffs = lam ** np.arange(n_terms) / w.values[:n_terms]
    out = backward_shift_apply(w, coeffs)
    tail_bound = abs(lam) ** n_terms + 1e-13
    assert np.max(np.abs(out - lam * coeffs[: n_terms - 1])) <= tail_bound


# --- growth witness ---


def test_growth_witness_isometric_case():
    w = WeightSequence(np.ones(8))
    assert np.all(shift_growth_witness(w, [1.0], 7) == 1.0)


def test_growth_witness_hits_peak():
    w = build_spike_weight(0.1, 5, 4096)
    values = shift_growth_witness(w, [1.0], w.length - 1)
    assert np.max(values) == (1.1) ** 10


def test_growth_witness_single_offset_coefficient():
    w = build_spike_weight(0.1, 1, 64)
    m = 3
    coeffs = np.zeros(m + 1)
    coeffs[m] = 1.0
    values = shift_growth_witness(w, coeffs, 20)
    assert np.array_equal(values, w.values[m : m + 21])


def test_growth_witness_matches_per_offset_loop():
    w = build_spike_weight(0.1, 3, 1024)
    rng = np.random.default_rng(3)
    for length in (1, 2, 7, 50, 300):
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        n_max = w.length - length
        absq = np.abs(coeffs) ** 2
        loop = [float(np.sum(absq * w.values[n : n + length])) for n in range(n_max + 1)]
        assert np.array_equal(shift_growth_witness(w, coeffs, n_max), loop)


def test_growth_witness_capacity_and_data_errors():
    w = WeightSequence(np.ones(4))
    with pytest.raises(CapacityError):
        shift_growth_witness(w, [1.0], 10)
    with pytest.raises(DataError):
        shift_growth_witness(w, [0.0], 2)


@pytest.mark.parametrize(
    "coeffs",
    [[math.nan], [math.inf], [1.0, complex(0.0, math.nan)], [[1.0, 2.0]], 1.0],
    ids=["nan", "inf", "complex-nan", "row", "scalar"],
)
def test_growth_witness_refuses_non_finite_or_non_sequence_coefficients(coeffs):
    with pytest.raises(DataError, match="finite, nonzero one-dimensional"):
        shift_growth_witness(WeightSequence(np.ones(8)), coeffs, 2)


def test_unboundedness_witness_grows_with_spike_count():
    peaks = []
    for j_total in (1, 2, 3):
        w = build_spike_weight(0.1, j_total, 2048)
        peaks.append(np.max(w.values))
        assert np.max(w.values) == (1.1) ** (2 * j_total)
    assert peaks[0] < peaks[1] < peaks[2]


# --- reports and dumps ---


def test_weights_csv_round_trip(tmp_path):
    w = build_spike_weight(0.1, 1, 16)
    path = tmp_path / "weights.csv"
    weights_to_csv(w, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,w_n,ln_w_n"
    assert len(lines) == 17
    back = weights_from_csv(path)
    assert np.array_equal(back.values, w.values)


@pytest.mark.parametrize("field", ["nan", "inf"])
def test_weights_from_csv_refuses_non_finite(tmp_path, field):
    path = tmp_path / "weights.csv"
    path.write_text(f"n,w_n,ln_w_n\r\n0,1.0,0.0\r\n1,{field},{field}\r\n")
    with pytest.raises(DataError, match="finite and positive"):
        weights_from_csv(path)


@pytest.mark.parametrize("row", ["1,abc,0.0", "x,2.0,0.0", "1,2.0,abc", "1,2.0,5.0", "1,2.0", "1.0,2.0,0.0"])
def test_weights_from_csv_refuses_malformed_row(tmp_path, row):
    path = tmp_path / "weights.csv"
    path.write_text(f"n,w_n,ln_w_n\r\n0,1.0,0.0\r\n{row}\r\n")
    with pytest.raises(DataError, match="weight row 1[ :]"):
        weights_from_csv(path)


def test_weights_from_csv_refuses_a_blank_row(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("n,w_n,ln_w_n\r\n0,1.0,0.0\r\n\r\n1,1.0,0.0\r\n")
    with pytest.raises(DataError, match="weight row 1 must have three fields"):
        weights_from_csv(path)


def test_weights_csv_round_trip_checks_every_log(tmp_path):
    # the spike weight the benchmark dumps: every ln_w_n reparses to np.log(w_n) bit for bit
    w = build_spike_weight(0.1, 3, 10**5)
    weights_to_csv(w, tmp_path / "weights.csv")
    assert weights_from_csv(tmp_path / "weights.csv").values.tobytes() == w.values.tobytes()
    lines = (tmp_path / "weights.csv").read_text().splitlines()
    n, value, _ = lines[-1].split(",")
    lines[-1] = f"{n},{value},{float(np.nextafter(np.log(float(value)), 1.0))!r}"
    (tmp_path / "weights.csv").write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(DataError, match=f"weight row {10**5 - 1}: ln_w_n"):
        weights_from_csv(tmp_path / "weights.csv")


# --- fast paths against their whole-sequence oracles ---


@pytest.mark.parametrize("case", SPIKE_CASES)
def test_spike_values_match_per_slot_loop(case):
    w = build_spike_weight(*case)
    epsilon, _, length = case
    assert w.values.tobytes() == spike_values_loop(w.spike_starts, epsilon, length).tobytes()


def test_kernel_sums_match_whole_array_oracle():
    # the closed form over the non-unit weights against every stored term summed in extended precision
    for w in _fast_path_weights() + [_distinct_weight(2000, seed=3)] + SEAM_WEIGHTS:
        for r in RADII:
            value, bound = weighted_kernel_diag_certified(w, r)
            exact = whole_array_kernel_diag(w, r)
            assert abs(value - exact) <= bound, (w.length, r)
            assert abs(value - exact) <= 1e-15 * exact, (w.length, r)


@pytest.mark.parametrize(
    "w",
    _fast_path_weights()
    + [_runs_weight(3000, seed=9, levels=(1.0, 0.5, 1 / 3, 7.0, 1e-300, 1e300))]
    + SEAM_WEIGHTS
    + [_distinct_weight(2000, seed=3)],
)
def test_weights_csv_matches_csv_module_bytes(tmp_path, w):
    weights_to_csv(w, tmp_path / "fast.csv")
    csv_module_weights(w, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("name, index, value", [("values", 40, 7.0), ("values", 0, -1.0)])
def test_weight_arrays_are_read_only(tmp_path, name, index, value):
    # a weight cannot drift from the checks of its construction
    w = build_spike_weight(0.1, 2, 128)
    with pytest.raises(ValueError):
        getattr(w, name)[index] = value
    assert counterexample_report(w, (0.0, 0.5))["growth_max"] == 1.1**4
    weights_to_csv(w, tmp_path / "weights.csv")
    assert np.array_equal(weights_from_csv(tmp_path / "weights.csv").values, w.values)


def test_read_only_weights_are_views_of_the_callers_array():
    values = np.array([1.0, 2.0, 3.0])
    w = WeightSequence(values)
    assert np.shares_memory(w.values, values) and values.flags.writeable


def test_counterexample_report_contents():
    report = counterexample_report(build_spike_weight(0.1, 2, 128), (0.0, 0.5, 0.9, 0.99, 0.999))
    assert report["spikes"][0]["N_j"] == 10
    assert report["spikes"][1]["N_j"] == 66
    assert report["ratio_check"] == (1.1) ** 2
    assert report["growth_max"] == (1.1) ** 4
    assert 1.0 - report["alpha"] - 1e-9 <= report["kernel_ratio"]["min"]
    assert report["kernel_ratio"]["max"] <= 1.0 + 1e-9
    for spike in report["spikes"]:
        assert spike["A_j"] <= spike["bound"] <= report["alpha"] / 2 ** spike["j"] + 1e-12


def test_weight_is_its_values_and_epsilon():
    # alpha and the spike starts are read from the values and epsilon; neither can be stored or set
    assert WeightSequence.__slots__ == ("values", "epsilon")
    w = build_spike_weight(0.1, 2, 128)
    for name, value in (("alpha", 0.9), ("spike_starts", (10,))):
        with pytest.raises(TypeError):
            WeightSequence(w.values, epsilon=0.1, **{name: value})
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    assert WeightSequence(w.values).alpha is None


def test_hand_built_spike_weight_report():
    # the values of two spikes and their epsilon, without the builder
    values = build_spike_weight(0.1, 2, 128).values.copy()
    w = WeightSequence(values, epsilon=0.1)
    assert w.spike_starts == (10, 66)
    report = counterexample_report(w, (0.0, 0.5, 0.9))
    assert [s["N_j"] for s in report["spikes"]] == [10, 66]
    assert report["alpha"] == 1.0 - 1.1**-2
    assert report["ratio_check"] == 1.1**2


@pytest.mark.parametrize("values", [[1.0, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.1**4, 1.0]])
def test_report_refuses_steps_that_disagree_with_epsilon(values):
    with pytest.raises(AccuracyError, match="largest consecutive ratio"):
        counterexample_report(WeightSequence(values, epsilon=0.1), (0.0, 0.5))


def test_report_refuses_a_spike_from_slot_0():
    # the steps match epsilon, but spike_peak_bound needs N_j >= 1
    with pytest.raises(DataError, match="^the first spike rises from slot 0;"):
        counterexample_report(WeightSequence([1.0, 1.21, 1.0], epsilon=0.1), (0.0, 0.5))


def test_report_needs_epsilon():
    with pytest.raises(ParameterError):
        counterexample_report(WeightSequence(build_spike_weight(0.1, 1, 64).values), (0.0,))


@pytest.mark.parametrize("epsilon, spike_count", [(0.05, 3), (0.1, 5), (0.15, 3), (0.3, 5), (2.0, 4), (10.0, 2)])
def test_report_ratio_is_the_closed_form(epsilon, spike_count):
    # the quotients of the values may round away from (1+eps)^2; the report states the closed form
    w = build_spike_weight(epsilon, spike_count, 4096)
    assert abs(ratio_bound_check(w) - (1 + epsilon) ** 2) <= 8.0 * 2.0**-53 * (1 + epsilon) ** 2
    assert counterexample_report(w, (0.0, 0.5))["ratio_check"] == (1 + epsilon) ** 2


def test_weighted_diag_consistency_with_report():
    # spot check the kernel sum the report relies on
    w = build_spike_weight(0.1, 2, 128)
    r = 0.999
    # past the stored weights the unit tail w_n = 1 takes over
    direct = sum(r ** (2 * n) / (w.values[n] if n < w.length else 1.0) for n in range(60000))
    assert abs(weighted_kernel_diag_certified(w, r)[0] - direct) < 1e-8 * direct
