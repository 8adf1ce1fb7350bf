"""Spike-weight sequences and the checks of the counterexample report.

A spike weight equals 1 everywhere except on sparse intervals
``[N_j, N_j + 2j]`` where ``ln w_n`` rises linearly with slope
``2 ln(1+eps)`` to a peak ``(1+eps)^(2j)`` and falls back. The start
indices are the smallest integers with ``N_j + 2j < N_{j+1}`` and
``(2j-1)/(N_j + 2j) <= alpha / 2^j``, with ``alpha = 1 - (1+eps)^-2``
pinned at its extreme admissible value so the construction is canonical.

A weight is its values and its ``eps``, which fix ``alpha`` and the spike
starts. The report gives the extreme consecutive ratio as ``(1+eps)**2``
once the quotients of the values match it, the kernel-diagonal ratios,
the per-spike extremal bounds and the growth of the shift orbit
``|S^n 1|_w^2 = w_n``, as plain dicts under the report's own keys.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AccuracyError, CapacityError, DataError, Frozen, ParameterError, check_count
from .kernels import weighted_kernel_diag_certified

#: samples per pass and zoom passes after the first of the spike-peak grid search
_GRID_SAMPLES = 4097
_GRID_ZOOMS = 3


class WeightSequence(Frozen):
    """Finite positive weights with ``w_0 = 1``.

    Beyond the stored range the sequence continues with the unit plateau
    (``w_n = 1``); kernel sums rely on that convention, while
    :func:`shift_growth_witness` raises :class:`CapacityError` when it
    would index past ``values``. ``values`` is read-only.
    """

    __slots__ = _fields = ("values", "epsilon")

    def __init__(self, values, epsilon: Optional[float] = None):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise DataError("weights must form a nonempty sequence")
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            raise DataError("weights must be finite and positive")
        if vals[0] != 1.0:
            raise DataError("w_0 must equal 1")
        self._set(values=vals, epsilon=epsilon)

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def alpha(self) -> Optional[float]:
        """``1 - (1+eps)^-2``, or ``None`` without ``eps``."""
        return None if self.epsilon is None else 1.0 - (1.0 + self.epsilon) ** -2

    @property
    def spike_starts(self) -> tuple:
        """The slot before each rise from the unit plateau."""
        return tuple(np.flatnonzero((self.values[:-1] == 1.0) & (self.values[1:] > 1.0)).tolist())


def _ceil_tol(x: float) -> int:
    # forgive upward float noise when x is an exact integer
    return int(math.ceil(x - 1e-9))


def build_spike_weight(epsilon: float, spike_count: int, length: int) -> WeightSequence:
    """Canonical spike weight with ``spike_count`` spikes in ``length`` slots.

    Raises :class:`CapacityError` carrying the required length, on field
    ``length``, when the spikes do not fit.
    """
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    check_count(spike_count, 1, "spike_count must be >= 1")
    check_count(length, 1, "length must be >= 1")
    alpha = WeightSequence([1.0], epsilon).alpha
    if alpha == 0.0:  # (1 + epsilon)^-2 rounds to 1 below epsilon of about 1.1e-16
        raise ParameterError(f"epsilon {epsilon!r} is too small: 1 - (1 + epsilon)^-2 rounds to 0", field="epsilon")
    starts = []
    prev = None
    for j in range(1, spike_count + 1):
        floor_from_bound = _ceil_tol((2 * j - 1) * 2 ** j / alpha - 2 * j)
        floor_from_prev = 1 if prev is None else prev + 2 * (j - 1) + 1
        start = max(1, floor_from_bound, floor_from_prev)
        starts.append(start)
        prev = start
    needed = starts[-1] + 2 * spike_count + 1
    if needed > length:
        raise CapacityError(
            f"length {length} cannot hold {spike_count} spikes; need {needed}",
            required_length=needed,
            field="length",
        )
    values = np.ones(length, dtype=float)
    for j, start in enumerate(starts, start=1):
        tent = j - np.abs(np.arange(-j, j + 1))
        values[start : start + 2 * j + 1] = (1.0 + epsilon) ** (2.0 * tent)
    return WeightSequence(values, float(epsilon))


def ratio_bound_check(w: WeightSequence) -> float:
    """Extreme consecutive ratio ``max_n max(w_{n+1}/w_n, w_n/w_{n+1})``.

    Only the steps where neighbouring values differ are divided: equal
    neighbours have ratio exactly 1, which ``initial`` stands for, so the
    result is bitwise the maximum over every quotient (1 for one value).
    A quotient beyond the float range is inf, and so is the result.
    """
    v = w.values
    steps = np.flatnonzero(v[1:] != v[:-1])
    with np.errstate(over="ignore", divide="ignore"):  # 1/r divides by a quotient that underflowed to 0
        r = v[steps + 1] / v[steps]
        return float(np.max(np.maximum(r, 1.0 / r), initial=1.0))


def kernel_ratio_check(w: WeightSequence, radii: Sequence[float]) -> dict:
    """Range ``{"min", "max"}`` of the kernel diagonal ratio over the given radii.

    Each ratio is ``(1 - r^2) * sum_n r^(2n)/w_n``. For a spike weight,
    whose ``eps`` fixes its ``alpha``, it lies in ``[1 - alpha, 1]``:
    ``w_n >= 1`` keeps it at most 1, and spike ``j`` removes at most
    ``A_j <= alpha / 2^j``. When ``alpha`` is given, a ratio outside that
    band widened by ``b``, the rounding bound of
    :func:`weighted_kernel_diag_certified` times ``1 - r^2``, raises
    :class:`AccuracyError`.
    """
    ratios = []
    for r in radii:
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise ParameterError("radii must lie in [0, 1)")
        value, bound = weighted_kernel_diag_certified(w, r)
        ratio, b = value * (1.0 - r * r), bound * (1.0 - r * r)
        if w.alpha is not None and not 1.0 - w.alpha - b <= ratio <= 1.0 + b:
            raise AccuracyError(f"kernel ratio {ratio!r} at radius {r!r} leaves [1 - alpha, 1] by more than {b!r}")
        ratios.append(ratio)
    if not ratios:
        raise ParameterError("at least one radius is required")
    return {"min": min(ratios), "max": max(ratios)}


def _grid_max(fn, lo: float, hi: float) -> float:
    """Dense grid maximization with a few zoom passes; fn must be unimodal-ish."""
    best = -np.inf
    for _ in range(_GRID_ZOOMS + 1):
        xs = np.linspace(lo, hi, _GRID_SAMPLES)
        ys = fn(xs)
        i = int(np.argmax(ys))
        best = max(best, float(ys[i]))
        step = (hi - lo) / (_GRID_SAMPLES - 1)
        lo, hi = max(lo, xs[i] - 2 * step), min(hi, xs[i] + 2 * step)
    return best


def spike_peak_bound(n_start: int, j: int) -> dict:
    """Report row ``{"j", "N_j", "A_j", "bound"}`` of spike ``j`` from ``N = n_start``:
    the maximum ``A_j`` of ``x^(N+1) - x^(N+2j)`` on [0, 1] and ``(2j-1)/(N+2j)``.

    The closed form evaluates the function at the stationary point
    ``x = ((N+1)/(N+2j))^(1/(2j-1))``; an independent grid search (in the
    variable ``u = -ln x``, which stays resolvable for huge ``N``) must
    agree within 1e-9, and ``A_j`` may not exceed its bound, or else
    :class:`AccuracyError` is raised.
    """
    for count in (n_start, j):
        check_count(count, 1, "need n_start >= 1 and j >= 1")
    a = n_start + 1
    b = n_start + 2 * j
    ratio = a / b
    extremal = ratio ** (a / (2 * j - 1)) * (2 * j - 1) / b
    bound = (2 * j - 1) / b

    searched = _grid_max(lambda u: np.exp(-a * u) - np.exp(-b * u), 0.0, 10.0 / a)
    if abs(searched - extremal) > 1e-9:
        raise AccuracyError(
            f"closed-form extremal {extremal!r} and grid search {searched!r} disagree"
        )
    if extremal > bound + 1e-12:
        raise AccuracyError("extremal value exceeds its bound")
    return {"j": j, "N_j": int(n_start), "A_j": float(extremal), "bound": float(bound)}


def shift_growth_witness(w: WeightSequence, coeffs, n_max: int) -> np.ndarray:
    """Norm squares ``|S^n f|_w^2 = sum_j |a_j|^2 w_{j+n}`` for n = 0..n_max."""
    a = np.asarray(coeffs, dtype=complex)
    if a.ndim != 1 or not np.all(np.isfinite(a)) or not np.any(a != 0):
        raise DataError("coefficients must be a finite, nonzero one-dimensional sequence")
    check_count(n_max, 0, "n_max must be >= 0")
    top = len(a) - 1 + n_max
    if top >= w.length:
        raise CapacityError(
            f"index {top} exceeds stored weights ({w.length})",
            required_length=top + 1,
        )
    absq = np.abs(a) ** 2
    return np.sum(absq * sliding_window_view(w.values[: len(a) + n_max], len(a)), axis=1)


def _index_text(n: int) -> bytes:
    """``b"0\\n1\\n...\\n"`` for the indices below ``n``, built one decimal
    width at a time: each digit column is one ``% 10`` pass plus ASCII ``0``."""
    blocks = []
    lo, width = 0, 1
    while lo < n:
        hi = min(n, 10**width)
        k = np.arange(lo, hi, dtype=np.min_scalar_type(hi - 1))
        block = np.empty((hi - lo, width + 1), dtype=np.uint8)
        block[:, width] = ord("\n")
        for col in range(width - 1, -1, -1):
            block[:, col] = k % 10 + ord("0")
            k //= 10
        blocks.append(block.tobytes())
        lo, width = hi, width + 1
    return b"".join(blocks)


def weights_to_csv(w: WeightSequence, path) -> None:
    """Dump ``n,w_n,ln_w_n`` rows for plotting; values round-trip exactly.

    The bytes are those of ``calculus.write_csv`` (``\\r\\n`` line ends,
    ``repr`` floats). The index text of all rows is formatted once by
    numpy; each run of equal weights then writes its slice of that text
    with every ``\\n`` replaced by the run's one formatted tail, so a run
    costs a fixed number of calls, however long it is.
    """
    n = w.length
    cuts = np.concatenate(([0], np.flatnonzero(w.values[1:] != w.values[:-1]) + 1, [n]))
    # row i starts 2i bytes into the index text, plus i - 10^k for each power 10^k < i
    offsets = 2 * cuts
    power = 10
    while power < n:
        offsets += np.maximum(cuts - power, 0)
        power *= 10
    starts = cuts[:-1]
    tails = zip(w.values[starts].tolist(), np.log(w.values[starts]).tolist())
    text = _index_text(n)
    bounds = offsets.tolist()
    with open(path, "wb") as fh:
        fh.write(b"n,w_n,ln_w_n\r\n")
        for lo, hi, (value, log) in zip(bounds[:-1], bounds[1:], tails):
            fh.write(text[lo:hi].replace(b"\n", f",{value!r},{log!r}\r\n".encode()))


#: one row of a weight dump: the index and two floats
_ROW = np.dtype([("n", np.int64), ("w_n", np.float64), ("ln_w_n", np.float64)])


def _row_fault(fh, start: int) -> DataError:
    """The refusal of the first row from ``start`` on that is not
    ``i,<number>,<number>``."""
    fh.seek(start)
    for i, line in enumerate(fh):
        fields = line.rstrip("\r\n").split(",")
        if len(fields) != 3:
            return DataError(f"weight row {i} must have three fields")
        try:
            index, _, _ = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            return DataError(f"weight row {i} must hold an integer and two numbers")
        if index != i:
            return DataError("weight rows must be consecutively indexed from 0")
    return DataError("weight rows must each hold an integer and two numbers")


def weights_from_csv(path) -> WeightSequence:
    """Reparse a dump written by :func:`weights_to_csv` (values only; ``eps``
    is not part of the file format). Each ``ln_w_n`` must be
    ``np.log(w_n)`` exactly, as the writer wrote it. The rows are parsed in
    one streaming numpy pass; only a file that fails it is read again row
    by row, to name the first bad row."""
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n") != "n,w_n,ln_w_n":
            raise DataError("weight file must start with the header n,w_n,ln_w_n")
        start = fh.tell()
        blank = [not line.strip() for line in fh]  # loadtxt would skip these rows
        if not blank:
            raise DataError("weight file has no rows")
        if any(blank):
            raise _row_fault(fh, start)
        fh.seek(start)
        try:
            rows = np.loadtxt(fh, delimiter=",", comments=None, dtype=_ROW, ndmin=1)
        except ValueError:
            raise _row_fault(fh, start) from None
    if not np.array_equal(rows["n"], np.arange(len(rows))):
        raise DataError("weight rows must be consecutively indexed from 0")
    w = WeightSequence(rows["w_n"])
    wrong = np.flatnonzero(np.log(w.values) != rows["ln_w_n"])
    if wrong.size:
        raise DataError(f"weight row {wrong[0]}: ln_w_n is not the log of w_n")
    return w


def counterexample_report(w: WeightSequence, radii: Sequence[float]) -> dict:
    """Run every check on a spike weight, such as one from :func:`build_spike_weight`.

    The report carries the construction constants, the per-spike extremal
    values against their bounds, the consecutive-ratio extreme, the
    kernel-diagonal ratio range over ``radii``, and the growth-witness
    maximum ``(1+epsilon)^(2 spike_count)``.

    The ratio extreme is the closed form ``c = (1+eps)**2``, reported once
    :func:`ratio_bound_check` lies within ``8u c`` of it (``u = 2^-53``):
    each value ``b^(2t)`` (``b`` the float ``1+eps``) and ``c`` are within
    ``2u`` of their exact powers, a quotient adds ``u`` and its reciprocal
    ``u``; a weight whose largest step is further off is an :class:`AccuracyError`.
    A spike that rises from slot 0 is a :class:`DataError`.
    """
    if w.epsilon is None:
        raise ParameterError("the counterexample report needs the weight's epsilon")
    ratio = (1.0 + w.epsilon) ** 2
    measured = ratio_bound_check(w)
    if not abs(measured - ratio) <= 8.0 * 2.0**-53 * ratio:
        raise AccuracyError(f"largest consecutive ratio {measured!r} is not (1 + epsilon)^2 = {ratio!r}")
    if w.spike_starts[:1] == (0,):
        raise DataError("the first spike rises from slot 0; a spike weight's spikes start at slot 1 or later")
    spikes = []
    for j, start in enumerate(w.spike_starts, start=1):
        spike = spike_peak_bound(start, j)
        if spike["bound"] > w.alpha / 2 ** j + 1e-12:
            raise AccuracyError("spike bound exceeds alpha / 2^j; construction is inconsistent")
        spikes.append(spike)
    growth = shift_growth_witness(w, [1.0], w.length - 1)
    return {
        "epsilon": float(w.epsilon),
        "alpha": float(w.alpha),
        "spikes": spikes,
        "ratio_check": ratio,
        "kernel_ratio": kernel_ratio_check(w, radii),
        "growth_max": float(np.max(growth)),
    }
