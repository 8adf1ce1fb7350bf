"""Rational functions of one complex variable with exact derivatives.

Coefficients are stored in ascending order (``c[0] + c[1] z + ...``) as
complex numpy arrays. This is the common representation for frame entries
and Toeplitz symbols, so evaluation and differentiation live here, as does
:class:`RationalMatrix`, the matrix of such functions that frames and
symbols both are. Its values are laid out ``(rows, cols, *shape(z))``, the
points on the last axis, and a scalar goes through the same numpy
arithmetic as a grid: it is evaluated as a one-element grid of flattened
points. Also here is :func:`gram_schmidt`, the factorization ``F = QR`` at
every point of a grid that the frame defect, the Gram extremes and the
symbol margin all take their numbers from, for every width and for one
point alike: it sums over rows in one fixed order, row after row, so a
point's numbers are its column of any grid, bit for bit.
"""

from __future__ import annotations

import functools
import json
import operator

import numpy as np

from .errors import DataError, NumericalError, ParameterError, ValidationError, read_json


def as_coeffs(c) -> np.ndarray:
    """Coerce to a trimmed ascending complex coefficient array."""
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1:
        raise ParameterError("coefficients must be one-dimensional")
    nz = np.nonzero(np.abs(arr) > 0.0)[0]  # exact: trailing zeros are trimmed, nothing else
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return arr[: nz[-1] + 1].copy()


def poly_eval(coeffs: np.ndarray, z):
    """Horner evaluation; ``z`` may be a scalar or an ndarray."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, len(coeffs))


def poly_mul(a, b) -> np.ndarray:
    return as_coeffs(np.convolve(as_coeffs(a), as_coeffs(b)))


def poly_from_roots(roots, leading=1.0) -> np.ndarray:
    out = np.array([complex(leading)])
    for r in roots:
        out = np.convolve(out, np.array([-r, 1.0], dtype=complex))
    return out


def poly_roots(coeffs) -> np.ndarray:
    """Roots via the companion matrix; empty for (sub)constant input."""
    c = as_coeffs(coeffs)
    if len(c) <= 1:
        return np.zeros(0, dtype=complex)
    try:
        # a leading coefficient tiny next to the others overflows the companion matrix
        with np.errstate(over="ignore", invalid="ignore"):
            return np.roots(c[::-1])
    except np.linalg.LinAlgError:
        raise DataError("roots cannot be located: the companion matrix overflows") from None


class RationalFunction:
    """num(z)/den(z) with exact quotient-rule differentiation."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        self.num = as_coeffs(num)
        self.den = as_coeffs(den)
        if len(self.den) == 1 and self.den[0] == 0:
            raise ParameterError("denominator is identically zero")

    @classmethod
    def constant(cls, value) -> "RationalFunction":
        return cls([complex(value)])

    @classmethod
    def monomial(cls, degree: int) -> "RationalFunction":
        if degree < 0:
            raise ParameterError("monomial degree must be nonnegative")
        num = np.zeros(degree + 1, dtype=complex)
        num[degree] = 1.0
        return cls(num)

    def __call__(self, z):
        return poly_eval(self.num, z) / poly_eval(self.den, z)

    def eval_deriv(self, z):
        """Exact derivative value, (n'd - nd')/d^2."""
        return self.jet(z)[1]

    def jet(self, z):
        """Value ``n/d`` and derivative ``(n'd - nd')/d^2`` from one
        evaluation of each of ``n``, ``d``, ``n'`` and ``d'``."""
        n = poly_eval(self.num, z)
        d = poly_eval(self.den, z)
        np_ = poly_eval(poly_deriv(self.num), z)
        dp = poly_eval(poly_deriv(self.den), z)
        return n / d, (np_ * d - n * dp) / (d * d)

    def poles(self) -> np.ndarray:
        return poly_roots(self.den)

    def zeros(self) -> np.ndarray:
        return poly_roots(self.num)

    @property
    def is_zero(self) -> bool:
        return len(self.num) == 1 and self.num[0] == 0

    def __repr__(self):
        return f"RationalFunction(num={self.num.tolist()}, den={self.den.tolist()})"

    # -- JSON [re, im] coefficient pairs, used by the frame/symbol files --

    def to_jsonable(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
        }

    @classmethod
    def from_jsonable(cls, obj, field="entry") -> "RationalFunction":
        if not isinstance(obj, dict) or set(obj) - {"num", "den"}:
            raise DataError(f"{field}: expected an object with 'num' and 'den'", field=field)
        coeffs = {}
        for key in ("num", "den"):
            raw = obj.get(key)
            if not isinstance(raw, list) or not raw:
                raise DataError(f"{field}.{key}: expected a nonempty coefficient list", field=f"{field}.{key}")
            vals = []
            for i, pair in enumerate(raw):
                where = f"{field}.{key}[{i}]"
                if (
                    not isinstance(pair, (list, tuple))
                    or len(pair) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
                ):
                    raise DataError(f"{where}: expected an [re, im] pair", field=where)
                try:
                    vals.append(complex(pair[0], pair[1]))
                except OverflowError:
                    raise DataError(f"{where}: beyond the float range", field=where) from None
                if not np.isfinite(vals[-1]):
                    raise DataError(f"{where}: not finite", field=where)
            coeffs[key] = vals
        if not any(coeffs["den"]):
            raise DataError(f"{field}.den: denominator is identically zero", field=f"{field}.den")
        return cls(coeffs["num"], coeffs["den"])


class RationalMatrix:
    """Matrix of rational functions: shape checks, evaluation and JSON I/O.

    Subclasses name themselves in messages through ``noun``, screen each
    entry's pole radii in ``_check_pole_radii`` (a refusal is re-raised
    naming the entry, ``entries[i][j]``), and list in ``flags`` the boolean
    constructor arguments their JSON form carries.
    """

    noun = "matrix"
    flags: tuple = ()

    def __init__(self, entries: list):
        if not entries or not entries[0]:
            raise ParameterError(f"{self.noun} needs at least one row and one column")
        cols = len(entries[0])
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ParameterError(f"{self.noun} rows must all have the same length")
            for j, entry in enumerate(row):
                if not isinstance(entry, RationalFunction):
                    raise ParameterError(f"{self.noun} entries must be RationalFunction instances")
                try:
                    self._check_pole_radii(np.abs(entry.poles()))
                except ValidationError as exc:  # unlocatable poles, or poles the subclass refuses
                    where = f"entries[{i}][{j}]"
                    raise type(exc)(f"{where}: {exc}", field=where) from None
        self.entries = entries

    def _check_pole_radii(self, radii: np.ndarray) -> None:
        """Reject an entry by the moduli of its poles; any pole is fine here."""

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def _fill(self, z, k: int, fn) -> np.ndarray:
        """``k`` arrays per entry from ``fn(entry, points)``, laid out
        ``(k, rows, cols, *shape(z))``: the points on the last axis, so a
        scalar gives ``k`` matrices of ``rows x cols``. ``fn`` sees the
        points flattened, so a scalar is a one-element grid and runs the
        grid's array loops: its values are the grid's, bit for bit."""
        z = np.asarray(z, dtype=complex)
        points = z.reshape(-1)
        out = np.empty((k, self.rows, self.cols, points.size), dtype=complex)
        # a pole on a point, or a value beyond the float range, gives inf or nan there; callers check finiteness
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i, row in enumerate(self.entries):
                for j, e in enumerate(row):
                    out[:, i, j] = fn(e, points)
        return out.reshape(k, self.rows, self.cols, *z.shape)

    def eval(self, z) -> np.ndarray:
        """Values, laid out ``(rows, cols, *shape(z))``."""
        return self._fill(z, 1, lambda e, z: (e(z),))[0]

    def eval_jet(self, z):
        """Values and exact derivatives (never a finite difference), each
        laid out as :meth:`eval`, from one :meth:`RationalFunction.jet`
        per entry."""
        f, fp = self._fill(z, 2, RationalFunction.jet)
        return f, fp

    @classmethod
    def constant(cls, matrix, **flags):
        m = np.atleast_2d(np.asarray(matrix, dtype=complex))
        return cls([[RationalFunction.constant(v) for v in row] for row in m], **flags)

    def to_jsonable(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            **{flag: getattr(self, flag) for flag in self.flags},
            "entries": [[e.to_jsonable() for e in row] for row in self.entries],
        }

    @classmethod
    def from_jsonable(cls, obj):
        noun = cls.noun
        keys = ("rows", "cols", *cls.flags, "entries")
        if not isinstance(obj, dict):
            raise DataError(f"{noun} file must contain a JSON object", field="")
        unknown = set(obj) - set(keys)
        if unknown:
            raise DataError(f"unknown {noun} key {sorted(unknown)[0]!r}", field=sorted(unknown)[0])
        for key in keys:
            if key not in obj:
                raise DataError(f"{noun} file is missing {key!r}", field=key)
        for flag in cls.flags:
            if not isinstance(obj[flag], bool):
                raise DataError(f"{flag} flag must be a boolean", field=flag)
        rows, cols = obj["rows"], obj["cols"]
        for key, n in (("rows", rows), ("cols", cols)):
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise DataError(f"{key} must be a positive integer", field=key)
        raw = obj["entries"]
        if not isinstance(raw, list) or len(raw) != rows:
            raise DataError(f"entries must be a list of {rows} rows", field="entries")
        entries = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != cols:
                raise DataError(f"entries[{i}] must list {cols} entries", field=f"entries[{i}]")
            entries.append(
                [RationalFunction.from_jsonable(e, field=f"entries[{i}][{j}]") for j, e in enumerate(row)]
            )
        return cls(entries, **{flag: obj[flag] for flag in cls.flags})

    @classmethod
    def load(cls, path):
        return cls.from_jsonable(read_json(path, cls.noun))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _row_sum(v: np.ndarray) -> np.ndarray:
    # row after row: for a single point ``v.sum(0)`` adds more than 8 rows pairwise
    return functools.reduce(operator.add, v)


def _squared_norms(v: np.ndarray) -> np.ndarray:
    return _row_sum(v.real * v.real + v.imag * v.imag)


def gram_schmidt(a: np.ndarray, d: np.ndarray | None = None):
    """``a = QR`` at every point by classical Gram-Schmidt with one
    reorthogonalization; returns ``(lo, hi, exp, defect)``.

    ``a``, and ``d`` if given, hold one ``rows x cols`` matrix per point,
    laid out ``(rows, cols, n)``, so every sum over a column is a sum of
    whole arrays. Each column of both is divided by ``2^exp`` as it is
    taken up, ``exp`` being the exponent of the point's largest entry of
    ``a``: exact, and it keeps the squares from overflowing or
    underflowing. ``lo`` and ``hi`` are the extreme eigenvalues of
    ``R*R``, the squared extreme singular values of the scaled ``a``: in
    closed form for up to two columns, with ``p = r11^2`` and
    ``s = |r12|^2 + r22^2``, ``hi = (p + s)/2 + hypot((p - s)/2, r11 |r12|)``
    and ``lo = (r11 r22)^2 / hi`` (0 for a zero matrix); wider matrices
    square the extremes of one batched ``svd(R)``, never below 0, and a
    failed SVD raises :class:`NumericalError`. ``defect`` is
    ``|(d - QQ*d) R^-1|_HS^2``, by forward substitution over the columns,
    or None without ``d``. A point that is not finite, or whose ``R`` is
    singular, gets NaN or inf there and nowhere else.
    """
    rows, cols, n = a.shape
    peak = np.abs(a.view(np.float64)).reshape(rows * cols, n, 2).max(axis=0)
    exp = np.maximum(np.frexp(np.maximum(peak[:, 0], peak[:, 1]))[1], -1022)  # 2^-exp stays finite
    scale = np.ldexp(1.0, -exp)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q, r, sq = [], np.zeros((cols, cols, n), dtype=complex), np.empty((cols, n))
        for k in range(cols):
            v = a[:, k] * scale
            for _ in range(2 if k else 0):
                for j, c in enumerate([_row_sum(qj.conj() * v) for qj in q]):
                    v = v - q[j] * c
                    r[j, k] += c
            sq[k] = _squared_norms(v)
            r[k, k] = diag = np.sqrt(sq[k])
            q.append(v / np.where(sq[k] > 0.0, diag, 1.0))

        defect = None
        if d is not None:
            x = []
            for k in range(cols):
                dk = d[:, k] * scale
                normal = dk - sum(qj * _row_sum(qj.conj() * dk) for qj in q)
                x.append((normal - sum(x[j] * r[j, k] for j in range(k))) / r[k, k].real)
            defect = sum(map(_squared_norms, x))

        if cols == 1:
            lo = hi = sq[0]
        elif cols == 2:
            off = np.abs(r[0, 1])
            p, s = sq[0], sq[1] + off * off
            hi = 0.5 * (p + s) + np.hypot(0.5 * (p - s), r[0, 0].real * off)
            lo = p * sq[1] / np.where(hi > 0.0, hi, 1.0)
        else:
            lo, hi = np.full((2, n), np.nan)
            good = np.all(np.isfinite(r), axis=(0, 1))
            try:
                sigma = np.linalg.svd(r[..., good].transpose(2, 0, 1), compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular value decomposition failed: {exc}") from exc
            lo[good], hi[good] = sigma[:, -1] ** 2, sigma[:, 0] ** 2
    return lo, hi, exp, defect
