"""Rational functions of one complex variable with exact derivatives.

Coefficients are stored in ascending order (``c[0] + c[1] z + ...``) as
complex numpy arrays. This is the common representation for frame entries
and Toeplitz symbols, so evaluation, differentiation, and the little
algebra needed for symbol products all live here, as does
:class:`RationalMatrix`, the matrix of such functions that frames and
symbols both are.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError, ParameterError

_ZERO_CUTOFF = 0.0  # exact: trailing zeros are trimmed, nothing else


def as_coeffs(c) -> np.ndarray:
    """Coerce to a trimmed ascending complex coefficient array."""
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1:
        raise ParameterError("coefficients must be one-dimensional")
    nz = np.nonzero(np.abs(arr) > _ZERO_CUTOFF)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return arr[: nz[-1] + 1].copy()


def poly_eval(coeffs: np.ndarray, z):
    """Horner evaluation; ``z`` may be a scalar or an ndarray."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * z + c
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


def poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, len(coeffs))


def poly_mul(a, b) -> np.ndarray:
    return as_coeffs(np.convolve(as_coeffs(a), as_coeffs(b)))


def poly_add(a, b) -> np.ndarray:
    a, b = as_coeffs(a), as_coeffs(b)
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] += b
    return as_coeffs(out)


def poly_sub(a, b) -> np.ndarray:
    return poly_add(a, -as_coeffs(b))


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
    return np.roots(c[::-1])


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
    def monomial(cls, degree: int, coefficient=1.0) -> "RationalFunction":
        if degree < 0:
            raise ParameterError("monomial degree must be nonnegative")
        num = np.zeros(degree + 1, dtype=complex)
        num[degree] = coefficient
        return cls(num)

    def __call__(self, z):
        return poly_eval(self.num, z) / poly_eval(self.den, z)

    def eval_deriv(self, z):
        """Exact derivative value, (n'd - nd')/d^2."""
        n = poly_eval(self.num, z)
        d = poly_eval(self.den, z)
        np_ = poly_eval(poly_deriv(self.num), z)
        dp = poly_eval(poly_deriv(self.den), z)
        return (np_ * d - n * dp) / (d * d)

    def deriv(self) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(
            poly_sub(poly_mul(poly_deriv(n), d), poly_mul(n, poly_deriv(d))),
            poly_mul(d, d),
        )

    def poles(self) -> np.ndarray:
        return poly_roots(self.den)

    def zeros(self) -> np.ndarray:
        return poly_roots(self.num)

    @property
    def is_zero(self) -> bool:
        return len(self.num) == 1 and self.num[0] == 0

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RationalFunction(num, poly_mul(self.den, other.den))

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
                if (
                    not isinstance(pair, (list, tuple))
                    or len(pair) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
                ):
                    raise DataError(
                        f"{field}.{key}[{i}]: expected an [re, im] pair",
                        field=f"{field}.{key}[{i}]",
                    )
                try:
                    vals.append(complex(pair[0], pair[1]))
                except OverflowError:
                    where = f"{field}.{key}[{i}]"
                    raise DataError(f"{where}: beyond the float range", field=where) from None
            coeffs[key] = vals
        return cls(coeffs["num"], coeffs["den"])


class RationalMatrix:
    """Matrix of rational functions: shape checks, evaluation and JSON I/O.

    Subclasses name themselves in messages through ``noun``, screen each
    entry's pole radii in ``_check_pole_radii``, and list in ``flags`` the
    boolean constructor arguments their JSON form carries.
    """

    noun = "matrix"
    flags: tuple = ()

    def __init__(self, entries: list):
        if not entries or not entries[0]:
            raise ParameterError(f"{self.noun} needs at least one row and one column")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ParameterError(f"{self.noun} rows must all have the same length")
            for entry in row:
                if not isinstance(entry, RationalFunction):
                    raise ParameterError(f"{self.noun} entries must be RationalFunction instances")
                self._check_pole_radii(np.abs(entry.poles()))
        self.entries = entries

    def _check_pole_radii(self, radii: np.ndarray) -> None:
        """Reject an entry by the moduli of its poles; any pole is fine here."""

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def _entrywise(self, z, fn) -> np.ndarray:
        if np.ndim(z) == 0:
            return np.array([[fn(e, z) for e in row] for row in self.entries], dtype=complex)
        z = np.asarray(z, dtype=complex)
        out = np.empty((len(z), self.rows, self.cols), dtype=complex)
        # a pole on a point gives inf or nan there; callers check finiteness
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, row in enumerate(self.entries):
                for j, e in enumerate(row):
                    out[:, i, j] = fn(e, z)
        return out

    def eval(self, z) -> np.ndarray:
        """Value at a scalar (rows x cols) or at an array (n x rows x cols)."""
        return self._entrywise(z, lambda e, z: e(z))

    def eval_dz(self, z) -> np.ndarray:
        """Exact entrywise derivative, shaped as :meth:`eval`; never a finite difference."""
        return self._entrywise(z, lambda e, z: e.eval_deriv(z))

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
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in (rows, cols)):
            raise DataError("rows and cols must be positive integers", field="rows")
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
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{cls.noun} file is not valid JSON: {exc}") from exc
        return cls.from_jsonable(obj)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2, sort_keys=True)
            fh.write("\n")
