"""Rational functions of one complex variable with exact derivatives.

Coefficients are stored in ascending order (``c[0] + c[1] z + ...``) as
complex numpy arrays. This is the common representation for frame entries
and Toeplitz symbols, so evaluation and differentiation live here, as does
:class:`RationalMatrix`, the matrix of such functions that frames and
symbols both are. It stacks its entries' coefficients once, zero-padded
to one degree, so an evaluation is one in-place Horner pass per stack
over every entry at once; a single function is the 1x1 case of the same
kernel. Values are laid out ``(rows, cols, *shape(z))``, the points on
the last axis, and a scalar goes through the same numpy arithmetic as a
grid: it is evaluated as a one-element grid of flattened points. The
pole screen finds every entry's poles by one batched ``eigvals`` of the
companion matrices of each denominator degree. Also here is
:func:`gram_schmidt`, the factorization ``F = QR`` at every point of a
grid that the frame defect, the Gram extremes and the symbol margin all
take their numbers from, for every width and for one point alike: it
sums over rows in one fixed order, row after row, so a point's numbers
are its column of any grid, bit for bit.
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


def poly_mul(a, b) -> np.ndarray:
    return as_coeffs(np.convolve(as_coeffs(a), as_coeffs(b)))


def poly_from_roots(roots, leading=1.0) -> np.ndarray:
    out = np.array([complex(leading)])
    for r in roots:
        out = np.convolve(out, np.array([-r, 1.0], dtype=complex))
    return out


_UNLOCATABLE = "roots cannot be located: the companion matrix overflows"


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
        raise DataError(_UNLOCATABLE) from None


def _stack(polys) -> np.ndarray:
    """Ascending coefficients as the columns of one ``(degree + 1, len(polys))``
    array, padded with zeros above each column's own degree."""
    out = np.zeros((max(map(len, polys)), len(polys)), dtype=complex)
    for k, c in enumerate(polys):
        out[: len(c), k] = c
    return out


def _with_derivatives(num: np.ndarray, den: np.ndarray) -> tuple:
    """The stacks ``(num, den, num', den')``: a derivative's stack is the
    rows of degree 1 and up times their degrees."""
    return num, den, *(s[1:] * np.arange(1, len(s))[:, None] for s in (num, den))


def _horner(stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Every column of ``stack`` at every point, laid out ``(columns, points)``.

    One pass of Horner steps ``acc = acc * z + c`` over all columns at
    once, in place, from zeros. At a finite point a padded zero
    coefficient leaves ``acc`` at its zero start, so each column's values
    are those of Horner's rule on its own coefficients alone, bit for bit.
    """
    acc = np.zeros((stack.shape[1], points.size), dtype=complex)
    for c in stack[::-1]:
        acc *= points
        acc += c[:, None]
    return acc


def _quotients(stacks, z) -> list:
    """``n/d`` of the stacks ``(num, den)`` at the flattened points of ``z``;
    given ``(num, den, num', den')``, also ``(n'd - nd')/d^2``, in that
    order of operations. Each is laid out ``(columns, points)``."""
    points = np.asarray(z, dtype=complex).reshape(-1)
    # numpy multiplies a lone element in place by other code than an array,
    # with other bits: a lone point is evaluated twice over
    lone = points.size == 1
    if lone:
        points = np.repeat(points, 2)
    # a pole on a point, or a value beyond the float range, gives inf or nan there; callers check finiteness
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n, d = _horner(stacks[0], points), _horner(stacks[1], points)
        if len(stacks) == 2:
            n /= d
            out = [n]
        else:
            out = [n / d, _horner(stacks[2], points)]
            out[1] *= d
            n *= _horner(stacks[3], points)
            out[1] -= n
            out[1] /= d * d
    return [v[:, :1] for v in out] if lone else out


def _eigvals_moduli(companions: np.ndarray) -> list:
    """``|eigenvalues|`` of each stacked matrix, or None for one LAPACK
    refuses (not finite, or no convergence): a refused batch is split."""
    try:
        return list(np.abs(np.linalg.eigvals(companions)))
    except np.linalg.LinAlgError:
        if len(companions) == 1:
            return [None]
        return [m for a in companions for m in _eigvals_moduli(a[None])]


def _root_moduli(stack: np.ndarray) -> list:
    """``|poly_roots(c)|`` of each column ``c`` of a :func:`_stack`, or None
    where :func:`poly_roots` raises; one batched ``eigvals`` per degree.

    As in ``np.roots``, the zero roots of the low zero coefficients are
    split off and the rest are the eigenvalues of the companion matrix,
    built in its order of operations, so the moduli are the same."""
    nonzero = stack != 0
    low = nonzero.argmax(axis=0)
    degree = len(stack) - 1 - nonzero[::-1].argmax(axis=0) - low
    moduli = [np.zeros(0)] * stack.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny leading coefficient overflows the companion row
        for m in sorted(set(degree.tolist()) - {0}):  # not np.unique: its sort pages in 0.8 MB of code
            cols = np.flatnonzero(degree == m)
            desc = stack[low[cols, None] + np.arange(m, -1, -1), cols[:, None]]
            companions = np.zeros((len(cols), m, m), dtype=complex)
            companions[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            companions[:, 0] = -desc[:, 1:] / desc[:, :1]
            for k, found in zip(cols.tolist(), _eigvals_moduli(companions)):
                moduli[k] = found
    return [r if r is None else np.append(r, np.zeros(k)) for r, k in zip(moduli, low.tolist())]


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
        return self._at(z, False)[0]

    def eval_deriv(self, z):
        """Exact derivative value, (n'd - nd')/d^2."""
        return self.jet(z)[1]

    def jet(self, z):
        """Value ``n/d`` and derivative ``(n'd - nd')/d^2`` from one
        evaluation of each of ``n``, ``d``, ``n'`` and ``d'``."""
        value, deriv = self._at(z, True)
        return value, deriv

    def _at(self, z, jet: bool) -> list:
        """:func:`_quotients` of the 1x1 stacks, shaped as ``z``: the
        kernel of :class:`RationalMatrix` on one entry."""
        stacks = (self.num[:, None], self.den[:, None])
        values = _quotients(_with_derivatives(*stacks) if jet else stacks, z)
        return [v.reshape(np.shape(z))[()] for v in values]

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

    The constructor stacks the entries' coefficients once, row-major, as
    the columns of four zero-padded arrays of shape ``(degree + 1,
    rows * cols)``: numerators, denominators and their derivatives. An
    evaluation is one Horner pass per stack over all entries at once.
    Subclasses name themselves in messages through ``noun``, screen each
    entry's pole radii in ``_check_pole_radii`` (a refusal is re-raised
    naming the first refused entry in row-major order, ``entries[i][j]``),
    and list in ``flags`` the boolean constructor arguments their JSON
    form carries.
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
            if not all(isinstance(entry, RationalFunction) for entry in row):
                raise ParameterError(f"{self.noun} entries must be RationalFunction instances")
        flat = [e for row in entries for e in row]
        self._stacks = _with_derivatives(_stack([e.num for e in flat]), _stack([e.den for e in flat]))
        for k, radii in enumerate(_root_moduli(self._stacks[1])):
            try:
                if radii is None:
                    raise DataError(_UNLOCATABLE)
                self._check_pole_radii(radii)
            except ValidationError as exc:  # unlocatable poles, or poles the subclass refuses
                where = f"entries[{k // cols}][{k % cols}]"
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

    def _at(self, z, jet: bool) -> list:
        """:func:`_quotients` laid out ``(rows, cols, *shape(z))``: the
        points on the last axis, so a scalar gives ``rows x cols``. A
        scalar is a one-element grid of flattened points and runs the
        grid's array loops: its values are the grid's, bit for bit."""
        shape = (self.rows, self.cols, *np.shape(z))
        return [v.reshape(shape) for v in _quotients(self._stacks if jet else self._stacks[:2], z)]

    def eval(self, z) -> np.ndarray:
        """Values, laid out ``(rows, cols, *shape(z))``."""
        return self._at(z, False)[0]

    def eval_jet(self, z):
        """Values and exact derivatives (never a finite difference), each
        laid out as :meth:`eval`, in the order of operations of
        :meth:`RationalFunction.jet`."""
        f, fp = self._at(z, True)
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
