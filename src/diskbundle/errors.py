"""Exception hierarchy shared across the toolkit.

Two families matter for callers: ``ValidationError`` means the inputs were
bad (the CLI maps it to exit code 2), ``NumericalError`` means a computation
could not be completed to the requested accuracy (exit code 3).
:func:`check_count` is the one test of an integer argument,
:func:`read_json` the one reader of a JSON input file, and :class:`Frozen`
the base of the package's immutable value classes.
"""

import json
import numbers


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """Invalid parameters, malformed data, or a violated precondition."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ParameterError(ValidationError):
    """An argument is outside its documented range."""


class DomainError(ValidationError):
    """A point or stencil leaves the region the operation covers."""


class DataError(ValidationError):
    """Inconsistent or malformed payload data."""


class CapacityError(ValidationError):
    """A finite sequence is too short for the requested operation."""

    def __init__(self, message, required_length=None, field=None):
        super().__init__(message, field)
        self.required_length = required_length


class SymbolError(ValidationError):
    """A symbol violates its declared analyticity class."""


class BoundaryZeroError(ValidationError):
    """A zero sits on the unit circle, so no inner-outer split exists."""


class NumericalError(ToolkitError):
    """A computation ran but could not meet its accuracy contract."""


class ConditioningError(NumericalError):
    """A Gram or normal matrix is too ill-conditioned to invert reliably."""


class AccuracyError(NumericalError):
    """A result cannot be certified to its stated tolerance."""


def check_count(value, minimum: int, message: str) -> None:
    """Raise ``ParameterError(message)`` unless ``value`` is an integer, Python
    or numpy but not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParameterError(message)


def read_json(path, what: str):
    """The JSON document in the file at ``path``; text that is not JSON is a
    :class:`DataError` saying the ``what`` file is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer of more digits than Python converts
        raise DataError(f"{what} file is not valid JSON: {exc}") from exc


class Frozen:
    """Base of an immutable value class, in place of a frozen dataclass.

    Its ``__slots__`` are set once, by ``_set`` in ``__init__``; assigning or
    deleting one later raises :class:`AttributeError`. ``_set`` stores each
    array (a value with ``setflags``) as a read-only view of the caller's, or
    as it is if already read-only. ``_fields`` names the constructor's
    arguments, which make the repr and rebuild copies and pickles. Equality
    and hash are by identity unless a subclass defines its own.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            if hasattr(value, "setflags") and value.flags.writeable:
                value = value.view()
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
