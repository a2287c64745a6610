"""Exception hierarchy shared across the package.

The split mirrors the failure modes callers are expected to distinguish:
bad identifiers or invalid probability data (:class:`DomainError`),
incompatible array dimensions (:class:`ShapeError`), exceeded enumeration
budgets (:class:`CapacityError`), and numerical failures
(:class:`NumericError` and its convergence/stability refinements).

It also holds what every subcommand shares: the one dense budget,
``MAX_DENSE_ENTRIES``, that the CLI, the MDE solver and the Hessian apply
before they allocate a dense array, and the reader of the JSON documents
they take.  :func:`read_json` returns only a JSON object; any other
document, like a source of another type, is refused with
:class:`DomainError` naming its type, and a document it cannot parse
with one naming the document.  :func:`json_floats` is the one place
where a document value becomes floats: it takes a JSON number or nested
lists of them of one shape, and refuses a bool, string, null or object, a
ragged list and an int too large for a float, naming the field.  Within
a :func:`reading` block, a missing key, a part of the wrong kind or a
refused field becomes one :class:`DomainError` naming the document.  Within
a :func:`solving` block, an eigensolver's failure becomes one
:class:`NumericError` naming the matrix.  The module loads no numpy until
one of those two needs it, so ``import dysonnet`` leaves the CLI free to
set numpy's BLAS threads before numpy loads.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


class DysonnetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DysonnetError):
    """An argument is outside its documented domain (unknown id, invalid pmf, ...)."""


class ShapeError(DysonnetError):
    """Array dimensions do not compose."""


class CapacityError(DysonnetError):
    """An exact enumeration would exceed the configured state budget."""


class NumericError(DysonnetError):
    """A numerical routine failed (non-finite input, eigensolver failure, ...)."""


class ConvergenceError(NumericError):
    """An iterative solver did not reach its tolerance.

    Attributes
    ----------
    residual : float
        Last residual observed before giving up.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StabilityError(NumericError):
    """An iterate left the admissible region (e.g. lost positive imaginary part)."""


MAX_DENSE_ENTRIES = 25_000_000  # floats held at once: a P x P matrix of P = 5000 alone, 200 MB


def check_dense_budget(entries: int, what: str) -> None:
    """Refuse ``what``, which would hold ``entries`` floats, beyond ``MAX_DENSE_ENTRIES``."""
    if entries > MAX_DENSE_ENTRIES:
        raise CapacityError(
            f"{what} needs {entries} entries ({8 * entries} bytes),"
            f" over the budget of {MAX_DENSE_ENTRIES} entries"
        )


def read_json(source) -> dict:
    """Parse a JSON object given as a path, an open file or an already-parsed dict.

    A path is a ``str`` or an ``os.PathLike``.  Anything else, an int file
    descriptor included, is refused with :class:`DomainError` before
    anything is opened, and so is a document that is not a JSON object.
    Bytes that are not UTF-8, malformed JSON and nesting deeper than the
    interpreter's recursion limit are refused with :class:`DomainError`
    naming the document.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as handle:
                source = json.load(handle)
        elif hasattr(source, "read"):
            source = json.load(source)
    except (RecursionError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        name = getattr(source, "name", "from an open file") if hasattr(source, "read") else source
        raise DomainError(f"cannot read the JSON document {name}: {exc}") from exc
    # what is left is the document, or a source of another type
    if not isinstance(source, dict):
        raise DomainError("a JSON document must be an object, given as a dict, a path or"
                          f" an open file; got {type(source).__name__}")
    return source


@contextmanager
def reading(what: str):
    """Refuse a document part that is missing, of the wrong kind or unreadable.

    Inside the block a ``KeyError``, ``TypeError`` or ``ValueError`` (a
    missing key, a value that cannot be indexed, iterated, unpacked or
    reshaped), an ``OSError`` (a file the document names) and a
    :class:`DomainError` (a field that :func:`json_floats` or a nested
    reader refused) become a :class:`DomainError` reading ``what: cause``.
    """
    try:
        yield
    except (KeyError, OSError, TypeError, ValueError, DomainError) as exc:
        raise DomainError(f"{what}: {exc}") from exc


class solving:
    """Refuse an eigendecomposition of ``what`` that fails inside the block.

    ``numpy.linalg.LinAlgError`` is a ``ValueError``, which the CLI reads
    as a bad input; here it becomes a :class:`NumericError` reading
    ``eigendecomposition of what failed: cause``.  A slotted class, not a
    generator: the block wraps each slice of the landscape's frame-core
    eigensolves, and holds only its name while they run.
    """

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, trace):
        from numpy.linalg import LinAlgError

        if isinstance(exc, LinAlgError):
            raise NumericError(f"eigendecomposition of {self.what} failed: {exc}") from exc


def json_floats(value, what: str) -> np.ndarray:
    """The JSON number, or nested lists of numbers of one shape, ``value`` as floats.

    Anything else is refused with :class:`DomainError` naming ``what``: a
    bool, string, null or object, lists of unequal lengths or depths, and
    an int too large for a float.  NaN and infinities pass; the checks of
    the object built from the array refuse them.
    """
    import numpy as np

    level = [value]
    while set(map(type, level)) == {list}:
        level = [x for row in level for x in row]
    head = f"{what} entries must be numbers" if type(value) is list else f"{what} must be a number"
    # json reads a number as an int or a float; a list left here sits beside a number
    odd = set(map(type, level)) - {int, float}
    if odd:
        raise DomainError(f"{head}, got {next(v for v in level if type(v) in odd)!r}")
    try:
        return np.array(value, dtype=float)
    except ValueError:  # lists of unequal lengths, or deeper than numpy's 64 dimensions
        raise DomainError(f"{what} is ragged or nested too deep for an array") from None
    except OverflowError:
        raise DomainError(f"{head}, got an int too large for a float") from None
