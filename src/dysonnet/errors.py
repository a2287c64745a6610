"""Exception hierarchy shared across the package.

The split mirrors the failure modes callers are expected to distinguish:
bad identifiers or invalid probability data (:class:`DomainError`),
incompatible array dimensions (:class:`ShapeError`), exceeded enumeration
budgets (:class:`CapacityError`), and numerical failures
(:class:`NumericError` and its convergence/stability refinements).

It also holds what every subcommand shares: the one dense budget,
``MAX_DENSE_ENTRIES``, that the CLI, the MDE solver and the Hessian apply
before they allocate a dense array, and the JSON document reader.
"""

import json


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


MAX_DENSE_ENTRIES = 25_000_000  # largest dense float array: a P x P Hessian of P <= 5000, 200 MB


def check_dense_budget(entries: int, what: str) -> None:
    """Refuse ``what``, which would hold ``entries`` floats, beyond ``MAX_DENSE_ENTRIES``."""
    if entries > MAX_DENSE_ENTRIES:
        raise CapacityError(
            f"{what} needs {entries} entries ({8 * entries} bytes),"
            f" over the budget of {MAX_DENSE_ENTRIES} entries"
        )


def read_json(source):
    """Parse a JSON document given as a path, an open file or an already-parsed dict."""
    if isinstance(source, dict):
        return source
    if hasattr(source, "read"):
        return json.load(source)
    with open(source, "r", encoding="utf-8") as handle:
        return json.load(handle)
