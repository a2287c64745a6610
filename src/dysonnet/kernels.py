"""One node's kernel and the indicator estimation it feeds.

A node owns a linear kernel (:class:`KernelSpec`): a weight matrix and
the discrete value set of its group indicator.  Given the transported
input, :func:`conditional_group_law` is the per-coordinate law of that
indicator, and :func:`estimate_indicator` realizes it under one of the
four :class:`ActivationRule` estimations, recording a :class:`LayerState`.
These are what the likelihood decomposition and the networks share; the
poset and its plan live in :mod:`dysonnet.poset`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, ShapeError

__all__ = [
    "ActivationRule",
    "KernelSpec",
    "LayerState",
    "conditional_group_law",
    "estimate_indicator",
    "kernel_from_entry",
]


class ActivationRule(Enum):
    """How a realization of the group indicator is estimated from preactivations.

    The four rules realize, in order, ReLU (argmax of the 0/1 indicator
    law, applied as a binary mask), Swish (expectation of the 0/1 indicator
    as a mask), the logistic sigmoid (expectation of the 0/1 indicator,
    passed on directly) and tanh (expectation of the -1/+1 indicator).
    """

    ARGMAX_MASK_01 = "relu"
    EXPECTATION_MASK_01 = "swish"
    PARTIAL_EXPECTATION_01 = "sigmoid"
    PARTIAL_EXPECTATION_PM1 = "tanh"


_FIELDS = {"01": (0.0, 1.0), "pm1": (-1.0, 1.0)}


class KernelSpec:
    """Linear kernel of one node: weight matrix plus indicator value set.

    ``weight`` has one row per input coordinate and one column per group
    indicator coordinate.  ``field`` selects the discrete value set of the
    indicator, ``"01"`` for {0, 1} or ``"pm1"`` for {-1, +1}.
    """

    __slots__ = ("weight", "field")

    def __init__(self, weight, field: str = "01"):
        w = np.asarray(weight, dtype=float)
        if w.ndim != 2:
            raise ShapeError(f"kernel weight must be 2-D, got ndim={w.ndim}")
        if not np.all(np.isfinite(w)):
            raise DomainError("kernel weight contains non-finite entries")
        if field not in _FIELDS:
            raise DomainError(f"unknown field {field!r}, expected '01' or 'pm1'")
        self.weight = w
        self.field = field

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def values(self) -> tuple[float, float]:
        return _FIELDS[self.field]


class LayerState(NamedTuple):
    """Realizations recorded during one layer evaluation.

    ``h_hat`` is the preactivation W^T t, ``h_tilde`` the estimated layer
    output and ``h_prime`` the derivative of the estimation map at ``h_hat``.
    """

    t_in: np.ndarray
    h_hat: np.ndarray
    h_tilde: np.ndarray
    h_prime: np.ndarray


def _sigmoid(x):
    """Logistic function ``1 / (1 + exp(-x))``; exactly 0 and 1 once saturated."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def conditional_group_law(spec: KernelSpec, t_tilde: np.ndarray) -> np.ndarray:
    """Per-coordinate law of the group indicator given the transported input.

    Coordinate ``i`` carries the two-point pmf proportional to
    ``exp(h * (W^T t)_i)`` over the kernel's value set.  ``t_tilde`` is one
    input of shape ``(in_dim,)`` or a stack of inputs as rows, shape
    ``(..., in_dim)``.  Returns an array of shape ``(..., out_dim, 2)`` with
    the last axis ordered like ``spec.values``; it sums to one.

    Only this conditional law and the deterministic transports are ever
    evaluated: the joint coupled law also involves the unknown law of the
    input element and has no computable form.
    """
    t = np.asarray(t_tilde, dtype=float)
    if t.ndim == 0 or t.shape[-1] != spec.in_dim:
        raise ShapeError(
            f"input has shape {t.shape}, kernel expects (..., {spec.in_dim})"
        )
    if not np.all(np.isfinite(t)):
        raise NumericError("non-finite input to conditional_group_law")
    a = t @ spec.weight
    lo, hi = spec.values
    # p(hi) = sigmoid((hi - lo) * a); stable for both value sets.
    p_hi = _sigmoid((hi - lo) * a)
    return np.stack([1.0 - p_hi, p_hi], axis=-1)


def estimate_indicator(rule: ActivationRule, h_hat: np.ndarray):
    """Estimate the indicator realization and the estimation-map derivative.

    Returns ``(h_tilde, h_prime)`` where ``h_tilde`` is the layer output and
    ``h_prime`` its elementwise derivative with respect to ``h_hat``.  Ties
    of the argmax rule at zero resolve to the inactive value.
    """
    h = np.asarray(h_hat, dtype=float)
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite preactivation")
    if rule is ActivationRule.ARGMAX_MASK_01:
        mask = (h > 0).astype(float)
        return mask * h, mask
    if rule is ActivationRule.EXPECTATION_MASK_01:
        s = _sigmoid(h)
        return s * h, s * (1.0 + h * (1.0 - s))
    if rule is ActivationRule.PARTIAL_EXPECTATION_01:
        s = _sigmoid(h)
        return s, s * (1.0 - s)
    if rule is ActivationRule.PARTIAL_EXPECTATION_PM1:
        t = np.tanh(h)
        return t, 1.0 - t * t
    raise DomainError(f"unknown activation rule {rule!r}")


def kernel_from_entry(entry, where: str) -> KernelSpec:
    """Kernel of one layer entry ``{"rows": r, "cols": c, "weights": [...], "field": ...}``.

    ``weights`` is row-major and ``field`` defaults to ``"01"``.  ``rows``
    and ``cols`` must be positive integers (not bools or floats).  ``where``
    names the entry in the error raised for a malformed one.
    """
    try:
        rows, cols = entry["rows"], entry["cols"]
        for name, size in (("rows", rows), ("cols", cols)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
                raise DomainError(f"{name} must be a positive integer, got {size!r}")
        weight = np.asarray(entry["weights"], dtype=float).reshape(rows, cols)
        return KernelSpec(weight, entry.get("field", "01"))
    except (KeyError, TypeError, ValueError, OverflowError, DomainError) as exc:
        raise DomainError(f"malformed {where}: {exc}") from exc
