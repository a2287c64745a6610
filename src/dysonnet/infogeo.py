"""KL divergence, its contraction and the exact likelihood decomposition.

The module provides the data-processing contraction of KL divergence
through stochastic kernels (``dysonnet contract``) and the exact
decomposition of the log likelihood of enumerable layered discrete
models into the expected-data term plus one KL divergence per scale
(``dysonnet decompose``), with the posterior assignments that make the
decomposition tight.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError, check_dense_budget
from .kernels import ActivationRule, conditional_group_law, estimate_indicator

__all__ = [
    "DecompositionReport",
    "LayeredDiscreteModel",
    "contraction_check",
    "decompose_likelihood",
    "kl_divergence",
    "posterior_assignments",
]

# Settings that no caller varies.
KERNEL_TOL = 1e-12  # contraction_check's tolerance on pmf sums and kernel row sums
TRANSPORT_RULE = ActivationRule.PARTIAL_EXPECTATION_01  # estimation passing each scale's input on


# ---------------------------------------------------------------------------
# divergence contraction
# ---------------------------------------------------------------------------


def kl_divergence(p, q):
    """KL divergence in nats with the 0 log 0 = 0 convention.

    ``q`` is one pmf shaped like ``p`` (the result is a float) or a stack
    of such pmfs as rows (the result is one divergence per row).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape[q.ndim - p.ndim:] != p.shape:
        raise ShapeError("pmfs must have matching shapes")
    active = p > 0
    # a zero q where p > 0 gives log 0 = -inf and so an infinite divergence
    with np.errstate(divide="ignore"):
        value = np.sum(p[active] * (np.log(p[active]) - np.log(q[..., active])), axis=-1)
    # KL is nonnegative; values in (-1e-12, 0) are pure rounding error.
    value = np.where((-1e-12 < value) & (value < 0.0), 0.0, value)
    return float(value) if value.ndim == 0 else value


def _check_pmf(p, tol, what):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"{what} is not a valid pmf")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{what} has non-finite entries")
    if np.any(p < 0) or abs(p.sum() - 1.0) > tol:
        raise DomainError(f"{what} is not a valid pmf")
    return p


def contraction_check(p, q, kernels) -> np.ndarray:
    """KL divergence along a chain of row-stochastic kernels.

    Returns the stagewise divergences ``[D_0, D_1, ...]`` between the two
    pushforwards; by the data-processing inequality the sequence never
    increases when the kernels are exactly stochastic.  The pmf sums and
    the kernel row sums must be 1 within ``KERNEL_TOL``.  A q that is zero
    where p is positive is refused with :class:`DomainError` naming the
    first such index: D_0 would be infinite, and so might every later stage.
    """
    p = _check_pmf(p, KERNEL_TOL, "p")
    q = _check_pmf(q, KERNEL_TOL, "q")
    if p.shape != q.shape:
        raise ShapeError("p and q must have matching shapes")
    stranded = np.flatnonzero((q == 0.0) & (p > 0.0))
    if stranded.size:
        raise DomainError(f"q is 0 at index {stranded[0]}, where p is positive:"
                          " KL(p || q) is infinite")
    stages = [kl_divergence(p, q)]
    for i, k in enumerate(kernels):
        k = np.asarray(k, dtype=float)
        if k.ndim != 2 or k.shape[0] != p.shape[0]:
            raise ShapeError(f"kernel {i} has shape {k.shape}, expected ({p.shape[0]}, ...)")
        if not (np.all(k >= 0) and np.abs(k.sum(axis=1) - 1.0).max() <= KERNEL_TOL):
            raise DomainError(f"kernel {i} is not row-stochastic")
        p = k.T @ p
        q = k.T @ q
        stages.append(kl_divergence(p, q))
    return np.asarray(stages)


# ---------------------------------------------------------------------------
# layered discrete models and the likelihood decomposition
# ---------------------------------------------------------------------------


class LayeredDiscreteModel:
    """Chain of discrete-indicator scales over a finite input support.

    Scale ``s`` receives the deterministic transport of the input (the
    previous scale's indicator estimated under ``TRANSPORT_RULE``) and
    assigns its indicator the per-coordinate law of the kernel, making the
    scales conditionally independent given the input.  All state spaces
    are enumerable.
    """

    __slots__ = ("x_support", "scales")

    def __init__(self, x_support, scales):
        support = np.asarray(x_support, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        if support.ndim != 2:
            raise ShapeError(f"x_support must hold one point per row, got ndim={support.ndim}")
        if not np.all(np.isfinite(support)):
            raise DomainError("x_support contains non-finite entries")
        if not scales:
            raise DomainError("scales must hold at least one kernel")
        scales = tuple(scales)
        dim = support.shape[1]
        for i, spec in enumerate(scales):
            if spec.in_dim != dim:
                raise ShapeError(
                    f"scale {i} kernel expects {spec.in_dim} inputs, previous width is {dim}"
                )
            dim = spec.out_dim
        self.x_support = support
        self.scales = scales

    @property
    def n_scales(self) -> int:
        return len(self.scales)

    def scale_states(self, s: int) -> np.ndarray:
        """All indicator realizations of scale ``s`` as rows."""
        spec = self.scales[s]
        return np.asarray(list(itertools.product(spec.values, repeat=spec.out_dim)))

    def transports(self, x) -> list[np.ndarray]:
        """Deterministic inputs seen by each scale for one observed x or rows of them."""
        t = np.asarray(x, dtype=float)
        inputs = []
        for spec in self.scales:
            inputs.append(t)
            t, _ = estimate_indicator(TRANSPORT_RULE, t @ spec.weight)
        return inputs


class DecompositionReport(NamedTuple):
    """Exact split of the log likelihood into bound plus per-scale KL terms."""

    complete_ll: float
    expected_ll: float
    kl_terms: tuple[float, ...]
    identity_defect: float


def _observed_laws(model: LayeredDiscreteModel, data):
    """Checked weights of the points with positive data mass, and each scale's laws there.

    Scale ``s``'s laws have shape ``(n_obs, width_s, 2)``, ordered like
    :func:`~dysonnet.kernels.conditional_group_law`.  What the decomposition
    holds, the transports and the laws of the observed points and one
    scale's log-law temporary, is checked against the dense budget before
    any of it is formed.
    """
    data = _check_pmf(data, 1e-9, "data")
    if data.shape[0] != model.x_support.shape[0]:
        raise ShapeError("data pmf must match the support size")
    observed = data > 0
    n_obs = np.count_nonzero(observed)
    held = n_obs * (sum(spec.in_dim + 2 * spec.out_dim for spec in model.scales)
                    + 2 * max(spec.out_dim for spec in model.scales))
    check_dense_budget(held, f"the transports and laws of {n_obs} observed points"
                             " (n_x * (sum_s (in_s + 2 width_s) + 2 max_s width_s) entries)")
    return data[observed], [conditional_group_law(spec, t) for spec, t
                            in zip(model.scales, model.transports(model.x_support[observed]))]


def _validate_nu(model: LayeredDiscreteModel, nu) -> list[np.ndarray]:
    if len(nu) != model.n_scales:
        raise DomainError(f"need one assigned pmf per scale, got {len(nu)}")
    nus = []
    for s, pmf in enumerate(nu):
        pmf = _check_pmf(pmf, 1e-9, f"nu[{s}]")
        expected = 2 ** model.scales[s].out_dim
        if pmf.shape[0] != expected:
            raise ShapeError(f"nu[{s}] has {pmf.shape[0]} entries, scale has {expected} states")
        nus.append(pmf)
    return nus


def decompose_likelihood(model: LayeredDiscreteModel, data, nu) -> DecompositionReport:
    """Exact decomposition of the log likelihood, one coordinate law at a time.

    ``data`` is the observed-input pmf over the model's support and ``nu``
    assigns one pmf per scale.  Given x the scales are conditionally
    independent and so are a scale's coordinates, each with the two-point
    law ``law_i(. | x)`` of :func:`~dysonnet.kernels.conditional_group_law`;
    ``log cond_s(h | x) = sum_i log law_i(h_i | x)``.  So the expectations
    under ``nu_s`` need only its marginal ``mu_i`` on each coordinate, and
    with ``cross_x = sum_i sum_v mu_i(v) log law_i(v | x)``:

    - complete term: ``sum_x w (log w + sum_s sum_i log sum_v law_i(v | x))``,
      the expected log of the marginal likelihood;
    - expected term: ``sum_x w (log w + sum_s (cross_x - sum_h nu_s log nu_s))``,
      the average of ``ln p(x, h) - ln q(h)`` under the factored
      assignment ``q``;
    - per-scale terms: ``sum_x w KL(nu_s || cond_s(x))``, where
      ``KL = sum_h nu_s log nu_s - cross_x``.

    The three quantities are computed independently; their identity
    defect is reported.  No scale's ``2^width`` states are enumerated per
    point: what is held is ``n_x * (sum_s (in_s + 2 width_s) + 2 max_s
    width_s)`` entries, checked against the dense budget before it is
    formed.  A state that ``nu_s`` weights and an observed point gives
    probability 0 is refused with :class:`DomainError` naming the first
    such state in :meth:`LayeredDiscreteModel.scale_states` order.
    """
    w, laws = _observed_laws(model, data)
    nus = _validate_nu(model, nu)
    complete_x = np.log(w)
    expected_x = np.log(w)
    kl_terms = np.zeros(model.n_scales)
    for s, (law, v) in enumerate(zip(laws, nus)):
        complete_x += np.log(law.sum(axis=2)).sum(axis=1)
        # nu's marginal on each coordinate, ordered like the laws' (width, 2)
        cube = v.reshape((2,) * law.shape[1])
        marginal = np.ravel([cube.sum(axis=tuple(j for j in range(cube.ndim) if j != i))
                             for i in range(cube.ndim)])
        active = marginal > 0
        log_law = law.reshape(len(w), -1)[:, active]
        if not log_law.all():
            # the first weighted state with a coordinate's law 0 at some point
            states = model.scale_states(s)
            zero = (law == 0).any(axis=0)
            hit = np.where(states == model.scales[s].values[1], zero[:, 1], zero[:, 0]).any(axis=1)
            raise DomainError(f"assigned pmf at scale {s} weights state {states[hit & (v > 0)][0]}"
                              " with zero conditional probability")
        cross = np.log(log_law, out=log_law) @ marginal[active]
        neg_entropy = v[v > 0] @ np.log(v[v > 0])
        kl_terms[s] = w @ (neg_entropy - cross)
        expected_x += cross - neg_entropy
    complete = float(w @ complete_x)
    expected = float(w @ expected_x)
    defect = abs(complete - (expected + kl_terms.sum()))
    return DecompositionReport(complete, expected, tuple(kl_terms), float(defect))


def posterior_assignments(model: LayeredDiscreteModel, data) -> list[np.ndarray]:
    """Per-scale assignments maximizing the expected term.

    For a one-hot data pmf these are the exact posteriors given the
    observed input; in general they are the normalized geometric means of
    the conditionals under the data weights.  A conditional is the product
    of its coordinates' laws, so each is the product, in
    :meth:`LayeredDiscreteModel.scale_states` order, of the per-coordinate
    normalizations of ``sum_x w log law_i(. | x)``.
    """
    w, laws = _observed_laws(model, data)
    out = []
    for law in laws:
        with np.errstate(divide="ignore"):
            log_mix = (w[:, None, None] * np.log(law)).sum(axis=0)
        coords = np.exp(log_mix - log_mix.max(axis=1, keepdims=True))
        out.append(reduce(np.multiply.outer, coords / coords.sum(axis=1, keepdims=True)).ravel())
    return out
