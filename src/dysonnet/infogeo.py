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
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, ShapeError
from .kernels import ActivationRule, KernelSpec, conditional_group_law, estimate_indicator

__all__ = [
    "DecompositionReport",
    "LayeredDiscreteModel",
    "contraction_check",
    "decompose_likelihood",
    "kl_divergence",
    "logsumexp",
    "posterior_assignments",
]

# Settings that no caller varies.
KERNEL_TOL = 1e-12  # contraction_check's tolerance on pmf sums and kernel row sums
TRANSPORT_RULE = ActivationRule.PARTIAL_EXPECTATION_01  # estimation passing each scale's input on
MAX_CONDITIONAL_ENTRIES = 10 ** 6  # conditionals decompose_likelihood holds: n_x * sum_s |S_s|


def logsumexp(a) -> float:
    """``log(sum(exp(a)))`` over all entries, shifted by the maximum.

    Returns ``-inf`` when every entry is ``-inf``.
    """
    a = np.asarray(a, dtype=float)
    peak = a.max()
    if peak == -np.inf:
        return -np.inf
    return float(peak + np.log(np.sum(np.exp(a - peak))))


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
        values = spec.values
        return np.asarray(list(itertools.product(values, repeat=spec.out_dim)))

    def transports(self, x) -> list[np.ndarray]:
        """Deterministic inputs seen by each scale for one observed x or rows of them."""
        t = np.asarray(x, dtype=float)
        inputs = []
        for spec in self.scales:
            inputs.append(t)
            t, _ = estimate_indicator(TRANSPORT_RULE, t @ spec.weight)
        return inputs

    def conditionals(self, x) -> list[np.ndarray]:
        """Per-scale pmfs over the enumerated states given the observed x.

        ``x`` is one point (each pmf is 1-D) or a stack of points as rows
        (each pmf has one row per point).  The scale's states are ordered
        like :meth:`scale_states`, whose last coordinate varies fastest, so
        the pmf is the outer product of the per-coordinate laws taken in
        coordinate order.
        """
        pmfs = []
        for spec, t in zip(self.scales, self.transports(x)):
            law = conditional_group_law(spec, t)
            pmf = np.ones(law.shape[:-2] + (1,))
            for i in range(spec.out_dim):
                pmf = (pmf[..., :, None] * law[..., i, None, :]).reshape(law.shape[:-2] + (-1,))
            pmfs.append(pmf)
        return pmfs


class DecompositionReport(NamedTuple):
    """Exact split of the log likelihood into bound plus per-scale KL terms."""

    complete_ll: float
    expected_ll: float
    kl_terms: tuple[float, ...]
    identity_defect: float


def _n_states(spec: KernelSpec) -> int:
    """Number of indicator realizations ``|S_s|`` of one scale."""
    return len(spec.values) ** spec.out_dim


def _observed_conditionals(model: LayeredDiscreteModel, data):
    """Checked weights of the points with positive data mass, and their conditionals."""
    data = _check_pmf(data, 1e-9, "data")
    if data.shape[0] != model.x_support.shape[0]:
        raise ShapeError("data pmf must match the support size")
    observed = data > 0
    return data[observed], model.conditionals(model.x_support[observed])


def _validate_nu(model: LayeredDiscreteModel, nu) -> list[np.ndarray]:
    if len(nu) != model.n_scales:
        raise DomainError(f"need one assigned pmf per scale, got {len(nu)}")
    nus = []
    for s, pmf in enumerate(nu):
        pmf = _check_pmf(pmf, 1e-9, f"nu[{s}]")
        expected = _n_states(model.scales[s])
        if pmf.shape[0] != expected:
            raise ShapeError(f"nu[{s}] has {pmf.shape[0]} entries, scale has {expected} states")
        nus.append(pmf)
    return nus


def decompose_likelihood(model: LayeredDiscreteModel, data, nu) -> DecompositionReport:
    """Exact decomposition of the log likelihood, one scale at a time.

    ``data`` is the observed-input pmf over the model's support and ``nu``
    assigns one pmf per scale.  Given x the scales are conditionally
    independent, so the joint over hidden states factors into the
    per-scale conditionals ``cond_s`` and never needs to be formed:

    - complete term: ``sum_x w (log w + sum_s log sum_h cond_s(h))``, the
      expected log of the marginal likelihood;
    - expected term: ``sum_x w (log w + sum_s sum_h nu_s (log cond_s - log nu_s))``,
      the average of ``ln p(x, h) - ln q(h)`` under the factored
      assignment ``q``;
    - per-scale terms: ``sum_x w KL(nu_s || cond_s(x))``.

    The three quantities are computed independently; their identity
    defect is reported.  The conditionals of the support points are held
    at once: ``n_x * sum_s |S_s|`` entries, ``|S_s| = 2^width_s`` being
    the number of states of scale ``s``.  ``MAX_CONDITIONAL_ENTRIES`` caps
    that count, and a larger model raises :class:`CapacityError` before
    anything is allocated.
    """
    held = model.x_support.shape[0] * sum(_n_states(spec) for spec in model.scales)
    if held > MAX_CONDITIONAL_ENTRIES:
        raise CapacityError(
            f"per-scale conditionals hold {held} entries (n_x * sum_s |S_s|), "
            f"budget {MAX_CONDITIONAL_ENTRIES}"
        )
    w, conds = _observed_conditionals(model, data)
    nus = _validate_nu(model, nu)
    complete_x = np.log(w)
    expected_x = np.log(w)
    kl_terms = np.zeros(model.n_scales)
    for s, (cond, v) in enumerate(zip(conds, nus)):
        active = v > 0
        bad = np.flatnonzero(active & (cond == 0).any(axis=0))
        if bad.size:
            state = model.scale_states(s)[bad[0]]
            raise DomainError(
                f"assigned pmf at scale {s} weights state {state} with zero conditional probability"
            )
        kl_terms[s] = w @ kl_divergence(v, cond)
        complete_x += np.log(cond.sum(axis=1))
        expected_x += (np.log(cond[:, active]) - np.log(v[active])) @ v[active]
    complete = float(w @ complete_x)
    expected = float(w @ expected_x)
    defect = abs(complete - (expected + kl_terms.sum()))
    return DecompositionReport(complete, expected, tuple(kl_terms), float(defect))


def posterior_assignments(model: LayeredDiscreteModel, data) -> list[np.ndarray]:
    """Per-scale assignments maximizing the expected term.

    For a one-hot data pmf these are the exact posteriors given the
    observed input; in general they are the normalized geometric means of
    the conditionals under the data weights.
    """
    w, conds = _observed_conditionals(model, data)
    out = []
    for cond in conds:
        with np.errstate(divide="ignore"):
            log_mix = (w[:, None] * np.log(cond)).sum(axis=0)
        out.append(np.exp(log_mix - logsumexp(log_mix)))
    return out
