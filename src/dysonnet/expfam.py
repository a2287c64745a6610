"""Finite-support exponential families and their Bregman divergences.

A finite-support family supplies the log-partition, its gradient (the
mean coordinates) and a numerically evaluated Legendre dual.  On top of
these the module provides the neuron's mean coordinates, checked against
a finite difference, and the dual Bregman divergences of convex
potentials.  The KL contraction and the likelihood decomposition live in
:mod:`dysonnet.infogeo`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .infogeo import logsumexp

__all__ = [
    "ConvexFunction",
    "ExpFamilyModel",
    "NeuronCoords",
    "bernoulli_entropy",
    "bregman_divergence",
    "dual_of",
    "log_partition_of",
    "neuron_coordinates",
    "quadratic_potential",
]

# Settings that no caller varies.
DUAL_TOL = 1e-10  # gradient residual, relative to max(1, |eta|), at which mean_to_natural stops
DUAL_MAX_ITER = 200  # Newton steps mean_to_natural takes before giving up
FD_STEP = 1e-5  # central-difference step of neuron_coordinates


def _affine_directions(points) -> np.ndarray:
    """Orthonormal rows spanning the directions of the points' affine hull."""
    if len(points) < 2:
        return np.zeros((0, points.shape[1]))
    _, sing, vt = np.linalg.svd(points - points[0], full_matrices=False)
    return vt[sing > sing.max() * max(points.shape) * np.finfo(float).eps]


class ExpFamilyModel:
    """Exponential family over a finite support.

    The density against the counting measure on the support is
    proportional to ``exp(<f(theta; h), g(x)>)`` where ``g`` is the
    sufficient statistic and ``f`` the composition function mapping
    parameters and a conditioning context to the natural parameter
    vector.  The log-partition, its gradient and the Legendre dual are
    evaluated numerically by exact summation over the support.
    """

    def __init__(self, support, suff_stat: Callable, composition: Callable = None):
        support = np.asarray(support, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        self.support = support
        self._stats = np.asarray([np.atleast_1d(np.asarray(suff_stat(x), dtype=float))
                                  for x in support])
        self.composition = composition if composition is not None else (lambda theta, h: theta)

    @property
    def dim(self) -> int:
        return self._stats.shape[1]

    def _natural(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (self.dim,):
            raise ShapeError(f"natural parameter has shape {t.shape}, expected ({self.dim},)")
        return t

    def log_partition(self, t) -> float:
        t = self._natural(t)
        value = logsumexp(self._stats @ t)
        if not np.isfinite(value):
            raise NumericError("divergent normalizer")
        return value

    def probabilities(self, t) -> np.ndarray:
        t = self._natural(t)
        logits = self._stats @ t
        logits -= logits.max()
        p = np.exp(logits)
        return p / p.sum()

    def mean(self, t) -> np.ndarray:
        """Gradient of the log-partition: the expected sufficient statistic."""
        return self.probabilities(t) @ self._stats

    def covariance(self, t) -> np.ndarray:
        p = self.probabilities(t)
        centered = self._stats - p @ self._stats
        return (centered * p[:, None]).T @ centered

    def mean_to_natural(self, eta) -> np.ndarray:
        """Solve grad log_partition(t) = eta by safeguarded Newton ascent.

        Steps until the gradient residual is within ``DUAL_TOL`` of
        ``max(1, |eta|)`` and stops falling, at most ``DUAL_MAX_ITER`` times.
        Raises :class:`DomainError` when ``eta`` is not strictly inside the
        convex hull of the sufficient statistics: outside their bounding
        box, or when every support point lies within that tolerance behind
        a hyperplane through ``eta`` whose normal is the solution's part
        orthogonal to the points that pull on the mean,
        ``p_x |g(x) - eta|`` above the tolerance (the solution runs off
        along that normal on the boundary; none exists strictly inside).
        """
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if eta.shape != (self.dim,):
            raise ShapeError(f"mean coordinate has shape {eta.shape}, expected ({self.dim},)")
        lo = self._stats.min(axis=0)
        hi = self._stats.max(axis=0)
        if np.any(eta <= lo - 1e-12) or np.any(eta >= hi + 1e-12):
            raise DomainError(f"mean coordinate {eta} outside the statistic hull")
        t = np.zeros(self.dim)
        tol = DUAL_TOL * max(1.0, float(np.abs(eta).max()))
        last = np.inf
        for _ in range(DUAL_MAX_ITER):
            grad = eta - self.mean(t)
            residual = np.abs(grad).max()
            # polishing past the tolerance: near saturation the inverse
            # curvature amplifies the residual into the natural parameter,
            # and on the boundary the off-face mass keeps falling
            if residual <= tol and residual >= last:
                break
            last = residual
            try:
                step = np.linalg.solve(self.covariance(t) + 1e-14 * np.eye(self.dim), grad)
            except np.linalg.LinAlgError:
                step = grad
            # backtracking on the concave objective <t, eta> - psi(t); ties at
            # float resolution accept the full step so the search cannot stall
            base = t @ eta - self.log_partition(t)
            slack = 1e-15 * (1.0 + abs(base))
            alpha = 1.0
            for _ in range(60):
                cand = t + alpha * step
                if cand @ eta - self.log_partition(cand) >= base - slack:
                    break
                alpha /= 2.0
            t = t + alpha * step
        offsets = self._stats - eta
        pull = self.probabilities(t) * np.abs(offsets).max(axis=1)
        span = _affine_directions(self._stats[pull > tol])
        if len(span) < len(_affine_directions(np.vstack([self._stats, eta]))):
            normal = t - span.T @ (span @ t)
            if (offsets @ normal).max() <= tol * np.linalg.norm(normal):
                raise DomainError(f"mean coordinate {eta} on or outside the hull boundary")
        if np.abs(eta - self.mean(t)).max() <= tol:
            return t
        raise NumericError("dual coordinate solve did not converge")

    def psi_star(self, eta) -> float:
        """Legendre dual of the log-partition at a mean coordinate."""
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        t = self.mean_to_natural(eta)
        return float(t @ eta - self.log_partition(t))


class NeuronCoords(NamedTuple):
    """Mean coordinates of one conditioning context."""

    eta: np.ndarray
    h_context: object


def neuron_coordinates(model: ExpFamilyModel, theta, h) -> NeuronCoords:
    """Mean coordinates at the composed natural parameter, computed two ways.

    The direct expectation over the normalized kernel must agree within
    1e-8 with a central finite difference of the log-partition, taken with
    step ``FD_STEP``; the mismatch raises :class:`NumericError`.
    """
    t = np.atleast_1d(np.asarray(model.composition(theta, h), dtype=float))
    eta = model.mean(t)
    fd = np.empty_like(eta)
    for i in range(t.size):
        e = np.zeros_like(t)
        e[i] = FD_STEP
        fd[i] = (model.log_partition(t + e) - model.log_partition(t - e)) / (2 * FD_STEP)
    if np.abs(eta - fd).max() > 1e-8:
        raise NumericError(
            f"gradient and expectation disagree by {np.abs(eta - fd).max():.3e}"
        )
    return NeuronCoords(eta=eta, h_context=h)


# ---------------------------------------------------------------------------
# Bregman divergences
# ---------------------------------------------------------------------------


class ConvexFunction(NamedTuple):
    """Convex potential with gradient, enough to define a Bregman divergence."""

    value: Callable
    grad: Callable


def quadratic_potential() -> ConvexFunction:
    """Self-dual potential |eta|^2 / 2; its divergence is half squared distance."""
    return ConvexFunction(
        value=lambda eta: 0.5 * float(np.dot(eta, eta)),
        grad=lambda eta: np.asarray(eta, dtype=float),
    )


def bernoulli_entropy() -> ConvexFunction:
    """Dual potential of the product-Bernoulli family on (0, 1)^n."""

    def _check(eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if np.any(eta <= 0) or np.any(eta >= 1):
            raise DomainError("Bernoulli mean coordinates must lie in (0, 1)")
        return eta

    return ConvexFunction(
        value=lambda eta: float(np.sum(_check(eta) * np.log(_check(eta))
                                       + (1 - _check(eta)) * np.log1p(-_check(eta)))),
        grad=lambda eta: np.log(_check(eta) / (1 - _check(eta))),
    )


def dual_of(model: ExpFamilyModel) -> ConvexFunction:
    """Numerically evaluated Legendre dual of a family's log-partition."""
    return ConvexFunction(value=model.psi_star, grad=model.mean_to_natural)


def log_partition_of(model: ExpFamilyModel) -> ConvexFunction:
    return ConvexFunction(value=model.log_partition, grad=model.mean)


def bregman_divergence(psi_star: ConvexFunction, eta, eta_prime) -> float:
    """Divergence D[eta_prime : eta] of the potential.

    Evaluates the potential at ``eta_prime`` minus its linearization at
    ``eta``; nonnegative for convex potentials, zero only at equal
    arguments when the potential is strictly convex.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    eta_prime = np.atleast_1d(np.asarray(eta_prime, dtype=float))
    if eta.shape != eta_prime.shape:
        raise ShapeError("coordinates must have matching shapes")
    value = psi_star.value(eta_prime) - psi_star.value(eta)
    value = float(value - np.asarray(psi_star.grad(eta)) @ (eta_prime - eta))
    # nonnegative for convex potentials; tiny negatives are cancellation noise
    if -1e-12 < value < 0.0:
        return 0.0
    return value
