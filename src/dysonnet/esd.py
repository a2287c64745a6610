"""Empirical spectral distributions and the checks made on them.

Sampling: Wigner matrices and centered per-sample Hessians of random
relu networks, the ensembles whose eigenvalues ``esd sample`` writes.
The centred samples are yielded one at a time, each minus the mean H̄
that the one Hessian accumulator (``hessian.risk_hessian``) forms, so a
trial holds no stack of samples; :func:`_trial_entries` counts what one
trial holds, for ``esd sample`` to check before any trial starts.
Checks: the Kolmogorov-Smirnov distance of samples to a tabulated CDF,
the CDF of a sampled density, its reflection symmetry, and the
Minkowski-sum support bound with the operator norm of the self-energy it
uses.  The Dyson equation, its solver and the semicircle reference live
in :mod:`dysonnet.rmt`, which the checks import when they run, so
sampling loads no ``rmt``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, solving

__all__ = [
    "SupportBoundReport",
    "density_cdf",
    "ks_distance",
    "sample_centered_hessians",
    "sample_wigner",
    "self_energy_norm",
    "support_bound_check",
    "symmetry_check",
]

# Settings that no caller varies.
DENSITY_THRESHOLD = 1e-3  # density above which a grid energy counts as support
NORM_TOL = 1e-10  # relative settling tolerance of the self-energy power iteration
NORM_MAX_ITER = 1000
SUPPORT_EPS = 1e-6  # slack added to the support bound's half-width


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_wigner(n: int, rng) -> np.ndarray:
    """Symmetric Gaussian matrix whose spectrum fills [-2, 2]."""
    a = rng.standard_normal((n, n))
    return (a + a.T) / np.sqrt(2.0 * n)


def _hessian_widths(n_target: int) -> tuple[int, ...]:
    # Four layer groups of equal width w give roughly 3 w^2 + w parameters.
    return (max(2, int(round(np.sqrt(n_target / 3.0)))),) * 4


def _trial_entries(ensemble: str, n: int, samples: int) -> tuple[int, int]:
    """What one ``esd sample`` trial holds at once, in entries, and the eigenvalues it returns.

    A Wigner trial holds the sampled matrix and ``eigvalsh``'s copy of it.
    A centred trial first holds what ``risk_hessian``'s pass over the
    samples holds, the mean H̄ with it, then H̄ and the previous sample,
    which the caller's loop still holds, beside the one-sample pass that
    forms the next sample: each pass as ``net._chunk_plan`` counts it,
    from the layer widths alone, with every group's r_g its dimension.
    """
    if ensemble == "wigner":
        return 2 * n * n, n
    from .net import _chunk_plan

    widths = _hessian_widths(n)
    dims = [a * b for a, b in zip(widths, widths[1:] + (1,))]
    mean_pass, sample_pass = (_chunk_plan(widths, m, dims)[1] for m in (samples, 1))
    return max(mean_pass, 2 * sum(dims) ** 2 + sample_pass), samples * sum(dims)


def sample_centered_hessians(widths, n_samples: int, rng):
    """Yield the centered per-sample risk Hessians of a random relu network.

    Draws a network with the given layer widths (input width first), then
    ``n_samples`` standard-normal inputs with symmetric random labels, and
    takes their mean hinge-loss Hessian H̄ from :func:`risk_hessian`.
    Each sample's Hessian is then formed, has H̄ subtracted in place and is
    yielded, one at a time, so the samples average to zero.
    """
    from .hessian import risk_hessian, sample_hessian
    from .net import Dataset, LossL0, NetworkParams

    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise DomainError("need at least an input width and one layer width")
    weights = [rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(widths, widths[1:])]
    params = NetworkParams(weights, rng.standard_normal(widths[-1]) / np.sqrt(widths[-1]))
    draws = [(rng.standard_normal(widths[0]), float(rng.choice([-1.0, 1.0])))
             for _ in range(n_samples)]
    mean = risk_hessian(params, LossL0.HINGE,
                        Dataset([x for x, _ in draws], [y for _, y in draws])).assemble()
    for x, y in draws:
        sample = sample_hessian(params, LossL0.HINGE, x, y).assemble()
        sample -= mean
        yield sample


# ---------------------------------------------------------------------------
# distances and checks
# ---------------------------------------------------------------------------


def self_energy_norm(self_energy, n: int) -> float:
    """Operator norm of the self-energy via power iteration on matrices.

    The sandwich map is self-adjoint for the Frobenius inner product and
    positivity preserving, so iteration from the identity converges to the
    norm-attaining positive-semidefinite eigenmatrix.
    """
    r = np.eye(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(NORM_MAX_ITER):
        t = self_energy.apply(r)
        nrm = float(np.linalg.norm(t))
        if nrm == 0.0:
            return 0.0
        lam_new = abs(float(np.tensordot(r, t)))
        r = t / nrm
        if abs(lam_new - lam) <= NORM_TOL * max(1.0, lam_new):
            return lam_new
        lam = lam_new
    raise NumericError(f"self-energy power iteration did not settle within {NORM_MAX_ITER} steps")


def symmetry_check(density: SpectralDensity) -> float:
    """Largest pointwise defect between the density and its reflection.

    The grid must be symmetric about zero; the defect is
    ``max_E |rho(E) - rho(-E)|``.
    """
    order = np.argsort(density.grid)
    grid = density.grid[order]
    rho = density.density[order]
    if np.max(np.abs(grid + grid[::-1])) > 1e-12 * max(1.0, float(np.abs(grid).max())):
        raise DomainError("grid is not symmetric about zero")
    return float(np.max(np.abs(rho - rho[::-1])))


class SupportBoundReport(NamedTuple):
    """Outcome of the Minkowski-sum support check."""

    ok: bool
    halfwidth: float
    spec_a: np.ndarray
    margins: np.ndarray

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min()) if self.margins.size else np.inf


def support_bound_check(density_or_eigs, a_matrix, self_energy) -> SupportBoundReport:
    """Check that spectrum points lie in Spec A widened by ``2 sqrt(norm S) + SUPPORT_EPS``.

    Accepts either raw eigenvalues or a :class:`~dysonnet.rmt.SpectralDensity`; for the
    latter the support points are the grid energies with density above
    ``DENSITY_THRESHOLD`` and the interval is additionally inflated by
    ``3 eta^(2/3)`` to absorb the inversion smearing.  ``margins`` holds,
    per point, the slack before the bound is violated; the check passes
    when every margin is nonnegative.
    """
    from .rmt import SpectralDensity, _checked_matrix

    a = _checked_matrix(a_matrix, "expectation matrix A")
    with solving("expectation matrix A"):
        spec_a = np.linalg.eigvalsh(a)
    norm_s = self_energy_norm(self_energy, a.shape[0])
    halfwidth = 2.0 * np.sqrt(norm_s) + SUPPORT_EPS
    if isinstance(density_or_eigs, SpectralDensity):
        points = density_or_eigs.grid[density_or_eigs.density > DENSITY_THRESHOLD]
        halfwidth += 3.0 * density_or_eigs.eta ** (2.0 / 3.0)
    else:
        points = np.asarray(density_or_eigs, dtype=float).ravel()
    if points.size == 0:
        return SupportBoundReport(True, halfwidth, spec_a, np.empty(0))
    dist = np.min(np.abs(points[:, None] - spec_a[None, :]), axis=1)
    margins = halfwidth - dist
    return SupportBoundReport(bool(np.all(margins >= 0.0)), halfwidth, spec_a, margins)


def ks_distance(values: np.ndarray, cdf_grid: np.ndarray, cdf_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between samples and a tabulated CDF."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    f = np.interp(v, cdf_grid, cdf_values, left=0.0, right=1.0)
    n = v.size
    upper = np.abs(np.arange(1, n + 1) / n - f)
    lower = np.abs(np.arange(0, n) / n - f)
    return float(max(upper.max(), lower.max()))


def density_cdf(density: SpectralDensity) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cumulative distribution of a sampled density."""
    order = np.argsort(density.grid)
    grid = density.grid[order]
    rho = density.density[order]
    cdf = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) / 2.0 * np.diff(grid))])
    total = cdf[-1]
    if total <= 0:
        raise NumericError("density has zero mass")
    return grid, cdf / total
