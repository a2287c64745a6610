"""Matrix Dyson Equation solver and spectral diagnostics.

The central object is the equation ``I + (z - A + S[M]) M = 0`` with
``Im M`` positive definite and ``Im z > 0``, where ``A`` is the symmetric
expectation matrix and ``S`` the self-energy sandwich operator over the
centered fluctuations.  Its unique solution approximates the resolvent of
the random matrix; the normalized trace is the Stieltjes transform of the
limiting spectral density, recovered on a real grid by inversion at a
small imaginary offset.

The globally convergent solver is a damped fixed-point iteration
``M <- (1-g) M - g (z - A + S[M])^{-1}`` with geometric continuation in
the imaginary part: each grid point is solved either warm-started from
its neighbor or, failing that, by a ladder of decreasing offsets
starting at ``Im z = 1``.

The isotropic, Wigner and zero self-energies map functions of ``A`` to
functions of ``A``, acting there as ``S m = (a sum(m) + b m) / n``, and
declare the pair ``(a, b)`` as ``eigen_weights``.  For them the solution
is ``M = U diag(m) U^T`` with ``A = U diag(lambda) U^T``, and after one
``eigh`` of ``A`` the solver works on the length-n vector ``m`` (the
vector Dyson equation).  There each step first tries a Newton step,
whose diagonal-plus-rank-one Jacobian Sherman-Morrison solves in O(n),
and falls back to the damped step when the trial does not lower the
residual or keep ``Im m`` positive.  The empirical self-energy keeps full
n x n matrices and the damped iteration.  ``MDESolution.m`` builds the
matrices on first access only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    NumericError,
    ShapeError,
    StabilityError,
    check_dense_budget,
    read_json,
)

__all__ = [
    "CumulantReport",
    "EmpiricalSelfEnergy",
    "IsotropicSelfEnergy",
    "MDEProblem",
    "MDESolution",
    "SpectralDensity",
    "SupportBoundReport",
    "WignerSelfEnergy",
    "ZeroSelfEnergy",
    "cumulant_diagnostics",
    "density_cdf",
    "empirical_esd",
    "ks_distance",
    "load_problem_json",
    "sample_centered_hessians",
    "sample_wigner",
    "self_energy_apply",
    "self_energy_norm",
    "semicircle_cdf",
    "semicircle_density",
    "solve_mde",
    "stieltjes_invert",
    "support_bound_check",
    "symmetry_check",
    "wigner_stieltjes",
]

# Settings that no caller varies.
ETA_START = 1.0  # first imaginary offset of the continuation ladder
ETA_RATIO = 0.1  # factor between successive ladder offsets
NEG_TOL = 1e-8  # numerical dip below zero that stieltjes_invert clips
DENSITY_THRESHOLD = 1e-3  # density above which a grid energy counts as support
CUMULANT_MU = 0.1  # cumulant_diagnostics keeps floor(N**(1/2 - mu)) partners
MAX_CUMULANT_ENTRIES = 4096  # largest N*N for the N^2 x N^2 cumulant matrix
NORM_TOL = 1e-10  # relative settling tolerance of the self-energy power iteration
NORM_MAX_ITER = 1000
DAMPING = 0.5  # base step of the damped fixed point


def _checked_matrix(m, what: str, stack: bool = False, symmetric: bool = True) -> np.ndarray:
    """``m`` as floats, or an error naming ``what`` if it is no valid matrix input.

    ``m`` must be a finite square matrix, symmetric to within
    ``1e-12 * max(1, max|m|)`` unless ``symmetric`` is false.  With
    ``stack`` it is a 3-d stack of such matrices, measured on one scale,
    and a failure names the first bad matrix as ``what`` and its index.
    The checks run one matrix at a time, so their temporaries are the
    size of one matrix, not of the stack.
    """
    m = np.asarray(m, dtype=float)
    mats = m if stack else m[np.newaxis]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ShapeError(f"{what}s must form a stack of square matrices" if stack
                         else f"{what} must be square")

    def name(index):
        return f"{what} {index}" if stack else what

    for index, mat in enumerate(mats):
        if not np.isfinite(mat).all():
            raise DomainError(f"{name(index)} has non-finite entries")
    if symmetric:
        scale = max([1.0] + [float(np.abs(mat).max(initial=0.0)) for mat in mats])
        for index, mat in enumerate(mats):
            skew = mat - mat.T
            if np.abs(skew, out=skew).max(initial=0.0) > 1e-12 * scale:
                raise DomainError(f"{name(index)} is not symmetric")
    return m


def _sample_stack(samples, what: str, symmetric: bool = True) -> np.ndarray:
    """Checked stack of sample matrices, each read by ``np.asarray``.

    A :class:`~dysonnet.hessian.HessianBlocks` reads as its matrix.
    """
    mats = [np.asarray(s, dtype=float) for s in samples]
    if len({m.shape for m in mats}) > 1:
        raise ShapeError(f"all {what}s must share one shape")
    if mats:
        check_dense_budget(len(mats) * mats[0].size,
                           f"a stack of {len(mats)} {what}s of shape {mats[0].shape}")
    stack = np.stack(mats) if mats else np.empty((0, 0, 0))
    return _checked_matrix(stack, what, stack=True, symmetric=symmetric)


# ---------------------------------------------------------------------------
# self-energy operators
# ---------------------------------------------------------------------------


def _check_strength(name: str, value: float) -> None:
    # A negative strength flips the sign of Im S[M] and breaks positivity.
    if not (np.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class IsotropicSelfEnergy:
    """Closed-form sandwich ``S[R] = c (tr R / N) I``."""

    c: float = 1.0

    def __post_init__(self):
        _check_strength("isotropic self-energy c", self.c)

    def apply(self, r: np.ndarray) -> np.ndarray:
        n = r.shape[0]
        return self.c * (np.trace(r) / n) * np.eye(n, dtype=r.dtype)

    @property
    def eigen_weights(self) -> tuple[float, float]:
        """``(a, b)`` with ``S v = (a sum(v) + b v) / n`` in A's eigenbasis."""
        return self.c, 0.0


@dataclass(frozen=True)
class WignerSelfEnergy:
    """Symbolic expectation for a symmetric matrix with iid entries.

    For fluctuations with entrywise variance ``sigma2`` the sandwich
    expectation evaluates to ``S[R] = (sigma2 / N)(tr R I + R^T)``.
    """

    sigma2: float = 1.0

    def __post_init__(self):
        _check_strength("wigner self-energy sigma2", self.sigma2)

    def apply(self, r: np.ndarray) -> np.ndarray:
        n = r.shape[0]
        return (self.sigma2 / n) * (np.trace(r) * np.eye(n, dtype=r.dtype) + r.T)

    @property
    def eigen_weights(self) -> tuple[float, float]:
        """``(a, b)`` with ``S v = (a sum(v) + b v) / n`` in A's eigenbasis.

        ``U diag(v) U^T`` is complex symmetric for real orthogonal ``U``,
        so ``R^T = R`` and the transpose term is ``v`` itself.
        """
        return self.sigma2, self.sigma2


@dataclass(frozen=True)
class ZeroSelfEnergy:
    """No fluctuations; the Dyson equation degenerates to the resolvent."""

    def apply(self, r: np.ndarray) -> np.ndarray:
        return np.zeros_like(r)

    @property
    def eigen_weights(self) -> tuple[float, float]:
        """``(a, b)`` with ``S v = (a sum(v) + b v) / n`` in A's eigenbasis."""
        return 0.0, 0.0


class EmpiricalSelfEnergy:
    """Averaged sandwich over stored fluctuation samples.

    Given samples ``H_i`` of the random matrix, the fluctuations are
    ``W_i = sqrt(N) (H_i - mean)`` and the operator is
    ``S[R] = (1 / (m N)) sum_i W_i R W_i``.  It does not act diagonally in
    the eigenbasis of the expectation matrix, so it declares no
    ``eigen_weights`` and the solver keeps full matrices.
    """

    def __init__(self, fluctuations: np.ndarray):
        self.fluctuations = _checked_matrix(fluctuations, "fluctuation sample", stack=True)

    @property
    def n(self) -> int:
        """Size of the matrices the operator acts on."""
        return self.fluctuations.shape[1]

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalSelfEnergy":
        stack = _sample_stack(samples, "empirical sample")
        if stack.shape[0] < 2:
            raise DomainError("need at least 2 samples to center fluctuations")
        # The samples passed the check on their own scale.  Checking the
        # much smaller fluctuations again would reject that accepted skew.
        # The stack is this call's own copy: centre and scale it in place.
        stack -= stack.mean(axis=0)
        stack *= np.sqrt(stack.shape[1])
        se = cls.__new__(cls)
        se.fluctuations = stack
        return se

    def apply(self, r: np.ndarray) -> np.ndarray:
        m, n, _ = self.fluctuations.shape
        out = np.zeros_like(r)
        for w in self.fluctuations:
            out = out + w @ r @ w
        return out / (m * n)


def self_energy_apply(problem: "MDEProblem", r: np.ndarray) -> np.ndarray:
    """Apply the problem's self-energy operator with shape validation."""
    r = np.asarray(r)
    n = problem.a_matrix.shape[0]
    if r.shape != (n, n):
        raise ShapeError(f"matrix has shape {r.shape}, expected ({n}, {n})")
    return problem.self_energy.apply(r)


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


def check_self_energy(self_energy, n: int, rng, n_probes: int = 100):
    """Probe positivity preservation and linearity of a self-energy.

    Returns ``(min_probe_eig, linearity_defect)``: the smallest eigenvalue
    of ``S[R]`` over random positive-semidefinite probes ``R`` and the
    largest deviation from additivity/homogeneity over random pairs.
    """
    min_eig = np.inf
    defect = 0.0
    for _ in range(n_probes):
        g = rng.standard_normal((n, n))
        psd = g @ g.T
        out = self_energy.apply(psd)
        min_eig = min(min_eig, float(np.linalg.eigvalsh((out + out.T) / 2).min()))
        a, b = rng.standard_normal(2)
        r = rng.standard_normal((n, n))
        q = rng.standard_normal((n, n))
        lhs = self_energy.apply(a * r + b * q)
        rhs = a * self_energy.apply(r) + b * self_energy.apply(q)
        defect = max(defect, float(np.abs(lhs - rhs).max()))
    return min_eig, defect


# ---------------------------------------------------------------------------
# problem and solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MDEProblem:
    """Expectation matrix, self-energy and spectral-parameter grid.

    A self-energy that acts on matrices of one size only (an empirical
    one) declares it as ``n``; it must match the expectation matrix.
    """

    a_matrix: np.ndarray
    self_energy: object
    z_grid: np.ndarray

    def __post_init__(self):
        a = _checked_matrix(self.a_matrix, "expectation matrix A")
        se_n = getattr(self.self_energy, "n", None)
        if se_n is not None and se_n != a.shape[0]:
            raise ShapeError(
                f"self-energy acts on {se_n}x{se_n} matrices but the expectation matrix A "
                f"is {a.shape[0]}x{a.shape[0]}"
            )
        z = np.atleast_1d(np.asarray(self.z_grid, dtype=complex))
        if not np.isfinite(z).all():
            raise DomainError("every spectral parameter must be finite (real and imaginary part)")
        if np.any(z.imag <= 0):
            raise DomainError("every spectral parameter must have positive imaginary part")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "z_grid", z)

    @property
    def n(self) -> int:
        return self.a_matrix.shape[0]


@dataclass(frozen=True)
class MDESolution:
    """Solutions, certified residuals, normalized traces and solver stats.

    ``values`` holds, per grid point, either the eigenvalues of ``M`` in
    the orthonormal ``basis`` (rows of shape ``(n,)``) or, when ``basis``
    is ``None``, the full matrix ``M``.  ``iterations`` counts the
    residual evaluations spent at each point (one per damped step or
    Newton trial, a rejected trial included), warm start and ladder
    together; ``ladder_levels`` is 0 where the warm start from the
    previous point converged and otherwise the number of imaginary
    offsets the continuation ladder solved.
    """

    z_grid: np.ndarray
    values: np.ndarray
    basis: np.ndarray | None
    residuals: np.ndarray
    stieltjes: np.ndarray
    iterations: np.ndarray
    ladder_levels: np.ndarray

    @cached_property
    def m(self) -> np.ndarray:
        """Stack of solution matrices, built from the eigenbasis on first access."""
        if self.basis is None:
            return self.values
        return (self.basis * self.values[:, None, :]) @ self.basis.T

    def indices_of(self, zs) -> np.ndarray:
        """Grid index of each spectral parameter, matched within 1e-12 relative.

        Sorting the grid by real part bounds each parameter's candidates to
        a window, so the lookup is one vectorised pass; where several grid
        points match, the first is returned.
        """
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        tol = 1e-12 * np.maximum(1.0, np.abs(zs))
        order = np.argsort(self.z_grid.real, kind="stable")
        real = self.z_grid.real[order]
        lo = np.searchsorted(real, zs.real - tol, side="left")
        counts = np.searchsorted(real, zs.real + tol, side="right") - lo
        owner = np.repeat(np.arange(zs.size), counts)
        offset = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cand = order[np.repeat(lo, counts) + offset]
        hit = np.abs(self.z_grid[cand] - zs[owner]) <= tol[owner]
        out = np.full(zs.size, self.z_grid.size)
        np.minimum.at(out, owner[hit], cand[hit])
        missing = np.flatnonzero(out == self.z_grid.size)
        if missing.size:
            raise DomainError(f"spectral parameter {zs[missing[0]]} not in the solved grid")
        return out

    def m_at(self, z: complex) -> np.ndarray:
        return self.m[self.indices_of(z)[0]]


class _DenseSteps:
    """Fixed-point operations on full matrices, for any self-energy.

    ``shift(z)`` is ``z - A``, formed once per spectral parameter;
    ``residual`` returns the Frobenius norm of ``I + (z - A + S[M]) M``
    and the matrix ``k = z - A + S[M]`` whose inverse is the next target.
    It offers no Newton step: every step is the damped one.
    """

    newton = None

    def __init__(self, a, self_energy):
        self.a = a
        self.self_energy = self_energy
        self.eye = np.eye(a.shape[0])
        self.shape = a.shape

    def shift(self, z):
        return z * self.eye - self.a

    def residual(self, shift, m):
        k = shift + self.self_energy.apply(m)
        return float(np.linalg.norm(self.eye + k @ m)), k

    def target(self, k):
        """``-k^{-1}``, or ``None`` when ``k`` is singular."""
        try:
            return -np.linalg.inv(k)
        except np.linalg.LinAlgError:
            return None

    def min_im(self, m):
        return float(np.linalg.eigvalsh((m - m.conj().T) / 2j).min())

    def trace(self, m):
        return np.trace(m)


class _EigenSteps:
    """The same operations on the eigenvalues of ``M`` in A's eigenbasis.

    Valid when the self-energy maps functions of A to functions of A, so
    that ``M = U diag(m) U^T`` for A's eigenvectors ``U``, and acts there
    as ``S m = (a sum(m) + b m) / n`` for its ``eigen_weights`` ``(a, b)``.
    The residual ``1 + (z - lambda + S m) m`` has the Frobenius norm of the
    dense one because ``U`` is orthogonal, and ``Im M`` has eigenvalues
    ``Im m``.
    """

    def __init__(self, eigenvalues, weights):
        self.eigenvalues = eigenvalues
        n = eigenvalues.size
        self.a, self.b = weights[0] / n, weights[1] / n
        self.shape = eigenvalues.shape

    def shift(self, z):
        return z - self.eigenvalues

    def residual(self, shift, m):
        k = shift + self.a * m.sum() + self.b * m
        r = 1.0 + k * m
        return math.sqrt(np.vdot(r, r).real), k

    def newton(self, m, k):
        """``m`` plus the Newton step on ``F(m) = 1 + k m``, given ``k = z - lambda + S m``.

        With ``a`` and ``b`` the weights over n, the Jacobian
        ``diag(k + b m) + a m 1^T`` is diagonal plus rank one, so
        Sherman-Morrison solves it in O(n) without an n x n matrix.
        """
        d = k + self.b * m
        y = (1.0 + k * m) / d
        x = m / d
        return m - (y - x * (self.a * y.sum() / (1.0 + self.a * x.sum())))

    def target(self, k):
        # Im S[M] >= 0 keeps Im k >= Im z > 0 along the iteration: k has no zero.
        return -1.0 / k

    def min_im(self, m):
        return float(m.imag.min())

    def trace(self, m):
        return m.sum()


def _iterate(steps, z, m0, tol, max_iter):
    """Newton steps with the damped fixed point as fallback, at one spectral parameter.

    Where ``steps`` offers a ``newton`` step (the eigenbasis path), each step
    first tries a full Newton step.  The trial is kept if its residual is
    finite and strictly lower and its minimum Im-eigenvalue stays
    positive.  Otherwise, and always on the dense path, the step is the
    damped ``M <- (1 - g) M - g (z - A + S[M])^{-1}``.  The damping ``g``
    is halved whenever the residual grows and recovers geometrically
    (capped at ``DAMPING``) while it shrinks, so slow spiral oscillations
    near spectral edges do not strand the iteration at a tiny step.

    Every residual evaluation counts, a rejected trial's included; the
    first ``max_iter`` are tested against ``tol``.  Returns ``(m,
    residual, converged, residual evaluations)``.
    """
    shift = steps.shift(z)
    newton = steps.newton
    m = m0
    res, k = steps.residual(shift, m)
    count = 1
    gamma = DAMPING
    res_prev = np.inf
    while count <= max_iter:
        if res <= tol:
            return m, res, True, count
        if newton is not None:
            # A trial may overflow or divide by zero; it is then rejected.
            with np.errstate(all="ignore"):
                trial = newton(m, k)
                trial_res, trial_k = steps.residual(shift, trial)
                keep = math.isfinite(trial_res) and trial_res < res and steps.min_im(trial) > 0.0
            count += 1
            if keep:
                res_prev, m, res, k = res, trial, trial_res, trial_k
                continue
            if count > max_iter:
                break
        # Sub-5% wobble is normal spiral convergence, not instability.
        if res > 1.05 * res_prev:
            gamma = max(gamma / 2.0, 1.0 / 64.0)
        else:
            gamma = min(gamma * 2.0 ** 0.25, DAMPING)
        target = steps.target(k)
        if target is None:
            return m, res, False, count
        m = (1.0 - gamma) * m + gamma * target
        res_prev = res
        res, k = steps.residual(shift, m)
        count += 1
    return m, res, False, count


def _ladder_levels(eta_target):
    levels = []
    eta = ETA_START
    while eta > eta_target * (1 + 1e-12):
        levels.append(eta)
        eta *= ETA_RATIO
    return levels + [eta_target]


def _solve_point(steps, z, prev, tol, max_iter):
    """Warm start from ``prev``, else the continuation ladder in ``Im z``.

    Returns ``(m, residual, iterations, ladder levels)`` and raises
    :class:`ConvergenceError` or :class:`StabilityError` as
    :func:`solve_mde` documents.
    """
    m, res, ok, iterations = None, np.inf, False, 0
    if prev is not None:
        m, res, ok, iterations = _iterate(steps, z, prev, tol, max_iter)
    levels = 0
    if not ok:
        for levels, eta in enumerate(_ladder_levels(z.imag), start=1):
            z_level = z.real + 1j * eta
            if levels == 1:
                m = steps.target(steps.shift(z_level))
            m, res, ok, count = _iterate(steps, z_level, m, tol, max_iter)
            iterations += count
            if not ok:
                raise ConvergenceError(
                    f"no convergence at z={z_level:.6g} (residual {res:.3e})",
                    residual=res,
                )
    min_im = steps.min_im(m)
    if min_im <= 0.0:
        raise StabilityError(
            f"solution at z={z:.6g} lost imaginary-part positivity (min eig {min_im:.3e})"
        )
    return m, res, iterations, levels


def solve_mde(problem: MDEProblem, tol: float = 1e-10, max_iter: int = 10000) -> MDESolution:
    """Solve the Dyson equation at every grid point.

    Each point is first attempted warm-started from the previous point's
    solution; on failure it is re-solved by geometric continuation in the
    imaginary offset, from ``ETA_START`` down by factors of ``ETA_RATIO``.
    Raises :class:`ConvergenceError` (carrying the last residual) when a
    point cannot reach the tolerance, and :class:`StabilityError` when a
    converged matrix loses its positive imaginary part.

    A self-energy with ``eigen_weights`` is solved on the eigenvalues of
    ``M`` in A's eigenbasis: one ``eigh`` of A, then length-n Newton steps
    solved in O(n) by Sherman-Morrison, each replaced by a damped step
    when its trial does not strictly lower a finite residual or keep
    ``Im m`` positive.  Any other self-energy keeps full n x n matrices
    and the damped fixed point.  Either way a point is accepted when its
    residual is at most ``tol``, and ``max_iter`` bounds the residual
    evaluations of each solve.

    ``tol`` must be finite and positive and ``max_iter`` at least 1;
    otherwise :class:`DomainError` is raised before any work.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    weights = getattr(problem.self_energy, "eigen_weights", None)
    count = len(problem.z_grid)
    if weights is None:
        check_dense_budget(
            2 * count * problem.n * problem.n,
            f"the dense MDE solution of {count} grid points of {problem.n}x{problem.n}"
            " complex matrices (2 entries each)",
        )
        basis = None
        steps = _DenseSteps(problem.a_matrix, problem.self_energy)
    else:
        try:
            eigenvalues, basis = np.linalg.eigh(problem.a_matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition of A failed: {exc}") from exc
        steps = _EigenSteps(eigenvalues, weights)
    values = np.empty((count,) + steps.shape, dtype=complex)
    residuals = np.empty(count)
    stieltjes = np.empty(count, dtype=complex)
    iterations = np.empty(count, dtype=np.int64)
    ladder_levels = np.empty(count, dtype=np.int64)
    prev = None
    for idx, z in enumerate(problem.z_grid):
        m, residuals[idx], iterations[idx], ladder_levels[idx] = _solve_point(
            steps, z, prev, tol, max_iter)
        values[idx] = m
        stieltjes[idx] = steps.trace(m) / problem.n
        prev = m
    return MDESolution(problem.z_grid.copy(), values, basis, residuals, stieltjes,
                       iterations, ladder_levels)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDensity:
    """Sampled density on a real grid, from inversion or from eigenvalues."""

    grid: np.ndarray
    density: np.ndarray
    eta: float
    bin_widths: np.ndarray | None = field(default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if grid.shape != density.shape:
            raise ShapeError("grid and density must have matching shapes")
        if not (np.isfinite(grid).all() and np.isfinite(density).all()):
            raise DomainError("grid and density values must be finite")
        if np.any(density < 0):
            raise DomainError("density values must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)

    def mass(self) -> float:
        if self.bin_widths is not None:
            return float(np.sum(self.density * self.bin_widths))
        return float(np.trapezoid(self.density, self.grid))


def stieltjes_invert(solution: MDESolution, grid: np.ndarray, eta: float) -> SpectralDensity:
    """Recover the density ``rho(E) = Im m(E + i eta) / pi`` on a real grid.

    Every requested energy must have been solved at offset ``eta``.  The
    imaginary part may dip below zero only by numerical error smaller than
    ``NEG_TOL``; such values are clipped to zero.
    """
    grid = np.asarray(grid, dtype=float)
    rho = solution.stieltjes[solution.indices_of(grid + 1j * eta)].imag / np.pi
    worst = float(rho.min())
    if worst < -NEG_TOL:
        raise NumericError(f"density dipped to {worst:.3e}, below the -{NEG_TOL:g} allowance")
    return SpectralDensity(grid, np.clip(rho, 0.0, None), eta)


def empirical_esd(matrix: np.ndarray, bins: int) -> SpectralDensity:
    """Normalized eigenvalue histogram of a symmetric matrix."""
    m = _checked_matrix(matrix, "matrix")
    try:
        eigs = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    density, edges = np.histogram(eigs, bins=bins, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return SpectralDensity(centers, density, eta=0.0, bin_widths=np.diff(edges))


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


@dataclass(frozen=True)
class SupportBoundReport:
    """Outcome of the Minkowski-sum support check."""

    ok: bool
    halfwidth: float
    spec_a: np.ndarray
    margins: np.ndarray

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min()) if self.margins.size else np.inf


def support_bound_check(
    density_or_eigs,
    a_matrix: np.ndarray,
    self_energy,
    eps: float = 1e-6,
) -> SupportBoundReport:
    """Check that spectrum points lie in Spec A widened by twice sqrt(norm S).

    Accepts either raw eigenvalues or a :class:`SpectralDensity`; for the
    latter the support points are the grid energies with density above
    ``DENSITY_THRESHOLD`` and the interval is additionally inflated by
    ``3 eta^(2/3)`` to absorb the inversion smearing.  ``margins`` holds,
    per point, the slack before the bound is violated; the check passes
    when every margin is nonnegative.
    """
    a = _checked_matrix(a_matrix, "expectation matrix A")
    spec_a = np.linalg.eigvalsh(a)
    norm_s = self_energy_norm(self_energy, a.shape[0])
    halfwidth = 2.0 * np.sqrt(norm_s) + eps
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


# ---------------------------------------------------------------------------
# cumulant diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulantReport:
    """Entrywise second-cumulant summaries of a matrix ensemble."""

    av2_norm: float
    iso2_upper: float
    offdiag_decay: float


def cumulant_diagnostics(samples) -> CumulantReport:
    """Pairwise-cumulant diagnostics over an ensemble of symmetric matrices.

    ``samples`` is a sequence of finite square matrices (symmetric or
    not), each anything ``np.asarray`` reads as one, a
    :class:`~dysonnet.hessian.HessianBlocks` included; two suffice to form
    the estimate but 30 or more are needed for it to mean much.  The
    pairwise cumulant kappa(alpha, beta) is the sample covariance of
    entries alpha, beta across the ensemble.  ``av2_norm`` is the operator
    norm of the absolute-cumulant matrix; ``iso2_upper`` bounds the
    isotropic norm via the trivial decomposition (diagonal part equal to
    the full cumulant) combined with a Cauchy-Schwarz majorant of the
    supremum over unit vectors; ``offdiag_decay`` is the largest absolute
    cumulant left after excluding, for each entry, its
    ``floor(N**(1/2 - CUMULANT_MU))`` strongest partners.
    """
    stack = _sample_stack(samples, "cumulant sample", symmetric=False)
    if stack.shape[0] < 2:
        raise DomainError("need at least 2 samples for covariance estimation")
    n = stack.shape[1]
    if n * n > MAX_CUMULANT_ENTRIES:
        raise CapacityError(f"cumulant matrix would be {n * n} x {n * n}")
    flat = stack.reshape(stack.shape[0], n * n)
    cov = np.atleast_2d(np.cov(flat, rowvar=False, ddof=1))
    abs_cov = np.abs(cov)
    av2 = float(np.max(np.abs(np.linalg.eigvalsh((abs_cov + abs_cov.T) / 2))))
    four = cov.reshape(n, n, n, n)
    majorant = np.sqrt(np.einsum("abcd,abcd->bd", four, four))
    iso2 = float(np.max(np.abs(np.linalg.eigvalsh((majorant + majorant.T) / 2))))
    k = max(1, int(np.floor(n ** (0.5 - CUMULANT_MU))))
    if abs_cov.shape[1] <= k:
        offdiag = 0.0
    else:
        trimmed = np.partition(abs_cov, abs_cov.shape[1] - k - 1, axis=1)
        offdiag = float(trimmed[:, : abs_cov.shape[1] - k].max())
    return CumulantReport(av2, iso2, offdiag)


# ---------------------------------------------------------------------------
# closed forms and sampling
# ---------------------------------------------------------------------------


def semicircle_density(e, radius: float = 2.0):
    """Semicircle density on [-radius, radius]."""
    e = np.asarray(e, dtype=float)
    inside = np.clip(radius * radius - e * e, 0.0, None)
    return 2.0 * np.sqrt(inside) / (np.pi * radius * radius)


def semicircle_cdf(e, radius: float = 2.0):
    """Closed-form distribution function of the semicircle law."""
    x = np.clip(np.asarray(e, dtype=float) / radius, -1.0, 1.0)
    return 0.5 + (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / np.pi


def wigner_stieltjes(z):
    """Stieltjes transform of the semicircle law on the upper half-plane."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z * z - 4.0)
    m_plus = (-z + s) / 2.0
    m_minus = (-z - s) / 2.0
    return np.where(m_plus.imag > 0, m_plus, m_minus)


def sample_wigner(n: int, rng, sigma: float = 1.0) -> np.ndarray:
    """Symmetric Gaussian matrix whose spectrum fills [-2 sigma, 2 sigma]."""
    a = rng.standard_normal((n, n))
    return sigma * (a + a.T) / np.sqrt(2.0 * n)


def sample_centered_hessians(widths, n_samples: int, rng) -> list[np.ndarray]:
    """Centered per-sample risk Hessians of a random relu network.

    Draws a network with the given layer widths (input width first), then
    ``n_samples`` hinge-loss sample Hessians at standard-normal inputs and
    symmetric random labels, and subtracts the ensemble mean so the
    returned matrices average to zero exactly.
    """
    from .hessian import sample_hessian
    from .net import LossL0, NetworkParams, param_group_dims

    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise DomainError("need at least an input width and one layer width")
    weights = tuple(
        rng.standard_normal((widths[i], widths[i + 1])) / np.sqrt(widths[i])
        for i in range(len(widths) - 1)
    )
    alpha = rng.standard_normal(widths[-1]) / np.sqrt(widths[-1])
    params = NetworkParams(weights, alpha)
    n = sum(param_group_dims(params))
    stack = np.empty((n_samples, n, n))
    for i in range(n_samples):
        x = rng.standard_normal(widths[0])
        y = float(rng.choice([-1.0, 1.0]))
        stack[i] = sample_hessian(params, LossL0.HINGE, x, y).assemble()
    stack -= stack.mean(axis=0)
    return list(stack)


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


def _strength_entry(s_doc: dict, key: str) -> float:
    try:
        return float(s_doc.get(key, 1.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"self-energy {key} must be a number, got {s_doc[key]!r}") from exc


def load_problem_json(source, eta: float, grid: np.ndarray) -> MDEProblem:
    """Build an :class:`MDEProblem` from its JSON description.

    Schema: ``{"A": [[...], ...], "S": {"kind": "isotropic", "c": 1.0}}``
    with self-energy kinds ``isotropic``, ``zero``, ``wigner`` (optional
    ``sigma2``) and ``empirical`` (``samples`` pointing at an ``.npy``
    stack of sample matrices).
    """
    doc = read_json(source)
    try:
        a = np.asarray(doc["A"], dtype=float)
        s_doc = doc["S"]
        kind = s_doc["kind"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed problem document: {exc}") from exc
    if kind == "isotropic":
        se = IsotropicSelfEnergy(_strength_entry(s_doc, "c"))
    elif kind == "zero":
        se = ZeroSelfEnergy()
    elif kind == "wigner":
        se = WignerSelfEnergy(_strength_entry(s_doc, "sigma2"))
    elif kind == "empirical":
        try:
            # mapped, not read: the header's shape is checked before the read
            samples = np.lib.format.open_memmap(s_doc["samples"], mode="r")
        except (KeyError, OSError, TypeError, ValueError) as exc:
            raise DomainError(f"cannot load empirical samples: {exc}") from exc
        if samples.ndim != 3:
            raise ShapeError("empirical samples must form a stack of square matrices")
        check_dense_budget(samples.size, f"empirical samples of shape {samples.shape}")
        se = EmpiricalSelfEnergy.from_samples(samples)
    else:
        raise DomainError(f"unknown self-energy kind {kind!r}")
    z_grid = np.asarray(grid, dtype=float) + 1j * float(eta)
    return MDEProblem(a, se, z_grid)
