"""Matrix Dyson Equation solver, its problem loader and the semicircle reference.

The central object is the equation ``I + (z - A + S[M]) M = 0`` with
``Im M`` positive definite and ``Im z > 0``, where ``A`` is the symmetric
expectation matrix and ``S`` the self-energy sandwich operator over the
centered fluctuations.  Its unique solution approximates the resolvent of
the random matrix; the normalized trace is the Stieltjes transform of the
limiting spectral density, read off the solved grid ``E + i eta`` by
Stieltjes inversion.

The globally convergent solver is a damped fixed-point iteration
``M <- (1-g) M - g (z - A + S[M])^{-1}`` with geometric continuation in
the imaginary part: each grid point is solved either warm-started from
its neighbor or, failing that, by a ladder of decreasing offsets
starting at ``Im z = 1``.

The isotropic, Wigner and zero self-energies are one operator,
``S[R] = (a tr R I + b R^T) / n`` with ``eigen_weights`` ``(a, b)`` equal
to ``(c, 0)``, ``(sigma2, sigma2)`` and ``(0, 0)``.  It acts on functions
of ``A`` as ``S m = (a sum(m) + b m) / n``, so after one ``eigh`` of ``A``
the solver works on the eigenvalues ``m`` of ``M = U diag(m) U^T`` (the
vector Dyson equation).  There each step first tries a Newton step,
whose diagonal-plus-rank-one Jacobian Sherman-Morrison solves in O(n),
and falls back to the damped step when the trial does not lower the
residual or keep ``Im m`` positive.  The empirical self-energy, built
only by ``EmpiricalSelfEnergy.from_samples``, keeps full n x n matrices
and the damped iteration.  ``MDESolution.m`` builds the matrices on
first access only.

Sampling ensembles and the checks made on spectra (support bound,
symmetry, KS distance) live in :mod:`dysonnet.esd`.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    ShapeError,
    StabilityError,
    check_dense_budget,
    json_floats,
    read_json,
    reading,
)

__all__ = [
    "EmpiricalSelfEnergy",
    "IsotropicSelfEnergy",
    "MDEProblem",
    "MDESolution",
    "SpectralDensity",
    "WignerSelfEnergy",
    "ZeroSelfEnergy",
    "load_problem_json",
    "semicircle_cdf",
    "semicircle_density",
    "solve_mde",
    "stieltjes_invert",
    "wigner_stieltjes",
]

# Settings that no caller varies.
ETA_START = 1.0  # first imaginary offset of the continuation ladder
ETA_RATIO = 0.1  # factor between successive ladder offsets
NEG_TOL = 1e-8  # numerical dip below zero that stieltjes_invert clips
DAMPING = 0.5  # base step of the damped fixed point
BACKTRACK = (0.5, 0.25, 0.125)  # shortened Newton steps tried before the damped one


def _checked_matrix(m, what: str, stack: bool = False) -> np.ndarray:
    """``m`` as floats, or an error naming ``what`` if it is no valid matrix input.

    ``m`` must be a finite square matrix, symmetric to within
    ``1e-12 * max(1, max|m|)``.  With ``stack`` it is a 3-d stack of such
    matrices, measured on one scale, and a failure names the first bad
    matrix as ``what`` and its index.  The checks run one matrix at a time,
    so their temporaries are the size of one matrix, not of the stack.
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
    scale = max([1.0] + [float(np.abs(mat).max(initial=0.0)) for mat in mats])
    for index, mat in enumerate(mats):
        skew = mat - mat.T
        if np.abs(skew, out=skew).max(initial=0.0) > 1e-12 * scale:
            raise DomainError(f"{name(index)} is not symmetric")
    return m


# ---------------------------------------------------------------------------
# self-energy operators
# ---------------------------------------------------------------------------


def _checked_strength(name: str, value) -> float:
    # A negative strength flips the sign of Im S[M] and breaks positivity.
    if np.ndim(value) or not (np.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be a number, finite and nonnegative, got {value}")
    return float(value)


class _EigenDiagonalSelfEnergy:
    """``S[R] = (a tr R I + b R^T) / n`` for the pair ``eigen_weights = (a, b)``.

    It maps functions of ``A`` to functions of ``A``: in A's eigenbasis
    ``U diag(v) U^T`` is complex symmetric for real orthogonal ``U``, so
    ``R^T = R`` and ``S v = (a sum(v) + b v) / n``.
    """

    def apply(self, r: np.ndarray) -> np.ndarray:
        n = r.shape[0]
        a, b = self.eigen_weights
        return (a / n) * np.trace(r) * np.eye(n, dtype=r.dtype) + (b / n) * r.T


class IsotropicSelfEnergy(_EigenDiagonalSelfEnergy):
    """Closed-form sandwich ``S[R] = c (tr R / N) I``: weights ``(c, 0)``."""

    def __init__(self, c: float = 1.0):
        self.eigen_weights = (_checked_strength("isotropic self-energy c", c), 0.0)


class WignerSelfEnergy(_EigenDiagonalSelfEnergy):
    """Symbolic expectation for a symmetric matrix with iid entries.

    For fluctuations with entrywise variance ``sigma2`` the sandwich
    expectation evaluates to ``S[R] = (sigma2 / N)(tr R I + R^T)``: weights
    ``(sigma2, sigma2)``.
    """

    def __init__(self, sigma2: float = 1.0):
        sigma2 = _checked_strength("wigner self-energy sigma2", sigma2)
        self.eigen_weights = (sigma2, sigma2)


class ZeroSelfEnergy(_EigenDiagonalSelfEnergy):
    """No fluctuations; the Dyson equation degenerates to the resolvent."""

    eigen_weights = (0.0, 0.0)


class EmpiricalSelfEnergy:
    """Averaged sandwich over stored fluctuation samples.

    Given samples ``H_i`` of the random matrix, the fluctuations are
    ``W_i = sqrt(N) (H_i - mean)`` and the operator is
    ``S[R] = (1 / (m N)) sum_i W_i R W_i``.  It does not act diagonally in
    the eigenbasis of the expectation matrix, so it declares no
    ``eigen_weights`` and the solver keeps full matrices.  Build it with
    :meth:`from_samples`.
    """

    __slots__ = ("fluctuations",)

    @property
    def n(self) -> int:
        """Size of the matrices the operator acts on."""
        return self.fluctuations.shape[1]

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalSelfEnergy":
        """Centre and scale a checked stack of samples, each read by ``np.asarray``.

        A :class:`~dysonnet.hessian.HessianBlocks` reads as its matrix.  A
        sample whose dtype is not float, int or uint (complex, bool or
        text) is refused before its data is read.
        """
        mats = [np.asarray(s) for s in samples]
        odd = [m.dtype for m in mats if m.dtype.kind not in "fiu"]
        if odd:
            raise DomainError(f"empirical samples must hold real numbers, got dtype {odd[0]}")
        if len(mats) < 2:
            raise DomainError("need at least 2 samples to center fluctuations")
        if len({m.shape for m in mats}) > 1:
            raise ShapeError("all empirical samples must share one shape")
        check_dense_budget(len(mats) * mats[0].size,
                           f"a stack of {len(mats)} empirical samples of shape {mats[0].shape}")
        stack = _checked_matrix(np.stack(mats), "empirical sample", stack=True)
        # The stack is this call's own copy: centre and scale it in place.
        stack -= stack.mean(axis=0)
        stack *= np.sqrt(stack.shape[1])
        se = cls()
        se.fluctuations = stack
        return se

    def apply(self, r: np.ndarray) -> np.ndarray:
        m, n, _ = self.fluctuations.shape
        out = np.zeros_like(r)
        for w in self.fluctuations:
            out = out + w @ r @ w
        return out / (m * n)


# ---------------------------------------------------------------------------
# problem and solver
# ---------------------------------------------------------------------------


class MDEProblem:
    """Expectation matrix, self-energy and spectral-parameter grid.

    A self-energy that acts on matrices of one size only (an empirical
    one) declares it as ``n``; it must match the expectation matrix.
    """

    __slots__ = ("a_matrix", "self_energy", "z_grid")

    def __init__(self, a_matrix, self_energy, z_grid):
        a = _checked_matrix(a_matrix, "expectation matrix A")
        se_n = getattr(self_energy, "n", None)
        if se_n is not None and se_n != a.shape[0]:
            raise ShapeError(
                f"self-energy acts on {se_n}x{se_n} matrices but the expectation matrix A "
                f"is {a.shape[0]}x{a.shape[0]}"
            )
        z = np.atleast_1d(np.asarray(z_grid, dtype=complex))
        if not np.isfinite(z).all():
            raise DomainError("every spectral parameter must be finite (real and imaginary part)")
        if np.any(z.imag <= 0):
            raise DomainError("every spectral parameter must have positive imaginary part")
        self.a_matrix = a
        self.self_energy = self_energy
        self.z_grid = z

    @property
    def n(self) -> int:
        return self.a_matrix.shape[0]


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

    # no __slots__: the cached ``m`` is kept in the instance dict
    def __init__(self, z_grid, values, basis, residuals, stieltjes, iterations, ladder_levels):
        self.z_grid = z_grid
        self.values = values
        self.basis = basis
        self.residuals = residuals
        self.stieltjes = stieltjes
        self.iterations = iterations
        self.ladder_levels = ladder_levels

    @cached_property
    def m(self) -> np.ndarray:
        """Stack of solution matrices, built from the eigenbasis on first access."""
        if self.basis is None:
            return self.values
        return (self.basis * self.values[:, None, :]) @ self.basis.T


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
    first tries a full Newton step, then, while it is rejected, the steps
    shortened by the factors ``BACKTRACK`` along the same direction.  A
    trial is kept if its residual is finite and strictly lower and its
    minimum Im-eigenvalue stays positive.  If none is, and always on the
    dense path, the step is the damped
    ``M <- (1 - g) M - g (z - A + S[M])^{-1}``.  The damping ``g``
    is halved whenever the residual grows and recovers geometrically
    (capped at ``DAMPING``) while it shrinks, so slow spiral oscillations
    near spectral edges do not strand the iteration at a tiny step.

    Every residual evaluation counts, a rejected trial's included; the
    first ``max_iter`` are tested against ``tol``, and no shortened trial
    is tried past the ``max_iter``-th.  Returns ``(m, residual, converged,
    residual evaluations)``.
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
                full = newton(m, k)
                for s in (1.0,) + BACKTRACK:
                    trial = full if s == 1.0 else m + s * (full - m)
                    trial_res, trial_k = steps.residual(shift, trial)
                    count += 1
                    keep = (math.isfinite(trial_res) and trial_res < res
                            and steps.min_im(trial) > 0.0)
                    if keep or count >= max_iter:
                        break
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
    otherwise :class:`DomainError` is raised before any work.  The
    solution, 2 entries for each of its complex values, is checked against
    ``MAX_DENSE_ENTRIES`` before it is allocated.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    weights = getattr(problem.self_energy, "eigen_weights", None)
    dense = weights is None
    n, count = problem.n, len(problem.z_grid)
    shape = (count, n, n) if dense else (count, n)
    check_dense_budget(
        2 * math.prod(shape),
        f"the {'dense ' if dense else ''}MDE solution of {count} grid points of"
        f" {'x'.join(map(str, shape[1:]))} complex {'matrices' if dense else 'eigenvalues'}"
        " (2 entries each)",
    )
    if dense:
        basis = None
        steps = _DenseSteps(problem.a_matrix, problem.self_energy)
    else:
        try:
            eigenvalues, basis = np.linalg.eigh(problem.a_matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition of A failed: {exc}") from exc
        steps = _EigenSteps(eigenvalues, weights)
    values = np.empty(shape, dtype=complex)
    residuals = np.empty(count)
    stieltjes = np.empty(count, dtype=complex)
    iterations = np.empty(count, dtype=np.int64)
    ladder_levels = np.empty(count, dtype=np.int64)
    prev = None
    for idx, z in enumerate(problem.z_grid):
        m, residuals[idx], iterations[idx], ladder_levels[idx] = _solve_point(
            steps, z, prev, tol, max_iter)
        values[idx] = m
        stieltjes[idx] = steps.trace(m) / n
        prev = m
    return MDESolution(problem.z_grid.copy(), values, basis, residuals, stieltjes,
                       iterations, ladder_levels)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


class SpectralDensity:
    """Sampled density on a real grid, from inversion."""

    __slots__ = ("grid", "density", "eta")

    def __init__(self, grid, density, eta: float):
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density, dtype=float)
        if grid.shape != density.shape:
            raise ShapeError("grid and density must have matching shapes")
        if not (np.isfinite(grid).all() and np.isfinite(density).all()):
            raise DomainError("grid and density values must be finite")
        if np.any(density < 0):
            raise DomainError("density values must be nonnegative")
        self.grid = grid
        self.density = density
        self.eta = eta


def stieltjes_invert(solution: MDESolution, grid: np.ndarray, eta: float) -> SpectralDensity:
    """Recover the density ``rho(E) = Im m(E + i eta) / pi`` on the solved grid.

    ``grid + i eta`` must be the solution's ``z_grid`` point for point, in
    order, each within 1e-12 relative; otherwise :class:`DomainError`
    names the first energy that differs.  The imaginary part may dip below
    zero only by numerical error smaller than ``NEG_TOL``; such values are
    clipped to zero.
    """
    grid = np.asarray(grid, dtype=float)
    zs, solved = np.ravel(grid + 1j * eta), solution.z_grid
    k = min(zs.size, solved.size)
    off = np.flatnonzero(np.abs(zs[:k] - solved[:k]) > 1e-12 * np.maximum(1.0, np.abs(zs[:k])))
    first = off[0] if off.size else k
    if first < max(zs.size, solved.size):
        requested, want = (str(z[first]) if first < z.size else "nothing" for z in (zs, solved))
        raise DomainError(f"energy grid differs from the solved grid at point {first}:"
                          f" requested {requested}, solved {want}")
    rho = solution.stieltjes.imag / np.pi
    worst = float(rho.min())
    if worst < -NEG_TOL:
        raise NumericError(f"density dipped to {worst:.3e}, below the -{NEG_TOL:g} allowance")
    return SpectralDensity(grid, np.clip(rho, 0.0, None), eta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def semicircle_density(e):
    """Density of the semicircle law on [-2, 2]."""
    e = np.asarray(e, dtype=float)
    return np.sqrt(np.clip(4.0 - e * e, 0.0, None)) / (2.0 * np.pi)


def semicircle_cdf(e):
    """Closed-form distribution function of the semicircle law on [-2, 2]."""
    x = np.clip(np.asarray(e, dtype=float) / 2.0, -1.0, 1.0)
    return 0.5 + (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / np.pi


def wigner_stieltjes(z):
    """Stieltjes transform of the semicircle law on the upper half-plane."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z * z - 4.0)
    m_plus = (-z + s) / 2.0
    m_minus = (-z - s) / 2.0
    return np.where(m_plus.imag > 0, m_plus, m_minus)


def load_problem_json(source, eta: float, grid: np.ndarray) -> MDEProblem:
    """Build an :class:`MDEProblem` from its JSON description.

    Schema: ``{"A": [[...], ...], "S": {"kind": "isotropic", "c": 1.0}}``
    with self-energy kinds ``isotropic``, ``zero``, ``wigner`` (optional
    ``sigma2``) and ``empirical`` (``samples`` pointing at an ``.npy``
    stack of sample matrices).  A relative ``samples`` path is read beside
    the document when ``source`` is a path, and from the working directory
    when it is a dict or an open file.
    """
    doc = read_json(source)
    with reading("malformed problem document"):
        a = json_floats(doc["A"], "expectation matrix A")
        s_doc = doc["S"]
        kind = s_doc["kind"]
    if kind == "isotropic":
        se = IsotropicSelfEnergy(json_floats(s_doc.get("c", 1.0), "self-energy c"))
    elif kind == "zero":
        se = ZeroSelfEnergy()
    elif kind == "wigner":
        se = WignerSelfEnergy(json_floats(s_doc.get("sigma2", 1.0), "self-energy sigma2"))
    elif kind == "empirical":
        with reading("cannot load empirical samples"):
            path = s_doc["samples"]
            if isinstance(source, (str, os.PathLike)):
                path = os.path.join(os.path.dirname(source), path)
            # mapped, not read: the header's shape is checked before the read
            samples = np.lib.format.open_memmap(path, mode="r")
        if samples.ndim != 3:
            raise ShapeError("empirical samples must form a stack of square matrices")
        check_dense_budget(samples.size, f"empirical samples of shape {samples.shape}")
        se = EmpiricalSelfEnergy.from_samples(samples)
    else:
        raise DomainError(f"unknown self-energy kind {kind!r}")
    z_grid = np.asarray(grid, dtype=float) + 1j * float(eta)
    return MDEProblem(a, se, z_grid)
