"""Self-energy operators, Dyson-equation solutions and spectral checks."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonnet import errors, rmt
from dysonnet.cli import _hessian_widths
from dysonnet.errors import (
    MAX_DENSE_ENTRIES,
    CapacityError,
    ConvergenceError,
    DomainError,
    ShapeError,
)
from dysonnet.esd import (
    density_cdf,
    ks_distance,
    sample_centered_hessians,
    sample_wigner,
    self_energy_norm,
    support_bound_check,
    symmetry_check,
)
from dysonnet.rmt import (
    BACKTRACK,
    EmpiricalSelfEnergy,
    IsotropicSelfEnergy,
    MDEProblem,
    SpectralDensity,
    WignerSelfEnergy,
    ZeroSelfEnergy,
    _EigenSteps,
    _iterate,
    load_problem_json,
    semicircle_cdf,
    semicircle_density,
    solve_mde,
    stieltjes_invert,
    wigner_stieltjes,
)


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


class TestSelfEnergies:
    def test_scalar_empirical_variance(self):
        # samples {-1, +1}: centered fluctuations of unit variance exactly
        se = EmpiricalSelfEnergy.from_samples([np.array([[-1.0]]), np.array([[1.0]])])
        out = se.apply(np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(1.0, abs=0)

    def test_isotropic_identity(self):
        se = IsotropicSelfEnergy(1.0)
        assert np.allclose(se.apply(np.eye(5)), np.eye(5))

    def test_wigner_closed_form_matches_sampling(self):
        # symbolic expectation of the sandwich over iid symmetric entries
        rng = np.random.default_rng(21)
        n, m = 6, 40000
        sigma = 1.3
        r = rng.standard_normal((n, n))
        acc = np.zeros((n, n))
        for _ in range(m):
            w = sigma * sample_wigner(n, rng) * np.sqrt(n)
            acc += w @ r @ w
        sampled = acc / (m * n)
        closed = WignerSelfEnergy(sigma**2).apply(r)
        assert np.abs(sampled - closed).max() <= 0.15

    @pytest.mark.parametrize("se", [IsotropicSelfEnergy(0.8), WignerSelfEnergy(1.0)])
    def test_positivity_and_linearity_probes(self, se):
        rng = np.random.default_rng(22)
        min_eig, defect = check_self_energy(se, 6, rng, n_probes=100)
        assert min_eig >= -1e-12
        assert defect <= 1e-10

    def test_empirical_probes(self):
        rng = np.random.default_rng(23)
        se = EmpiricalSelfEnergy.from_samples([sample_wigner(6, rng) for _ in range(25)])
        min_eig, defect = check_self_energy(se, 6, rng, n_probes=100)
        assert min_eig >= -1e-12
        assert defect <= 1e-10

    def test_norms(self):
        assert self_energy_norm(IsotropicSelfEnergy(2.5), 7) == pytest.approx(2.5)
        assert self_energy_norm(ZeroSelfEnergy(), 7) == 0.0
        n = 9
        assert self_energy_norm(WignerSelfEnergy(1.0), n) == pytest.approx(1.0 + 1.0 / n)

    @pytest.mark.parametrize("make", [IsotropicSelfEnergy, WignerSelfEnergy])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, np.nan, np.inf])
    def test_strength_must_be_finite_and_nonnegative(self, make, value):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            make(value)
        assert np.array_equal(make(0.0).apply(np.eye(3)), np.zeros((3, 3)))

    def test_empirical_rejects_bad_samples(self):
        rng = np.random.default_rng(47)
        samples = [sample_wigner(4, rng) for _ in range(3)]
        samples[1][0, 2] += 1e-3
        with pytest.raises(DomainError, match="empirical sample 1 is not symmetric"):
            EmpiricalSelfEnergy.from_samples(samples)
        samples[1] = sample_wigner(4, rng)
        samples[2][3, 3] = np.nan
        with pytest.raises(DomainError, match="empirical sample 2 has non-finite entries"):
            EmpiricalSelfEnergy.from_samples(samples)

    def test_from_samples_accepts_what_its_check_accepts(self):
        # A skew of 1e-9 at entries of size 1e3 is within 1e-12 * max|m|, but
        # the centred fluctuations are of size 1, so a check on their scale fails.
        rng = np.random.default_rng(54)
        base = 1e3 * sample_wigner(4, rng)
        samples = [base.copy() for _ in range(3)]
        for i, skew in enumerate([0.0, 5e-10, 1e-9]):
            samples[i] += 0.1 * i * np.eye(4)
            samples[i][0, 1] += skew
        se = EmpiricalSelfEnergy.from_samples(samples)
        stack = np.stack(samples)
        assert np.array_equal(se.fluctuations, 2.0 * (stack - stack.mean(axis=0)))

    def test_from_samples_peak_is_about_one_stack(self):
        # the symmetry check holds one matrix at a time, not copies of the stack
        rng = np.random.default_rng(55)
        g = rng.standard_normal((16, 310, 310))
        samples = g + g.transpose(0, 2, 1)
        tracemalloc.start()
        try:
            se = EmpiricalSelfEnergy.from_samples(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert se.fluctuations.shape == samples.shape
        assert peak <= 1.2 * samples.nbytes

    @pytest.mark.parametrize("se", [IsotropicSelfEnergy(0.7), WignerSelfEnergy(1.3),
                                    ZeroSelfEnergy()], ids=["isotropic", "wigner", "zero"])
    def test_eigen_weights_are_apply_in_the_eigenbasis(self, se):
        rng = np.random.default_rng(48)
        n = 7
        _, basis = np.linalg.eigh(sample_wigner(n, rng))
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        full = se.apply((basis * values) @ basis.T)
        a, b = se.eigen_weights
        diagonal = (a * values.sum() + b * values) / n
        assert np.abs(basis.T @ full @ basis - np.diag(diagonal)).max() <= 1e-13


class _DenseOnly:
    """A self-energy that exposes only ``apply``, so the solver keeps full matrices."""

    def __init__(self, inner):
        self.inner = inner

    def apply(self, r):
        return self.inner.apply(r)


def dense_residual(a, self_energy, z, m):
    """Frobenius norm of ``I + (z - A + S[M]) M`` on full matrices."""
    n = a.shape[0]
    return float(np.linalg.norm(np.eye(n) + (z * np.eye(n) - a + self_energy.apply(m)) @ m))


class TestEigenbasisPath:
    @pytest.mark.parametrize("eta", [1e-1, 1e-3])
    @pytest.mark.parametrize("se", [IsotropicSelfEnergy(0.7), WignerSelfEnergy(1.3),
                                    ZeroSelfEnergy()], ids=["isotropic", "wigner", "zero"])
    def test_matches_dense_path(self, se, eta):
        # the dense path is the reference: same iteration, on full matrices
        rng = np.random.default_rng(49)
        n, tol = 12, 1e-10
        a = sample_wigner(n, rng)
        z_grid = np.linspace(-3, 3, 41) + 1j * eta
        fast = solve_mde(MDEProblem(a, se, z_grid), tol=tol)
        # The damped dense path stops just under tol; solved tighter, it
        # stays the more accurate side of the comparison.
        dense = solve_mde(MDEProblem(a, _DenseOnly(se), z_grid), tol=1e-13)
        assert fast.basis is not None and fast.values.shape == (41, n)
        assert dense.basis is None and dense.values.shape == (41, n, n)
        assert np.abs(fast.stieltjes - dense.stieltjes).max() <= 1e-9
        assert np.abs(fast.m - dense.m).max() <= 1e-8
        for z, m, reported in zip(z_grid, fast.m, fast.residuals):
            assert dense_residual(a, se, z, m) <= tol
            assert dense_residual(a, se, z, m) == pytest.approx(reported, rel=1e-6)

    def test_empirical_keeps_full_matrices(self):
        rng = np.random.default_rng(50)
        se = EmpiricalSelfEnergy.from_samples([sample_wigner(5, rng) for _ in range(6)])
        solution = solve_mde(MDEProblem(sample_wigner(5, rng), se, np.array([0.1 + 0.1j])))
        assert not hasattr(se, "eigen_weights")
        assert solution.basis is None
        assert solution.values.shape == (1, 5, 5)
        assert solution.m is solution.values

    def test_per_point_stats(self):
        # two bands at -5 and 5: the damped warm start across the gap needs
        # more than 40 steps, the ladder from the resolvent fewer at every
        # level (on the dense path; Newton steps cross the gap)
        a = np.diag([-5.0, -5.0, 5.0, 5.0])
        se = _DenseOnly(IsotropicSelfEnergy(0.01))
        z_grid = np.array([-5 + 1e-3j, 5 + 1e-3j])
        loose = solve_mde(MDEProblem(a, se, z_grid))
        assert loose.ladder_levels.dtype == np.int64
        # the first point has no neighbour: offsets 1, 0.1, 0.01, 0.001
        assert loose.ladder_levels.tolist() == [4, 0]
        assert np.all(loose.iterations >= 1)
        tight = solve_mde(MDEProblem(a, se, z_grid), max_iter=40)
        alone = solve_mde(MDEProblem(a, se, z_grid[1:]), max_iter=40)
        assert tight.ladder_levels.tolist() == [4, 4]
        # the failed warm start (40 steps and a final residual) counts too
        assert tight.iterations[1] == 41 + alone.iterations[0]

    @pytest.mark.parametrize("se", [IsotropicSelfEnergy(0.7), WignerSelfEnergy(1.3),
                                    ZeroSelfEnergy()], ids=["isotropic", "wigner", "zero"])
    def test_newton_step_solves_the_jacobian(self, se):
        # the Sherman-Morrison step against a dense solve of the explicit
        # Jacobian diag(k + b m / n) + (a / n) m 1^T of F(m) = 1 + k m
        rng = np.random.default_rng(56)
        n = 9
        eigenvalues = np.sort(rng.standard_normal(n))
        steps = _EigenSteps(eigenvalues, se.eigen_weights)
        a, b = se.eigen_weights
        for _ in range(20):
            m = rng.standard_normal(n) + 1j * rng.uniform(0.01, 2.0, n)
            z = rng.uniform(-3.0, 3.0) + 1j * rng.uniform(1e-3, 1.0)
            _, k = steps.residual(steps.shift(z), m)
            jacobian = np.diag(k + b * m / n) + (a / n) * np.outer(m, np.ones(n))
            step = np.linalg.solve(jacobian, -(1.0 + k * m))
            assert np.abs(steps.newton(m, k) - m - step).max() <= 1e-10 * np.abs(step).max()

    def test_newton_steps_per_point(self):
        # the bench's spectrum, the semicircle's 64 classical locations: 4 to
        # 5 residual evaluations at most points, where the damped fixed
        # point took about 45
        grid = np.linspace(-2.0, 2.0, 20001)
        a = np.diag(np.interp((np.arange(64) + 0.5) / 64, semicircle_cdf(grid), grid))
        z_grid = np.linspace(-3.0, 3.0, 121) + 1e-3j
        solution = solve_mde(MDEProblem(a, IsotropicSelfEnergy(1.0), z_grid))
        assert solution.iterations.mean() <= 8
        assert solution.residuals.max() <= 1e-10

    def test_no_point_of_the_bench_spectrum_takes_over_20_evaluations(self):
        # the shortened Newton steps: the edge points E = -2.8 and 2.85 took
        # 51 and 23 residual evaluations when a rejected full step fell back
        # to the damped step at once
        grid = np.linspace(-2.0, 2.0, 20001)
        a = np.diag(np.interp((np.arange(64) + 0.5) / 64, semicircle_cdf(grid), grid))
        z_grid = np.linspace(-3.0, 3.0, 121) + 1e-3j
        solution = solve_mde(MDEProblem(a, IsotropicSelfEnergy(1.0), z_grid))
        assert solution.iterations.max() <= 20
        assert solution.residuals.max() <= 1e-10

    def test_rejected_trial_backtracks_along_its_direction(self, monkeypatch):
        # a trial eight times the Newton step overshoots, and so do its half
        # and quarter; the eighth, the Newton step, is kept after five
        # residual evaluations
        newton = _EigenSteps.newton
        monkeypatch.setattr(_EigenSteps, "newton",
                            lambda self, m, k: m + 8.0 * (newton(self, m, k) - m))
        steps = _EigenSteps(np.array([-1.0, 0.5, 2.0]), IsotropicSelfEnergy(1.0).eigen_weights)
        z = 0.3 + 0.1j
        m0 = steps.target(steps.shift(z))
        _, k0 = steps.residual(steps.shift(z), m0)
        full = m0 + 8.0 * (newton(steps, m0, k0) - m0)
        want = [m0, full] + [m0 + s * (full - m0) for s in BACKTRACK]
        evaluated = []
        residual = steps.residual
        monkeypatch.setattr(steps, "residual",
                            lambda shift, m: (evaluated.append(m), residual(shift, m))[1])
        m, res, ok, count = _iterate(steps, z, m0, 1e-10, 5)
        assert all(np.array_equal(got, w) for got, w in zip(evaluated, want))
        assert not ok and count == 6
        assert np.array_equal(m, want[-1])
        assert res == residual(steps.shift(z), m)[0] < residual(steps.shift(z), m0)[0]

    def test_rejected_trial_counts_and_falls_back_to_a_damped_step(self, monkeypatch):
        # a trial with Im m < 0 is refused; the step from m0 is the damped
        # one, m0 / 2 - k^{-1} / 2, and three residuals were evaluated
        monkeypatch.setattr(_EigenSteps, "newton", lambda self, m, k: m.conj())
        steps = _EigenSteps(np.array([-1.0, 0.5, 2.0]), IsotropicSelfEnergy(1.0).eigen_weights)
        z = 0.3 + 0.1j
        m0 = steps.target(steps.shift(z))
        _, k0 = steps.residual(steps.shift(z), m0)
        m, res, ok, count = _iterate(steps, z, m0, 1e-10, 2)
        assert not ok and count == 3
        assert np.array_equal(m, 0.5 * m0 + 0.5 * steps.target(k0))
        assert res == steps.residual(steps.shift(z), m)[0]


@st.composite
def symmetric_matrices(draw, n):
    upper = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))
    a = np.triu(np.asarray(upper).reshape(n, n))
    return a + np.triu(a, 1).T


STRENGTHS = st.floats(0.0, 2.0)
EIGEN_SELF_ENERGIES = st.one_of(STRENGTHS.map(IsotropicSelfEnergy),
                                STRENGTHS.map(WignerSelfEnergy),
                                st.just(ZeroSelfEnergy()))
ETAS = st.sampled_from([1e-3, 1e-2, 1e-1, 0.5])
MATRICES = st.integers(1, 5).flatmap(symmetric_matrices)


class TestSolverProperties:
    @given(a=MATRICES, se=EIGEN_SELF_ENERGIES, eta=ETAS, dense=st.booleans())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_stieltjes_transform_in_upper_half_plane(self, a, se, eta, dense):
        z_grid = np.linspace(-3.0, 3.0, 13) + 1j * eta
        solution = solve_mde(MDEProblem(a, _DenseOnly(se) if dense else se, z_grid))
        assert np.all(solution.stieltjes.imag > 0.0)

    @given(n=st.integers(1, 4), se=EIGEN_SELF_ENERGIES, eta=ETAS, dense=st.booleans())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_density_is_even_for_zero_expectation(self, n, se, eta, dense):
        grid = np.linspace(-3.0, 3.0, 13)
        solution = solve_mde(MDEProblem(np.zeros((n, n)), _DenseOnly(se) if dense else se,
                                        grid + 1j * eta))
        density = stieltjes_invert(solution, grid, eta)
        assert symmetry_check(density) <= 1e-8 * max(1.0, float(density.density.max()))

    @given(a=MATRICES, se=EIGEN_SELF_ENERGIES, eta=ETAS)
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_eigenbasis_path_matches_dense_path(self, a, se, eta):
        z_grid = np.linspace(-3.0, 3.0, 13) + 1j * eta
        fast = solve_mde(MDEProblem(a, se, z_grid))
        dense = solve_mde(MDEProblem(a, _DenseOnly(se), z_grid), tol=1e-13)
        assert np.abs(fast.stieltjes - dense.stieltjes).max() <= 1e-9
        assert np.abs(fast.m - dense.m).max() <= 1e-8


class TestSolveMDE:
    def test_wigner_closed_form(self):
        grid = np.linspace(-3, 3, 121)
        eta = 1e-3
        problem = MDEProblem(np.zeros((8, 8)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        solution = solve_mde(problem)
        exact = wigner_stieltjes(grid + 1j * eta)
        assert np.abs(solution.stieltjes - exact).max() <= 1e-8
        assert solution.residuals.max() <= 1e-10

    def test_zero_self_energy_is_resolvent(self):
        a = np.diag([1.0, -0.5, 0.25, 2.0])
        z_grid = np.array([0.3 + 1e-3j, -1.0 + 1.0j, 2.5 + 1e-2j])
        solution = solve_mde(MDEProblem(a, ZeroSelfEnergy(), z_grid))
        for i, z in enumerate(z_grid):
            exact = -np.linalg.inv(z * np.eye(4) - a)
            assert np.abs(solution.m[i] - exact).max() <= 1e-8

    def test_imaginary_part_positive_definite(self):
        grid = np.linspace(-2.5, 2.5, 41)
        problem = MDEProblem(np.zeros((6, 6)), IsotropicSelfEnergy(1.0), grid + 1e-3j)
        solution = solve_mde(problem)
        for m in solution.m:
            im = (m - m.conj().T) / 2j
            assert np.linalg.eigvalsh(im).min() > 0.0

    @pytest.mark.parametrize("matrix_valued", [False, True])
    def test_conjugation_identity(self, matrix_valued):
        # with zero expectation matrix, mirrored spectral parameters give
        # negated conjugate solutions
        rng = np.random.default_rng(24)
        n = 10
        if matrix_valued:
            se = EmpiricalSelfEnergy.from_samples([sample_wigner(n, rng) for _ in range(25)])
        else:
            se = IsotropicSelfEnergy(1.0)
        grid = np.linspace(-2.5, 2.5, 51)  # symmetric grid
        problem = MDEProblem(np.zeros((n, n)), se, grid + 1e-3j)
        solution = solve_mde(problem, tol=1e-12)
        defect = 0.0
        for i, e in enumerate(grid):
            j = int(np.argmin(np.abs(grid + e)))
            defect = max(defect, float(np.abs(solution.m[j] + solution.m[i].conj().T).max()))
        assert defect <= 1e-8

    def test_nonconvergence_raises_with_residual(self):
        problem = MDEProblem(np.zeros((4, 4)), IsotropicSelfEnergy(1.0),
                             np.array([0.0 + 1e-4j]))
        with pytest.raises(ConvergenceError) as info:
            solve_mde(problem, max_iter=3)
        assert info.value.residual is not None

    @pytest.mark.parametrize("flags", [
        {"tol": 0.0}, {"tol": -1e-10}, {"tol": np.nan}, {"tol": np.inf}, {"max_iter": 0},
    ])
    def test_bad_tolerance_or_budget_refused_before_eigh(self, flags, monkeypatch):
        # refused at the boundary: with tol=0 the solver would run every
        # step and end in ConvergenceError, as no residual reaches 0
        def no_eigh(matrix):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        problem = MDEProblem(np.zeros((4, 4)), IsotropicSelfEnergy(1.0), np.array([1j]))
        with pytest.raises(DomainError, match=next(iter(flags))):
            solve_mde(problem, **flags)

    def test_invalid_grid_rejected(self):
        with pytest.raises(DomainError):
            MDEProblem(np.zeros((2, 2)), ZeroSelfEnergy(), np.array([1.0 + 0j]))

    def test_asymmetric_a_rejected(self):
        with pytest.raises(DomainError):
            MDEProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), ZeroSelfEnergy(), np.array([1j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_a_rejected(self, bad):
        with pytest.raises(DomainError, match="A has non-finite entries"):
            MDEProblem(np.array([[0.0, 1.0], [1.0, bad]]), ZeroSelfEnergy(), np.array([1j]))

    @pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(0.0, np.nan),
                                   complex(np.inf, 1.0), complex(0.0, np.inf)])
    def test_nonfinite_spectral_parameter_rejected(self, z):
        with pytest.raises(DomainError, match="must be finite"):
            MDEProblem(np.zeros((2, 2)), ZeroSelfEnergy(), np.array([1j, z]))

    def test_self_energy_size_mismatch_rejected(self):
        rng = np.random.default_rng(51)
        se = EmpiricalSelfEnergy.from_samples([sample_wigner(4, rng) for _ in range(3)])
        with pytest.raises(ShapeError, match="4x4 .* A is 3x3"):
            MDEProblem(np.zeros((3, 3)), se, np.array([1j]))


GRID = np.linspace(-2, 2, 9)


class TestStieltjesInversion:
    def test_point_mass(self):
        # the offset must stay above the grid spacing or the trapezoid rule
        # cannot resolve the smeared peak
        a_val = 0.7
        grid = np.linspace(a_val - 3, a_val + 3, 2401)
        eta = 0.05
        problem = MDEProblem(a_val * np.eye(3), ZeroSelfEnergy(), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        mass = np.trapezoid(density.density, density.grid)
        assert 0.97 <= mass <= 1.03
        assert grid[np.argmax(density.density)] == pytest.approx(a_val, abs=0.01)

    def test_wigner_center_value(self):
        grid = np.linspace(-3, 3, 121)
        eta = 1e-4
        problem = MDEProblem(np.zeros((8, 8)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        center = density.density[np.argmin(np.abs(grid))]
        assert center == pytest.approx(1.0 / np.pi, abs=2e-3)

    def test_wigner_support_clearance(self):
        grid = np.linspace(-4, 4, 201)
        eta = 1e-3
        problem = MDEProblem(np.zeros((4, 4)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        outside = np.abs(grid) > 2.0 + 3.0 * eta ** (2.0 / 3.0)
        assert density.density[outside].max() <= 2e-3

    def test_missing_point_rejected(self):
        problem = MDEProblem(np.zeros((2, 2)), ZeroSelfEnergy(), np.array([0.0 + 1e-3j]))
        solution = solve_mde(problem)
        with pytest.raises(DomainError):
            stieltjes_invert(solution, np.array([1.0]), 1e-3)

    def test_solved_grid_within_tolerance_accepted(self):
        solution = solve_mde(MDEProblem(np.eye(2), ZeroSelfEnergy(), GRID + 1e-2j))
        density = stieltjes_invert(solution, GRID * (1 + 1e-14), 1e-2)
        assert np.array_equal(density.density, solution.stieltjes.imag / np.pi)

    @pytest.mark.parametrize("energies, eta, first", [
        (GRID[::-1], 1e-2, 0), (GRID[::2], 1e-2, 1), (GRID[:5], 1e-2, 5), (GRID, 1e-1, 0),
    ], ids=["reordered", "every-other", "prefix", "other-eta"])
    def test_other_grid_rejected_at_its_first_differing_energy(self, energies, eta, first):
        # the density is read off the solution point for point, in order
        solved = GRID + 1e-2j
        solution = solve_mde(MDEProblem(np.eye(2), ZeroSelfEnergy(), solved))
        requested = str(energies[first] + 1j * eta) if first < energies.size else "nothing"
        with pytest.raises(DomainError, match=re.escape(
                f"at point {first}: requested {requested}, solved {solved[first]}")):
            stieltjes_invert(solution, energies, eta)

    def test_mass_conservation_on_mde_densities(self):
        grid = np.linspace(-3, 3, 241)
        eta = 1e-3
        for se in (IsotropicSelfEnergy(1.0), WignerSelfEnergy(1.0)):
            problem = MDEProblem(np.zeros((6, 6)), se, grid + 1j * eta)
            density = stieltjes_invert(solve_mde(problem), grid, eta)
            assert 0.97 <= np.trapezoid(density.density, density.grid) <= 1.03


class TestEmpiricalESD:
    def test_ks_to_semicircle(self):
        rng = np.random.default_rng(25)
        eigs = np.linalg.eigvalsh(sample_wigner(1000, rng))
        grid = np.linspace(-2.2, 2.2, 2001)
        assert ks_distance(eigs, grid, semicircle_cdf(grid)) <= 0.05

    def test_mde_vs_esd_l1(self):
        # pooled eigenvalue histogram against the bin-averaged solver density
        rng = np.random.default_rng(26)
        grid = np.linspace(-3, 3, 241)
        eta = 1e-3
        problem = MDEProblem(np.zeros((8, 8)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        cgrid, cdf = density_cdf(density)
        pooled = np.concatenate(
            [np.linalg.eigvalsh(sample_wigner(1000, rng)) for _ in range(20)]
        )
        hist, edges = np.histogram(pooled, bins=30, range=(-3, 3), density=True)
        widths = np.diff(edges)
        mde_bin = np.diff(np.interp(edges, cgrid, cdf)) / widths
        assert np.sum(np.abs(hist - mde_bin) * widths) <= 0.05


class TestSymmetry:
    def test_wigner_density_symmetric(self):
        grid = np.linspace(-3, 3, 121)
        eta = 1e-3
        problem = MDEProblem(np.zeros((6, 6)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem, tol=1e-12), grid, eta)
        assert symmetry_check(density) <= 1e-6

    def test_shifted_delta_is_asymmetric_control(self):
        grid = np.linspace(-2, 2, 161)
        eta = 1e-3
        problem = MDEProblem(np.eye(3), ZeroSelfEnergy(), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        assert symmetry_check(density) == pytest.approx(density.density.max(), rel=1e-6)

    def test_asymmetric_grid_rejected(self):
        density = SpectralDensity(np.array([-1.0, 0.0, 2.0]), np.zeros(3), eta=1e-3)
        with pytest.raises(DomainError):
            symmetry_check(density)


class TestSpectralDensity:
    @pytest.mark.parametrize("where", ["grid", "density"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entries_rejected(self, where, bad):
        values = {"grid": np.array([-1.0, 0.0, 1.0]), "density": np.array([0.5, 1.0, 0.5])}
        values[where][1] = bad
        with pytest.raises(DomainError, match="must be finite"):
            SpectralDensity(values["grid"], values["density"], eta=1e-3)


class TestSupportBound:
    def test_wigner_density_fits(self):
        grid = np.linspace(-3, 3, 241)
        eta = 1e-3
        problem = MDEProblem(np.zeros((6, 6)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        report = support_bound_check(density, problem.a_matrix, problem.self_energy)
        assert report.ok
        assert report.halfwidth == pytest.approx(2.0 + 1e-6 + 3 * eta ** (2 / 3), rel=1e-12)

    def test_zero_self_energy_eigenvalues_exact(self):
        a = np.diag([-1.0, 0.5, 2.0])
        report = support_bound_check(np.diag(a), a, ZeroSelfEnergy())
        assert report.ok
        assert report.halfwidth == pytest.approx(1e-6)

    def test_shifted_wigner_density(self):
        grid = np.linspace(-2, 4, 241)
        eta = 1e-3
        problem = MDEProblem(np.eye(6), IsotropicSelfEnergy(1.0), grid + 1j * eta)
        density = stieltjes_invert(solve_mde(problem), grid, eta)
        report = support_bound_check(density, problem.a_matrix, problem.self_energy)
        assert report.ok
        # support is the shifted interval [-1, 3]
        hot = density.grid[density.density > 1e-3]
        assert hot.min() >= -1.1 and hot.max() <= 3.1

    def test_sampled_matrix_with_finite_size_margin(self):
        # finite-size edge fluctuations need a visibly wider allowance than
        # the asymptotic interval
        rng = np.random.default_rng(27)
        h = np.eye(300) + sample_wigner(300, rng)
        eigs = np.linalg.eigvalsh(h)
        tight = support_bound_check(eigs, np.eye(300), IsotropicSelfEnergy(1.0))
        assert tight.worst_margin >= -0.25

    @pytest.mark.parametrize(
        "a, problem",
        [(np.array([[0.0, 1.0], [0.0, 0.0]]), "is not symmetric"),
         (np.array([[0.0, np.nan], [np.nan, 0.0]]), "has non-finite entries")],
        ids=["non-symmetric", "nan"],
    )
    def test_invalid_a_rejected(self, a, problem):
        with pytest.raises(DomainError, match=f"^expectation matrix A {problem}"):
            support_bound_check(np.zeros(2), a, ZeroSelfEnergy())


class TestCenteredHessians:
    def test_mean_is_exactly_zero(self):
        rng = np.random.default_rng(29)
        mats = sample_centered_hessians((5, 4, 3), 8, rng)
        assert np.abs(np.mean(mats, axis=0)).max() <= 1e-14

    def test_structure_zero_diagonal_blocks(self):
        rng = np.random.default_rng(30)
        mats = sample_centered_hessians((5, 4, 3), 4, rng)
        dims = (5 * 4, 4 * 3, 3)
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        for m in mats:
            assert m.shape == (sum(dims), sum(dims))
            for g in range(3):
                sl = slice(offsets[g], offsets[g + 1])
                assert np.abs(m[sl, sl]).max() == 0.0


    def test_peak_is_about_one_stack(self):
        # the samples fill one preallocated stack that is centred in place
        rng = np.random.default_rng(31)
        widths = _hessian_widths(300)
        n = sum(a * b for a, b in zip(widths, widths[1:])) + widths[-1]
        tracemalloc.start()
        try:
            mats = sample_centered_hessians(widths, 16, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mats[0].shape == (n, n)
        assert peak <= 1.5 * 16 * n * n * 8


def refusal_peak(call, match):
    """Peak traced bytes of ``call``, which must raise a CapacityError matching ``match``."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStackBudgets:
    # each refusal comes before the stack exists: nothing of its size is allocated

    def test_dense_solution_refused_before_allocation(self):
        class DenseOnly:  # no eigen_weights: the solver keeps n x n matrices
            def apply(self, r):
                return r

        n, points = 60, 3500  # 2 * 3500 * 60 * 60 = 25200000 entries
        problem = MDEProblem(np.zeros((n, n)), DenseOnly(), np.linspace(-1, 1, points) + 0.1j)
        assert refusal_peak(lambda: solve_mde(problem), (
            r"the dense MDE solution of 3500 grid points of 60x60 complex matrices"
            r" \(2 entries each\) needs 25200000 entries"
        )) < 1 << 20
        assert 2 * points * n * n > MAX_DENSE_ENTRIES

    def test_eigenbasis_solution_refused_before_allocation(self, monkeypatch):
        def solved(*args):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(errors, "MAX_DENSE_ENTRIES", 50)
        monkeypatch.setattr(rmt, "_solve_point", solved)
        problem = MDEProblem(np.zeros((4, 4)), IsotropicSelfEnergy(1.0),
                             np.linspace(-1, 1, 10) + 0.1j)
        with pytest.raises(CapacityError, match=r"the MDE solution of 10 grid points of 4"
                           r" complex eigenvalues \(2 entries each\) needs 80 entries"):
            solve_mde(problem)

    @pytest.mark.parametrize("dtype", [complex, str, bool], ids=["complex", "string", "bool"])
    def test_from_samples_refuses_what_is_not_real(self, dtype):
        g = np.random.default_rng(59).standard_normal((3, 2, 2))
        samples = (g + g.transpose(0, 2, 1)).astype(dtype)
        with pytest.raises(DomainError, match=f"got dtype {re.escape(str(samples.dtype))}$"):
            EmpiricalSelfEnergy.from_samples(samples)
        with pytest.raises(DomainError, match="must hold real numbers"):
            EmpiricalSelfEnergy.from_samples(list(samples))

    def test_load_problem_refuses_complex_samples_from_the_header(self, tmp_path):
        # a sparse file of complex samples: refused on its dtype, its data never read
        path = tmp_path / "complex.npy"
        with open(path, "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle, {"descr": "<c16", "fortran_order": False, "shape": (3, 1000, 1000)}
            )
            handle.truncate(handle.tell() + 3 * 1000 * 1000 * 16)
        doc = {"A": [[0.0]], "S": {"kind": "empirical", "samples": str(path)}}
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="got dtype complex128$"):
                load_problem_json(doc, 0.1, np.zeros(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the samples would be 48 MB

    def test_from_samples_refused_before_stacking(self):
        samples = np.broadcast_to(np.zeros(()), (26, 1000, 1000))  # no memory behind it
        assert refusal_peak(
            lambda: EmpiricalSelfEnergy.from_samples(samples),
            r"a stack of 26 empirical samples of shape \(1000, 1000\) needs 26000000 entries",
        ) < 1 << 20

    def test_load_problem_refused_from_the_header(self, tmp_path):
        # a sparse file: the header declares 26 x 1000 x 1000 floats, and the
        # data is never read
        path = tmp_path / "big.npy"
        with open(path, "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle, {"descr": "<f8", "fortran_order": False, "shape": (26, 1000, 1000)}
            )
            handle.truncate(handle.tell() + 26 * 1000 * 1000 * 8)
        doc = tmp_path / "problem.json"
        doc.write_text(
            '{"A": [[0.0]], "S": {"kind": "empirical", "samples": "%s"}}' % path.as_posix()
        )
        assert refusal_peak(
            lambda: load_problem_json(doc, 0.1, np.zeros(3)),
            r"empirical samples of shape \(26, 1000, 1000\) needs 26000000 entries",
        ) < 1 << 20

    @pytest.mark.parametrize("samples", [5, None, [1.0]], ids=["int", "null", "list"])
    def test_load_problem_needs_a_samples_path(self, tmp_path, samples):
        doc = tmp_path / "problem.json"
        doc.write_text(json.dumps({"A": [[0.0]], "S": {"kind": "empirical", "samples": samples}}))
        with pytest.raises(DomainError, match="cannot load empirical samples"):
            load_problem_json(doc, 0.1, np.zeros(3))

    def test_relative_samples_read_beside_a_document_path(self, tmp_path, monkeypatch):
        # a document given as a path reads relative samples beside itself;
        # a dict or an open file reads them from the working directory
        sub = tmp_path / "sub"
        sub.mkdir()
        g = np.random.default_rng(57).standard_normal((3, 2, 2))
        np.save(sub / "s.npy", g + g.transpose(0, 2, 1))
        doc = {"A": [[0.0, 0.0], [0.0, 0.0]], "S": {"kind": "empirical", "samples": "s.npy"}}
        (sub / "p.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        for source in ("sub/p.json", sub / "p.json", Path("sub") / "p.json"):
            assert load_problem_json(source, 0.1, np.zeros(3)).self_energy.n == 2
        with open(sub / "p.json", encoding="utf-8") as handle:
            with pytest.raises(DomainError, match="cannot load empirical samples"):
                load_problem_json(handle, 0.1, np.zeros(3))
        with pytest.raises(DomainError, match="cannot load empirical samples"):
            load_problem_json(doc, 0.1, np.zeros(3))
        monkeypatch.chdir(sub)
        assert load_problem_json(doc, 0.1, np.zeros(3)).self_energy.n == 2

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)], ids=["scalar", "vector", "matrix"])
    def test_load_problem_needs_a_stack(self, tmp_path, shape):
        path = tmp_path / "samples.npy"
        np.save(path, np.zeros(shape))
        doc = tmp_path / "problem.json"
        doc.write_text(
            '{"A": [[0.0]], "S": {"kind": "empirical", "samples": "%s"}}' % path.as_posix()
        )
        with pytest.raises(ShapeError, match="empirical samples must form a stack of square"):
            load_problem_json(doc, 0.1, np.zeros(3))


def test_semicircle_forms_consistent():
    # trapezoid error near the square-root edges decays like h^(3/2)
    grid = np.linspace(-2, 2, 1001)
    dens = semicircle_density(grid)
    cdf = semicircle_cdf(grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)
    mid = np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))
    assert np.abs(mid - cdf[1:]).max() <= 1e-4
    assert dens[500] == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_empirical_self_energy_accepts_hessian_blocks():
    rng = np.random.default_rng(46)
    from dysonnet.hessian import sample_hessian
    from dysonnet.net import LossL0, NetworkParams

    params = NetworkParams((rng.standard_normal((3, 2)),), rng.standard_normal(2))
    blocks = [
        sample_hessian(params, LossL0.HINGE, rng.standard_normal(3),
                       float(rng.choice([-1.0, 1.0])))
        for _ in range(4)
    ]
    se = EmpiricalSelfEnergy.from_samples(blocks)
    n = blocks[0].n
    assert se.fluctuations.shape == (4, n, n)
    min_eig, defect = check_self_energy(se, n, rng, n_probes=20)
    assert min_eig >= -1e-12
    assert defect <= 1e-10
