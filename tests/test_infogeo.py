"""Exponential-family coordinates, divergences and the likelihood identity."""

import itertools
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dysonnet import expfam, infogeo
from dysonnet.errors import CapacityError, DomainError, ShapeError
from dysonnet.expfam import (
    ConvexFunction,
    ExpFamilyModel,
    bernoulli_entropy,
    bregman_divergence,
    dual_of,
    log_partition_of,
    neuron_coordinates,
    quadratic_potential,
)
from dysonnet.infogeo import (
    LayeredDiscreteModel,
    contraction_check,
    decompose_likelihood,
    fp_bp_semantics_check,
    kl_divergence,
    posterior_assignments,
    top_kl_gradient,
    top_scale_kl,
)
from dysonnet.kernels import ActivationRule, KernelSpec, conditional_group_law, estimate_indicator


def bernoulli():
    return ExpFamilyModel([0.0, 1.0], lambda x: x)


class TestNeuronCoordinates:
    def test_bernoulli_at_zero(self):
        coords = neuron_coordinates(bernoulli(), [0.0], None)
        assert coords.eta[0] == pytest.approx(0.5, abs=1e-12)

    def test_saturation(self):
        coords = neuron_coordinates(bernoulli(), [30.0], None)
        assert coords.eta[0] == pytest.approx(1.0, abs=1e-9)

    def test_three_point_support(self):
        model = ExpFamilyModel([0.0, 1.0, 2.0], lambda x: x)
        coords = neuron_coordinates(model, [np.log(2.0)], None)
        assert coords.eta[0] == pytest.approx(10.0 / 7.0, abs=1e-10)

    def test_composition_selects_natural_parameter(self):
        w = np.array([[0.5, -0.25]])
        model = ExpFamilyModel(
            [0.0, 1.0], lambda x: x, composition=lambda theta, h: np.asarray(theta) @ h
        )
        h = np.array([1.0, 2.0])
        coords = neuron_coordinates(model, w, h)
        t = float((w @ h)[0])
        assert coords.eta[0] == pytest.approx(1 / (1 + np.exp(-t)), abs=1e-10)
        assert coords.h_context is h

    def test_mean_inside_hull(self):
        rng = np.random.default_rng(31)
        model = ExpFamilyModel(rng.standard_normal((6, 2)), lambda x: x)
        for _ in range(50):
            eta = model.mean(rng.standard_normal(2))
            lo = model.support.min(axis=0) - 1e-12
            hi = model.support.max(axis=0) + 1e-12
            assert np.all(eta >= lo) and np.all(eta <= hi)

    def test_log_partition_convex(self):
        rng = np.random.default_rng(32)
        model = ExpFamilyModel(rng.standard_normal((5, 2)), lambda x: x)
        for _ in range(200):
            a, b = rng.standard_normal((2, 2)) * 2
            mid = model.log_partition((a + b) / 2)
            assert mid <= (model.log_partition(a) + model.log_partition(b)) / 2 + 1e-10


class TestBregman:
    def test_quadratic_is_half_squared_distance(self):
        f = quadratic_potential()
        assert bregman_divergence(f, [1.0, 2.0], [2.0, 0.0]) == pytest.approx(2.5)
        assert bregman_divergence(f, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_bernoulli_dual_matches_kl(self):
        f = bernoulli_entropy()
        expected = kl_divergence([0.75, 0.25], [0.5, 0.5])
        assert bregman_divergence(f, [0.5], [0.75]) == pytest.approx(expected, abs=1e-12)

    def test_asymmetry_witness(self):
        f = bernoulli_entropy()
        forward_d = bregman_divergence(f, [0.5], [0.9])
        backward_d = bregman_divergence(f, [0.9], [0.5])
        assert forward_d == pytest.approx(kl_divergence([0.9, 0.1], [0.5, 0.5]), abs=1e-12)
        assert backward_d == pytest.approx(kl_divergence([0.5, 0.5], [0.9, 0.1]), abs=1e-12)
        assert forward_d != backward_d

    def test_nonnegative_and_identity(self):
        rng = np.random.default_rng(33)
        f = bernoulli_entropy()
        for _ in range(500):
            eta = rng.uniform(0.01, 0.99, size=3)
            eta_p = rng.uniform(0.01, 0.99, size=3)
            d = bregman_divergence(f, eta, eta_p)
            assert d >= 0.0
            assert bregman_divergence(f, eta, eta) == 0.0

    def test_domain_error_outside(self):
        with pytest.raises(DomainError):
            bregman_divergence(bernoulli_entropy(), [0.5], [1.5])

    def test_legendre_involution(self):
        model = bernoulli()
        dual = dual_of(model)
        rng = np.random.default_rng(34)
        for _ in range(50):
            theta = rng.standard_normal(1) * 3
            eta = model.mean(theta)
            assert np.abs(dual.grad(eta) - theta).max() <= 1e-7

    def test_duality_identity(self):
        # divergence of the dual at swapped mean coordinates equals the
        # divergence of the log-partition at the natural coordinates
        model = bernoulli()
        dual = dual_of(model)
        primal = log_partition_of(model)
        rng = np.random.default_rng(35)
        for _ in range(50):
            t1, t2 = rng.standard_normal(2) * 2
            e1, e2 = model.mean([t1]), model.mean([t2])
            lhs = bregman_divergence(dual, e1, e2)
            rhs = bregman_divergence(primal, [t2], [t1])
            assert abs(lhs - rhs) <= 1e-8

    def test_numeric_dual_matches_closed_form(self):
        model = bernoulli()
        closed = bernoulli_entropy()
        for eta in (0.1, 0.35, 0.5, 0.82):
            assert model.psi_star([eta]) == pytest.approx(closed.value([eta]), abs=1e-10)


class TestMeanToNatural:
    # statistics (x, x^2) on {0, 1, 2}: the hull is the triangle with
    # vertices (0, 0), (1, 1) and (2, 4), inside the box [0, 2] x [0, 4]
    @staticmethod
    def model():
        return ExpFamilyModel([0.0, 1.0, 2.0], lambda x: np.concatenate([x, x * x]))

    def test_inverts_the_mean_map(self):
        model = self.model()
        rng = np.random.default_rng(41)
        for _ in range(50):
            eta = model.mean(rng.standard_normal(2) * 2)
            back = model.mean(model.mean_to_natural(eta))
            assert np.abs(back - eta).max() <= expfam.DUAL_TOL * max(1.0, np.abs(eta).max())

    @pytest.mark.parametrize("eta", [[0.5], [0.5, 1.0, 1.0], [[0.5, 1.0]]])
    def test_wrong_shape_refused(self, eta):
        with pytest.raises(ShapeError):
            self.model().mean_to_natural(eta)

    @pytest.mark.parametrize("eta", [
        (3.0, 1.0),  # outside the box
        (1.0, 3.0),  # inside the box, above the edge from (0, 0) to (2, 4)
        (1.0, 1.0),  # a vertex
        (0.5, 1.0),  # on the edge from (0, 0) to (2, 4)
        (1.5, 2.5),  # on the edge from (1, 1) to (2, 4)
    ])
    def test_outside_or_on_the_boundary_refused(self, eta):
        with pytest.raises(DomainError, match="hull"):
            self.model().mean_to_natural(eta)

    @pytest.mark.parametrize("support, stat, eta", [
        # product Bernoulli on {0, 1}^5, 0.01 from every face: p(1, ..., 1) = 1e-10
        (list(itertools.product([0.0, 1.0], repeat=5)), lambda x: x, np.full(5, 0.01)),
        # the statistic x on {0, ..., 4} at 1e-3: p_4 is about 1e-12
        (np.arange(5.0), lambda x: x, np.array([1e-3])),
        # (x, x^2) on {0, 0.01, 0.02} at natural parameter (300, -20000)
        ([0.0, 0.01, 0.02], lambda x: np.concatenate([x, x * x]), None),
    ], ids=["product-bernoulli", "line", "fine-spacing"])
    def test_near_the_boundary_round_trips(self, support, stat, eta):
        model = ExpFamilyModel(np.asarray(support), stat)
        if eta is None:
            eta = model.mean([300.0, -20000.0])
        back = model.mean(model.mean_to_natural(eta))
        assert np.abs(back - eta).max() <= expfam.DUAL_TOL * max(1.0, np.abs(eta).max())

    def test_off_the_affine_hull_refused(self):
        # statistics (x, 2x) on {0, 1, 2} lie on a line; means on it invert
        model = ExpFamilyModel([0.0, 1.0, 2.0], lambda x: np.concatenate([x, 2 * x]))
        assert np.abs(model.mean(model.mean_to_natural([1.0, 2.0])) - [1.0, 2.0]).max() <= 1e-10
        with pytest.raises(DomainError, match="hull"):
            model.mean_to_natural([1.0, 1.5])


class TestContraction:
    def test_identity_kernels_preserve(self):
        p = np.array([0.3, 0.2, 0.5])
        q = np.array([0.25, 0.5, 0.25])
        stages = contraction_check(p, q, [np.eye(3), np.eye(3)])
        assert np.allclose(stages, stages[0])

    def test_total_collapse(self):
        p = np.array([0.3, 0.2, 0.5])
        q = np.array([0.25, 0.5, 0.25])
        stages = contraction_check(p, q, [np.full((3, 4), 0.25)])
        assert stages[-1] == 0.0

    def test_random_chains_never_increase(self):
        rng = np.random.default_rng(36)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            kernels = [
                rng.dirichlet(np.ones(4), size=5),
                rng.dirichlet(np.ones(3), size=4),
                rng.dirichlet(np.ones(6), size=3),
            ]
            stages = contraction_check(p, q, kernels)
            assert np.all(np.diff(stages) <= 1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            contraction_check([0.5, 0.6], [0.5, 0.5], [])
        with pytest.raises(DomainError):
            contraction_check([0.5, 0.5], [0.5, 0.5], [np.array([[0.5, 0.4], [0.5, 0.5]])])
        with pytest.raises(DomainError):
            contraction_check([0.5, 0.5], [0.5, 0.5], [np.array([[np.nan, 1.0], [0.5, 0.5]])])


def binary_scale_model(p1=0.2):
    # single binary scale whose conditional law at the observed input is (1-p1, p1)
    w = np.array([[np.log(p1 / (1 - p1))]])
    return LayeredDiscreteModel(np.array([[1.0]]), (KernelSpec(w, "01"),))


def random_two_scale(rng, n_x=4, d=2, w1=3, w2=2):
    scales = (
        KernelSpec(rng.standard_normal((d, w1)), "01"),
        KernelSpec(rng.standard_normal((w1, w2)), rng.choice(["01", "pm1"])),
    )
    return LayeredDiscreteModel(rng.standard_normal((n_x, d)), scales)


class TestDecomposition:
    def test_posterior_makes_bound_tight(self):
        model = binary_scale_model()
        data = np.array([1.0])
        posterior = posterior_assignments(model, data)
        report = decompose_likelihood(model, data, posterior)
        assert report.kl_terms[0] == pytest.approx(0.0, abs=1e-14)
        assert report.expected_ll == pytest.approx(report.complete_ll, abs=1e-12)

    def test_uniform_vs_skewed_posterior(self):
        model = binary_scale_model(0.2)
        report = decompose_likelihood(model, np.array([1.0]), [np.array([0.5, 0.5])])
        expected = kl_divergence([0.5, 0.5], [0.8, 0.2])
        assert report.kl_terms[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2231, abs=5e-5)
        assert report.identity_defect <= 1e-10

    def test_hundred_random_two_scale_models(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            model = random_two_scale(rng)
            data = rng.dirichlet(np.ones(4))
            nu = [
                rng.dirichlet(np.ones(model.scale_states(0).shape[0])),
                rng.dirichlet(np.ones(model.scale_states(1).shape[0])),
            ]
            report = decompose_likelihood(model, data, nu)
            assert report.identity_defect <= 1e-10
            assert all(term >= 0.0 for term in report.kl_terms)
            assert report.expected_ll <= report.complete_ll + 1e-12

    def test_capacity_error(self, monkeypatch):
        rng = np.random.default_rng(42)
        scales = (KernelSpec(rng.standard_normal((2, 8)), "01"),)
        model = LayeredDiscreteModel(rng.standard_normal((4, 2)), scales)
        monkeypatch.setattr(infogeo, "MAX_CONDITIONAL_ENTRIES", 100)
        with pytest.raises(CapacityError):
            decompose_likelihood(model, np.full(4, 0.25), [np.full(256, 1 / 256)])

    def test_budget_counts_the_held_conditionals(self, monkeypatch):
        # 50 * 8**10 joint states, but only 50 * 10 * 8 conditional entries
        rng = np.random.default_rng(55)
        dims = [2] + [3] * 10
        scales = tuple(KernelSpec(rng.standard_normal((a, b)), "01")
                       for a, b in zip(dims, dims[1:]))
        model = LayeredDiscreteModel(rng.standard_normal((50, 2)), scales)
        nu = [rng.dirichlet(np.ones(8)) for _ in scales]
        report = decompose_likelihood(model, rng.dirichlet(np.ones(50)), nu)
        assert report.identity_defect <= 1e-10
        monkeypatch.setattr(infogeo, "MAX_CONDITIONAL_ENTRIES", 3999)
        with pytest.raises(CapacityError, match="hold 4000 entries .*budget 3999"):
            decompose_likelihood(model, np.full(50, 0.02), nu)

    def test_zero_probability_conditioning(self):
        # saturated kernel drives one conditional to exactly zero
        w = np.array([[800.0]])
        model = LayeredDiscreteModel(np.array([[1.0]]), (KernelSpec(w, "01"),))
        with pytest.raises(DomainError) as info:
            decompose_likelihood(model, np.array([1.0]), [np.array([0.5, 0.5])])
        assert "state" in str(info.value)

    def test_invalid_nu_rejected(self):
        model = binary_scale_model()
        with pytest.raises(DomainError):
            decompose_likelihood(model, np.array([1.0]), [np.array([0.7, 0.7])])


def conditionals_by_states(model, x):
    """Per-scale conditionals at one point, computed state by state."""
    t = np.asarray(x, dtype=float)
    pmfs = []
    for s, spec in enumerate(model.scales):
        law = conditional_group_law(spec, t)
        states = model.scale_states(s)
        pmfs.append(np.prod(np.where(states == spec.values[1], law[:, 1], law[:, 0]), axis=1))
        t, _ = estimate_indicator(infogeo.TRANSPORT_RULE, spec.weight.T @ t)
    return pmfs


def joint_enumeration(model, data, nu):
    """Reference decomposition: the joint over every scale's states, point by point.

    Returns ``(complete_ll, expected_ll, kl_terms)``.
    """
    nus = [np.asarray(v, dtype=float) for v in nu]
    log_nus = [np.where(v > 0, np.log(np.where(v > 0, v, 1.0)), -np.inf) for v in nus]
    complete = 0.0
    expected = 0.0
    kl_terms = np.zeros(model.n_scales)
    for w, x in zip(data, model.x_support):
        if w == 0.0:
            continue
        conds = conditionals_by_states(model, x)
        for s, (cond, v) in enumerate(zip(conds, nus)):
            bad = np.flatnonzero((v > 0) & (cond == 0))
            if bad.size:
                state = model.scale_states(s)[bad[0]]
                raise DomainError(
                    f"assigned pmf at scale {s} weights state {state} with zero conditional probability"
                )
            kl_terms[s] += w * kl_divergence(v, cond)
        with np.errstate(divide="ignore"):
            log_conds = [np.log(c) for c in conds]
        log_joint = reduce(np.add.outer, log_conds)
        q_joint = reduce(np.multiply.outer, nus)
        log_q = reduce(np.add.outer, log_nus)
        marginal = float(np.exp(np.logaddexp.reduce(log_joint.ravel())))
        complete += w * float(np.log(w * marginal))
        active = q_joint > 0
        expected += w * float(
            np.sum(q_joint[active] * (np.log(w) + log_joint[active] - log_q[active]))
        )
    return complete, expected, kl_terms


def random_layered_model(rng, monkeypatch):
    """A random model, with a random ``TRANSPORT_RULE`` set for it."""
    dim = int(rng.integers(1, 4))
    support = rng.standard_normal((int(rng.integers(1, 5)), dim))
    scales = []
    for _ in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, 4))
        scales.append(KernelSpec(2.0 * rng.standard_normal((dim, width)),
                                 str(rng.choice(["01", "pm1"]))))
        dim = width
    rule = list(ActivationRule)[int(rng.integers(len(ActivationRule)))]
    monkeypatch.setattr(infogeo, "TRANSPORT_RULE", rule)
    return LayeredDiscreteModel(support, scales)


def sparse_pmf(rng, size):
    """Random pmf whose entries are zero with probability 0.3 (one stays positive)."""
    p = rng.dirichlet(np.ones(size))
    p[rng.random(size) < 0.3] = 0.0
    p[int(rng.integers(size))] += 0.1
    return p / p.sum()


class TestJointEnumerationOracle:
    def test_per_scale_path_matches_joint_enumeration(self, monkeypatch):
        rng = np.random.default_rng(46)
        compared = 0
        for _ in range(200):
            model = random_layered_model(rng, monkeypatch)
            n_x = model.x_support.shape[0]
            batched = model.conditionals(model.x_support)
            for i, x in enumerate(model.x_support):
                single = model.conditionals(x)
                for s, cond in enumerate(conditionals_by_states(model, x)):
                    assert single[s].ndim == 1
                    assert np.abs(single[s] - cond).max() <= 1e-15
                    assert np.abs(batched[s][i] - cond).max() <= 1e-15
            data = sparse_pmf(rng, n_x)
            nu = [sparse_pmf(rng, 2 ** spec.out_dim) for spec in model.scales]
            try:
                report = decompose_likelihood(model, data, nu)
            except DomainError:
                # a saturated kernel gives an assigned state zero probability
                with pytest.raises(DomainError):
                    joint_enumeration(model, data, nu)
                continue
            compared += 1
            complete, expected, kl_terms = joint_enumeration(model, data, nu)
            assert abs(report.complete_ll - complete) <= 1e-12
            assert abs(report.expected_ll - expected) <= 1e-12
            assert np.abs(np.asarray(report.kl_terms) - kl_terms).max() <= 1e-12
        assert compared >= 150

    @pytest.mark.parametrize("field, state", [("01", "[0.]"), ("pm1", "[-1.]")])
    def test_zero_conditional_names_scale_and_state(self, field, state):
        # the top kernel saturates, so its inactive state has probability 0
        scales = (KernelSpec(np.full((2, 2), 5.0), "01"),
                  KernelSpec(np.full((2, 1), 800.0), field))
        model = LayeredDiscreteModel(np.array([[1.0, 1.0], [0.5, 2.0]]), scales)
        data = np.array([0.25, 0.75])
        nu = [np.full(4, 0.25), np.array([0.5, 0.5])]
        with pytest.raises(DomainError) as per_scale:
            decompose_likelihood(model, data, nu)
        with pytest.raises(DomainError) as joint:
            joint_enumeration(model, data, nu)
        assert str(per_scale.value) == str(joint.value)
        assert "scale 1" in str(per_scale.value)
        assert f"state {state}" in str(per_scale.value)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda m: decompose_likelihood(m, [np.nan], [[0.5, 0.5]]), "data"),
        (lambda m: decompose_likelihood(m, [1.0], [[np.nan, 0.5]]), "nu[0]"),
        (lambda m: top_scale_kl(m, [1.0], [0.5, np.inf]), "top_nu"),
        (lambda m: contraction_check([np.nan, 1.0], [0.5, 0.5], []), "p"),
        (lambda m: contraction_check([0.5, 0.5], [0.5, np.nan], []), "q"),
    ],
)
def test_nonfinite_pmf_rejected(call, name):
    with pytest.raises(DomainError, match=f"^{re.escape(name)} has non-finite entries"):
        call(binary_scale_model())


def test_top_nu_length_checked():
    rng = np.random.default_rng(56)
    model = random_two_scale(rng)
    data = rng.dirichlet(np.ones(4))
    for call in (top_scale_kl, top_kl_gradient):
        with pytest.raises(ShapeError, match=r"^top_nu has 3 entries, scale has 4 states"):
            call(model, data, np.full(3, 1 / 3))


class TestFpBp:
    def test_posterior_beats_competitors(self):
        rng = np.random.default_rng(43)
        model = random_two_scale(rng)
        data = rng.dirichlet(np.ones(4))
        report = fp_bp_semantics_check(model, data, rng)
        assert report.fp_ok
        assert report.best_competitor_ll <= report.posterior_ll + 1e-12

    def test_gradient_step_decreases_supervised_kl(self):
        rng = np.random.default_rng(44)
        model = random_two_scale(rng)
        data = rng.dirichlet(np.ones(4))
        report = fp_bp_semantics_check(model, data, rng)
        assert report.bp_ok
        assert report.kl_after < report.kl_before

    def test_stationary_at_exact_match(self):
        rng = np.random.default_rng(45)
        model = random_two_scale(rng)
        data = np.array([1.0, 0.0, 0.0, 0.0])
        target = model.conditionals(model.x_support[0])[-1]
        grad = top_kl_gradient(model, data, target)
        assert np.abs(grad).max() <= 1e-8
        # a descent step from the optimum cannot help
        assert top_scale_kl(model, data, target) == pytest.approx(0.0, abs=1e-12)


def test_kl_divergence_conventions():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf
    assert kl_divergence([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_convex_function_dataclass():
    f = ConvexFunction(value=lambda e: float(np.sum(e)), grad=lambda e: np.ones_like(e))
    assert bregman_divergence(f, [1.0], [3.0]) == 0.0


class TestPropertyBased:
    """Hypothesis sweeps over divergence identities."""

    @given(hnp.arrays(np.float64, 4, elements=st.floats(0.01, 10)),
           hnp.arrays(np.float64, 4, elements=st.floats(0.01, 10)),
           hnp.arrays(np.float64, (4, 3), elements=st.floats(0.01, 10)))
    @settings(max_examples=300, deadline=None)
    def test_single_kernel_never_increases_kl(self, p_raw, q_raw, k_raw):
        p = p_raw / p_raw.sum()
        q = q_raw / q_raw.sum()
        kernel = k_raw / k_raw.sum(axis=1, keepdims=True)
        stages = contraction_check(p, q, [kernel])
        assert stages[1] <= stages[0] + 1e-12

    @given(hnp.arrays(np.float64, 3, elements=st.floats(0.05, 0.95)),
           hnp.arrays(np.float64, 3, elements=st.floats(0.05, 0.95)))
    @settings(max_examples=300, deadline=None)
    def test_bernoulli_divergence_nonnegative(self, eta, eta_prime):
        d = bregman_divergence(bernoulli_entropy(), eta, eta_prime)
        assert d >= 0.0
        if np.array_equal(eta, eta_prime):
            assert d == 0.0
