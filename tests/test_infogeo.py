"""KL divergence, its contraction and the likelihood identity."""

import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dysonnet import infogeo
from dysonnet.errors import CapacityError, DomainError, ShapeError
from dysonnet.infogeo import (
    LayeredDiscreteModel,
    contraction_check,
    decompose_likelihood,
    kl_divergence,
    posterior_assignments,
)
from dysonnet.kernels import ActivationRule, KernelSpec, conditional_group_law, estimate_indicator


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


class TestFpBp:
    """Forward-pass semantics: the posterior assignments maximize the expected term."""

    def test_posterior_beats_competitors(self):
        # no random assignment of the same scales does better
        rng = np.random.default_rng(43)
        model = random_two_scale(rng)
        data = rng.dirichlet(np.ones(4))
        posterior = posterior_assignments(model, data)
        best = decompose_likelihood(model, data, posterior).expected_ll
        for _ in range(200):
            competitor = [rng.dirichlet(np.ones(p.shape[0])) for p in posterior]
            assert decompose_likelihood(model, data, competitor).expected_ll <= best + 1e-12


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
        (lambda m: contraction_check([np.nan, 1.0], [0.5, 0.5], []), "p"),
        (lambda m: contraction_check([0.5, 0.5], [0.5, np.nan], []), "q"),
    ],
)
def test_nonfinite_pmf_rejected(call, name):
    with pytest.raises(DomainError, match=f"^{re.escape(name)} has non-finite entries"):
        call(binary_scale_model())


def test_nu_length_checked():
    rng = np.random.default_rng(56)
    model = random_two_scale(rng)
    data = rng.dirichlet(np.ones(4))
    nu = [np.full(8, 1 / 8), np.full(3, 1 / 3)]
    with pytest.raises(ShapeError, match=r"^nu\[1\] has 3 entries, scale has 4 states"):
        decompose_likelihood(model, data, nu)


def test_kl_divergence_conventions():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf
    assert kl_divergence([0.0, 1.0], [0.0, 1.0]) == 0.0


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
