"""Forward evaluation, loss class properties, risk and analytic gradients."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonnet.errors import DomainError, ShapeError
from dysonnet.kernels import ActivationRule, estimate_indicator
from dysonnet.net import (
    Dataset,
    LossL0,
    NetworkParams,
    _backprop_deltas,
    flatten_params,
    forward,
    load_dataset_csv,
    loss,
    network_from_chain_json,
    network_to_chain_json,
    param_group_dims,
    save_dataset_csv,
    unflatten_params,
)
from dysonnet.poset import build_s_system, load_network_json
from oracles import empirical_risk, evaluate_plan, risk_gradient


def random_net(rng, rule=ActivationRule.ARGMAX_MASK_01, max_width=6, max_depth=4):
    depth = int(rng.integers(2, max_depth + 1))
    widths = rng.integers(1, max_width + 1, size=depth)
    weights = tuple(
        rng.standard_normal((widths[i], widths[i + 1])) for i in range(depth - 1)
    )
    return NetworkParams(weights, rng.standard_normal(widths[-1]), rule)


def naive_score(params, x):
    """Independent interpreter: builds the masked matrix product literally."""
    t = np.asarray(x, dtype=float)
    matrix = np.eye(t.size)
    current = t
    for w in params.weights:
        pre = current @ w
        estimated, _ = estimate_indicator(params.rule, pre)
        with np.errstate(invalid="ignore", divide="ignore"):
            mask = np.where(pre != 0.0, estimated / pre, 0.0)
        matrix = matrix @ w @ np.diag(mask)
        current = estimated
    return float(t @ matrix @ params.alpha)


class TestForward:
    def test_fully_active_is_linear(self):
        params = NetworkParams((np.array([[0.7]]),), np.array([0.4]))
        score, states = forward(params, np.array([1.0]))
        assert score == pytest.approx(0.7 * 0.4, abs=0)
        assert states[0].h_prime[0] == 1.0

    def test_all_negative_mask_zeroes(self):
        params = NetworkParams((np.array([[1.0, 1.0]]),), np.array([3.0, -2.0]))
        score, states = forward(params, np.array([-2.0]))
        assert score == 0.0
        assert np.array_equal(states[0].h_tilde, [0.0, 0.0])

    def test_matches_naive_interpreter(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            params = random_net(rng)
            x = rng.standard_normal(params.input_dim)
            score, _ = forward(params, x)
            assert score == pytest.approx(naive_score(params, x), rel=1e-12, abs=1e-12)

    def test_shape_mismatch(self):
        params = NetworkParams((np.ones((2, 2)),), np.ones(2))
        with pytest.raises(ShapeError):
            forward(params, np.ones(3))

    def test_positive_homogeneity_of_masks(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            params = random_net(rng)
            x = rng.standard_normal(params.input_dim)
            c = float(rng.uniform(0.1, 10.0))
            score, states = forward(params, x)
            scaled, scaled_states = forward(params, c * x)
            assert scaled == pytest.approx(c * score, rel=1e-9, abs=1e-12)
            for s, s2 in zip(states, scaled_states):
                assert np.array_equal(s.h_prime, s2.h_prime)


class TestLoss:
    def test_hinge_satisfied(self):
        assert loss(LossL0.HINGE, 2.0, 1.0) == (0.0, 0.0)

    def test_hinge_active(self):
        assert loss(LossL0.HINGE, 0.0, 1.0) == (1.0, -1.0)

    def test_hinge_kink(self):
        assert loss(LossL0.HINGE, 1.0, 1.0) == (0.0, 0.0)

    def test_absolute_minimum(self):
        assert loss(LossL0.ABSOLUTE, -1.0, -1.0) == (0.0, 0.0)

    def test_bad_label(self):
        with pytest.raises(DomainError):
            loss(LossL0.HINGE, 0.0, 0.5)

    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_class_predicate(self, kind):
        # nonnegative, convex (midpoint inequality), zero infimum
        rng = np.random.default_rng(9)
        for _ in range(10000):
            y = float(rng.choice([-1.0, 1.0]))
            a, b = rng.standard_normal(2) * 5
            la = loss(kind, a, y)[0]
            lb = loss(kind, b, y)[0]
            lm = loss(kind, (a + b) / 2, y)[0]
            assert la >= 0.0 and lb >= 0.0
            assert lm <= (la + lb) / 2 + 1e-12
        assert loss(kind, 1.0 if kind is LossL0.HINGE else 1.0, 1.0)[0] == 0.0


class TestRisk:
    def test_zero_loss_dataset(self):
        params = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
        dataset = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
        assert empirical_risk(params, LossL0.HINGE, dataset) == 0.0

    def test_single_sample(self):
        params = NetworkParams((np.array([[0.5]]),), np.array([1.0]))
        dataset = Dataset(np.array([[1.0]]), np.array([1.0]))
        expected = loss(LossL0.HINGE, forward(params, dataset.x[0])[0], 1.0)[0]
        assert empirical_risk(params, LossL0.HINGE, dataset) == expected

    def test_two_sample_mean(self):
        params = NetworkParams((np.array([[1.0]]),), np.array([1.0]))
        # scores 0 and 2 with y=1: hinge 1 and 0
        dataset = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
        assert empirical_risk(params, LossL0.HINGE, dataset) == 0.5

    def test_empty_dataset(self):
        params = NetworkParams((np.array([[1.0]]),), np.array([1.0]))
        dataset = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(DomainError):
            empirical_risk(params, LossL0.HINGE, dataset)


class TestGradient:
    def test_zero_loss_gives_zero_vector(self):
        params = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
        dataset = Dataset(np.array([[1.0]]), np.array([1.0]))
        assert np.array_equal(risk_gradient(params, LossL0.HINGE, dataset), [0.0, 0.0])

    def test_hand_case(self):
        # l = 1 - x w a on the active branch: dl/dw = -x a, dl/da = -x w
        x, w, a = 1.5, 0.3, 0.4
        params = NetworkParams((np.array([[w]]),), np.array([a]))
        dataset = Dataset(np.array([[x]]), np.array([1.0]))
        grad = risk_gradient(params, LossL0.HINGE, dataset)
        assert grad == pytest.approx([-x * a, -x * w], abs=1e-15)

    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_zero_loss_samples_add_nothing(self, kind):
        # scores 1, 2 and 0.5 with y = 1: sample 0 has zero loss under both
        # losses, sample 1 under the hinge
        params = NetworkParams((np.array([[1.0, -1.0]]), np.eye(2)), np.array([1.0, 0.5]))
        xs = np.array([[1.0], [2.0], [0.5]])
        lossy = [2] if kind is LossL0.HINGE else [1, 2]
        grad = risk_gradient(params, kind, Dataset(xs, np.ones(3)))
        part = risk_gradient(params, kind, Dataset(xs[lossy], np.ones(len(lossy))))
        assert np.abs(grad - part * len(lossy) / 3).max() <= 1e-15
        assert np.abs(part).max() > 0.0

    @pytest.mark.parametrize("rule", [ActivationRule.ARGMAX_MASK_01,
                                      ActivationRule.EXPECTATION_MASK_01,
                                      ActivationRule.PARTIAL_EXPECTATION_01,
                                      ActivationRule.PARTIAL_EXPECTATION_PM1])
    def test_finite_difference_agreement(self, rule):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 8:
            params = random_net(rng, rule=rule)
            dataset = Dataset(
                rng.standard_normal((3, params.input_dim)),
                rng.choice([-1.0, 1.0], size=3),
            )
            if not _clear_of_kinks(params, dataset):
                continue
            checked += 1
            grad = risk_gradient(params, LossL0.HINGE, dataset)
            theta = flatten_params(params)
            step = 1e-6

            def risk_at(vec):
                return empirical_risk(unflatten_params(vec, params), LossL0.HINGE, dataset)

            fd = np.array([
                (risk_at(theta + step * e) - risk_at(theta - step * e)) / (2 * step)
                for e in np.eye(theta.size)
            ])
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / scale <= 1e-5


def _drawn_net(rng, rule, n_layers):
    """A net of ``n_layers`` weight matrices (0: alpha alone) of widths 1-5."""
    widths = rng.integers(1, 6, size=n_layers + 1)
    weights = tuple(rng.standard_normal((widths[i], widths[i + 1])) for i in range(n_layers))
    return NetworkParams(weights, rng.standard_normal(widths[-1]), rule)


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    rule=st.sampled_from(list(ActivationRule)),
    n_layers=st.integers(0, 3),
    m=st.integers(1, 7),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_stacked_forward_and_deltas_equal_rows_bit_for_bit(seed, rule, n_layers, m):
    rng = np.random.default_rng(seed)
    params = _drawn_net(rng, rule, n_layers)
    xs = rng.standard_normal((m, params.input_dim))
    scores, states = forward(params, xs)
    deltas = _backprop_deltas(params, states)
    assert scores.shape == (m,)
    for i, x in enumerate(xs):
        score, alone = forward(params, x)
        assert scores[i].tobytes() == np.float64(score).tobytes()
        for stacked, single in zip(states, alone, strict=True):
            for name in ("t_in", "h_hat", "h_tilde", "h_prime"):
                got, want = getattr(stacked, name)[i], getattr(single, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, want in zip(deltas, _backprop_deltas(params, alone), strict=True):
            assert got[i].shape == want.shape and got[i].tobytes() == want.tobytes()


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(list(LossL0)),
    n_layers=st.integers(0, 3),
    m=st.integers(1, 7),
    exact=st.booleans(),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_gradient_matches_per_sample_sum(seed, kind, n_layers, m, exact):
    # small-integer nets and inputs have exact scores, so labels taken from
    # them give samples of zero loss under either loss
    rng = np.random.default_rng(seed)
    params = _drawn_net(rng, ActivationRule.ARGMAX_MASK_01, n_layers)
    xs = rng.standard_normal((m, params.input_dim))
    ys = rng.choice([-1.0, 1.0], size=m)
    if exact:
        params = NetworkParams(tuple(np.round(w) for w in params.weights), np.round(params.alpha))
        xs = np.round(xs)
        scores = np.array([forward(params, x)[0] for x in xs])
        hit = np.abs(scores) == 1.0 if kind is LossL0.ABSOLUTE else np.abs(scores) >= 1.0
        ys = np.where(hit, np.sign(scores), ys)
    want = np.zeros(sum(param_group_dims(params)))
    for x, y in zip(xs, ys):
        score, states = forward(params, x)
        deriv = loss(kind, score, y)[1]
        pieces = [
            np.outer(state.t_in, delta).ravel(order="F")
            for state, delta in zip(states, _backprop_deltas(params, states))
        ]
        pieces.append(states[-1].h_tilde if states else x)
        want += deriv * np.concatenate(pieces)
    want /= m
    grad = risk_gradient(params, kind, Dataset(xs, ys))
    assert np.abs(grad - want).max() <= 1e-13 * np.abs(want).max()


def _clear_of_kinks(params, dataset, clearance=1e-3):
    for xi, yi in zip(dataset.x, dataset.y):
        score, states = forward(params, xi)
        if abs(1.0 - yi * score) < clearance:
            return False
        if any(np.abs(s.h_hat).min() < clearance for s in states):
            return False
    return True


class TestDatasetAndJson:
    def test_label_validation(self):
        with pytest.raises(DomainError):
            Dataset(np.ones((1, 2)), np.array([0.5]))

    def test_csv_round_trip(self, tmp_path):
        dataset = Dataset(np.array([[0.25, -1.5], [3.0, 0.125]]), np.array([1.0, -1.0]))
        path = tmp_path / "data.csv"
        save_dataset_csv(path, dataset)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.x, dataset.x)
        assert np.array_equal(loaded.y, dataset.y)

    def test_reader_peak_is_within_the_arrays_it_returns(self, tmp_path):
        # 20000 rows of 18 inputs and a label; the reader holds one float
        # buffer of the file's values, not each row's strings
        rng = np.random.default_rng(4)
        dataset = Dataset(rng.standard_normal((20000, 18)), rng.choice([-1.0, 1.0], 20000))
        path = tmp_path / "data.csv"
        save_dataset_csv(path, dataset)
        tracemalloc.start()
        try:
            loaded = load_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.x, dataset.x) and np.array_equal(loaded.y, dataset.y)
        assert peak <= 3 * (loaded.x.nbytes + loaded.y.nbytes) + (1 << 20)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DomainError):
            load_dataset_csv(path)

    def test_chain_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        params = NetworkParams(
            (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))),
            rng.standard_normal(2),
            ActivationRule.EXPECTATION_MASK_01,
        )
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_to_chain_json(params)))
        loaded = network_from_chain_json(path)
        assert loaded.rule is params.rule
        for a, b in zip(loaded.weights, params.weights):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.alpha, params.alpha)
        x = rng.standard_normal(3)
        assert forward(loaded, x)[0] == forward(params, x)[0]

    def test_non_chain_rejected(self):
        doc = {
            "nodes": ["0", "a", "b"],
            "edges": [["0", "a"], ["0", "b"]],
            "layers": {
                "a": {"rows": 1, "cols": 1, "field": "01", "rule": "relu", "weights": [1]},
                "b": {"rows": 1, "cols": 1, "field": "01", "rule": "relu", "weights": [1]},
            },
        }
        with pytest.raises(DomainError):
            network_from_chain_json(doc)

    def test_top_kernel_must_be_vector(self):
        doc = {
            "nodes": ["0", "1"],
            "edges": [["0", "1"]],
            "layers": {
                "1": {"rows": 1, "cols": 2, "field": "01", "rule": "relu", "weights": [1, 2]},
            },
        }
        with pytest.raises(ShapeError):
            network_from_chain_json(doc)


@pytest.mark.parametrize("rule", list(ActivationRule))
def test_forward_matches_the_plan_of_the_chain_document(rule):
    # the plan of the chain document, evaluated node by node, is the
    # reference: forward's layer states are its interior nodes' states and
    # the score is the top node's preactivation
    rng = np.random.default_rng(10)
    for _ in range(50):
        params = random_net(rng, rule=rule)
        poset, specs = load_network_json(network_to_chain_json(params))
        plan = build_s_system(poset, params.input_dim, specs)
        for x in rng.standard_normal((3, params.input_dim)):
            score, states = forward(params, x)
            _, want = evaluate_plan(plan, x)
            pairs = [(getattr(state, name), getattr(want[layer.node], name))
                     for state, layer in zip(states, plan.layers[:-1], strict=True)
                     for name in ("t_in", "h_hat", "h_tilde", "h_prime")]
            pairs.append((np.array([score]), want[plan.layers[-1].node].h_hat))
            for got, ref in pairs:
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_param_layout_is_column_major():
    params = NetworkParams((np.array([[1.0, 3.0], [2.0, 4.0]]),), np.array([5.0, 6.0]))
    assert param_group_dims(params) == (4, 2)
    assert np.array_equal(flatten_params(params), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    rebuilt = unflatten_params(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), params)
    assert np.array_equal(rebuilt.weights[0], params.weights[0])
