"""Exact Hessian assembly, finite-difference equivalence and the landscape bound."""

import tracemalloc

import numpy as np
import pytest

from dysonnet.errors import DomainError
from dysonnet.hessian import (
    HessianBlocks,
    landscape_report,
    negative_fraction,
    risk_hessian,
    sample_hessian,
)
from dysonnet.net import (
    Dataset,
    LossL0,
    NetworkParams,
    empirical_risk,
    flatten_params,
    forward,
    loss,
    risk_gradient,
    unflatten_params,
)


def random_net(rng, max_width=8, max_depth=4):
    depth = int(rng.integers(2, max_depth + 1))
    widths = rng.integers(1, max_width + 1, size=depth)
    weights = tuple(
        rng.standard_normal((widths[i], widths[i + 1])) for i in range(depth - 1)
    )
    return NetworkParams(weights, rng.standard_normal(widths[-1]))


def clear_of_kinks(params, x, y, clearance=1e-3):
    score, states = forward(params, x)
    if abs(1.0 - y * score) < clearance:
        return False
    return all(np.abs(s.h_hat).min() >= clearance for s in states)


def fd_hessian(params, kind, x, y, step=1e-4):
    theta = flatten_params(params)

    def value(vec):
        score, _ = forward(unflatten_params(vec, params), x)
        return loss(kind, score, y)[0]

    n = theta.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            pp = theta.copy(); pp[i] += step; pp[j] += step
            pm = theta.copy(); pm[i] += step; pm[j] -= step
            mp = theta.copy(); mp[i] -= step; mp[j] += step
            mm = theta.copy(); mm[i] -= step; mm[j] -= step
            out[i, j] = out[j, i] = (value(pp) - value(pm) - value(mp) + value(mm)) / (4 * step * step)
    return out


HAND = dict(
    params=NetworkParams((np.array([[0.3]]),), np.array([0.5])),
    x=np.array([1.0]),
    y=1.0,
)


class TestSampleHessian:
    def test_zero_loss_gives_zero_blocks(self):
        params = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
        blocks = sample_hessian(params, LossL0.HINGE, np.array([1.0]), 1.0)
        assert np.array_equal(blocks.assemble(), np.zeros((2, 2)))

    def test_hand_case(self):
        blocks = sample_hessian(HAND["params"], LossL0.HINGE, HAND["x"], HAND["y"])
        full = blocks.assemble()
        assert np.array_equal(full, [[0.0, -1.0], [-1.0, 0.0]])
        assert np.array_equal(np.linalg.eigvalsh(full), [-1.0, 1.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 10:
            params = random_net(rng, max_width=5)
            x = rng.standard_normal(params.input_dim)
            y = float(rng.choice([-1.0, 1.0]))
            if not clear_of_kinks(params, x, y):
                continue
            checked += 1
            analytic = sample_hessian(params, LossL0.HINGE, x, y).assemble()
            fd = fd_hessian(params, LossL0.HINGE, x, y)
            scale = max(np.abs(analytic).max(), 1e-12)
            assert np.abs(analytic - fd).max() / scale <= 1e-4

    def test_absolute_loss_also_exact(self):
        rng = np.random.default_rng(13)
        params = random_net(rng, max_width=4, max_depth=3)
        x = rng.standard_normal(params.input_dim)
        analytic = sample_hessian(params, LossL0.ABSOLUTE, x, -1.0).assemble()
        fd = fd_hessian(params, LossL0.ABSOLUTE, x, -1.0)
        scale = max(np.abs(analytic).max(), 1e-12)
        assert np.abs(analytic - fd).max() / scale <= 1e-4

    def test_exact_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            params = random_net(rng)
            full = sample_hessian(
                params, LossL0.HINGE, rng.standard_normal(params.input_dim),
                float(rng.choice([-1.0, 1.0])),
            ).assemble()
            assert np.abs(full - full.T).max() == 0.0

    def test_diagonal_blocks_zero(self):
        rng = np.random.default_rng(15)
        params = random_net(rng)
        blocks = sample_hessian(
            params, LossL0.HINGE, rng.standard_normal(params.input_dim), 1.0
        )
        full = blocks.assemble()
        offsets = np.concatenate([[0], np.cumsum(blocks.dims)]).astype(int)
        for g in range(len(blocks.dims)):
            sl = slice(offsets[g], offsets[g + 1])
            assert np.array_equal(full[sl, sl], np.zeros((blocks.dims[g],) * 2))


class TestRiskHessian:
    def test_single_sample_equals_sample(self):
        rng = np.random.default_rng(16)
        params = random_net(rng)
        x = rng.standard_normal(params.input_dim)
        dataset = Dataset(x[None, :], np.array([1.0]))
        a = risk_hessian(params, LossL0.HINGE, dataset).assemble()
        b = sample_hessian(params, LossL0.HINGE, x, 1.0).assemble()
        assert np.array_equal(a, b)

    def test_two_sample_mean_vs_naive(self):
        rng = np.random.default_rng(17)
        params = random_net(rng)
        xs = rng.standard_normal((2, params.input_dim))
        ys = np.array([1.0, -1.0])
        mean = risk_hessian(params, LossL0.HINGE, Dataset(xs, ys)).assemble()
        naive = sum(
            sample_hessian(params, LossL0.HINGE, x, y).assemble() for x, y in zip(xs, ys)
        ) / 2.0
        assert np.allclose(mean, naive, atol=1e-15)

    def test_zero_loss_dataset_zero_matrix(self):
        params = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
        dataset = Dataset(np.array([[1.0], [3.0]]), np.array([1.0, 1.0]))
        full = risk_hessian(params, LossL0.HINGE, dataset).assemble()
        assert np.array_equal(full, np.zeros_like(full))

    def test_empty_dataset(self):
        params = NetworkParams((np.array([[1.0]]),), np.array([1.0]))
        with pytest.raises(DomainError):
            risk_hessian(params, LossL0.HINGE, Dataset(np.empty((0, 1)), np.empty(0)))

    def test_peak_memory_does_not_grow_with_samples(self):
        # blocks are summed sample by sample: the peak is a few block sets,
        # not one set per sample
        rng = np.random.default_rng(20)
        w = 10
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w),
        )
        dataset = Dataset(rng.standard_normal((40, w)), rng.choice([-1.0, 1.0], size=40))
        one_set = sum(b.nbytes for b in risk_hessian(params, LossL0.HINGE, dataset).blocks.values())
        tracemalloc.start()
        try:
            risk_hessian(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * one_set


class TestLandscape:
    def test_hand_case_report(self):
        dataset = Dataset(HAND["x"][None, :], np.array([HAND["y"]]))
        report = landscape_report(HAND["params"], LossL0.HINGE, dataset)
        assert np.array_equal(report.eigs, [-1.0, 1.0])
        assert report.neg_fraction == 0.5
        assert report.op_norm == 1.0
        assert report.mean_lprime == 1.0
        assert report.lambda0 == pytest.approx(1.0)
        assert report.bound_holds

    def test_zero_loss_report(self):
        params = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
        dataset = Dataset(np.array([[1.0], [3.0]]), np.array([1.0, 1.0]))
        report = landscape_report(params, LossL0.HINGE, dataset)
        assert report.risk == 0.0
        assert report.op_norm == 0.0
        assert np.array_equal(report.eigs, [0.0, 0.0])
        assert report.neg_fraction == 0.0

    def test_bound_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            params = random_net(rng)
            dataset = Dataset(
                rng.standard_normal((4, params.input_dim)),
                rng.choice([-1.0, 1.0], size=4),
            )
            report = landscape_report(params, LossL0.HINGE, dataset)
            assert report.op_norm <= report.bound + 1e-9

    def test_kink_flagging(self):
        params = NetworkParams((np.array([[1.0, 1.0]]),), np.array([1.0, 1.0]))
        dataset = Dataset(np.array([[0.0], [1.0]]), np.array([-1.0, -1.0]))
        report = landscape_report(params, LossL0.HINGE, dataset)
        assert report.kink_samples == (0,)

    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_loss_kink_flagging(self, kind):
        # scores 0.5 and 1 with y=1: sample 1 sits exactly on the hinge
        # (margin 0) and on the absolute-loss kink (residual 0)
        params = NetworkParams((np.array([[1.0]]),), np.array([1.0]))
        dataset = Dataset(np.array([[0.5], [1.0]]), np.array([1.0, 1.0]))
        report = landscape_report(params, kind, dataset)
        assert report.kink_samples == (1,)

    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_eigs_match_dense_risk_hessian(self, kind):
        # Gaussian nets, and small-integer nets whose scores are exact, so
        # that labels equal to a score of +-1 give zero absolute loss
        rng = np.random.default_rng(21)
        zero_loss = 0
        for trial in range(16):
            params = random_net(rng)
            if trial % 2:
                params = NetworkParams(
                    tuple(np.round(w) for w in params.weights), np.round(params.alpha)
                )
            xs = rng.standard_normal((6, params.input_dim))
            if trial % 2:
                xs = np.round(xs)
            scores = np.array([forward(params, x)[0] for x in xs])
            ys = np.where(scores > 0, 1.0, -1.0)
            ys[3:] = rng.choice([-1.0, 1.0], size=3)
            zero_loss += sum(loss(kind, sc, y)[0] == 0.0 for sc, y in zip(scores, ys))
            dataset = Dataset(xs, ys)
            report = landscape_report(params, kind, dataset)
            dense = np.sort(np.linalg.eigvalsh(risk_hessian(params, kind, dataset).assemble()))
            assert np.array_equal(report.eigs, dense)
        assert zero_loss > 0

    def test_degeneration_along_training(self):
        # gradient descent to zero risk: the bound caps op_norm throughout
        # and the Hessian is exactly zero at the end
        rng = np.random.default_rng(19)
        params = NetworkParams(
            (rng.standard_normal((2, 4)), rng.standard_normal((4, 3))),
            rng.standard_normal(3),
        )
        xs = rng.standard_normal((6, 2)) * 2.0
        ys = np.where(xs[:, 0] + 0.3 * xs[:, 1] > 0, 1.0, -1.0)
        dataset = Dataset(xs, ys)
        risk = empirical_risk(params, LossL0.HINGE, dataset)
        for _ in range(4000):
            if risk == 0.0:
                break
            grad = risk_gradient(params, LossL0.HINGE, dataset)
            theta = flatten_params(params) - 0.05 * grad
            params = unflatten_params(theta, params)
            risk = empirical_risk(params, LossL0.HINGE, dataset)
            report = landscape_report(params, LossL0.HINGE, dataset)
            assert report.op_norm <= report.bound + 1e-9
        assert risk == 0.0
        final = risk_hessian(params, LossL0.HINGE, dataset).assemble()
        assert np.array_equal(final, np.zeros_like(final))


def test_negative_fraction_thresholding():
    eigs = np.array([-2.0, -1e-12, 0.0, 1e-12, 3.0])
    assert negative_fraction(eigs, 1e-8) == 0.5
    assert negative_fraction(np.zeros(4), np.inf) == 0.0


def test_blocks_shape_validation():
    with pytest.raises(Exception):
        HessianBlocks((2, 3), {(1, 2): np.zeros((2, 2))})
