"""Exact Hessian assembly, finite-difference equivalence and the landscape bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonnet import errors, hessian
from dysonnet.errors import (
    MAX_DENSE_ENTRIES,
    CapacityError,
    DomainError,
    NumericError,
    ShapeError,
)
from dysonnet.esd import _hessian_widths, _trial_entries
from dysonnet.hessian import (
    HessianBlocks,
    _path_matrices,
    _frame_cores,
    _RangeSpans,
    _sample_pass,
    landscape_report,
    negative_fraction,
    risk_hessian,
    sample_hessian,
)
from dysonnet.kernels import ActivationRule
from dysonnet.net import (
    Dataset,
    LossL0,
    NetworkParams,
    _chunk_plan,
    _layer_widths,
    _sample_terms,
    flatten_params,
    forward,
    loss,
    param_group_dims,
    unflatten_params,
)
from oracles import (
    accumulator_pass,
    budget_peak,
    centred_trial_entries,
    empirical_risk,
    range_core_entries,
    risk_gradient,
    risk_hessian_entries,
)


# The dense per-sample pass that dysonnet.hessian replaced: every sample's
# Kronecker blocks formed at full size, summed, and projected onto the
# sample's range basis.  Kept as the oracle of the factored pass.


def _mirrored(dims, blocks: dict) -> np.ndarray:
    """Dense symmetric matrix from cross blocks ``blocks[(p, q)]`` over groups of ``dims``."""
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    full = np.zeros((offsets[-1], offsets[-1]))
    for (p, q), block in blocks.items():
        rows = slice(offsets[q - 1], offsets[q])
        cols = slice(offsets[p - 1], offsets[p])
        full[rows, cols] = block
        full[cols, rows] = block.T
    return full


def _deltas(params: NetworkParams, states) -> list[np.ndarray]:
    """One sample's u_g = dg(h'_g) W_{g+1} dg(h'_{g+1}) ... W_{L-1} dg(h'_{L-1}) a.

    Each u_g is its own product of dense matrices, left to right, rather
    than the backward recursion of :func:`net._backprop_deltas`.
    """
    n_layers = len(params.weights)
    deltas = []
    for g in range(n_layers):
        chain = np.diag(states[g].h_prime)
        for j in range(g + 1, n_layers):
            chain = chain @ params.weights[j] @ np.diag(states[j].h_prime)
        deltas.append(chain @ params.alpha)
    return deltas


def _geometry_blocks(params: NetworkParams, states, deltas) -> dict:
    """Per-sample blocks without the loss-derivative factor.

    Group indices are 1-based; group L is the output vector.  For p < q < L
    the block is kron(u_q, kron(P_pq, t_{p-1}^T)) with u_q = ``deltas[q-1]``
    from :func:`_deltas` and
    P_pq = dg(h'_{q-1}) W_{q-1}^T ... W_{p+1}^T dg(h'_p); for q = L the u
    factor is the empty product.
    """
    n_layers = len(params.weights)
    groups = n_layers + 1
    blocks: dict[tuple[int, int], np.ndarray] = {}

    for p in range(1, groups):
        path = np.diag(states[p - 1].h_prime)
        t_prev = states[p - 1].t_in
        for q in range(p + 1, groups + 1):
            if q > p + 1:
                # extend the path through layer q-1
                j = q - 1
                path = (states[j - 1].h_prime[:, None] * params.weights[j - 1].T) @ path
            if q <= n_layers:
                blocks[(p, q)] = np.kron(deltas[q - 1][:, None], np.kron(path, t_prev[None, :]))
            else:
                blocks[(p, q)] = np.kron(path, t_prev[None, :])
    return blocks


def _range_bases(params: NetworkParams, states, deltas) -> list[np.ndarray]:
    """Orthonormal basis of each group's part of one sample's Hessian range.

    Group g < L is the column group of blocks whose row space lies in the
    span of ``I ⊗ t_{g-1}`` and, for g > 1, the row group of blocks whose
    column space lies in the span of ``u_g ⊗ I``, u_g = ``deltas[g-1]``.
    ``[I ⊗ t̂, û ⊗ N]``, with N an orthonormal basis of t̂'s complement,
    is an orthonormal basis of the sum of the two spans; a piece whose
    vector is zero (a dead layer) is dropped.  The output group's range
    is the whole group.
    """
    bases = []
    for g, state in enumerate(states, start=1):
        t = state.t_in
        out_eye = np.eye(state.h_hat.size)
        pieces = [np.zeros((out_eye.shape[0] * t.size, 0))]  # every piece may drop
        t_norm = np.linalg.norm(t)
        if t_norm > 0.0:
            t_hat = t / t_norm
            pieces.append(np.kron(out_eye, t_hat[:, None]))
            u_norm = np.linalg.norm(deltas[g - 1])
            if g > 1 and u_norm > 0.0:
                complement = np.linalg.qr(t_hat[:, None], mode="complete")[0][:, 1:]
                pieces.append(np.kron((deltas[g - 1] / u_norm)[:, None], complement))
        bases.append(np.hstack(pieces))
    bases.append(np.eye(params.alpha.size))
    return bases


def _range_core(params: NetworkParams, states, deltas, geometry: dict) -> np.ndarray:
    """The k x k matrix Q^T H Q of one sample's geometry H, Q = blockdiag(bases)."""
    bases = _range_bases(params, states, deltas)
    projected = {
        (p, q): bases[q - 1].T @ block @ bases[p - 1] for (p, q), block in geometry.items()
    }
    return _mirrored([b.shape[1] for b in bases], projected)


def _summed_geometry(params: NetworkParams, kind: LossL0, dataset: Dataset) -> dict:
    """Mean over the samples of ``deriv`` times each sample's dense blocks.

    Each sample is evaluated on its own, with :func:`forward` and
    :func:`loss`, not through the stacked pass under test.
    """
    dims = param_group_dims(params)
    total = {
        (p, q): np.zeros((dims[q - 1], dims[p - 1]))
        for p in range(1, len(dims))
        for q in range(p + 1, len(dims) + 1)
    }
    for x, y in zip(dataset.x, dataset.y):
        score, states = forward(params, x)
        deriv = loss(kind, score, y)[1]
        geometry = _geometry_blocks(params, states, _deltas(params, states))
        for k, block in geometry.items():
            total[k] += deriv * block
    return {k: v / len(dataset) for k, v in total.items()}


def random_net(rng, max_width=8, max_depth=4, rule=ActivationRule.ARGMAX_MASK_01):
    depth = int(rng.integers(2, max_depth + 1))
    widths = rng.integers(1, max_width + 1, size=depth)
    weights = tuple(
        rng.standard_normal((widths[i], widths[i + 1])) for i in range(depth - 1)
    )
    return NetworkParams(weights, rng.standard_normal(widths[-1]), rule)


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


def assert_blocks_match_oracle(params, kind, dataset):
    # each block to 1e-13 of its own scale; the diagonal blocks exactly zero
    dims = param_group_dims(params)
    full = risk_hessian(params, kind, dataset).assemble()
    oracle = _summed_geometry(params, kind, dataset)
    scales = _mirrored(dims, {
        k: np.full(want.shape, max(1.0, float(np.abs(want).max(initial=0.0))))
        for k, want in oracle.items()
    })
    assert full.shape == scales.shape
    assert np.all(np.abs(full - _mirrored(dims, oracle)) <= 1e-13 * scales)


def assert_eigs_match_dense(params, kind, dataset, report):
    # the range core's spectrum and its P - r zeros against the dense
    # eigvalsh of the P x P risk Hessian: bit for bit where the core is
    # that matrix (r = P), else within 1e-12 of the largest |eigenvalue|
    full = risk_hessian(params, kind, dataset).assemble()
    dense = np.sort(np.linalg.eigvalsh(full))
    scale = max(1.0, float(np.abs(dense).max(initial=0.0)))
    assert report.eigs.shape == dense.shape
    assert np.abs(report.eigs - dense).max(initial=0.0) <= 1e-12 * scale
    assert np.linalg.matrix_rank(full) <= report.range_dim <= dense.size
    if report.range_dim == dense.size:
        assert np.array_equal(report.eigs, dense)


@st.composite
def relu_cases(draw):
    """A relu net of 1-4 layers, m of 1-9 samples and a loss.

    Optionally one layer, or one unit of it, is dead for every sample, the
    last layer has width 1, sample 0 is the zero input, and the net and
    inputs are small integers with labels taken from the exact scores
    where that gives zero loss.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(list(LossL0)))
    n_layers = draw(st.integers(1, 4))
    m = draw(st.integers(1, 9))
    dead = draw(st.integers(0, n_layers))  # 0: none dead
    dead_units = slice(0, 1) if draw(st.booleans()) else slice(None)
    exact = draw(st.booleans())
    widths = rng.integers(1, 6, size=n_layers + 1)
    if draw(st.booleans()):
        widths[-1] = 1
    weights = [rng.standard_normal((widths[i], widths[i + 1])) for i in range(n_layers)]
    alpha = rng.standard_normal(widths[-1])
    xs = rng.standard_normal((m, widths[0]))
    if exact:
        weights, alpha, xs = [np.round(w) for w in weights], np.round(alpha), np.round(xs)
    if dead:
        # relu outputs are >= 0, so nonpositive weights above them are dead
        if dead == 1:
            xs = np.abs(xs)
        weights[dead - 1][:, dead_units] = -np.abs(weights[dead - 1][:, dead_units])
    if draw(st.booleans()):
        xs[0] = 0.0
    params = NetworkParams(tuple(weights), alpha)
    ys = rng.choice([-1.0, 1.0], size=m)
    if exact:
        scores = np.array([forward(params, x)[0] for x in xs])
        hit = np.abs(scores) == 1.0 if kind is LossL0.ABSOLUTE else np.abs(scores) >= 1.0
        ys = np.where(hit, np.sign(scores), ys)
    return params, kind, Dataset(xs, ys)


@st.composite
def live_relu_cases(draw):
    """A relu net of 1-4 layers, m of 1-9 samples and a loss, whose risk Hessian is nonzero.

    Unit 0 of every layer has nonnegative incoming weights and sample 0 a
    positive input, so unit 0 is active through the whole chain for sample
    0, and every label puts its sample's loss derivative off zero.
    Optionally the other units of one layer are dead for every sample, the
    last layer has width 1, and the last sample is the zero input.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(list(LossL0)))
    n_layers = draw(st.integers(1, 4))
    m = draw(st.integers(1, 9))
    dead = draw(st.integers(0, n_layers))  # 0: none dead
    widths = rng.integers(1, 6, size=n_layers + 1)
    if draw(st.booleans()):
        widths[-1] = 1
    weights = [rng.standard_normal((widths[i], widths[i + 1])) for i in range(n_layers)]
    alpha = rng.standard_normal(widths[-1])
    xs = rng.standard_normal((m, widths[0]))
    xs[0] = np.abs(xs[0])
    for w in weights:
        w[:, 0] = np.abs(w[:, 0])
    if dead:
        # relu outputs are >= 0, so nonpositive weights above them are dead
        if dead == 1:
            xs = np.abs(xs)
        weights[dead - 1][:, 1:] = -np.abs(weights[dead - 1][:, 1:])
    if m > 1 and draw(st.booleans()):
        xs[-1] = 0.0
    params = NetworkParams(tuple(weights), alpha)
    scores = np.array([forward(params, x)[0] for x in xs])
    # the hinge's active side, and almost surely no exact absolute-loss fit
    ys = np.where(scores > 0, -1.0, 1.0)
    return params, kind, Dataset(xs, ys)


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
        # blocks are summed chunk by chunk: the peak is a few block sets,
        # not one set per sample
        rng = np.random.default_rng(20)
        w = 10
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w),
        )
        dataset = Dataset(rng.standard_normal((40, w)), rng.choice([-1.0, 1.0], size=40))
        dims = param_group_dims(params)
        one_set = 8 * sum(
            dims[q] * dims[p] for p in range(len(dims)) for q in range(p + 1, len(dims))
        )
        tracemalloc.start()
        try:
            risk_hessian(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * one_set

    @pytest.mark.parametrize("m", [400, 2000])
    @pytest.mark.parametrize("call", [risk_hessian, landscape_report],
                             ids=["risk_hessian", "landscape_report"])
    def test_peak_memory_bounded_at_large_m(self, call, m):
        # samples are stacked in chunks of at most one block set, so the
        # peak stays a few block sets however many samples there are
        rng = np.random.default_rng(30)
        w = 10
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        dims = param_group_dims(params)
        one_set = 8 * sum(
            dims[q] * dims[p] for p in range(len(dims)) for q in range(p + 1, len(dims))
        )
        tracemalloc.start()
        try:
            call(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * one_set

    def test_assembled_peak_is_one_matrix(self):
        # the accumulator sums into the P x P matrix that assemble() returns,
        # so no second P x P (or block set beside it) is held at the peak
        rng = np.random.default_rng(32)
        w, m = 18, 20
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        p = sum(param_group_dims(params))
        tracemalloc.start()
        try:
            risk_hessian(params, LossL0.HINGE, dataset).assemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * p * p

    def test_many_chunks_match_oracle(self):
        # widths 3: a chunk holds fewer samples than the dataset, so the
        # blocks are summed over several chunks
        rng = np.random.default_rng(31)
        params = NetworkParams(
            tuple(rng.standard_normal((3, 3)) for _ in range(3)), rng.standard_normal(3)
        )
        dataset = Dataset(rng.standard_normal((50, 3)), rng.choice([-1.0, 1.0], size=50))
        assert_blocks_match_oracle(params, LossL0.ABSOLUTE, dataset)

    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_zero_loss_samples_match_oracle(self, kind):
        # scores 1, 2 and 0.5 with y = 1: sample 0 has zero loss under
        # both losses, sample 1 under the hinge
        params = NetworkParams((np.array([[1.0, -1.0]]), np.eye(2)), np.array([1.0, 0.5]))
        dataset = Dataset(np.array([[1.0], [2.0], [0.5]]), np.array([1.0, 1.0, 1.0]))
        assert loss(kind, forward(params, dataset.x[0])[0], 1.0) == (0.0, 0.0)
        assert_blocks_match_oracle(params, kind, dataset)

    @given(case=st.one_of(relu_cases(), live_relu_cases()))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_property_matches_oracle_mean(self, case):
        assert_blocks_match_oracle(*case)


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
        # that labels equal to a score of +-1 give zero absolute loss; every
        # fourth trial has enough samples for the core to be the whole matrix
        rng = np.random.default_rng(21)
        zero_loss = whole = 0
        for trial in range(16):
            params = random_net(rng)
            if trial % 2:
                params = NetworkParams(
                    tuple(np.round(w) for w in params.weights), np.round(params.alpha)
                )
            m = 60 if trial % 4 == 3 else 6
            xs = rng.standard_normal((m, params.input_dim))
            if trial % 2:
                xs = np.round(xs)
            scores = np.array([forward(params, x)[0] for x in xs])
            ys = np.where(scores > 0, 1.0, -1.0)
            ys[3:] = rng.choice([-1.0, 1.0], size=m - 3)
            zero_loss += sum(loss(kind, sc, y)[0] == 0.0 for sc, y in zip(scores, ys))
            dataset = Dataset(xs, ys)
            report = landscape_report(params, kind, dataset)
            assert_eigs_match_dense(params, kind, dataset, report)
            whole += report.range_dim == report.eigs.size
        assert zero_loss > 0
        assert 0 < whole < 16

    @given(case=st.one_of(relu_cases(), live_relu_cases()))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_property_eigs_match_dense(self, case):
        assert_eigs_match_dense(*case, landscape_report(*case))

    def test_property_factor_core_matches_dense(self):
        # the core summed from the sample factors against the dense oracle,
        # on nets whose risk Hessian is nonzero
        live = []

        @given(case=live_relu_cases())
        @settings(max_examples=100, derandomize=True, deadline=None)
        def check(case):
            report = landscape_report(*case)
            assert_eigs_match_dense(*case, report)
            assert report.range_dim == sum(report.range_dims)
            assert len(report.range_dims) == len(param_group_dims(case[0]))
            live.append(report.range_dim > 0)

        check()
        assert 4 * sum(live) >= 3 * len(live)

    def test_per_unit_basis_projects_as_one_qr(self):
        # group 1 spans vec(t_0 e_j^T) alone, so its basis is one QR per unit
        # j; with no more samples than inputs each unit's t vectors are
        # independent and Q_1 Q_1^T is the projector of one QR of them all
        rng = np.random.default_rng(35)
        compared = 0
        for trial in range(20):
            params = random_net(rng, max_width=7)
            d0, d1 = params.weights[0].shape
            m = int(rng.integers(1, d0 + 1))
            dataset = Dataset(rng.standard_normal((m, d0)), rng.choice([-1.0, 1.0], size=m))
            spans = _RangeSpans(params)
            _sample_pass(params, LossL0.ABSOLUTE, dataset, spans)
            if spans._unit_counts(0) is None or spans.counts[0, 0] >= d0 * d1:
                continue  # the summed blocks' rows, or the identity, span group 1
            vectors = np.concatenate([v for v, _ in spans.found[0][0]])
            units = np.concatenate([k for _, k in spans.found[0][0]])
            sets = np.zeros((units.size, d1, d0))
            sets[np.arange(units.size), units, :] = vectors
            one = np.linalg.qr(sets.reshape(units.size, -1).T)[0]
            basis = spans.bases()[0]
            assert basis.shape == one.shape
            assert np.abs(basis @ basis.T - one @ one.T).max(initial=0.0) <= 1e-12
            compared += 1
        assert compared >= 10

    def test_runs_beyond_the_dense_budget(self):
        # w=60, m=8: P = 10860, whose P x P matrix the dense budget refuses;
        # the range core is far smaller, and the other P - r eigenvalues
        # are exact zeros
        rng = np.random.default_rng(36)
        w, m = 60, 8
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w) / np.sqrt(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        p = sum(param_group_dims(params))
        assert p == 10860 and p * p > MAX_DENSE_ENTRIES
        report = landscape_report(params, LossL0.HINGE, dataset)
        r = report.range_dim
        assert r == sum(report.range_dims) and 0 < r * r <= MAX_DENSE_ENTRIES
        assert report.range_dims[-1] == w
        assert np.count_nonzero(report.eigs == 0.0) >= p - r
        assert report.op_norm > 0.0 and report.op_norm <= report.bound
        # the Hessian's diagonal blocks are zero, so its trace is
        assert abs(report.eigs.sum()) <= 1e-10 * report.op_norm * r

    def test_wide_report_peak(self):
        # w=40, m=10: P = 4840 and r < P / 4; no P x P array is formed,
        # and the peak stays below a quarter of one
        rng = np.random.default_rng(37)
        w, m = 40, 10
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w) / np.sqrt(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        p = sum(param_group_dims(params))
        tracemalloc.start()
        try:
            report = landscape_report(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == 4840 and report.range_dim < p / 4
        assert peak < 8 * p * p / 4

    def test_own_block_rows_span_a_group(self):
        # every unit active and d = 1 for both samples: group 1's column
        # role has 2 * 3 per-sample spans but only the 3 + 1 rows of the
        # summed H[2, 1] and H[3, 1], so those span it; groups 2 (1 + 6
        # spans) and 3 (2 spans) reach their dimensions 3 and 1, so
        # r = 4 + 3 + 1
        params = NetworkParams(
            (np.arange(1.0, 13.0).reshape(4, 3), np.array([[1.0], [2.0], [3.0]])),
            np.array([0.5]),
        )
        dataset = Dataset(np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 1.0, 2.0]]),
                          np.array([-1.0, -1.0]))
        report = landscape_report(params, LossL0.HINGE, dataset)
        assert report.range_dim == 8
        assert_eigs_match_dense(params, LossL0.HINGE, dataset, report)

    def test_reduced_core_peak(self):
        # w=30, m=4: r < P/2, and no P x P matrix is formed: the peak is
        # the r x r core and at most one block set beside it
        rng = np.random.default_rng(33)
        w, m = 30, 4
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(3)),
            rng.standard_normal(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        dims = param_group_dims(params)
        p = sum(dims)
        one_set = 8 * sum(
            dims[q] * dims[g] for g in range(len(dims)) for q in range(g + 1, len(dims))
        )
        tracemalloc.start()
        try:
            report = landscape_report(params, LossL0.ABSOLUTE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r = report.range_dim
        assert r < p / 2
        assert peak <= 8 * r * r + one_set < 8 * p * p

    def test_budget_counts_the_second_pass_temporaries(self):
        # w=40, m=10: groups W_1 and W_2 are reduced, so the second pass
        # forms B, P_pq B and a dim_q x r_p GEMM output beside the core,
        # the bases and the sums; the peak exceeds those three alone, but
        # stays within the budgeted count, give or take the 1 MiB slack
        # that holds the chunk's layer states and path matrices (0.4 MB)
        rng = np.random.default_rng(39)
        w, m = 40, 10
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(2)),
            rng.standard_normal(w) / np.sqrt(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        report, peak, counted = budget_peak(lambda: landscape_report(params, LossL0.HINGE, dataset))
        dims = param_group_dims(params)
        ks = report.range_dims
        assert ks[0] < dims[0] and ks[1] < dims[1] and ks[2] == dims[2]
        stored = report.range_dim ** 2 + dims[0] * ks[0] + dims[1] * ks[1] + dims[1] * ks[0]
        slack = 2 ** 20
        assert 8 * stored + slack < peak <= 8 * counted["the range core"] + slack

    def test_budget_counts_the_identity_pass_temporaries(self):
        # w=20, m=100: every group's sets reach its dimension, so r = P and
        # every Q_g is the identity; the second pass sums two chunks of 50
        # samples straight into the P x P core, beside which it holds their
        # factors and one pair's outer products, path copy and its 400 x 400
        # GEMM output; the peak exceeds the core alone, but stays within
        # the budgeted count, give or take 1 MiB
        rng = np.random.default_rng(40)
        w, m = 20, 100
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(2)),
            rng.standard_normal(w) / np.sqrt(w),
        )
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        report, peak, counted = budget_peak(lambda: landscape_report(params, LossL0.HINGE, dataset))
        p = sum(param_group_dims(params))
        assert report.range_dim == p
        slack = 2 ** 20
        assert 8 * p * p + slack < peak <= 8 * counted["the range core"] + slack

    def test_range_core_eigensolver_failure_is_numeric_error(self, monkeypatch):
        # the m sample cores are solved first, the risk Hessian's core last
        rng = np.random.default_rng(34)
        params = NetworkParams((rng.standard_normal((4, 3)),), rng.standard_normal(3))
        dataset = Dataset(rng.standard_normal((2, 4)), np.array([1.0, -1.0]))
        assert landscape_report(params, LossL0.ABSOLUTE, dataset).range_dim < 15
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def failing_on_the_last(matrix):
            calls.append(matrix.shape[0])
            if len(calls) > len(dataset):
                raise np.linalg.LinAlgError("did not converge")
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_the_last)
        with pytest.raises(NumericError, match="the risk Hessian's range core failed"):
            landscape_report(params, LossL0.ABSOLUTE, dataset)

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
    with pytest.raises(ShapeError):
        HessianBlocks((2, 3), np.zeros((5, 4)))


def dense_sample_norms(params, dataset):
    """Oracle: each sample's geometry Hessian as a dense P x P matrix, eigvalsh'd."""
    dims = param_group_dims(params)
    norms = []
    for x in dataset.x:
        states = forward(params, x)[1]
        geometry = _geometry_blocks(params, states, _deltas(params, states))
        norms.append(float(np.max(np.abs(np.linalg.eigvalsh(_mirrored(dims, geometry))))))
    return norms


def assert_lambda0_matches_dense(params, kind, dataset):
    report = landscape_report(params, kind, dataset)
    norms = dense_sample_norms(params, dataset)
    assert abs(report.lambda0 - max(norms)) <= 1e-12 * max(norms)
    assert norms[report.lambda0_sample] >= max(norms) * (1.0 - 1e-12)
    assert len(report.sample_ranks) == len(dataset)
    assert all(1 <= k <= sum(param_group_dims(params)) for k in report.sample_ranks)
    return report


class TestLambda0:
    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_matches_dense_on_random_nets(self, kind):
        rng = np.random.default_rng(22)
        one_layer = 0
        for trial in range(24):
            params = random_net(rng)
            one_layer += len(params.weights) == 1
            dataset = Dataset(
                rng.standard_normal((4, params.input_dim)), rng.choice([-1.0, 1.0], size=4)
            )
            assert_lambda0_matches_dense(params, kind, dataset)
        assert one_layer > 0

    def test_one_layer_net_core(self):
        # groups W_1 (3 x 4) and alpha: k = 4 columns for I (x) x-hat plus 4 for alpha
        rng = np.random.default_rng(23)
        params = NetworkParams((rng.standard_normal((3, 4)),), rng.standard_normal(4))
        dataset = Dataset(rng.standard_normal((3, 3)), np.array([1.0, -1.0, 1.0]))
        report = assert_lambda0_matches_dense(params, LossL0.HINGE, dataset)
        assert report.sample_ranks == (8, 8, 8)

    def test_generic_samples_have_k_6w_minus_2(self):
        # widths (w, w, w, w): k = w + 2 (2w - 1) + w, as at the bench size
        w = 5
        rng = np.random.default_rng(24)
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) for _ in range(3)), rng.standard_normal(w)
        )
        dataset = Dataset(rng.standard_normal((3, w)), np.array([1.0, -1.0, 1.0]))
        report = assert_lambda0_matches_dense(params, LossL0.ABSOLUTE, dataset)
        assert report.sample_ranks == (6 * w - 2,) * 3

    def test_dead_layer_drops_its_basis_piece(self):
        # relu layer 1 is dead for a positive input: t_1 = 0 and u_1 = 0, so
        # group 2 keeps no column and the geometry is exactly zero
        rng = np.random.default_rng(25)
        params = NetworkParams(
            (-np.abs(rng.standard_normal((3, 4))), rng.standard_normal((4, 2))),
            rng.standard_normal(2),
        )
        dataset = Dataset(np.abs(rng.standard_normal((1, 3))), np.array([1.0]))
        report = assert_lambda0_matches_dense(params, LossL0.HINGE, dataset)
        assert report.lambda0 == 0.0
        assert report.sample_ranks == (4 + 2,)

    def test_zero_input(self):
        # relu passes the zero input on as zero, so neither weight group of
        # sample 0 keeps a column and only alpha's 2 remain
        rng = np.random.default_rng(27)
        params = NetworkParams(
            (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))), rng.standard_normal(2)
        )
        xs = np.vstack([np.zeros(3), rng.standard_normal(3)])
        report = assert_lambda0_matches_dense(params, LossL0.HINGE, Dataset(xs, np.array([1.0, 1.0])))
        assert report.lambda0 > 0.0
        assert report.lambda0_sample == 1
        assert report.sample_ranks == (0 + 0 + 2, 4 + (2 + 3) + 2)

    @pytest.mark.parametrize("kind", [LossL0.HINGE, LossL0.ABSOLUTE])
    def test_kink_and_zero_loss_samples(self, kind):
        # sample 0 sits on an estimation kink, sample 1 on the loss kink
        # (zero loss, l' = 0); its geometry still counts towards lambda0
        params = NetworkParams((np.array([[1.0, -1.0]]),), np.array([1.0, 0.5]))
        dataset = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([-1.0, 1.0, -1.0]))
        report = assert_lambda0_matches_dense(params, kind, dataset)
        assert report.kink_samples == (0, 1)
        assert report.lambda0 > 0.0

    def test_zero_loss_sample_attains_lambda0(self):
        # the zero-loss sample has the largest input, hence the largest norm
        params = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
        dataset = Dataset(np.array([[0.1], [3.0]]), np.array([1.0, 1.0]))
        report = assert_lambda0_matches_dense(params, LossL0.HINGE, dataset)
        assert report.risk > 0.0
        assert loss(LossL0.HINGE, forward(params, dataset.x[1])[0], 1.0)[0] == 0.0
        assert report.lambda0_sample == 1
        assert report.lambda0 == pytest.approx(3.0)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from(list(LossL0)),
        dead_first=st.booleans(),
        zero_input=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_property_matches_dense(self, seed, kind, dead_first, zero_input):
        rng = np.random.default_rng(seed)
        params = random_net(rng)
        xs = rng.standard_normal((3, params.input_dim))
        if dead_first:
            xs = np.abs(xs)
            params = NetworkParams((-np.abs(params.weights[0]),) + params.weights[1:], params.alpha)
        if zero_input:
            xs[0] = 0.0
        assert_lambda0_matches_dense(params, kind, Dataset(xs, rng.choice([-1.0, 1.0], size=3)))

    @given(case=st.one_of(relu_cases(), live_relu_cases()))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_property_core_matches_projected_oracle(self, case):
        # each frame core of a slice has the spectrum of the oracle's
        # projection of the dense per-sample blocks, padded with zeros to
        # the frame size, and the report's k is the oracle basis' size
        params, kind, dataset = case
        ranks = landscape_report(params, kind, dataset).sample_ranks
        _, _, _, states, deltas = _sample_terms(params, kind, dataset)
        paths = _path_matrices(params, states)
        inputs = [dataset.x] + [state.h_tilde for state in states]
        deltas = deltas + [np.ones((len(dataset), 1))]
        cores = _frame_cores(inputs, deltas, paths, slice(None))
        assert cores.shape[0] == len(dataset)
        for i, x in enumerate(dataset.x):
            alone = forward(params, x)[1]
            alone_deltas = _deltas(params, alone)
            want = _range_core(params, alone, alone_deltas,
                               _geometry_blocks(params, alone, alone_deltas))
            assert ranks[i] == want.shape[0]
            padded = np.sort(np.concatenate([np.linalg.eigvalsh(want),
                                             np.zeros(cores.shape[1] - want.shape[0])]))
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            assert np.abs(np.linalg.eigvalsh(cores[i]) - padded).max() <= 1e-12 * scale

    def test_core_eigensolver_failure_is_numeric_error(self, monkeypatch):
        rng = np.random.default_rng(28)
        params = NetworkParams((rng.standard_normal((2, 3)),), rng.standard_normal(3))
        dataset = Dataset(rng.standard_normal((2, 2)), np.array([1.0, -1.0]))
        eigvalsh = np.linalg.eigvalsh

        def failing_on_cores(matrix):
            if matrix.shape[0] < sum(param_group_dims(params)):
                raise np.linalg.LinAlgError("did not converge")
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_cores)
        with pytest.raises(NumericError, match="the frame cores of samples 0 to 0 failed"):
            landscape_report(params, LossL0.HINGE, dataset)


SMOOTH_RULES = [
    ActivationRule.EXPECTATION_MASK_01,
    ActivationRule.PARTIAL_EXPECTATION_01,
    ActivationRule.PARTIAL_EXPECTATION_PM1,
]


@pytest.mark.parametrize("rule", SMOOTH_RULES, ids=lambda rule: rule.value)
@pytest.mark.parametrize(
    "call",
    [
        lambda params, x: risk_hessian(params, LossL0.HINGE, Dataset([x], [1.0])),
        lambda params, x: sample_hessian(params, LossL0.HINGE, x, 1.0),
        lambda params, x: landscape_report(params, LossL0.HINGE, Dataset([x], [1.0])),
    ],
    ids=["risk_hessian", "sample_hessian", "landscape_report"],
)
def test_smooth_rules_are_refused(call, rule):
    # their second derivatives are not in the Kronecker blocks, so the
    # result would not be the Hessian; the rule is refused before P is
    # checked, even for a network over the dense budget
    for params in (
        random_net(np.random.default_rng(29), rule=rule),
        NetworkParams((np.zeros((50, 50)), np.zeros((50, 50))), np.zeros(50), rule),
    ):
        with pytest.raises(DomainError, match=(
            f"the exact Hessian needs relu layers; the network uses '{rule.value}'"
        )):
            call(params, np.ones(params.input_dim))


@pytest.mark.parametrize("call", [risk_hessian, landscape_report],
                         ids=["risk_hessian", "landscape_report"])
def test_empty_input_list_is_an_empty_dataset(call):
    params = NetworkParams((np.ones((2, 2)),), np.ones(2))
    dataset = Dataset([], [])
    assert len(dataset) == 0
    with pytest.raises(DomainError, match="dataset is empty"):
        call(params, LossL0.HINGE, dataset)


class TestDenseBudget:
    def test_refused_before_allocation(self):
        # W (400 x 250), (250 x 250) and alpha (250): P = 162750; P^2 plus
        # the one sample's factors (189500) and the pair (W_1, W_2)'s outer
        # product, path copy and 62500 x 100000 GEMM output (6250162500)
        params = NetworkParams((np.zeros((400, 250)), np.zeros((250, 250))), np.zeros(250))
        dataset = Dataset(np.ones((1, 400)), np.array([1.0]))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"P=162750 .*\(261903316000 bytes\)"):
                risk_hessian(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_landscape_first_pass_refused_before_allocation(self):
        # narrow column roles: the 6060 rows of H[q > 1, 1] for W_1 (100 x 100)
        # and the 60 of H[3, 2] for W_2 (100 x 60), 60600000 + 360000
        # entries, and beside them the pass's largest temporaries, those of
        # the pair (W_1, W_2) with its 6000 x 10000 GEMM output, refused
        # before the first pass
        params = NetworkParams((np.ones((100, 100)), np.ones((100, 60))), np.ones(60))
        dataset = Dataset(np.ones((1, 100)), np.array([1.0]))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=(
                r"first landscape pass over P=16060 parameters, for the narrow roles'"
                r" summed blocks, needs 120996240 entries"
            )):
                landscape_report(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_landscape_first_pass_counts_its_chunks(self, monkeypatch):
        # widths 6, P = 114: only W_3's column role is narrow, and its
        # 6 x 36 block H[4, 3], 216 entries, fits a budget of 1000; the
        # first pass over m=20 also holds two chunks of 7 samples' factors,
        # 288 entries a sample, and the pair (W_3, alpha)'s temporaries
        # and GEMM output, 4758 entries in all, so it is refused before
        # any sample is evaluated
        rng = np.random.default_rng(41)
        w, m = 6, 20
        params = NetworkParams(tuple(rng.standard_normal((w, w)) for _ in range(3)),
                               rng.standard_normal(w))
        dataset = Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m))
        monkeypatch.setattr(errors, "MAX_DENSE_ENTRIES", 1000)

        def evaluated(*args):
            raise AssertionError("a sample was evaluated")

        monkeypatch.setattr(hessian, "_sample_terms", evaluated)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=(
                r"first landscape pass over P=114 parameters, for the narrow roles'"
                r" summed blocks, needs 4758 entries"
            )):
                landscape_report(params, LossL0.HINGE, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(case=relu_cases(), data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_chunk_plan_matches_the_hand_counts(self, case, data):
        # the one plan against the counts risk_hessian, the landscape's
        # second pass and a centred esd trial once added up by hand: with
        # the case's widths, some groups reduced, and m below, at and
        # above the largest chunk; and the counts the calls check
        params, kind, dataset = case
        widths, dims = _layer_widths(params), param_group_dims(params)
        cut = data.draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
        sizes = [data.draw(st.integers(0, d - 1)) if c else d for d, c in zip(dims, cut)]
        columns = [k if c else None for k, c in zip(sizes, cut)]
        full = _chunk_plan(widths, 10 ** 9, sizes)[0]
        p = sum(dims)
        for m in sorted({1, max(1, full - 1), full, full + 1, 3 * full}):
            assert _chunk_plan(widths, m, sizes) == (accumulator_pass(widths, m, columns)[0],
                                                     range_core_entries(widths, m, sizes))
            assert _chunk_plan(widths, m, dims)[1] == risk_hessian_entries(widths, m)
            assert max(_chunk_plan(widths, m, dims)[1], 2 * p * p + _chunk_plan(widths, 1, dims)[1]
                       ) == centred_trial_entries(widths, m)
        n, samples = data.draw(st.integers(1, 3000)), data.draw(st.integers(1, 64))
        assert (_trial_entries("centered-hessian", n, samples)[0]
                == centred_trial_entries(_hessian_widths(n), samples))
        report, _, counted = budget_peak(lambda: landscape_report(params, kind, dataset))
        assert counted["the range core"] == range_core_entries(widths, len(dataset),
                                                               report.range_dims)
        _, _, counted = budget_peak(lambda: risk_hessian(params, kind, dataset))
        assert counted["a dense Hessian"] == risk_hessian_entries(widths, len(dataset))

    def test_admits_the_sizes_in_use(self):
        assert MAX_DENSE_ENTRIES >= 1900 ** 2
