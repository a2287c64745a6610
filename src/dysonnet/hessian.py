"""Exact dense Hessian of the empirical risk of a relu chain, block by block.

For the piecewise-linear loss class and relu layers the per-sample Hessian
has zero diagonal blocks, and each cross block between parameter groups
p < q factors into a Kronecker product of three pieces: the backprop
vector u_q (the score's derivative in layer q's preactivation, as the
gradient uses it), the activation-path matrix connecting layer p to layer
q-1 through the estimation derivatives, and the forward activation
entering layer p.  The output vector is treated as the final parameter
group; its blocks use the same path factor with an empty trailing product.
The smooth rules (``swish``, ``sigmoid``, ``tanh``) are refused with
:class:`DomainError`: their estimation maps have second derivatives, which
add diagonal blocks and break the Kronecker structure used here.

Assembly is exact at points where no preactivation sits on an estimation
kink and no sample sits on a loss kink; samples violating either are
flagged rather than silently differentiated.  Per-sample blocks are summed
in place, so memory does not grow with the number of samples.  A dense
P x P matrix, and the block sets that lead to it, are refused with
:class:`CapacityError` beyond ``MAX_DENSE_ENTRIES`` before anything is
allocated.

The same Kronecker structure confines each sample's Hessian to a
subspace of dimension k << P: within group g its range lies in the span
of ``I ⊗ t_{g-1}`` and ``u_g ⊗ I``.  The landscape report projects each
sample's blocks onto an orthonormal basis of that span and reads the
sample's operator norm off the k x k core; no per-sample P x P matrix is
formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, NumericError, ShapeError
from .net import Dataset, LossL0, NetworkParams, param_group_dims
from .net import _backprop_deltas, _sample_terms
from .poset import ActivationRule

__all__ = [
    "HessianBlocks",
    "LandscapeReport",
    "landscape_report",
    "negative_fraction",
    "risk_hessian",
    "sample_hessian",
]

KINK_TOL = 1e-9
MAX_DENSE_ENTRIES = 25_000_000  # largest P*P for a dense Hessian: P <= 5000, 200 MB


def _check_dense_budget(entries: int, what: str) -> None:
    """Refuse ``what``, which would hold ``entries`` floats, beyond ``MAX_DENSE_ENTRIES``."""
    if entries > MAX_DENSE_ENTRIES:
        raise CapacityError(
            f"{what} needs {entries} entries ({8 * entries} bytes),"
            f" over the budget of {MAX_DENSE_ENTRIES} entries"
        )


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


def _eigvalsh(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of {what} failed: {exc}") from exc


@dataclass(frozen=True)
class HessianBlocks:
    """Cross blocks of a symmetric Hessian with zero diagonal blocks.

    ``dims`` are the flat sizes of the parameter groups in order
    W_1, ..., W_{L-1}, alpha.  ``blocks[(p, q)]`` for 1-based p < q is the
    dense matrix over vec(W_q) rows and vec(W_p) columns, column-major
    vectorization throughout.
    """

    dims: tuple[int, ...]
    blocks: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        groups = len(self.dims)
        for (p, q), block in self.blocks.items():
            if not 1 <= p < q <= groups:
                raise DomainError(f"block index ({p}, {q}) outside 1..{groups}")
            expected = (self.dims[q - 1], self.dims[p - 1])
            if block.shape != expected:
                raise ShapeError(f"block ({p}, {q}) has shape {block.shape}, expected {expected}")

    @property
    def n(self) -> int:
        return int(sum(self.dims))

    def assemble(self) -> np.ndarray:
        """Dense symmetric matrix with blocks mirrored across the diagonal.

        Raises :class:`CapacityError` when P*P exceeds ``MAX_DENSE_ENTRIES``.
        """
        _check_dense_budget(self.n * self.n, f"a dense Hessian of P={self.n} parameters")
        return _mirrored(self.dims, self.blocks)


def _zero_blocks(params: NetworkParams) -> dict[tuple[int, int], np.ndarray]:
    """Zero cross blocks of the network's groups, once the rule and the budget admit them."""
    if params.rule is not ActivationRule.ARGMAX_MASK_01:
        raise DomainError(
            f"the exact Hessian needs relu layers; the network uses {params.rule.value!r}"
        )
    dims = param_group_dims(params)
    n = int(sum(dims))
    _check_dense_budget(n * n, f"a dense Hessian of P={n} parameters")
    groups = len(dims)
    return {
        (p, q): np.zeros((dims[q - 1], dims[p - 1]))
        for p in range(1, groups)
        for q in range(p + 1, groups + 1)
    }


def _geometry_blocks(params: NetworkParams, states, deltas) -> dict:
    """Per-sample blocks without the loss-derivative factor.

    Group indices are 1-based; group L is the output vector.  For p < q < L
    the block is kron(u_q, kron(P_pq, t_{p-1}^T)) with u_q = ``deltas[q-1]``
    from :func:`net._backprop_deltas` and
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
    vector is zero (a dead layer) is dropped.  Under relu t_{g-1} = 0 zeroes
    layer g's mask and so u_g: a group with a zero input keeps no columns.
    The output group's range is the whole group.
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
    """The k x k matrix Q^T H Q of one sample's geometry H, Q = blockdiag(bases).

    H's range lies in the span of Q, so H and the core share their nonzero
    eigenvalues.
    """
    bases = _range_bases(params, states, deltas)
    projected = {
        (p, q): bases[q - 1].T @ block @ bases[p - 1] for (p, q), block in geometry.items()
    }
    return _mirrored([b.shape[1] for b in bases], projected)


def _summed_geometry(params: NetworkParams, kind: LossL0, dataset: Dataset, total: dict):
    """Yield ``(value, deriv, offset, states, deltas, geometry)`` for each sample.

    ``deltas`` is the sample's one backward pass.  ``deriv * geometry`` is
    added to ``total`` in place before each yield."""
    for value, deriv, offset, states in _sample_terms(params, kind, dataset):
        deltas = _backprop_deltas(params, states)
        geometry = _geometry_blocks(params, states, deltas)
        for k, block in geometry.items():
            total[k] += deriv * block
        yield value, deriv, offset, states, deltas, geometry


def risk_hessian(params: NetworkParams, kind: LossL0, dataset: Dataset) -> HessianBlocks:
    """Blockwise mean of the per-sample Hessians of a relu chain."""
    total = _zero_blocks(params)
    for _ in _summed_geometry(params, kind, dataset, total):
        pass
    return HessianBlocks(param_group_dims(params), {k: v / len(dataset) for k, v in total.items()})


def sample_hessian(params: NetworkParams, kind: LossL0, x: np.ndarray, y: float) -> HessianBlocks:
    """Exact Hessian of one sample's loss: the risk Hessian of a one-sample dataset."""
    return risk_hessian(params, kind, Dataset([x], [y]))


def negative_fraction(eigs: np.ndarray, tol: float) -> float:
    """Share of eigenvalues below -tol among those exceeding tol in magnitude."""
    eigs = np.asarray(eigs, dtype=float)
    nonzero = np.abs(eigs) > tol
    if not np.any(nonzero):
        return 0.0
    return float(np.count_nonzero(eigs[nonzero] < -tol) / np.count_nonzero(nonzero))


@dataclass(frozen=True)
class LandscapeReport:
    """Spectral summary of the risk Hessian at one parameter point.

    ``lambda0`` is the largest operator norm among the per-sample geometry
    factors, so the bound ``op_norm <= mean_lprime * lambda0`` certifies
    that the spectrum collapses as the mean absolute loss derivative
    vanishes.  Each sample's norm is the exact largest |eigenvalue| of its
    k x k range core (see the module docstring); ``sample_ranks`` holds
    each sample's k, the dimension of the subspace its Hessian lives in,
    and ``lambda0_sample`` the first sample attaining ``lambda0``.
    ``kink_samples`` lists samples with a preactivation within
    ``KINK_TOL`` of an estimation kink or a hinge margin ``1 - y * score``
    or residual ``score - y`` within ``KINK_TOL`` of the loss kink at 0.
    """

    risk: float
    mean_lprime: float
    lambda0: float
    op_norm: float
    eigs: np.ndarray
    neg_fraction: float
    kink_samples: tuple[int, ...]
    lambda0_sample: int
    sample_ranks: tuple[int, ...]

    @property
    def bound(self) -> float:
        return self.mean_lprime * self.lambda0

    @property
    def bound_holds(self) -> bool:
        return self.op_norm <= self.bound + 1e-9


def landscape_report(params: NetworkParams, kind: LossL0, dataset: Dataset) -> LandscapeReport:
    """Assemble the risk Hessian of a relu chain, its spectrum and the operator-norm bound."""
    total = _zero_blocks(params)
    norms = []
    ranks = []
    abs_derivs = []
    losses = []
    kinks = []
    samples = _summed_geometry(params, kind, dataset, total)
    for i, (value, deriv, offset, states, deltas, geometry) in enumerate(samples):
        losses.append(value)
        abs_derivs.append(abs(deriv))
        if abs(offset) < KINK_TOL or any(np.any(np.abs(s.h_hat) < KINK_TOL) for s in states):
            kinks.append(i)
        core = _range_core(params, states, deltas, geometry)
        ranks.append(core.shape[0])
        norms.append(float(np.max(np.abs(_eigvalsh(core, f"sample {i}'s range core")))))
    m = len(dataset)
    blocks = HessianBlocks(param_group_dims(params), {k: v / m for k, v in total.items()})
    eigs = np.sort(_eigvalsh(blocks.assemble(), "the risk Hessian"))
    op_norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    top = int(np.argmax(norms))
    report = LandscapeReport(
        risk=float(np.sum(losses) / m),
        mean_lprime=float(np.sum(abs_derivs) / m),
        lambda0=norms[top],
        op_norm=op_norm,
        eigs=eigs,
        neg_fraction=negative_fraction(eigs, 1e-8 * op_norm if op_norm > 0 else np.inf),
        kink_samples=tuple(kinks),
        lambda0_sample=top,
        sample_ranks=tuple(ranks),
    )
    if not report.bound_holds:
        raise NumericError(
            f"operator-norm bound violated: {op_norm} > {report.bound} + 1e-9"
        )
    return report
