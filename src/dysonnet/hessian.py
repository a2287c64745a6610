"""Exact dense Hessian of the empirical risk, block by block.

For the piecewise-linear loss class the per-sample Hessian has zero
diagonal blocks, and each cross block between parameter groups p < q
factors into a Kronecker product of three pieces: the vector obtained by
propagating the output vector down to layer q through the squared
estimation derivatives, the activation-path matrix connecting layer p to
layer q-1 through the estimation derivatives, and the forward activation
entering layer p.  The output vector is treated as the final parameter
group; its blocks use the same path factor with an empty trailing product.

Assembly is exact at points where no preactivation sits on an estimation
kink and no sample sits on a loss kink; samples violating either are
flagged rather than silently differentiated.  Per-sample blocks are summed
in place, so memory does not grow with the number of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .net import Dataset, LossL0, NetworkParams, _sample_terms, param_group_dims

__all__ = [
    "HessianBlocks",
    "LandscapeReport",
    "landscape_report",
    "negative_fraction",
    "risk_hessian",
    "sample_hessian",
]

KINK_TOL = 1e-9


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
        """Dense symmetric matrix with blocks mirrored across the diagonal."""
        offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        full = np.zeros((self.n, self.n))
        for (p, q), block in self.blocks.items():
            rows = slice(offsets[q - 1], offsets[q])
            cols = slice(offsets[p - 1], offsets[p])
            full[rows, cols] = block
            full[cols, rows] = block.T
        return full


def _zero_blocks(dims: tuple[int, ...]) -> dict[tuple[int, int], np.ndarray]:
    groups = len(dims)
    return {
        (p, q): np.zeros((dims[q - 1], dims[p - 1]))
        for p in range(1, groups)
        for q in range(p + 1, groups + 1)
    }


def _geometry_blocks(params: NetworkParams, states) -> dict:
    """Per-sample blocks without the loss-derivative factor.

    Group indices are 1-based; group L is the output vector.  For p < q < L
    the block is kron(u_q, kron(P_pq, t_{p-1}^T)) with
    u_q = dg(h''_q) W_{q+1} dg(h''_{q+1}) ... W_{L-1} dg(h''_{L-1}) alpha, where
    h'' = h' * h' is the squared estimation derivative, and
    P_pq = dg(h'_{q-1}) W_{q-1}^T ... W_{p+1}^T dg(h'_p); for q = L the u
    factor is the empty product.
    """
    n_layers = len(params.weights)
    groups = n_layers + 1
    blocks: dict[tuple[int, int], np.ndarray] = {}

    # u[q] for q = 1..n_layers, built from the top down.
    u = [None] * (n_layers + 1)
    acc = params.alpha
    for k in range(n_layers, 0, -1):
        h_prime = states[k - 1].h_prime
        acc_k = h_prime * h_prime * acc
        u[k] = acc_k
        acc = params.weights[k - 1] @ acc_k if k > 1 else acc_k

    for p in range(1, groups):
        path = np.diag(states[p - 1].h_prime)
        t_prev = states[p - 1].t_in
        for q in range(p + 1, groups + 1):
            if q > p + 1:
                # extend the path through layer q-1
                j = q - 1
                path = (states[j - 1].h_prime[:, None] * params.weights[j - 1].T) @ path
            if q <= n_layers:
                blocks[(p, q)] = np.kron(u[q][:, None], np.kron(path, t_prev[None, :]))
            else:
                blocks[(p, q)] = np.kron(path, t_prev[None, :])
    return blocks


def _summed_geometry(params: NetworkParams, kind: LossL0, dataset: Dataset, total: dict):
    """Yield ``(value, deriv, offset, states, geometry)`` for each sample.

    ``deriv * geometry`` is added to ``total`` in place before each yield."""
    for value, deriv, offset, states in _sample_terms(params, kind, dataset):
        geometry = _geometry_blocks(params, states)
        for k, block in geometry.items():
            total[k] += deriv * block
        yield value, deriv, offset, states, geometry


def risk_hessian(params: NetworkParams, kind: LossL0, dataset: Dataset) -> HessianBlocks:
    """Blockwise mean of the per-sample Hessians."""
    dims = param_group_dims(params)
    total = _zero_blocks(dims)
    for _ in _summed_geometry(params, kind, dataset, total):
        pass
    return HessianBlocks(dims, {k: v / len(dataset) for k, v in total.items()})


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
    vanishes.  ``kink_samples`` lists samples with a preactivation within
    ``KINK_TOL`` of an estimation kink or a hinge margin ``1 - y * score``
    or residual ``score - y`` within ``KINK_TOL`` of the loss kink at 0.
    """

    risk: float
    mean_lprime: float
    lambda0: float
    op_norm: float
    eigs: np.ndarray
    neg_fraction: float
    kink_samples: tuple[int, ...] = ()

    @property
    def bound(self) -> float:
        return self.mean_lprime * self.lambda0

    @property
    def bound_holds(self) -> bool:
        return self.op_norm <= self.bound + 1e-9


def landscape_report(params: NetworkParams, kind: LossL0, dataset: Dataset) -> LandscapeReport:
    """Assemble the risk Hessian, its spectrum and the operator-norm bound."""
    dims = param_group_dims(params)
    total = _zero_blocks(dims)
    lambda0 = 0.0
    abs_derivs = []
    losses = []
    kinks = []
    samples = _summed_geometry(params, kind, dataset, total)
    for i, (value, deriv, offset, states, geometry) in enumerate(samples):
        losses.append(value)
        abs_derivs.append(abs(deriv))
        if abs(offset) < KINK_TOL or any(np.any(np.abs(s.h_hat) < KINK_TOL) for s in states):
            kinks.append(i)
        tilde = HessianBlocks(dims, geometry).assemble()
        lambda0 = max(lambda0, float(np.max(np.abs(np.linalg.eigvalsh(tilde)))))
    m = len(dataset)
    blocks = HessianBlocks(dims, {k: v / m for k, v in total.items()})
    full = blocks.assemble()
    try:
        eigs = np.sort(np.linalg.eigvalsh(full))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    op_norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    report = LandscapeReport(
        risk=float(np.sum(losses) / m),
        mean_lprime=float(np.sum(abs_derivs) / m),
        lambda0=lambda0,
        op_norm=op_norm,
        eigs=eigs,
        neg_fraction=negative_fraction(eigs, 1e-8 * op_norm if op_norm > 0 else np.inf),
        kink_samples=tuple(kinks),
    )
    if not report.bound_holds:
        raise NumericError(
            f"operator-norm bound violated: {op_norm} > {report.bound} + 1e-9"
        )
    return report
