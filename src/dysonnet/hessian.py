"""Exact dense Hessian of the empirical risk of a relu chain, block by block.

For the piecewise-linear loss class and relu layers the per-sample Hessian
has zero diagonal blocks, and each cross block between parameter groups
p < q factors into a Kronecker product of three pieces: the backprop
vector u_q (the score's derivative in layer q's preactivation, as the
gradient uses it), the activation-path matrix P_pq connecting layer p to
layer q-1 through the estimation derivatives, and the forward activation
t_{p-1} entering layer p.  The output vector is treated as the final
parameter group, with u = 1.  The smooth rules (``swish``, ``sigmoid``,
``tanh``) are refused with :class:`DomainError`: their estimation maps
have second derivatives, which add diagonal blocks and break the
Kronecker structure used here.

Assembly is exact at points where no preactivation sits on an estimation
kink and no sample sits on a loss kink; samples violating either are
flagged rather than silently differentiated.  The dense P x P matrix is
refused with :class:`CapacityError` beyond ``errors.MAX_DENSE_ENTRIES``
before anything is allocated.

No per-sample block is formed, and no sample is evaluated or copied on
its own.  The samples are taken in chunks of rows: one stacked forward
and backward pass gives a chunk's layer inputs t and vectors u as rows,
and one batched product its w x w path matrices P_pq.  A chunk adds into
each block (p, q) of the one P x P matrix with one GEMM,
``(u_q ⊗ t_{p-1})^T @ vec(P_pq)``; the blocks are mirrored across the
diagonal once, after the last chunk.  The chunk length is set so that
two chunks' factors fit in one block set.  The peak is therefore a few
block sets however many samples there are, for every caller: the one
P x P matrix, the chunk in hand and the one before it, and one block's
GEMM output.

The same Kronecker structure confines each sample's Hessian to a
subspace of dimension k << P: within group g its range lies in the span
of ``I ⊗ t_{g-1}`` and ``u_g ⊗ I``.  The landscape report builds each
sample's k x k core in that basis in closed form from the sample's
factors, and reads the sample's operator norm off the core.

The relu masks confine the summed Hessian too.  Within group g its range
lies in the span of ``t_{g-1} e_j^T`` over the units j that a sample with
nonzero loss derivative keeps active in layer g, and of ``e_k u_g^T`` over
the active units k of layer g-1.  The landscape report gathers these
masks and vectors chunk by chunk, takes an orthonormal basis Q_g of each
group's span (the identity once the span can fill the group), and
eigensolves the r x r core Q^T H Q, r <= P, in place of the P x P
matrix; the other P - r eigenvalues are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError, check_dense_budget
from .net import Dataset, LossL0, NetworkParams, param_group_dims
from .net import _sample_terms
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


def _eigvalsh(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of {what} failed: {exc}") from exc


@dataclass(frozen=True)
class HessianBlocks:
    """A symmetric Hessian with zero diagonal blocks, held as one dense matrix.

    ``dims`` are the flat sizes of the parameter groups in order
    W_1, ..., W_{L-1}, alpha, and ``matrix`` is the P x P Hessian over
    them, P = ``sum(dims)``, column-major vectorization throughout.  Block
    (p, q) for p < q, over vec(W_q) rows and vec(W_p) columns, sits below
    the diagonal and its transpose above.  numpy reads a ``HessianBlocks``
    as its matrix.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.n, self.n):
            raise ShapeError(f"matrix has shape {self.matrix.shape}, expected {(self.n, self.n)}")

    @property
    def n(self) -> int:
        return int(sum(self.dims))

    def assemble(self) -> np.ndarray:
        """The dense symmetric matrix itself; nothing is copied."""
        return self.matrix

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def _checked_dims(params: NetworkParams) -> tuple[int, ...]:
    """The network's group sizes, once the rule and the dense budget admit its Hessian."""
    if params.rule is not ActivationRule.ARGMAX_MASK_01:
        raise DomainError(
            f"the exact Hessian needs relu layers; the network uses {params.rule.value!r}"
        )
    dims = param_group_dims(params)
    n = int(sum(dims))
    check_dense_budget(n * n, f"a dense Hessian of P={n} parameters")
    return dims


def _path_matrices(params: NetworkParams, states) -> dict:
    """The rows' path matrices P_pq = dg(h'_{q-1}) W_{q-1}^T ... W_{p+1}^T dg(h'_p).

    ``states`` hold the samples as rows; ``paths[(p, q)]`` stacks their
    d_{q-1} x d_p matrices P_pq for 1 <= p < q <= L, group L being the
    output vector, and P_{p,p+1} = dg(h'_p).
    """
    paths = {}
    for p in range(1, len(states) + 1):
        h_prime = states[p - 1].h_prime
        path = h_prime[:, :, None] * np.eye(h_prime.shape[1])
        paths[(p, p + 1)] = path
        for q in range(p + 2, len(states) + 2):
            path = (states[q - 2].h_prime[:, :, None] * params.weights[q - 2].T) @ path
            paths[(p, q)] = path
    return paths


def _add_chunk(target: np.ndarray, u, t: np.ndarray, paths: np.ndarray) -> None:
    """Add a chunk's part of one cross block into ``target`` with one GEMM.

    Row i of ``u`` (None for the output group, u = 1) and ``t`` and
    ``paths[i]`` are sample i's u_q, scaled t_{p-1} and P_pq.  The GEMM
    ``(u ⊗ t)^T @ vec(P)`` sums the samples' blocks in (c, b) x (r, a)
    order; ``target`` is in the column-major Kronecker order (c, r) x (a, b).
    """
    rows, width_r, width_a = paths.shape
    x = t if u is None else (u[:, :, None] * t[:, None, :]).reshape(rows, -1)
    summed = x.T @ paths.reshape(rows, -1)
    n_c, width_b = target.shape[0] // width_r, t.shape[1]
    blocks = np.reshape(target, (n_c, width_r, width_a, width_b), copy=False)
    # one u entry at a time: a whole strided block would make the ufunc
    # take full-size iteration buffers
    for c, part in enumerate(summed.reshape(n_c, width_b, width_r, width_a)):
        blocks[c] += part.transpose(1, 2, 0)


def _summed_factors(params: NetworkParams, kind: LossL0, dataset: Dataset, out: np.ndarray):
    """Yield ``(rows, values, derivs, loss_args, states, deltas, paths)`` for each chunk.

    A chunk is the slice ``rows`` of the samples, evaluated at once by
    :func:`net._sample_terms`, with its :func:`_path_matrices`; every
    array holds the chunk's samples as rows.  Block (p, q) of a sample's
    Hessian is ``deriv * kron(u_q, kron(P_pq, t_{p-1}^T))``, with
    u_q = ``deltas[q-1]`` and u_L = 1; ``1/m`` of it is added into that
    block of ``out``, the zeroed P x P matrix.  A chunk's factors, with
    the one pair's outer products ``u_q ⊗ t_{p-1}`` formed at a time, fit
    in half a block set; its samples with a nonzero ``deriv`` add into
    each block with one GEMM.  After the last chunk the blocks are mirrored
    into the upper triangle, and ``out`` holds the risk Hessian.
    """
    widths = (params.input_dim,) + tuple(w.shape[1] for w in params.weights)
    groups = len(widths)
    pairs = [(p, q) for p in range(1, groups) for q in range(p + 1, groups + 1)]
    offsets = np.concatenate([[0], np.cumsum(param_group_dims(params))]).astype(int)
    targets = {
        (p, q): out[offsets[q - 1]:offsets[q], offsets[p - 1]:offsets[p]] for p, q in pairs
    }

    def out_width(q):  # length of u_q
        return widths[q] if q < groups else 1

    block_set = sum(out_width(q) * widths[q - 1] * widths[p] * widths[p - 1] for p, q in pairs)
    # a sample's layer states, deltas and P's, and its row of the largest u ⊗ t formed
    factors = 4 * sum(widths[1:]) + sum(widths[q - 1] * widths[p] for p, q in pairs)
    largest_outer = max((out_width(q) * widths[p - 1] for p, q in pairs), default=0)
    m = len(dataset)
    # the caller still holds one chunk while the next is formed: two fit in a block set
    chunk = max(1, min(m, block_set // max(2 * (factors + largest_outer), 1)))
    # at least one chunk, so that _sample_terms refuses an empty dataset
    for start in range(0, max(m, 1), chunk):
        rows = slice(start, min(start + chunk, m))
        values, derivs, loss_args, states, deltas = _sample_terms(params, kind, dataset, rows)
        paths = _path_matrices(params, states)
        kept = derivs != 0.0
        if np.any(kept):
            scale = (derivs[kept] / m)[:, None]
            for p, q in pairs:
                u = deltas[q - 1][kept] if q < groups else None
                _add_chunk(targets[(p, q)], u, states[p - 1].t_in[kept] * scale,
                           paths[(p, q)][kept])
        yield rows, values, derivs, loss_args, states, deltas, paths
    for (p, q), block in targets.items():
        out[offsets[p - 1]:offsets[p], offsets[q - 1]:offsets[q]] = block.T


def _sample_core(params: NetworkParams, states, deltas, paths, i: int) -> np.ndarray:
    """The k x k core Q^T H Q of row ``i``'s geometry H, from its factors.

    ``states``, ``deltas`` and ``paths`` hold a chunk of samples as rows.
    Q = blockdiag(Q_1, ..., Q_L) with Q_g = [I ⊗ t̂_{g-1}, û_g ⊗ N] for
    g < L, N an orthonormal basis of t̂_{g-1}'s complement, and Q_L = I.
    The û piece exists for g > 1 only, and a piece whose vector is zero
    is dropped; under relu t_{g-1} = 0 zeroes u_g too, so such a group
    keeps no column.  Block (p, q) of H is X ⊗ t_{p-1}^T with
    X = u_q ⊗ P_pq.  Its column part along I ⊗ t̂_{p-1} is |t_{p-1}| X,
    and along û_p ⊗ N it is 0, since N ⊥ t̂_{p-1}.  X's row parts are
    ``outer(u_q, t̂_{q-1}^T P_pq)`` and ``|u_q| N^T P_pq`` (P_pL itself for
    the output group).  H's range lies in the span of Q, so H and the
    core share their nonzero eigenvalues.
    """
    pieces = []  # per group g < L: None, or (|t_{g-1}|, t̂_{g-1}, |u_g| N or None)
    sizes = []
    for g, state in enumerate(states, start=1):
        t_in = state.t_in[i]
        t_norm = np.linalg.norm(t_in)
        if t_norm == 0.0:
            pieces.append(None)
            sizes.append(0)
            continue
        t_hat = t_in / t_norm
        scaled_complement = None
        size = state.h_hat.shape[1]
        u_norm = np.linalg.norm(deltas[g - 1][i])
        if g > 1 and u_norm > 0.0:
            complement = np.linalg.qr(t_hat[:, None], mode="complete")[0][:, 1:]
            scaled_complement = u_norm * complement
            size += complement.shape[1]
        pieces.append((t_norm, t_hat, scaled_complement))
        sizes.append(size)
    sizes.append(params.alpha.size)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    core = np.zeros((offsets[-1], offsets[-1]))
    for (p, q), stacked in paths.items():
        if pieces[p - 1] is None or (q <= len(states) and pieces[q - 1] is None):
            continue  # no columns in group p, or (t_{q-1} = 0) P_pq = 0
        path = stacked[i]
        if q > len(states):
            rows = path
        else:
            _, t_hat, scaled_complement = pieces[q - 1]
            rows = np.outer(deltas[q - 1][i], t_hat @ path)
            if scaled_complement is not None:
                rows = np.vstack([rows, scaled_complement.T @ path])
        block = pieces[p - 1][0] * rows
        r = slice(offsets[q - 1], offsets[q - 1] + block.shape[0])
        c = slice(offsets[p - 1], offsets[p - 1] + block.shape[1])
        core[r, c] = block
        core[c, r] = block.T
    return core


class _RangeSpans:
    """Spanning sets of each parameter group's part of the risk Hessian's range.

    Block (p, q) of sample i is ``d_i * kron(u_q, kron(P_pq, t_{p-1}^T))``
    with P_pq = dg(h'_{q-1}) ... dg(h'_p), so over the samples with
    d_i != 0 group g's part of the range is spanned by two roles:
    - as the column group (g < L), by vec(t_{g-1} e_j^T) for each unit j
      with h'_{g,j} = 1, or by the rows of the summed blocks H[q, g], q > g;
    - as the row group (g > 1), by vec(e_k u_g^T) for each unit k with
      h'_{g-1,k} = 1 (u_L = 1), or by the columns of H[g, p], p < g.
    Each role takes the smaller set.  The masks and vectors are gathered
    chunk by chunk, only while the set can still be the one taken and
    the group still falls short of its dimension.
    """

    def __init__(self, params: NetworkParams):
        widths = (params.input_dim,) + tuple(w.shape[1] for w in params.weights)
        # (rows, columns) of each group's matrix; the output vector is one column
        self.shapes = list(zip(widths, widths[1:] + (1,)))
        self.offsets = np.concatenate([[0], np.cumsum(param_group_dims(params))]).astype(int)
        size = self.offsets[-1]
        # the summed blocks' own rows and columns per role: H[q > g, g], H[g, p < g]
        self.limits = np.array([(size - end, start) for start, end in
                                zip(self.offsets, self.offsets[1:])])
        self.counts = np.zeros_like(self.limits)
        self.found = [([], []) for _ in self.shapes]

    def add(self, states, deltas, kept: np.ndarray) -> None:
        """Gather one chunk's masks and vectors, from the rows with ``kept`` (d != 0)."""
        last = len(states)  # the output vector's group, 0-based
        for g, (n_rows, n_cols) in enumerate(self.shapes):
            roles = [None, None]
            if g < last:
                roles[0] = states[g].h_prime[kept], states[g].t_in[kept]
            if g > 0:
                u = deltas[g][kept] if g < last else np.ones((np.count_nonzero(kept), 1))
                roles[1] = states[g - 1].h_prime[kept], u
            for role, factors in enumerate(roles):
                if factors is None:
                    continue
                mask, vectors = factors
                rows, units = np.nonzero(mask)
                used = np.minimum(self.counts[g], self.limits[g]).sum()
                if self.counts[g, role] <= self.limits[g, role] and used < n_rows * n_cols:
                    self.found[g][role].append((vectors[rows], units))
                self.counts[g, role] += units.size

    def _basis(self, g: int, full: np.ndarray):
        """Q_g from the reduced QR of group g's sets; None where it is the identity."""
        start, end = self.offsets[g], self.offsets[g + 1]
        used = np.minimum(self.counts[g], self.limits[g])
        if used.sum() >= end - start:
            return None
        n_rows, n_cols = self.shapes[g]
        # one spanning vector a row, as the column-major vec of a group matrix
        spans = np.zeros((used.sum(), n_cols, n_rows))
        own = (full[end:, start:end], full[:start, start:end])  # H[q > g, g], H[p < g, g]
        at = 0
        for role, count in enumerate(used):
            part = spans[at:at + count]
            at += count
            if self.counts[g, role] > self.limits[g, role]:
                part.reshape(count, end - start)[...] = own[role]
            elif count:
                vectors = np.concatenate([v for v, _ in self.found[g][role]])
                units = np.concatenate([k for _, k in self.found[g][role]])
                if role == 0:
                    part[np.arange(count), units, :] = vectors  # t_{g-1} e_j^T
                else:
                    part[np.arange(count), :, units] = vectors  # e_k u_g^T
        return np.linalg.qr(spans.reshape(at, end - start).T)[0]

    def core(self, full: np.ndarray) -> np.ndarray:
        """The r x r core Q^T H Q of the summed Hessian ``full``, Q = blockdiag(Q_g).

        Q_g is the identity where the group's sets together reach its
        dimension, and otherwise the reduced QR of its sets: a basis of a
        superset of the range, so no rank threshold is needed.  Where every
        Q_g is the identity the core is ``full`` itself.
        """
        bases = [self._basis(g, full) for g in range(len(self.shapes))]
        if all(basis is None for basis in bases):
            return full
        sizes = [end - start if basis is None else basis.shape[1]
                 for start, end, basis in zip(self.offsets, self.offsets[1:], bases)]
        at = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        core = np.zeros((at[-1], at[-1]))
        for p in range(len(bases)):
            for q in range(p + 1, len(bases)):
                block = full[self.offsets[q]:self.offsets[q + 1], self.offsets[p]:self.offsets[p + 1]]
                if bases[q] is not None:
                    block = bases[q].T @ block
                if bases[p] is not None:
                    block = block @ bases[p]
                core[at[q]:at[q + 1], at[p]:at[p + 1]] = block
                core[at[p]:at[p + 1], at[q]:at[q + 1]] = block.T
        return core


def risk_hessian(params: NetworkParams, kind: LossL0, dataset: Dataset) -> HessianBlocks:
    """Mean of the per-sample Hessians of a relu chain, as one dense P x P matrix."""
    dims = _checked_dims(params)
    matrix = np.zeros((sum(dims), sum(dims)))
    for _ in _summed_factors(params, kind, dataset, matrix):
        pass
    return HessianBlocks(dims, matrix)


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
    ``range_dim`` is r, the dimension of the masked range basis the risk
    Hessian is eigensolved in (see the module docstring): ``eigs`` holds
    at least P - r exact zeros, a proved lower bound on the null space.
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
    range_dim: int

    @property
    def bound(self) -> float:
        return self.mean_lprime * self.lambda0

    @property
    def bound_holds(self) -> bool:
        return self.op_norm <= self.bound + 1e-9


def landscape_report(params: NetworkParams, kind: LossL0, dataset: Dataset) -> LandscapeReport:
    """Assemble the risk Hessian of a relu chain, its spectrum and the operator-norm bound."""
    dims = _checked_dims(params)
    full = np.zeros((sum(dims), sum(dims)))
    m = len(dataset)
    losses = np.empty(m)
    abs_derivs = np.empty(m)
    kinks = np.empty(m, dtype=bool)
    norms = np.empty(m)
    ranks = np.empty(m, dtype=int)
    spans = _RangeSpans(params)
    chunks = _summed_factors(params, kind, dataset, full)
    for rows, values, derivs, loss_args, states, deltas, paths in chunks:
        spans.add(states, deltas, derivs != 0.0)
        losses[rows] = values
        abs_derivs[rows] = np.abs(derivs)
        kinks[rows] = np.abs(loss_args) < KINK_TOL
        for state in states:
            kinks[rows] |= np.any(np.abs(state.h_hat) < KINK_TOL, axis=1)
        for row, i in enumerate(range(rows.start, rows.stop)):
            core = _sample_core(params, states, deltas, paths, row)
            ranks[i] = core.shape[0]
            norms[i] = np.max(np.abs(_eigvalsh(core, f"sample {i}'s range core")))
    range_core = spans.core(full)
    del full  # the r x r eigensolve does not need the P x P matrix beside its core
    eigs = np.sort(np.concatenate([
        _eigvalsh(range_core, "the risk Hessian's range core"),
        np.zeros(sum(dims) - range_core.shape[0]),
    ]))
    op_norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    top = int(np.argmax(norms))
    report = LandscapeReport(
        risk=float(np.sum(losses) / m),
        mean_lprime=float(np.sum(abs_derivs) / m),
        lambda0=float(norms[top]),
        op_norm=op_norm,
        eigs=eigs,
        neg_fraction=negative_fraction(eigs, 1e-8 * op_norm if op_norm > 0 else np.inf),
        kink_samples=tuple(int(i) for i in np.flatnonzero(kinks)),
        lambda0_sample=top,
        sample_ranks=tuple(int(k) for k in ranks),
        range_dim=int(range_core.shape[0]),
    )
    if not report.bound_holds:
        raise NumericError(
            f"operator-norm bound violated: {op_norm} > {report.bound} + 1e-9"
        )
    return report
