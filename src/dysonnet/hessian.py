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
flagged rather than silently differentiated.  The dense P x P matrix of
:func:`risk_hessian`, with the chunks' factors and the one GEMM output
held beside it, is refused with :class:`CapacityError` beyond
``errors.MAX_DENSE_ENTRIES`` before anything is allocated; the landscape
report, which forms no P x P array, is held to the same budget on what
each of its passes forms (see below).  What a pass holds is counted in
one place, ``net._chunk_plan``, and each pass is checked on one such
count.

No per-sample block is formed, and no sample is evaluated or copied on
its own.  The samples are taken in chunks of rows: one stacked forward
and backward pass gives a chunk's layer inputs t and vectors u as rows,
and one batched product its w x w path matrices P_pq.  One accumulator
adds a chunk into each target block (p, q) with one GEMM,
``(u_q ⊗ t_{p-1})^T @ vec(P_pq)``; :func:`risk_hessian`'s targets are the
blocks below the diagonal of its one P x P matrix, mirrored across the
diagonal once, after the last chunk.  That is the only mirror: the
landscape's cores are filled below the diagonal alone, which is all that
``np.linalg.eigvalsh`` (``UPLO='L'``) reads.  The chunk length is set so that two chunks' factors fit
in one block set.  The peak is therefore the targets and a few block
sets however many samples there are: the chunk in hand and the one
before it, and one block's GEMM output.

The same Kronecker structure confines each sample's Hessian to a
subspace of dimension k << P: within group g its range lies in the span
of ``I ⊗ t_{g-1}`` and ``u_g ⊗ I``.  The landscape report reads each
sample's operator norm off its core in the frame
Q_g = [I ⊗ t̂_{g-1}, û_g ⊗ Π_g], Π_g = I - t̂_{g-1} t̂_{g-1}^T, whose
Q_g Q_g^T projects onto that span; group 1 has no û piece, and the
output vector's frame is [t̂_{L-1}, Π_L].  A zero t or u zeroes the rows
of its piece rather than dropping it, so every core has one fixed
K x K layout: a slice of a chunk's rows is formed at once in closed form
from the factors, holding no more entries than the chunk's path
matrices or ``SLICE_ENTRIES``, and eigensolved with one call.

The relu masks confine the summed Hessian too.  Within group g its range
lies in the span of ``t_{g-1} e_j^T`` over the units j that a sample with
nonzero loss derivative keeps active in layer g, and of ``e_k u_g^T`` over
the active units k of layer g-1.  The landscape report makes two passes
over the chunks.  The first gathers these masks and vectors, sums the
few blocks H[q, g] whose rows span a group more cheaply (each held once,
as its own accumulator target), and takes an orthonormal basis Q_g of
each group's span (the identity once the span can fill the group; one
QR per unit for a group spanned by its ``t_{g-1} e_j^T`` alone).  The
second sums the r x r core Q^T H Q, r <= P, from the factors: with
B_i = [V_c^T t_{p-1}]_c, V_c being column c of Q_p as a d_{p-1} x d_p
matrix, H[q, p] Q_p is ``Σ_i d_i/m u_q ⊗ (P_pq B)_i`` (Pearlmutter's
Hessian-vector product in closed form), one GEMM per chunk, and Q_q^T
takes it into the core.  Its eigenvalues and P - r exact zeros are the
spectrum.  The budget is
checked on the first pass before it starts: its narrow roles' summed
blocks, two chunks' factors, and the temporaries and GEMM output of the
largest pair it sums.  It is checked on the core, the bases, those sums
and what the second pass holds beside them (two chunks' factors, and one
pair's outer products or B and P_pq B, and its GEMM output) once r is
known, before any of them exists, so its memory grows as r^2, not P^2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, ShapeError, check_dense_budget, solving
from .kernels import ActivationRule
from .net import Dataset, LossL0, NetworkParams, param_group_dims
from .net import _chunk_plan, _layer_widths, _sample_terms

__all__ = [
    "HessianBlocks",
    "LandscapeReport",
    "landscape_report",
    "negative_fraction",
    "risk_hessian",
    "sample_hessian",
]

KINK_TOL = 1e-9
# most entries a slice of frame cores holds (1 MiB): a few cores already
# spread the per-call cost, and one chunk can be all the samples, so the
# chunk's path matrices alone would not bound the first pass's peak
SLICE_ENTRIES = 1 << 17


class HessianBlocks:
    """A symmetric Hessian with zero diagonal blocks, held as one dense matrix.

    ``dims`` are the flat sizes of the parameter groups in order
    W_1, ..., W_{L-1}, alpha, and ``matrix`` is the P x P Hessian over
    them, P = ``sum(dims)``, column-major vectorization throughout.  Block
    (p, q) for p < q, over vec(W_q) rows and vec(W_p) columns, sits below
    the diagonal and its transpose above.  numpy reads a ``HessianBlocks``
    as its matrix.
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims: tuple[int, ...], matrix: np.ndarray):
        self.dims = dims
        self.matrix = matrix
        if matrix.shape != (self.n, self.n):
            raise ShapeError(f"matrix has shape {matrix.shape}, expected {(self.n, self.n)}")

    @property
    def n(self) -> int:
        return int(sum(self.dims))

    def assemble(self) -> np.ndarray:
        """The dense symmetric matrix itself; nothing is copied."""
        return self.matrix

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def _relu_dims(params: NetworkParams) -> tuple[int, ...]:
    """The network's group sizes, once its rule admits the exact Hessian."""
    if params.rule is not ActivationRule.ARGMAX_MASK_01:
        raise DomainError(
            f"the exact Hessian needs relu layers; the network uses {params.rule.value!r}"
        )
    return param_group_dims(params)


def _offsets(sizes) -> np.ndarray:
    """Start of each group along an axis of consecutive groups of ``sizes``, then the end."""
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def _lower_blocks(matrix: np.ndarray, offsets) -> dict:
    """Views of the blocks (p, q), p < q, below the diagonal of ``matrix``, or of each in a stack.

    Group g spans ``offsets[g-1]:offsets[g]`` along both of the last two
    axes; block (p, q) has group q's rows and group p's columns.
    """
    groups = len(offsets) - 1
    return {
        (p, q): matrix[..., offsets[q - 1]:offsets[q], offsets[p - 1]:offsets[p]]
        for p in range(1, groups) for q in range(p + 1, groups + 1)
    }


def _mirror(matrix: np.ndarray, offsets) -> None:
    """Copy the blocks below the diagonal of ``matrix`` above it."""
    for (p, q), block in _lower_blocks(matrix, offsets).items():
        matrix[offsets[p - 1]:offsets[p], offsets[q - 1]:offsets[q]] = block.T


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


def _add_chunk(target: np.ndarray, u: np.ndarray, t: np.ndarray, paths: np.ndarray) -> None:
    """Add a chunk's part of one cross block, or of its product with Q_p, into ``target``.

    Row i of ``u`` (a one for the output group, u_L = 1) and ``t`` and
    ``paths[i]`` belong to sample i.  Where ``t`` holds the scaled t_{p-1}
    as rows, the GEMM ``(u ⊗ t)^T @ vec(P)`` sums the samples' blocks
    u_q ⊗ P_pq ⊗ t_{p-1}^T in (c, b) x (r, a) order, and ``target`` is in
    the column-major Kronecker order (c, r) x (a, b).  Where ``t`` stacks
    the d_p x r_p matrices B_i = [V_c^T t_{p-1}]_c, V_c being column c of
    Q_p as a d_{p-1} x d_p matrix, sample i's block times Q_p is
    ``u_q ⊗ (P_pq B)_i``; one GEMM against ``u`` sums them, rows in the
    same (c, r) order and one column per column of Q_p.
    """
    rows = paths.shape[0]
    if t.ndim == 3:
        target += (u.T @ (paths @ t).reshape(rows, -1)).reshape(target.shape)
        return
    width_r, width_a = paths.shape[1:]
    x = (u[:, :, None] * t[:, None, :]).reshape(rows, -1)
    summed = x.T @ paths.reshape(rows, -1)
    n_c, width_b = target.shape[0] // width_r, t.shape[1]
    blocks = np.reshape(target, (n_c, width_r, width_a, width_b), copy=False)
    # one u entry at a time: a whole strided block would make the ufunc
    # take full-size iteration buffers
    for c, part in enumerate(summed.reshape(n_c, width_b, width_r, width_a)):
        blocks[c] += part.transpose(1, 2, 0)


def _summed_factors(params: NetworkParams, kind: LossL0, dataset: Dataset,
                    targets: dict, bases, chunk: int):
    """Yield ``(rows, values, derivs, loss_args, states, deltas, paths)`` for each chunk.

    A chunk is the slice ``rows`` of the samples, evaluated at once by
    :func:`net._sample_terms`, with its :func:`_path_matrices`; every
    array holds the chunk's samples as rows.  Block (p, q) of a sample's
    Hessian is ``deriv * kron(u_q, kron(P_pq, t_{p-1}^T))``, with
    u_q = ``deltas[q-1]``: the chunk's deltas end with the output vector's
    u_L = 1, a read-only column of ones.  ``1/m`` of it, times Q_p where
    ``bases[p-1]`` holds one (None: the identity), is added into
    ``targets[(p, q)]``, which must start at zero.  Once the generator is
    drained each target holds the summed block H[q, p] (times Q_p).
    A chunk holds ``chunk`` samples, as :func:`net._chunk_plan` set them
    in the call whose count the caller checked; those with a nonzero
    ``deriv`` add into each target with one GEMM, and B is formed once per
    group p.
    """
    widths = _layer_widths(params)
    groups = len(widths)
    m = len(dataset)
    # at least one chunk, so that _sample_terms refuses an empty dataset
    for start in range(0, max(m, 1), chunk):
        rows = slice(start, min(start + chunk, m))
        values, derivs, loss_args, states, deltas = _sample_terms(params, kind, dataset, rows)
        deltas.append(np.broadcast_to(1.0, (len(values), 1)))
        paths = _path_matrices(params, states)
        nonzero = derivs != 0.0
        if np.any(nonzero):
            # a slice takes views; only a zero derivative makes the rows a copy
            kept = slice(None) if np.all(nonzero) else nonzero
            scale = (derivs[kept] / m)[:, None]
            for p in sorted({p for p, _ in targets}):
                t = states[p - 1].t_in[kept] * scale
                basis = bases[p - 1]
                if basis is not None:
                    # B_i[j, c] = (V_c^T t_i)[j]: one GEMM per unit j of layer p
                    t = np.matmul(t, basis.reshape(widths[p], widths[p - 1], -1)).transpose(1, 0, 2)
                for q in range(p + 1, groups + 1):
                    if (p, q) in targets:
                        _add_chunk(targets[(p, q)], deltas[q - 1][kept], t, paths[(p, q)][kept])
        yield rows, values, derivs, loss_args, states, deltas, paths


def _frame_offsets(inputs, deltas) -> np.ndarray:
    """Where each group's frame columns start, then the end: u_g's width, then t_{g-1}'s for g > 1."""
    return _offsets([u.shape[1] + (t.shape[1] if g else 0)
                     for g, (t, u) in enumerate(zip(inputs, deltas))])


def _frame_cores(inputs, deltas, paths, rows: slice) -> np.ndarray:
    """The K x K cores Q^T H Q of the geometries H of ``rows``, stacked.

    ``inputs[g-1]``, ``deltas[g-1]`` hold the chunk's t_{g-1} and u_g as
    rows for every group g, the output vector's u_L = 1 last, and ``paths``
    its :func:`_path_matrices`.  Q = blockdiag(Q_1, ..., Q_L) with
    Q_g = [I ⊗ t̂_{g-1}, û_g ⊗ Π_g], Π_g = I - t̂_{g-1} t̂_{g-1}^T, and no û
    piece for g = 1; a zero t or u has t̂ or û zero, which zeroes rows.  Only
    the blocks below the diagonal are filled, which is all that ``eigvalsh``
    reads.  Each Q_g Q_g^T is the orthogonal projector onto a span holding group g's
    part of H's range, so a core keeps H's nonzero eigenvalues.  Block
    (p, q) of H is X ⊗ t_{p-1}^T with X = u_q ⊗ P_pq.  Its column part along
    I ⊗ t̂_{p-1} is |t_{p-1}| X, and along û_p ⊗ Π_p it is 0, since
    t_{p-1}^T Π_p = 0.  X's row parts are ``outer(u_q, t̂_{q-1}^T P_pq)``
    and ``|u_q| Π_q P_pq``.
    """
    ts = [t[rows] for t in inputs]
    us = [u[rows] for u in deltas]
    t_norms = [np.linalg.norm(t, axis=1) for t in ts]
    u_norms = [np.linalg.norm(u, axis=1) for u in us]
    t_hats = [np.divide(t, norm[:, None], out=np.zeros_like(t), where=norm[:, None] > 0.0)
              for t, norm in zip(ts, t_norms)]
    at = _frame_offsets(ts, us)
    cores = np.zeros((len(t_norms[0]), at[-1], at[-1]))
    for (p, q), block in _lower_blocks(cores, at).items():
        path = paths[(p, q)][rows]
        along = t_hats[q - 1][:, None, :] @ path  # t̂_{q-1}^T P_pq
        scale = t_norms[p - 1][:, None, None]
        width, columns = us[q - 1].shape[1], path.shape[2]
        block[:, :width, :columns] = us[q - 1][:, :, None] * (scale * along)
        block[:, width:, :columns] = (scale * u_norms[q - 1][:, None, None]) * (
            path - t_hats[q - 1][:, :, None] * along)
    return cores


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
    the group still falls short of its dimension, and are joined into one
    array each the first time they are read.  The summed blocks are
    needed only for a narrow role, one with fewer such rows or columns
    than the group's dimension.  A pair serves at most one narrow role
    (both would need d_q < d_g and d_g < d_q), so :meth:`start` holds each
    such pair's block H[q, p] once, as ``targets[(p, q)]``, which
    :func:`_summed_factors` fills in the same pass as it fills any target;
    :meth:`_basis` copies a narrow role's blocks into its rows of the
    spans one block at a time.
    """

    def __init__(self, params: NetworkParams):
        self.widths = _layer_widths(params)
        # (rows, columns) of each group's matrix; the output vector is one column
        self.shapes = list(zip(self.widths, self.widths[1:] + (1,)))
        self.offsets = _offsets(param_group_dims(params))
        # the summed blocks' own rows and columns per role: H[q > g, g], H[g, p < g]
        self.limits = np.array([(self.offsets[-1] - end, start) for start, end in
                                zip(self.offsets, self.offsets[1:])])
        self.counts = np.zeros_like(self.limits)
        self.found = [([], []) for _ in self.shapes]
        self.targets = {}  # (p, q): the summed block H[q, p] of a narrow role's pair

    def start(self, m: int) -> int:
        """Check the first pass over ``m`` samples against the budget, allocate its targets.

        The pass sums the blocks of the narrow roles: H[q > g, g] for a
        narrow column role of g, H[g, p < g] for a narrow row role, each
        pair (p, q) into its own d_q x d_p target.  Returns the pass's
        chunk length.
        """
        size, dims = self.offsets[-1], np.diff(self.offsets)
        narrow = (self.limits > 0) & (self.limits < dims[:, None])
        pairs = [(p, q) for p in range(1, len(dims)) for q in range(p + 1, len(dims) + 1)
                 if narrow[p - 1, 0] or narrow[q - 1, 1]]
        chunk, held = _chunk_plan(self.widths, m, dims.tolist(), pairs)
        check_dense_budget(held, f"the first landscape pass over P={size} parameters,"
                                 " for the narrow roles' summed blocks,")
        self.targets = {(p, q): np.zeros((dims[q - 1], dims[p - 1])) for p, q in pairs}
        return chunk

    def add(self, states, deltas, kept: np.ndarray) -> None:
        """Gather one chunk's masks and vectors, from the rows with ``kept`` (d != 0).

        ``deltas`` holds each group's u_g, the output vector's u_L = 1 last.
        Groups 1 to L-1 take the column role and groups 2 to L the row role.
        """
        roles = [(g, 0, state.h_prime, state.t_in) for g, state in enumerate(states)]
        roles += [(g, 1, state.h_prime, u)
                  for g, (state, u) in enumerate(zip(states, deltas[1:]), start=1)]
        for g, role, mask, vectors in roles:
            n_rows, n_cols = self.shapes[g]
            rows, units = np.nonzero(mask[kept])
            used = np.minimum(self.counts[g], self.limits[g]).sum()
            if self.counts[g, role] <= self.limits[g, role] and used < n_rows * n_cols:
                self.found[g][role].append((vectors[kept][rows], units))
            self.counts[g, role] += units.size

    def _unit_counts(self, g: int):
        """Vectors per unit j where group g's span is its column role's sets alone, else None.

        That span, of vec(t_{g-1} e_j^T), is block-diagonal by unit, so Q_g
        is one QR per unit of its t vectors.
        """
        if g == len(self.shapes) - 1 or self.counts[g, 1] or self.counts[g, 0] > self.limits[g, 0]:
            return None
        return np.bincount(self._gathered(g, 0)[1], minlength=self.shapes[g][1])

    def _gathered(self, g: int, role: int):
        """The vectors and units a role of group g gathered, each joined into one array once."""
        sets = self.found[g][role]
        if len(sets) > 1:
            sets[:] = [tuple(map(np.concatenate, zip(*sets)))]
        return sets[0]

    def sizes(self) -> tuple[int, ...]:
        """Each r_g: the group's dimension where Q_g is the identity, else Q_g's columns."""
        sizes = []
        for g, (n_rows, n_cols) in enumerate(self.shapes):
            used = np.minimum(self.counts[g], self.limits[g]).sum()
            per_unit = self._unit_counts(g)
            if used >= n_rows * n_cols:
                sizes.append(n_rows * n_cols)
            elif per_unit is not None:
                sizes.append(int(np.minimum(per_unit, n_rows).sum()))
            else:
                sizes.append(int(used))
        return tuple(sizes)

    def bases(self) -> list:
        """Each Q_g, None where it is the identity; the sets and blocks are released.

        Q_g is the identity where the group's sets together reach its
        dimension, and otherwise the reduced QR of its sets (one per unit
        where :meth:`_unit_counts` allows): a basis of a superset of the
        range, so no rank threshold is needed.
        """
        bases = [self._basis(g, k) for g, k in enumerate(self.sizes())]
        self.found, self.targets = [], {}
        return bases

    def _basis(self, g: int, size: int):
        start, end = self.offsets[g], self.offsets[g + 1]
        if size == end - start:
            return None
        n_rows, n_cols = self.shapes[g]
        per_unit = self._unit_counts(g)
        if per_unit is not None:
            vectors, units = self._gathered(g, 0)
            # each unit's t vectors, unit after unit: the rows its QR factorizes
            by_unit = vectors[np.argsort(units, kind="stable")]
            basis = np.zeros((end - start, size))
            at = column = 0
            for j in np.flatnonzero(per_unit):
                q = np.linalg.qr(by_unit[at:at + per_unit[j]].T)[0]
                basis[j * n_rows:(j + 1) * n_rows, column:column + q.shape[1]] = q
                at += per_unit[j]
                column += q.shape[1]
            return basis
        # one spanning vector a row, as the column-major vec of a group matrix
        spans = np.zeros((size, n_cols, n_rows))
        at = 0
        for role, count in enumerate(np.minimum(self.counts[g], self.limits[g])):
            part = spans[at:at + count]
            at += count
            if self.counts[g, role] > self.limits[g, role]:
                # the rows of H[q, g] for q > g, or the columns of H[g, p] for p < g
                blocks = ([self.targets[g + 1, q] for q in range(g + 2, len(self.shapes) + 1)]
                          if role == 0 else [self.targets[p, g + 1].T for p in range(1, g + 1)])
                np.concatenate(blocks, out=part.reshape(count, end - start))
            elif count:
                vectors, units = self._gathered(g, role)
                if role == 0:
                    part[np.arange(count), units, :] = vectors  # t_{g-1} e_j^T
                else:
                    part[np.arange(count), :, units] = vectors  # e_k u_g^T
        return np.linalg.qr(spans.reshape(size, end - start).T)[0]


def _summed_core(params: NetworkParams, kind: LossL0, dataset: Dataset, bases,
                 chunk: int) -> np.ndarray:
    """The core Q^T H Q of the risk Hessian H, Q = blockdiag(Q_g), summed from the factors.

    ``bases`` holds each Q_g, None for the identity, and ``chunk`` is the
    chunk length of the plan the caller checked.  Core block (q, p) is
    Q_q^T H[q, p] Q_p: :func:`_summed_factors` sums H[q, p] Q_p straight
    into the core where Q_q is the identity, and otherwise into a
    dim_q x r_p sum that Q_q^T takes into the core after the last chunk.
    Where every Q_g is the identity the core is the P x P matrix H.  Only
    the blocks below the diagonal are filled, which is all that
    ``eigvalsh`` reads; :func:`risk_hessian` mirrors its matrix.
    """
    dims = param_group_dims(params)
    sizes = [d if basis is None else basis.shape[1] for d, basis in zip(dims, bases)]
    at = _offsets(sizes)
    core = np.zeros((at[-1], at[-1]))
    targets = _lower_blocks(core, at)
    sums = {(p, q): np.zeros((dims[q - 1], sizes[p - 1]))
            for p, q in targets if bases[q - 1] is not None}
    targets.update(sums)
    for _ in _summed_factors(params, kind, dataset, targets, bases, chunk):
        pass
    for (p, q), summed in sums.items():
        core[at[q - 1]:at[q], at[p - 1]:at[p]] = bases[q - 1].T @ summed
    return core


def risk_hessian(params: NetworkParams, kind: LossL0, dataset: Dataset) -> HessianBlocks:
    """Mean of the per-sample Hessians of a relu chain, as one dense P x P matrix."""
    dims = _relu_dims(params)
    # the P x P matrix, and what the pass over the chunks holds beside it
    chunk, held = _chunk_plan(_layer_widths(params), len(dataset), dims)
    check_dense_budget(held, f"a dense Hessian of P={sum(dims)} parameters")
    matrix = _summed_core(params, kind, dataset, [None] * len(dims), chunk)
    _mirror(matrix, _offsets(dims))
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


class LandscapeReport(NamedTuple):
    """Spectral summary of the risk Hessian at one parameter point.

    ``lambda0`` is the largest operator norm among the per-sample geometry
    factors, so the bound ``op_norm <= mean_lprime * lambda0`` certifies
    that the spectrum collapses as the mean absolute loss derivative
    vanishes.  Each sample's norm is the exact largest |eigenvalue| of its
    core in the frame of the module docstring; ``sample_ranks`` holds each
    sample's k, the frame's rank and the dimension of the subspace its
    Hessian lives in, and ``lambda0_sample`` the first sample attaining
    ``lambda0``.
    ``range_dim`` is r, the dimension of the masked range basis the risk
    Hessian is eigensolved in (see the module docstring): ``eigs`` holds
    at least P - r exact zeros, a proved lower bound on the null space.
    ``range_dims`` holds each group's part r_g of it, in the order
    W_1, ..., W_{L-1}, alpha, with ``range_dim == sum(range_dims)``.
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
    range_dims: tuple[int, ...]

    @property
    def bound(self) -> float:
        return self.mean_lprime * self.lambda0

    @property
    def bound_holds(self) -> bool:
        return self.op_norm <= self.bound + _bound_slack(self)


def _bound_slack(report: LandscapeReport) -> float:
    """How far ``op_norm`` may exceed the bound by the rounding of its two eigensolves.

    A symmetric eigensolver's eigenvalues of an order-n matrix A lie within
    p(n)·eps·‖A‖₂ of A's own (LAPACK Users' Guide, 3rd ed., §4.7); p(n) = n
    here.  ``op_norm`` is read off the r x r range core, whose norm it is,
    and ``bound`` is mean|l'| times the largest norm of the K x K frame
    cores, K = 2(w_1 + ... + w_{L-1}) + 1 < 2P for the layer widths w_g.
    """
    frame_order = 2 * report.eigs.size  # above K
    return np.finfo(float).eps * (report.range_dim * report.op_norm + frame_order * report.bound)


def _sample_pass(params: NetworkParams, kind: LossL0, dataset: Dataset, spans: _RangeSpans):
    """The first pass: each sample's loss, |deriv|, kink flag, frame-core norm and k.

    It gathers ``spans`` and sums their narrow roles' blocks on the way,
    once :meth:`_RangeSpans.start` has checked the pass against the budget.
    Each chunk's cores are formed and eigensolved a slice at a time, a
    slice holding no more entries than the chunk's path matrices or
    ``SLICE_ENTRIES``.
    """
    m = len(dataset)
    chunk = spans.start(m)
    losses = np.empty(m)
    abs_derivs = np.empty(m)
    kinks = np.empty(m, dtype=bool)
    norms = np.empty(m)
    ranks = np.empty(m, dtype=int)
    for rows, values, derivs, loss_args, states, deltas, paths in _summed_factors(
            params, kind, dataset, spans.targets, [None] * len(spans.shapes), chunk):
        spans.add(states, deltas, derivs != 0.0)
        losses[rows] = values
        abs_derivs[rows] = np.abs(derivs)
        kinks[rows] = np.abs(loss_args) < KINK_TOL
        for state in states:
            kinks[rows] |= np.any(np.abs(state.h_hat) < KINK_TOL, axis=1)
        inputs = [dataset.x[rows]] + [state.h_tilde for state in states]
        # k is Q's rank: u_g's width where t_{g-1} != 0, and for g > 1 where
        # u_g != 0 t_{g-1}'s width, less one where t_{g-1} != 0
        live = [(np.linalg.norm(t, axis=1) > 0.0, np.linalg.norm(u, axis=1) > 0.0)
                for t, u in zip(inputs, deltas)]
        ranks[rows] = sum(t_on * u.shape[1] + (g > 0) * u_on * (t.shape[1] - t_on)
                          for g, (t, u, (t_on, u_on)) in enumerate(zip(inputs, deltas, live)))
        entries = min(sum(path.size for path in paths.values()), SLICE_ENTRIES)
        step = max(1, entries // _frame_offsets(inputs, deltas)[-1] ** 2)
        for at in range(0, len(values), step):
            part = slice(at, min(at + step, len(values)))
            what = f"the frame cores of samples {rows.start + at} to {rows.start + part.stop - 1}"
            with solving(what):
                eigs = np.linalg.eigvalsh(_frame_cores(inputs, deltas, paths, part))
            norms[rows][part] = np.max(np.abs(eigs), axis=1)
    return losses, abs_derivs, kinks, norms, ranks


def landscape_report(params: NetworkParams, kind: LossL0, dataset: Dataset) -> LandscapeReport:
    """The risk Hessian's spectrum from its range core, and the operator-norm bound.

    Two passes over the samples: the first takes the risk, the kinks, each
    sample's range core and the spans of the range; the second sums the
    r x r core of the risk Hessian in the bases Q_g (:func:`_summed_core`),
    with no P x P array.  The core, and the bases, sums and temporaries it
    needs, are held to the dense budget once r is known, before any of
    them exists.
    """
    dims = _relu_dims(params)
    m = len(dataset)
    spans = _RangeSpans(params)
    losses, abs_derivs, kinks, norms, ranks = _sample_pass(params, kind, dataset, spans)
    range_dims = spans.sizes()
    # the core, its bases and sums, and what the second pass holds beside them
    chunk, held = _chunk_plan(spans.widths, m, range_dims)
    check_dense_budget(held, f"the range core of r={sum(range_dims)} of P={sum(dims)} parameters,"
                             " with its bases and sums,")
    range_core = _summed_core(params, kind, dataset, spans.bases(), chunk)
    with solving("the risk Hessian's range core"):
        eigs = np.linalg.eigvalsh(range_core)
    eigs = np.sort(np.concatenate([eigs, np.zeros(sum(dims) - range_core.shape[0])]))
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
        range_dims=range_dims,
    )
    if not report.bound_holds:
        raise NumericError(f"operator-norm bound violated: {op_norm} > {report.bound}"
                           f" + {_bound_slack(report)}, the eigensolves' rounding bound")
    return report
