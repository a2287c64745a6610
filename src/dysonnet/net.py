"""Single-output layered network, piecewise-linear losses and their files.

The network score is ``x^T W_1 dg(m_1) W_2 dg(m_2) ... W_{L-1} dg(m_{L-1}) a``
where each diagonal factor is built from the layer's estimated indicator,
so the masked product is evaluated as the recurrence ``t <- estimate(W^T t)``
and the score is the inner product of the top activation with the output
vector ``a``.  Losses are restricted to the nonnegative convex piecewise
linear class with zero infimum (hinge and absolute), whose second
derivative vanishes almost everywhere.

The samples are evaluated as rows: the forward pass, the loss and the
backward pass each take a stack of inputs, scores or layer states and
act on every row at once, with no loop over the samples.  The Hessian
and the landscape report make one such pass per chunk of rows, in the
chunks that :func:`_chunk_plan` sets; it is also the one count of what
such a pass holds, which ``hessian`` and ``esd`` check the budget on.
A network is read from the chain form of the poset document, through
the poset's plan, and a dataset from CSV.
"""

from __future__ import annotations

import csv
from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError
from .kernels import ActivationRule, LayerState, estimate_indicator
from .poset import build_s_system, load_network_json

__all__ = [
    "Dataset",
    "LossL0",
    "NetworkParams",
    "flatten_params",
    "forward",
    "load_dataset_csv",
    "loss",
    "network_from_chain_json",
    "network_to_chain_json",
    "param_group_dims",
    "save_dataset_csv",
    "unflatten_params",
]


class LossL0(Enum):
    """Nonnegative convex piecewise-linear losses with zero infimum."""

    HINGE = "hinge"
    ABSOLUTE = "absolute"


class NetworkParams:
    """Weight matrices, output vector and the shared activation rule."""

    __slots__ = ("weights", "alpha", "rule")

    def __init__(self, weights, alpha, rule: ActivationRule = ActivationRule.ARGMAX_MASK_01):
        ws = tuple(np.asarray(w, dtype=float) for w in weights)
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim != 1:
            raise ShapeError("alpha must be a vector")
        for w in ws:
            if w.ndim != 2:
                raise ShapeError("weights must be matrices")
        for a, b in zip(ws, ws[1:]):
            if a.shape[1] != b.shape[0]:
                raise ShapeError(f"adjacent weights do not compose: {a.shape} -> {b.shape}")
        if ws and ws[-1].shape[1] != alpha.shape[0]:
            raise ShapeError(
                f"last weight has {ws[-1].shape[1]} columns but alpha has {alpha.shape[0]}"
            )
        self.weights = ws
        self.alpha = alpha
        self.rule = rule

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0] if self.weights else self.alpha.shape[0]


class Dataset:
    """Training samples: row-wise inputs and labels in {-1, +1}; an empty input list holds none."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        x = x.reshape(0, 0) if x.shape == (0,) else np.atleast_2d(x)  # [] holds no samples
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ShapeError(f"{x.shape[0]} inputs but {y.shape[0]} labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DomainError("labels must lie in {-1, +1}")
        bad = np.flatnonzero(~np.all(np.isfinite(x), axis=1))
        if bad.size:
            raise DomainError(f"dataset sample {bad[0]} has non-finite inputs")
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return self.x.shape[0]


def forward(params: NetworkParams, x: np.ndarray):
    """Evaluate the score and record every layer state.

    ``x`` is one input of shape ``(d,)`` or a stack of inputs as rows,
    shape ``(m, d)``.  Returns ``(score, states)`` where ``states[i]``
    holds the layer input, preactivation, estimated output and
    estimation-map derivatives needed for gradient and second-order
    assembly; for a stack the score and every state field carry the rows
    on a leading axis.  Each row is evaluated with the matrix-vector
    products a lone input gets, so a row's results equal that input's bit
    for bit.
    """
    t = np.asarray(x, dtype=float)
    if t.ndim not in (1, 2) or t.shape[-1] != params.input_dim:
        raise ShapeError(f"input has shape {t.shape}, network expects (..., {params.input_dim})")
    states: list[LayerState] = []
    for w in params.weights:
        h_hat = (w.T @ t[..., None])[..., 0]
        h_tilde, h_prime = estimate_indicator(params.rule, h_hat)
        states.append(LayerState(t, h_hat, h_tilde, h_prime))
        t = h_tilde
    score = (t[..., None, :] @ params.alpha[:, None])[..., 0, 0]
    return (float(score) if score.ndim == 0 else score), states


def _loss_argument(kind: LossL0, score, y):
    """Hinge margin ``1 - y * score`` or residual ``score - y``; the loss kinks at 0."""
    if kind is LossL0.HINGE:
        return 1.0 - y * score
    if kind is LossL0.ABSOLUTE:
        return score - y
    raise DomainError(f"unknown loss {kind!r}")


def loss(kind: LossL0, score, y):
    """Loss value and its derivative in the score; subgradient 0 at kinks.

    Elementwise over stacked scores and labels; a scalar score gives scalars.
    """
    labels = np.asarray(y, dtype=float)
    bad = ~np.isin(labels, (-1.0, 1.0))
    if np.any(bad):
        raise DomainError(f"label must be -1 or +1, got {labels[bad].flat[0]}")
    arg = _loss_argument(kind, np.asarray(score, dtype=float), labels)
    if kind is LossL0.HINGE:
        active = arg > 0.0
        return np.where(active, arg, 0.0)[()], np.where(active, -labels, 0.0)[()]
    return np.abs(arg)[()], np.sign(arg)[()]


def _sample_terms(params: NetworkParams, kind: LossL0, dataset: Dataset, rows=slice(None)):
    """Losses, score derivatives, loss arguments, layer states and deltas of ``rows``.

    Every result holds the samples of the slice ``rows`` (all of them by
    default) as rows.  The one place the risk and its Hessian evaluate
    samples.
    """
    if len(dataset) == 0:
        raise DomainError("dataset is empty")
    scores, states = forward(params, dataset.x[rows])
    y = dataset.y[rows]
    values, derivs = loss(kind, scores, y)
    loss_args = _loss_argument(kind, scores, y)
    return values, derivs, loss_args, states, _backprop_deltas(params, states)


def _backprop_deltas(params: NetworkParams, states: list[LayerState]) -> list[np.ndarray]:
    """Score derivatives with respect to each layer's preactivation, for one sample or rows."""
    deltas = [np.empty(0)] * len(params.weights)
    upstream = params.alpha
    for i in range(len(params.weights) - 1, -1, -1):
        deltas[i] = states[i].h_prime * upstream
        upstream = (params.weights[i] @ deltas[i][..., None])[..., 0]
    return deltas


def _layer_widths(params: NetworkParams) -> tuple[int, ...]:
    """The input width, then each layer's: W_g is ``widths[g-1] x widths[g]``."""
    return (params.input_dim,) + tuple(w.shape[1] for w in params.weights)


def _chunk_plan(widths, m: int, sizes, pairs=None) -> tuple[int, int]:
    """Samples per chunk of a Hessian-accumulator pass over ``m`` samples, and what it holds.

    The one count of what a pass of ``hessian._summed_factors`` holds; it
    is kept here so that ``esd sample`` counts a trial without loading
    ``hessian``.  ``widths`` are the layer widths (:func:`_layer_widths`)
    and ``sizes[g-1]`` is r_g, the size of group g in the core the pass
    fills: Q_g's column count, or the group's dimension d_g where Q_g is
    the identity.  A chunk's factors, with the one pair's outer products
    or products P_pq B formed at a time, fit in half a block set.  The
    second number counts the entries the pass holds: its targets, the
    factors (layer states, deltas and path matrices) of the chunk in hand
    and of the one before it, and the largest temporaries of one summed
    pair (p, q), which are the chunk's copy of its P_pq (made only when
    some derivative in the chunk is zero, but always counted), its outer
    products u_q ⊗ t_{p-1} or its stacks B and P_pq B, and the d_q x r_p
    GEMM output.  The targets are the r x r core with each reduced
    group's d_g x r_g basis and its d_q x r_p sums H[q, p] Q_p, every pair
    being summed; or, where ``pairs`` names the pairs the pass sums (the
    first landscape pass), a d_q x r_p block of each.
    """
    u_widths = widths[1:] + (1,)  # length of each u_g, the output vector's u_L = 1 last
    dims = [a * b for a, b in zip(widths, u_widths)]
    reduced = [k < d for d, k in zip(dims, sizes)]
    groups = len(widths)
    every = [(p, q) for p in range(1, groups) for q in range(p + 1, groups + 1)]

    def temporary(p, q):  # a sample's row of the pair's outer product, or of B and P_pq B
        if reduced[p - 1]:
            return (widths[p] + widths[q - 1]) * sizes[p - 1]
        return u_widths[q - 1] * widths[p - 1]

    block_set = sum(dims[q - 1] * dims[p - 1] for p, q in every)
    # a sample's layer states, deltas and P's, and its row of the largest temporary
    factors = 4 * sum(widths[1:]) + sum(widths[q - 1] * widths[p] for p, q in every)
    largest = max((temporary(p, q) for p, q in every), default=0)
    # the caller still holds one chunk while the next is formed: two fit in a block set
    chunk = max(1, min(m, block_set // max(2 * (factors + largest), 1)))
    if pairs is None:
        r, pairs = sum(sizes), every
        targets = r * r + sum(d * k for d, k, cut in zip(dims, sizes, reduced) if cut) + sum(
            dims[q - 1] * sizes[p - 1] for p, q in every if reduced[q - 1])
    else:
        targets = sum(dims[q - 1] * sizes[p - 1] for p, q in pairs)
    return chunk, targets + min(m, 2 * chunk) * factors + max(
        (chunk * (temporary(p, q) + widths[q - 1] * widths[p]) + dims[q - 1] * sizes[p - 1]
         for p, q in pairs), default=0)


def param_group_dims(params: NetworkParams) -> tuple[int, ...]:
    """Flat sizes of the parameter groups W_1 ... W_{L-1}, alpha."""
    return tuple(w.size for w in params.weights) + (params.alpha.size,)


def flatten_params(params: NetworkParams) -> np.ndarray:
    """Column-major flatten of every weight matrix followed by alpha."""
    pieces = [w.ravel(order="F") for w in params.weights]
    pieces.append(params.alpha)
    return np.concatenate(pieces)


def unflatten_params(theta: np.ndarray, like: NetworkParams) -> NetworkParams:
    """Inverse of :func:`flatten_params` against a template's shapes."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sum(param_group_dims(like)),):
        raise ShapeError("flat parameter vector has the wrong length")
    weights = []
    offset = 0
    for w in like.weights:
        weights.append(theta[offset : offset + w.size].reshape(w.shape, order="F"))
        offset += w.size
    alpha = theta[offset:]
    return NetworkParams(tuple(weights), alpha, like.rule)


def network_from_chain_json(source) -> NetworkParams:
    """Load a network from the poset document restricted to a chain.

    The layer order and the check that each kernel takes its
    predecessor's outputs come from the poset's plan
    (:func:`~dysonnet.poset.build_s_system`).  The chain's last node must
    carry a single-column kernel, which becomes the output vector; its
    rule entry is accepted but not applied since the score is the top
    node's preactivation.  All interior nodes must share one activation
    rule.
    """
    poset, specs = load_network_json(source)
    if any(len(poset.successors(node)) > 1 for node in poset.node_ids):
        raise DomainError("network document is not a chain")
    if len(poset.node_ids) < 2:
        raise DomainError("chain must contain at least one layer above the input")
    missing = [node for node in poset.node_ids if node != poset.minimal and node not in specs]
    if missing:
        raise DomainError(f"chain nodes {missing} have no layer entry")
    (first,) = poset.successors(poset.minimal)
    layers = build_s_system(poset, specs[first][0].in_dim, specs).layers
    rules = {layer.rule for layer in layers[:-1]}
    if len(rules) > 1:
        raise DomainError(f"layers must share one activation rule, found {sorted(r.value for r in rules)}")
    if layers[-1].out_dim != 1:
        raise ShapeError("top node kernel must have a single column (the output vector)")
    rule = rules.pop() if rules else ActivationRule.ARGMAX_MASK_01
    weights = tuple(layer.kernel.weight for layer in layers[:-1])
    return NetworkParams(weights, layers[-1].kernel.weight[:, 0], rule)


def load_dataset_csv(path) -> Dataset:
    """Read a dataset from CSV with header ``x1,...,xn,y``.

    Each row is parsed with ``float`` as it is read, into one float array,
    so no row's strings outlive it.  A fault is reported as if the whole
    file were read first: bytes that cannot be read, then an empty file, a
    wrong header, a row of the wrong length, the first value that is not a
    number and a header with no rows.
    """
    header, ragged, bad = None, None, None

    def values(reader):
        nonlocal header, ragged, bad
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if header is None:
                header = [h.strip() for h in row]
            elif len(row) != len(header):
                ragged = ragged or (f"row on line {reader.line_num} of {path} has {len(row)}"
                                    f" fields, the header has {len(header)}")
            elif bad is None:
                try:
                    yield from [float(v) for v in row]
                except ValueError as exc:
                    bad = exc

    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            data = np.fromiter(values(csv.reader(handle)), dtype=float)
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not UTF-8, an oversized field
        raise DomainError(f"cannot read dataset file {path}: {exc}") from exc
    if header is None:
        raise DomainError(f"empty dataset file {path}")
    if header[-1] != "y" or not all(h.startswith("x") for h in header[:-1]):
        raise DomainError(f"expected header x1,...,xn,y in {path}, got {header}")
    if ragged:
        raise DomainError(ragged)
    if bad is not None:
        raise DomainError(f"non-numeric value in {path}: {bad}") from bad
    if not data.size:
        raise DomainError(f"dataset file {path} has a header but no rows")
    data = data.reshape(-1, len(header))
    return Dataset(data[:, :-1], data[:, -1])


def save_dataset_csv(path, dataset: Dataset) -> None:
    """Write a dataset in the ``x1,...,xn,y`` layout."""
    n = dataset.x.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{i + 1}" for i in range(n)] + ["y"])
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([format(v, ".17g") for v in xi] + [format(yi, ".17g")])


def network_to_chain_json(params: NetworkParams) -> dict:
    """Serialize a network as the chain form of the poset document."""
    kernels = list(params.weights) + [params.alpha.reshape(-1, 1)]
    nodes = [str(i) for i in range(len(kernels) + 1)]
    layers = {}
    for i, w in enumerate(kernels, start=1):
        layers[nodes[i]] = {
            "rows": int(w.shape[0]),
            "cols": int(w.shape[1]),
            "field": "01",
            "rule": params.rule.value,
            "weights": [float(v) for v in np.asarray(w).ravel()],
        }
    return {
        "nodes": nodes,
        "edges": [[nodes[i], nodes[i + 1]] for i in range(len(kernels))],
        "layers": layers,
    }
