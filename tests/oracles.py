"""References that the library is checked against, kept out of it.

The empirical risk and its gradient, from the same per-sample pass the
Hessian makes, and the evaluation of a poset's layered plan, which
``net.forward`` must match on chain documents.  The recorder of a run's
dense-budget checks, which peak tests hold the traced peak to.  And the
counts of what a Hessian-accumulator pass holds as each caller once added
them up by hand, which ``net._chunk_plan`` must match.
"""

import tracemalloc

import numpy as np
import pytest

from dysonnet import cli, hessian, infogeo, rmt
from dysonnet.errors import ShapeError, check_dense_budget
from dysonnet.kernels import LayerState, estimate_indicator
from dysonnet.net import Dataset, LossL0, NetworkParams, _sample_terms
from dysonnet.poset import NetworkPlan


def empirical_risk(params: NetworkParams, kind: LossL0, dataset: Dataset) -> float:
    """Mean loss over the dataset."""
    values = _sample_terms(params, kind, dataset)[0]
    return float(np.sum(values) / len(dataset))


def risk_gradient(params: NetworkParams, kind: LossL0, dataset: Dataset) -> np.ndarray:
    """Analytic gradient of the empirical risk over all parameters.

    The layout is column-major vectorization of each weight matrix in layer
    order, followed by the output vector.  Group g's part is the one
    product ``(deriv * T_g)^T Δ_g`` of the stacked layer inputs and deltas.
    """
    _, derivs, _, states, deltas = _sample_terms(params, kind, dataset)
    pieces = [
        ((derivs[:, None] * state.t_in).T @ delta).ravel(order="F")
        for state, delta in zip(states, deltas)
    ]
    top = states[-1].h_tilde if params.weights else dataset.x
    pieces.append(derivs @ top)
    return np.concatenate(pieces) / len(dataset)


def evaluate_plan(plan: NetworkPlan, x: np.ndarray):
    """Run a plan on one input vector.

    Returns ``(output, states)``: the concatenated terminal outputs (in
    lexicographic terminal order) and a dict mapping node id to its
    :class:`~dysonnet.kernels.LayerState`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (plan.input_dim,):
        raise ShapeError(f"input has shape {x.shape}, plan expects ({plan.input_dim},)")
    outputs = {plan.poset.minimal: x}
    states: dict[str, LayerState] = {}
    for layer in plan.layers:
        t_in = np.concatenate([outputs[p] for p in layer.input_nodes])
        h_hat = layer.kernel.weight.T @ t_in
        h_tilde, h_prime = estimate_indicator(layer.rule, h_hat)
        states[layer.node] = LayerState(t_in, h_hat, h_tilde, h_prime)
        outputs[layer.node] = h_tilde
    out = np.concatenate([outputs[t] for t in plan.terminal_nodes])
    return out, states


def budget_peak(call):
    """Run ``call()`` under tracemalloc, recording every dense-budget check it makes.

    ``check_dense_budget`` is replaced in each module that imports it
    (``cli``, ``hessian``, ``infogeo``, ``rmt``) by one that records ``entries`` under
    the part of ``what`` before its first " of ", then checks as before.
    The modules are imported before tracing starts, so compiling them is
    not counted.  Returns ``call()``'s result, the traced peak in bytes and
    the recorded counts.
    """
    counted = {}

    def recording(entries, what):
        counted[what.split(" of ")[0]] = entries
        check_dense_budget(entries, what)

    with pytest.MonkeyPatch.context() as patch:
        for module in (cli, hessian, infogeo, rmt):
            patch.setattr(module, "check_dense_budget", recording)
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return result, peak, counted


def accumulator_pass(widths, m: int, columns) -> tuple[int, int]:
    """Chunk length of a pass over ``m`` samples, and what it holds beside its targets.

    ``widths`` are the input width and each layer's, and ``columns[g]`` is
    Q_{g+1}'s column count, None for the identity.  Beside its targets a
    pass holds two chunks' factors (layer states, deltas and path
    matrices) and the largest temporaries of one pair (p, q): its path
    copy, its outer products or stacks B and P_pq B, and its GEMM output.
    """
    widths = tuple(widths)
    u_widths = widths[1:] + (1,)
    groups = len(widths)
    pairs = [(p, q) for p in range(1, groups) for q in range(p + 1, groups + 1)]

    def temporary(p, q):
        if columns[p - 1] is None:
            return u_widths[q - 1] * widths[p - 1]
        return (widths[p] + widths[q - 1]) * columns[p - 1]

    def gemm(p, q):
        width = widths[p - 1] * widths[p] if columns[p - 1] is None else columns[p - 1]
        return u_widths[q - 1] * widths[q - 1] * width

    block_set = sum(u_widths[q - 1] * widths[q - 1] * widths[p] * widths[p - 1] for p, q in pairs)
    factors = 4 * sum(widths[1:]) + sum(widths[q - 1] * widths[p] for p, q in pairs)
    largest = max((temporary(p, q) for p, q in pairs), default=0)
    chunk = max(1, min(m, block_set // max(2 * (factors + largest), 1)))
    held = min(m, 2 * chunk) * factors + max(
        (chunk * (temporary(p, q) + widths[q - 1] * widths[p]) + gemm(p, q) for p, q in pairs),
        default=0,
    )
    return chunk, held


def _group_dims(widths) -> list[int]:
    widths = tuple(widths)
    return [a * b for a, b in zip(widths, widths[1:] + (1,))]


def risk_hessian_entries(widths, m: int) -> int:
    """``risk_hessian``'s count: the P x P matrix and the pass beside it."""
    p = sum(_group_dims(widths))
    return p * p + accumulator_pass(widths, m, [None] * len(widths))[1]


def range_core_entries(widths, m: int, range_dims) -> int:
    """The landscape's second-pass count: the r x r core, the reduced groups' bases and sums, the pass."""
    dims = _group_dims(widths)
    r = sum(range_dims)
    reduced = [k < d for d, k in zip(dims, range_dims)]
    pairs = [(p, q) for p in range(len(dims)) for q in range(p + 1, len(dims))]
    held = r * r + sum(d * k for d, k, cut in zip(dims, range_dims, reduced) if cut) + sum(
        dims[q] * range_dims[p] for p, q in pairs if reduced[q]
    )
    return held + accumulator_pass(widths, m, [k if cut else None
                                               for k, cut in zip(range_dims, reduced)])[1]


def centred_trial_entries(widths, samples: int) -> int:
    """A centred ``esd sample`` trial: P^2 and the mean's pass, or 3 P^2 and a one-sample pass."""
    p = sum(_group_dims(widths))
    mean_pass, sample_pass = (accumulator_pass(widths, m, [None] * len(widths))[1]
                              for m in (samples, 1))
    return max(p * p + mean_pass, 3 * p * p + sample_pass)
