"""References that the library is checked against, kept out of it.

The empirical risk and its gradient, from the same per-sample pass the
Hessian makes, and the evaluation of a poset's layered plan, which
``net.forward`` must match on chain documents.  And the recorder of a
run's dense-budget checks, which peak tests hold the traced peak to.
"""

import tracemalloc

import numpy as np
import pytest

from dysonnet import cli, hessian, rmt
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
    (``cli``, ``hessian``, ``rmt``) by one that records ``entries`` under
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
        for module in (cli, hessian, rmt):
            patch.setattr(module, "check_dense_budget", recording)
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return result, peak, counted
