"""Scale posets and the layered construction they drive.

A :class:`ScalePoset` is a finite strict partial order with a unique bottom
element.  A layered network plan is built by walking the poset upward from
the bottom: every non-minimal node owns a linear kernel
(:class:`KernelSpec`) and an indicator-estimation rule
(:class:`ActivationRule`) and consumes the concatenated outputs of its
immediate predecessors.  When the poset is a chain the plan is an ordinary
multilayer perceptron.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import DomainError, NumericError, ShapeError, read_json

__all__ = [
    "ActivationRule",
    "KernelSpec",
    "LayerState",
    "NetworkPlan",
    "PlanLayer",
    "ScalePoset",
    "build_s_system",
    "conditional_group_law",
    "estimate_indicator",
    "evaluate_plan",
    "kernel_from_entry",
    "load_network_json",
    "successor",
    "predecessor",
]


class ActivationRule(Enum):
    """How a realization of the group indicator is estimated from preactivations.

    The four rules realize, in order, ReLU (argmax of the 0/1 indicator
    law, applied as a binary mask), Swish (expectation of the 0/1 indicator
    as a mask), the logistic sigmoid (expectation of the 0/1 indicator,
    passed on directly) and tanh (expectation of the -1/+1 indicator).
    """

    ARGMAX_MASK_01 = "relu"
    EXPECTATION_MASK_01 = "swish"
    PARTIAL_EXPECTATION_01 = "sigmoid"
    PARTIAL_EXPECTATION_PM1 = "tanh"


_FIELDS = {"01": (0.0, 1.0), "pm1": (-1.0, 1.0)}


@dataclass(frozen=True)
class KernelSpec:
    """Linear kernel of one node: weight matrix plus indicator value set.

    ``weight`` has one row per input coordinate and one column per group
    indicator coordinate.  ``field`` selects the discrete value set of the
    indicator, ``"01"`` for {0, 1} or ``"pm1"`` for {-1, +1}.
    """

    weight: np.ndarray
    field: str = "01"

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 2:
            raise ShapeError(f"kernel weight must be 2-D, got ndim={w.ndim}")
        if not np.all(np.isfinite(w)):
            raise DomainError("kernel weight contains non-finite entries")
        if self.field not in _FIELDS:
            raise DomainError(f"unknown field {self.field!r}, expected '01' or 'pm1'")
        object.__setattr__(self, "weight", w)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def values(self) -> tuple[float, float]:
        return _FIELDS[self.field]


@dataclass
class LayerState:
    """Realizations recorded during one layer evaluation.

    ``h_hat`` is the preactivation W^T t, ``h_tilde`` the estimated layer
    output and ``h_prime`` the derivative of the estimation map at ``h_hat``.
    """

    t_in: np.ndarray
    h_hat: np.ndarray
    h_tilde: np.ndarray
    h_prime: np.ndarray


@dataclass(frozen=True)
class ScalePoset:
    """Finite strict partial order with a unique bottom element.

    ``cover_edges`` lists covering pairs ``(lower, upper)``; the order is
    the transitive closure of the edges.  Construction validates that the
    closure is acyclic, that ``minimal`` is the unique minimal element and
    that every node is comparable with it.
    """

    node_ids: tuple[str, ...]
    cover_edges: tuple[tuple[str, str], ...]
    minimal: str
    _lt: np.ndarray = field(init=False, repr=False, compare=False)
    _covers: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(str(n) for n in self.node_ids)
        if len(set(nodes)) != len(nodes):
            raise DomainError("duplicate node ids")
        if not nodes:
            raise DomainError("poset must contain at least one node")
        index = {n: i for i, n in enumerate(nodes)}
        edges = tuple((str(a), str(b)) for a, b in self.cover_edges)
        for a, b in edges:
            if a not in index or b not in index:
                raise DomainError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise DomainError(f"self-edge on node {a!r}")
        n = len(nodes)
        lt = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            lt[index[a], index[b]] = True
        # Warshall transitive closure.
        for k in range(n):
            lt |= np.outer(lt[:, k], lt[k, :])
        if np.any(np.diag(lt)):
            raise DomainError("edge relation has a cycle; not a partial order")
        if self.minimal not in index:
            raise DomainError(f"minimal element {self.minimal!r} not a node")
        sources = [nodes[i] for i in range(n) if not lt[:, i].any()]
        if set(sources) != {self.minimal}:
            raise DomainError(
                f"minimal element must be unique and equal {self.minimal!r}, "
                f"found minimal elements {sources}"
            )
        i0 = index[self.minimal]
        for i in range(n):
            if i != i0 and not lt[i0, i]:
                raise DomainError(f"node {nodes[i]!r} is not comparable with the minimal element")
        object.__setattr__(self, "node_ids", nodes)
        object.__setattr__(self, "cover_edges", edges)
        object.__setattr__(self, "_lt", lt)
        # j covers i when i < j with nothing strictly between them.
        object.__setattr__(self, "_covers", lt & ~(lt @ lt))
        object.__setattr__(self, "_index", index)

    def less(self, a: str, b: str) -> bool:
        """Strict order a < b."""
        return bool(self._lt[self._node(a), self._node(b)])

    def _node(self, s: str) -> int:
        if s not in self._index:
            raise DomainError(f"unknown scale id {s!r}")
        return self._index[s]

    def successors(self, s: str) -> set[str]:
        return {self.node_ids[j] for j in np.flatnonzero(self._covers[self._node(s)])}

    def predecessors(self, s: str) -> set[str]:
        return {self.node_ids[i] for i in np.flatnonzero(self._covers[:, self._node(s)])}


def successor(poset: ScalePoset, s: str) -> set[str]:
    """Immediate successors of ``s``: the minimal elements strictly above it."""
    return poset.successors(s)


def predecessor(poset: ScalePoset, s: str) -> set[str]:
    """Immediate predecessors of ``s``: the maximal elements strictly below it."""
    return poset.predecessors(s)


def _sigmoid(x):
    """Logistic function ``1 / (1 + exp(-x))``; exactly 0 and 1 once saturated."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def conditional_group_law(spec: KernelSpec, t_tilde: np.ndarray) -> np.ndarray:
    """Per-coordinate law of the group indicator given the transported input.

    Coordinate ``i`` carries the two-point pmf proportional to
    ``exp(h * (W^T t)_i)`` over the kernel's value set.  ``t_tilde`` is one
    input of shape ``(in_dim,)`` or a stack of inputs as rows, shape
    ``(..., in_dim)``.  Returns an array of shape ``(..., out_dim, 2)`` with
    the last axis ordered like ``spec.values``; it sums to one.

    Only this conditional law and the deterministic transports are ever
    evaluated: the joint coupled law also involves the unknown law of the
    input element and has no computable form.
    """
    t = np.asarray(t_tilde, dtype=float)
    if t.ndim == 0 or t.shape[-1] != spec.in_dim:
        raise ShapeError(
            f"input has shape {t.shape}, kernel expects (..., {spec.in_dim})"
        )
    if not np.all(np.isfinite(t)):
        raise NumericError("non-finite input to conditional_group_law")
    a = t @ spec.weight
    lo, hi = spec.values
    # p(hi) = sigmoid((hi - lo) * a); stable for both value sets.
    p_hi = _sigmoid((hi - lo) * a)
    return np.stack([1.0 - p_hi, p_hi], axis=-1)


def estimate_indicator(rule: ActivationRule, h_hat: np.ndarray):
    """Estimate the indicator realization and the estimation-map derivative.

    Returns ``(h_tilde, h_prime)`` where ``h_tilde`` is the layer output and
    ``h_prime`` its elementwise derivative with respect to ``h_hat``.  Ties
    of the argmax rule at zero resolve to the inactive value.
    """
    h = np.asarray(h_hat, dtype=float)
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite preactivation")
    if rule is ActivationRule.ARGMAX_MASK_01:
        mask = (h > 0).astype(float)
        return mask * h, mask
    if rule is ActivationRule.EXPECTATION_MASK_01:
        s = _sigmoid(h)
        return s * h, s * (1.0 + h * (1.0 - s))
    if rule is ActivationRule.PARTIAL_EXPECTATION_01:
        s = _sigmoid(h)
        return s, s * (1.0 - s)
    if rule is ActivationRule.PARTIAL_EXPECTATION_PM1:
        t = np.tanh(h)
        return t, 1.0 - t * t
    raise DomainError(f"unknown activation rule {rule!r}")


@dataclass(frozen=True)
class PlanLayer:
    """One node of a network plan: wiring plus kernel and rule."""

    node: str
    input_nodes: tuple[str, ...]
    kernel: KernelSpec
    rule: ActivationRule

    @property
    def in_dim(self) -> int:
        return self.kernel.in_dim

    @property
    def out_dim(self) -> int:
        return self.kernel.out_dim


@dataclass(frozen=True)
class NetworkPlan:
    """Evaluation order and wiring produced by :func:`build_s_system`."""

    poset: ScalePoset
    input_dim: int
    layers: tuple[PlanLayer, ...]
    terminal_nodes: tuple[str, ...]

    @property
    def evaluation_order(self) -> tuple[str, ...]:
        return tuple(layer.node for layer in self.layers)

    @property
    def output_dim(self) -> int:
        if not self.layers:
            return self.input_dim
        dims = {layer.node: layer.out_dim for layer in self.layers}
        dims[self.poset.minimal] = self.input_dim
        return sum(dims[t] for t in self.terminal_nodes)


def build_s_system(
    poset: ScalePoset,
    input_dim: int,
    layer_specs: Mapping[str, tuple[KernelSpec, ActivationRule]],
) -> NetworkPlan:
    """Build a layered plan by breadth traversal of the poset from the bottom.

    Every non-minimal node must appear in ``layer_specs``.  A node's input
    is the concatenation of its immediate predecessors' outputs in
    lexicographic node-id order, and the node is scheduled in the first
    wave in which all of its predecessors have been built, so the returned
    evaluation order is topological.  With a single-node poset the plan has
    zero layers and passes the input through unchanged.
    """
    if input_dim <= 0:
        raise DomainError(f"input_dim must be positive, got {input_dim}")
    s0 = poset.minimal
    non_minimal = [n for n in poset.node_ids if n != s0]
    missing = [n for n in non_minimal if n not in layer_specs]
    if missing:
        raise DomainError(f"layer_specs missing nodes {sorted(missing)}")

    out_dims = {s0: input_dim}
    built = {s0}
    layers: list[PlanLayer] = []
    frontier = set(poset.successors(s0))
    while frontier:
        deferred: set[str] = set()
        progressed = False
        for node in sorted(frontier):
            preds = sorted(poset.predecessors(node))
            if any(p not in built for p in preds):
                deferred.add(node)
                continue
            kernel, rule = layer_specs[node]
            in_dim = sum(out_dims[p] for p in preds)
            if kernel.in_dim != in_dim:
                raise ShapeError(
                    f"node {node!r}: kernel expects {kernel.in_dim} inputs but "
                    f"predecessors {preds} supply {in_dim}"
                )
            layers.append(PlanLayer(node, tuple(preds), kernel, rule))
            out_dims[node] = kernel.out_dim
            built.add(node)
            progressed = True
            deferred |= poset.successors(node) - built
        if not progressed:
            raise DomainError("traversal stalled; poset is inconsistent")
        frontier = deferred - built

    terminals = tuple(sorted(n for n in poset.node_ids if not poset.successors(n)))
    return NetworkPlan(poset, input_dim, tuple(layers), terminals)


def evaluate_plan(plan: NetworkPlan, x: np.ndarray):
    """Run a plan on one input vector.

    Returns ``(output, states)``: the concatenated terminal outputs (in
    lexicographic terminal order) and a dict mapping node id to its
    :class:`LayerState`.
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


_RULE_NAMES = {rule.value: rule for rule in ActivationRule}


def kernel_from_entry(entry, where: str) -> KernelSpec:
    """Kernel of one layer entry ``{"rows": r, "cols": c, "weights": [...], "field": ...}``.

    ``weights`` is row-major and ``field`` defaults to ``"01"``.  ``rows``
    and ``cols`` must be positive integers (not bools or floats).  ``where``
    names the entry in the error raised for a malformed one.
    """
    try:
        rows, cols = entry["rows"], entry["cols"]
        for name, size in (("rows", rows), ("cols", cols)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
                raise DomainError(f"{name} must be a positive integer, got {size!r}")
        weight = np.asarray(entry["weights"], dtype=float).reshape(rows, cols)
        return KernelSpec(weight, entry.get("field", "01"))
    except (KeyError, TypeError, ValueError, OverflowError, DomainError) as exc:
        raise DomainError(f"malformed {where}: {exc}") from exc


def load_network_json(source) -> tuple[ScalePoset, dict[str, tuple[KernelSpec, ActivationRule]]]:
    """Load a poset and per-node layer specs from a JSON document.

    ``source`` may be a path, an open file or an already-parsed dict.  The
    schema is ``{"nodes": [...], "edges": [[lo, hi], ...], "layers":
    {node: {"rows": r, "cols": c, "field": "01"|"pm1", "rule":
    "relu"|"swish"|"sigmoid"|"tanh", "weights": [...row-major...]}}}``.
    The minimal element is inferred as the unique node without incoming
    edges.
    """
    doc = read_json(source)
    try:
        nodes = [str(n) for n in doc["nodes"]]
        edges = [(str(a), str(b)) for a, b in doc["edges"]]
        layer_doc = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed network document: {exc}") from exc
    if not isinstance(layer_doc, dict):
        raise DomainError(
            f"layers must map node ids to layer entries, got {type(layer_doc).__name__}"
        )
    with_incoming = {b for _, b in edges}
    sources = [n for n in nodes if n not in with_incoming]
    if len(sources) != 1:
        raise DomainError(f"expected a unique minimal node, found {sources}")
    poset = ScalePoset(tuple(nodes), tuple(edges), sources[0])
    specs: dict[str, tuple[KernelSpec, ActivationRule]] = {}
    for node, entry in layer_doc.items():
        kernel = kernel_from_entry(entry, f"layer entry for node {node!r}")
        rule_name = entry.get("rule")
        if not isinstance(rule_name, str) or rule_name not in _RULE_NAMES:
            raise DomainError(f"unknown rule {rule_name!r} for node {node!r}")
        specs[str(node)] = (kernel, _RULE_NAMES[rule_name])
    return poset, specs
