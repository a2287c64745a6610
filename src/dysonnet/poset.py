"""Scale posets and the layered construction they drive.

A :class:`ScalePoset` is a finite strict partial order with a unique bottom
element.  A layered network plan is built by walking the poset upward from
the bottom: every non-minimal node owns a linear kernel
(:class:`~dysonnet.kernels.KernelSpec`) and an indicator-estimation rule
(:class:`~dysonnet.kernels.ActivationRule`) and consumes the concatenated
outputs of its immediate predecessors.  When the poset is a chain the plan
is an ordinary multilayer perceptron, which
:func:`~dysonnet.net.network_from_chain_json` reads off it.
:func:`load_network_json` reads a poset and its layers from JSON; the
kernels themselves, their indicator law and its estimation live in
:mod:`dysonnet.kernels`.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .errors import DomainError, ShapeError, read_json, reading
from .kernels import ActivationRule, KernelSpec, kernel_from_entry

__all__ = [
    "NetworkPlan",
    "PlanLayer",
    "ScalePoset",
    "build_s_system",
    "load_network_json",
]


class ScalePoset:
    """Finite strict partial order with a unique bottom element.

    ``cover_edges`` lists covering pairs ``(lower, upper)``; the order is
    the transitive closure of the edges.  Construction validates that the
    closure is acyclic and that ``minimal`` is the unique minimal element;
    then every other node lies above it, since following its predecessors
    down a finite acyclic order ends at a minimal element.
    """

    __slots__ = ("node_ids", "cover_edges", "minimal", "_lt", "_covers", "_index")

    def __init__(self, node_ids: tuple[str, ...], cover_edges: tuple[tuple[str, str], ...],
                 minimal: str):
        nodes = tuple(str(n) for n in node_ids)
        if len(set(nodes)) != len(nodes):
            raise DomainError("duplicate node ids")
        if not nodes:
            raise DomainError("poset must contain at least one node")
        index = {n: i for i, n in enumerate(nodes)}
        edges = tuple((str(a), str(b)) for a, b in cover_edges)
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
        if minimal not in index:
            raise DomainError(f"minimal element {minimal!r} not a node")
        sources = [nodes[i] for i in range(n) if not lt[:, i].any()]
        if set(sources) != {minimal}:
            raise DomainError(
                f"minimal element must be unique and equal {minimal!r}, "
                f"found minimal elements {sources}"
            )
        self.node_ids = nodes
        self.cover_edges = edges
        self.minimal = minimal
        self._lt = lt
        # j covers i when i < j with nothing strictly between them.
        self._covers = lt & ~(lt @ lt)
        self._index = index

    def less(self, a: str, b: str) -> bool:
        """Strict order a < b."""
        return bool(self._lt[self._node(a), self._node(b)])

    def _node(self, s: str) -> int:
        if s not in self._index:
            raise DomainError(f"unknown scale id {s!r}")
        return self._index[s]

    def successors(self, s: str) -> set[str]:
        """Immediate successors of ``s``: the minimal elements strictly above it."""
        return {self.node_ids[j] for j in np.flatnonzero(self._covers[self._node(s)])}

    def predecessors(self, s: str) -> set[str]:
        """Immediate predecessors of ``s``: the maximal elements strictly below it."""
        return {self.node_ids[i] for i in np.flatnonzero(self._covers[:, self._node(s)])}


class PlanLayer(NamedTuple):
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


class NetworkPlan(NamedTuple):
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
    """Build a layered plan by walking the poset upward from the bottom, one height at a time.

    Every non-minimal node must appear in ``layer_specs``.  A node's input
    is the concatenation of its immediate predecessors' outputs in
    lexicographic node-id order.  The layers are ordered by (height, node
    id), a node's height being the length of the longest chain from the
    bottom to it; its predecessors all have smaller heights, so the
    returned evaluation order is topological.  With a single-node poset
    the plan has zero layers and passes the input through unchanged.
    """
    if input_dim <= 0:
        raise DomainError(f"input_dim must be positive, got {input_dim}")
    s0 = poset.minimal
    non_minimal = [n for n in poset.node_ids if n != s0]
    missing = [n for n in non_minimal if n not in layer_specs]
    if missing:
        raise DomainError(f"layer_specs missing nodes {sorted(missing)}")

    # a node has more nodes below it than any node below it has, so taking
    # the nodes by that count meets each one after every node it covers
    height = np.zeros(len(poset.node_ids), dtype=int)
    for j in np.argsort(poset._lt.sum(axis=0), kind="stable"):
        height[j] = 1 + height[poset._covers[:, j]].max(initial=-1)
    out_dims = {s0: input_dim}
    layers: list[PlanLayer] = []
    for node in sorted(non_minimal, key=lambda n: (height[poset._index[n]], n)):
        preds = sorted(poset.predecessors(node))
        kernel, rule = layer_specs[node]
        in_dim = sum(out_dims[p] for p in preds)
        if kernel.in_dim != in_dim:
            raise ShapeError(f"node {node!r}: kernel expects {kernel.in_dim} inputs but"
                             f" predecessors {preds} supply {in_dim}")
        layers.append(PlanLayer(node, tuple(preds), kernel, rule))
        out_dims[node] = kernel.out_dim

    terminals = tuple(sorted(n for n in poset.node_ids if not poset.successors(n)))
    return NetworkPlan(poset, input_dim, tuple(layers), terminals)


_RULE_NAMES = {rule.value: rule for rule in ActivationRule}


def load_network_json(source) -> tuple[ScalePoset, dict[str, tuple[KernelSpec, ActivationRule]]]:
    """Load a poset and per-node layer specs from a JSON document.

    ``source`` may be a path, an open file or an already-parsed dict.  The
    schema is ``{"nodes": [...], "edges": [[lo, hi], ...], "layers":
    {node: {"rows": r, "cols": c, "field": "01"|"pm1", "rule":
    "relu"|"swish"|"sigmoid"|"tanh", "weights": [...row-major...]}}}``.
    The minimal element is inferred as the unique node without incoming
    edges; it is the input and has no layer, so an entry for it, or for a
    name that is not a node, is refused with :class:`DomainError`.
    """
    doc = read_json(source)
    with reading("malformed network document"):
        nodes = [str(n) for n in doc["nodes"]]
        edges = [(str(a), str(b)) for a, b in doc["edges"]]
        layer_doc = doc["layers"]
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
        if node not in nodes or node == poset.minimal:
            raise DomainError(f"layer entry for node {node!r}, which has no layer:"
                              f" only the nodes above the input node {poset.minimal!r} have one")
        kernel = kernel_from_entry(entry, f"layer entry for node {node!r}")
        rule_name = entry.get("rule")
        if not isinstance(rule_name, str) or rule_name not in _RULE_NAMES:
            raise DomainError(f"unknown rule {rule_name!r} for node {node!r}")
        specs[str(node)] = (kernel, _RULE_NAMES[rule_name])
    return poset, specs
