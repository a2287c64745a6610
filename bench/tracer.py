"""Spans around calls into dysonnet's public functions, from outside.

The traced run replaces public functions in the namespace of the module
that calls them (``dysonnet.hessian.forward``, ``dysonnet.cli.solve_mde``)
and a few methods and ``numpy.linalg`` entry points with wrappers that
record one span per call: name, start, end and the enclosing span.  Spans
stay in memory and are written once, when the run ends.  Nothing under
``src/`` is modified; a target that a later version no longer has is
skipped and its metrics read zero.

This module imports no numpy at import time, so the traced child can time
``import dysonnet.cli`` from a cold interpreter.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; all spans of one run share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[tuple[int, str]] = []

    def current_layer(self) -> str:
        """Module part of the innermost open span's name, ``cli`` at top level."""
        return self._open[-1][1].split(".", 1)[0] if self._open else "cli"

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else None
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append((index, name))
        return index

    def end(self, index: int) -> None:
        stop = time.perf_counter()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, stop, parent)
        self._open.pop()

    def wrap(self, name, fn, on_call=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string or a callable taking the tracer, evaluated at
        call time.  ``on_call(tracer, name, args, result)`` runs after the
        span closes and adds computed counts.
        """

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(self)
            index = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_call is not None:
                on_call(self, label, args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, stop, parent in spans:
        if parent is not None:
            children[parent].append((start, stop))
    out = []
    for index, (name, start, stop, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_stop in sorted(children.get(index, ())):
            c_start, c_stop = max(c_start, reach), min(c_stop, stop)
            if c_stop > c_start:
                covered += c_stop - c_start
                reach = c_stop
        out.append((stop - start) - covered)
    return out


def summarize(spans):
    """Per span name: number of calls, total (inclusive) seconds, self seconds."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (name, start, stop, _), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += stop - start
        own[name] += self_s
    return calls, total, own


def _array_bytes(obj) -> int:
    """Bytes held by the array attributes of a result object (computed)."""
    fields = vars(obj) if hasattr(obj, "__dict__") else {}
    return int(sum(getattr(v, "nbytes", 0) for v in fields.values()))


def _count_solution(tracer, label, args, result):
    tracer.counts["rmt.points"] += len(result.z_grid)
    tracer.counts["rmt.solution_bytes"] += _array_bytes(result)


def _count_eigvalsh(tracer, label, args, result):
    n = args[0].shape[-1]
    tracer.counts[f"{label}.flops"] += 4.0 * n ** 3 / 3.0


def _count_assemble(tracer, label, args, result):
    tracer.counts[f"{label}.bytes"] += result.nbytes


def _layer_named(suffix):
    return lambda tracer: f"{tracer.current_layer()}.{suffix}"


def install(tracer: Tracer) -> list[str]:
    """Wrap the traced entry points; return the targets that were missing."""
    import numpy as np

    import dysonnet.cli as cli
    import dysonnet.hessian as hessian
    import dysonnet.infogeo as infogeo
    import dysonnet.net as net
    import dysonnet.rmt as rmt

    targets = [
        (cli, "load_problem_json", "rmt.load_problem_json", None),
        (cli, "solve_mde", "rmt.solve_mde", _count_solution),
        (cli, "stieltjes_invert", "rmt.stieltjes_invert", None),
        (cli, "landscape_report", "hessian.landscape_report", None),
        (cli, "network_from_chain_json", "net.network_from_chain_json", None),
        (cli, "load_dataset_csv", "net.load_dataset_csv", None),
        (cli, "decompose_likelihood", "infogeo.decompose_likelihood", None),
        (hessian, "forward", "net.forward", None),
        (hessian.HessianBlocks, "assemble", "hessian.assemble", _count_assemble),
        (net, "load_network_json", "poset.load_network_json", None),
        (net, "estimate_indicator", "poset.estimate_indicator", None),
        (infogeo, "estimate_indicator", "poset.estimate_indicator", None),
        (infogeo, "conditional_group_law", "poset.conditional_group_law", None),
        (infogeo, "logsumexp", "infogeo.logsumexp", None),
        (infogeo.LayeredDiscreteModel, "conditionals", "infogeo.conditionals", None),
        (infogeo.LayeredDiscreteModel, "scale_states", "infogeo.scale_states", None),
        (np.linalg, "inv", _layer_named("inv"), None),
        (np.linalg, "eigvalsh", _layer_named("eigvalsh"), _count_eigvalsh),
        (rmt.IsotropicSelfEnergy, "apply", "rmt.S_apply", None),
    ]
    missing = []
    for owner, attr, name, on_call in targets:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(name, fn, on_call))
    return missing


# Per-layer metrics of one traced invocation, with their units.  Units
# ending in ``.computed`` are derived from array shapes, not measured.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "rmt.load_problem_json.s": "s",
    "rmt.solve_mde.self_s": "s",
    "rmt.inv.calls": "count",
    "rmt.inv.s": "s",
    "rmt.iters_per_point": "iter.computed",
    "rmt.S_apply.calls": "count",
    "rmt.S_apply.s": "s",
    "rmt.eigvalsh.calls": "count",
    "rmt.eigvalsh.s": "s",
    "rmt.stieltjes_invert.s": "s",
    "rmt.solution_bytes": "B.computed",
    "hessian.landscape_report.self_s": "s",
    "hessian.eigvalsh.calls": "count",
    "hessian.eigvalsh.s": "s",
    "hessian.eigvalsh.flops": "flop.computed",
    "hessian.assemble.calls": "count",
    "hessian.assemble.s": "s",
    "hessian.assemble.bytes": "B.computed",
    "net.forward.calls": "count",
    "net.forward.s": "s",
    "net.load.s": "s",
    "poset.load_network_json.s": "s",
    "poset.conditional_group_law.calls": "count",
    "poset.conditional_group_law.s": "s",
    "poset.estimate_indicator.calls": "count",
    "poset.estimate_indicator.s": "s",
    "infogeo.decompose_likelihood.self_s": "s",
    "infogeo.conditionals.calls": "count",
    "infogeo.conditionals.s": "s",
    "infogeo.scale_states.calls": "count",
    "infogeo.scale_states.s": "s",
    "infogeo.logsumexp.calls": "count",
    "infogeo.logsumexp.s": "s",
    "trace.overhead_s": "s",
}

# Measured by the parent process, not from spans.
FROM_PARENT = ("cli.output_bytes", "trace.overhead_s")


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every span-derived metric of ``PER_LAYER`` for one traced invocation."""
    calls, total, own = summarize(spans)
    points = counts.get("rmt.points", 0.0)
    out = {
        "cli.import_s": total["cli.import"],
        "net.load.s": total["net.network_from_chain_json"] + total["net.load_dataset_csv"],
        # Residual evaluations per grid point: one S[M] per fixed-point step.
        "rmt.iters_per_point": calls["rmt.S_apply"] / points if points else 0.0,
    }
    for name in PER_LAYER:
        if name in out or name in FROM_PARENT:
            continue
        if name in ("rmt.solution_bytes", "hessian.eigvalsh.flops", "hessian.assemble.bytes"):
            out[name] = float(counts.get(name, 0.0))
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = own[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            out[name] = total[name[: -len(".s")]]
        else:
            raise KeyError(f"no rule derives per-layer metric {name}")
    return out
