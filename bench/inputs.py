"""Seeded inputs for the benchmark workloads.

Every input is built through dysonnet's public API and written as the
files the CLI reads; the CLI itself never sees the seed.  The same seed
gives byte-identical files, so two commits are measured on equal inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dysonnet.infogeo import LayeredDiscreteModel
from dysonnet.net import (
    Dataset,
    NetworkParams,
    network_to_chain_json,
    save_dataset_csv,
)
from dysonnet.poset import ActivationRule, KernelSpec
from dysonnet.rmt import semicircle_cdf

# Workload sizes.  One CLI invocation takes about two seconds on two shared
# vCPUs (about one for decompose), so that a 40 s run holds 15 or more of
# them (see README.md); why each workload exists is recorded in BENCHMARK.json.
MDE_ISO = {"n": 64, "emin": -3.0, "emax": 3.0, "points": 121, "eta": 1e-3}
LANDSCAPE = {"width": 18, "samples": 20}
DECOMPOSE = {"points": 2000, "input_dim": 3, "scale_widths": (2, 2, 1)}

WORKLOADS = ("mde-iso", "landscape", "decompose")


def _rng(workload: str, seed: int) -> np.random.Generator:
    # Two's complement keeps negative seeds distinct from positive ones.
    return np.random.default_rng([int(seed) & (2 ** 64 - 1), WORKLOADS.index(workload)])


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _relu_chain(rng, widths) -> NetworkParams:
    weights = tuple(
        rng.standard_normal((widths[i], widths[i + 1])) / np.sqrt(widths[i])
        for i in range(len(widths) - 1)
    )
    alpha = rng.standard_normal(widths[-1]) / np.sqrt(widths[-1])
    return NetworkParams(weights, alpha, ActivationRule.ARGMAX_MASK_01)


def _labelled_inputs(rng, n, dim):
    x = rng.standard_normal((n, dim))
    y = rng.choice([-1.0, 1.0], size=n)
    return x, y


def _mde_iso(rng, out: Path) -> list[str]:
    # A Wigner-scaled spectrum (the semicircle's classical locations) in a
    # seeded Haar-random basis.  With an isotropic self-energy the solution
    # is a function of A, so the solver's work depends on the spectrum only
    # and stays the same across seeds while the input bytes differ.
    n = MDE_ISO["n"]
    grid = np.linspace(-2.0, 2.0, 20001)
    spectrum = np.interp((np.arange(n) + 0.5) / n, semicircle_cdf(grid), grid)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    basis = q * np.sign(np.diag(r))
    a = (basis * spectrum) @ basis.T
    a = (a + a.T) / 2.0
    _write_json(out / "problem.json", {"A": a.tolist(), "S": {"kind": "isotropic", "c": 1.0}})
    return ["problem.json"]


def _landscape(rng, out: Path) -> list[str]:
    w = LANDSCAPE["width"]
    params = _relu_chain(rng, (w, w, w, w))
    x, y = _labelled_inputs(rng, LANDSCAPE["samples"], w)
    _write_json(out / "network.json", network_to_chain_json(params))
    save_dataset_csv(out / "data.csv", Dataset(x, y))
    return ["network.json", "data.csv"]


def _decompose(rng, out: Path) -> list[str]:
    dim = DECOMPOSE["input_dim"]
    support = rng.standard_normal((DECOMPOSE["points"], dim))
    scales = []
    for width in DECOMPOSE["scale_widths"]:
        scales.append(KernelSpec(rng.standard_normal((dim, width)), "01"))
        dim = width
    model = LayeredDiscreteModel(support, tuple(scales))
    pmf = rng.dirichlet(np.ones(DECOMPOSE["points"]))
    nu = [rng.dirichlet(np.ones(model.scale_states(s).shape[0])) for s in range(model.n_scales)]
    doc = {
        "x_support": model.x_support.tolist(),
        "x_pmf": pmf.tolist(),
        "scales": [
            {"rows": s.in_dim, "cols": s.out_dim, "field": s.field,
             "weights": s.weight.ravel().tolist()}
            for s in model.scales
        ],
        "nu": [v.tolist() for v in nu],
    }
    _write_json(out / "model.json", doc)
    return ["model.json"]


_MAKERS = {
    "mde-iso": _mde_iso,
    "landscape": _landscape,
    "decompose": _decompose,
}


def write_inputs(workload: str, seed: int, out: Path) -> list[str]:
    """Write one workload's input files into ``out``; return their names."""
    out.mkdir(parents=True, exist_ok=True)
    return _MAKERS[workload](_rng(workload, seed), out)


def energy_grid():
    """Real energies of the MDE workload, as the CLI builds them."""
    return np.linspace(MDE_ISO["emin"], MDE_ISO["emax"], MDE_ISO["points"])


def cli_args(workload: str) -> list[str]:
    """CLI arguments of one invocation, relative to the input directory."""
    if workload == "mde-iso":
        return ["mde", "solve", "--problem", "problem.json",
                "--emin", repr(MDE_ISO["emin"]), "--emax", repr(MDE_ISO["emax"]),
                "--points", str(MDE_ISO["points"]), "--eta", repr(MDE_ISO["eta"]),
                "--out", "density.csv"]
    if workload == "landscape":
        return ["landscape", "--network", "network.json", "--data", "data.csv",
                "--out", "report.json"]
    if workload == "decompose":
        return ["decompose", "--model", "model.json", "--out", "report.json", "--csv", "kl.csv"]
    raise ValueError(f"unknown workload {workload!r}")


def output_files(workload: str) -> list[str]:
    """Files one invocation writes into the input directory."""
    if workload == "mde-iso":
        return ["density.csv"]
    if workload == "landscape":
        return ["report.json", "report_eigs.csv"]
    return ["report.json", "kl.csv"]
