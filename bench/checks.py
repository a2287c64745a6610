"""Output checks, one per workload.

Each check reads the CLI's output files in a workload directory and
compares them with a reference computed here, independently of the CLI
run.  It returns a list of problems; an empty list means the output is
correct.  The reference is computed once per benchmark run and reused
for every invocation, whose outputs must also be byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from dysonnet.hessian import risk_hessian
from dysonnet.net import LossL0, load_dataset_csv, network_from_chain_json, param_group_dims

from inputs import MDE_ISO, energy_grid


def _read_csv(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    return np.asarray([[float(v) for v in r] for r in rows[1:]], dtype=float)


def _scalar_stieltjes(lam: np.ndarray, z: np.ndarray, c: float, tol: float = 1e-13) -> np.ndarray:
    """Solve ``m = mean_i 1 / (lam_i - z - c m)`` with ``Im m > 0`` at every z.

    Newton steps on the whole grid at once, with continuation from
    ``Im z = 1`` down to the target offset and step halving wherever a
    step would leave the upper half-plane.
    """
    eta = float(z.imag.min())
    levels = [1.0]
    while levels[-1] * 0.3 > eta:
        levels.append(levels[-1] * 0.3)
    levels.append(eta)
    m = np.full(z.shape, 1j)
    for level in levels:
        zl = z.real + 1j * level
        for _ in range(500):
            d = 1.0 / (lam[None, :] - zl[:, None] - c * m[:, None])
            f = m - d.mean(axis=1)
            if np.abs(f).max() <= tol:
                break
            step = f / (1.0 - c * (d * d).mean(axis=1))
            new = m - step
            for _ in range(60):
                bad = new.imag <= 0
                if not bad.any():
                    break
                step[bad] /= 2.0
                new = m - step
            m = new
        else:
            raise ArithmeticError(f"scalar Dyson equation unsolved at Im z = {level:g}")
    return m


def mde_iso_reference(workdir: Path) -> dict:
    with open(workdir / "problem.json", "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    lam = np.linalg.eigvalsh(np.asarray(doc["A"], dtype=float))
    grid = energy_grid()
    m = _scalar_stieltjes(lam, grid + 1j * MDE_ISO["eta"], float(doc["S"]["c"]))
    return {"grid": grid, "rho": m.imag / np.pi}


def check_mde_iso(workdir: Path, ref: dict) -> list[str]:
    out = _read_csv(workdir / "density.csv")
    if out.shape != (ref["grid"].size, 2) or np.abs(out[:, 0] - ref["grid"]).max() > 1e-12:
        return [f"density.csv has shape {out.shape} or another grid"]
    err = float(np.abs(out[:, 1] - ref["rho"]).max())
    return [] if err <= 1e-6 else [f"rho differs from the scalar solve by {err:.3e} > 1e-6"]


def landscape_reference(workdir: Path) -> dict:
    params = network_from_chain_json(workdir / "network.json")
    dataset = load_dataset_csv(workdir / "data.csv")
    full = risk_hessian(params, LossL0.HINGE, dataset).assemble()
    return {"eigs": np.linalg.eigvalsh(full), "p": int(sum(param_group_dims(params)))}


def check_landscape(workdir: Path, ref: dict) -> list[str]:
    with open(workdir / "report.json", "r", encoding="utf-8") as handle:
        report = json.load(handle)
    eigs = _read_csv(workdir / report["eigs_csv_path"])
    found = []
    if not report["op_norm"] <= report["bound"] + 1e-9:
        found.append(f"op_norm {report['op_norm']} exceeds bound {report['bound']} + 1e-9")
    if eigs.shape != (ref["p"], 2):
        found.append(f"{eigs.shape[0]} eigenvalues for P={ref['p']}")
        return found
    dense = float(np.abs(ref["eigs"]).max())
    tol = 1e-9 * max(1.0, dense)
    if abs(report["op_norm"] - dense) > tol:
        found.append(f"op_norm {report['op_norm']} differs from dense eigvalsh {dense}")
    if np.abs(eigs[:, 1] - ref["eigs"]).max() > tol:
        found.append("eigenvalues differ from dense eigvalsh of risk_hessian().assemble()")
    return found


def _log_sigmoid(x):
    """``log(1 / (1 + exp(-x)))`` without overflow."""
    return -np.logaddexp(0.0, -x)


def decompose_reference(workdir: Path) -> dict:
    """Per-scale KL terms and the likelihood split, vectorised over the support.

    Scale ``s`` sees the transported input ``t_s`` (the sigmoid of the
    previous scale's preactivation) and gives each of its coordinates the
    probability ``sigmoid(W_s^T t_s)`` of the value 1.  Its conditional pmf
    over the enumerated states is the product over coordinates.  Each
    conditional sums to one, so the marginal likelihood of every point is 1
    and ``complete_ll`` is ``sum pmf log pmf``; the model enters through
    ``kl_terms[s] = sum_x pmf(x) KL(nu_s || cond_s(x))`` and
    ``expected_ll = complete_ll - sum_s kl_terms[s]``.
    """
    with open(workdir / "model.json", "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    t = np.asarray(doc["x_support"], dtype=float)
    pmf = np.asarray(doc["x_pmf"], dtype=float)
    kl_terms = []
    for scale, nu in zip(doc["scales"], doc["nu"]):
        if scale["field"] != "01":
            raise ValueError("the decompose reference handles the 01 field only")
        w = np.asarray(scale["weights"], dtype=float).reshape(scale["rows"], scale["cols"])
        nu = np.asarray(nu, dtype=float)
        a = t @ w
        states = np.asarray(list(itertools.product((0.0, 1.0), repeat=w.shape[1])))
        # log cond[x, state] = sum over coordinates of log p(coordinate value)
        log_cond = _log_sigmoid(a) @ states.T + _log_sigmoid(-a) @ (1.0 - states).T
        active = nu > 0
        log_nu = np.log(nu[active])
        kl_x = (nu[active] * (log_nu[None, :] - log_cond[:, active])).sum(axis=1)
        kl_terms.append(float(pmf @ kl_x))
        t = np.exp(_log_sigmoid(a))  # the transport feeds the next scale
    complete = float(np.sum(pmf * np.log(pmf)))
    return {"complete_ll": complete, "expected_ll": complete - sum(kl_terms),
            "kl_terms": kl_terms}


def _relative_error(value, reference) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def check_decompose(workdir: Path, ref: dict) -> list[str]:
    with open(workdir / "report.json", "r", encoding="utf-8") as handle:
        report = json.load(handle)
    found = []
    if not report["identity_defect"] <= 1e-10:
        found.append(f"identity_defect {report['identity_defect']:.3e} > 1e-10")
    if len(report["kl_terms"]) != len(ref["kl_terms"]):
        found.append(f"{len(report['kl_terms'])} kl_terms for {len(ref['kl_terms'])} scales")
        return found
    for s, (got, want) in enumerate(zip(report["kl_terms"], ref["kl_terms"])):
        if not _relative_error(got, want) <= 1e-9:
            found.append(f"kl_terms[{s}] {got} differs from the reference {want}")
    for key in ("complete_ll", "expected_ll"):
        if not _relative_error(report[key], ref[key]) <= 1e-9:
            found.append(f"{key} {report[key]} differs from the reference {ref[key]}")
    return found


REFERENCES = {
    "mde-iso": mde_iso_reference,
    "landscape": landscape_reference,
    "decompose": decompose_reference,
}
CHECKS = {
    "mde-iso": check_mde_iso,
    "landscape": check_landscape,
    "decompose": check_decompose,
}
