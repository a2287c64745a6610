"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute; each criterion builds its own inputs and is runnable
standalone.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dysonnet.esd import (
    density_cdf,
    ks_distance,
    sample_centered_hessians,
    sample_wigner,
    support_bound_check,
    symmetry_check,
)
from dysonnet.hessian import landscape_report, risk_hessian, sample_hessian
from dysonnet.infogeo import (
    LayeredDiscreteModel,
    contraction_check,
    decompose_likelihood,
    posterior_assignments,
)
from dysonnet.kernels import ActivationRule, KernelSpec, conditional_group_law, estimate_indicator
from dysonnet.net import (
    Dataset,
    LossL0,
    NetworkParams,
    flatten_params,
    forward,
    loss,
    network_to_chain_json,
    save_dataset_csv,
    unflatten_params,
)
from dysonnet.rmt import (
    EmpiricalSelfEnergy,
    IsotropicSelfEnergy,
    MDEProblem,
    ZeroSelfEnergy,
    semicircle_density,
    solve_mde,
    stieltjes_invert,
)

WIGNER_GRID = np.linspace(-3.0, 3.0, 601)
WIGNER_ETA = 1e-4


def report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def wigner_run():
    """Timed solve of the zero-expectation isotropic problem at eta=1e-4."""
    problem = MDEProblem(np.zeros((32, 32)), IsotropicSelfEnergy(1.0),
                         WIGNER_GRID + 1j * WIGNER_ETA)
    start = time.perf_counter()
    solution = solve_mde(problem)
    density = stieltjes_invert(solution, WIGNER_GRID, WIGNER_ETA)
    elapsed = time.perf_counter() - start
    return problem, solution, density, elapsed


def test_criterion_01_semicircle(wigner_run):
    _, _, density, elapsed = wigner_run
    center = density.density[np.argmin(np.abs(WIGNER_GRID))]
    center_err = abs(center - 1.0 / np.pi)
    l1 = float(np.trapezoid(np.abs(density.density - semicircle_density(WIGNER_GRID)),
                            WIGNER_GRID))
    ok = center_err <= 2e-3 and l1 <= 1e-2 and elapsed < 10.0
    report(1, ok, f"rho(0) err={center_err:.2e} (<=2e-3), L1={l1:.2e} (<=1e-2), "
                  f"runtime={elapsed:.1f}s (<10s)")


def test_criterion_02_residual_and_positivity(wigner_run):
    problem, solution, _, _ = wigner_run
    max_res = float(solution.residuals.max())
    min_im = min(
        float(np.linalg.eigvalsh((m - m.conj().T) / 2j).min()) for m in solution.m
    )
    ok = max_res <= 1e-10 and min_im > 0.0
    report(2, ok, f"max residual={max_res:.2e} (<=1e-10), min Im-eig={min_im:.2e} (>0)")


def test_criterion_03_conjugation():
    rng = np.random.default_rng(3)
    grid = np.linspace(-2.5, 2.5, 51)
    eta = 1e-3
    defect = 0.0
    for se in (
        IsotropicSelfEnergy(1.0),
        EmpiricalSelfEnergy.from_samples([sample_wigner(10, rng) for _ in range(25)]),
    ):
        n = 16 if isinstance(se, IsotropicSelfEnergy) else 10
        solution = solve_mde(MDEProblem(np.zeros((n, n)), se, grid + 1j * eta), tol=1e-12)
        for i, e in enumerate(grid):
            j = int(np.argmin(np.abs(grid + e)))
            defect = max(defect, float(np.abs(solution.m[j] + solution.m[i].conj().T).max()))
    ok = defect <= 1e-8
    report(3, ok, f"max mirrored-solution defect={defect:.2e} (<=1e-8)")


def test_criterion_04_symmetry():
    grid = np.linspace(-3.0, 3.0, 241)
    eta = 1e-3
    problem = MDEProblem(np.zeros((16, 16)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
    density = stieltjes_invert(solve_mde(problem, tol=1e-12), grid, eta)
    defect = symmetry_check(density)

    rng = np.random.default_rng(4)
    neg = 0
    total = 0
    for _ in range(20):
        for mat in sample_centered_hessians((16, 13, 12, 11), 16, rng):
            eigs = np.linalg.eigvalsh(mat)
            scale = float(np.abs(eigs).max())
            if scale == 0.0:
                continue
            tol = 1e-8 * scale
            nonzero = np.abs(eigs) > tol
            neg += int(np.sum(eigs[nonzero] < -tol))
            total += int(np.sum(nonzero))
    fraction = neg / total
    half_width = 2.576 * np.sqrt(0.25 / total)
    ok = defect <= 1e-6 and abs(fraction - 0.5) <= half_width
    report(4, ok, f"density symmetry defect={defect:.2e} (<=1e-6); ensemble neg "
                  f"fraction={fraction:.4f} within 0.5±{half_width:.4f} "
                  f"(99% binomial, {total} eigenvalues)")


def test_criterion_05_ks_empirical_vs_mde(wigner_run):
    _, _, density, _ = wigner_run
    cgrid, cdf = density_cdf(density)
    rng = np.random.default_rng(5)
    distances = [
        ks_distance(np.linalg.eigvalsh(sample_wigner(1000, rng)), cgrid, cdf)
        for _ in range(20)
    ]
    mean_ks = float(np.mean(distances))
    ok = mean_ks <= 0.05
    report(5, ok, f"mean KS over 20 trials={mean_ks:.4f} (<=0.05), worst={max(distances):.4f}")


def _stacked_losses(params, kind, x, y, thetas):
    """The loss at each row of ``thetas``, computed as ``net.forward`` and ``loss`` do.

    Each weight group's slice of a row is the column-major vec of W, so it
    reads as a C-ordered (d_out, d_in) W^T; every row is then one
    matrix-vector product per layer, as a lone ``forward`` makes it.
    """
    t = np.broadcast_to(x, (thetas.shape[0], x.size))
    offset = 0
    for w in params.weights:
        d_in, d_out = w.shape
        w_t = thetas[:, offset:offset + w.size].reshape(-1, d_out, d_in)
        t, _ = estimate_indicator(params.rule, (w_t @ t[..., None])[..., 0])
        offset += w.size
    score = (t[:, None, :] @ thetas[:, offset:, None])[:, 0, 0]
    return loss(kind, score, y)[0]


def _fd_hessian(params, kind, x, y, step=1e-4):
    theta = flatten_params(params)
    lone = loss(kind, forward(unflatten_params(theta, params), x)[0], y)[0]
    assert _stacked_losses(params, kind, x, y, theta[None])[0] == lone

    n = theta.size
    out = np.zeros((n, n))
    for i in range(n):
        # rows pp, pm, mp, mm for every j >= i, each shifted at i then at j
        js = np.arange(i, n)
        stack = np.tile(theta, (4 * js.size, 1))
        half = 2 * js.size
        stack[:half, i] += step
        stack[half:, i] -= step
        stack[np.arange(4 * js.size), np.tile(js, 4)] += np.repeat([step, -step, step, -step], js.size)
        pp, pm, mp, mm = _stacked_losses(params, kind, x, y, stack).reshape(4, js.size)
        out[i, i:] = out[i:, i] = (pp - pm - mp + mm) / (4 * step * step)
    return out


def _random_config(rng):
    depth = int(rng.integers(2, 5))
    widths = rng.integers(1, 9, size=depth)
    weights = tuple(rng.standard_normal((widths[i], widths[i + 1]))
                    for i in range(depth - 1))
    params = NetworkParams(weights, rng.standard_normal(widths[-1]))
    x = rng.standard_normal(widths[0])
    y = float(rng.choice([-1.0, 1.0]))
    return params, x, y


def _kink_free(params, x, y, clearance=1e-3):
    score, states = forward(params, x)
    if abs(1.0 - y * score) < clearance:
        return False
    return all(np.abs(s.h_hat).min() >= clearance for s in states)


def test_criterion_06_hessian_exactness():
    hand = sample_hessian(
        NetworkParams((np.array([[0.3]]),), np.array([0.5])),
        LossL0.HINGE, np.array([1.0]), 1.0,
    ).assemble()
    hand_ok = np.array_equal(np.linalg.eigvalsh(hand), [-1.0, 1.0])

    rng = np.random.default_rng(6)
    worst = 0.0
    checked = 0
    while checked < 50:
        params, x, y = _random_config(rng)
        if not _kink_free(params, x, y):
            continue
        checked += 1
        analytic = sample_hessian(params, LossL0.HINGE, x, y).assemble()
        fd = _fd_hessian(params, LossL0.HINGE, x, y)
        scale = max(float(np.abs(analytic).max()), 1e-12)
        worst = max(worst, float(np.abs(analytic - fd).max()) / scale)
    ok = hand_ok and worst <= 1e-4
    report(6, ok, f"hand case eigs exactly (-1, 1): {hand_ok}; worst relative "
                  f"finite-difference error over 50 configs={worst:.2e} (<=1e-4)")


def test_criterion_07_operator_norm_bound():
    rng = np.random.default_rng(7)
    worst_excess = -np.inf
    for _ in range(20):
        params, x, _ = _random_config(rng)
        dataset = Dataset(rng.standard_normal((5, params.input_dim)),
                          rng.choice([-1.0, 1.0], size=5))
        rep = landscape_report(params, LossL0.HINGE, dataset)
        worst_excess = max(worst_excess, rep.op_norm - rep.bound)
    zero_net = NetworkParams((np.array([[2.0]]),), np.array([1.0]))
    zero_data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
    zero_h = risk_hessian(zero_net, LossL0.HINGE, zero_data).assemble()
    zero_ok = np.array_equal(zero_h, np.zeros_like(zero_h))
    ok = worst_excess <= 1e-9 and zero_ok
    report(7, ok, f"worst op_norm-bound excess={worst_excess:.2e} (<=1e-9); "
                  f"zero-risk Hessian exactly zero: {zero_ok}")


def test_criterion_08_support_bound():
    a = np.diag([-1.0, 0.25, 1.5])
    fixed = support_bound_check(np.linalg.eigvalsh(a), a, ZeroSelfEnergy())

    grid = np.linspace(-3.0, 3.0, 241)
    eta = 1e-3
    wigner = MDEProblem(np.zeros((8, 8)), IsotropicSelfEnergy(1.0), grid + 1j * eta)
    wigner_density = stieltjes_invert(solve_mde(wigner), grid, eta)
    wigner_check = support_bound_check(wigner_density, wigner.a_matrix, wigner.self_energy)

    shifted_grid = np.linspace(-2.0, 4.0, 241)
    shifted = MDEProblem(np.eye(8), IsotropicSelfEnergy(1.0), shifted_grid + 1j * eta)
    shifted_density = stieltjes_invert(solve_mde(shifted), shifted_grid, eta)
    shifted_check = support_bound_check(shifted_density, shifted.a_matrix, shifted.self_energy)

    ok = fixed.ok and wigner_check.ok and shifted_check.ok
    report(8, ok, "eigenvalues of A inside Spec A ± 1e-6 with zero fluctuation: "
                  f"{fixed.ok}; Wigner density within ±(2+1e-6+3η^(2/3)): {wigner_check.ok} "
                  f"(margin {wigner_check.worst_margin:.2e}); shifted density within "
                  f"[-1,3] widened: {shifted_check.ok} (margin {shifted_check.worst_margin:.2e})")


def test_criterion_09_likelihood_decomposition():
    rng = np.random.default_rng(9)
    worst_defect = 0.0
    fp_failures = 0
    for _ in range(100):
        scales = (
            KernelSpec(rng.standard_normal((2, 3)), "01"),
            KernelSpec(rng.standard_normal((3, 2)), str(rng.choice(["01", "pm1"]))),
        )
        model = LayeredDiscreteModel(rng.standard_normal((3, 2)), scales)
        data = rng.dirichlet(np.ones(3))
        nu = [rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(4))]
        rep = decompose_likelihood(model, data, nu)
        worst_defect = max(worst_defect, rep.identity_defect)
        posterior = posterior_assignments(model, data)
        best = decompose_likelihood(model, data, posterior).expected_ll
        for _ in range(200):
            candidate = [rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(4))]
            if decompose_likelihood(model, data, candidate).expected_ll > best + 1e-12:
                fp_failures += 1
                break
    ok = worst_defect <= 1e-10 and fp_failures == 0
    report(9, ok, f"worst identity defect over 100 models={worst_defect:.2e} (<=1e-10); "
                  f"models where a random assignment beat the posterior: {fp_failures}/100")


def test_criterion_10_data_processing():
    rng = np.random.default_rng(10)
    worst_increase = -np.inf
    for _ in range(1000):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        sizes = [5] + list(rng.integers(2, 7, size=3))
        kernels = [rng.dirichlet(np.ones(sizes[i + 1]), size=sizes[i]) for i in range(3)]
        stages = contraction_check(p, q, kernels)
        worst_increase = max(worst_increase, float(np.diff(stages).max()))
    ok = worst_increase <= 1e-12
    report(10, ok, f"worst stagewise KL increase over 1000 trials={worst_increase:.2e} (<=1e-12)")


def test_criterion_11_activation_derivations():
    rng = np.random.default_rng(11)
    h = rng.standard_normal(100000) * 10
    ramp, _ = estimate_indicator(ActivationRule.ARGMAX_MASK_01, h)
    ramp_ok = np.array_equal(ramp, np.maximum(0.0, h))
    worst_norm = 0.0
    for _ in range(1000):
        rows, cols = rng.integers(1, 6, size=2)
        spec = KernelSpec(3.0 * rng.standard_normal((rows, cols)),
                          str(rng.choice(["01", "pm1"])))
        law = conditional_group_law(spec, 3.0 * rng.standard_normal(rows))
        worst_norm = max(worst_norm, float(np.abs(law.sum(axis=1) - 1.0).max()))
    ok = ramp_ok and worst_norm <= 1e-12
    report(11, ok, f"argmax mask equals ramp on 1e5 draws: {ramp_ok}; worst pmf "
                   f"normalization defect={worst_norm:.2e} (<=1e-12)")


def _run_cli(args, env_threads=None):
    cmd = [sys.executable, "-m", "dysonnet.cli"] + [str(a) for a in args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_12_determinism(tmp_path):
    problem = tmp_path / "wigner.json"
    problem.write_text(json.dumps({"A": [[0.0] * 6 for _ in range(6)],
                                   "S": {"kind": "isotropic", "c": 1.0}}))
    net = tmp_path / "net.json"
    net.write_text(json.dumps(network_to_chain_json(
        NetworkParams((np.array([[0.3, -0.2], [0.1, 0.5]]),), np.array([0.5, -1.0]))
    )))
    data = tmp_path / "data.csv"
    save_dataset_csv(data, Dataset(np.array([[1.0, 0.5], [-0.25, 2.0]]),
                                   np.array([1.0, -1.0])))
    contract_doc = tmp_path / "contract.json"
    contract_doc.write_text(json.dumps({
        "p": [0.5, 0.3, 0.2], "q": [0.2, 0.3, 0.5],
        "kernels": [[[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]]],
    }))
    model_doc = tmp_path / "model.json"
    model_doc.write_text(json.dumps({
        "x_support": [[1.0]], "x_pmf": [1.0],
        "scales": [{"rows": 1, "cols": 1, "field": "01", "weights": [-1.0]}],
        "nu": [[0.5, 0.5]],
    }))

    # identical config throughout: outputs land on the same paths each time
    paths = {name: tmp_path / name for name in (
        "esd.csv", "dens.csv", "rep.json", "eigs.csv",
        "contract.json.out", "stages.csv", "decompose.json.out", "kl.csv",
    )}
    outputs = []
    for _run in range(2):
        for threads in (1, 3):
            _run_cli(["--seed", 42, "--threads", threads, "esd", "sample",
                      "--ensemble", "wigner", "--n", 40, "--trials", 4,
                      "--out", paths["esd.csv"]])
            _run_cli(["--seed", 42, "--threads", threads, "mde", "solve",
                      "--problem", problem, "--points", 41, "--eta", 1e-2,
                      "--out", paths["dens.csv"]])
            _run_cli(["--seed", 42, "--threads", threads, "landscape",
                      "--network", net, "--data", data, "--out", paths["rep.json"],
                      "--eigs-csv", paths["eigs.csv"]])
            _run_cli(["--seed", 42, "--threads", threads, "contract",
                      "--model", contract_doc, "--out", paths["contract.json.out"],
                      "--csv", paths["stages.csv"]])
            _run_cli(["--seed", 42, "--threads", threads, "decompose",
                      "--model", model_doc, "--out", paths["decompose.json.out"],
                      "--csv", paths["kl.csv"]])
            outputs.append(tuple(p.read_bytes() for p in paths.values()))
    identical = all(o == outputs[0] for o in outputs[1:])
    report(12, identical, "esd/density/landscape/contract/decompose outputs "
                          "byte-identical over 2 runs x 2 thread counts: " + str(identical))
