"""Command-line front end.

Subcommands: ``mde solve``, ``esd sample``, ``hessian``, ``landscape``,
``contract`` and ``decompose``.  Every run owns a 64-bit seed feeding one
counter-based generator; Monte Carlo trials draw from per-trial children
of that seed and results merge in trial order, so outputs are
byte-identical across reruns and across worker counts.  Every CSV starts
with a ``# seed=... tool-version=...`` comment and floats are written
with 17 significant digits for lossless round-trip.

Exit codes: 0 success, 2 validation failure, 3 numeric non-convergence
(the message carries the final residual).

Each subcommand imports the modules it runs when it runs, so an
invocation loads and compiles only those: ``decompose`` never loads
``rmt`` or ``hessian``, and ``mde solve``, isotropic or empirical, never
loads ``hessian``, ``net`` or ``infogeo``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, DysonnetError, NumericError, check_dense_budget, read_json


def _write_csv(path, seed, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# seed={seed} tool-version={__version__}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_json(path, seed, payload):
    doc = {"seed": int(seed), "tool_version": __version__}
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _refuse_shared_output(flag, path, other_flag, other_path):
    """Refuse two outputs on one path, where the later write would replace the earlier."""
    if other_path is not None and os.path.realpath(path) == os.path.realpath(other_path):
        raise DomainError(f"{flag} and {other_flag} name the same file {other_path}")


def _positive(kind, name):
    def parse(text):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"{name} must be positive and finite, got {value}")
        return value

    return parse


def _cmd_mde_solve(args):
    from .rmt import load_problem_json, solve_mde, stieltjes_invert

    for name, value in (("--emin", args.emin), ("--emax", args.emax)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if args.emin >= args.emax:
        raise DomainError(f"--emin {args.emin} must be below --emax {args.emax}")
    grid = np.linspace(args.emin, args.emax, args.points)
    problem = load_problem_json(args.problem, args.eta, grid)
    solution = solve_mde(problem, tol=args.tol, max_iter=args.max_iter)
    density = stieltjes_invert(solution, grid, args.eta)
    _write_csv(args.out, args.seed, ["E", "rho"], zip(density.grid, density.density))
    return 0


def _trial_generators(seed, trials):
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(trials)]


def _hessian_widths(n_target: int) -> tuple[int, ...]:
    # Four layer groups of equal width w give roughly 3 w^2 + w parameters.
    w = max(2, int(round(np.sqrt(n_target / 3.0))))
    return (w, w, w, w)


def _cmd_esd_sample(args):
    from concurrent.futures import ThreadPoolExecutor

    from .rmt import sample_centered_hessians, sample_wigner

    # what one trial holds at once, refused before the pool starts
    if args.ensemble == "wigner":
        check_dense_budget(args.n * args.n, f"esd sample --ensemble wigner --n {args.n}")
    else:
        widths = _hessian_widths(args.n)
        p = sum(a * b for a, b in zip(widths, widths[1:])) + widths[-1]
        check_dense_budget(
            args.samples * p * p,
            f"esd sample --ensemble centered-hessian --n {args.n} --samples {args.samples}"
            f" ({args.samples} Hessians of P={p} parameters)",
        )
    generators = _trial_generators(args.seed, args.trials)

    def one_trial(index):
        gen = generators[index]
        if args.ensemble == "wigner":
            return np.linalg.eigvalsh(sample_wigner(args.n, gen))
        mats = sample_centered_hessians(_hessian_widths(args.n), args.samples, gen)
        return np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in mats]))

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        per_trial = list(pool.map(one_trial, range(args.trials)))
    rows = []
    for trial, eigs in enumerate(per_trial):
        rows.extend((trial, i, lam) for i, lam in enumerate(eigs))
    _write_csv(args.out, args.seed, ["trial", "index", "lambda"], rows)
    return 0


def _cmd_hessian(args):
    from .hessian import risk_hessian
    from .net import LossL0, load_dataset_csv, network_from_chain_json

    params = network_from_chain_json(args.network)
    dataset = load_dataset_csv(args.data)
    full = risk_hessian(params, LossL0(args.loss), dataset).assemble()
    _write_csv(args.out, args.seed, [f"c{j}" for j in range(full.shape[1])], full)
    return 0


def _cmd_landscape(args):
    _refuse_shared_output("--out", args.out, "--eigs-csv", args.eigs_csv)
    from .hessian import landscape_report
    from .net import LossL0, load_dataset_csv, network_from_chain_json

    params = network_from_chain_json(args.network)
    dataset = load_dataset_csv(args.data)
    report = landscape_report(params, LossL0(args.loss), dataset)
    eigs_path = args.eigs_csv or os.path.splitext(args.out)[0] + "_eigs.csv"
    _write_csv(eigs_path, args.seed, ["index", "lambda"], enumerate(report.eigs))
    _write_json(
        args.out,
        args.seed,
        {
            "risk": report.risk,
            "op_norm": report.op_norm,
            "bound": report.bound,
            "mean_lprime": report.mean_lprime,
            "lambda0": report.lambda0,
            "neg_fraction": report.neg_fraction,
            "kink_samples": list(report.kink_samples),
            "eigs_csv_path": eigs_path,
        },
    )
    return 0


def _cmd_contract(args):
    _refuse_shared_output("--out", args.out, "--csv", args.csv)
    from .infogeo import contraction_check

    doc = read_json(args.model)
    try:
        p = np.asarray(doc["p"], dtype=float)
        q = np.asarray(doc["q"], dtype=float)
        kernels = [np.asarray(k, dtype=float) for k in doc["kernels"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed contraction document: {exc}") from exc
    stages = contraction_check(p, q, kernels)
    increases = np.diff(stages)
    if args.csv:
        _write_csv(args.csv, args.seed, ["stage", "divergence"], enumerate(stages))
    _write_json(
        args.out,
        args.seed,
        {
            "stages": [float(v) for v in stages],
            "monotone": bool(np.all(increases <= 1e-12)),
            "max_increase": float(increases.max()) if increases.size else 0.0,
        },
    )
    return 0


def _cmd_decompose(args):
    _refuse_shared_output("--out", args.out, "--csv", args.csv)
    from .infogeo import LayeredDiscreteModel, decompose_likelihood
    from .poset import kernel_from_entry

    doc = read_json(args.model)
    try:
        support = np.asarray(doc["x_support"], dtype=float)
        data = np.asarray(doc["x_pmf"], dtype=float)
        nu = [np.asarray(v, dtype=float) for v in doc["nu"]]
        scale_entries = doc["scales"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed model document: {exc}") from exc
    if not isinstance(scale_entries, list):
        raise DomainError(
            f"scales must be a list of layer entries, got {type(scale_entries).__name__}"
        )
    scales = [
        kernel_from_entry(entry, f"scale entry {i}") for i, entry in enumerate(scale_entries)
    ]
    model = LayeredDiscreteModel(support, scales)
    report = decompose_likelihood(model, data, nu)
    if args.csv:
        _write_csv(args.csv, args.seed, ["stage", "divergence"], enumerate(report.kl_terms))
    _write_json(
        args.out,
        args.seed,
        {
            "complete_ll": report.complete_ll,
            "expected_ll": report.expected_ll,
            "kl_terms": [float(v) for v in report.kl_terms],
            "identity_defect": report.identity_defect,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonnet",
        description="Spectral and information-geometry experiments on layered networks.",
    )
    # --seed and --threads are accepted both before and after the subcommand;
    # the subcommand's copies default to SUPPRESS, so a value given after it
    # overrides one given before and an absent one leaves it alone
    parser.add_argument("--seed", type=int, default=0, help="64-bit run seed (default 0)")
    parser.add_argument("--threads", type=_positive(int, "--threads"), default=None,
                        help="worker-pool size; defaults to SPECTRAL_THREADS or 1")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--threads", type=_positive(int, "--threads"),
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    mde = commands.add_parser("mde", help="Matrix Dyson Equation tools")
    mde_sub = mde.add_subparsers(dest="subcommand", required=True)
    solve = mde_sub.add_parser("solve", parents=[common],
                               help="solve a problem and emit the density CSV")
    solve.add_argument("--problem", required=True, help="problem JSON path")
    solve.add_argument("--emin", type=float, default=-3.0)
    solve.add_argument("--emax", type=float, default=3.0)
    solve.add_argument("--points", type=_positive(int, "--points"), default=601)
    solve.add_argument("--eta", type=_positive(float, "--eta"), default=1e-3)
    solve.add_argument("--tol", type=_positive(float, "--tol"), default=1e-10)
    solve.add_argument("--max-iter", type=_positive(int, "--max-iter"), default=10000)
    solve.add_argument("--out", required=True)
    solve.set_defaults(func=_cmd_mde_solve)

    esd = commands.add_parser("esd", help="empirical spectral distribution sampling")
    esd_sub = esd.add_subparsers(dest="subcommand", required=True)
    sample = esd_sub.add_parser("sample", parents=[common],
                                help="sample ensembles and emit eigenvalues")
    sample.add_argument("--ensemble", choices=["wigner", "centered-hessian"], required=True)
    sample.add_argument("--n", type=_positive(int, "--n"), default=1000,
                        help="matrix size (wigner) or parameter-count target (centered-hessian)")
    sample.add_argument("--trials", type=_positive(int, "--trials"), default=20)
    sample.add_argument("--samples", type=_positive(int, "--samples"), default=16,
                        help="per-trial sample Hessians for the centered-hessian ensemble")
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=_cmd_esd_sample)

    hess = commands.add_parser("hessian", parents=[common],
                                help="assemble the dense risk Hessian")
    hess.add_argument("--network", required=True, help="chain network JSON path")
    hess.add_argument("--data", required=True, help="dataset CSV path")
    hess.add_argument("--loss", choices=["hinge", "absolute"], default="hinge")
    hess.add_argument("--out", required=True)
    hess.set_defaults(func=_cmd_hessian)

    land = commands.add_parser("landscape", parents=[common],
                                help="risk Hessian spectrum report")
    land.add_argument("--network", required=True)
    land.add_argument("--data", required=True)
    land.add_argument("--loss", choices=["hinge", "absolute"], default="hinge")
    land.add_argument("--out", required=True, help="JSON report path")
    land.add_argument("--eigs-csv", help="eigenvalue CSV path (default derived from --out)")
    land.set_defaults(func=_cmd_landscape)

    contract = commands.add_parser("contract", parents=[common],
                                    help="divergence contraction through kernels")
    contract.add_argument("--model", required=True, help="JSON with p, q and kernels")
    contract.add_argument("--out", required=True, help="JSON report path")
    contract.add_argument("--csv", help="optional stage,divergence CSV path")
    contract.set_defaults(func=_cmd_contract)

    decompose = commands.add_parser("decompose", parents=[common],
                                     help="exact likelihood decomposition")
    decompose.add_argument("--model", required=True, help="layered discrete model JSON")
    decompose.add_argument("--out", required=True, help="JSON report path")
    decompose.add_argument("--csv", help="optional stage,divergence CSV path")
    decompose.set_defaults(func=_cmd_decompose)
    return parser


def _resolve_threads(args):
    if args.threads is None:
        # --threads is checked by its parser; only the environment fallback is checked here.
        text = os.environ.get("SPECTRAL_THREADS", "1")
        try:
            args.threads = int(text)
        except ValueError:
            args.threads = 0
        if args.threads <= 0:
            raise DomainError(f"SPECTRAL_THREADS must be a positive integer, got {text!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_threads(args)
        return args.func(args)
    except NumericError as exc:
        print(f"dysonnet: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DysonnetError, FileNotFoundError, IsADirectoryError, PermissionError,
            ValueError) as exc:
        print(f"dysonnet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
