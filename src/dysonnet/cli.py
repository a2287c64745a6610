"""Command-line front end.

Subcommands: ``mde solve``, ``esd sample``, ``hessian``, ``landscape``,
``contract`` and ``decompose``.  Every run owns a 64-bit seed feeding one
counter-based generator; Monte Carlo trials draw from per-trial children
of that seed and results merge in trial order, so outputs are
byte-identical across reruns and across worker counts.  Imported before
numpy, the module fixes the BLAS pool to one thread, so they do not
depend on the host's core count either; imported after, it leaves the
caller's setting alone.  Every CSV starts
with a ``# seed=... tool-version=...`` comment and floats are written
with 17 significant digits for lossless round-trip.

Exit codes: 0 success, 2 validation failure or a path that cannot be read
or written (the message names it), or an output on the path of an input
or of another output, 3 numeric failure: non-convergence (the message
carries the final residual), a failed eigensolve (the message names the
matrix) or a report that would hold a non-finite number.

Each subcommand imports the modules it runs when it runs, so an
invocation loads and compiles only those: ``decompose`` loads ``kernels``
and ``infogeo``; ``mde solve``, isotropic or empirical, loads ``rmt``
alone; ``landscape`` and ``hessian`` load ``kernels``, ``poset``, ``net``
and ``hessian``; ``esd sample --ensemble wigner`` loads ``esd`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

if "numpy" not in sys.modules:
    # one BLAS thread, which the pool reads when numpy loads: a BLAS pool
    # sized by the host's cores would change the outputs' last digits
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))
import numpy as np  # noqa: E402

from . import __version__
from .errors import (DomainError, DysonnetError, NumericError, check_dense_budget, json_floats,
                     read_json, reading, solving)


@contextmanager
def _writing(path):
    """The text file ``path``, open for writing; any ``OSError`` names ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, seed, header, rows):
    """Write the seed comment, ``header`` and the 2-D float array ``rows``, one line a row.

    Each cell is written with 17 significant digits, formatted a row at a
    time from its Python floats; an integer below 10**17 held as a float,
    such as an index column, reads as that integer.
    """
    with _writing(path) as handle:
        handle.write(f"# seed={seed} tool-version={__version__}\n")
        handle.write(",".join(header) + "\n")
        for row in np.asarray(rows):
            handle.write(",".join([format(v, ".17g") for v in row.tolist()]) + "\n")


def _write_json(path, seed, payload):
    """Write the seed, the tool version and ``payload`` as standard JSON, sorted by key.

    The document is formed before ``path`` is opened: a non-finite number,
    which standard JSON cannot hold, is refused with :class:`NumericError`
    and nothing is written.
    """
    doc = {"seed": int(seed), "tool_version": __version__}
    doc.update(payload)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"the report for {path} holds a non-finite number: {exc}") from None
    with _writing(path) as handle:
        handle.write(text + "\n")


def _refuse_overwrite(args):
    """Refuse an output on the path of an input or of another output, before anything is read.

    The outputs are ``--out``, ``--csv`` and ``--eigs-csv``; a
    ``landscape`` run given no ``--eigs-csv`` has it set here to the
    ``<out>_eigs.csv`` it writes.  The inputs are ``--problem``,
    ``--network``, ``--data`` and ``--model``.
    """
    if args.command == "landscape" and not args.eigs_csv:
        args.eigs_csv = os.path.splitext(args.out)[0] + "_eigs.csv"

    def given(*flags):
        return [(flag, path) for flag in flags
                if (path := getattr(args, flag[2:].replace("-", "_"), None))]

    outputs = given("--out", "--csv", "--eigs-csv")
    inputs = given("--problem", "--network", "--data", "--model")
    for i, (flag, path) in enumerate(outputs):
        for other_flag, other in outputs[i + 1:] + inputs:
            if os.path.realpath(path) == os.path.realpath(other):
                raise DomainError(f"{flag} and {other_flag} name the same file {other}")


def _positive(kind, name):
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"{name} must be positive and finite ({kind.__name__}), got {text!r}")
        return value

    return parse


def _seed(text):
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"--seed must be an integer in [0, 2**64), got {text!r}")
    return value


def _cmd_mde_solve(args):
    from .rmt import load_problem_json, solve_mde, stieltjes_invert

    for name, value in (("--emin", args.emin), ("--emax", args.emax)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if args.emin >= args.emax:
        raise DomainError(f"--emin {args.emin} must be below --emax {args.emax}")
    check_dense_budget(3 * args.points, f"the energy grid of --points {args.points},"
                       " real and complex (3 entries a point)")
    grid = np.linspace(args.emin, args.emax, args.points)
    problem = load_problem_json(args.problem, args.eta, grid)
    solution = solve_mde(problem, tol=args.tol, max_iter=args.max_iter)
    density = stieltjes_invert(solution, grid, args.eta)
    _write_csv(args.out, args.seed, ["E", "rho"], np.column_stack([density.grid, density.density]))
    return 0


def _trial_generators(seed, trials):
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(trials)]


def _cmd_esd_sample(args):
    from concurrent.futures import ThreadPoolExecutor

    from .esd import _hessian_widths, _trial_entries, sample_centered_hessians, sample_wigner

    _resolve_threads(args)
    # what the trials that run at once hold, then what the trials gather,
    # refused before the pool starts
    held, eigs_per_trial = _trial_entries(args.ensemble, args.n, args.samples)
    what = f"esd sample --ensemble {args.ensemble} --n {args.n}"
    if args.ensemble == "centered-hessian":
        what += (f" --samples {args.samples} ({args.samples} Hessians of"
                 f" P={eigs_per_trial // args.samples} parameters)")
    at_once = min(args.threads, args.trials)
    check_dense_budget(at_once * held,
                       f"{at_once} trial{'s' if at_once > 1 else ''} at once of {what}")
    # the pool's list, its array, the two index arrays and the 3-column CSV stack
    check_dense_budget(
        7 * args.trials * eigs_per_trial,
        f"esd sample --trials {args.trials}, gathering {args.trials} trials of"
        f" {eigs_per_trial} eigenvalues (7 entries each)",
    )
    generators = _trial_generators(args.seed, args.trials)

    def one_trial(index):
        if args.ensemble == "wigner":
            with solving(f"the Wigner matrix of trial {index}"):
                return np.linalg.eigvalsh(sample_wigner(args.n, generators[index]))
        mats = sample_centered_hessians(_hessian_widths(args.n), args.samples, generators[index])
        with solving(f"a centred Hessian of trial {index}"):
            return np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in mats]))

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        eigs = np.array(list(pool.map(one_trial, range(args.trials))))
    trial, index = np.indices(eigs.shape)
    _write_csv(args.out, args.seed, ["trial", "index", "lambda"],
               np.column_stack([trial.ravel(), index.ravel(), eigs.ravel()]))
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
    from .hessian import landscape_report
    from .net import LossL0, load_dataset_csv, network_from_chain_json

    params = network_from_chain_json(args.network)
    dataset = load_dataset_csv(args.data)
    report = landscape_report(params, LossL0(args.loss), dataset)
    _write_csv(args.eigs_csv, args.seed, ["index", "lambda"],
               np.column_stack([np.arange(report.eigs.size), report.eigs]))
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
            "eigs_csv_path": args.eigs_csv,
        },
    )
    return 0


def _cmd_contract(args):
    from .infogeo import contraction_check

    doc = read_json(args.model)
    with reading("malformed contraction document"):
        p = json_floats(doc["p"], "p")
        q = json_floats(doc["q"], "q")
        kernels = [json_floats(k, f"kernel {i}") for i, k in enumerate(doc["kernels"])]
    stages = contraction_check(p, q, kernels)
    increases = np.diff(stages)
    if args.csv:
        _write_csv(args.csv, args.seed, ["stage", "divergence"],
                   np.column_stack([np.arange(len(stages)), stages]))
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
    from .infogeo import LayeredDiscreteModel, decompose_likelihood
    from .kernels import kernel_from_entry

    doc = read_json(args.model)
    with reading("malformed model document"):
        support = json_floats(doc["x_support"], "x_support")
        data = json_floats(doc["x_pmf"], "x_pmf")
        nu = [json_floats(v, f"nu[{i}]") for i, v in enumerate(doc["nu"])]
        scale_entries = doc["scales"]
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
        _write_csv(args.csv, args.seed, ["stage", "divergence"],
                   np.column_stack([np.arange(len(report.kl_terms)), report.kl_terms]))
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
    parser.add_argument("--seed", type=_seed, default=0, help="64-bit run seed (default 0)")
    parser.add_argument("--threads", type=_positive(int, "--threads"), default=None,
                        help="worker-pool size; defaults to SPECTRAL_THREADS or 1")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
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
    """Set ``args.threads`` to ``--threads``, else ``SPECTRAL_THREADS``, else 1.

    Only ``esd sample``, the one command with a worker pool, calls it.
    """
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
        _refuse_overwrite(args)
        return args.func(args)
    except NumericError as exc:
        print(f"dysonnet: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DysonnetError, OSError, ValueError) as exc:
        print(f"dysonnet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
