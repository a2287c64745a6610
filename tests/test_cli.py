"""Subcommand behavior, exit codes, output formats and determinism."""

import concurrent.futures.thread  # esd sample's pool, imported before its peak is traced
import contextlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import numpy.random  # esd sample's generators, imported before its peak is traced
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dysonnet
from dysonnet import __version__, errors, esd, hessian, rmt
from dysonnet.cli import _write_csv, _write_json, main
from dysonnet.kernels import ActivationRule
from dysonnet.net import Dataset, NetworkParams, network_to_chain_json, save_dataset_csv
from oracles import budget_peak


def run_cli(*args):
    return main([str(a) for a in args])


def write_wigner_problem(path, n=8):
    path.write_text(json.dumps({
        "A": [[0.0] * n for _ in range(n)],
        "S": {"kind": "isotropic", "c": 1.0},
    }))


def write_tiny_net(path):
    params = NetworkParams((np.array([[0.3]]),), np.array([0.5]),
                           ActivationRule.ARGMAX_MASK_01)
    path.write_text(json.dumps(network_to_chain_json(params)))


def failing_eigensolve(matrix):
    raise np.linalg.LinAlgError("did not converge")


@pytest.fixture
def workdir(tmp_path):
    return write_inputs(tmp_path)


def write_inputs(tmp_path):
    write_wigner_problem(tmp_path / "wigner.json")
    write_tiny_net(tmp_path / "net.json")
    save_dataset_csv(tmp_path / "data.csv", Dataset(np.array([[1.0]]), np.array([1.0])))
    (tmp_path / "contract.json").write_text(json.dumps({
        "p": [0.3, 0.2, 0.5],
        "q": [0.25, 0.5, 0.25],
        "kernels": [[[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]]],
    }))
    (tmp_path / "model.json").write_text(json.dumps({
        "x_support": [[1.0]],
        "x_pmf": [1.0],
        "scales": [{"rows": 1, "cols": 1, "field": "01",
                    "weights": [float(np.log(0.25))]}],
        "nu": [[0.5, 0.5]],
    }))
    return tmp_path


class TestSubcommands:
    def test_mde_solve_density(self, workdir):
        out = workdir / "density.csv"
        rc = run_cli("mde", "solve", "--problem", workdir / "wigner.json",
                     "--emin", -3, "--emax", 3, "--points", 121,
                     "--eta", 1e-3, "--out", out)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# seed=0 tool-version={__version__}"
        assert lines[1] == "E,rho"
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        center = data[np.argmin(np.abs(data[:, 0])), 1]
        assert center == pytest.approx(1 / np.pi, abs=2e-3)

    def test_negative_scientific_emin_joined_to_its_flag(self, workdir):
        # argparse reads a separate "-1e1" as an option, so the value is
        # joined to its flag
        out = workdir / "density.csv"
        rc = run_cli("mde", "solve", "--problem", workdir / "wigner.json",
                     "--emin=-1e1", "--emax", 10, "--points", 5, "--out", out)
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        assert data[:, 0].tolist() == [-10.0, -5.0, 0.0, 5.0, 10.0]

    def test_esd_sample(self, workdir):
        out = workdir / "esd.csv"
        rc = run_cli("--seed", 42, "esd", "sample", "--ensemble", "wigner",
                     "--n", 30, "--trials", 2, "--out", out)
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        assert data.shape == (60, 3)
        assert set(data[:, 0]) == {0.0, 1.0}

    def test_esd_centered_hessian(self, workdir):
        out = workdir / "esd_h.csv"
        rc = run_cli("--seed", 7, "esd", "sample", "--ensemble", "centered-hessian",
                     "--n", 40, "--trials", 1, "--samples", 3, "--out", out)
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        assert data.shape[1] == 3

    def test_hessian_matrix(self, workdir):
        out = workdir / "hessian.csv"
        rc = run_cli("hessian", "--network", workdir / "net.json",
                     "--data", workdir / "data.csv", "--out", out)
        assert rc == 0
        full = np.loadtxt(out, delimiter=",", skiprows=2)
        assert np.array_equal(full, [[0.0, -1.0], [-1.0, 0.0]])

    def test_landscape_report(self, workdir):
        out = workdir / "report.json"
        rc = run_cli("landscape", "--network", workdir / "net.json",
                     "--data", workdir / "data.csv", "--out", out,
                     "--eigs-csv", workdir / "eigs.csv")
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ("risk", "op_norm", "bound", "neg_fraction", "eigs_csv_path"):
            assert key in report
        assert report["op_norm"] == 1.0
        assert report["neg_fraction"] == 0.5
        eigs = np.loadtxt(workdir / "eigs.csv", delimiter=",", skiprows=2)
        assert np.array_equal(eigs, [[0, -1.0], [1, 1.0]])

    def test_contract(self, workdir):
        out = workdir / "contract_report.json"
        csv = workdir / "stages.csv"
        rc = run_cli("contract", "--model", workdir / "contract.json",
                     "--out", out, "--csv", csv)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["monotone"] is True
        assert len(report["stages"]) == 2
        lines = csv.read_text().splitlines()
        assert lines[1] == "stage,divergence"

    def test_decompose(self, workdir):
        out = workdir / "decompose_report.json"
        rc = run_cli("decompose", "--model", workdir / "model.json", "--out", out)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kl_terms"][0] == pytest.approx(0.22314355, abs=1e-6)
        assert report["identity_defect"] <= 1e-10


class TestExitCodes:
    def test_missing_input_file(self, workdir, capsys):
        rc = run_cli("mde", "solve", "--problem", workdir / "absent.json",
                     "--out", workdir / "x.csv")
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "dysonnet.cli", "mde", "solve", "--bogus", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_nonconvergence_exits_3(self, workdir, capsys):
        rc = run_cli("mde", "solve", "--problem", workdir / "wigner.json",
                     "--points", 3, "--eta", 1e-4, "--max-iter", 2,
                     "--out", workdir / "x.csv")
        assert rc == 3
        assert "residual" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, other",
        [
            (["landscape", "--network", "net.json", "--data", "data.csv"], "--eigs-csv"),
            (["contract", "--model", "contract.json"], "--csv"),
            (["decompose", "--model", "model.json"], "--csv"),
        ],
        ids=["landscape", "contract", "decompose"],
    )
    def test_two_outputs_on_one_path_refused(self, workdir, capsys, command, other):
        # the second write would replace the first; refused before any output
        inputs = [workdir / a if a.endswith((".json", ".csv")) else a for a in command]
        out = workdir / "same.out"
        rc = run_cli(*inputs, "--out", out, other, workdir / "." / "same.out")
        assert rc == 2
        assert f"--out and {other} name the same file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, input_flag",
        [
            (["landscape", "--network", "net.json", "--data", "data.csv", "--out", "net.json"],
             "--out", "--network"),
            (["landscape", "--network", "net.json", "--data", "d_eigs.csv", "--out", "d.json"],
             "--eigs-csv", "--data"),
            (["decompose", "--model", "model.json", "--out", "r.json", "--csv", "model.json"],
             "--csv", "--model"),
        ],
        ids=["landscape-out", "landscape-derived-eigs-csv", "decompose-csv"],
    )
    def test_output_on_an_input_refused(self, workdir, capsys, monkeypatch, command, flag,
                                        input_flag):
        # the write would replace the input; refused before anything is read
        monkeypatch.chdir(workdir)
        (workdir / "d_eigs.csv").write_bytes((workdir / "data.csv").read_bytes())
        name = command[command.index(input_flag) + 1]
        before = (workdir / name).read_bytes()
        rc = run_cli(*command)
        assert rc == 2
        assert f"{flag} and {input_flag} name the same file {name}" in capsys.readouterr().err
        assert (workdir / name).read_bytes() == before

    def test_contract_with_an_infinite_divergence_refused(self, workdir, capsys):
        # q is 0 where p is positive: KL(p || q) is infinite, which standard
        # JSON cannot hold; refused before either output is written
        (workdir / "stranded.json").write_text(json.dumps(
            {"p": [0.5, 0.5], "q": [1.0, 0.0], "kernels": [[[1.0, 0.0], [0.0, 1.0]]]}))
        out, csv = workdir / "stranded_report.json", workdir / "stranded.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("contract", "--model", workdir / "stranded.json", "--out", out,
                         "--csv", csv)
        assert rc == 2
        assert "q is 0 at index 1, where p is positive" in capsys.readouterr().err
        assert not out.exists() and not csv.exists()

    def test_non_finite_report_refused_before_writing(self, workdir):
        out = workdir / "report.json"
        with pytest.raises(errors.NumericError, match="holds a non-finite number"):
            _write_json(out, 0, {"value": float("nan")})
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--ensemble", "wigner"], "the Wigner matrix of trial 0"),
         (["--ensemble", "centered-hessian", "--samples", 2], "a centred Hessian of trial 0")],
        ids=["wigner", "centered-hessian"],
    )
    def test_esd_sample_eigensolver_failure_exits_3(self, workdir, capsys, monkeypatch, flags,
                                                    named):
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigensolve)
        rc = run_cli("esd", "sample", *flags, "--n", 12, "--trials", 2,
                     "--out", workdir / "esd.csv")
        assert rc == 3
        assert (f"eigendecomposition of {named} failed: did not converge"
                in capsys.readouterr().err)
        assert not (workdir / "esd.csv").exists()

    def test_dense_mde_eigensolver_failure_exits_3(self, workdir, capsys, monkeypatch):
        # the dense path's positivity check eigensolves Im M
        samples = np.random.default_rng(3).standard_normal((3, 2, 2))
        np.save(workdir / "s.npy", samples + samples.transpose(0, 2, 1))
        (workdir / "p.json").write_text(json.dumps(
            {"A": [[0.0, 0.0], [0.0, 0.0]], "S": {"kind": "empirical", "samples": "s.npy"}}))
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigensolve)
        rc = run_cli("mde", "solve", "--problem", workdir / "p.json", "--points", 3,
                     "--out", workdir / "rho.csv")
        assert rc == 3
        assert "eigendecomposition of Im M failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, path",
        [("--out", "afile/x.csv"), ("--problem", "afile/p.json"), ("--out", "a" * 300 + ".csv")],
        ids=["out-under-a-file", "problem-under-a-file", "name-too-long"],
    )
    def test_path_error_exits_2_naming_the_path(self, workdir, capsys, monkeypatch, flag, path):
        monkeypatch.chdir(workdir)
        (workdir / "afile").write_text("")
        paths = {"--problem": "wigner.json", "--out": "x.csv", flag: path}
        rc = run_cli("mde", "solve", "--points", 3, *[a for pair in paths.items() for a in pair])
        assert rc == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b'{"p": ' + b"[" * 100_000, b"\xff{}", b"1" * 200_000],
        ids=["nested-100000-deep", "not-utf-8", "200000-character-field"],
    )
    @pytest.mark.parametrize(
        "command, flag",
        [(["contract", "--out", "out.json"], "--model"),
         (["decompose", "--out", "out.json"], "--model"),
         (["mde", "solve", "--out", "out.csv"], "--problem"),
         (["landscape", "--data", "data.csv", "--out", "out.json"], "--network"),
         (["landscape", "--network", "net.json", "--out", "out.json"], "--data")],
        ids=["contract", "decompose", "mde-solve", "network", "dataset-csv"],
    )
    def test_unreadable_input_exits_2_naming_it(self, workdir, capsys, monkeypatch, command,
                                                flag, content):
        monkeypatch.chdir(workdir)
        (workdir / "unreadable.in").write_bytes(content)
        rc = run_cli(*command, flag, "unreadable.in")
        assert rc == 2
        assert "unreadable.in" in capsys.readouterr().err
        assert not (workdir / command[-1]).exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize(
        "command",
        [["contract", "--model", "contract.json"],
         ["esd", "sample", "--ensemble", "wigner", "--n", 4, "--trials", 1]],
        ids=["json", "csv"],
    )
    def test_failed_write_exits_2_naming_the_path(self, workdir, capsys, monkeypatch, command):
        monkeypatch.chdir(workdir)
        rc = run_cli(*command, "--out", "/dev/full")
        assert rc == 2
        assert "cannot write /dev/full: No space left on device" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag, kind",
        [(["--threads", "abc", "mde", "solve"], "--threads", "int"),
         (["mde", "solve", "--points", "x"], "--points", "int"),
         (["mde", "solve", "--points", "1.5"], "--points", "int"),
         (["mde", "solve", "--eta", "e"], "--eta", "float")],
        ids=["threads", "points", "fractional-points", "eta"],
    )
    def test_non_numeric_flag_value_names_the_flag(self, workdir, capsys, args, flag, kind):
        out = workdir / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--problem", workdir / "wigner.json", "--out", out)
        assert exc.value.code == 2
        value = args[args.index(flag) + 1]
        assert (f"argument {flag}: {flag} must be positive and finite ({kind}), got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_invalid_model_document(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"p": [0.5, 0.5]}))
        rc = run_cli("contract", "--model", workdir / "bad.json",
                     "--out", workdir / "r.json")
        assert rc == 2

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"scales": 5}, "scales"),
            ({"scales": [], "nu": []}, "scales"),
            ({"scales": [{"rows": 1, "cols": 2, "weights": [1.0]}]}, "scale entry 0"),
            ({"x_support": [[float("nan")]]}, "x_support"),
            ({"x_pmf": [float("nan")]}, "data has non-finite entries"),
        ],
        ids=["scales-not-a-list", "no-scales", "short-weights", "nan-support", "nan-pmf"],
    )
    def test_invalid_decompose_document(self, workdir, capsys, change, named):
        doc = json.loads((workdir / "model.json").read_text())
        doc.update(change)
        (workdir / "bad.json").write_text(json.dumps(doc))
        rc = run_cli("decompose", "--model", workdir / "bad.json",
                     "--out", workdir / "r.json")
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, flags, named",
        [
            ({"A": [[float("nan"), 0.0], [0.0, 0.0]]}, [], "A has non-finite entries"),
            ({"A": [[0.0, 0.0], [0.0, float("inf")]]}, [], "A has non-finite entries"),
            ({}, ["--emin", "nan"], "--emin must be finite"),
            ({}, ["--emax", "inf"], "--emax must be finite"),
            ({}, ["--eta", "nan"], "--eta must be positive and finite"),
            ({"S": {"kind": "isotropic", "c": -1.0}}, [], "isotropic self-energy c"),
            ({"S": {"kind": "wigner", "sigma2": -2.0}}, [], "wigner self-energy sigma2"),
            ({"S": {"kind": "isotropic", "c": None}}, [], "self-energy c must be a number"),
            ({"S": {"kind": "wigner", "sigma2": [1.0]}}, [],
             "self-energy sigma2 must be a number"),
            ({"A": [[10 ** 400]]}, [], "malformed problem document"),
            ({"S": {"kind": "isotropic", "c": 10 ** 400}}, [], "self-energy c must be a number"),
            ({"S": {"kind": "isotropic", "c": "2"}}, [], "self-energy c must be a number"),
            ({"S": {"kind": "isotropic", "c": True}}, [], "self-energy c must be a number"),
            ({"A": [["0"]]}, [], "expectation matrix A entries must be numbers"),
            ({"S": {"kind": "empirical", "samples": "sym4.npy"}}, [],
             "self-energy acts on 4x4 matrices but the expectation matrix A is 2x2"),
            ({"A": [[0.0] * 4] * 4, "S": {"kind": "empirical", "samples": "skew4.npy"}}, [],
             "empirical sample 1 is not symmetric"),
            ({"A": [[0.0] * 4] * 4, "S": {"kind": "empirical", "samples": "nan4.npy"}}, [],
             "empirical sample 2 has non-finite entries"),
        ],
        ids=["nan-a", "inf-a", "nan-emin", "inf-emax", "nan-eta", "negative-c",
             "negative-sigma2", "null-c", "list-sigma2", "huge-int-a", "huge-int-c",
             "string-c", "bool-c", "string-a",
             "samples-size-mismatch",
             "skew-samples", "nan-samples"],
    )
    def test_invalid_mde_problem(self, workdir, capsys, problem, flags, named):
        rng = np.random.default_rng(53)
        g = rng.standard_normal((3, 4, 4))
        sym = g + g.transpose(0, 2, 1)
        np.save(workdir / "sym4.npy", sym)
        skew = sym.copy()
        skew[1, 0, 3] += 1e-3
        np.save(workdir / "skew4.npy", skew)
        sym[2, 1, 1] = np.nan
        np.save(workdir / "nan4.npy", sym)
        doc = {"A": [[0.0, 0.0], [0.0, 0.0]], "S": {"kind": "isotropic", "c": 1.0}}
        doc.update(problem)
        if "samples" in doc["S"]:
            doc["S"] = {**doc["S"], "samples": str(workdir / doc["S"]["samples"])}
        (workdir / "bad.json").write_text(json.dumps(doc))
        out = workdir / "x.csv"
        try:
            rc = run_cli("mde", "solve", "--problem", workdir / "bad.json", "--points", 5,
                         *flags, "--out", out)
        except SystemExit as exc:  # argparse rejects a flag value
            rc = exc.code
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, target, value, named",
        [
            ("landscape", "data", float("nan"), "dataset sample 0 has non-finite inputs"),
            ("hessian", "data", float("inf"), "dataset sample 0 has non-finite inputs"),
            ("landscape", "network", float("nan"), "layer entry for node '1'"),
            ("decompose", "model", float("inf"), "scale entry 0"),
        ],
        ids=["landscape-nan-data", "hessian-inf-data", "landscape-nan-weight",
             "decompose-inf-weight"],
    )
    def test_nonfinite_file_inputs(self, workdir, capsys, command, target, value, named):
        if target == "data":
            (workdir / "data.csv").write_text(f"x1,y\n{value},1\n")
        elif target == "network":
            doc = json.loads((workdir / "net.json").read_text())
            doc["layers"]["1"]["weights"] = [value]
            (workdir / "net.json").write_text(json.dumps(doc))
        else:
            doc = json.loads((workdir / "model.json").read_text())
            doc["scales"][0]["weights"] = [value]
            (workdir / "model.json").write_text(json.dumps(doc))
        inputs = (["--model", workdir / "model.json"] if command == "decompose" else
                  ["--network", workdir / "net.json", "--data", workdir / "data.csv"])
        rc = run_cli(command, *inputs, "--out", workdir / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["landscape", "hessian", "decompose"])
    @pytest.mark.parametrize(
        "shape, named",
        [
            ({"rows": -1, "weights": [-1.386]}, "rows must be a positive integer, got -1"),
            ({"cols": 0, "weights": []}, "cols must be a positive integer, got 0"),
            ({"cols": 1.7}, "cols must be a positive integer, got 1.7"),
            ({"rows": True}, "rows must be a positive integer, got True"),
        ],
        ids=["negative-rows", "zero-cols", "fractional-cols", "bool-rows"],
    )
    def test_impossible_kernel_shape(self, workdir, capsys, command, shape, named):
        if command == "decompose":
            path, entry = workdir / "model.json", "scale entry 0"
            doc = json.loads(path.read_text())
            doc["scales"][0].update(shape)
            inputs = ["--model", path]
        else:
            path, entry = workdir / "net.json", "layer entry for node '1'"
            doc = json.loads(path.read_text())
            doc["layers"]["1"].update(shape)
            inputs = ["--network", path, "--data", workdir / "data.csv"]
        path.write_text(json.dumps(doc))
        rc = run_cli(command, *inputs, "--out", workdir / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert f"malformed {entry}: {named}" in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("node", ["9", "0"], ids=["unknown-node", "input-node"])
    def test_layer_entry_without_a_layer_refused(self, workdir, capsys, node):
        # the criterion-12 chain 0 -> 1 -> 2, with one more layer entry for
        # a name that is not a node or for the input node
        doc = network_to_chain_json(NetworkParams((np.array([[0.3, -0.2], [0.1, 0.5]]),),
                                                  np.array([0.5, -1.0])))
        doc["layers"][node] = doc["layers"]["1"]
        (workdir / "extra.json").write_text(json.dumps(doc))
        save_dataset_csv(workdir / "data2.csv", Dataset(np.array([[1.0, 0.5], [-0.25, 2.0]]),
                                                        np.array([1.0, -1.0])))
        rc = run_cli("landscape", "--network", workdir / "extra.json",
                     "--data", workdir / "data2.csv", "--out", workdir / "out")
        assert rc == 2
        assert f"layer entry for node '{node}', which has no layer" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["hessian"])
    def test_dense_hessian_over_budget(self, workdir, capsys, command):
        # P = 50*50 + 50*50 + 50 = 5050 > 5000: refused before any block is built;
        # the count is P^2, the one sample's factors (7900) and the pair
        # (W_1, W_2)'s outer product, path copy and 2500 x 2500 GEMM output
        params = NetworkParams((np.zeros((50, 50)), np.zeros((50, 50))), np.zeros(50))
        (workdir / "big.json").write_text(json.dumps(network_to_chain_json(params)))
        save_dataset_csv(workdir / "big.csv", Dataset(np.ones((1, 50)), np.array([1.0])))
        rc = run_cli(command, "--network", workdir / "big.json", "--data", workdir / "big.csv",
                     "--out", workdir / "out")
        assert rc == 2
        assert "a dense Hessian of P=5050 parameters needs 31765400 entries" in (
            capsys.readouterr().err)
        assert not (workdir / "out").exists()

    def test_landscape_range_core_over_budget(self, workdir, capsys):
        # w=72 (P = 10440) and 200 live samples: every group's sets reach
        # its dimension, so r = P and the r x r core is over the budget; it
        # is refused after the first pass, before the core is allocated.
        # The count adds to the core the factors of the one chunk of all m
        # samples and the pair (W_1, W_2)'s outer products, path copy and
        # w^4 GEMM output
        rng = np.random.default_rng(38)
        w, m = 72, 200
        params = NetworkParams(
            tuple(rng.standard_normal((w, w)) / np.sqrt(w) for _ in range(2)),
            rng.standard_normal(w) / np.sqrt(w),
        )
        (workdir / "wide.json").write_text(json.dumps(network_to_chain_json(params)))
        save_dataset_csv(workdir / "wide.csv",
                         Dataset(rng.standard_normal((m, w)), rng.choice([-1.0, 1.0], size=m)))
        r = 2 * w * w + w
        needed = r * r + m * (8 * w + 3 * w * w) + m * 2 * w * w + w ** 4
        tracemalloc.start()
        try:
            rc = run_cli("landscape", "--network", workdir / "wide.json",
                         "--data", workdir / "wide.csv", "--out", workdir / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert (f"the range core of r={r} of P={r} parameters, with its bases and sums,"
                f" needs {needed} entries") in capsys.readouterr().err
        assert not (workdir / "out").exists()
        assert peak < 8 * r * r / 20

    @pytest.mark.parametrize("command", ["landscape", "hessian"])
    def test_smooth_rule_chain_refused(self, workdir, capsys, command):
        params = NetworkParams((np.array([[0.3, -0.2]]), np.array([[1.0], [2.0]])),
                               np.array([0.5]), ActivationRule.EXPECTATION_MASK_01)
        (workdir / "swish.json").write_text(json.dumps(network_to_chain_json(params)))
        rc = run_cli(command, "--network", workdir / "swish.json", "--data", workdir / "data.csv",
                     "--out", workdir / "out")
        assert rc == 2
        assert "the exact Hessian needs relu layers; the network uses 'swish'" in (
            capsys.readouterr().err)
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--ensemble", "centered-hessian", "--n", 4000, "--samples", 16],
             "esd sample --ensemble centered-hessian --n 4000 --samples 16"
             " (16 Hessians of P=4144 parameters) needs 53403765 entries"),
            (["--ensemble", "wigner", "--n", 6000],
             "esd sample --ensemble wigner --n 6000 needs 72000000 entries"),
        ],
        ids=["centered-hessian", "wigner"],
    )
    def test_esd_sample_over_budget(self, workdir, capsys, monkeypatch, flags, named):
        # refused before the trial pool starts: no sampler runs, nothing is allocated
        def sampler_started(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(esd, "sample_wigner", sampler_started)
        monkeypatch.setattr(esd, "sample_centered_hessians", sampler_started)
        tracemalloc.start()
        try:
            rc = run_cli("esd", "sample", *flags, "--trials", 1, "--out", workdir / "esd.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert named in capsys.readouterr().err
        assert peak < 1 << 20
        assert not (workdir / "esd.csv").exists()

    @pytest.mark.parametrize(
        "flags, budget, named",
        [
            (["--ensemble", "wigner", "--n", 10, "--trials", 5], 300,
             "esd sample --trials 5, gathering 5 trials of 10 eigenvalues (7 entries each)"
             " needs 350 entries"),
            (["--ensemble", "centered-hessian", "--n", 4, "--samples", 3, "--trials", 3], 700,
             "esd sample --trials 3, gathering 3 trials of 42 eigenvalues (7 entries each)"
             " needs 882 entries"),
        ],
        ids=["wigner", "centered-hessian"],
    )
    def test_esd_sample_gather_over_budget(self, workdir, capsys, monkeypatch, flags, budget,
                                           named):
        # one trial fits (2 * 10 * 10, and 3 * 14 * 14 + 72 = 660 entries for
        # P = 14); what the trials gather does not, and is refused before the
        # pool starts
        def sampler_started(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(errors, "MAX_DENSE_ENTRIES", budget)
        monkeypatch.setattr(esd, "sample_wigner", sampler_started)
        monkeypatch.setattr(esd, "sample_centered_hessians", sampler_started)
        rc = run_cli("esd", "sample", *flags, "--out", workdir / "esd.csv")
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (workdir / "esd.csv").exists()

    def test_energy_grid_over_budget(self, workdir, capsys, monkeypatch):
        def loaded(*args):
            raise AssertionError("the problem was loaded")

        monkeypatch.setattr(errors, "MAX_DENSE_ENTRIES", 100)
        monkeypatch.setattr(rmt, "load_problem_json", loaded)
        rc = run_cli("mde", "solve", "--problem", workdir / "wigner.json", "--points", 40,
                     "--out", workdir / "rho.csv")
        assert rc == 2
        assert ("the energy grid of --points 40, real and complex (3 entries a point)"
                " needs 120 entries") in capsys.readouterr().err
        assert not (workdir / "rho.csv").exists()

    @pytest.mark.parametrize("dtype", [complex, str, bool], ids=["complex", "string", "bool"])
    def test_empirical_samples_that_are_not_real_refused(self, workdir, capsys, dtype):
        g = np.random.default_rng(58).standard_normal((3, 2, 2))
        samples = (g + g.transpose(0, 2, 1)).astype(dtype)
        np.save(workdir / "s.npy", samples)
        (workdir / "p.json").write_text(json.dumps(
            {"A": [[0.0, 0.0], [0.0, 0.0]], "S": {"kind": "empirical", "samples": "s.npy"}}
        ))
        rc = run_cli("mde", "solve", "--problem", workdir / "p.json", "--points", 3,
                     "--out", workdir / "rho.csv")
        assert rc == 2
        assert (f"empirical samples must hold real numbers, got dtype {samples.dtype}"
                in capsys.readouterr().err)
        assert not (workdir / "rho.csv").exists()

    @pytest.mark.parametrize(
        "shape, points, named",
        [
            ((2, 60, 60), 3500, "the dense MDE solution of 3500 grid points of 60x60 complex"
             " matrices (2 entries each), and one point's 10 working matrices, needs 25272000"
             " entries"),
            ((26, 1000, 1000), 5, "empirical samples of shape (26, 1000, 1000)"
             " needs 26000000 entries"),
        ],
        ids=["solution", "samples"],
    )
    def test_empirical_mde_over_budget(self, workdir, capsys, shape, points, named):
        # the samples file is sparse: only its header is ever read when refused
        path = workdir / "samples.npy"
        with open(path, "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle, {"descr": "<f8", "fortran_order": False, "shape": shape}
            )
            handle.truncate(handle.tell() + 8 * int(np.prod(shape)))
        n = shape[1]
        (workdir / "p.json").write_text(json.dumps(
            {"A": np.zeros((n, n)).tolist(), "S": {"kind": "empirical", "samples": str(path)}}
        ))
        rc = run_cli("mde", "solve", "--problem", workdir / "p.json", "--points", points,
                     "--out", workdir / "rho.csv")
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (workdir / "rho.csv").exists()

    @pytest.mark.parametrize("row", ["1", "1,1,1"], ids=["short", "long"])
    def test_ragged_dataset_row(self, workdir, capsys, row):
        data = workdir / "data.csv"
        data.write_text(f"# comment\nx1,y\n0.5,1\n{row}\n")
        rc = run_cli("landscape", "--network", workdir / "net.json", "--data", data,
                     "--out", workdir / "out")
        assert rc == 2
        fields = row.count(",") + 1
        assert f"line 4 of {data} has {fields} fields, the header has 2" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["hessian", "landscape"])
    @pytest.mark.parametrize(
        "text, named",
        [
            ("# only a comment\n\n", "empty dataset file {data}"),
            ("x1,y\n0.5,1\nhalf,1\n",
             "non-numeric value in {data}: could not convert string to float: 'half'"),
            ("# comment\nx1,y\n", "dataset file {data} has a header but no rows"),
        ],
        ids=["empty", "non-numeric", "header-only"],
    )
    def test_unusable_dataset_refused(self, workdir, capsys, command, text, named):
        data = workdir / "bad.csv"
        data.write_text(text)
        rc = run_cli(command, "--network", workdir / "net.json", "--data", data,
                     "--out", workdir / "out")
        assert rc == 2
        assert named.format(data=data) in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["hessian", "landscape"])
    @pytest.mark.parametrize(
        "change, named",
        [
            ("input-only", "chain must contain at least one layer above the input"),
            ("no-entry", "chain nodes ['2'] have no layer entry"),
            ("mixed-rules", "layers must share one activation rule, found ['relu', 'swish']"),
        ],
        ids=["input-only", "no-entry", "mixed-rules"],
    )
    def test_unusable_chain_refused(self, workdir, capsys, command, change, named):
        # the chain 0 -> 1 -> 2 -> 3 of two 1 x 1 relu layers and the output vector
        doc = network_to_chain_json(NetworkParams((np.array([[0.3]]), np.array([[0.7]])),
                                                  np.array([0.5])))
        if change == "input-only":
            doc = {"nodes": ["0"], "edges": [], "layers": {}}
        elif change == "no-entry":
            del doc["layers"]["2"]
        else:
            doc["layers"]["2"]["rule"] = "swish"
        (workdir / "chain.json").write_text(json.dumps(doc))
        rc = run_cli(command, "--network", workdir / "chain.json", "--data", workdir / "data.csv",
                     "--out", workdir / "out")
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_invalid_knob_range(self, workdir, capsys):
        rc = run_cli("mde", "solve", "--problem", workdir / "wigner.json",
                     "--emin", 3, "--emax", -3, "--out", workdir / "x.csv")
        assert rc == 2


ENSEMBLES = ["wigner", "centered-hessian"]


class TestDeterminism:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_reruns_are_byte_identical(self, workdir, ensemble):
        a, b = workdir / "a.csv", workdir / "b.csv"
        for out in (a, b):
            assert run_cli("--seed", 11, "esd", "sample", "--ensemble", ensemble,
                           "--n", 25, "--trials", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_thread_counts_agree(self, workdir, ensemble):
        # a centred trial yields its samples to the worker thread that runs it
        a, b = workdir / "t1.csv", workdir / "t4.csv"
        assert run_cli("--seed", 11, "--threads", 1, "esd", "sample",
                       "--ensemble", ensemble, "--n", 25, "--trials", 4,
                       "--out", a) == 0
        assert run_cli("--seed", 11, "--threads", 4, "esd", "sample",
                       "--ensemble", ensemble, "--n", 25, "--trials", 4,
                       "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "before, after, seed",
        [([], [], 0), (["--seed", 3], [], 3), ([], ["--seed", 4], 4),
         (["--seed", 3], ["--seed", 4], 4)],
        ids=["neither", "before", "after", "both"],
    )
    def test_seed_before_or_after_the_subcommand(self, workdir, before, after, seed):
        out = workdir / "seed.csv"
        assert run_cli(*before, "esd", "sample", *after, "--ensemble", "wigner", "--n", 4,
                       "--trials", 1, "--out", out) == 0
        assert out.read_text().splitlines()[0] == f"# seed={seed} tool-version={__version__}"

    @pytest.mark.parametrize("value", [-1, 2 ** 64, "abc"], ids=["negative", "2**64", "text"])
    @pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
    def test_seed_outside_64_bits_refused(self, workdir, capsys, value, after):
        seed = ["--seed", value]
        out = workdir / "seed.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(*([] if after else seed), "esd", "sample", *(seed if after else []),
                    "--ensemble", "wigner", "--n", 4, "--trials", 1, "--out", out)
        assert exc.value.code == 2
        assert f"argument --seed: --seed must be an integer in [0, 2**64), got '{value}'" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
    def test_largest_64_bit_seed_accepted(self, workdir, after):
        seed = ["--seed", 2 ** 64 - 1]
        out = workdir / "seed.csv"
        assert run_cli(*([] if after else seed), "esd", "sample", *(seed if after else []),
                       "--ensemble", "wigner", "--n", 4, "--trials", 1, "--out", out) == 0
        assert out.read_text().splitlines()[0] == (
            f"# seed={2 ** 64 - 1} tool-version={__version__}")

    def test_env_var_thread_fallback(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "dysonnet.cli", "--seed", "5", "esd", "sample",
             "--ensemble", "wigner", "--n", "10", "--trials", "2",
             "--out", str(workdir / "env.csv")],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "SPECTRAL_THREADS": "2",
                 "PYTHONPATH": ":".join(sys.path), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_invalid_env_var_threads(self, workdir, capsys, monkeypatch, value):
        monkeypatch.setenv("SPECTRAL_THREADS", value)
        rc = run_cli("esd", "sample", "--ensemble", "wigner", "--n", 4, "--trials", 1,
                     "--out", workdir / "env.csv")
        assert rc == 2
        assert f"SPECTRAL_THREADS must be a positive integer, got {value!r}" in (
            capsys.readouterr().err)
        assert not (workdir / "env.csv").exists()

    def test_mde_wigner_random_a_byte_identical(self, workdir):
        rng = np.random.default_rng(54)
        g = rng.standard_normal((10, 10))
        (workdir / "random.json").write_text(json.dumps({
            "A": ((g + g.T) / np.sqrt(40.0)).tolist(),
            "S": {"kind": "wigner", "sigma2": 0.8},
        }))
        outputs = []
        for run in range(2):
            for threads in (1, 3):
                out = workdir / f"random_{run}_{threads}.csv"
                assert run_cli("--seed", 42, "--threads", threads, "mde", "solve",
                               "--problem", workdir / "random.json", "--points", 41,
                               "--eta", 1e-2, "--out", out) == 0
                outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:])

    def test_hessian_random_network_byte_identical(self, workdir):
        rng = np.random.default_rng(55)
        params = NetworkParams(
            (rng.standard_normal((4, 5)), rng.standard_normal((5, 3))), rng.standard_normal(3)
        )
        (workdir / "random_net.json").write_text(json.dumps(network_to_chain_json(params)))
        save_dataset_csv(workdir / "random_data.csv",
                         Dataset(rng.standard_normal((7, 4)), rng.choice([-1.0, 1.0], size=7)))
        outputs = []
        for run in range(2):
            for threads in (1, 3):
                out = workdir / f"hessian_{run}_{threads}.csv"
                assert run_cli("--threads", threads, "hessian",
                               "--network", workdir / "random_net.json",
                               "--data", workdir / "random_data.csv", "--out", out) == 0
                outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:])

    def test_csv_floats_round_trip(self, workdir):
        out = workdir / "density.csv"
        run_cli("mde", "solve", "--problem", workdir / "wigner.json",
                "--points", 21, "--eta", 1e-2, "--out", out)
        text = out.read_text().splitlines()[2:]
        values = [float(line.split(",")[1]) for line in text]
        rewritten = [format(v, ".17g") for v in values]
        assert [float(r) for r in rewritten] == values

    def test_csv_writer_matches_the_per_cell_formatter(self, workdir):
        def per_cell(value):  # the writer's formatter before rows were formatted whole
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return format(float(value), ".17g")

        def expected(rows):
            lines = ["# seed=7 tool-version=" + __version__, "a,b,c"]
            lines += [",".join(per_cell(v) for v in row) for row in rows]
            return ("\n".join(lines) + "\n").encode()

        floats = np.array([
            [0.1, -0.0, 5e-324],
            [1e300, -1e300, 2.2250738585072014e-308],
            [np.float64(1) / 3, np.inf, -np.inf],
            [np.nan, 123456789.0, -2.5e-310],
        ])
        singles = np.array([[0.1, -0.0, 1e-45], [3.4e38, np.nan, -np.inf]], dtype=np.float32)
        for name, rows in (("floats", floats), ("float32", singles),
                           ("float rows", list(floats))):
            out = workdir / f"{name}.csv"
            _write_csv(out, 7, ["a", "b", "c"], rows)
            assert out.read_bytes() == expected(rows), name


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dysonnet.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.strip() == "[]"


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _without_blas_variables(**extra):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    return {**env, "PYTHONPATH": os.pathsep.join(sys.path), **extra}


def test_package_import_leaves_the_blas_setting_to_its_caller():
    # `import dysonnet` loads no numpy, and the CLI module sets no BLAS
    # variable once numpy is loaded
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, dysonnet; print('numpy' in sys.modules); "
         "import numpy, dysonnet.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, check=True, env=_without_blas_variables(),
    )
    assert proc.stdout.split() == ["False", "None"]


def test_outputs_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # a w=18 relu chain on 20 samples, and centred Hessians of P = 310: sizes
    # at which two BLAS threads change eigvalsh's and GEMM's last digits
    rng = np.random.default_rng(12)
    widths = (18, 18, 18, 18)
    params = NetworkParams(tuple(rng.standard_normal((a, b)) / np.sqrt(a)
                                 for a, b in zip(widths, widths[1:])),
                           rng.standard_normal(18) / np.sqrt(18))
    (tmp_path / "net.json").write_text(json.dumps(network_to_chain_json(params)))
    save_dataset_csv(tmp_path / "data.csv",
                     Dataset(rng.standard_normal((20, 18)), rng.choice([-1.0, 1.0], 20)))
    runs = [["landscape", "--network", "net.json", "--data", "data.csv",
             "--out", "land.json", "--eigs-csv", "eigs.csv"],
            ["esd", "sample", "--ensemble", "centered-hessian", "--n", "300",
             "--samples", "4", "--trials", "2", "--out", "esd.csv"]]
    outputs = []
    for threads in (None, "1", "2"):
        env = _without_blas_variables(**dict.fromkeys(BLAS_VARIABLES if threads else (), threads))
        for args in runs:
            subprocess.run([sys.executable, "-m", "dysonnet.cli", *args], check=True,
                           cwd=tmp_path, env=env)
        outputs.append([(tmp_path / name).read_bytes()
                        for name in ("land.json", "eigs.csv", "esd.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


SUBCOMMANDS = {
    "decompose": ["decompose", "--model", "model.json", "--out", "report.json"],
    "landscape": ["landscape", "--network", "net.json", "--data", "data.csv",
                  "--out", "land.json"],
    "mde-solve-isotropic": ["mde", "solve", "--problem", "wigner.json", "--points", "5",
                            "--out", "rho.csv"],
    "mde-solve-empirical": ["mde", "solve", "--problem", "empirical.json", "--points", "5",
                            "--out", "rho.csv"],
    "esd-sample-wigner": ["esd", "sample", "--ensemble", "wigner", "--n", "4", "--trials", "1",
                          "--out", "e.csv"],
}


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The ``dysonnet`` modules each of ``SUBCOMMANDS`` loads, run in a fresh interpreter."""
    directory = write_inputs(tmp_path_factory.mktemp("loads"))
    samples = np.random.default_rng(9).standard_normal((3, 4, 4))
    np.save(directory / "samples4.npy", samples + samples.transpose(0, 2, 1))
    (directory / "empirical.json").write_text(json.dumps(
        {"A": np.eye(4).tolist(), "S": {"kind": "empirical", "samples": "samples4.npy"}}
    ))
    loaded = {}
    for name, args in SUBCOMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, dysonnet.cli; code = dysonnet.cli.main(sys.argv[1:]); "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dysonnet.')))); "
             "sys.exit(code)",
             *args],
            capture_output=True, text=True, cwd=directory,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded[name] = set(json.loads(proc.stdout))
    return loaded


@pytest.mark.parametrize(
    "name, unloaded",
    [
        ("decompose", ["poset", "net", "hessian", "rmt", "esd"]),
        ("landscape", ["infogeo", "rmt", "esd"]),
        ("mde-solve-isotropic", ["esd", "kernels", "poset", "infogeo", "net", "hessian"]),
        ("mde-solve-empirical", ["esd", "kernels", "poset", "infogeo", "net", "hessian"]),
        ("esd-sample-wigner", ["rmt", "kernels", "poset", "infogeo", "net", "hessian"]),
    ],
    ids=list(SUBCOMMANDS),
)
def test_subcommand_loads_only_the_modules_it_runs(loaded_modules, name, unloaded):
    assert "dysonnet.cli" in loaded_modules[name]
    # a module that does not exist is trivially not loaded
    assert [module for module in unloaded
            if importlib.util.find_spec(f"dysonnet.{module}") is None] == []
    assert not {f"dysonnet.{module}" for module in unloaded} & loaded_modules[name]


def test_subcommands_together_load_every_module(loaded_modules):
    # a module that no subcommand loads is reached by no CLI path
    every = {f"dysonnet.{info.name}" for info in pkgutil.iter_modules(dysonnet.__path__)}
    assert sorted(every - set().union(*loaded_modules.values())) == []


# The JSON reader also accepts NaN, infinities and integers too large for a
# float or an array dimension.
HOSTILE = st.sampled_from([10 ** 400, 2 ** 63, -1, 0, float("inf"), float("nan"),
                           None, True, "x", [], {}])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | HOSTILE,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _pmf(draw, size):
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=size, max_size=size))
    return [w / sum(weights) for w in weights]


def _mutated(draw, doc):
    """``doc`` as it is, with one entry replaced or deleted, or as any JSON value."""
    slots = []

    def collect(node):
        for key in (list(node) if isinstance(node, dict) else range(len(node))):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                collect(node[key])

    collect(doc)
    node, key = draw(st.sampled_from(slots))
    mutation = draw(st.sampled_from(["none", "hostile", "any", "delete", "document"]))
    if mutation == "hostile":
        node[key] = draw(HOSTILE)
    elif mutation == "any":
        node[key] = draw(JSON_VALUES)
    elif mutation == "delete":
        del node[key]
    elif mutation == "document":
        return draw(JSON_VALUES)
    return doc


@st.composite
def valid_decompose_documents(draw):
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    coords = st.floats(-3.0, 3.0)
    return {
        "x_support": [draw(st.lists(coords, min_size=dims[0], max_size=dims[0]))
                      for _ in range(n)],
        "x_pmf": _pmf(draw, n),
        "scales": [{"rows": a, "cols": b, "field": draw(st.sampled_from(["01", "pm1"])),
                    "weights": draw(st.lists(coords, min_size=a * b, max_size=a * b))}
                   for a, b in zip(dims, dims[1:])],
        "nu": [_pmf(draw, 2 ** b) for b in dims[1:]],
    }


@st.composite
def decompose_documents(draw):
    return _mutated(draw, draw(valid_decompose_documents()))


@st.composite
def valid_contract_documents(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return {
        "p": _pmf(draw, sizes[0]),
        "q": _pmf(draw, sizes[0]),
        "kernels": [[_pmf(draw, b) for _ in range(a)] for a, b in zip(sizes, sizes[1:])],
    }


@st.composite
def contract_documents(draw):
    return _mutated(draw, draw(valid_contract_documents()))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    # the files that problem and network documents name: sample stacks and a dataset
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        samples = rng.standard_normal((3, n, n))
        np.save(path / f"samples{n}.npy", samples + samples.transpose(0, 2, 1))
    save_dataset_csv(path / "data.csv",
                     Dataset(rng.standard_normal((4, 2)), np.array([1.0, -1.0, 1.0, -1.0])))
    return path


def exit_code_of(fuzz_dir, command, doc):
    (fuzz_dir / "doc.json").write_text(json.dumps(doc))
    return run_cli(command, "--model", fuzz_dir / "doc.json", "--out", fuzz_dir / "out.json")


@given(decompose_documents())
@example({"x_support": [[10 ** 400]], "x_pmf": [1.0], "nu": [[0.5, 0.5]],
          "scales": [{"rows": 1, "cols": 1, "weights": [0.0]}]})
@example({"x_support": [[1.0]], "x_pmf": [1.0], "nu": [[0.5, 0.5]],
          "scales": [{"rows": float("inf"), "cols": 1, "weights": [0.0]}]})
@settings(max_examples=50, derandomize=True, deadline=None)
def test_decompose_loader_maps_any_document_to_an_exit_code(fuzz_dir, doc):
    assert exit_code_of(fuzz_dir, "decompose", doc) in (0, 2, 3)


@given(contract_documents())
@example({"p": [10 ** 400], "q": [1.0], "kernels": []})
@settings(max_examples=50, derandomize=True, deadline=None)
def test_contract_loader_maps_any_document_to_an_exit_code(fuzz_dir, doc):
    assert exit_code_of(fuzz_dir, "contract", doc) in (0, 2, 3)


@st.composite
def valid_problem_documents(draw):
    n = draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0)
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entries)
    kind = draw(st.sampled_from(["isotropic", "zero", "wigner", "empirical"]))
    s_doc = {"kind": kind}
    if kind == "isotropic":
        s_doc["c"] = draw(st.floats(0.0, 2.0))
    elif kind == "wigner":
        s_doc["sigma2"] = draw(st.floats(0.0, 2.0))
    elif kind == "empirical":
        s_doc["samples"] = f"samples{n}.npy"
    return {"A": a, "S": s_doc}


@st.composite
def problem_documents(draw):
    return _mutated(draw, draw(valid_problem_documents()))


@st.composite
def valid_network_documents(draw):
    # a relu chain on an input of width 2, the width of the fuzz dataset
    widths = [2] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    coords = st.floats(-2.0, 2.0)
    weights = tuple(np.asarray(draw(st.lists(coords, min_size=a * b, max_size=a * b)))
                    .reshape(a, b) for a, b in zip(widths, widths[1:]))
    alpha = np.asarray(draw(st.lists(coords, min_size=widths[-1], max_size=widths[-1])))
    rule = draw(st.sampled_from(list(ActivationRule)))
    return network_to_chain_json(NetworkParams(weights, alpha, rule))


@st.composite
def network_documents(draw):
    return _mutated(draw, draw(valid_network_documents()))


@given(problem_documents())
@example({"A": [[10 ** 400]], "S": {"kind": "isotropic"}})
@example({"A": [[0.0]], "S": {"kind": "empirical", "samples": "samples2.npy"}})
@settings(max_examples=60, derandomize=True, deadline=None)
def test_mde_problem_loader_maps_any_document_to_an_exit_code(fuzz_dir, doc):
    (fuzz_dir / "doc.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # the documents name their sample stacks relative to it
    try:
        rc = run_cli("mde", "solve", "--problem", "doc.json", "--points", 5, "--eta", 0.1,
                     "--max-iter", 200, "--out", "out.csv")
    finally:
        os.chdir(cwd)
    assert rc in (0, 2, 3)


@pytest.mark.parametrize("command", ["hessian", "landscape"])
@given(doc=network_documents())
@example(doc={"nodes": ["0", "1"], "edges": [["0", "1"]], "layers": []})
@settings(max_examples=40, derandomize=True, deadline=None)
def test_network_loader_maps_any_document_to_an_exit_code(fuzz_dir, command, doc):
    (fuzz_dir / "net.json").write_text(json.dumps(doc))
    rc = run_cli(command, "--network", fuzz_dir / "net.json",
                 "--data", fuzz_dir / "data.csv", "--out", fuzz_dir / "out")
    assert rc in (0, 2, 3)


def _number_leaves(node, path=()):
    """Paths of the JSON numbers in ``node``, the integer kernel sizes aside."""
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        return [leaf for key in keys if key not in ("rows", "cols")
                for leaf in _number_leaves(node[key], path + (key,))]
    return [path] if type(node) in (int, float) else []


def _field_named(path):
    """What the error for a non-number at ``path`` names: the field and its entry."""
    head = path[0]
    if head == "A":
        return "expectation matrix A entries must be numbers"
    if head == "S":
        return f"self-energy {path[1]} must be a number"
    if head == "kernels":
        return f"kernel {path[1]} entries must be numbers"
    if head == "nu":
        return f"nu[{path[1]}] entries must be numbers"
    if head == "scales":
        return f"malformed scale entry {path[1]}: weights entries must be numbers"
    if head == "layers":
        return f"malformed layer entry for node {path[1]!r}: weights entries must be numbers"
    return f"{head} entries must be numbers"


@st.composite
def with_one_non_number(draw, documents):
    """A valid document with one number leaf replaced by "1", true or null, and its field."""
    doc = draw(documents)
    path = draw(st.sampled_from(_number_leaves(doc)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(["1", True, None]))
    return doc, _field_named(path)


NUMBER_FIELD_COMMANDS = {
    "contract": (valid_contract_documents(), ["contract", "--model", "doc.json"]),
    "decompose": (valid_decompose_documents(), ["decompose", "--model", "doc.json"]),
    "mde-solve": (valid_problem_documents(),
                  ["mde", "solve", "--problem", "doc.json", "--points", 5, "--eta", 0.1]),
    "landscape": (valid_network_documents(),
                  ["landscape", "--network", "doc.json", "--data", "data.csv"]),
}


@pytest.mark.parametrize("kind", NUMBER_FIELD_COMMANDS)
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_non_number_in_a_number_field_exits_2_naming_it(fuzz_dir, kind, data):
    documents, command = NUMBER_FIELD_COMMANDS[kind]
    doc, named = data.draw(with_one_non_number(documents))
    (fuzz_dir / "doc.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # the documents name their sample stacks and data relative to it
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = run_cli(*command, "--out", "out")
    finally:
        os.chdir(cwd)
    assert rc == 2
    assert named in err.getvalue()


@given(ensemble=st.sampled_from(ENSEMBLES), threads=st.sampled_from([1, 2]),
       trials=st.integers(1, 4), n=st.integers(2, 300), samples=st.integers(1, 8))
@example(ensemble="wigner", threads=2, trials=4, n=300, samples=1)
@example(ensemble="centered-hessian", threads=2, trials=4, n=300, samples=8)
@settings(max_examples=12, derandomize=True, deadline=None)
def test_esd_sample_peak_is_within_its_count(fuzz_dir, ensemble, threads, trials, n, samples):
    # the trials that run at once, and what the finished ones gather
    # beside them, as the CLI counts them before the pool starts
    rc, peak, counted = budget_peak(lambda: run_cli(
        "--threads", threads, "esd", "sample", "--ensemble", ensemble, "--n", n,
        "--trials", trials, "--samples", samples, "--out", fuzz_dir / "esd.csv"))
    assert rc == 0
    at_once = min(threads, trials)
    checked = (counted[f"{at_once} trial{'s' if at_once > 1 else ''} at once"]
               + counted[f"esd sample --trials {trials}, gathering {trials} trials"])
    assert peak <= 8 * checked + (1 << 20)


@given(kind=st.sampled_from(["isotropic", "wigner", "zero", "empirical"]),
       threads=st.sampled_from([1, 2]), n=st.integers(1, 100), points=st.integers(1, 16),
       samples=st.integers(2, 4))
@example(kind="empirical", threads=2, n=100, points=16, samples=4)
@example(kind="isotropic", threads=2, n=100, points=16, samples=2)
@settings(max_examples=12, derandomize=True, deadline=None)
def test_mde_solve_peak_is_within_its_count(fuzz_dir, kind, threads, n, points, samples):
    # the grid, the samples and the solution with what the solve holds
    # beside it, as the run counts them before each exists
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) / (2 * np.sqrt(n))
    s_doc = {"kind": kind}
    if kind == "empirical":
        stack = rng.standard_normal((samples, n, n)) / (2 * n)
        np.save(fuzz_dir / "peak_samples.npy", stack + stack.transpose(0, 2, 1))
        s_doc["samples"] = "peak_samples.npy"
    (fuzz_dir / "peak.json").write_text(json.dumps({"A": (a + a.T).tolist(), "S": s_doc}))
    rc, peak, counted = budget_peak(lambda: run_cli(
        "--threads", threads, "mde", "solve", "--problem", fuzz_dir / "peak.json",
        "--points", points, "--eta", 0.5, "--out", fuzz_dir / "rho.csv"))
    assert rc == 0
    assert peak <= 8 * sum(counted.values()) + (1 << 20)


def _scaled_relu_chain(directory, c, rows):
    """The bench's w=18 relu chain from ``default_rng(7)``, every layer times ``c``, on ``rows``."""
    rng = np.random.default_rng(7)
    weights = tuple(c * (rng.standard_normal((18, 18)) / np.sqrt(18)) for _ in range(3))
    alpha = c * (rng.standard_normal(18) / np.sqrt(18))
    x, y = rng.standard_normal((20, 18)), rng.choice([-1.0, 1.0], size=20)
    (directory / "scaled.json").write_text(json.dumps(
        network_to_chain_json(NetworkParams(weights, alpha))))
    save_dataset_csv(directory / "scaled.csv", Dataset(x[rows], y[rows]))
    return ["landscape", "--network", directory / "scaled.json",
            "--data", directory / "scaled.csv", "--out", directory / "scaled_report.json"]


@given(exponent=st.floats(-4.0, 7.0), sample=st.integers(0, 19))
@example(exponent=5.0, sample=0)
@example(exponent=3.0, sample=0)
@settings(max_examples=30, derandomize=True, deadline=None)
def test_operator_norm_bound_holds_at_every_scale(fuzz_dir, exponent, sample):
    # with one sample H = l' H_1, so op_norm equals the bound in exact
    # arithmetic and the two eigensolves' rounding is all that separates them
    assert run_cli(*_scaled_relu_chain(fuzz_dir, 10.0 ** exponent, [sample])) == 0


def test_inflated_operator_norm_refused_at_small_scale(workdir, capsys, monkeypatch):
    # at c = 1e-6 the chain's 20 samples give op_norm 1.3e-12 against a bound
    # of 1.0e-11; ten times the range core's eigenvalues break the bound
    summed_core = hessian._summed_core
    monkeypatch.setattr(hessian, "_summed_core", lambda *args: 10.0 * summed_core(*args))
    assert run_cli(*_scaled_relu_chain(workdir, 1e-6, slice(None))) == 3
    assert "operator-norm bound violated" in capsys.readouterr().err
