"""Tests of the benchmark itself (not of dysonnet).

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    names = inputs.write_inputs(workload, 7, tmp_path / "a")
    inputs.write_inputs(workload, 7, tmp_path / "b")
    inputs.write_inputs(workload, 8, tmp_path / "c")
    first, again, other = (_files(tmp_path / d) for d in "abc")
    assert sorted(first) == sorted(names)
    assert first == again
    assert all(first[name] != other[name] for name in names)


def test_self_time_is_duration_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    calls, total, own = tracer.summarize(spans + [("c", 6.0, 6.5, 3)])
    assert calls["c"] == 2 and total["c"] == pytest.approx(1.5)
    assert own["b"] == pytest.approx(3.5)


def test_recorded_spans_nest_and_layer_names_follow_the_caller():
    tr = tracer.Tracer("t")
    inner = tr.wrap(lambda t: f"{t.current_layer()}.leaf", lambda: None)
    outer = tr.wrap("rmt.solve_mde", lambda: inner())
    outer()
    inner()
    assert [(name, parent) for name, _, _, parent in tr.spans] == [
        ("rmt.solve_mde", None), ("rmt.leaf", 0), ("cli.leaf", None)]
    assert all(stop >= start for _, start, stop, _ in tr.spans)


def test_layer_metrics_cover_every_per_layer_metric_but_the_parent_ones():
    spans = [("cli.import", 0.0, 0.5, None), ("cli.main", 1.0, 3.0, None),
             ("rmt.solve_mde", 1.5, 2.5, 1), ("rmt.S_apply", 1.6, 1.7, 2),
             ("rmt.S_apply", 1.8, 1.9, 2)]
    metrics = tracer.layer_metrics(spans, {"rmt.points": 2.0})
    assert set(metrics) | set(tracer.FROM_PARENT) == set(tracer.PER_LAYER)
    assert metrics["rmt.iters_per_point"] == 1.0
    assert metrics["rmt.solve_mde.self_s"] == pytest.approx(0.8)
    assert metrics["cli.main.self_s"] == pytest.approx(1.0)


def test_benchmark_json_matches_the_code_and_the_limits():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 1 <= doc["run_seconds"] <= 60


def test_scalar_reference_reproduces_the_semicircle():
    from dysonnet.rmt import wigner_stieltjes

    z = np.linspace(-3.0, 3.0, 61) + 1e-3j
    m = checks._scalar_stieltjes(np.zeros(8), z, 1.0)
    assert np.abs(m - wigner_stieltjes(z)).max() < 1e-9


def _decompose_report(workdir: Path) -> None:
    from dysonnet.cli import main

    out = workdir / "report.json"
    assert main(["decompose", "--model", str(workdir / "model.json"), "--out", str(out)]) == 0


def test_decompose_check_sees_the_weights_and_the_assignments(tmp_path):
    inputs.write_inputs("decompose", 3, tmp_path)
    ref = checks.decompose_reference(tmp_path)
    _decompose_report(tmp_path)
    assert checks.check_decompose(tmp_path, ref) == []

    model = tmp_path / "model.json"
    doc = json.loads(model.read_text())
    scale = doc["scales"][1]  # square, so its transpose is a valid model
    weight = np.asarray(scale["weights"]).reshape(scale["rows"], scale["cols"])
    scale["weights"] = weight.T.ravel().tolist()
    model.write_text(json.dumps(doc))
    _decompose_report(tmp_path)
    assert any("kl_terms[1]" in p for p in checks.check_decompose(tmp_path, ref))

    doc["scales"][1]["weights"] = weight.ravel().tolist()
    doc["nu"][2] = doc["nu"][2][::-1]
    model.write_text(json.dumps(doc))
    _decompose_report(tmp_path)
    assert any("kl_terms[2]" in p for p in checks.check_decompose(tmp_path, ref))
