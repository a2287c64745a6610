"""dysonnet benchmark: seeded workloads run as real CLI invocations.

Usage (from the repository root)::

    python3 bench/run.py --workload mde-iso --seed 1 --seconds 25 --trace 0

One client runs one ``dysonnet`` invocation at a time (a closed loop)
for ``--seconds``, then prints one JSON object as the last line of
standard output.  With ``--trace 0`` it reports the end-to-end metrics
(see ``run_untraced`` for the statistics); with ``--trace 1`` it
alternates untraced and traced invocations and reports the median
per-layer metrics of the traced ones and the tracing overhead.  Every
invocation's output is checked; a failed or wrong one is counted in
``failed``.  The workloads and the reasons for them are in
``BENCHMARK.json``; inputs come from ``inputs.py``.

Every process, and BLAS inside it, runs single-threaded (``BLAS_THREADS``):
on two shared vCPUs a second BLAS thread doubled ``cpu_s`` of the MDE
workloads without cutting their wall time and made ``mde-iso`` unsteady.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy reads these when it is first imported, so set them before that.
os.environ.update({name: BLAS_THREADS for name in _THREAD_VARS})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150.0
CLI_ENTRY = "import sys; from dysonnet.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Invocation:
    """Exit code and resource use of one finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Launcher:
    """Runs child processes through ``launcher.py``, one at a time."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, slot: int) -> Invocation:
        """Run ``argv`` in ``cwd`` on allowed CPU ``slot`` (modulo their count)."""
        request = {"argv": argv, "cwd": str(cwd), "env": self.env, "slot": slot,
                   "stderr": str(cwd / "stderr.txt"), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return Invocation(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def environment_record() -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {name: os.environ[name] for name in _THREAD_VARS},
    }


def _read_outputs(workdir: Path, names: list[str]) -> dict[str, bytes] | None:
    try:
        return {name: (workdir / name).read_bytes() for name in names}
    except OSError:
        return None


def _remove_outputs(workdir: Path, names: list[str]) -> None:
    for name in names:
        (workdir / name).unlink(missing_ok=True)


def _complain(workdir: Path, what: str) -> None:
    tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
    print(f"bench: {what}\n{tail}", file=sys.stderr)


class OutputJudge:
    """Checks the first good output in full, later ones by their bytes."""

    def __init__(self, workload: str, workdir: Path, reference: dict):
        from checks import CHECKS

        self.check = CHECKS[workload]
        self.workdir = workdir
        self.reference = reference
        self.accepted: dict[str, bytes] | None = None

    def judge(self, outputs: dict[str, bytes] | None) -> list[str]:
        if outputs is None:
            return ["an output file is missing"]
        if self.accepted is not None:
            return [] if outputs == self.accepted else ["output bytes differ between runs"]
        try:
            problems = self.check(self.workdir, self.reference)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            self.accepted = outputs
        return problems


def _invoke(launcher, argv, workdir, slot, names, judge) -> tuple[Invocation, dict | None, bool]:
    """Run one CLI invocation and judge its outputs; the outputs are removed."""
    result = launcher.run(argv, workdir, slot)
    outputs = _read_outputs(workdir, names)
    problems = [f"exit code {result.code}"] if result.code != 0 else judge.judge(outputs)
    _remove_outputs(workdir, names)
    if problems:
        _complain(workdir, "; ".join(problems))
    return result, outputs, not problems


def _setup_probe(launcher: Launcher, workload: str, workdir: Path, slot: int) -> float:
    """Wall time of one set-up probe (``load_inputs.py``); exits on failure."""
    result = launcher.run([sys.executable, str(BENCH / "load_inputs.py"), workload],
                          workdir, slot)
    if result.code != 0:
        _complain(workdir, f"set-up probe exited with {result.code}")
        raise SystemExit(1)
    return result.wall_s


def run_untraced(launcher, workload, workdir, seconds, judge) -> tuple[dict, int, int]:
    """Closed loop of CLI invocations, with set-up probes, that ends by ``seconds``.

    Every other invocation is followed by a set-up probe, so ``setup_s``,
    the probes' median, samples the whole run rather than one burst at its
    start.  A new invocation starts only if the previous one's duration
    (and the probe that follows it) still fits before the deadline; the
    first always runs.  Invocations alternate between the allowed CPUs.
    ``wall_s`` and ``cpu_s`` are the fastest invocation's: on a shared host
    other tenants slow a CPU by up to 40 % from one second to the next,
    and the minimum over many short invocations on both CPUs tracks the
    program's own cost, where the median of a run flips with the share of
    slow phases in it.
    """
    from inputs import cli_args, output_files

    argv = [sys.executable, "-c", CLI_ENTRY, *cli_args(workload)]
    names = output_files(workload)
    samples = {name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() + samples["wall_s"][-1] + (
            samples["setup_s"][-1] if attempted % 2 == 0 else 0.0) <= deadline:
        result, _, ok = _invoke(launcher, argv, workdir, attempted, names, judge)
        if attempted % 2 == 0:
            samples["setup_s"].append(_setup_probe(launcher, workload, workdir, attempted))
        attempted += 1
        failed += not ok
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(getattr(result, name))
    print("# samples " + json.dumps(samples))
    metrics = {
        "wall_s": min(samples["wall_s"]),
        "cpu_s": min(samples["cpu_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "setup_s": statistics.median(samples["setup_s"]),
    }
    return metrics, attempted, failed


def run_traced(launcher, workload, workdir, seconds, judge, seed) -> tuple[dict, int, int]:
    from inputs import cli_args, output_files
    from tracer import PER_LAYER, layer_metrics

    args = cli_args(workload)
    names = output_files(workload)
    plain = [sys.executable, "-c", CLI_ENTRY, *args]
    spans_path = workdir / "spans.json"
    per_pair: list[dict] = []
    attempted = failed = 0
    last_pair_s = 0.0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() + last_pair_s <= deadline:
        started = time.perf_counter()
        # Both runs of a pair share a CPU; pairs alternate between CPUs.
        slot = attempted // 2
        base, outputs, ok = _invoke(launcher, plain, workdir, slot, names, judge)
        run_id = f"{workload}-{seed}-{slot}"
        traced_argv = [sys.executable, str(BENCH / "traced_cli.py"), run_id, str(spans_path),
                       "--", *args]
        traced = launcher.run(traced_argv, workdir, slot)
        attempted += 2
        traced_outputs = _read_outputs(workdir, names)
        _remove_outputs(workdir, names)
        failed += not ok
        if traced.code != 0 or traced_outputs is None or traced_outputs != outputs:
            failed += 1
            _complain(workdir, f"traced run (exit {traced.code}) differs from the untraced run")
        else:
            with open(spans_path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            metrics = layer_metrics(doc["spans"], doc["counts"])
            metrics["cli.output_bytes"] = float(sum(len(v) for v in outputs.values()))
            metrics["trace.overhead_s"] = traced.wall_s - base.wall_s
            per_pair.append(metrics)
        spans_path.unlink(missing_ok=True)
        last_pair_s = time.perf_counter() - started
    if not per_pair:
        raise SystemExit("bench: no traced invocation succeeded")
    medians = {name: statistics.median(p[name] for p in per_pair) for name in PER_LAYER}
    return medians, attempted, failed


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "dysonnet" / "cli.py").is_file():
        print(f"bench: no dysonnet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import REFERENCES
    from inputs import WORKLOADS, write_inputs
    from tracer import PER_LAYER

    args = parse_args(argv, WORKLOADS)

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    launcher = Launcher()
    try:
        write_inputs(args.workload, args.seed, workdir)
        print("# env " + json.dumps(environment_record(), sort_keys=True))
        judge = OutputJudge(args.workload, workdir, REFERENCES[args.workload](workdir))
        if args.trace:
            values, attempted, failed = run_traced(launcher, args.workload, workdir,
                                                   args.seconds, judge, args.seed)
            units = PER_LAYER
        else:
            values, attempted, failed = run_untraced(launcher, args.workload, workdir,
                                                     args.seconds, judge)
            units = END_TO_END
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
