"""Set-up probe: import the CLI and load one workload's inputs, no solve.

Usage: ``python3 load_inputs.py WORKLOAD``, run in the workload's input
directory.  Its wall time from spawn to exit is the ``setup_s`` sample.
"""

from __future__ import annotations

import json
import sys

import dysonnet.cli  # noqa: F401  (the import is part of what is timed)
import numpy as np
from dysonnet.infogeo import LayeredDiscreteModel
from dysonnet.net import load_dataset_csv, network_from_chain_json
from dysonnet.poset import KernelSpec
from dysonnet.rmt import load_problem_json

from inputs import MDE_ISO, energy_grid


def load(workload: str) -> None:
    if workload == "mde-iso":
        load_problem_json("problem.json", MDE_ISO["eta"], energy_grid())
    elif workload == "landscape":
        network_from_chain_json("network.json")
        load_dataset_csv("data.csv")
    elif workload == "decompose":
        with open("model.json", "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        scales = tuple(
            KernelSpec(np.asarray(s["weights"], dtype=float).reshape(s["rows"], s["cols"]),
                       s["field"])
            for s in doc["scales"]
        )
        LayeredDiscreteModel(np.asarray(doc["x_support"], dtype=float), scales)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    load(sys.argv[1])
