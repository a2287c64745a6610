"""The JSON source reader that every document loader shares."""

import os

import numpy as np
import pytest

from dysonnet.errors import DomainError
from dysonnet.net import network_from_chain_json
from dysonnet.poset import load_network_json
from dysonnet.rmt import load_problem_json

LOADERS = {
    "load_network_json": load_network_json,
    "network_from_chain_json": network_from_chain_json,
    "load_problem_json": lambda source: load_problem_json(source, 1e-2, np.zeros(3)),
}


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_file_descriptor_refused_and_left_open(tmp_path, loader):
    path = tmp_path / "doc.json"
    path.write_text('{"A": [[0.0]], "S": {"kind": "zero"}}')
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(DomainError, match="got int$"):
            loader(fd)
        os.fstat(fd)  # raises OSError if the loader closed it
    finally:
        os.close(fd)


@pytest.mark.parametrize("source", [[1, 2], None, 2.5, True], ids=["list", "none", "float", "bool"])
@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_source_of_another_type_refused(loader, source):
    with pytest.raises(DomainError, match=f"got {type(source).__name__}$"):
        loader(source)
