"""The JSON source reader that every document loader shares."""

import os

import numpy as np
import pytest

from dysonnet.errors import DomainError, json_floats, read_json
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


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("2.5", "float"), ('"x"', "str")],
                         ids=["list", "number", "string"])
@pytest.mark.parametrize("opened", [False, True], ids=["path", "open-file"])
def test_document_that_is_not_an_object_refused(tmp_path, text, kind, opened):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"must be an object, .*got {kind}$"):
        if opened:
            with open(path, encoding="utf-8") as handle:
                read_json(handle)
        else:
            read_json(path)


@pytest.mark.parametrize("value", [0, -2.5, [], [[]], [1, 2.5], [[1, 2], [3, 4]], [[[0.5]]]],
                         ids=["int", "float", "empty", "empty-row", "vector", "matrix", "deep"])
def test_json_floats_reads_numbers_as_numpy_does(value):
    got = json_floats(value, "field")
    want = np.asarray(value, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _nested(value, depth):
    return value if depth == 0 else [_nested(value, depth - 1)]


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "field must be a number, got True"),
        ("1", "field must be a number, got '1'"),
        (None, "field must be a number, got None"),
        ({"a": 1}, "field must be a number, got {'a': 1}"),
        (10 ** 400, "field must be a number, got an int too large for a float"),
        ([1.0, False], "field entries must be numbers, got False"),
        ([[1.0], ["2"]], "field entries must be numbers, got '2'"),
        ([[1.0], [None]], "field entries must be numbers, got None"),
        ([1.0, [2.0]], "field entries must be numbers, got [2.0]"),
        ([[1.0, 2.0], [3.0]], "field is ragged or nested too deep for an array"),
        (_nested(1.0, 65), "field is ragged or nested too deep for an array"),
        ([[1.0], [10 ** 400]], "field entries must be numbers, got an int too large for a float"),
    ],
    ids=["bool", "string", "null", "object", "huge-int", "bool-entry", "string-entry",
         "null-entry", "uneven-depth", "uneven-length", "too-deep", "huge-int-entry"],
)
def test_json_floats_refuses_what_is_not_a_number(value, message):
    with pytest.raises(DomainError) as exc:
        json_floats(value, "field")
    assert str(exc.value) == message
