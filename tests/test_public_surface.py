"""Each module's ``__all__`` names exactly what it defines for public use, and no
class is a dataclass."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import dysonnet

MODULES = [dysonnet] + [
    importlib.import_module(f"dysonnet.{info.name}") for info in pkgutil.iter_modules(dysonnet.__path__)
]
LISTED = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", LISTED, ids=lambda module: module.__name__)
def test_listed_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", LISTED, ids=lambda module: module.__name__)
def test_public_definitions_are_listed(module):
    defined = {
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_no_class_is_a_dataclass():
    # a dataclass generates and compiles its methods when its module is imported
    classes = [
        value for module in MODULES for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    assert {"KernelSpec", "LayerState", "MDESolution", "LandscapeReport"} <= {
        cls.__name__ for cls in classes
    }
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []
