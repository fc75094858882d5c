import importlib
import pkgutil

import pytest

import rnncluster

MODULES = ["rnncluster"] + [
    f"rnncluster.{info.name}" for info in pkgutil.iter_modules(rnncluster.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a helper that was removed must not linger in an export list
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
