import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_the_process_pool_unloaded():
    # only a parallel sweep (`run_sweep(n_jobs > 1)`) needs concurrent.futures
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rnncluster; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
