"""Every name a package exports in ``__all__`` resolves."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.noc",
    "repro.faults",
    "repro.metrics",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
