"""Every name a package exports in `__all__` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("package", [
    "sqlscout",
    "sqlscout.core",
    "sqlscout.action_model",
    "sqlscout.value_index",
    "sqlscout.harness",
])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
