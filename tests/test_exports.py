"""Every public export of ``repro`` and its subpackages resolves.

A deletion that leaves a stale name in a package's ``__all__`` breaks
``from repro.<pkg> import *`` for every user of that package; nothing else
in the suite would notice.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.circuits",
    "repro.circuits.library",
    "repro.cloud",
    "repro.community",
    "repro.core",
    "repro.lint",
    "repro.multitenant",
    "repro.network",
    "repro.partition",
    "repro.placement",
    "repro.scheduling",
    "repro.sim",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
