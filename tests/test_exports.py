"""The package namespace: each public name is listed once, in the
``__all__`` of the module that defines it, and resolves."""

import importlib

import semicycles

MODULES = ("errors", "signals", "thresholds", "integrator", "analysis",
           "spectral", "repro", "harness")


def test_package_exports_each_module_list_once():
    names = semicycles.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(semicycles, n)] == []
    listed = ["__version__"]
    for name in MODULES:
        module = importlib.import_module(f"semicycles.{name}")
        assert [a for a in module.__all__
                if getattr(semicycles, a) is not getattr(module, a)] == []
        listed.extend(module.__all__)
    assert sorted(names) == sorted(listed)
