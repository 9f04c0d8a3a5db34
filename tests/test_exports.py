"""Every exported name resolves. perfbench's tracer wraps functions by each
module's `__all__`, so a stale export would drop out of the trace silently."""
import importlib
import pkgutil

import pytest

import entkit

MODULES = ["entkit"] + [
    f"entkit.{m.name}" for m in pkgutil.iter_modules(entkit.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_module_is_checked():
    assert {"entkit.schmidt", "entkit.states", "entkit.protocols", "entkit.cli"} <= set(MODULES)
