"""The exported names of the package and of each of its modules.

Tools that wrap whatever `__all__` lists (such as the span tracer in
`perfbench/`) skip a stale name silently, so a deleted function must
leave every `__all__` with it.
"""

import importlib
import pkgutil

import wcox


def _modules():
    yield wcox
    for info in pkgutil.iter_modules(wcox.__path__):
        yield importlib.import_module(f"wcox.{info.name}")


def test_every_exported_name_resolves():
    missing = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_no_private_name_is_exported():
    private = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if name.startswith("_") and name != "__version__"
    ]
    assert private == []
