"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import dmpc


def test_every_export_resolves():
    modules = [dmpc] + [
        importlib.import_module(f"dmpc.{info.name}")
        for info in pkgutil.iter_modules(dmpc.__path__)
    ]
    assert len(modules) > 10
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__} exports unbound {missing}"
