import importlib
import pkgutil

import pacp


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks star imports
    modules = [pacp] + [
        importlib.import_module(f"pacp.{info.name}") for info in pkgutil.iter_modules(pacp.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
