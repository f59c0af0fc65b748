"""The public surface of the package."""

import importlib
import pkgutil

import wickfock


def test_every_name_in_all_resolves():
    # tools that wrap the public functions do getattr on each __all__ entry
    modules = [wickfock] + [
        importlib.import_module(f"wickfock.{info.name}")
        for info in pkgutil.iter_modules(wickfock.__path__)
    ]
    assert len(modules) == 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
