"""Every public name resolves.

Each module's ``__all__`` names only what the module defines or imports,
and every name the ``pgreduce`` package re-exports is public in the module
it comes from.
"""
import importlib
import inspect

import pgreduce

MODULES = ("game", "forcing", "relations", "quotient", "solver", "simgames", "lattice", "cli")


def test_every_public_name_resolves():
    modules = [importlib.import_module(f"pgreduce.{name}") for name in MODULES]
    missing = [(m.__name__, attr) for m in modules for attr in m.__all__ if not hasattr(m, attr)]
    assert missing == []
    exported = {
        name: value
        for name, value in vars(pgreduce).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert "ParityGame" in exported
    private = [
        name
        for name, value in exported.items()
        if not any(name in m.__all__ and getattr(m, name) is value for m in modules)
    ]
    assert private == []
