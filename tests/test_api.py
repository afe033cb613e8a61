"""Every public name resolves, and the README's library tour runs.

Each module's ``__all__`` names only what the module defines or imports,
and every name the ``pgreduce`` package re-exports is public in the module
it comes from.
"""
import importlib
import inspect
import re
from pathlib import Path

import fixture_games
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


def test_readme_quick_tour_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick tour", 1)[1]
    (tour,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    (tmp_path / "game.gm").write_text(fixture_games.ALL_TEXTS["fake_divergence"])
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {})
