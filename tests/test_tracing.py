"""The benchmark tracer's bindings still exist in the package.

``bench/tracing.py`` swaps names in the modules of ``pgreduce`` for timing
wrappers.  A refactor that drops or renames one of those names would only
break a traced benchmark run; this test makes it fail here instead.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> list[tuple[str, str]]:
    spans = [(mod, attr) for mod, attr, _ in tracing._SPANS]
    return spans + tracing._TIMED_FORCING + tracing._COUNTED_FORCING


def test_every_binding_resolves():
    tracing = _load_tracing()
    bindings = _bindings(tracing)
    assert len(bindings) == 52
    missing = [
        (mod, attr)
        for mod, attr in bindings
        if not callable(getattr(importlib.import_module(f"pgreduce.{mod}"), attr, None))
    ]
    assert missing == []


def test_install_then_uninstall_restores_originals():
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"pgreduce.{name}") for name in tracing.LAYERS}
    bindings = _bindings(tracing)
    before = {(mod, attr): getattr(mods[mod], attr) for mod, attr in bindings}
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        swapped = [key for key, fn in before.items() if getattr(mods[key[0]], key[1]) is not fn]
    finally:
        tracer.uninstall()
    assert sorted(swapped) == sorted(before)
    assert all(getattr(mods[mod], attr) is fn for (mod, attr), fn in before.items())
