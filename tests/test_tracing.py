"""The benchmark tracer's bindings still exist in the package.

``bench/tracing.py`` swaps names in the modules of ``pgreduce`` for timing
wrappers.  A refactor that drops or renames one of those names would only
break a traced benchmark run; this test makes it fail here instead.
"""
import importlib
import importlib.util
from pathlib import Path

from test_quotient_equivalent import NON_MINIMAL, NON_MINIMAL_MAP

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


def test_traced_check_lattice_sees_every_relation():
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"pgreduce.{name}") for name in tracing.LAYERS}
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        mods["lattice"].check_lattice(mods["game"].random_game(6, 3, (1, 3), 1))
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert {name for name in calls if name.startswith("relations.")} == set(tracing._RELATIONS.values())


def test_traced_quotient_equivalent_sees_every_relation():
    # A non-minimal quotient makes every certificate compute its relation
    # on the quotient, but a bisimilarity's does so through the refinement
    # itself, not a traced name; direct-sim's computes the quotient's
    # preorder for every quotient, minimal or not.
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"pgreduce.{name}") for name in tracing.LAYERS}
    quotient = mods["quotient"]
    core = mods["game"].random_game(6, 3, (1, 3), 1)

    def traced_relations(cases) -> set[str]:
        tracer = tracing.Tracer(mods)
        tracer.install()
        try:
            for game, result in cases:
                assert quotient.quotient_equivalent(game, result)
        finally:
            tracer.uninstall()
        return {name for name in tracer.summary()["calls"] if name.startswith("relations.")}

    onto_itself = [
        (NON_MINIMAL, quotient.QuotientResult(NON_MINIMAL, NON_MINIMAL_MAP, kind)) for kind in quotient.EQUIVALENCES
    ]
    assert traced_relations(onto_itself) == {"relations.direct_sim"}
    minimal = [(core, build(core)) for build in quotient.EQUIVALENCES.values()]
    assert traced_relations(minimal) == {"relations.direct_sim"}
