import importlib
from pathlib import Path

import pytest

import pgreduce.lattice
import pgreduce.simgames
from conftest import small_random_games
from oracles import oracle_check_lattice, oracle_iso_relation
from pgreduce import (
    ParityGame,
    Partition,
    coincidence_check,
    disjoint_union,
    equivalence_from_preorder,
    parse_pgsolver,
    random_game,
    serialize_pgsolver,
)
from pgreduce.lattice import (
    LATTICE_EDGES,
    RELATION_ORDER,
    LatticeResult,
    check_lattice,
    compute_relations,
    lattice_edges,
)
from pgreduce.simgames import COINCIDENCES, DELAYED_BIAS


def test_relation_order_covers_every_computed_relation(escape_edge):
    rels = compute_relations(escape_edge)
    assert set(RELATION_ORDER) == set(rels)
    assert {name for edge in LATTICE_EDGES for name in edge} <= set(rels)


def test_edges_never_point_against_the_order():
    for finer, coarser in LATTICE_EDGES:
        assert RELATION_ORDER.index(finer) < RELATION_ORDER.index(coarser)


def test_check_lattice_result_count(escape_edge):
    results = check_lattice(escape_edge)
    assert len(results) == len(LATTICE_EDGES) + len(COINCIDENCES)
    assert all(r.passed for r in results)


def test_inclusion_edges_on_random_games_up_to_ten_vertices():
    for seed in range(200):
        n = 2 + seed % 9
        game = random_game(n, 3, (1, min(3, n)), 31_000 + seed)
        for result in lattice_edges(compute_relations(game)):
            assert result.passed, (seed, result.name)


def test_full_check_on_larger_game():
    game = small_random_games(1, max_n=12, start_n=12)[0]
    assert all(r.passed for r in check_lattice(game))


def test_check_lattice_builds_one_delayed_arena_per_bias(monkeypatch, exhaustive_corpus, random_corpus):
    calls = 0
    original = pgreduce.simgames.build_delayed_sim_arena

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(pgreduce.simgames, "build_delayed_sim_arena", counting)
    game = small_random_games(1, max_n=8, start_n=8)[0]
    assert all(r.passed for r in check_lattice(game))
    assert calls == 3
    # The earlier check, which built every delayed arena twice, passes every
    # edge and coincidence on the exhaustive corpus (acceptance criteria 2
    # and 3); it is re-run here on a slice of the random corpus.
    names = [r.name for r in oracle_check_lattice(game)]
    for i, game in enumerate(exhaustive_corpus):
        assert check_lattice(game) == [LatticeResult(name, True) for name in names], i
    for i, game in enumerate(random_corpus[:25]):
        assert check_lattice(game) == oracle_check_lattice(game), i


def test_check_lattice_builds_the_delayed_tables_once(monkeypatch, random_corpus):
    # The three delayed fixpoints share the per-pair tables, which no bias
    # changes; each equals the fixpoint on a fresh parse of the game, which
    # builds its own.
    simgames = pgreduce.simgames
    original_groups, original_fixpoint = simgames._transfer_groups, simgames.delayed_sim_fixpoint
    calls = 0
    fixpoints = {}

    def counting(*args):
        nonlocal calls
        calls += 1
        return original_groups(*args)

    def recording(game, bias="none"):
        fixpoints[bias] = original_fixpoint(game, bias)
        return fixpoints[bias]

    monkeypatch.setattr(simgames, "_transfer_groups", counting)
    monkeypatch.setattr(simgames, "delayed_sim_fixpoint", recording)
    for i, shared in enumerate(random_corpus[:25]):
        # The corpus games are shared, and other tests may have filled theirs.
        game = parse_pgsolver(serialize_pgsolver(shared))
        calls = 0
        fixpoints.clear()
        check_lattice(game)
        assert calls == 1, i
        assert sorted(fixpoints) == ["even", "none", "odd"], i
        for bias, rows in fixpoints.items():
            assert rows == original_fixpoint(parse_pgsolver(serialize_pgsolver(game)), bias), (i, bias)


# The module-level function that each notion's (game route, fixpoint route)
# calls.  ``check_lattice`` computes the delayed preorders and the direct,
# governed and gstut fixpoints through its own bindings, so a doctored route
# that ``lattice`` also binds is bound in both modules.
ROUTE_CALLS = {
    "direct": (("simgames", "direct_sim_via_game"), ("relations", "direct_sim")),
    "governed_bisim": (("simgames", "governed_bisim_via_game"), ("relations", "governed_bisim")),
    "gstut": (("simgames", "gstut_via_game"), ("simgames", "gstut_bisim")),
    **{
        notion: (("simgames", "delayed_sim"), ("simgames", "delayed_sim_fixpoint"))
        for notion in ("delayed", "delayed_even", "delayed_odd")
    },
}


def test_coincidence_table_covers_the_benchmark_notions(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    assert set(COINCIDENCES) == set(workloads.Crosscheck.NOTIONS) == set(ROUTE_CALLS)


def _doctored(result):
    """A result unlike ``result`` that leaves every lattice relation as it was.

    A partition merges into one class, or splits into singletons if it has
    one.  A preorder that is not symmetric becomes its own kernel, so its
    kernel stays the same; a symmetric one becomes the full relation.
    """
    if isinstance(result, Partition):
        n = result.universe
        return Partition.from_class_of(n, [0] * n if result.class_count > 1 else range(n))
    rows = equivalence_from_preorder(result).as_relation()
    if rows == result:
        rows = ((1 << len(result)) - 1,) * len(result)
    return rows


@pytest.mark.parametrize("route", ["game", "fixpoint"])
@pytest.mark.parametrize("notion", list(ROUTE_CALLS))
def test_each_coincidence_fails_on_a_doctored_route(monkeypatch, escape_edge, notion, route):
    module_name, attr = ROUTE_CALLS[notion][route == "fixpoint"]
    original = getattr(importlib.import_module(f"pgreduce.{module_name}"), attr)
    # The delayed routes share one function; only this notion's bias is doctored.
    target = (DELAYED_BIAS[notion],) if notion in DELAYED_BIAS else ()

    def doctored(game, *args):
        result = original(game, *args)
        if args != target:
            return result
        wrong = _doctored(result)
        assert wrong != result
        return wrong

    modules = {module_name} | ({"lattice"} if hasattr(pgreduce.lattice, attr) else set())
    for name in modules:
        monkeypatch.setattr(importlib.import_module(f"pgreduce.{name}"), attr, doctored)
    assert not coincidence_check(escape_edge, notion)
    failed = [r.name for r in check_lattice(escape_edge) if not r.passed]
    assert [name for name in failed if name.startswith("game-based")] == [f"game-based {notion} coincides"]
    # A bisimilarity's fixpoint route is itself a lattice relation, which
    # ``check_lattice`` computes once, so doctoring it may break edges too.
    if not (route == "fixpoint" and notion in ("governed_bisim", "gstut")):
        assert failed == [f"game-based {notion} coincides"]


def _cycle(n, priorities):
    return ParityGame(tuple(priorities), (0,) * n, tuple(((v + 1) % n,) for v in range(n)))


def test_iso_relation_matches_pairwise_reference(exhaustive_corpus, random_corpus):
    # Games with non-trivial orbits: two copies of one game, and cycles whose
    # vertices are all alike or alike up to a rotation by two.
    orbits = [disjoint_union(g, g) for g in random_corpus[:40]]
    orbits += [_cycle(n, [0] * n) for n in (1, 5, 12)] + [_cycle(8, [1, 2] * 4)]
    for i, game in enumerate(exhaustive_corpus + random_corpus + orbits):
        assert pgreduce.lattice._iso_partition(game).as_relation() == oracle_iso_relation(game), i
    assert pgreduce.lattice._iso_partition(_cycle(8, [1, 2] * 4)).as_relation()[0] == 0b01010101


def test_iso_relation_searches_only_alike_vertices(monkeypatch):
    calls = []
    original = pgreduce.lattice.find_isomorphism

    def counting(g1, g2, pin=None):
        calls.append(pin)
        return original(g1, g2, pin)

    monkeypatch.setattr(pgreduce.lattice, "find_isomorphism", counting)
    pgreduce.lattice._iso_partition(_cycle(10, range(10)))
    assert calls == []
    # One search per vertex outside its orbit's least vertex.
    pgreduce.lattice._iso_partition(_cycle(10, [0] * 10))
    assert calls == [(0, w) for w in range(1, 10)]


def test_compute_relations_enforces_isomorphism_limit():
    with pytest.raises(ValueError, match="isomorphism check limited to 64 vertices"):
        compute_relations(_cycle(65, range(65)))


def test_check_lattice_enforces_isomorphism_limit_before_building_arenas(monkeypatch):
    builds = 0
    original = pgreduce.simgames.build_delayed_sim_arena

    def counting(*args):
        nonlocal builds
        builds += 1
        return original(*args)

    monkeypatch.setattr(pgreduce.simgames, "build_delayed_sim_arena", counting)
    with pytest.raises(ValueError, match="isomorphism check limited to 64 vertices"):
        check_lattice(random_game(65, 3, (1, 3), 1))
    assert builds == 0
