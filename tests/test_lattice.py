import pgreduce.simgames
from conftest import small_random_games
from oracles import oracle_check_lattice
from pgreduce import random_game
from pgreduce.lattice import (
    COINCIDENCE_NOTIONS,
    LATTICE_EDGES,
    RELATION_ORDER,
    LatticeResult,
    check_lattice,
    compute_relations,
)


def test_relation_order_covers_every_computed_relation(escape_edge):
    rels = compute_relations(escape_edge)
    assert set(RELATION_ORDER) == set(rels)
    assert {name for edge in LATTICE_EDGES for name in edge} <= set(rels)


def test_edges_never_point_against_the_order():
    for finer, coarser in LATTICE_EDGES:
        assert RELATION_ORDER.index(finer) < RELATION_ORDER.index(coarser)


def test_check_lattice_result_count(escape_edge):
    results = check_lattice(escape_edge)
    assert len(results) == len(LATTICE_EDGES) + len(COINCIDENCE_NOTIONS)
    assert all(r.passed for r in results)


def test_inclusion_edges_on_random_games_up_to_ten_vertices():
    for seed in range(200):
        n = 2 + seed % 9
        game = random_game(n, 3, (1, min(3, n)), 31_000 + seed)
        for result in check_lattice(game, coincidences=False):
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
