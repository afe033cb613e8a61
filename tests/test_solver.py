import sys

import pytest

from conftest import small_random_games
from oracles import arena_as_parity_game, oracle_buchi_rank, oracle_solve_buchi, oracle_winner
from pgreduce import (
    Arena,
    ArenaPlayer,
    ParityGame,
    Player,
    buchi_rank,
    build_delayed_sim_arena,
    build_direct_sim_arena,
    build_governed_bisim_arena,
    build_gstut_arena,
    random_game,
    solve_buchi,
    solve_zielonka,
)

D = ArenaPlayer.DUPLICATOR
S = ArenaPlayer.SPOILER


def test_single_even_self_loop():
    g = ParityGame((0,), (0,), ((0,),))
    regions = solve_zielonka(g)
    assert regions.won_by_even == {0}
    assert regions.won_by_odd == frozenset()


def test_recursion_limit_restored():
    # Big enough that the solver raises the limit; one priority solves fast.
    n = sys.getrecursionlimit()
    g = ParityGame((0,) * n, (Player.ODD,) * n, tuple(((v + 1) % n,) for v in range(n)))
    before = sys.getrecursionlimit()
    assert solve_zielonka(g).won_by_even == frozenset(range(n))
    assert sys.getrecursionlimit() == before


def test_escape_edge_regions(escape_edge):
    regions = solve_zielonka(escape_edge)
    assert regions.won_by_even == {1, 3}
    assert regions.won_by_odd == {0, 2}


def test_delayed_chain_all_even(delayed_chain):
    regions = solve_zielonka(delayed_chain)
    assert regions.won_by_even == {0, 1, 2}


def test_regions_partition(random_corpus):
    for game in random_corpus[:40]:
        regions = solve_zielonka(game)
        assert regions.won_by_even | regions.won_by_odd == set(game.vertices)
        assert not regions.won_by_even & regions.won_by_odd


def test_zielonka_agrees_with_strategy_enumeration():
    for seed in range(60):
        game = random_game(2 + seed % 4, 3, (1, 2), seed)
        regions = solve_zielonka(game)
        for v in game.vertices:
            assert regions.winner(v) == oracle_winner(game, v), (seed, v)


def _two_position_cycle(accepting_first):
    arena = Arena()
    a = arena.position("a", D, accepting=accepting_first)
    b = arena.position("b", D)
    arena.add_edge(a, b)
    arena.add_edge(b, a)
    return arena, a, b


def test_buchi_accepting_everywhere_and_nowhere():
    arena, a, b = _two_position_cycle(accepting_first=True)
    arena.accepting = {a, b}
    assert solve_buchi(arena) == {a, b}
    arena.accepting = set()
    assert solve_buchi(arena) == frozenset()


def test_buchi_two_position_cycle_ranks():
    arena, a, b = _two_position_cycle(accepting_first=True)
    won = solve_buchi(arena)
    assert won == {a, b}
    ranks = buchi_rank(arena, won)
    assert ranks[a] == 0
    assert ranks[b] == 1


def test_buchi_rank_rejects_losing_positions():
    arena = Arena()
    a = arena.position("a", D)
    arena.add_edge(a, a)
    assert solve_buchi(arena) == frozenset()
    with pytest.raises(ValueError):
        buchi_rank(arena, frozenset({a}))


def test_buchi_spoiler_can_avoid():
    arena = Arena()
    a = arena.position("a", S)
    good = arena.position("good", D, accepting=True)
    bad = arena.position("bad", D)
    arena.add_edge(a, good)
    arena.add_edge(a, bad)
    arena.add_edge(good, good)
    arena.add_edge(bad, bad)
    assert solve_buchi(arena) == {good}


def test_buchi_agrees_with_parity_encoding(random_corpus):
    for game in random_corpus[:25]:
        for build in (build_delayed_sim_arena, build_gstut_arena):
            arena = build(game)
            won = solve_buchi(arena)
            encoded = arena_as_parity_game(arena)
            regions = solve_zielonka(encoded)
            assert won == regions.won_by_even


def test_buchi_ranks_decrease_along_duplicator_strategy(random_corpus):
    for game in random_corpus[:25]:
        arena = build_delayed_sim_arena(game)
        won = solve_buchi(arena)
        ranks = buchi_rank(arena, won)
        for p in won:
            if p in arena.accepting:
                continue
            succ_ranks = [ranks[q] for q in arena.edges[p] if q in won]
            if arena.owners[p] is D:
                assert any(r < ranks[p] for r in succ_ranks)
            else:
                assert all(q in won for q in arena.edges[p])
                assert all(r < ranks[p] for r in succ_ranks)


@pytest.mark.parametrize(
    "build",
    [
        build_direct_sim_arena,
        build_governed_bisim_arena,
        lambda g: build_delayed_sim_arena(g, "none"),
        lambda g: build_delayed_sim_arena(g, "even"),
        lambda g: build_delayed_sim_arena(g, "odd"),
        build_gstut_arena,
    ],
    ids=["direct", "governed", "delayed", "delayed_even", "delayed_odd", "gstut"],
)
def test_buchi_matches_reference(build):
    for i, game in enumerate(small_random_games(150, max_n=10, max_priority=3, start_n=2)):
        arena = build(game)
        won = solve_buchi(arena)
        assert won == oracle_solve_buchi(arena), i
        assert buchi_rank(arena, won) == oracle_buchi_rank(arena, won), i


def test_arena_validate_rejects_dead_positions():
    arena = Arena()
    arena.position("stuck", D)
    with pytest.raises(ValueError, match="no moves"):
        solve_buchi(arena)
