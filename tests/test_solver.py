import sys

import pytest

import oracles
import pgreduce.solver as solver_module
from conftest import small_random_games
from oracles import (
    arena_as_parity_game,
    oracle_buchi_rank,
    oracle_solve_buchi,
    oracle_solve_zielonka,
    oracle_winner,
)
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
    # As many vertices as the recursion limit; one priority solves fast.
    n = sys.getrecursionlimit()
    g = ParityGame((0,) * n, (Player.ODD,) * n, tuple(((v + 1) % n,) for v in range(n)))
    before = sys.getrecursionlimit()
    assert solve_zielonka(g).won_by_even == frozenset(range(n))
    assert sys.getrecursionlimit() == before


def _chain_loop(n):
    """Vertex ``i`` has priority ``i``, owner ``i mod 2`` and edges to itself
    and to ``i + 1``; its owner wins it by staying."""
    return ParityGame(
        tuple(range(n)), tuple(i % 2 for i in range(n)), tuple((i, min(i + 1, n - 1)) for i in range(n))
    )


def _self_loops(n):
    return ParityGame(tuple(range(n)), tuple(i % 2 for i in range(n)), tuple((i,) for i in range(n)))


def test_solver_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("solve_zielonka changed the recursion limit")

    n = sys.getrecursionlimit() + 200
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    regions = solve_zielonka(_chain_loop(n))
    assert regions.won_by_even == frozenset(range(0, n, 2))
    assert regions.won_by_odd == frozenset(range(1, n, 2))


def _zielonka_corpus():
    games = [
        random_game(n, max_priority, (1, min(3, n)), 1000 * n + max_priority)
        for n in range(1, 61)
        for max_priority in (2, 5, n)
    ]
    games += [_chain_loop(n) for n in range(1, 41, 3)]
    games += [_self_loops(n) for n in range(1, 41, 3)]
    return games


def test_zielonka_matches_reference(monkeypatch):
    """Same regions and the same attractor calls, in order, as the recursive form."""
    original = solver_module.attractor_layers
    calls = []

    def recording(owners, preds, degree, player, targets, allowed=None):
        targets = list(targets)
        calls.append((player, tuple(targets), allowed))
        return original(owners, preds, degree, player, targets, allowed)

    monkeypatch.setattr(solver_module, "attractor_layers", recording)
    monkeypatch.setattr(oracles, "attractor_layers", recording)
    for k, game in enumerate(_zielonka_corpus()):
        calls.clear()
        regions = solve_zielonka(game)
        ours = list(calls)
        calls.clear()
        assert regions == oracle_solve_zielonka(game), k
        assert ours == calls, k
        assert all(list(targets) == sorted(targets) for _, targets, _ in ours), k


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
