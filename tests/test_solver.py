import random
import sys
import tracemalloc

import pytest

import oracles
import pgreduce.solver as solver_module
from conftest import small_random_games
from inflation import chain_every_edge, inflate
from oracles import (
    InterningArena,
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
    wf_rank_check,
)
from pgreduce.forcing import byte_set

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


def _loser_loop_cycle(n):
    """A cycle ``i -> i + 1 (mod n)`` whose vertex ``i`` has priority ``i``
    and a self-loop owned by the player ``i`` is bad for.  No self-loop is
    winner-owned and the cycle is one component, so the core solves it,
    peeling one priority per level."""
    return ParityGame(
        tuple(range(n)), tuple(1 - i % 2 for i in range(n)), tuple((i, (i + 1) % n) for i in range(n))
    )


def _path(n):
    """``0 -> 1 -> ... -> n - 1``, which loops on an even priority that odd
    owns, so that the self-loop step leaves the whole path to the
    components."""
    succs = tuple((min(i + 1, n - 1),) for i in range(n))
    return ParityGame((1,) * (n - 1) + (0,), (0,) * (n - 1) + (1,), succs)


def _subgame(state):
    """The subgame mask of an attractor kernel state, before it is marked."""
    return sum(1 << v for v, inside in enumerate(state) if inside)


def test_solver_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("solve_zielonka changed the recursion limit")

    n = sys.getrecursionlimit() + 200
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    regions = solve_zielonka(_chain_loop(n))
    assert regions.won_by_even == frozenset(range(0, n, 2))
    assert regions.won_by_odd == frozenset(range(1, n, 2))

    # Neither step decides the loser-loop cycle, and the core's frames nest
    # deeper than the recursion limit: each descending call works on a
    # strict subset of the previous call's subgame.
    original = solver_module.mark_attractor
    subgames = []

    def recording(state, *args, **kwargs):
        subgames.append(_subgame(state))
        return original(state, *args, **kwargs)

    monkeypatch.setattr(solver_module, "mark_attractor", recording)
    assert solve_zielonka(_loser_loop_cycle(n)).won_by_even == frozenset(range(n))
    depth = 1
    while subgames[depth] != subgames[depth - 1] and subgames[depth] & ~subgames[depth - 1] == 0:
        depth += 1
    assert depth > sys.getrecursionlimit()

    # Tarjan's depth-first search follows the whole path.
    path = _path(n)
    assert solver_module._bottom_up_sccs(path.successors, b"\x01" * n) == [[v] for v in reversed(range(n))]
    assert solve_zielonka(path).won_by_even == frozenset(range(n))


def _zielonka_corpus():
    games = [
        random_game(n, max_priority, (1, min(3, n)), 1000 * n + max_priority)
        for n in range(1, 61)
        for max_priority in (2, 5, n)
    ]
    games += [_chain_loop(n) for n in range(1, 41, 3)]
    games += [_self_loops(n) for n in range(1, 41, 3)]
    return games


def _core(game, state):
    """Zielonka's core on the whole game, whose bytes ``state`` must hold
    at 1; asserts that the core leaves them so."""
    before = bytes(state)
    regions = solver_module._zielonka(
        state, game.owners, game.predecessors(), game.successors, game.priorities, game.vertices
    )
    assert state == before
    return regions


def test_zielonka_matches_reference(monkeypatch):
    """The core on the full vertex set makes the same attractor calls, in
    order, as the recursive form, and leaves its state bytes as it found
    them; the solver finds the same regions."""
    original = solver_module.mark_attractor
    reference = oracles.attractor_layers
    calls = []

    def recording(state, owners, preds, succs, player, targets):
        targets = list(targets)
        calls.append((player, tuple(targets), _subgame(state)))
        return original(state, owners, preds, succs, player, targets)

    def recording_reference(owners, preds, degree, player, targets, allowed):
        targets = list(targets)
        calls.append((player, tuple(targets), allowed))
        return reference(owners, preds, degree, player, targets, allowed)

    monkeypatch.setattr(solver_module, "mark_attractor", recording)
    monkeypatch.setattr(oracles, "attractor_layers", recording_reference)
    for k, game in enumerate(_zielonka_corpus()):
        calls.clear()
        even, odd = _core(game, bytearray(b"\x01") * game.vertex_count)
        ours = list(calls)
        calls.clear()
        expected = oracle_solve_zielonka(game)
        assert set(even) == expected.won_by_even, k
        assert set(odd) == expected.won_by_odd, k
        assert ours == calls, k
        assert all(list(targets) == sorted(targets) for _, targets, _ in ours), k
        assert solve_zielonka(game) == expected, k


def test_zielonka_restores_a_subgame_the_opponent_takes_whole():
    # Even's attractor to priority 0 is {0}, odd wins the rest {1}, and
    # odd's attractor to {1} is the whole subgame, so no frame carries it
    # on: the core must set those bytes back there and then.
    game = ParityGame((0, 1), (Player.ODD, Player.ODD), ((0, 1), (1,)))
    even, odd = _core(game, bytearray(b"\x01\x01"))
    assert (even, sorted(odd)) == ([], [0, 1])
    # The same happens deep inside this game's recursion.
    game = random_game(37, 37, (1, 3), 2296)
    assert solve_zielonka(game) == oracle_solve_zielonka(game)


def _oracle_cases():
    # The solve-deep benchmark's shape: as many priorities as vertices.
    for n in range(100, 276, 25):
        for seed in range(4):
            yield random_game(n, n, (1, 2), 1000 + 10 * n + seed)
    for n in range(5, 120, 7):
        for max_priority in (0, 1, 2):
            yield random_game(n, max_priority, (1, 3), 7 * n + max_priority)
    for seed in range(12):
        core = random_game(12 + seed, 4, (1, 3), 300 + seed)
        yield inflate(core, duplicates=10, chains=15, seed=seed)[0]


def test_solver_matches_recursive_reference():
    for k, game in enumerate(_oracle_cases()):
        assert solve_zielonka(game) == oracle_solve_zielonka(game), k


def _scattered_union(games, seed):
    """The disjoint union of ``games``, its vertices renamed by a seeded
    permutation so that no game's vertices are contiguous."""
    prios, owners, succs = [], [], []
    for game in games:
        off = len(prios)
        prios += game.priorities
        owners += game.owners
        succs += [[u + off for u in row] for row in game.successors]
    n = len(prios)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    new_prios, new_owners, new_succs = [0] * n, [0] * n, [None] * n
    for v in range(n):
        new_prios[perm[v]] = prios[v]
        new_owners[perm[v]] = owners[v]
        new_succs[perm[v]] = [perm[u] for u in succs[v]]
    return ParityGame(new_prios, new_owners, new_succs)


def test_small_components_are_solved_as_games_of_their_own(monkeypatch):
    # Twelve games side by side: the core runs on each component's part, in
    # the game's own ids.  Some parts are split between the players, which
    # checks that each region is decided in the whole game.
    original = solver_module._zielonka
    parts = []

    def recording(state, owners, preds, succs, prios, part):
        parts.append(list(part))
        return original(state, owners, preds, succs, prios, part)

    monkeypatch.setattr(solver_module, "_zielonka", recording)
    split = 0
    for seed in range(20):
        games = [random_game(6 + k % 10, 20, (2, 3), 100 * seed + k) for k in range(12)]
        game = _scattered_union(games, seed)
        parts.clear()
        expected = oracle_solve_zielonka(game)
        assert solve_zielonka(game) == expected, seed
        assert parts and all(len(part) < game.vertex_count for part in parts), seed
        split += sum(1 for part in parts if expected.won_by_even & set(part) and expected.won_by_odd & set(part))
    assert split >= 5


def test_chained_cores_keep_their_winners():
    # Ground truth by construction: a chain vertex has one successor, and a
    # play sees the priorities of the core play it follows.
    for seed in range(3):
        core = random_game(40, 40, (1, 3), 900 + seed)
        game, end = chain_every_edge(core, max_length=50, seed=seed)
        assert game.vertex_count > 1000
        expected = oracle_solve_zielonka(core)
        regions = solve_zielonka(game)
        assert all(regions.winner(v) == expected.winner(v) for v in core.vertices), seed
        assert all(regions.winner(v) == regions.winner(end[v]) for v in game.vertices), seed


def test_solver_memory_grows_linearly():
    # About four times the vertices may take at most five times the memory.
    core = random_game(200, 200, (1, 2), 1)
    peaks = []
    for length in (40, 160):
        game, _ = chain_every_edge(core, max_length=length, seed=0)
        tracemalloc.start()
        try:
            solve_zielonka(game)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 5 * peaks[0], peaks


def test_bottom_up_sccs_match_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(60):
        n = 1 + seed % 40
        game = random_game(n, 3, (1, min(1 + seed % 3, n)), 50 + seed)
        alive = random.Random(seed).getrandbits(n) if seed % 2 else (1 << n) - 1
        sccs = solver_module._bottom_up_sccs(game.successors, byte_set(alive, n))
        graph = nx.DiGraph()
        graph.add_nodes_from(v for v in game.vertices if alive >> v & 1)
        graph.add_edges_from([(v, u) for v in graph for u in game.successors[v] if alive >> u & 1])
        assert sorted(map(sorted, sccs)) == sorted(map(sorted, nx.strongly_connected_components(graph))), seed
        where = {v: k for k, scc in enumerate(sccs) for v in scc}
        assert all(where[v] >= where[u] for v, u in graph.edges), seed


def test_isolated_self_loops_take_two_attractor_calls(monkeypatch):
    original = solver_module.mark_attractor
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver_module, "mark_attractor", counting)
    regions = solve_zielonka(_self_loops(1600))
    assert regions.won_by_even == frozenset(range(0, 1600, 2))
    assert regions.won_by_odd == frozenset(range(1, 1600, 2))
    assert len(calls) <= 2


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
    arena = InterningArena()
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
    assert solve_buchi(arena) == {a, b}
    ranks = buchi_rank(arena)
    assert ranks[a] == 0
    assert ranks[b] == 1


def test_buchi_ranks_cover_exactly_the_won_positions(random_corpus):
    builds = (build_direct_sim_arena, build_governed_bisim_arena, build_delayed_sim_arena, build_gstut_arena)
    for game in random_corpus:
        for build in builds:
            arena = build(game)
            assert set(buchi_rank(arena)) == solve_buchi(arena)


def test_buchi_spoiler_can_avoid():
    arena = InterningArena()
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
        ranks = buchi_rank(arena)
        for p in won:
            if p in arena.accepting:
                continue
            succ_ranks = [ranks[q] for q in arena.edges[p] if q in won]
            if arena.owners[p] is D:
                assert any(r < ranks[p] for r in succ_ranks)
            else:
                assert all(q in won for q in arena.edges[p])
                assert all(r < ranks[p] for r in succ_ranks)


_BUILDS = {
    "direct": build_direct_sim_arena,
    "governed": build_governed_bisim_arena,
    "delayed": lambda g: build_delayed_sim_arena(g, "none"),
    "delayed_even": lambda g: build_delayed_sim_arena(g, "even"),
    "delayed_odd": lambda g: build_delayed_sim_arena(g, "odd"),
    "gstut": build_gstut_arena,
}


@pytest.mark.parametrize("build", list(_BUILDS.values()), ids=list(_BUILDS))
def test_buchi_matches_reference(build):
    for i, game in enumerate(small_random_games(150, max_n=10, max_priority=3, start_n=2)):
        arena = build(game)
        won = solve_buchi(arena)
        assert won == oracle_solve_buchi(arena), i
        assert buchi_rank(arena) == oracle_buchi_rank(arena), i


def test_builders_carry_predecessor_lists(monkeypatch, random_corpus):
    # Each builder records the lists ``_arena_preds`` would build, in the
    # same order, so solving and ranking its arena never builds them again.
    arenas = [(kind, i, build(g)) for kind, build in _BUILDS.items() for i, g in enumerate(random_corpus)]
    for kind, i, arena in arenas:
        assert arena.predecessors == solver_module._arena_preds(arena), (kind, i)

    def rebuilt(arena):
        raise AssertionError("predecessor lists built again")

    monkeypatch.setattr(solver_module, "_arena_preds", rebuilt)
    for _, _, arena in arenas:
        solve_buchi(arena)
        buchi_rank(arena)
    assert wf_rank_check(random_game(6, 3, (1, 2), 4), bias="none")


def test_interning_arena_drops_stale_predecessors():
    arena, a, b = _two_position_cycle(accepting_first=True)
    assert solve_buchi(arena) == {a, b}
    c = arena.position("c", S)
    arena.add_edge(c, c)
    arena.add_edge(b, c)
    assert solve_buchi(arena) == oracle_solve_buchi(arena)


def test_arena_validate_rejects_dead_positions():
    arena = InterningArena()
    arena.position("stuck", D)
    with pytest.raises(ValueError, match="no moves"):
        solve_buchi(arena)


def test_solve_buchi_names_dead_end_position():
    # Position 1 has no moves; the error names it and its id.
    arena = Arena(owners=[D, S, D], edges=[[1], [], [0]], accepting={0}, ids=[7, 42, 9])
    with pytest.raises(ValueError, match=r"arena position 1 \(id 42\) has no moves"):
        solve_buchi(arena)


@pytest.mark.parametrize(
    ("owners", "edges", "accepting", "message"),
    [
        ([S, D], [[1], [-1]], {0}, r"arena position 1 moves to -1, outside 0\.\.1"),
        ([S, D], [[1], [0, 2]], {0}, r"arena position 1 moves to 2, outside 0\.\.1"),
        ([S, D], [[1], [0]], {0, 2}, r"accepting position 2 is outside 0\.\.1"),
        ([S, D], [[1], [0], [0]], {0}, "arena has 2 owners but 3 move rows"),
    ],
    ids=["negative-move", "move-past-end", "accepting-past-end", "unequal-lengths"],
)
def test_solve_buchi_rejects_ids_outside_the_arena(owners, edges, accepting, message):
    # Python would read move -1 as the last position, and ids at or past
    # the end would fail with a bare IndexError or not at all.
    arena = Arena(owners=owners, edges=edges, accepting=accepting)
    for solve in (solve_buchi, buchi_rank, oracle_solve_buchi):
        with pytest.raises(ValueError, match=message):
            solve(arena)


def test_arena_predecessors_are_not_caller_supplied():
    # Lists that the solver would read unchecked cannot be passed in, so the
    # arena is validated and its move to -1 named.
    with pytest.raises(TypeError, match="predecessors"):
        Arena(owners=[S, D], edges=[[1], [-1]], accepting={0}, predecessors=[[1], [0]])
    arena = Arena(owners=[S, D], edges=[[1], [-1]], accepting={0})
    for solve in (solve_buchi, buchi_rank):
        with pytest.raises(ValueError, match=r"^arena position 1 moves to -1, outside 0\.\.1$"):
            solve(arena)


def _target_sets(arena) -> int:
    """How many distinct target sets the Buchi fixpoint visits: the accepting
    positions, then the accepting ones from which Duplicator re-enters the
    last set's attractor in one move, until a set repeats."""
    targets = set(arena.accepting)
    count = 1
    while True:
        attractor = set(oracles._oracle_duplicator_layers(arena, targets))
        kept = arena.accepting & oracles._oracle_cpre_duplicator(arena, attractor)
        if kept == targets:
            return count
        targets = kept
        count += 1


def test_buchi_runs_one_attractor_per_target_set(monkeypatch, random_corpus):
    calls = 0
    original = solver_module._duplicator_attractor

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(solver_module, "_duplicator_attractor", counting)
    # Accepting 0, 1 and 2; 2 moves only to the losing loop 3, so it drops
    # first, then 1, which moves only to 2; Spoiler at 4 moves to 1.
    chain = Arena(owners=[D, D, D, D, S], edges=[[0], [2], [3], [3], [0, 1]], accepting={0, 1, 2})
    assert _target_sets(chain) == 3
    assert solve_buchi(chain) == {0}
    arenas = [chain] + [build(g) for build in _BUILDS.values() for g in random_corpus]
    for i, arena in enumerate(arenas):
        expected = _target_sets(arena)
        for solve, oracle in ((solve_buchi, oracle_solve_buchi), (buchi_rank, oracle_buchi_rank)):
            calls = 0
            assert solve(arena) == oracle(arena), (i, solve.__name__)
            assert calls == expected, (i, solve.__name__)
