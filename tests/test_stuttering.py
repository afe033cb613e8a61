"""Stuttering refinement and quotients against references and ground truth."""
import pytest

import pgreduce.relations
from conftest import small_random_games
from inflation import inflate
from oracles import (
    oracle_gstut_bisim,
    oracle_quotient_gstut,
    oracle_quotient_stut,
    oracle_stut_bisim,
)
from pgreduce import (
    ParityGame,
    Player,
    gstut_bisim,
    quotient_gstut,
    quotient_stut,
    random_game,
    serialize_pgsolver,
    stut_bisim,
)


def _differential_corpus():
    small = small_random_games(300, max_n=12, max_priority=4, max_degree=3, start_n=2)
    mid = [random_game(n, 5, (1, 3), 900 + n) for n in (40, 55, 65, 80)]
    # Few priorities give large classes, where refinement takes many rounds.
    mid += [random_game(n, 1, (1, 2), 950 + n) for n in (45, 70)]
    return small + mid


@pytest.mark.parametrize(
    "build, oracle",
    [(quotient_gstut, oracle_quotient_gstut), (quotient_stut, oracle_quotient_stut)],
    ids=["gstut", "stut"],
)
def test_quotients_match_reference(build, oracle):
    for i, game in enumerate(_differential_corpus()):
        got, want = build(game), oracle(game)
        assert got.class_map == want.class_map, i
        assert serialize_pgsolver(got.quotient) == serialize_pgsolver(want.quotient), i


@pytest.mark.parametrize(
    "relation, oracle",
    [(gstut_bisim, oracle_gstut_bisim), (stut_bisim, oracle_stut_bisim)],
    ids=["gstut", "stut"],
)
def test_partitions_match_reference(relation, oracle):
    for i, game in enumerate(_differential_corpus()):
        assert relation(game) == oracle(game), i


@pytest.mark.parametrize("relation", [gstut_bisim, stut_bisim], ids=["gstut", "stut"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inflation_keeps_core_classes(relation, seed):
    core = random_game(30, 4, (1, 3), 500 + seed)
    game, origin = inflate(core, duplicates=90, chains=60, seed=seed)
    assert game.vertex_count >= 200
    want = relation(core)
    got = relation(game)
    assert got.class_count == want.class_count
    for v in game.vertices:
        assert got.same_class(v, origin[v]), v
    for v in core.vertices:
        for w in core.vertices:
            assert got.same_class(v, w) == want.same_class(v, w)


def _count_sign_calls(monkeypatch, game):
    calls = 0
    table = pgreduce.relations._BISIMILARITIES
    by_owner, original, read = table["gstut"]

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setitem(table, "gstut", (by_owner, counting, read))
    part = gstut_bisim(game)
    monkeypatch.setitem(table, "gstut", (by_owner, original, read))
    return calls, part


def _cycle_pairs(k: int) -> ParityGame:
    # Pair j = {2j, 2j+1}, both of priority j, on a two-cycle; 2j+1 may also
    # leave for the next pair.  Each class has one successor class and the
    # first round is stable.
    prios = [j for j in range(k) for _ in (0, 1)]
    succs = []
    for j in range(k):
        succs.append((2 * j + 1,))
        succs.append((2 * j, 2 * (j + 1) % (2 * k)))
    return ParityGame(tuple(prios), (Player.EVEN,) * (2 * k), tuple(succs))


def _stutter_blocks(blocks: int) -> ParityGame:
    # A path of two-vertex blocks with alternating priorities, ending in a
    # self-loop.  Every block is its own class, and each round splits off
    # one more block from the end.
    n = 2 * blocks
    prios = [(v // 2) % 2 for v in range(n)]
    succs = [(v + 1,) for v in range(n - 1)] + [(n - 1,)]
    return ParityGame(tuple(prios), (Player.EVEN,) * n, tuple(succs))


def test_sign_calls_linear_on_one_round_family(monkeypatch):
    for k in (10, 20, 40):
        calls, part = _count_sign_calls(monkeypatch, _cycle_pairs(k))
        assert part.class_count == k
        # The first round is stable, so each class is signed once.
        assert calls == k


def test_sign_calls_linear_over_many_rounds(monkeypatch):
    counts = {}
    for blocks in (8, 16, 32):
        calls, part = _count_sign_calls(monkeypatch, _stutter_blocks(blocks))
        assert part.class_count == blocks
        counts[blocks] = calls
    # One block splits per round and only its neighbours are signed again,
    # so doubling the length about doubles the calls.  Re-signing every
    # class each round would grow them fourfold.
    assert counts[8] > 0
    assert counts[16] <= 2.5 * counts[8]
    assert counts[32] <= 2.5 * counts[16]
