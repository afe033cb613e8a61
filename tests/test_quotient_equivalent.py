"""The quotient certificate against the full re-refinement of the union.

``quotient_equivalent`` starts the union's fixpoint from the relation the
quotient claims; ``oracle_quotient_equivalent`` refines the union from the
kind's initial partition.  Both must give the same verdict on right
quotients, on non-minimal ones and on class maps with one vertex moved.
A minimal bisimilarity quotient is certified from its class map alone,
without computing the bisimilarity on the quotient.
"""
import random

import pytest

import test_byte_identity
from inflation import inflate
from oracles import oracle_quotient_equivalent
from pgreduce import (
    EQUIVALENCES,
    ParityGame,
    QuotientResult,
    parse_pgsolver,
    quotient_equivalent,
    random_game,
    verify_preservation,
)
from pgreduce import quotient as quotient_module

MUTATIONS_PER_GAME = 6

# Vertex 2 maps onto vertex 0, which it is bisimilar to: both have priority
# 1 and move to one of the two equivalent priority-0 loops.
NON_MINIMAL = ParityGame((1, 0, 1, 0), (0, 0, 0, 0), ((1,), (1,), (3,), (3,)))
NON_MINIMAL_MAP = (0, 1, 0, 3)


def _corpus() -> list[ParityGame]:
    games = [parse_pgsolver(data) for data in test_byte_identity._games().values()]
    for seed in range(4):
        core = random_game(20, 4, (1, 3), 700 + seed)
        games.append(inflate(core, duplicates=20, chains=10, seed=seed)[0])
    return games


def _verdict(game: ParityGame, result: QuotientResult) -> bool:
    got = quotient_equivalent(game, result)
    assert got == oracle_quotient_equivalent(game, result), (game, result)
    return got


@pytest.mark.parametrize("kind", sorted(EQUIVALENCES))
def test_agrees_with_full_refinement(kind):
    rng = random.Random(kind)
    rejected = 0
    for game in _corpus():
        result = EQUIVALENCES[kind](game)
        assert _verdict(game, result)
        identity = QuotientResult(game, tuple(game.vertices), kind)
        assert _verdict(game, identity)
        q = result.quotient.vertex_count
        if q < 2:
            continue
        # The quotient's vertices are pairwise inequivalent, so a vertex is
        # equivalent to its own class only, and a map that moves it is wrong.
        for _ in range(MUTATIONS_PER_GAME):
            class_map = list(result.class_map)
            v = rng.randrange(game.vertex_count)
            class_map[v] = rng.choice([c for c in range(q) if c != class_map[v]])
            assert not _verdict(game, QuotientResult(result.quotient, tuple(class_map), kind))
            rejected += 1
    assert rejected >= 40


@pytest.mark.parametrize("kind", sorted(EQUIVALENCES))
def test_non_minimal_quotient_onto_itself(kind):
    # A start that kept the quotient's vertices apart would split {0, 2}.
    assert _verdict(NON_MINIMAL, QuotientResult(NON_MINIMAL, NON_MINIMAL_MAP, kind))


@pytest.mark.parametrize("kind", sorted(EQUIVALENCES))
def test_minimal_quotient_certified_from_its_class_map(kind, monkeypatch):
    # Every quotient a builder makes is minimal, so a bisimilarity's
    # certificate never refines it on its own; direct-sim always starts
    # from the quotient's preorder.  The non-minimal fixture needs the
    # quotient's own relation, and gets it once.
    results = [(game, EQUIVALENCES[kind](game)) for game in _corpus()]
    name = "direct_sim" if kind == "direct-sim" else "_refine"
    relation = getattr(quotient_module, name)
    quotients = {id(result.quotient) for _, result in results} | {id(NON_MINIMAL)}
    calls = []

    def recorded(game, *args):
        # The refinements of the union are the certificate's own work.
        if id(game) in quotients:
            calls.append(game)
        return relation(game, *args)

    monkeypatch.setattr(quotient_module, name, recorded)
    for game, result in results:
        assert quotient_equivalent(game, result)
    assert calls == ([result.quotient for _, result in results] if kind == "direct-sim" else [])
    calls.clear()
    assert quotient_equivalent(NON_MINIMAL, QuotientResult(NON_MINIMAL, NON_MINIMAL_MAP, kind))
    assert calls == [NON_MINIMAL]


@pytest.mark.parametrize("kind", sorted(EQUIVALENCES))
def test_class_of_another_priority_rejected(kind):
    # Two self-loops that differ only in priority: mapping both onto the
    # priority-1 loop keeps every edge, so only the priorities tell.
    game = ParityGame((0, 1), (0, 0), ((0,), (1,)))
    assert not _verdict(game, QuotientResult(game, (1, 1), kind))


# Two equivalent priority-0 self-loops: every quotient has one vertex.
TWO_LOOPS = ParityGame((0, 0), (0, 0), ((0,), (1,)))


@pytest.mark.parametrize("check", [quotient_equivalent, verify_preservation], ids=["equivalent", "preservation"])
@pytest.mark.parametrize(
    "class_map, message",
    [
        # -1 would read as the union's last game vertex, which is equivalent.
        ((0, -1), r"^vertex 1 maps to class -1, outside 0\.\.0$"),
        ((0, 1), r"^vertex 1 maps to class 1, outside 0\.\.0$"),
        ((0,), r"^class map has no class for vertex 1$"),
        ((0, 0, 0), r"^class map names vertex 2, outside 0\.\.1$"),
    ],
    ids=["negative", "too-high", "short", "long"],
)
def test_invalid_class_map_rejected(class_map, message, check):
    for kind, build in EQUIVALENCES.items():
        quotient = build(TWO_LOOPS).quotient
        assert quotient.vertex_count == 1
        with pytest.raises(ValueError, match=message):
            check(TWO_LOOPS, QuotientResult(quotient, class_map, kind))
