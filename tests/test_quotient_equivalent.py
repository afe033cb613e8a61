"""The quotient certificate against the full re-refinement of the union.

For a bisimilarity ``quotient_equivalent`` starts the union's refinement
from the relation the quotient claims; for ``direct-sim`` it checks once
that the quotient's preorder, read through the class map, is a direct
simulation of the union.  ``oracle_quotient_equivalent`` computes the
kind's relation on the union from scratch.  Both must give the same
verdict on right quotients, on non-minimal ones, on class maps with one
vertex moved and on doctored quotients.  A minimal bisimilarity quotient is
certified from its class map alone, without computing the bisimilarity on
the quotient.
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
    direct_sim,
    parse_pgsolver,
    quotient_direct_sim,
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
        # 0.0 equals 0 and passes a range check, but is no vertex.
        ((0.5, 0), r"^vertex 0 has non-integer class 0\.5$"),
        ((0, 0.0), r"^vertex 1 has non-integer class 0\.0$"),
        (("0", "0"), r"^vertex 0 has non-integer class '0'$"),
    ],
    ids=["negative", "too-high", "short", "long", "fraction", "float", "string"],
)
def test_invalid_class_map_rejected(class_map, message, check):
    for kind, build in EQUIVALENCES.items():
        quotient = build(TWO_LOOPS).quotient
        assert quotient.vertex_count == 1
        with pytest.raises(ValueError, match=message):
            check(TWO_LOOPS, QuotientResult(quotient, class_map, kind))
        # A bool is an integer, as it is for ParityGame.
        assert check(TWO_LOOPS, QuotientResult(quotient, (False, False), kind))


def _doctored(result: QuotientResult, rng: random.Random) -> list[QuotientResult]:
    """The quotient with two classes merged, an owner flipped, an edge
    dropped and a priority raised, each where the quotient allows it."""
    quotient, class_map, kind = result.quotient, result.class_map, result.kind
    q = quotient.vertex_count
    prios, owners = list(quotient.priorities), [int(o) for o in quotient.owners]
    succs = [list(row) for row in quotient.successors]
    out = []

    def add(prios, owners, succs, class_map=class_map):
        out.append(QuotientResult(ParityGame(prios, owners, succs), tuple(class_map), kind))

    d = rng.randrange(q)
    add(prios, [o ^ (e == d) for e, o in enumerate(owners)], succs)
    add([p + (e == d) for e, p in enumerate(prios)], owners, succs)
    several = [e for e in range(q) if len(succs[e]) > 1]
    if several:
        e = rng.choice(several)
        dropped = rng.choice(succs[e])
        add(prios, owners, [[u for u in row if (f, u) != (e, dropped)] for f, row in enumerate(succs)])
    if q > 1:
        # Class b joins class a, with b's successors; the classes above b move down.
        a, b = rng.sample(range(q), 2)
        renamed = [e - (e > b) for e in range(q)]
        renamed[b] = renamed[a]
        kept = [e for e in range(q) if e != b]
        merged = [sorted({renamed[u] for u in succs[e] + (succs[b] if e == a else [])}) for e in kept]
        add([prios[e] for e in kept], [owners[e] for e in kept], merged, [renamed[c] for c in class_map])
    return out


def _small_games() -> list[ParityGame]:
    games = []
    for seed in range(40):
        n = 3 + seed % 18
        game = random_game(n, 4, (1, 3), 900 + seed)
        games.append(inflate(game, n, n // 2, seed)[0] if seed % 2 else game)
    return games


def _doctored_corpus(kind: str) -> list[tuple[ParityGame, QuotientResult]]:
    rng = random.Random(f"doctored {kind}")
    return [
        (game, doctored)
        for game in _corpus() + _small_games()
        for doctored in _doctored(EQUIVALENCES[kind](game), rng)
    ]


@pytest.mark.parametrize("kind", sorted(EQUIVALENCES))
def test_doctored_quotients_agree_with_full_refinement(kind):
    verdicts = [_verdict(game, doctored) for game, doctored in _doctored_corpus(kind)]
    # Most doctored quotients are wrong; for the kinds that do not split by
    # owner, some (an immaterial owner, say) are still right.
    assert verdicts.count(False) >= 150, verdicts.count(False)


def _every_equal_priority_pair(quotient: ParityGame) -> tuple[int, ...]:
    return tuple(
        sum(1 << e for e, pe in enumerate(quotient.priorities) if pe == p) for p in quotient.priorities
    )


def _one_diagonal_pair_missing(quotient: ParityGame) -> tuple[int, ...]:
    rows = direct_sim(quotient)
    return (rows[0] & ~1, *rows[1:])


def _every_pair(quotient: ParityGame) -> tuple[int, ...]:
    return ((1 << quotient.vertex_count) - 1,) * quotient.vertex_count


@pytest.mark.parametrize(
    "candidate, refused",
    [
        (_every_equal_priority_pair, None),
        (_one_diagonal_pair_missing, lambda quotient: True),
        (_every_pair, lambda quotient: len(set(quotient.priorities)) > 1),
    ],
    ids=["equal-priority", "non-reflexive", "unequal-priority"],
)
def test_direct_sim_certificate_does_not_trust_the_quotient_preorder(candidate, refused, monkeypatch):
    # Wrong quotients, by the oracle: doctored ones and right ones with one vertex moved.
    rng = random.Random(1)
    cases = _doctored_corpus("direct-sim")
    for game in _corpus() + _small_games():
        result = quotient_direct_sim(game)
        q = result.quotient.vertex_count
        if q > 1:
            class_map = list(result.class_map)
            v = rng.randrange(game.vertex_count)
            class_map[v] = rng.choice([c for c in range(q) if c != class_map[v]])
            cases.append((game, QuotientResult(result.quotient, tuple(class_map), "direct-sim")))
    wrong = [(game, result) for game, result in cases if not oracle_quotient_equivalent(game, result)]
    assert len(wrong) >= 150, len(wrong)
    right = [(game, quotient_direct_sim(game)) for game in _corpus()]
    monkeypatch.setattr(quotient_module, "direct_sim", candidate)
    for game, result in wrong:
        assert not quotient_equivalent(game, result), (game, result)
    if refused is not None:
        # A candidate that is not reflexive, or relates two priorities, is
        # refused whatever the quotient.
        checked = [(game, result) for game, result in right if refused(result.quotient)]
        assert len(checked) >= len(right) // 2
        for game, result in checked:
            assert not quotient_equivalent(game, result)
