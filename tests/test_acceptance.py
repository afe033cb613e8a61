"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The exhaustive corpus holds one representative per isomorphism
class of all total games with up to 3 vertices, out-degree at most 2 and
priorities at most 2; every checked property is invariant under vertex
renaming, so this covers the whole space.
"""
import random as stdlib_random
import time

import pytest

from conftest import small_random_games
from oracles import is_isomorphism, oracle_diverges, oracle_forces, oracle_winner
from pgreduce import (
    Player,
    coincidence_check,
    delayed_sim,
    direct_sim,
    diverges,
    equivalence_from_preorder,
    find_isomorphism,
    forces,
    governed_bisim,
    gstut_bisim,
    quotient_direct_sim,
    quotient_equivalent,
    quotient_governed_bisim,
    quotient_gstut,
    random_game,
    solve_zielonka,
    stut_bisim,
    strong_bisim,
    strong_direct_sim,
    verify_preservation,
    wf_rank_check,
)
from pgreduce.forcing import iter_bits
from pgreduce.lattice import LATTICE_EDGES, compute_relations

NOTIONS = ("direct", "governed_bisim", "gstut", "delayed", "delayed_even", "delayed_odd")


def _report(number, description, started):
    print(f"PASS criterion {number}: {description} ({time.time() - started:.1f}s)")


def test_criterion_1_fixture_facts(all_fixture_games):
    started = time.time()
    fake = all_fixture_games["fake_divergence"]
    escape = all_fixture_games["escape_edge"]
    chain = all_fixture_games["delayed_chain"]
    cross = all_fixture_games["cross_owner"]
    single = all_fixture_games["single_move_owners"]
    both = all_fixture_games["cycle_vs_loop"]

    # escape edge: one-directional direct simulation
    d = direct_sim(escape)
    assert d[0] >> 1 & 1 and d[0] >> 2 & 1 and d[2] >> 0 & 1
    assert all(d[v] >> v & 1 for v in escape.vertices)
    assert not d[1] >> 0 & 1

    # delayed chain: the delayed preorder is total
    de = delayed_sim(chain)
    assert all(de[v] >> w & 1 for v in chain.vertices for w in chain.vertices)

    # cross owner: the four frozen relation facts
    gov = governed_bisim(cross)
    dk = equivalence_from_preorder(direct_sim(cross))
    sd = equivalence_from_preorder(strong_direct_sim(cross))
    assert gov.same_class(2, 3)
    assert dk.same_class(0, 1) and dk.same_class(0, 6) and dk.same_class(1, 6)
    assert gov.same_class(0, 6) and not sd.same_class(0, 6)
    assert sd.same_class(0, 1) and not gov.same_class(0, 1)

    # fake divergence: the priority-0 cluster is one class, nobody diverges
    part = gstut_bisim(fake)
    prio0 = 0b11011
    assert part.as_relation()[0] == prio0
    assert part.as_relation()[2] == 0b00100
    for v in (0, 1, 3, 4):
        for player in Player:
            assert not diverges(fake, player, v, prio0)

    # single-move owners: strong-minimal, governed merges across owners
    assert strong_bisim(single).class_count == 3
    assert governed_bisim(single).same_class(1, 2)

    # cycle vs loop: strongly bisimilar, not isomorphic
    assert strong_bisim(both).class_count == 1
    assert find_isomorphism(both, both, pin=(0, 2)) is None
    _report(1, "all frozen fixture facts hold exactly", started)


def test_criterion_2_coincidence(exhaustive_corpus, random_corpus):
    started = time.time()
    for game in exhaustive_corpus + random_corpus:
        for notion in NOTIONS:
            assert coincidence_check(game, notion), (game, notion)
    _report(
        2,
        f"game-based = coinductive on {len(exhaustive_corpus)} exhaustive "
        f"+ {len(random_corpus)} random games",
        started,
    )


def test_criterion_3_lattice(exhaustive_corpus, random_corpus, all_fixture_games):
    started = time.time()
    for game in exhaustive_corpus + random_corpus:
        rels = compute_relations(game)
        for finer, coarser in LATTICE_EDGES:
            assert rels[finer].refines(rels[coarser]), (game, finer, coarser)

    # strictness witnesses, one fixture per lattice edge
    fake = all_fixture_games["fake_divergence"]
    cross = all_fixture_games["cross_owner"]
    chain = all_fixture_games["delayed_chain"]
    single = all_fixture_games["single_move_owners"]
    both = all_fixture_games["cycle_vs_loop"]
    gap = all_fixture_games["biased_gap"]
    witnesses = {
        ("iso", "strong-bisim"): (both, 0, 2),
        ("strong-bisim", "stut"): (fake, 3, 4),
        ("strong-bisim", "governed-bisim"): (single, 1, 2),
        ("strong-bisim", "strong-direct-sim-equiv"): (cross, 0, 1),
        ("stut", "gstut"): (fake, 0, 1),
        ("governed-bisim", "gstut"): (fake, 0, 1),
        ("governed-bisim", "direct-sim-equiv"): (cross, 0, 1),
        ("strong-direct-sim-equiv", "direct-sim-equiv"): (cross, 0, 6),
        ("direct-sim-equiv", "delayed-even-equiv"): (chain, 0, 1),
        ("direct-sim-equiv", "delayed-odd-equiv"): (gap, 0, 1),
        ("delayed-even-equiv", "delayed-equiv"): (gap, 0, 1),
        ("delayed-odd-equiv", "delayed-equiv"): (chain, 0, 1),
        ("delayed-equiv", "winner"): (fake, 0, 2),
        ("gstut", "winner"): (fake, 0, 2),
    }
    assert set(witnesses) == set(LATTICE_EDGES)
    for (finer, coarser), (game, v, w) in witnesses.items():
        rels = compute_relations(game)
        assert rels[coarser].same_class(v, w), (finer, coarser)
        assert not rels[finer].same_class(v, w), (finer, coarser)

    # incomparability witnesses
    rels = compute_relations(fake)
    assert rels["stut"].same_class(3, 4) and not rels["direct-sim-equiv"].same_class(3, 4)
    rels = compute_relations(cross)
    assert rels["governed-bisim"].same_class(0, 6)
    assert not rels["strong-direct-sim-equiv"].same_class(0, 6)
    _report(3, "all inclusion edges hold; every strict edge witnessed", started)


def test_criterion_4_quotients(exhaustive_corpus, random_corpus):
    started = time.time()
    kinds = (quotient_direct_sim, quotient_governed_bisim, quotient_gstut)
    for game in exhaustive_corpus + random_corpus:
        for fn in kinds:
            result = fn(game)
            q = result.quotient
            # (a) valid total parity game with dense classes
            assert q.vertex_count == len(set(result.class_map))
            assert all(q.successors[c] for c in q.vertices)
            # (b) equivalent to the original under the defining equivalence
            assert quotient_equivalent(game, result), (game, result.kind)
            # (c) winners preserved vertex-wise
            assert verify_preservation(game, result), (game, result.kind)
            # (d) quotienting again changes nothing up to isomorphism: the
            # second quotient's class map is one
            again = fn(q)
            assert is_isomorphism(q, again.quotient, again.class_map), (game, result.kind)
    _report(4, "quotient validity, equivalence, preservation, idempotence", started)


def test_criterion_5_forcing_properties():
    started = time.time()
    for seed in range(200):
        n = 2 + seed % 5  # up to 6 vertices
        game = random_game(n, 3, (1, min(2, n)), seed)
        rng = stdlib_random.Random(seed)
        full = (1 << n) - 1
        for _ in range(4):
            u = rng.randrange(full + 1)
            t = rng.randrange(full + 1)
            u_set, t_set = set(iter_bits(u)), set(iter_bits(t))
            for v in rng.sample(range(n), min(3, n)):
                for player in Player:
                    # attractor membership matches strategy enumeration
                    lib = forces(game, player, v, u, t)
                    assert lib == oracle_forces(game, player, v, u, t)
                    # one of the players can always force
                    assert lib or forces(game, player.opponent, v, u, full & ~t)
                    # divergence duality, grounded in the oracle
                    div = diverges(game, player, v, u)
                    assert div == (not forces(game, player.opponent, v, u, full & ~u))
                    assert div == oracle_diverges(game, player, v, u)
                    # gluing through an intermediate target
                    t2 = rng.randrange(full + 1)
                    if lib and all(forces(game, player, x, u, t2) for x in t_set):
                        assert forces(game, player, v, u, t2)
                    # players forcing to disjoint far targets is impossible
                    t_opp = rng.randrange(full + 1)
                    if forces(game, player, v, u, t) and forces(
                        game, player.opponent, v, u, t_opp
                    ):
                        assert any(
                            a == b or a in u_set or b in u_set
                            for a in t_set
                            for b in iter_bits(t_opp)
                        )
                    # forcing needs an exit the player controls or owns fully
                    exits = [x for x in u_set if set(game.successors[x]) & t_set]
                    if lib and v not in t_set:
                        assert any(game.owners[x] is player for x in exits) or any(
                            set(game.successors[x]) <= t_set for x in exits
                        )
                    # shrinking a disjoint target below all one-step exits
                    # is harmless (only sound for targets disjoint from U)
                    t_d = t & ~u
                    t_min = {
                        s for x in u_set for s in game.successors[x] if s not in u_set
                    }
                    if v in u_set and t_min <= set(iter_bits(t_d)):
                        extra = {x for x in iter_bits(t_d) if rng.random() < 0.5}
                        t_small = sum(1 << x for x in t_min | extra)
                        if forces(game, player, v, u, t_d):
                            assert forces(game, player, v, u, t_small)
    _report(5, "forcing-layer properties vs brute-force oracles, 200 seeds", started)


def test_criterion_6_wellfounded_ranks(exhaustive_corpus, random_corpus):
    started = time.time()
    for game in exhaustive_corpus + random_corpus:
        for bias in ("none", "even", "odd"):
            assert wf_rank_check(game, bias), (game, bias)
    _report(6, "extracted ranks witness well-founded delayed simulation", started)


def test_criterion_7_solver_oracle(exhaustive_corpus):
    started = time.time()
    checked = 0
    for game in exhaustive_corpus:
        regions = solve_zielonka(game)
        for v in game.vertices:
            assert regions.winner(v) == oracle_winner(game, v)
        checked += 1
    # degree <= 2 games on 4 and 5 vertices: seeded systematic sample
    samples = []
    for n in (4, 5):
        samples += [random_game(n, 4, (1, 2), seed) for seed in range(300)]
    samples += small_random_games(200, max_n=6, max_priority=3, max_degree=2)
    for game in samples:
        regions = solve_zielonka(game)
        for v in game.vertices:
            assert regions.winner(v) == oracle_winner(game, v)
        checked += 1
    _report(7, f"Zielonka vs strategy enumeration on {checked} games", started)
