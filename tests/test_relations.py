import random
from itertools import product

import pytest

from pgreduce import (
    ParityGame,
    Partition,
    Player,
    VertexRelation,
    direct_sim,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    random_game,
    strong_bisim,
    strong_direct_sim,
    stut_bisim,
)
from inflation import inflate
from oracles import (
    oracle_direct_sim_fixpoint,
    oracle_governed_bisim,
    oracle_sign_class,
    oracle_strong_bisim,
    oracle_validate,
)
from pgreduce.relations import (
    _direct_sim_fixpoint,
    _initial_partition,
    _refine,
    _refine_classes,
    _sign_class,
    _sign_successors,
)


def _larger_games() -> list[ParityGame]:
    # Random games of 20-80 vertices barely reduce, so each is paired with
    # an inflated game of about that size, whose duplicates are strongly
    # bisimilar and whose chains stutter-equivalent to their origins.
    larger = []
    for seed in range(30):
        larger.append(random_game(20 + 2 * seed, 1 + seed % 3, (1, 3), seed))
        core = random_game(10 + seed, 1 + seed % 3, (1, 3), seed)
        larger.append(inflate(core, 10 + seed, seed % 4, seed)[0])
    return larger


def _message(relation: VertexRelation, validate) -> str | None:
    try:
        validate(relation)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidator:
    # The error names the first failing pair in (v, w) order.
    def test_rejects_irreflexive(self):
        rel = VertexRelation(2, (0b01, 0b00), "preorder")
        with pytest.raises(ValueError, match=r"^relation not reflexive at 1$"):
            rel.validate()

    def test_rejects_intransitive(self):
        rel = VertexRelation(3, (0b011, 0b110, 0b100), "preorder")
        with pytest.raises(ValueError, match=r"^relation not transitive through \(0, 1\)$"):
            rel.validate()

    def test_rejects_asymmetric_equivalence(self):
        rel = VertexRelation(2, (0b11, 0b10), "equivalence")
        with pytest.raises(ValueError, match=r"^relation not symmetric at \(0, 1\)$"):
            rel.validate()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            VertexRelation(1, (1,), "poset")

    def test_matches_pairwise_reference(self):
        # Every relation on three vertices, and relations on six vertices
        # one bit away from a preorder or a partition, including rows that
        # repeat: each check walks a repeated row only once.
        relations = [
            VertexRelation(3, rows, kind)
            for rows in product(range(8), repeat=3)
            for kind in ("preorder", "equivalence")
        ]
        rng = random.Random(5)
        for _ in range(300):
            game = random_game(6, 2, (1, 3), rng.randrange(10**6))
            for rel in (direct_sim(game), gstut_bisim(game).as_relation()):
                rows = list(rel.rows)
                v, w = rng.randrange(6), rng.randrange(6)
                rows[v] ^= 1 << w
                relations.append(VertexRelation(6, tuple(rows), rel.kind))
        failures = set()
        for rel in relations:
            want = _message(rel, oracle_validate)
            assert _message(rel, VertexRelation.validate) == want, rel
            failures.add(want.split()[2] if want else None)
        assert failures == {"reflexive", "transitive", "symmetric", None}


class TestPartition:
    def test_from_blocks_checks_cover_and_disjoint(self):
        with pytest.raises(ValueError):
            Partition.from_blocks(3, [[0, 1]])
        with pytest.raises(ValueError):
            Partition.from_blocks(2, [[0, 1], [1]])

    def test_classes_ordered_by_least_vertex(self):
        part = Partition.from_blocks(4, [[3, 1], [2, 0]])
        assert [list(c) for c in part.classes] == [[0, 2], [1, 3]]
        assert part.class_of == (0, 1, 0, 1)


def test_direct_sim_escape_edge(escape_edge):
    rel = direct_sim(escape_edge)
    assert rel.holds(0, 1)
    assert rel.holds(0, 2) and rel.holds(2, 0)
    assert not rel.holds(1, 0)
    rel.validate()


def test_direct_sim_reflexive_everywhere(random_corpus):
    for game in random_corpus[:20]:
        rel = direct_sim(game)
        assert all(rel.holds(v, v) for v in game.vertices)


def test_direct_sim_cross_owner_triangle(cross_owner):
    kernel = equivalence_from_preorder(direct_sim(cross_owner))
    assert kernel.same_class(0, 1) and kernel.same_class(0, 6)


def test_strong_direct_sim_cross_owner(cross_owner):
    rel = strong_direct_sim(cross_owner)
    assert rel.holds(0, 1) and rel.holds(1, 0)
    assert not rel.holds(0, 6)


def test_strong_direct_refines_direct(random_corpus):
    for game in random_corpus[:30]:
        assert strong_direct_sim(game).is_subrelation(direct_sim(game))


def test_governed_bisim_cross_owner(cross_owner):
    part = governed_bisim(cross_owner)
    assert part.same_class(2, 3)
    assert part.same_class(0, 6)
    assert not part.same_class(0, 1)


def test_governed_bisim_single_move_owners(single_move_owners):
    part = governed_bisim(single_move_owners)
    assert part.same_class(1, 2)
    assert part.class_count == 2


def test_governed_classes_respect_priorities(random_corpus):
    for game in random_corpus[:30]:
        part = governed_bisim(game)
        for cls in part.classes:
            prios = {game.priorities[v] for v in cls}
            assert len(prios) == 1


def test_strong_bisim_single_move_owners_minimal(single_move_owners):
    assert strong_bisim(single_move_owners).class_count == 3


def test_strong_bisim_cycle_vs_loop(cycle_vs_loop):
    part = strong_bisim(cycle_vs_loop)
    assert part.class_count == 1


def test_strong_refines_governed(random_corpus):
    for game in random_corpus[:30]:
        assert strong_bisim(game).refines(governed_bisim(game))


def test_gstut_fake_divergence(fake_divergence):
    part = gstut_bisim(fake_divergence)
    assert part.class_count == 2
    assert all(part.same_class(0, v) for v in (1, 3, 4))
    assert not part.same_class(0, 2)


def test_gstut_single_class_when_all_divergent():
    g = ParityGame((0, 0), (0, 1), ((1,), (0,)))
    assert gstut_bisim(g).class_count == 1


def test_gstut_cross_owner_keeps_governed_pairs(cross_owner):
    part = gstut_bisim(cross_owner)
    assert part.same_class(2, 3)


def test_stut_fake_divergence(fake_divergence):
    part = stut_bisim(fake_divergence)
    assert part.same_class(3, 4)
    assert not part.same_class(0, 3)
    assert not part.same_class(0, 1)


def test_stut_singleton_game():
    g = ParityGame((0,), (1,), ((0,),))
    assert stut_bisim(g).class_count == 1


def test_stut_refines_gstut(random_corpus):
    for game in random_corpus[:30]:
        assert stut_bisim(game).refines(gstut_bisim(game))


def test_kernel_of_identity_preorder():
    rel = VertexRelation(3, (0b001, 0b010, 0b100), "preorder")
    part = equivalence_from_preorder(rel)
    assert part.class_count == 3


def test_kernel_escape_edge(escape_edge):
    part = equivalence_from_preorder(direct_sim(escape_edge))
    assert [sorted(c) for c in part.classes] == [[0, 2], [1], [3]]


def test_kernel_rejects_non_preorder():
    rel = VertexRelation(1, (1,), "equivalence")
    with pytest.raises(ValueError):
        equivalence_from_preorder(rel)


def test_fixpoints_are_stable(random_corpus):
    # Re-running one refinement/deletion pass must change nothing.
    for game in random_corpus[:20]:
        rel = direct_sim(game)
        assert _direct_sim_fixpoint(game, list(rel.rows)) == rel.rows
        part = gstut_bisim(game)
        assert _refine(game, part, _sign_class) == part
        for bisim in (governed_bisim, strong_bisim):
            part = bisim(game)
            assert _refine(game, part, _sign_successors) == part


@pytest.mark.parametrize(
    "bisim, oracle",
    [(governed_bisim, oracle_governed_bisim), (strong_bisim, oracle_strong_bisim)],
    ids=["governed", "strong"],
)
def test_bisim_refinement_matches_pair_deletion(bisim, oracle, exhaustive_corpus, random_corpus):
    # Signature refinement against the largest symmetric direct simulation,
    # computed by pair deletion; strong bisimilarity has no game route, so
    # this is its independent check.
    for game in exhaustive_corpus + random_corpus + _larger_games():
        assert bisim(game) == oracle(game)


@pytest.mark.parametrize("by_owner", [False, True], ids=["gstut", "stut"])
def test_stuttering_signer_matches_attractors(by_owner, exhaustive_corpus, random_corpus):
    # The per-player class-local fixpoint against one attractor per player
    # and successor class: the same classes, ids and stable signatures.
    for i, game in enumerate(exhaustive_corpus + random_corpus + _larger_games()):
        initial = _initial_partition(game, by_owner).class_of
        got, want = list(initial), list(initial)
        got_sigs = _refine_classes(game, got, _sign_class)
        want_sigs = _refine_classes(game, want, oracle_sign_class)
        assert got == want, i
        assert list(got_sigs.items()) == list(want_sigs.items()), i


@pytest.mark.parametrize(
    "relation, by_owner", [(direct_sim, False), (strong_direct_sim, True)], ids=["direct", "strong"]
)
def test_direct_sim_matches_full_sweeps(relation, by_owner, exhaustive_corpus, random_corpus):
    # The predecessor worklist against sweeping every row until stable.
    for i, game in enumerate(exhaustive_corpus + random_corpus + _larger_games()):
        rows = list(_initial_partition(game, by_owner).as_relation().rows)
        assert relation(game).rows == oracle_direct_sim_fixpoint(game, rows), i


def test_gstut_set_of_classes_transfer():
    # The per-class refinement result also satisfies the stronger transfer
    # condition over arbitrary sets of target classes.
    from itertools import combinations

    from pgreduce import VertexSet, forces, random_game

    for seed in range(40):
        n = 2 + seed % 6  # up to 7 vertices
        game = random_game(n, 3, (1, min(3, n)), 77 + seed)
        part = gstut_bisim(game)
        for ci, cls in enumerate(part.classes):
            members = list(cls)
            if len(members) < 2:
                continue
            others = [j for j in range(part.class_count) if j != ci]
            for size in range(len(others) + 1):
                for subset in combinations(others, size):
                    mask = 0
                    for j in subset:
                        mask |= part.classes[j].mask
                    target = VertexSet(n, mask)
                    for player in Player:
                        answers = {
                            forces(game, player, v, cls, target) for v in members
                        }
                        assert len(answers) == 1, (seed, ci, subset, player)


def test_all_relations_validate(random_corpus):
    for game in random_corpus[:20]:
        direct_sim(game).validate()
        strong_direct_sim(game).validate()
        governed_bisim(game).as_relation().validate()
        strong_bisim(game).as_relation().validate()
        gstut_bisim(game).as_relation().validate()
        stut_bisim(game).as_relation().validate()
