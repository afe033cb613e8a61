import random
from itertools import product

import pytest

from pgreduce import (
    EQUIVALENCES,
    ParityGame,
    Partition,
    Player,
    direct_sim,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    parse_pgsolver,
    quotient_equivalent,
    random_game,
    relations,
    serialize_pgsolver,
    strong_bisim,
    strong_direct_sim,
    stut_bisim,
)
from inflation import chain_every_edge, inflate
from oracles import (
    is_subrelation,
    oracle_direct_sim_fixpoint,
    oracle_governed_bisim,
    oracle_refines,
    oracle_sign_class,
    oracle_strong_bisim,
    oracle_validate,
)
from pgreduce.lattice import compute_relations
from pgreduce.relations import (
    _direct_sim_fixpoint,
    _initial_partition,
    _refine,
    _refine_classes,
    _sign_class,
    _singleton_row,
)

BISIMILARITIES = {
    "strong-bisim": strong_bisim,
    "governed-bisim": governed_bisim,
    "stut": stut_bisim,
    "gstut": gstut_bisim,
}


def _larger_games() -> list[ParityGame]:
    # Random games of 20-80 vertices barely reduce, so each is paired with
    # an inflated game of about that size, whose duplicates are strongly
    # bisimilar and whose chains stutter-equivalent to their origins.  A
    # chain on every edge of a small core gives long single-successor paths
    # inside one class, and turns each self-loop of the core into a cycle,
    # so the stuttering signer runs long inner worklists.
    larger = []
    for seed in range(30):
        larger.append(random_game(20 + 2 * seed, 1 + seed % 3, (1, 3), seed))
        core = random_game(10 + seed, 1 + seed % 3, (1, 3), seed)
        larger.append(inflate(core, 10 + seed, seed % 4, seed)[0])
    for seed in range(3):
        larger.append(chain_every_edge(random_game(12 + seed, 1 + seed % 3, (1, 2), seed), 4, seed)[0])
    return larger


def _message(rows: tuple[int, ...], validate) -> str | None:
    try:
        validate(rows)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidator:
    # equivalence_from_preorder is the one preorder check.  The error names
    # the first failing pair in (v, w) order.
    def test_rejects_irreflexive(self):
        with pytest.raises(ValueError, match=r"^relation not reflexive at 1$"):
            equivalence_from_preorder((0b01, 0b00))

    def test_rejects_intransitive(self):
        with pytest.raises(ValueError, match=r"^relation not transitive through \(0, 1\)$"):
            equivalence_from_preorder((0b011, 0b110, 0b100))

    @pytest.mark.parametrize("rows", [(0b11, 0b110), (0b01, -0b10)], ids=["high", "negative"])
    def test_rejects_bits_outside_the_universe(self, rows):
        with pytest.raises(ValueError, match=r"^row has bits outside the universe$"):
            equivalence_from_preorder(rows)

    def test_matches_pairwise_reference(self):
        # Every relation on three vertices, and relations on six vertices
        # one bit away from a preorder or a partition, including rows that
        # repeat: each check walks a repeated row only once.
        relations = list(product(range(8), repeat=3))
        rng = random.Random(5)
        for _ in range(300):
            game = random_game(6, 2, (1, 3), rng.randrange(10**6))
            for rows in (direct_sim(game), gstut_bisim(game).as_relation()):
                rows = list(rows)
                v, w = rng.randrange(6), rng.randrange(6)
                rows[v] ^= 1 << w
                relations.append(tuple(rows))
        failures = set()
        for rows in relations:
            want = _message(rows, oracle_validate)
            assert _message(rows, equivalence_from_preorder) == want, rows
            failures.add(want.split()[2] if want else None)
        assert failures == {"reflexive", "transitive", None}


class TestPartition:
    def test_refines_rejects_another_universe(self):
        # Zipping the class maps would compare only the first two vertices.
        with pytest.raises(ValueError, match="3 and 2 vertices"):
            Partition.from_class_of(3, [0, 1, 2]).refines(Partition.from_class_of(2, [0, 0]))

    def test_same_class_rejects_vertices_outside_the_universe(self):
        # A negative id would otherwise read a class from the end of the map.
        part = Partition.from_class_of(3, [0, 1, 1])
        assert part.same_class(1, 2) and not part.same_class(0, 2)
        for v, w in ((-1, 2), (2, 3), (5, 0)):
            bad = w if 0 <= v < 3 else v
            with pytest.raises(ValueError, match=rf"vertex {bad} is outside 0\.\.2"):
                part.same_class(v, w)

    def test_class_map_length_must_match(self):
        # Too few entries leave a vertex out; too many name the two counts.
        with pytest.raises(ValueError, match="cover every vertex"):
            Partition.from_class_of(3, [0, 0])
        with pytest.raises(ValueError, match="class_of has 3 entries for 2 vertices"):
            Partition.from_class_of(2, [0, 0, 0])

    def test_classes_ordered_by_least_vertex(self):
        part = Partition.from_class_of(4, [7, 3, 7, 3])
        assert part.members() == [[0, 2], [1, 3]]
        assert part.class_of == (0, 1, 0, 1)
        # Seeded key lists against a brute-force reading of the keys: n = 1,
        # a single class, all singletons and a few classes of mixed sizes.
        rng = random.Random(24)
        cases = [[5], [2] * 9, rng.sample(range(100), 9)]
        cases += [[rng.choice("abcd") for _ in range(n)] for n in (2, 7, 16, 40)]
        for keys in cases:
            n = len(keys)
            firsts = [v for v in range(n) if keys[v] not in keys[:v]]
            members = [[w for w in range(n) if keys[w] == keys[f]] for f in firsts]
            class_of = tuple(next(c for c, f in enumerate(firsts) if keys[f] == keys[v]) for v in range(n))
            part = Partition.from_class_of(n, keys)
            assert part == Partition(class_of, len(firsts)), keys
            assert part.class_count == len(firsts), keys
            assert part.members() == members, keys
            rows = tuple(sum(1 << w for w in members[c]) for c in class_of)
            assert part.as_relation() == rows, keys
            # Renaming the keys keeps the partition; merging two classes does not.
            assert Partition.from_class_of(n, [(k, "renamed") for k in keys]) == part
            if len(firsts) > 1:
                merged = [keys[firsts[0]] if k == keys[firsts[1]] else k for k in keys]
                assert Partition.from_class_of(n, merged) != part

    def test_numbering_from_generators_and_tuple_keys(self):
        # Against a numbering by first occurrence, one key at a time: keys
        # given as a generator, once only, and as tuples of priority and owner.
        def numbered(keys):
            order = {}
            return tuple(order.setdefault(k, len(order)) for k in keys)

        rng = random.Random(7)
        for n in (1, 2, 5, 9, 30):
            pairs = [(rng.randrange(3), rng.choice(list(Player))) for _ in range(n)]
            part = Partition.from_class_of(n, (p for p, _ in pairs))
            assert part.class_of == numbered(p for p, _ in pairs)
            assert part.class_count == len(set(p for p, _ in pairs))
            part = Partition.from_class_of(n, zip(*zip(*pairs)))
            assert part.class_of == numbered(pairs)
            assert part.class_count == len(set(pairs))
        with pytest.raises(ValueError, match="cover every vertex"):
            Partition.from_class_of(3, (k for k in (0, 1)))
        with pytest.raises(ValueError, match="class_of has 4 entries for 3 vertices"):
            Partition.from_class_of(3, ((k, k) for k in range(4)))

    def test_refines_matches_relation_route_on_lattice_relations(self, exhaustive_corpus, random_corpus):
        # Equal partitions give equal answers, so each distinct ordered pair
        # is compared once.
        pairs = set()
        for game in exhaustive_corpus + random_corpus:
            distinct = set(compute_relations(game).values())
            pairs |= {(a, b) for a in distinct for b in distinct}
        outcomes = {(a.refines(b), oracle_refines(a, b)) for a, b in pairs}
        assert outcomes == {(True, True), (False, False)}

    def test_refines_matches_relation_route_on_random_partitions(self):
        rng = random.Random(13)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(1, 9)
            part = Partition.from_class_of(n, [rng.randrange(n) for _ in range(n)])
            # Merging classes gives a coarser partition; a fresh draw usually
            # gives an incomparable one.
            merge = [rng.randrange(3) for _ in range(n)]
            for other in (
                Partition.from_class_of(n, [merge[c] for c in part.class_of]),
                Partition.from_class_of(n, [rng.randrange(n) for _ in range(n)]),
            ):
                for a, b in ((part, other), (other, part)):
                    assert a.refines(b) == oracle_refines(a, b), (a, b)
                    outcomes.add(a.refines(b))
        assert outcomes == {True, False}


def test_direct_sim_escape_edge(escape_edge):
    rows = direct_sim(escape_edge)
    assert rows[0] >> 1 & 1
    assert rows[0] >> 2 & 1 and rows[2] >> 0 & 1
    assert not rows[1] >> 0 & 1
    equivalence_from_preorder(rows)


def test_direct_sim_reflexive_everywhere(random_corpus):
    for game in random_corpus[:20]:
        rows = direct_sim(game)
        assert all(rows[v] >> v & 1 for v in game.vertices)


def test_direct_sim_cross_owner_triangle(cross_owner):
    kernel = equivalence_from_preorder(direct_sim(cross_owner))
    assert kernel.same_class(0, 1) and kernel.same_class(0, 6)


def test_strong_direct_sim_cross_owner(cross_owner):
    rows = strong_direct_sim(cross_owner)
    assert rows[0] >> 1 & 1 and rows[1] >> 0 & 1
    assert not rows[0] >> 6 & 1


def test_strong_direct_refines_direct(random_corpus):
    for game in random_corpus[:30]:
        assert is_subrelation(strong_direct_sim(game), direct_sim(game))


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
        for members in part.members():
            prios = {game.priorities[v] for v in members}
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
    part = equivalence_from_preorder((0b001, 0b010, 0b100))
    assert part.class_count == 3


def test_kernel_escape_edge(escape_edge):
    part = equivalence_from_preorder(direct_sim(escape_edge))
    assert part.members() == [[0, 2], [1], [3]]


def test_kernel_rejects_non_preorder():
    with pytest.raises(ValueError, match="not reflexive at 0"):
        equivalence_from_preorder((0b10, 0b10))


def test_fixpoints_are_stable(random_corpus):
    # Re-running one refinement/deletion pass must change nothing.
    for game in random_corpus[:20]:
        rows = direct_sim(game)
        assert _direct_sim_fixpoint(game, list(rows)) == rows
        for kind, bisim in BISIMILARITIES.items():
            part = bisim(game)
            class_of, _ = _refine(game, kind, part.class_of)
            assert Partition.from_class_of(game.vertex_count, class_of) == part, kind


# Vertex 0 moves to the priority-1 loop and vertex 2 is a priority-0 loop:
# the initial partitions put them together and every bisimilarity splits
# them.
SPLIT_BY_SIGNER = ParityGame((0, 1, 0), (Player.EVEN,) * 3, ((1,), (1,), (2,)))


@pytest.mark.parametrize("kind", sorted(BISIMILARITIES))
def test_one_definition_per_bisimilarity(kind, monkeypatch):
    # The relation, its quotient and its certificate all read the kind's
    # signer from one table, so a signer that never splits changes all three.
    game = SPLIT_BY_SIGNER
    relation = BISIMILARITIES[kind]
    exact = relation(game)
    built = EQUIVALENCES[kind](game)
    by_owner, sign, read = relations._BISIMILARITIES[kind]

    def never_splits(game, class_of, cid, members):
        # Every member takes the first group's signature, which the
        # quotient builder can still read.
        return {next(iter(sign(game, class_of, cid, members))): list(members)}

    monkeypatch.setitem(relations._BISIMILARITIES, kind, (by_owner, never_splits, read))
    # On a fresh parse: ``game`` keeps the governed and gstut partitions
    # that the kind's own signer gave.
    coarse = relation(parse_pgsolver(serialize_pgsolver(game)))
    assert coarse == _initial_partition(game, by_owner) != exact
    merged = EQUIVALENCES[kind](game)
    assert merged.class_map == coarse.class_of != built.class_map
    assert quotient_equivalent(game, merged)
    monkeypatch.undo()
    assert not quotient_equivalent(game, merged)


@pytest.mark.parametrize("kind", sorted(BISIMILARITIES))
def test_singleton_row_is_what_the_signer_reads(kind, exhaustive_corpus, random_corpus):
    # Each vertex is split off into a class of its own from the kind's final
    # partition, and its row read without the signer is the row the kind's
    # signer and reader give it.
    _, sign, read = relations._BISIMILARITIES[kind]
    loops = alone = 0
    for game in exhaustive_corpus + random_corpus + _larger_games():
        classes, _ = _refine(game, kind)
        single = max(classes) + 1
        for v in game.vertices:
            class_of = list(classes)
            class_of[v] = single
            (sig,) = sign(game, class_of, single, [v])
            succs, odd = read(sig, single)
            assert _singleton_row(game, class_of, v) == (set(succs), odd), (game, v)
            loops += v in game.successors[v]
            alone += game.successors[v] == (v,)
    assert loops and alone


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
        rows = list(_initial_partition(game, by_owner).as_relation())
        assert relation(game) == oracle_direct_sim_fixpoint(game, rows), i


def test_gstut_set_of_classes_transfer():
    # The per-class refinement result also satisfies the stronger transfer
    # condition over arbitrary sets of target classes.
    from itertools import combinations

    from pgreduce import forces, random_game

    for seed in range(40):
        n = 2 + seed % 6  # up to 7 vertices
        game = random_game(n, 3, (1, min(3, n)), 77 + seed)
        part = gstut_bisim(game)
        classes = part.members()
        rows = part.as_relation()
        for ci, members in enumerate(classes):
            if len(members) < 2:
                continue
            cls = rows[members[0]]
            others = [j for j in range(part.class_count) if j != ci]
            for size in range(len(others) + 1):
                for subset in combinations(others, size):
                    target = 0
                    for j in subset:
                        target |= rows[classes[j][0]]
                    for player in Player:
                        answers = {
                            forces(game, player, v, cls, target) for v in members
                        }
                        assert len(answers) == 1, (seed, ci, subset, player)


def test_all_relations_validate(random_corpus):
    for game in random_corpus[:20]:
        equivalence_from_preorder(direct_sim(game))
        equivalence_from_preorder(strong_direct_sim(game))
        # A partition's rows are a preorder whose kernel is the partition.
        for bisim in (governed_bisim, strong_bisim, gstut_bisim, stut_bisim):
            part = bisim(game)
            assert equivalence_from_preorder(part.as_relation()) == part


@pytest.mark.parametrize("relation", [direct_sim, strong_direct_sim], ids=["direct", "strong"])
def test_direct_sim_fails_fast_above_its_limit(relation, monkeypatch):
    game = random_game(6, 2, (1, 2), 1)
    monkeypatch.setattr(relations, "DIRECT_SIM_LIMIT", 6)
    relation(game)
    monkeypatch.setattr(relations, "DIRECT_SIM_LIMIT", 5)
    with pytest.raises(ValueError, match="^direct simulation of a 6-vertex game needs 6² bits, above the limit of 5 vertices$"):
        relation(game)
