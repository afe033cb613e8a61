import tracemalloc

import pytest

from pgreduce import (
    EQUIVALENCES,
    ParityGame,
    Partition,
    Player,
    QuotientResult,
    direct_sim,
    equivalence_from_preorder,
    find_isomorphism,
    parse_pgsolver,
    quotient_direct_sim,
    quotient_equivalent,
    quotient_governed_bisim,
    quotient_gstut,
    quotient_strong_bisim,
    quotient_stut,
    random_game,
    serialize_class_map,
    serialize_pgsolver,
    solve_zielonka,
    verify_preservation,
)
from fixture_games import CYCLE_VS_LOOP
from inflation import inflate
from oracles import KIND_RELATIONS, is_isomorphism, iso_check, oracle_verify_preservation
from test_byte_identity import _games as byte_identity_games
from pgreduce import quotient, relations
from pgreduce.cli import main


def strict_up_sets(game):
    # What lies strictly above each vertex: its up-set minus its kernel class.
    rows = direct_sim(game)
    same = equivalence_from_preorder(rows).as_relation()
    return rows, [row & ~eq for row, eq in zip(rows, same)]


def extremal(game, v):
    return quotient._extremal_successors(game.successors[v], strict_up_sets(game)[1])


def _dense_successor_games():
    # Out-degree n/4 to n/2: several successors share a class, and
    # successors are often strictly ordered.
    return [random_game(n, 1 + s % 5, (n // 4, n // 2), 100 * n + s) for n in range(4, 41, 3) for s in range(3)]


class TestExtremalSuccessors:
    def test_unrelated_successors(self, escape_edge):
        assert extremal(escape_edge, 1) == (0b1100, 0b1100)

    def test_cross_owner_little_brother(self, cross_owner):
        assert extremal(cross_owner, 1) == (1 << 4, 1 << 2)

    def test_single_successor(self, cross_owner):
        assert extremal(cross_owner, 0) == (1 << 2, 1 << 2)

    def test_pairwise_definition_on_corpora(self, exhaustive_corpus, random_corpus):
        # u is minimal when no successor lies strictly below it, maximal
        # when none lies strictly above.
        for game in exhaustive_corpus + random_corpus + _dense_successor_games():
            rows, strict = strict_up_sets(game)

            def below(a, b):  # a < b
                return rows[a] >> b & 1 and not rows[b] >> a & 1

            for succs in game.successors:
                low = sum(1 << u for u in succs if not any(below(x, u) for x in succs))
                high = sum(1 << u for u in succs if not any(below(u, x) for x in succs))
                assert quotient._extremal_successors(succs, strict) == (low, high)


def test_direct_sim_quotient_escape_edge(escape_edge):
    result = quotient_direct_sim(escape_edge)
    assert result.class_map == (0, 1, 0, 2)
    expected = ParityGame(
        priorities=(1, 1, 0),
        owners=(Player.EVEN, Player.EVEN, Player.EVEN),
        successors=((0,), (0, 2), (2,)),
    )
    assert result.quotient == expected


def test_direct_sim_quotient_degenerates_to_relabeling():
    # Singleton classes, no little brothers, and every odd vertex still
    # branching into several classes: the quotient is a relabeled original.
    g = ParityGame((0, 1, 2), (1, 0, 0), ((1, 2), (1,), (2,)))
    result = quotient_direct_sim(g)
    assert result.quotient.vertex_count == 3
    assert iso_check(result.quotient, g)


def test_direct_sim_quotient_equivalent_to_original(all_fixture_games):
    for game in all_fixture_games.values():
        result = quotient_direct_sim(game)
        assert quotient_equivalent(game, result)


def _inflated_games():
    return [inflate(random_game(8 + s, 1 + s % 4, (1, 3), 900 + s), 5 + 2 * s, s % 5, s)[0] for s in range(20)]


def test_direct_sim_quotient_staged_equals_unstaged(exhaustive_corpus, random_corpus, all_fixture_games):
    # The builder runs the construction on the governed quotient; run on the
    # game itself, it must give the same class map and the same bytes.
    games = exhaustive_corpus + random_corpus + list(all_fixture_games.values()) + _inflated_games() + _dense_successor_games()
    for i, game in enumerate(games):
        staged = quotient_direct_sim(game)
        unstaged = quotient._preorder_quotient(game)
        assert staged.class_map == unstaged.class_map, i
        assert serialize_pgsolver(staged.quotient) == serialize_pgsolver(unstaged.quotient), i


def test_direct_sim_certificate_checks_the_staged_builder(monkeypatch, random_corpus):
    # A governed quotient that wrongly merges vertices 0 and 1 (read off a
    # copy of the game where 1 takes 0's owner and moves) gives a direct-sim
    # quotient that claims them equivalent.  The certificate computes on the
    # game itself, so it rejects that quotient.
    refined_quotient = quotient._refined_quotient
    games = [
        g for g in random_corpus
        if g.priorities[0] == g.priorities[1]
        and not equivalence_from_preorder(direct_sim(g)).same_class(0, 1)
    ]
    assert len(games) >= 10
    for game in games:
        assert quotient_equivalent(game, quotient_direct_sim(game))
        merged = ParityGame(
            game.priorities,
            (game.owners[0], game.owners[0], *game.owners[2:]),
            (game.successors[0], game.successors[0], *game.successors[2:]),
        )

        def merging(g, kind):
            assert kind == "governed-bisim"
            return refined_quotient(merged, kind)

        monkeypatch.setattr(quotient, "_refined_quotient", merging)
        wrong = quotient_direct_sim(game)
        monkeypatch.undo()
        assert wrong.class_map[0] == wrong.class_map[1]
        assert not quotient_equivalent(game, wrong)


def test_direct_sim_limit_applies_to_the_governed_quotient(monkeypatch, tmp_path, capsys):
    # 300 vertices, strongly bisimilar to a 30-vertex core: the builder
    # computes the relation on at most 30 classes, and the certificate on
    # the quotient alone, while the relation on the game itself is refused.
    core = random_game(30, 4, (1, 3), 3)
    game, origin = inflate(core, 270, 0, 3)
    want = quotient_direct_sim(core).class_map
    classes = quotient_governed_bisim(game).quotient.vertex_count
    monkeypatch.setattr(relations, "DIRECT_SIM_LIMIT", classes)
    result = quotient_direct_sim(game)
    assert result.class_map == tuple(want[o] for o in origin)
    with pytest.raises(ValueError, match="^direct simulation of a 300-vertex game needs 300² bits, above the limit"):
        direct_sim(game)
    assert quotient_equivalent(game, result)
    monkeypatch.setattr(relations, "DIRECT_SIM_LIMIT", classes - 1)
    message = (
        f"direct simulation of a {classes}-vertex governed quotient needs {classes}² bits, "
        f"above the limit of {classes - 1} vertices"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        quotient_direct_sim(game)
    path = tmp_path / "game.gm"
    path.write_bytes(serialize_pgsolver(game))
    argv = ["minimize", path, "--equiv", "direct-sim", "--out", tmp_path / "q.gm", "--map", tmp_path / "q.map"]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Two vertices of priority 0 that each move to their own sink (2 or 3), with
# owners, and successors where given, per case; the relation each builder
# reads (for the bisimilarities, the refinement's partition and signatures)
# is replaced by one that merges vertices no largest relation would.
def two_sinks(owners, succs=((2,), (3,))):
    return ParityGame((0, 0, 1, 2), (*owners, 0, 0), (*succs, (2,), (3,)))


MERGE_01 = (0b0011, 0b0011, 0b0100, 0b1000)


@pytest.mark.parametrize(
    "builder, relation, game, value, message",
    [
        pytest.param(
            # Odd vertices with two successor classes each: the governed
            # quotient keeps them odd, so the class moves on its minimal ones.
            "quotient_direct_sim", "direct_sim", two_sinks((1, 1), ((2, 3), (0, 2))), MERGE_01,
            "minimal successor classes differ inside a class", id="direct-minimal",
        ),
        pytest.param(
            "quotient_direct_sim", "direct_sim", two_sinks((0, 0)), MERGE_01,
            "maximal successor classes differ inside a class", id="direct-maximal",
        ),
        pytest.param(
            "quotient_direct_sim", "direct_sim", two_sinks((0, 1), ((2, 3), (2, 3))), MERGE_01,
            "mixed-owner class without unique successor class", id="direct-mixed-owner",
        ),
        pytest.param(
            "quotient_governed_bisim", "_quotient_rows", two_sinks((0, 0)),
            (Partition.from_class_of(4, (0, 1, 1, 2)), [], []),
            "equivalence class mixes priorities; refinement bug", id="governed-priorities",
        ),
    ],
)
def test_quotient_builders_reject_inconsistent_relations(
    monkeypatch, builder, relation, game, value, message
):
    monkeypatch.setattr(quotient, relation, lambda *args: value)
    with pytest.raises(RuntimeError) as raised:
        getattr(quotient, builder)(game)
    assert str(raised.value) == message


def test_governed_quotient_single_move_owners(single_move_owners):
    result = quotient_governed_bisim(single_move_owners)
    assert result.class_map == (0, 1, 1)
    expected = ParityGame(
        priorities=(0, 1),
        owners=(Player.EVEN, Player.EVEN),
        successors=((1,), (1,)),
    )
    assert result.quotient == expected


def test_governed_quotient_preserves_winner_random(random_corpus):
    for game in random_corpus[:30]:
        result = quotient_governed_bisim(game)
        assert verify_preservation(game, result)


def test_governed_quotient_identity_when_minimal(single_move_owners):
    result = quotient_governed_bisim(single_move_owners)
    again = quotient_governed_bisim(result.quotient)
    assert is_isomorphism(result.quotient, again.quotient, again.class_map)


def test_gstut_quotient_fake_divergence(fake_divergence):
    result = quotient_gstut(fake_divergence)
    assert result.quotient.vertex_count == 2
    assert result.class_map == (0, 0, 1, 0, 0)
    # the big class must not get a self-loop: nobody forces divergence there
    assert result.quotient.successors[0] == (1,)
    assert result.quotient.successors[1] == (1,)
    assert verify_preservation(fake_divergence, result)
    assert quotient_equivalent(fake_divergence, result)


def test_gstut_quotient_all_divergent_collapses():
    g = ParityGame((0, 0), (0, 1), ((1,), (0,)))
    result = quotient_gstut(g)
    assert result.quotient.vertex_count == 1
    assert result.quotient.successors == ((0,),)


def test_gstut_quotient_solves_to_odd_everywhere(fake_divergence):
    from pgreduce import solve_zielonka

    result = quotient_gstut(fake_divergence)
    regions = solve_zielonka(result.quotient)
    assert regions.won_by_odd == set(result.quotient.vertices)


def test_stut_and_strong_quotients(all_fixture_games):
    for game in all_fixture_games.values():
        for fn in (quotient_strong_bisim, quotient_stut):
            result = fn(game)
            assert verify_preservation(game, result)
            assert quotient_equivalent(game, result)
            again = fn(result.quotient)
            assert is_isomorphism(result.quotient, again.quotient, again.class_map)


def test_strong_quotient_single_move_owners_is_identity(single_move_owners):
    result = quotient_strong_bisim(single_move_owners)
    assert result.quotient.vertex_count == 3


class TestIsoCheck:
    def test_identity(self, cross_owner):
        assert iso_check(cross_owner, cross_owner)

    def test_relabeled_game(self, escape_edge):
        perm = (3, 2, 1, 0)
        relabeled = ParityGame(
            tuple(escape_edge.priorities[perm.index(v)] for v in range(4)),
            tuple(escape_edge.owners[perm.index(v)] for v in range(4)),
            tuple(
                tuple(sorted(perm[u] for u in escape_edge.successors[perm.index(v)]))
                for v in range(4)
            ),
        )
        mapping = find_isomorphism(escape_edge, relabeled)
        assert mapping is not None
        assert all(mapping[v] == perm[v] for v in range(4))

    def test_linear_check_of_a_given_mapping(self, escape_edge):
        # The test-only ``is_isomorphism`` accepts exactly the mappings that
        # are isomorphisms.
        perm = find_isomorphism(escape_edge, escape_edge)
        assert is_isomorphism(escape_edge, escape_edge, perm)
        for mapping in ((1, 0, 2, 3), (0, 0, 2, 3), (0, 1, 2)):
            assert not is_isomorphism(escape_edge, escape_edge, mapping), mapping

    @pytest.mark.parametrize("pin", [(5, 0), (-1, 0), (0, 5)], ids=["left-past-end", "negative", "right-past-end"])
    def test_pin_outside_the_games_rejected(self, pin):
        # (5, 0) used to raise a bare IndexError, and (-1, 0) read the last
        # vertex's candidates.
        game = random_game(5, 3, (1, 2), 1)
        with pytest.raises(ValueError, match=rf"^pin \({pin[0]}, {pin[1]}\) is outside 0\.\.4 x 0\.\.4$"):
            find_isomorphism(game, game, pin)

    def test_cycle_vs_loop_halves(self):
        parts = CYCLE_VS_LOOP.strip().splitlines()
        cycle = parse_pgsolver("parity 1;\n" + "\n".join(parts[1:3]))
        loop = parse_pgsolver("parity 0;\n0 0 0 0;")
        assert not iso_check(cycle, loop)

    def test_priority_mismatch(self):
        a = ParityGame((0,), (0,), ((0,),))
        b = ParityGame((2,), (0,), ((0,),))
        assert not iso_check(a, b)

    def test_size_guard(self):
        n = 65
        g = ParityGame((0,) * n, (0,) * n, tuple((v,) for v in range(n)))
        with pytest.raises(ValueError, match="limited"):
            iso_check(g, g)


def test_quotient_idempotent_on_random_games(random_corpus):
    for game in random_corpus[:25]:
        for fn in (quotient_direct_sim, quotient_governed_bisim, quotient_gstut):
            result = fn(game)
            again = fn(result.quotient)
            assert is_isomorphism(result.quotient, again.quotient, again.class_map)


def test_quotient_idempotent_above_isomorphism_limit():
    # The second quotient's class map is the isomorphism, so idempotence is
    # checked on quotients larger than iso_check accepts.
    core = random_game(90, 6, (1, 3), 23)
    games = [random_game(150, 6, (1, 3), 7), inflate(core, 40, 40, 5)[0]]
    for game in games:
        for name, build in EQUIVALENCES.items():
            q = build(game).quotient
            assert q.vertex_count > 64, name
            again = build(q)
            assert is_isomorphism(q, again.quotient, again.class_map), name


def test_identity_quotient_preserves(escape_edge):
    result = QuotientResult(escape_edge, tuple(escape_edge.vertices), "direct-sim")
    assert verify_preservation(escape_edge, result)


def test_preservation_random_all_kinds():
    for seed in range(30):
        n = 2 + seed % 6
        game = random_game(n, 3, (1, min(3, n)), 500 + seed)
        for fn in (quotient_direct_sim, quotient_governed_bisim, quotient_gstut):
            result = fn(game)
            assert verify_preservation(game, result)


def _flip_one_class(result: QuotientResult, c: int) -> QuotientResult:
    """``result`` with class ``c`` turned into a self-loop of the priority its
    quotient winner loses, so that its winner flips."""
    q = result.quotient
    lose = 1 if c in solve_zielonka(q).won_by_even else 0
    succs = tuple((c,) if d == c else row for d, row in enumerate(q.successors))
    prios = tuple(lose if d == c else p for d, p in enumerate(q.priorities))
    return QuotientResult(ParityGame(prios, q.owners, succs), result.class_map, result.kind)


def test_preservation_equals_per_vertex_comparison():
    # The byte-identity corpus under every equivalence, and each quotient
    # with one class's winner flipped.
    flipped = 0
    for name, blob in byte_identity_games().items():
        game = parse_pgsolver(blob)
        for kind, build in EQUIVALENCES.items():
            result = build(game)
            assert verify_preservation(game, result) == oracle_verify_preservation(game, result) is True, (name, kind)
            for c in {0, result.quotient.vertex_count - 1}:
                doctored = _flip_one_class(result, c)
                winner = solve_zielonka(doctored.quotient).winner(c)
                assert winner != solve_zielonka(result.quotient).winner(c), (name, kind, c)
                assert verify_preservation(game, doctored) == oracle_verify_preservation(game, doctored) is False
                flipped += 1
    assert flipped > 50


def test_class_priorities_reject_a_mixed_class(random_corpus):
    game = two_sinks((0, 0))
    with pytest.raises(RuntimeError, match="^equivalence class mixes priorities; refinement bug$"):
        quotient._class_priorities(game, Partition.from_class_of(4, (0, 1, 1, 2)))
    # Each class's priority is its members'.
    for game in random_corpus:
        part = relations.gstut_bisim(game)
        prios = quotient._class_priorities(game, part)
        assert all(prios[c] == p for c, p in zip(part.class_of, game.priorities))
        assert len(prios) == part.class_count


def test_direct_sim_certificate_limit_applies_to_the_quotient(monkeypatch, tmp_path, capsys):
    # The certificate computes the n²-bit relation on the quotient alone,
    # so the limit applies to the quotient's size, checked before the
    # relation or either solve.  Here the governed quotient is the
    # direct-sim quotient, q = 12 vertices.
    game = random_game(12, 3, (1, 3), 4)
    result = quotient_direct_sim(game)
    q = result.quotient.vertex_count
    assert quotient_governed_bisim(game).quotient.vertex_count == q
    monkeypatch.setattr(relations, "DIRECT_SIM_LIMIT", q - 1)

    def refused(*args):
        raise AssertionError("built before the size check, or a union built for direct-sim")

    for name in ("disjoint_union", "direct_sim", "solve_zielonka"):
        monkeypatch.setattr(quotient, name, refused)
    message = f"direct simulation of a {q}-vertex quotient needs {q}² bits, above the limit of {q - 1} vertices"
    with pytest.raises(ValueError, match=f"^{message}$"):
        quotient_equivalent(game, result)
    # verify refuses before either solve too: its builder applies the limit
    # to the governed quotient, which is never smaller than the quotient.
    monkeypatch.setattr(quotient, "direct_sim", direct_sim)
    path = tmp_path / "game.gm"
    path.write_bytes(serialize_pgsolver(game))
    assert main(["verify", str(path), "--equiv", "direct-sim"]) == 1
    assert capsys.readouterr() == ("", f"error: {message.replace('quotient', 'governed quotient')}\n")
    # At the limit, the union of 12 + q vertices lies above it and is
    # certified, without a union.
    monkeypatch.setattr(relations, "DIRECT_SIM_LIMIT", q)
    assert quotient_equivalent(game, result)
    monkeypatch.setattr(quotient, "solve_zielonka", solve_zielonka)
    assert main(["verify", str(path), "--equiv", "direct-sim"]) == 0
    assert capsys.readouterr() == ("winners-preserved: pass\nquotient-equivalent: pass\n", "")


def test_quotient_memory_grows_linearly():
    # Four times the vertices of a game that barely reduces, nearly all of
    # its classes singletons, may take at most six times the memory.
    peaks = []
    for n in (5_000, 20_000):
        game = random_game(n, 8, (1, 3), 7)
        game.predecessors()
        tracemalloc.start()
        try:
            quotient_governed_bisim(game)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 6 * peaks[0], peaks


def test_serialize_class_map(fake_divergence):
    result = quotient_gstut(fake_divergence)
    assert serialize_class_map(result) == b"0 0\n1 0\n2 1\n3 0\n4 0\n"


def test_one_registry_names_every_equivalence(escape_edge, capsys, tmp_path):
    # The CLI's supported list, the quotient kinds and the kinds that
    # quotient_equivalent accepts are all the registry's keys.
    path = tmp_path / "g.gm"
    path.write_bytes(serialize_pgsolver(escape_edge))
    argv = ["minimize", str(path), "--equiv", "weak", "--out", "q", "--map", "m"]
    assert main(argv) == 1
    supported = capsys.readouterr().err.rstrip().split("supported: ")[1].split(", ")
    assert supported == sorted(EQUIVALENCES)
    for name, build in EQUIVALENCES.items():
        result = build(escape_edge)
        assert result.kind == name
        assert quotient_equivalent(escape_edge, result)
        assert result.class_map == KIND_RELATIONS[name](escape_edge).class_of
    with pytest.raises(ValueError, match="unknown quotient kind"):
        quotient_equivalent(escape_edge, QuotientResult(escape_edge, (0, 1, 2, 3), "weak"))
