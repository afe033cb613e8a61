import tracemalloc

import pytest

from pgreduce import (
    EQUIVALENCES,
    ParityGame,
    Partition,
    Player,
    QuotientResult,
    direct_sim,
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
    verify_preservation,
)
from fixture_games import CYCLE_VS_LOOP
from inflation import inflate
from oracles import KIND_RELATIONS, is_isomorphism, iso_check
from pgreduce import quotient
from pgreduce.cli import main


def extremal(game, v):
    rows = direct_sim(game)
    return quotient._extremal_successors(game.successors[v], rows, quotient._transpose(rows))


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
        for game in exhaustive_corpus + random_corpus:
            rows = direct_sim(game)
            cols = quotient._transpose(rows)

            def below(a, b):  # a < b
                return rows[a] >> b & 1 and not rows[b] >> a & 1

            for succs in game.successors:
                low = sum(1 << u for u in succs if not any(below(x, u) for x in succs))
                high = sum(1 << u for u in succs if not any(below(u, x) for x in succs))
                assert quotient._extremal_successors(succs, rows, cols) == (low, high)


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


# Two vertices of priority 0 that each move to their own sink (2 or 3), with
# owners given per case; the relation each builder reads (for the
# bisimilarities, the refinement's partition and signatures) is replaced by
# one that merges vertices no largest relation would.
def two_sinks(owners, succs=((2,), (3,))):
    return ParityGame((0, 0, 1, 2), (*owners, 0, 0), (*succs, (2,), (3,)))


MERGE_01 = (0b0011, 0b0011, 0b0100, 0b1000)


@pytest.mark.parametrize(
    "builder, relation, game, value, message",
    [
        pytest.param(
            "quotient_direct_sim", "direct_sim", two_sinks((1, 1)), MERGE_01,
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
