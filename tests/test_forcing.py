import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_diverges, oracle_forces
from pgreduce import (
    ParityGame,
    Player,
    VertexSet,
    attractor,
    diverges,
    forces,
    gstut_bisim,
    random_game,
    steps,
)


def vs(game, *indices):
    return VertexSet.from_indices(game.vertex_count, indices)


def full(game):
    return VertexSet.full(game.vertex_count)


class TestVertexSet:
    def test_basic_ops(self):
        a = VertexSet.from_indices(5, [0, 2, 4])
        b = VertexSet.from_indices(5, [2, 3])
        assert list(a) == [0, 2, 4]
        assert len(a) == 3 and 2 in a and 1 not in a
        assert list(a.union(b)) == [0, 2, 3, 4]
        assert list(a.intersection(b)) == [2]
        assert list(a.difference(b)) == [0, 4]
        assert list(a.complement()) == [1, 3]
        assert b.issubset(a.union(b))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            VertexSet.from_indices(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 1 << 5)


def test_attractor_contains_target_and_empty_constraint(escape_edge):
    t = vs(escape_edge, 3)
    for player in Player:
        assert t.issubset(attractor(escape_edge, player, full(escape_edge), t))
        assert attractor(escape_edge, player, VertexSet.empty(4), t) == t


def test_attractor_escape_edge_even_to_v3(escape_edge):
    got = attractor(escape_edge, Player.EVEN, full(escape_edge), vs(escape_edge, 3))
    assert sorted(got) == [1, 3]


def test_attractor_idempotent(escape_edge):
    u = full(escape_edge)
    t = vs(escape_edge, 3)
    once = attractor(escape_edge, Player.EVEN, u, t)
    assert attractor(escape_edge, Player.EVEN, u, once) == once


def test_forces_target_membership_is_trivial(escape_edge):
    t = vs(escape_edge, 2)
    for player in Player:
        assert forces(escape_edge, player, 2, VertexSet.empty(4), t)


def test_forces_fake_divergence_both_players(fake_divergence):
    prio0 = vs(fake_divergence, 0, 1, 3, 4)
    t = vs(fake_divergence, 2)
    assert forces(fake_divergence, Player.EVEN, 1, prio0, t)
    assert forces(fake_divergence, Player.ODD, 0, prio0, t)


def test_forces_duality_pointwise(fake_divergence, escape_edge):
    for game in (fake_divergence, escape_edge):
        u = full(game)
        for v in game.vertices:
            for t_bits in range(1 << game.vertex_count):
                t = VertexSet(game.vertex_count, t_bits)
                for player in Player:
                    if not forces(game, player, v, u, t):
                        assert forces(game, player.opponent, v, u, t.complement())


def test_diverges_self_loop():
    g = ParityGame((0,), (0,), ((0,),))
    for player in Player:
        assert diverges(g, player, 0, vs(g, 0))


def test_diverges_fake_divergence(fake_divergence):
    prio0 = vs(fake_divergence, 0, 1, 3, 4)
    for player in Player:
        assert not diverges(fake_divergence, player, 0, prio0)


def test_diverges_cross_owner_self_loop_class(cross_owner):
    part = gstut_bisim(cross_owner)
    cls = part.class_containing(4)
    assert list(cls) == [4]
    assert diverges(cross_owner, Player.EVEN, 4, cls)


def test_steps_examples(escape_edge):
    assert steps(escape_edge, Player.EVEN, 1, vs(escape_edge, 3))
    assert not steps(escape_edge, Player.EVEN, 0, vs(escape_edge, 3))
    for game in (escape_edge,):
        for v in game.vertices:
            owner = game.owners[v]
            assert steps(game, owner, v, vs(game, *game.successors[v]))
            assert steps(game, owner, v, full(game))
            assert steps(game, owner.opponent, v, full(game))


@st.composite
def game_and_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(0, 10_000))
    game = random_game(n, 3, (1, min(2, n)), seed)
    u = VertexSet(n, draw(st.integers(0, (1 << n) - 1)))
    t = VertexSet(n, draw(st.integers(0, (1 << n) - 1)))
    v = draw(st.integers(0, n - 1))
    player = Player(draw(st.integers(0, 1)))
    return game, player, v, u, t


@given(game_and_sets())
@settings(max_examples=120, deadline=None)
def test_forces_matches_strategy_enumeration(data):
    game, player, v, u, t = data
    assert forces(game, player, v, u, t) == oracle_forces(game, player, v, u, t)


@given(game_and_sets())
@settings(max_examples=120, deadline=None)
def test_diverges_matches_strategy_enumeration(data):
    game, player, v, u, _ = data
    assert diverges(game, player, v, u) == oracle_diverges(game, player, v, u)


@given(game_and_sets())
@settings(max_examples=100, deadline=None)
def test_one_player_always_forces(data):
    game, player, v, u, t = data
    assert forces(game, player, v, u, t) or forces(
        game, player.opponent, v, u, t.complement()
    )


@given(game_and_sets())
@settings(max_examples=100, deadline=None)
def test_gluing_forces_through_intermediate_target(data):
    game, player, v, u, t = data
    t2 = VertexSet(game.vertex_count, (t.mask * 2 + 1) & ((1 << game.vertex_count) - 1))
    if forces(game, player, v, u, t) and all(
        forces(game, player, x, u, t2) for x in t
    ):
        assert forces(game, player, v, u, t2)


@given(game_and_sets())
@settings(max_examples=100, deadline=None)
def test_attractor_monotone_in_target(data):
    game, player, _, u, t = data
    bigger = t.union(VertexSet.from_indices(game.vertex_count, [0]))
    small = attractor(game, player, u, t)
    assert small.issubset(attractor(game, player, u, bigger))
