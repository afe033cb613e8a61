import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import attractor_layers, oracle_diverges, oracle_forces
from pgreduce import (
    ParityGame,
    Player,
    attractor,
    diverges,
    forces,
    gstut_bisim,
    parse_pgsolver,
    random_game,
    steps,
)
from pgreduce.forcing import byte_set, iter_bits, mark_attractor


def vs(*indices):
    return sum(1 << v for v in indices)


def full(game):
    return (1 << game.vertex_count) - 1


def test_attractor_contains_target_and_empty_constraint(escape_edge):
    t = vs(3)
    for player in Player:
        assert t & ~attractor(escape_edge, player, full(escape_edge), t) == 0
        assert attractor(escape_edge, player, 0, t) == t


def test_attractor_escape_edge_even_to_v3(escape_edge):
    got = attractor(escape_edge, Player.EVEN, full(escape_edge), vs(3))
    assert got == vs(1, 3)


def test_attractor_idempotent(escape_edge):
    u = full(escape_edge)
    t = vs(3)
    once = attractor(escape_edge, Player.EVEN, u, t)
    assert attractor(escape_edge, Player.EVEN, u, once) == once


@pytest.mark.parametrize("target", [-1, -8, 1 << 4, 1 << 10])
def test_attractor_rejects_target_outside_the_vertices(target):
    # A negative mask has infinitely many bits, and one at or beyond n
    # names no vertex; both are refused before any bit is read.
    game = random_game(4, 3, (1, 2), 1)
    with pytest.raises(ValueError, match=f"target mask {target} "):
        attractor(game, Player.EVEN, -1, target)
    with pytest.raises(ValueError, match=f"target mask {target} "):
        forces(game, Player.ODD, 0, -1, target)
    assert attractor(game, Player.EVEN, -1, full(game)) == full(game)


def _scanned_bits(mask):
    """The set bits of ``mask``, read one by one from its bytes."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * k + j for k, byte in enumerate(data) if byte for j in range(8) if byte >> j & 1]


def test_iter_bits_matches_a_direct_scan():
    rng = random.Random(17)
    masks = [0, 1, *(1 << k for k in range(62, 66))]
    for _ in range(3000):
        # Widths up to 30k bits, most of them short; densities from one bit
        # in sixteen to one in two.
        width = int(30_000 ** rng.random())
        mask = rng.getrandbits(width)
        for _ in range(rng.randint(0, 3)):
            mask &= rng.getrandbits(width)
        masks.append(mask)
    for mask in masks:
        assert list(iter_bits(mask)) == _scanned_bits(mask), mask


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
def test_iter_bits_rejects_negative_masks(mask):
    # A negative mask has infinitely many set bits; the call itself raises.
    with pytest.raises(ValueError, match="negative"):
        iter_bits(mask)


def _reference_attractor(game, player, allowed, targets, counted):
    preds = game.predecessors()
    layers = attractor_layers(game.owners, preds, counted, player, iter_bits(targets), allowed)
    return sum(1 << v for v in layers)


def test_attractors_match_the_layered_reference():
    # The constrained attractor counts every edge; Zielonka's subgame
    # attractor only the edges inside the subgame, to targets inside it.
    rng = random.Random(3)
    for seed in range(300):
        n = 1 + seed % 30
        game = random_game(n, 4, (1, min(3, n)), seed)
        full_mask = full(game)
        u = rng.choice([-1, rng.getrandbits(n), -1 - rng.getrandbits(n)])
        t = rng.getrandbits(n)
        player = Player(seed % 2)
        every = _reference_attractor(game, player, u, t, lambda v: len(game.successors[v]))
        assert attractor(game, player, u, t) == every, seed
        alive = u & full_mask
        inside = _reference_attractor(
            game, player, alive, t & alive, lambda v: sum(alive >> w & 1 for w in game.successors[v])
        )
        marked = mark_attractor(
            byte_set(alive, n), game.owners, game.predecessors(), game.successors, player, iter_bits(t & alive)
        )
        assert sum(1 << v for v in marked) == inside, seed


def test_kernel_counts_edges_to_a_vertex_that_never_joins():
    # Vertex 0 is odd with successors 1, the target, and 2.  With 2 at
    # byte 3 the edge to it counts, so even never attracts 0; with 2 at
    # byte 0 that vertex does not exist and 0 joins.
    game = ParityGame((0, 0, 0), (Player.ODD, Player.EVEN, Player.EVEN), ((1, 2), (1,), (2,)))
    args = (game.owners, game.predecessors(), game.successors, Player.EVEN, [1])
    assert mark_attractor(bytearray(b"\x01\x01\x03"), *args) == [1]
    assert mark_attractor(bytearray(b"\x01\x01\x00"), *args) == [1, 0]


def test_forces_target_membership_is_trivial(escape_edge):
    t = vs(2)
    for player in Player:
        assert forces(escape_edge, player, 2, 0, t)


def test_forces_fake_divergence_both_players(fake_divergence):
    prio0 = vs(0, 1, 3, 4)
    t = vs(2)
    assert forces(fake_divergence, Player.EVEN, 1, prio0, t)
    assert forces(fake_divergence, Player.ODD, 0, prio0, t)


def test_forces_duality_pointwise(fake_divergence, escape_edge):
    for game in (fake_divergence, escape_edge):
        u = full(game)
        for v in game.vertices:
            for t in range(1 << game.vertex_count):
                for player in Player:
                    if not forces(game, player, v, u, t):
                        assert forces(game, player.opponent, v, u, full(game) & ~t)


def test_diverges_self_loop():
    g = ParityGame((0,), (0,), ((0,),))
    for player in Player:
        assert diverges(g, player, 0, vs(0))


def test_diverges_fake_divergence(fake_divergence):
    prio0 = vs(0, 1, 3, 4)
    for player in Player:
        assert not diverges(fake_divergence, player, 0, prio0)


def test_diverges_cross_owner_self_loop_class(cross_owner):
    part = gstut_bisim(cross_owner)
    cls = part.as_relation()[4]
    assert cls == vs(4)
    assert diverges(cross_owner, Player.EVEN, 4, cls)


def test_steps_examples(escape_edge):
    assert steps(escape_edge, Player.EVEN, 1, vs(3))
    assert not steps(escape_edge, Player.EVEN, 0, vs(3))
    for game in (escape_edge,):
        for v in game.vertices:
            owner = game.owners[v]
            assert steps(game, owner, v, vs(*game.successors[v]))
            assert steps(game, owner, v, full(game))
            assert steps(game, owner.opponent, v, full(game))


@pytest.mark.parametrize("v", [-1, 3, 7])
def test_predicates_reject_vertices_outside_the_game(v):
    # Negative indexing would answer -1 for vertex 2, and a vertex at or
    # beyond n lies outside every mask.
    game = parse_pgsolver(b"parity 2; 0 1 0 1; 1 2 1 2,0; 2 1 0 2;")
    message = f"vertex {v} is outside 0..2"
    with pytest.raises(ValueError, match=message):
        forces(game, Player.EVEN, v, -1, 1)
    with pytest.raises(ValueError, match=message):
        diverges(game, Player.EVEN, v, 0b111)
    with pytest.raises(ValueError, match=message):
        steps(game, Player.EVEN, v, 0b100)


@st.composite
def game_and_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(0, 10_000))
    game = random_game(n, 3, (1, min(2, n)), seed)
    u = draw(st.integers(0, (1 << n) - 1))
    t = draw(st.integers(0, (1 << n) - 1))
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
        game, player.opponent, v, u, full(game) & ~t
    )


@given(game_and_sets())
@settings(max_examples=100, deadline=None)
def test_gluing_forces_through_intermediate_target(data):
    game, player, v, u, t = data
    t2 = (t * 2 + 1) & full(game)
    if forces(game, player, v, u, t) and all(
        forces(game, player, x, u, t2) for x in iter_bits(t)
    ):
        assert forces(game, player, v, u, t2)


@given(game_and_sets())
@settings(max_examples=100, deadline=None)
def test_attractor_monotone_in_target(data):
    game, player, _, u, t = data
    bigger = t | vs(0)
    small = attractor(game, player, u, t)
    assert small & ~attractor(game, player, u, bigger) == 0
