"""Tables derived from a game, built once per game object and kept on it.

``game.derived(game, build, *args)`` keeps ``build(game, *args)`` on the
game, keyed by the builder and its arguments.  Each kept table must equal a
fresh build on a fresh parse of the game, also after every layer has read
it, and must be immutable.  One ``check_lattice`` builds each table once.
"""
from collections import Counter

import pytest

import pgreduce
from pgreduce import (
    Partition,
    check_lattice,
    delayed_sim,
    direct_sim,
    governed_bisim,
    gstut_bisim,
    parse_pgsolver,
    serialize_pgsolver,
)
from pgreduce.game import derived
from pgreduce.relations import _initial_partition

game_module = pgreduce.game
relations = pgreduce.relations
simgames = pgreduce.simgames

# The module and name of each kept table's builder, and its arguments.
BUILDERS = [
    (game_module, "_predecessor_lists", ()),
    (game_module, "_even_owned", ()),
    (simgames, "_obligation_rows", ()),
    (simgames, "_transfer_groups", ()),
    (simgames, "_pred_bases", ()),
    (relations, "_direct_sim_masks", ()),
    (relations, "_priority_partition", ()),
    (relations, "_priority_owner_partition", ()),
    (relations, "_direct_sim", (False,)),
    (relations, "_bisimilarity", ("governed-bisim",)),
    (relations, "_bisimilarity", ("gstut",)),
    *[(simgames, "_delayed_sim", (bias,)) for bias in ("none", "even", "odd")],
]
IDS = ["-".join([name, *map(str, args)]) for _, name, args in BUILDERS]


def _fresh(game):
    return parse_pgsolver(serialize_pgsolver(game))


def _immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    if isinstance(value, Partition):
        return _immutable(value.class_of)
    return type(value) in (int, bool)


def _corpus(exhaustive_corpus, random_corpus, all_fixture_games):
    return [*exhaustive_corpus[::7], *random_corpus, *all_fixture_games.values()]


@pytest.mark.parametrize("module, name, args", BUILDERS, ids=IDS)
def test_kept_table_is_a_fresh_build_and_immutable(
    module, name, args, exhaustive_corpus, random_corpus, all_fixture_games
):
    build = getattr(module, name)
    for i, shared in enumerate(_corpus(exhaustive_corpus, random_corpus, all_fixture_games)):
        game = _fresh(shared)
        table = derived(game, build, *args)
        assert derived(game, build, *args) is table, i
        assert table == build(_fresh(game), *args), i
        assert _immutable(table), i


def test_tables_survive_every_reader(random_corpus):
    # After the whole lattice check has read them, the kept tables still
    # equal fresh builds.
    for i, shared in enumerate(random_corpus[:40]):
        game = _fresh(shared)
        check_lattice(game)
        for module, name, args in BUILDERS:
            build = getattr(module, name)
            key = (build, *args)
            assert key in game._tables, (i, name, args)
            assert game._tables[key] == build(_fresh(game), *args), (i, name, args)


def test_readers_return_the_kept_tables(random_corpus):
    for shared in random_corpus[:10]:
        game = _fresh(shared)
        assert game.predecessors() is derived(game, game_module._predecessor_lists)
        assert _initial_partition(game, False) is derived(game, relations._priority_partition)
        assert _initial_partition(game, True) is derived(game, relations._priority_owner_partition)
        assert _initial_partition(game, False) == Partition.from_class_of(game.vertex_count, game.priorities)
        keys = list(zip(game.priorities, game.owners))
        assert _initial_partition(game, True) == Partition.from_class_of(game.vertex_count, keys)
        assert direct_sim(game) is derived(game, relations._direct_sim, False)
        assert governed_bisim(game) is derived(game, relations._bisimilarity, "governed-bisim")
        assert gstut_bisim(game) is derived(game, relations._bisimilarity, "gstut")
        for bias in ("none", "even", "odd"):
            assert delayed_sim(game, bias) is derived(game, simgames._delayed_sim, bias)


def test_check_lattice_builds_each_table_once(monkeypatch, random_corpus):
    calls = []

    def counting(name, build):
        def wrapper(game, *args, **kwargs):
            calls.append((id(game), name, args))
            return build(game, *args, **kwargs)

        return wrapper

    for module, name in dict.fromkeys((module, name) for module, name, _ in BUILDERS):
        build = getattr(module, name)
        wrapper = counting(name, build)
        # Every module that binds the builder reads the one wrapper.
        for reader in (game_module, relations, simgames):
            if getattr(reader, name, None) is build:
                monkeypatch.setattr(reader, name, wrapper)
    kept = [(name, args) for _, name, args in BUILDERS]
    for i, shared in enumerate(random_corpus[:25]):
        # The corpus games are shared, and other tests may have filled theirs.
        game = _fresh(shared)
        calls.clear()
        check_lattice(game)
        assert {g for g, _, _ in calls} == {id(game)}, i
        # Other calls of a builder, such as ``strong_direct_sim``'s, keep nothing.
        built = Counter((name, args) for _, name, args in calls)
        assert {key: built[key] for key in kept} == dict.fromkeys(kept, 1), i


def test_tables_are_per_game_object(random_corpus):
    # An equal game is another object with tables of its own.
    game = _fresh(random_corpus[5])
    twin = _fresh(game)
    assert twin == game
    assert game.predecessors() == twin.predecessors()
    assert game.predecessors() is not twin.predecessors()
