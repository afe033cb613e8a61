"""Tables derived from a game, built once per game object and kept on it.

``game.derived(game, build)`` keeps ``build(game)`` on the game, keyed by
the builder.  Each kept table must equal a fresh build on a fresh parse of
the game, also after every layer has read it, and must be immutable.  One
``check_lattice`` builds each table once.
"""
import pytest

import pgreduce
from pgreduce import Partition, check_lattice, parse_pgsolver, serialize_pgsolver
from pgreduce.game import derived
from pgreduce.relations import _initial_partition

game_module = pgreduce.game
relations = pgreduce.relations
simgames = pgreduce.simgames

# The module and name of each kept table's builder.
BUILDERS = [
    (game_module, "_predecessor_lists"),
    (game_module, "_even_owned"),
    (simgames, "_obligation_rows"),
    (simgames, "_transfer_groups"),
    (simgames, "_pred_bases"),
    (relations, "_direct_sim_masks"),
    (relations, "_priority_partition"),
    (relations, "_priority_owner_partition"),
]
IDS = [name for _, name in BUILDERS]


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


@pytest.mark.parametrize("module, name", BUILDERS, ids=IDS)
def test_kept_table_is_a_fresh_build_and_immutable(module, name, exhaustive_corpus, random_corpus, all_fixture_games):
    build = getattr(module, name)
    for i, shared in enumerate(_corpus(exhaustive_corpus, random_corpus, all_fixture_games)):
        game = _fresh(shared)
        table = derived(game, build)
        assert derived(game, build) is table, i
        assert table == build(_fresh(game)), i
        assert _immutable(table), i


def test_tables_survive_every_reader(random_corpus):
    # After the whole lattice check has read them, the kept tables still
    # equal fresh builds.
    for i, shared in enumerate(random_corpus[:40]):
        game = _fresh(shared)
        check_lattice(game)
        for module, name in BUILDERS:
            build = getattr(module, name)
            assert build in game._tables, (i, name)
            assert game._tables[build] == build(_fresh(game)), (i, name)


def test_readers_return_the_kept_tables(random_corpus):
    for shared in random_corpus[:10]:
        game = _fresh(shared)
        assert game.predecessors() is derived(game, game_module._predecessor_lists)
        assert _initial_partition(game, False) is derived(game, relations._priority_partition)
        assert _initial_partition(game, True) is derived(game, relations._priority_owner_partition)
        assert _initial_partition(game, False) == Partition.from_class_of(game.vertex_count, game.priorities)
        keys = list(zip(game.priorities, game.owners))
        assert _initial_partition(game, True) == Partition.from_class_of(game.vertex_count, keys)


def test_check_lattice_builds_each_table_once(monkeypatch, random_corpus):
    calls = {name: [] for name in IDS}

    def counting(name, build):
        def wrapper(game):
            calls[name].append(id(game))
            return build(game)

        return wrapper

    for module, name in BUILDERS:
        build = getattr(module, name)
        wrapper = counting(name, build)
        # Every module that binds the builder reads the one wrapper.
        for reader in (game_module, relations, simgames):
            if getattr(reader, name, None) is build:
                monkeypatch.setattr(reader, name, wrapper)
    for i, shared in enumerate(random_corpus[:25]):
        # The corpus games are shared, and other tests may have filled theirs.
        game = _fresh(shared)
        for made in calls.values():
            made.clear()
        check_lattice(game)
        assert calls == {name: [id(game)] for name in IDS}, i


def test_tables_are_per_game_object(random_corpus):
    # An equal game is another object with tables of its own.
    game = _fresh(random_corpus[5])
    twin = _fresh(game)
    assert twin == game
    assert game.predecessors() == twin.predecessors()
    assert game.predecessors() is not twin.predecessors()
