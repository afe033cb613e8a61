import hashlib

import pytest

from inflation import inflate
from pgreduce import random_game, serialize_pgsolver

# SHA-256 of serialize_pgsolver for inflate calls the suite makes, recorded
# with the row-scanning inflate that predecessor sets replaced: the games,
# and so every test built on them, stay the same.
PINNED = [
    ((90, 6, 23), 40, 40, 5, "ab5bd2266dfe7efeaf355e479288c2639846512f6ca9b505e03f83f33706322b"),
    ((20, 4, 700), 20, 10, 0, "91a0732cf3f1add829d74a7409d33e1ca0cc4a866198c5ce3b77cf8f20b647d1"),
    ((12, 4, 300), 10, 15, 0, "8add994f417ece7a4fdac262ce631718d359bd4686033002786341e166771bff"),
    ((30, 4, 501), 90, 60, 1, "b6fd7076222045a2686eda36d172fecac5ae26f7bd6f7b066498b3a6cf18e575"),
    ((13, 1, 3), 13, 3, 3, "5cbfb0ababd71fed959182c7211e72accc9a7c2938163bc7c4adebba3536a9bc"),
]


@pytest.mark.parametrize("core, duplicates, chains, seed, digest", PINNED)
def test_inflate_is_pinned(core, duplicates, chains, seed, digest):
    n, max_priority, core_seed = core
    game, origin = inflate(random_game(n, max_priority, (1, 3), core_seed), duplicates, chains, seed)
    assert hashlib.sha256(serialize_pgsolver(game)).hexdigest() == digest
    assert origin[:n] == list(range(n))
    for v, o in enumerate(origin):
        assert o < n and (game.priorities[v], game.owners[v]) == (game.priorities[o], game.owners[o])
