"""Grow a game without changing its stuttering classes.

Two transformations keep every vertex stuttering-equivalent to its origin.
A duplicate of ``v`` keeps ``v``'s priority, owner and successors, so it is
strongly bisimilar to ``v``.  A stutter chain in front of ``v`` is a path of
fresh vertices with ``v``'s priority and owner and one successor each, the
last one moving to ``v``.  Each takes over about half of ``v``'s in-edges.
The classes of the grown game are therefore those of the core, with every
new vertex in its origin's class: ground truth at sizes no brute-force
oracle reaches.
"""
import random

from pgreduce import ParityGame


def inflate(core: ParityGame, duplicates: int, chains: int, seed: int) -> tuple[ParityGame, list[int]]:
    """Return the grown game and ``origin``, the core vertex each vertex copies.

    Core vertices keep their ids, so ``origin[v] == v`` for them.
    """
    rng = random.Random(seed)
    prios = list(core.priorities)
    owners = list(core.owners)
    succs = [list(row) for row in core.successors]
    origin = list(core.vertices)

    def add(v: int, row: list[int]) -> int:
        prios.append(prios[v])
        owners.append(owners[v])
        succs.append(row)
        origin.append(origin[v])
        return len(prios) - 1

    def take_in_edges(v: int, new: int, skip: set[int]) -> None:
        for u, row in enumerate(succs):
            if u not in skip and v in row and rng.random() < 0.5:
                succs[u] = [new if x == v else x for x in row]

    for _ in range(duplicates):
        v = rng.randrange(len(prios))
        d = add(v, list(succs[v]))
        take_in_edges(v, d, {v, d})
    for _ in range(chains):
        v = rng.randrange(len(prios))
        length = rng.randint(1, 4)
        first = len(prios)
        for i in range(length):
            add(v, [first + i + 1 if i < length - 1 else v])
        # The chain's own edges and v's self-loop stay as they are.
        take_in_edges(v, first, {v, *range(first, first + length)})
    return ParityGame(tuple(prios), tuple(owners), tuple(succs)), origin
