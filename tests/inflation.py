"""Grow a game without changing its stuttering classes.

Two transformations keep every vertex stuttering-equivalent to its origin.
A duplicate of ``v`` keeps ``v``'s priority, owner and successors, so it is
strongly bisimilar to ``v``.  A stutter chain in front of ``v`` is a path of
fresh vertices with ``v``'s priority and owner and one successor each, the
last one moving to ``v``.  Each takes over about half of ``v``'s in-edges.
The classes of the grown game are therefore those of the core, with every
new vertex in its origin's class: ground truth at sizes no brute-force
oracle reaches.

``chain_every_edge`` puts such a chain on every edge of the core instead.
A play then sees the priorities of the core play it follows, each repeated,
so every core vertex keeps its winner and every chain vertex is won by the
winner of the vertex its chain ends in.
"""
import random
from collections import defaultdict

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
    # preds[x]: every u with x in succs[u], kept up to date, so each added
    # vertex visits only the rows that hold v.  A chain's rows name the next
    # chain vertex before it is added.
    preds: defaultdict[int, set[int]] = defaultdict(set)
    for u, row in enumerate(succs):
        for x in row:
            preds[x].add(u)

    def add(v: int, row: list[int]) -> int:
        prios.append(prios[v])
        owners.append(owners[v])
        succs.append(row)
        origin.append(origin[v])
        new = len(prios) - 1
        for x in row:
            preds[x].add(new)
        return new

    def take_in_edges(v: int, new: int, skip: set[int]) -> None:
        # Ascending order draws rng.random() for the same rows as a scan of
        # every row would.
        for u in sorted(preds[v] - skip):
            if rng.random() < 0.5:
                succs[u] = [new if x == v else x for x in succs[u]]
                preds[v].discard(u)
                preds[new].add(u)

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


def chain_every_edge(core: ParityGame, max_length: int, seed: int) -> tuple[ParityGame, list[int]]:
    """Replace every edge ``u -> v`` of the core by a stutter chain of 1 to
    ``max_length`` fresh vertices into ``v``.

    Returns the chained game and ``end``, the core vertex each vertex's
    chain ends in; core vertices keep their ids, so ``end[v] == v`` for them.
    """
    rng = random.Random(seed)
    prios = list(core.priorities)
    owners = list(core.owners)
    succs: list[list[int]] = [[] for _ in core.vertices]
    end = list(core.vertices)
    for u in core.vertices:
        for v in core.successors[u]:
            length = rng.randint(1, max_length)
            first = len(prios)
            succs[u].append(first)
            for i in range(length):
                prios.append(core.priorities[v])
                owners.append(core.owners[v])
                succs.append([first + i + 1 if i < length - 1 else v])
                end.append(v)
    return ParityGame(tuple(prios), tuple(owners), tuple(succs)), end
