"""Attractor sets and the forcing/divergence predicates.

These are the vocabulary every equivalence in this package is phrased in:
``attractor(game, i, U, T)`` is the set of vertices from which player ``i``
can force the play into ``T`` while staying inside ``U`` beforehand, and
``forces``/``diverges``/``steps`` are the derived predicates.  A vertex
set is an int bitmask, bit ``v`` for vertex ``v``, here as in every other
module of the package.

``attractor_layers`` is the attractor loop on game vertices.  Besides the
constrained attractor here, Zielonka's subgame attractor in
:mod:`pgreduce.solver` calls it; the two differ only in which edges count,
which they express through the out-degree and the ``allowed`` mask they
pass.  The Buchi arena solver, which counts every move and allows every
position, runs the same layering on flat per-position lists.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from .game import ParityGame, Player

__all__ = [
    "attractor",
    "attractor_layers",
    "forces",
    "diverges",
    "steps",
]


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def attractor_layers(
    owners: Sequence,
    preds: Sequence[Sequence[int]],
    degree: Callable[[int], int],
    player,
    targets: Iterable[int],
    allowed: int,
) -> dict[int, int]:
    """BFS layers of ``player``'s attractor to ``targets``.

    Layer 0 is the target set.  A vertex owned by ``player`` joins one layer
    after its first successor, any other vertex one layer after the last of
    its ``degree(v)`` counted successors.  ``degree`` is read once per
    vertex, when an edge into the attractor first reaches it, and must count
    every edge in ``preds`` whose target can join.  Counting the edges that
    leave ``allowed`` as well, as the constrained attractor does, lets them
    block an opponent vertex; leaving them out, as Zielonka does, removes
    them from the game.  Only vertices in the ``allowed`` bitmask join;
    ``-1`` has every bit set and allows every vertex.  Work is proportional
    to the target plus the edges into the attractor.
    """
    layers = dict.fromkeys(targets, 0)
    queue = deque(layers)
    remaining: dict[int, int] = {}
    while queue:
        u = queue.popleft()
        next_layer = layers[u] + 1
        for v in preds[u]:
            if v in layers or not allowed >> v & 1:
                continue
            if owners[v] is not player:
                r = remaining.get(v)
                r = (degree(v) if r is None else r) - 1
                remaining[v] = r
                if r:
                    continue
            layers[v] = next_layer
            queue.append(v)
    return layers


def attractor(game: ParityGame, player: Player, U: int, T: int) -> int:
    """Least fixpoint of the constrained attractor: force into ``T`` via ``U``.

    Every edge counts, so an opponent vertex with a successor outside ``U``
    and ``T`` never joins.  Stuttering refinement computes these attractors
    from a class without calling this function: one class-local fixpoint
    per player in ``relations._sign_class`` yields them all at once.
    ``T`` must be a mask of vertices; ``U = -1`` allows every vertex.
    """
    if T < 0 or T >> game.vertex_count:
        raise ValueError(f"target mask {T} has bits outside the {game.vertex_count} vertices")
    succs = game.successors
    layers = attractor_layers(
        game.owners, game.predecessors(), lambda v: len(succs[v]), player, iter_bits(T), U
    )
    mask = 0
    for v in layers:
        mask |= 1 << v
    return mask


def forces(game: ParityGame, player: Player, v: int, U: int, T: int) -> bool:
    """Can ``player`` force every play from ``v`` to reach ``T``, via ``U`` before?"""
    return attractor(game, player, U, T) >> v & 1 == 1


def diverges(game: ParityGame, player: Player, v: int, U: int) -> bool:
    """Can ``player`` keep every play from ``v`` inside ``U`` forever?

    Computed through the duality with forcing: the player diverges in ``U``
    exactly when the opponent cannot force the play out of ``U``.
    """
    outside = ~U & ((1 << game.vertex_count) - 1)
    return not forces(game, player.opponent, v, U, outside)


def steps(game: ParityGame, player: Player, v: int, T: int) -> bool:
    """One-step controlled move: can ``player`` ensure the next vertex is in ``T``?"""
    succs = game.successors[v]
    if game.owners[v] is player:
        return any(T >> u & 1 for u in succs)
    return all(T >> u & 1 for u in succs)
