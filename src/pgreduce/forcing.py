"""Attractor sets and the forcing/divergence predicates.

These are the vocabulary every equivalence in this package is phrased in:
``attractor(game, i, U, T)`` is the set of vertices from which player ``i``
can force the play into ``T`` while staying inside ``U`` beforehand, and
``forces``/``diverges``/``steps`` are the derived predicates.  Their
vertex sets are int bitmasks, bit ``v`` for vertex ``v``, as are the rows
of a preorder; a partition is a class map and holds no masks.

Masks are read and written through the reversed digits of ``bin``, one
pass of C code each: ``iter_bits`` walks them, ``byte_set`` spreads a mask
over one byte per vertex and ``mask_of`` builds the mask of a vertex
list.  No step per vertex or per edge shifts a bitmask, which would copy
all of it.

``mark_attractor`` is the attractor loop on game vertices, on one byte of
state per vertex; byte 0 means the vertex does not exist.  Zielonka's
solver in :mod:`pgreduce.solver` gives it byte 0 outside the subgame, the
constrained attractor here byte 3 outside ``U``: those vertices exist, so
their edges count, but never join.  The Buchi arena solver, which counts
every move and allows every position, runs its own breadth-first
attractor on flat per-position lists.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .game import ParityGame, Player

__all__ = [
    "attractor",
    "forces",
    "diverges",
    "steps",
]

# The digits of ``bin``, reversed so that character ``v`` is bit ``v``, map
# to bytes 0 and 1.
_FROM_BIN = bytes.maketrans(b"01", b"\x00\x01")
# Byte 0, a vertex that does not exist, to byte 3, one that never joins.
_OUTSIDE = bytes.maketrans(b"\x00", b"\x03")
_ONE = ord("1")


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending.  A negative mask has infinitely
    many and is a ``ValueError``."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    return _ones(bin(mask)[:1:-1])


def _ones(bits: str) -> Iterator[int]:
    v = bits.find("1")
    while v >= 0:
        yield v
        v = bits.find("1", v + 1)


def byte_set(mask: int, n: int) -> bytearray:
    """``n`` bytes, byte ``v`` 1 when ``mask`` has bit ``v`` and 0 otherwise.

    ``mask`` must lie below ``1 << n``.
    """
    return bytearray(bin(mask)[:1:-1].encode().ljust(n, b"0").translate(_FROM_BIN))


def mask_of(vertices: Sequence[int], n: int) -> int:
    """The mask of the distinct ``vertices``, each below ``n``."""
    bits = bytearray(b"0") * n
    for v in vertices:
        bits[v] = _ONE
    return int(bits[::-1], 2)


def mark_attractor(
    state: bytearray,
    owners: Sequence,
    preds: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
    player,
    targets: Iterable[int],
) -> list[int]:
    """Mark ``player``'s attractor to ``targets`` in ``state``.

    ``state[v]`` is 0 for a vertex that does not exist, as outside
    Zielonka's subgames, 1 for one that may join, and any other value for
    one that exists but never joins; the targets, and every vertex that
    joins, become 2.  A vertex owned by ``player`` joins after its first
    successor, any other vertex after the last of its successors that
    exist, breadth-first, so an edge to a vertex that never joins blocks an
    opponent vertex.  An opponent vertex counts its successors the first
    time an edge into the attractor reaches it, so work is proportional to
    the targets plus the edges into the attractor.  Returns the marked
    vertices, targets first, in the order they joined.
    """
    # The byte values are spelled out in the loop: a global costs a lookup.
    queue = list(targets)
    for t in queue:
        state[t] = 2
    at = state.__getitem__
    remaining: dict[int, int] = {}
    # The queue grows while it is walked, which makes the walk breadth-first.
    for u in queue:
        for v in preds[u]:
            if state[v] != 1:
                continue
            if owners[v] is not player:
                r = remaining.get(v)
                if r is None:
                    r = len(succs[v])
                    if r > 1:
                        r -= list(map(at, succs[v])).count(0)
                r -= 1
                remaining[v] = r
                if r:
                    continue
            state[v] = 2
            queue.append(v)
    return queue


def attractor(game: ParityGame, player: Player, U: int, T: int) -> int:
    """Least fixpoint of the constrained attractor: force into ``T`` via ``U``.

    Every edge counts, so an opponent vertex with a successor outside ``U``
    and ``T`` never joins.  Stuttering refinement computes these attractors
    from a class without calling this function: one class-local fixpoint
    per player in ``relations._sign_class`` yields them all at once.
    ``T`` must be a mask of vertices; ``U = -1`` allows every vertex.
    """
    n = game.vertex_count
    if T < 0 or T >> n:
        raise ValueError(f"target mask {T} has bits outside the {n} vertices")
    # Every vertex exists: those outside U get byte 3, which never joins.
    state = byte_set(U & ((1 << n) - 1), n).translate(_OUTSIDE)
    attracted = mark_attractor(state, game.owners, game.predecessors(), game.successors, player, iter_bits(T))
    return mask_of(attracted, n)


def _check_vertex(game: ParityGame, v: int) -> None:
    n = game.vertex_count
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} is outside 0..{n - 1}")


def forces(game: ParityGame, player: Player, v: int, U: int, T: int) -> bool:
    """Can ``player`` force every play from ``v`` to reach ``T``, via ``U``
    before?  A ``ValueError`` for a vertex outside the game."""
    _check_vertex(game, v)
    return attractor(game, player, U, T) >> v & 1 == 1


def diverges(game: ParityGame, player: Player, v: int, U: int) -> bool:
    """Can ``player`` keep every play from ``v`` inside ``U`` forever?

    Computed through the duality with forcing: the player diverges in ``U``
    exactly when the opponent cannot force the play out of ``U``.
    """
    outside = ~U & ((1 << game.vertex_count) - 1)
    return not forces(game, player.opponent, v, U, outside)


def steps(game: ParityGame, player: Player, v: int, T: int) -> bool:
    """One-step controlled move: can ``player`` ensure the next vertex is in
    ``T``?  A ``ValueError`` for a vertex outside the game."""
    _check_vertex(game, v)
    succs = game.successors[v]
    if game.owners[v] is player:
        return any(T >> u & 1 for u in succs)
    return all(T >> u & 1 for u in succs)
