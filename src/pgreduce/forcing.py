"""Attractor sets and the forcing/divergence predicates.

These are the vocabulary every equivalence in this package is phrased in:
``attractor(game, i, U, T)`` is the set of vertices from which player ``i``
can force the play into ``T`` while staying inside ``U`` beforehand, and
``forces``/``diverges``/``steps`` are the derived predicates.

``attractor_layers`` is the one attractor loop of the package.  Besides the
constrained attractor here, Zielonka's subgame attractor and the Buchi
arena solver of :mod:`pgreduce.solver` call it; they differ only in which
edges count, which they express through the out-degree and the optional
``allowed`` mask they pass.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .game import ParityGame, Player

__all__ = [
    "VertexSet",
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


@dataclass(frozen=True)
class VertexSet:
    """An immutable subset of ``0..universe-1`` with bit-set semantics."""

    universe: int
    mask: int
    count: int = -1

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError("mask has bits outside the universe")
        object.__setattr__(self, "count", self.mask.bit_count())

    @classmethod
    def from_indices(cls, universe: int, indices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in indices:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside universe 0..{universe - 1}")
            mask |= 1 << v
        return cls(universe, mask)

    @classmethod
    def empty(cls, universe: int) -> "VertexSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        return cls(universe, (1 << universe) - 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.mask != 0

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.universe, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.universe, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.universe, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        """Complement relative to the full universe."""
        return VertexSet(self.universe, ~self.mask & ((1 << self.universe) - 1))

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0


def attractor_layers(
    owners: Sequence,
    preds: Sequence[Sequence[int]],
    degree: Callable[[int], int],
    player,
    targets: Iterable[int],
    allowed: int | None = None,
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
    ``None`` allows every vertex.  Work is proportional to the target plus
    the edges into the attractor.
    """
    if allowed is None:
        allowed = -1  # every bit set, and shifting it costs nothing
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


def attractor(game: ParityGame, player: Player, U: VertexSet, T: VertexSet) -> VertexSet:
    """Least fixpoint of the constrained attractor: force into ``T`` via ``U``.

    Every edge counts, so an opponent vertex with a successor outside ``U``
    and ``T`` never joins.  Stuttering refinement computes these attractors
    from a class without calling this function: one class-local fixpoint
    per player in ``relations._sign_class`` yields them all at once.
    """
    succs = game.successors
    layers = attractor_layers(
        game.owners, game.predecessors(), lambda v: len(succs[v]), player, T, U.mask
    )
    mask = 0
    for v in layers:
        mask |= 1 << v
    return VertexSet(game.vertex_count, mask)


def forces(game: ParityGame, player: Player, v: int, U: VertexSet, T: VertexSet) -> bool:
    """Can ``player`` force every play from ``v`` to reach ``T``, via ``U`` before?"""
    return v in attractor(game, player, U, T)


def diverges(game: ParityGame, player: Player, v: int, U: VertexSet) -> bool:
    """Can ``player`` keep every play from ``v`` inside ``U`` forever?

    Computed through the duality with forcing: the player diverges in ``U``
    exactly when the opponent cannot force the play out of ``U``.
    """
    return not forces(game, player.opponent, v, U, U.complement())


def steps(game: ParityGame, player: Player, v: int, T: VertexSet) -> bool:
    """One-step controlled move: can ``player`` ensure the next vertex is in ``T``?"""
    succs = game.successors[v]
    if game.owners[v] is player:
        return any(u in T for u in succs)
    return all(u in T for u in succs)
