"""Attractor sets and the forcing/divergence predicates.

These are the vocabulary every equivalence in this package is phrased in:
``attractor(game, i, U, T)`` is the set of vertices from which player ``i``
can force the play into ``T`` while staying inside ``U`` beforehand, and
``forces``/``diverges``/``steps`` are the derived predicates.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .game import ParityGame, Player

__all__ = [
    "INFINITY",
    "VertexSet",
    "attractor",
    "attractor_rank",
    "forces",
    "diverges",
    "steps",
]

# Rank of vertices outside an attractor.  A float sentinel, never a natural.
INFINITY = math.inf


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
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

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


def _attractor_layers(
    game: ParityGame, player: Player, u_mask: int, t_mask: int
) -> dict[int, int]:
    """BFS layers of the inductive attractor definition.

    Layer 0 is the target set; a vertex of ``player`` in ``U`` joins one
    layer after its first successor, an opponent vertex one layer after its
    last.  Work is proportional to the target plus the edges touching the
    attractor.  Stuttering refinement makes one call per class, player and
    successor class, with the target cut down to the class's successors.
    """
    preds = game.predecessors()
    layers: dict[int, int] = {}
    queue: deque[int] = deque()
    mask = t_mask
    while mask:
        low = mask & -mask
        mask ^= low
        v = low.bit_length() - 1
        layers[v] = 0
        queue.append(v)
    remaining: dict[int, int] = {}
    while queue:
        u = queue.popleft()
        next_layer = layers[u] + 1
        for v in preds[u]:
            if v in layers or not u_mask >> v & 1:
                continue
            if game.owners[v] is player:
                layers[v] = next_layer
                queue.append(v)
            else:
                r = remaining.get(v, len(game.successors[v])) - 1
                remaining[v] = r
                if r == 0:
                    layers[v] = next_layer
                    queue.append(v)
    return layers


def attractor(game: ParityGame, player: Player, U: VertexSet, T: VertexSet) -> VertexSet:
    """Least fixpoint of the constrained attractor: force into ``T`` via ``U``."""
    layers = _attractor_layers(game, player, U.mask, T.mask)
    mask = 0
    for v in layers:
        mask |= 1 << v
    return VertexSet(game.vertex_count, mask)


def attractor_rank(
    game: ParityGame, player: Player, U: VertexSet, T: VertexSet, v: int
) -> int | float:
    """Least ``n`` with ``v`` in the n-th attractor stage, or ``INFINITY``."""
    layers = _attractor_layers(game, player, U.mask, T.mask)
    return layers.get(v, INFINITY)


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
