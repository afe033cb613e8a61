"""Parity and Buchi game solving.

``solve_zielonka`` computes exact winning regions with the classic recursive
attractor decomposition.  ``solve_buchi`` solves the explicit two-player
arenas used for the (bi)simulation games; its nested-attractor layering also
yields the progress ranks consumed by the well-foundedness checks.  Both use
the attractor kernel :func:`pgreduce.forcing.attractor_layers`: Zielonka
counts only the successors inside the current subgame and allows only its
vertices, the arena solver counts every move and allows every position.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Hashable

from .forcing import attractor_layers
from .game import ParityGame, Player, WinningRegions

__all__ = [
    "ArenaPlayer",
    "Arena",
    "solve_zielonka",
    "solve_buchi",
    "buchi_rank",
]


class ArenaPlayer(IntEnum):
    SPOILER = 0
    DUPLICATOR = 1


@dataclass
class Arena:
    """Explicit turn-based game arena with a Buchi acceptance set.

    Positions are dense indices; ``payload`` maps a position back to the
    source tuple it encodes.  Positions are interned by payload, so builders
    can freely re-request them.
    """

    owners: list[ArenaPlayer] = field(default_factory=list)
    edges: list[list[int]] = field(default_factory=list)
    accepting: set[int] = field(default_factory=set)
    payload: list[Hashable] = field(default_factory=list)
    index: dict[Hashable, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.owners)

    def position(self, payload: Hashable, owner: ArenaPlayer, accepting: bool = False) -> int:
        """Intern a position; repeated requests return the existing index."""
        pos = self.index.get(payload)
        if pos is not None:
            return pos
        pos = len(self.owners)
        self.index[payload] = pos
        self.owners.append(owner)
        self.edges.append([])
        self.payload.append(payload)
        if accepting:
            self.accepting.add(pos)
        return pos

    def add_edge(self, src: int, dst: int) -> None:
        self.edges[src].append(dst)

    def validate(self) -> None:
        for p, row in enumerate(self.edges):
            if not row:
                raise ValueError(f"arena position {p} ({self.payload[p]!r}) has no moves")


def solve_zielonka(game: ParityGame) -> WinningRegions:
    """Exact winner partition by recursive attractor decomposition."""
    preds = game.predecessors()
    succ_masks = [sum(1 << u for u in row) for row in game.successors]
    # Each nested call strips at least one vertex, so the depth is bounded
    # by the vertex count; give the interpreter room for larger inputs and
    # restore the caller's limit afterwards.
    limit = sys.getrecursionlimit()

    def solve(alive: int) -> tuple[int, int]:
        if alive == 0:
            return 0, 0

        # Edges leaving the subgame do not exist in it, unlike in the
        # constrained attractor of the forcing module.
        def degree(v: int) -> int:
            return (succ_masks[v] & alive).bit_count()

        p = min(game.priorities[v] for v in game.vertices if alive >> v & 1)
        i = Player(p % 2)
        o = i.opponent
        top = [v for v in game.vertices if alive >> v & 1 and game.priorities[v] == p]
        a = sum(1 << v for v in attractor_layers(game.owners, preds, degree, i, top, alive))
        sub = solve(alive & ~a)
        win = [sub[0], sub[1]]
        if win[o] == 0:
            win[i] = alive
            win[o] = 0
        else:
            lost = [v for v in game.vertices if win[o] >> v & 1]
            b = sum(1 << v for v in attractor_layers(game.owners, preds, degree, o, lost, alive))
            sub2 = solve(alive & ~b)
            win = [sub2[0], sub2[1]]
            win[o] |= b
        return win[0], win[1]

    full = (1 << game.vertex_count) - 1
    sys.setrecursionlimit(max(limit, 2 * game.vertex_count + 100))
    try:
        even_mask, odd_mask = solve(full)
    finally:
        sys.setrecursionlimit(limit)
    even = frozenset(v for v in game.vertices if even_mask >> v & 1)
    odd = frozenset(v for v in game.vertices if odd_mask >> v & 1)
    return WinningRegions(even, odd)


def _arena_preds(arena: Arena) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(arena.size)]
    for p, row in enumerate(arena.edges):
        for q in row:
            preds[q].append(p)
    return preds


def _cpre_duplicator(arena: Arena, target: set[int]) -> set[int]:
    """Positions from which Duplicator forces entering ``target`` in one move."""
    out = set()
    for p, row in enumerate(arena.edges):
        if arena.owners[p] is ArenaPlayer.DUPLICATOR:
            if any(q in target for q in row):
                out.add(p)
        elif row and all(q in target for q in row):
            out.add(p)
    return out


def solve_buchi(arena: Arena) -> frozenset[int]:
    """Positions from which Duplicator forces visiting ``accepting`` infinitely often.

    Standard nested fixpoint: shrink a candidate set Y to the attractor of
    those accepting positions from which Duplicator can re-enter Y in one
    step, until stable.
    """
    arena.validate()
    preds = _arena_preds(arena)
    y = set(range(arena.size))
    while True:
        t = arena.accepting & _cpre_duplicator(arena, y)
        new_y = set(
            attractor_layers(
                arena.owners, preds, lambda p: len(arena.edges[p]), ArenaPlayer.DUPLICATOR, sorted(t)
            )
        )
        if new_y == y:
            return frozenset(y)
        y = new_y


def buchi_rank(arena: Arena, won: frozenset[int]) -> dict[int, int]:
    """Nested-attractor layer of each Duplicator-won position.

    Accepting won positions have rank 0; along any Duplicator strategy move
    from a non-accepting won position the rank strictly decreases, so the
    ranks realise a well-founded progress order towards the acceptance set.
    """
    t = arena.accepting & _cpre_duplicator(arena, set(won))
    layers = attractor_layers(
        arena.owners, _arena_preds(arena), lambda p: len(arena.edges[p]),
        ArenaPlayer.DUPLICATOR, sorted(t),
    )
    if set(layers) != set(won):
        raise ValueError("rank queried for positions not won by Duplicator")
    return layers
