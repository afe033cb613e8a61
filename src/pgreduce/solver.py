"""Parity and Buchi game solving.

``solve_zielonka`` computes exact winning regions with the classic recursive
attractor decomposition.  ``solve_buchi`` solves the explicit two-player
arenas used for the (bi)simulation games; its nested-attractor layering also
yields the progress ranks consumed by the well-foundedness checks.
"""
from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Hashable

from .game import ParityGame, Player, WinningRegions

__all__ = [
    "ArenaPlayer",
    "Arena",
    "solve_zielonka",
    "winner_equivalent",
    "solve_buchi",
    "buchi_rank",
    "arena_as_parity_game",
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


def _subgame_attractor(
    game: ParityGame, player: Player, targets: int, alive: int,
    preds: tuple[tuple[int, ...], ...],
) -> int:
    """Attractor of ``player`` to ``targets`` inside the subgame ``alive``.

    Edges leaving ``alive`` do not exist in the subgame, unlike in the
    constrained attractor of the forcing module.
    """
    attr = targets & alive
    remaining = [0] * game.vertex_count
    queue = deque()
    v_mask = 1
    for v in game.vertices:
        if alive >> v & 1:
            remaining[v] = sum(1 for u in game.successors[v] if alive >> u & 1)
        if attr >> v & 1:
            queue.append(v)
        v_mask <<= 1
    while queue:
        u = queue.popleft()
        for v in preds[u]:
            if not alive >> v & 1 or attr >> v & 1:
                continue
            if game.owners[v] is player:
                attr |= 1 << v
                queue.append(v)
            else:
                remaining[v] -= 1
                if remaining[v] == 0:
                    attr |= 1 << v
                    queue.append(v)
    return attr


def solve_zielonka(game: ParityGame) -> WinningRegions:
    """Exact winner partition by recursive attractor decomposition."""
    preds = game.predecessors()
    # Each nested call strips at least one vertex, so the depth is bounded
    # by the vertex count; give the interpreter room for larger inputs and
    # restore the caller's limit afterwards.
    limit = sys.getrecursionlimit()

    def solve(alive: int) -> tuple[int, int]:
        if alive == 0:
            return 0, 0
        p = min(game.priorities[v] for v in game.vertices if alive >> v & 1)
        i = Player(p % 2)
        top = 0
        for v in game.vertices:
            if alive >> v & 1 and game.priorities[v] == p:
                top |= 1 << v
        a = _subgame_attractor(game, i, top, alive, preds)
        sub = solve(alive & ~a)
        win = [sub[0], sub[1]]
        if win[i.opponent] == 0:
            win[i] = alive
            win[i.opponent] = 0
        else:
            b = _subgame_attractor(game, i.opponent, win[i.opponent], alive, preds)
            sub2 = solve(alive & ~b)
            win = [sub2[0], sub2[1]]
            win[i.opponent] |= b
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


def winner_equivalent(game: ParityGame, v: int, w: int) -> bool:
    """True iff ``v`` and ``w`` lie in the same winning region."""
    regions = solve_zielonka(game)
    return regions.winner(v) == regions.winner(w)


def _arena_preds(arena: Arena) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(arena.size)]
    for p, row in enumerate(arena.edges):
        for q in row:
            preds[q].append(p)
    return preds


def _duplicator_attractor_layers(
    arena: Arena, targets: set[int], preds: list[list[int]]
) -> dict[int, int]:
    layers = {p: 0 for p in targets}
    remaining = [len(row) for row in arena.edges]
    queue = deque(sorted(targets))
    while queue:
        q = queue.popleft()
        for p in preds[q]:
            if p in layers:
                continue
            if arena.owners[p] is ArenaPlayer.DUPLICATOR:
                layers[p] = layers[q] + 1
                queue.append(p)
            else:
                remaining[p] -= 1
                if remaining[p] == 0:
                    layers[p] = layers[q] + 1
                    queue.append(p)
    return layers


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
        new_y = set(_duplicator_attractor_layers(arena, t, preds))
        if new_y == y:
            return frozenset(y)
        y = new_y


def buchi_rank(arena: Arena, won: frozenset[int]) -> dict[int, int]:
    """Nested-attractor layer of each Duplicator-won position.

    Accepting won positions have rank 0; along any Duplicator strategy move
    from a non-accepting won position the rank strictly decreases, so the
    ranks realise a well-founded progress order towards the acceptance set.
    """
    preds = _arena_preds(arena)
    t = arena.accepting & _cpre_duplicator(arena, set(won))
    layers = _duplicator_attractor_layers(arena, t, preds)
    if set(layers) != set(won):
        raise ValueError("rank queried for positions not won by Duplicator")
    return layers


def arena_as_parity_game(arena: Arena) -> ParityGame:
    """Re-encode a Buchi arena as a parity game (cross-check oracle).

    Accepting positions get priority 0, the rest 1; Duplicator plays even.
    Duplicator wins the Buchi game from a position iff even wins the parity
    game from the corresponding vertex.
    """
    priorities = tuple(0 if p in arena.accepting else 1 for p in range(arena.size))
    owners = tuple(
        Player.EVEN if o is ArenaPlayer.DUPLICATOR else Player.ODD for o in arena.owners
    )
    succs = tuple(tuple(sorted(set(row))) for row in arena.edges)
    return ParityGame(priorities, owners, succs)
