"""Parity and Buchi game solving.

``solve_zielonka`` computes exact winning regions with Zielonka's attractor
decomposition, run on an explicit stack over one bitmask per priority.
``solve_buchi`` solves the explicit two-player arenas used for the
(bi)simulation games; its one-step predecessor visits the accepting
positions only, and its nested-attractor layering also yields the progress
ranks consumed by the well-foundedness checks.  Both use the
attractor kernel :func:`pgreduce.forcing.attractor_layers`: Zielonka
counts only the successors inside the current subgame and allows only its
vertices, the arena solver counts every move and allows every position.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Hashable

from .forcing import attractor_layers, iter_bits
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
    source tuple it encodes and ``index`` maps it the other way.  ``start``
    lists, for the pair games of :mod:`pgreduce.simgames`, the position at
    which a play from the vertex pair (v, w) starts, at ``v * n + w``.
    """

    owners: list[ArenaPlayer] = field(default_factory=list)
    edges: list[list[int]] = field(default_factory=list)
    accepting: set[int] = field(default_factory=set)
    payload: list[Hashable] = field(default_factory=list)
    start: list[int] = field(default_factory=list)

    @cached_property
    def index(self) -> dict[Hashable, int]:
        """Position of each payload, built from ``payload`` on first use."""
        return {p: i for i, p in enumerate(self.payload)}

    @property
    def size(self) -> int:
        return len(self.owners)

    def validate(self) -> None:
        for p, row in enumerate(self.edges):
            if not row:
                raise ValueError(f"arena position {p} ({self.payload[p]!r}) has no moves")


def solve_zielonka(game: ParityGame) -> WinningRegions:
    """Exact winner partition by Zielonka's attractor decomposition.

    The recursion runs on an explicit stack, so its depth is bounded by
    memory, not by the interpreter's recursion limit, and no call scans
    the vertices.  A frame ``(alive, cursor, player, owed)`` waits for the
    subgame left after ``player``'s attractor to the lowest priority of
    ``alive``; ``owed`` holds the vertices its earlier tail calls gave to
    each player.  ``cursor`` indexes the per-priority masks and only moves
    forward, because no subgame holds a priority below its parent's lowest.
    """
    preds = game.predecessors()
    succ_masks = [sum(1 << u for u in row) for row in game.successors]
    levels = sorted(set(game.priorities))
    rank = {p: k for k, p in enumerate(levels)}
    masks = [0] * len(levels)
    for v, p in enumerate(game.priorities):
        masks[rank[p]] |= 1 << v

    def attract(player: Player, targets: int, alive: int) -> int:
        # Edges leaving the subgame do not exist in it, unlike in the
        # constrained attractor of the forcing module.
        def degree(v: int) -> int:
            return (succ_masks[v] & alive).bit_count()

        out = 0
        for v in attractor_layers(game.owners, preds, degree, player, iter_bits(targets), alive):
            out |= 1 << v
        return out

    frames: list[tuple[int, int, Player, list[int]]] = []
    alive = (1 << game.vertex_count) - 1
    cursor = 0
    owed = [0, 0]
    while True:
        # Descend: peel the lowest priority's attractor off each subgame.
        while alive:
            while not masks[cursor] & alive:
                cursor += 1
            i = Player(levels[cursor] % 2)
            a = attract(i, masks[cursor] & alive, alive)
            frames.append((alive, cursor, i, owed))
            alive &= ~a
            owed = [0, 0]
        won = owed
        # Ascend: a frame whose opponent won nothing below is won by its
        # player; otherwise it continues on the rest, owing ``b``.
        while frames:
            alive, cursor, i, owed = frames.pop()
            o = i.opponent
            if not won[o]:
                owed[i] |= alive
                won = owed
                continue
            b = attract(o, won[o], alive)
            owed[o] |= b
            alive &= ~b
            break
        else:
            return WinningRegions(frozenset(iter_bits(won[0])), frozenset(iter_bits(won[1])))


def _arena_preds(arena: Arena) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(arena.size)]
    for p, row in enumerate(arena.edges):
        for q in row:
            preds[q].append(p)
    return preds


def _cpre_duplicator(arena: Arena, target: set[int]) -> set[int]:
    """Accepting positions in ``target`` from which Duplicator forces
    re-entering ``target`` in one move."""
    out = set()
    for p in arena.accepting & target:
        row = arena.edges[p]
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
        t = _cpre_duplicator(arena, y)
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
    t = _cpre_duplicator(arena, set(won))
    layers = attractor_layers(
        arena.owners, _arena_preds(arena), lambda p: len(arena.edges[p]),
        ArenaPlayer.DUPLICATOR, sorted(t),
    )
    if set(layers) != set(won):
        raise ValueError("rank queried for positions not won by Duplicator")
    return layers
