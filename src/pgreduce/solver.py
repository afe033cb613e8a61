"""Parity and Buchi game solving.

``solve_zielonka`` computes exact winning regions in two decomposition
steps around Zielonka's attractor decomposition.  It first decides the
vertices whose owner can stay on a self-loop of its own parity, with their
attractors, and then solves the strongly connected components of the rest
bottom-up; Zielonka's core runs on each component's unsolved part, on an
explicit stack, in the game's own vertex ids.  A vertex that no cycle
reaches never enters the component search: the attractors that decide its
successors decide it.  In the core, the opponent's attractor to its region
below a frame starts from the vertices of the frame's own peeled layer
that join first, since the region is already closed under it below.

Every set the solver keeps is one byte per vertex of the game or a list of
vertices: the unsolved vertices, read by the component pass too, and the
core's current subgame, whose bytes the core clears while it solves a
subgame below and sets back when it is done.  The attractor kernel
:func:`pgreduce.forcing.mark_attractor` reads those bytes directly, so no
step copies a row, renumbers a vertex or touches a bitmask.

``solve_buchi`` solves the explicit two-player arenas used for the
(bi)simulation games; its nested-attractor layering also yields the
progress ranks (``buchi_rank``) consumed by the well-foundedness checks.
Its targets start as the accepting positions and only shrink, so each
round's one-step predecessor visits the last round's targets only, and
the fixpoint ends at the first attractor from whose every target
Duplicator re-enters it: one attractor per distinct target set.  An arena
attractor counts every move and allows every position, so both run one
breadth-first attractor on flat per-position lists: owner flags,
out-degrees, a ``bytearray`` membership and a list of remaining counts.
The predecessor lists come with the arena: each builder of
:mod:`pgreduce.simgames` records them in its breadth-first loop, and the
solver derives them from the edges of a hand-built arena.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import compress, groupby
from operator import index
from typing import Sequence

from .forcing import mark_attractor
from .game import ParityGame, Player, WinningRegions, _EVEN, _ODD, _OPPONENT

__all__ = [
    "ArenaPlayer",
    "Arena",
    "solve_zielonka",
    "solve_buchi",
    "buchi_rank",
]


_PLAYERS = (_EVEN, _ODD)


class ArenaPlayer(IntEnum):
    SPOILER = 0
    DUPLICATOR = 1


_ARENA_PLAYERS = (ArenaPlayer.SPOILER, ArenaPlayer.DUPLICATOR)


@dataclass
class Arena:
    """Explicit turn-based game arena with a Buchi acceptance set.

    Positions are dense indices.  For the pair games of
    :mod:`pgreduce.simgames`, ``ids[p]`` is the integer id from which the
    builder computed position ``p`` (a delayed configuration (v, w, k) has
    id ``(v * n + w) * K + k``, and its half moves and sink follow the
    n²K configuration ids), and ``start[v * n + w]`` is the position
    at which a play from the vertex pair (v, w) starts.  A hand-built arena
    may leave both empty.  Only the builders of :mod:`pgreduce.simgames`
    set ``predecessors``, the lists of the positions moving to each one, as
    they build a checked arena; for every other arena it stays None, and
    the solver validates the arena and derives the lists from ``edges``.
    """

    owners: list[ArenaPlayer] = field(default_factory=list)
    edges: list[list[int]] = field(default_factory=list)
    accepting: set[int] = field(default_factory=set)
    ids: list[int] = field(default_factory=list)
    start: list[int] = field(default_factory=list)
    predecessors: list[list[int]] | None = field(default=None, init=False)

    @property
    def size(self) -> int:
        return len(self.owners)

    def validate(self) -> None:
        """Raise ``ValueError`` naming a position owned by neither player or
        without moves, a move or an accepting id that is no integer or lies
        outside the arena, or owners and move rows of unequal counts.
        Owners, moves and accepting ids are read through
        ``operator.index``, as ``ParityGame`` reads its owners, so bools
        pass and floats and strings do not."""
        size = self.size
        if len(self.edges) != size:
            raise ValueError(f"arena has {size} owners but {len(self.edges)} move rows")
        for p, (owner, row) in enumerate(zip(self.owners, self.edges)):
            moves = list(map(_as_index, row))
            if _as_index(owner) in _ARENA_PLAYERS and row and None not in moves and min(moves) >= 0 and max(moves) < size:
                continue
            where = f" (id {self.ids[p]})" if self.ids else ""
            if _as_index(owner) not in _ARENA_PLAYERS:
                raise ValueError(f"arena position {p}{where} has owner {owner!r}, neither Spoiler (0) nor Duplicator (1)")
            if not row:
                raise ValueError(f"arena position {p}{where} has no moves")
            q = next(q for q, i in zip(row, moves) if i is None or not 0 <= i < size)
            outside = "which is no integer" if _as_index(q) is None else f"outside 0..{size - 1}"
            raise ValueError(f"arena position {p}{where} moves to {q!r}, {outside}")
        for p in self.accepting:
            i = _as_index(p)
            if i is None:
                raise ValueError(f"accepting position {p!r} is no integer")
            if not 0 <= i < size:
                raise ValueError(f"accepting position {p} is outside 0..{size - 1}")


def _as_index(x: object) -> int | None:
    """``operator.index(x)``, or None where ``x`` is no integer."""
    try:
        return index(x)
    except TypeError:
        return None


def _zielonka(
    state: bytearray,
    owners: Sequence[Player],
    preds: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
    prios: Sequence[int],
    part: Sequence[int],
) -> list[list[int]]:
    """Each player's region of the subgame ``part``, as ``[even, odd]``.

    The subgame is the vertices ``v`` with ``state[v]`` 1; they must be
    exactly ``part``, every vertex keeping a successor among them.  The
    recursion runs in the game's own ids on those bytes and leaves them as
    it found them.  The part is sorted once into one ascending vertex list
    per priority; a level's targets are its vertices still in the subgame.
    A subgame never holds a priority below its parent's lowest, so the
    level cursor only moves forward.

    The recursion runs on an explicit stack, so its depth is bounded by
    memory, not by the interpreter's recursion limit.  A frame ``(cursor,
    player, a, owed, later, size)`` waits for the subgame left after
    ``player``'s attractor ``a`` to its lowest level, whose bytes are 0
    meanwhile.  ``owed`` holds the vertices its earlier tail calls gave to
    each player, ``later`` the attractors those calls removed, and ``size``
    counts the frame's subgame.  A finished frame sets ``a`` and ``later``
    back to 1.

    The opponent ``o``'s region below a frame, ``won[o]``, is its winning
    region of the subgame without ``a``, so it is closed under ``o``'s
    attractor there: an ``o`` vertex outside it has no edge into it, and
    every other vertex outside it keeps a successor outside it.  In the
    frame's subgame, then, only a vertex of ``a`` can be the first to join
    it: an ``o`` vertex of ``a`` with an edge into the region, or a vertex of
    ``a`` of the frame's player whose every successor in the subgame lies
    in the region.  The region's bytes are cleared first, so the attractor
    from those first joiners counts the edges into the region as gone;
    ``b``, the region and that attractor, is ``o``'s attractor to the
    region, found without walking the region's predecessor lists.
    """
    order = sorted(part)
    order.sort(key=prios.__getitem__)
    levels = [(_PLAYERS[p % 2], list(level)) for p, level in groupby(order, prios.__getitem__)]
    at = state.__getitem__
    frames: list[tuple[int, Player, list[int], list[list[int]], list[int], int]] = []
    owed: list[list[int]] = [[], []]
    later: list[int] = []
    size = len(order)
    cursor = 0
    while True:
        # Descend: peel the lowest level's attractor off each subgame.
        while size:
            i, level = levels[cursor]
            targets = list(compress(level, map(at, level)))
            if not targets:
                cursor += 1
                continue
            a = mark_attractor(state, owners, preds, succs, i, targets)
            for v in a:
                state[v] = 0
            frames.append((cursor, i, a, owed, later, size))
            size -= len(a)
            owed, later = [[], []], []
        won = owed
        # Ascend: a frame whose opponent won nothing below is won by its
        # player; otherwise it continues on the rest, owing ``b``, the
        # opponent's attractor to its region, seeded from ``a``.
        while frames:
            cursor, i, a, owed, later, size = frames.pop()
            for v in a:
                state[v] = 1
            o = _OPPONENT[i]
            region = won[o]
            if region:
                for v in region:
                    state[v] = 0
                taken = set(region)
                first = [
                    v
                    for v in a
                    if (not taken.isdisjoint(succs[v]) if owners[v] is o else not any(map(at, succs[v])))
                ]
                b = mark_attractor(state, owners, preds, succs, o, sorted(first))
                for v in b:
                    state[v] = 0
                b += region
                owed[o] += b
                later += b
                size -= len(b)
                if size:
                    break
            else:
                owed[i] += a
                owed[i] += won[i]
            for v in later:
                state[v] = 1
            won = owed
        else:
            return won


def _bottom_up_sccs(successors: Sequence[Sequence[int]], inside: bytes) -> list[list[int]]:
    """Strongly connected components of the graph induced by the vertices
    ``v`` with ``inside[v]`` set, each listed after every component it
    reaches.

    Tarjan's algorithm on an explicit stack of (vertex, successor iterator)
    frames, so a path of any length needs no interpreter recursion.
    """
    n = len(successors)
    # Depth-first numbers count from 1; 0 marks unvisited vertices and n + 1
    # those already listed, which then never lower a ``low``.
    order = [0] * n
    low = [0] * n
    stack: list[int] = []
    out: list[list[int]] = []
    count = 0
    for root in compress(range(n), inside):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        frames = [(root, iter(successors[root]))]
        while frames:
            v, it = frames[-1]
            for u in it:
                if not inside[u]:
                    continue
                if not order[u]:
                    count += 1
                    order[u] = low[u] = count
                    stack.append(u)
                    frames.append((u, iter(successors[u])))
                    break
                if order[u] < low[v]:
                    low[v] = order[u]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == order[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for u in component:
                        order[u] = n + 1
                    out.append(component)
    return out


def solve_zielonka(game: ParityGame) -> WinningRegions:
    """Exact winner partition: Zielonka's algorithm behind two decomposition steps.

    1. A vertex whose owner has a self-loop on a priority of the owner's
       parity is won by its owner, who can stay there forever.  Each
       player's attractor to those vertices is decided first.
    2. The strongly connected components of the rest are visited bottom-up,
       each after every component it reaches.  A component's unsolved part
       is then a total subgame that no unsolved edge leaves, so the regions
       Zielonka's core finds in it are winning in the whole game; each
       player's attractor to its region is decided.  A vertex that no cycle
       passes through is decided once its last successor is: its owner's
       attractor takes it with its first successor that the owner wins, or
       the other player's with the last.  So the vertices that no cycle
       reaches are peeled off first, sources first, counting down each
       vertex's predecessors, and the component search never sees them.

    Every decided attractor is taken within the unsolved vertices, whose
    remainder therefore stays a total subgame (Friedmann & Lange, "Solving
    parity games in practice", ATVA 2009).  The unsolved vertices are one
    byte each, so deciding costs the attractor's edges and no pass over the
    game.  The core runs on each part in place: its bytes in one scratch
    array are set for the core and cleared after it.
    """
    n = game.vertex_count
    owners, succs, prios = game.owners, game.successors, game.priorities
    preds = game.predecessors()
    unsolved = bytearray(b"\x01") * n
    won: list[list[int]] = [[], []]

    def decide(player: Player, region: list[int]) -> None:
        attracted = mark_attractor(unsolved, owners, preds, succs, player, region)
        for v in attracted:
            unsolved[v] = 0
        won[player] += attracted

    loops: list[list[int]] = [[], []]
    for v, row in enumerate(succs):
        p = prios[v] % 2
        if owners[v] == p and v in row:
            loops[p].append(v)
    for i in _PLAYERS:
        if loops[i]:
            decide(i, loops[i])
    if len(won[0]) + len(won[1]) == n:
        return WinningRegions(frozenset(won[0]), frozenset(won[1]))
    # A count of every predecessor, solved ones too, can only keep a vertex.
    count = list(map(len, preds))
    cyclic = bytearray(unsolved)
    queue = [v for v in range(n) if not count[v]]
    for v in queue:
        cyclic[v] = 0
        for u in succs[v]:
            count[u] -= 1
            if not count[u]:
                queue.append(u)
    scratch = bytearray(n)
    for component in _bottom_up_sccs(succs, cyclic):
        part = [v for v in component if unsolved[v]]
        if not part:
            continue
        for v in part:
            scratch[v] = 1
        regions = _zielonka(scratch, owners, preds, succs, prios, part)
        for v in part:
            scratch[v] = 0
        for i in _PLAYERS:
            if regions[i]:
                decide(i, regions[i])
    return WinningRegions(frozenset(won[0]), frozenset(won[1]))


def _arena_preds(arena: Arena) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(arena.size)]
    for p, row in enumerate(arena.edges):
        for q in row:
            preds[q].append(p)
    return preds


def _flat(arena: Arena) -> tuple[bytearray, list[int], list[int]]:
    """Duplicator-owned flags, out-degrees and accepting positions of an arena."""
    return bytearray(arena.owners), list(map(len, arena.edges)), list(arena.accepting)


def _cpre_duplicator(
    edges: list[list[int]], dup: bytearray, targets: list[int], inside: bytearray
) -> list[int]:
    """The ``targets`` from which Duplicator forces entering ``inside`` in one move."""
    out = []
    for p in targets:
        if dup[p]:
            for q in edges[p]:
                if inside[q]:
                    out.append(p)
                    break
        else:
            for q in edges[p]:
                if not inside[q]:
                    break
            else:
                out.append(p)
    return out


def _duplicator_attractor(
    dup: bytearray, degree: list[int], preds: list[list[int]], targets: list[int]
) -> tuple[bytearray, list[int], list[int]]:
    """Duplicator's attractor to ``targets``, counting every move.

    Breadth-first, as ``forcing.mark_attractor``: a Duplicator position joins one
    layer after its first successor, a Spoiler position one layer after the
    last of its ``degree`` successors.  Returns the membership, the
    positions in the order they joined, and where each layer ends in that
    order (layer 0 is ``targets``).
    """
    member = bytearray(len(dup))
    for p in targets:
        member[p] = 1
    remaining = degree[:]
    order = list(targets)
    ends = []
    start = 0
    while start < len(order):
        end = len(order)
        for u in order[start:end]:
            for p in preds[u]:
                if member[p]:
                    continue
                if not dup[p]:
                    r = remaining[p] - 1
                    remaining[p] = r
                    if r:
                        continue
                member[p] = 1
                order.append(p)
        ends.append(end)
        start = end
    return member, order, ends


def _buchi_layers(arena: Arena) -> tuple[list[int], list[int]]:
    """The last round of the Buchi fixpoint: Duplicator's won positions in
    the order they joined, and where each attractor layer ends in it.

    Standard nested fixpoint: Y is Duplicator's attractor to the accepting
    positions from which Duplicator re-enters Y in one move, shrunk from
    all positions until stable.  The attractor and the one-step
    predecessor are monotone, so the targets only shrink: each round keeps
    those of the last round that re-enter its attractor.  When none drops,
    the next attractor would be this one, so its layering is returned.  An
    arena without recorded predecessor lists is validated first, which
    walks every move as deriving the lists does.
    """
    preds = arena.predecessors
    if preds is None:
        arena.validate()
        preds = _arena_preds(arena)
    dup, degree, targets = _flat(arena)
    while True:
        inside, order, ends = _duplicator_attractor(dup, degree, preds, targets)
        kept = _cpre_duplicator(arena.edges, dup, targets, inside)
        if len(kept) == len(targets):
            return order, ends
        targets = kept


def solve_buchi(arena: Arena) -> frozenset[int]:
    """Positions from which Duplicator forces visiting ``accepting`` infinitely often."""
    order, _ = _buchi_layers(arena)
    return frozenset(order)


def buchi_rank(arena: Arena) -> dict[int, int]:
    """Nested-attractor layer of each Duplicator-won position.

    The keys are exactly the positions ``solve_buchi`` returns.  Accepting
    won positions have rank 0; along any Duplicator strategy move from a
    non-accepting won position the rank strictly decreases, so the ranks
    realise a well-founded progress order towards the acceptance set.
    """
    order, ends = _buchi_layers(arena)
    ranks = {}
    start = 0
    for layer, end in enumerate(ends):
        for p in order[start:end]:
            ranks[p] = layer
        start = end
    return ranks
