"""Corpus generators for the benchmark workloads.

Games are plain data (``Game``) with answers known by construction: the
ladder and chain-loop families with closed-form winners and classes, and
inflation, which grows a core game and records the origin of every new
vertex.  Randomness comes from a ``random.Random`` seeded by the workload
seed; ``relabel`` renames vertices.  Each game reaches the library as
PGSolver bytes only.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# The five equivalences the CLI minimizes by.
EQUIVALENCES = ("strong-bisim", "governed-bisim", "stut", "gstut", "direct-sim")
# Chains of stutter steps are invisible to these two only; the other three
# are checked on games inflated with duplicates alone.
STUTTER_INVARIANT = ("stut", "gstut")


@dataclass(frozen=True)
class Game:
    """A total parity game as plain data: vertex ``v`` has ``prio[v]``, ``owner[v]`` (0 even, 1 odd) and ``succ[v]``."""

    prio: tuple[int, ...]
    owner: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.prio)


def to_pgsolver(game: Game) -> bytes:
    """PGSolver text, written here so that the library only ever parses."""
    out = [f"parity {game.n - 1};"]
    for v in range(game.n):
        succs = ",".join(str(u) for u in game.succ[v])
        out.append(f"{v} {game.prio[v]} {game.owner[v]} {succs};")
    return ("\n".join(out) + "\n").encode("ascii")


def digest(blobs) -> str:
    """sha256 over the serialized games, in corpus order."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


def from_library(pg_game) -> Game:
    """Plain copy of a ``pgreduce.ParityGame`` (used for ``random_game``)."""
    return Game(
        tuple(pg_game.priorities),
        tuple(int(o) for o in pg_game.owners),
        tuple(tuple(row) for row in pg_game.successors),
    )


def relabel(game: Game, perm: list[int]) -> Game:
    """The same game with vertex ``v`` renamed to ``perm[v]``."""
    prio = [0] * game.n
    owner = [0] * game.n
    succ: list[tuple[int, ...]] = [()] * game.n
    for v in range(game.n):
        prio[perm[v]] = game.prio[v]
        owner[perm[v]] = game.owner[v]
        succ[perm[v]] = tuple(sorted(perm[u] for u in game.succ[v]))
    return Game(tuple(prio), tuple(owner), tuple(succ))


def shuffled(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# --- structured families with closed-form answers -------------------------


def ladder(k: int, owner: int) -> Game:
    """All-one-owner ladder with ``2k`` vertices.

    Rung ``i`` is the pair ``(2i, 2i+1)`` with priorities 2 and 1; both
    vertices move to ``{2i+2, 2i+3} mod 2k``.  The owner can always pick the
    rung vertex of its own parity, so it wins everywhere, and "same
    priority" is a strong bisimulation: every equivalence between strong
    bisimilarity and equal priority (all five CLI equivalences) has exactly
    the two priority classes.
    """
    n = 2 * k
    prio = tuple(2 if v % 2 == 0 else 1 for v in range(n))
    succ = tuple(tuple(sorted({(2 * (v // 2) + 2) % n, (2 * (v // 2) + 3) % n})) for v in range(n))
    return Game(prio, (owner,) * n, succ)


def chain_loop(n: int) -> Game:
    """Vertex ``i`` has priority ``i``, owner ``i mod 2`` and edges ``i -> i+1 (mod n)``, ``i -> i``.

    Each owner can stay on its own self-loop forever, whose priority has the
    owner's parity, so the owner of ``i`` wins ``i``.  Distinct priorities
    make Zielonka's recursion as deep as the game.
    """
    return Game(
        tuple(range(n)),
        tuple(i % 2 for i in range(n)),
        tuple(tuple(sorted({(i + 1) % n, i})) for i in range(n)),
    )


def chain_loop_winner(v: int) -> int:
    return v % 2


# --- inflation with a known origin map ------------------------------------


@dataclass(frozen=True)
class Inflated:
    """An inflated game; ``origin[v]`` is the core vertex that ``v`` copies or stutters into."""

    game: Game
    origin: tuple[int, ...]


def inflate(core: Game, duplicates: int, chains: int, rng: random.Random) -> Inflated:
    """Grow ``core`` by duplicated vertices and stutter chains.

    A duplicate of ``v`` keeps its priority, owner and successors and takes
    over about half of ``v``'s in-edges, so it is strongly bisimilar to
    ``v``.  A chain of 1-4 fresh vertices with ``v``'s priority and owner
    and a single successor each is put in front of ``v`` and receives about
    half of ``v``'s in-edges at its head; that is a stutter step, invisible
    to stut and gstut only.  Self-loops are never redirected.  Core vertices
    keep their indices ``0..n-1``.
    """
    prio = list(core.prio)
    owner = list(core.owner)
    succ = [list(row) for row in core.succ]
    origin = list(range(core.n))

    def take_half_of_in_edges(v: int, new: int, before: int) -> None:
        # Only edges that existed before this step; the new vertices keep theirs.
        for u in range(before):
            if u != v and v in succ[u] and rng.random() < 0.5:
                row = succ[u]
                row.remove(v)
                if new not in row:
                    row.append(new)

    def add_vertex(p: int, o: int, row: list[int], orig: int) -> int:
        prio.append(p)
        owner.append(o)
        succ.append(row)
        origin.append(orig)
        return len(prio) - 1

    steps = ["dup"] * duplicates + ["chain"] * chains
    rng.shuffle(steps)
    for step in steps:
        before = len(prio)
        v = rng.randrange(before)
        if step == "dup":
            c = add_vertex(prio[v], owner[v], list(succ[v]), origin[v])
            take_half_of_in_edges(v, c, before)
        else:
            nxt = v
            for _ in range(rng.randint(1, 4)):
                nxt = add_vertex(prio[v], owner[v], [nxt], origin[v])
            take_half_of_in_edges(v, nxt, before)
    game = Game(tuple(prio), tuple(owner), tuple(tuple(sorted(row)) for row in succ))
    return Inflated(game, tuple(origin))
