"""The lattice of parity game relations and its machine-checkable edges.

Every relation of the lattice is an equivalence, so ``compute_relations``
gives each as a ``Partition``, and an inclusion edge holds when the finer
partition refines the coarser one.  ``check_lattice`` checks every edge on
those partitions, then asks ``simgames.coincidence_check`` whether each
notion of ``simgames.COINCIDENCES`` has its game route coincide with its
fixpoint route.  The relations that both steps read (direct and delayed
simulation, governed and governed stuttering bisimilarity) are kept on the
game by ``game.derived``, so each is computed once.  The CLI and the test
suite share this module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .game import ParityGame
from .quotient import _check_iso_size, _iso_invariants, find_isomorphism
from .relations import (
    Partition,
    direct_sim,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    strong_bisim,
    strong_direct_sim,
    stut_bisim,
)
from .simgames import COINCIDENCES, coincidence_check, delayed_sim
from .solver import solve_zielonka

__all__ = [
    "RELATION_ORDER",
    "LATTICE_EDGES",
    "compute_relations",
    "lattice_edges",
    "check_lattice",
    "LatticeResult",
]

# Finest to coarsest (one topological order of the lattice).
RELATION_ORDER = [
    "iso",
    "strong-bisim",
    "stut",
    "strong-direct-sim-equiv",
    "governed-bisim",
    "gstut",
    "direct-sim-equiv",
    "delayed-even-equiv",
    "delayed-odd-equiv",
    "delayed-equiv",
    "winner",
]

# Every inclusion edge of the lattice, (finer, coarser).
LATTICE_EDGES = [
    ("iso", "strong-bisim"),
    ("strong-bisim", "stut"),
    ("strong-bisim", "governed-bisim"),
    ("strong-bisim", "strong-direct-sim-equiv"),
    ("stut", "gstut"),
    ("governed-bisim", "gstut"),
    ("governed-bisim", "direct-sim-equiv"),
    ("strong-direct-sim-equiv", "direct-sim-equiv"),
    ("direct-sim-equiv", "delayed-even-equiv"),
    ("direct-sim-equiv", "delayed-odd-equiv"),
    ("delayed-even-equiv", "delayed-equiv"),
    ("delayed-odd-equiv", "delayed-equiv"),
    ("delayed-equiv", "winner"),
    ("gstut", "winner"),
]


def _iso_partition(game: ParityGame) -> Partition:
    """Vertex-level isomorphism: an automorphism maps one vertex to the other.

    Automorphisms form a group, so the relation is the partition into
    orbits.  Each orbit is searched from its least vertex ``v``: a later
    vertex not yet in an orbit joins ``v``'s when its isomorphism invariants
    equal ``v``'s and an automorphism maps ``v`` to it.
    """
    _check_iso_size(game)
    n = game.vertex_count
    invariants = _iso_invariants(game)
    class_of = [-1] * n
    for v in game.vertices:
        if class_of[v] >= 0:
            continue
        class_of[v] = v
        for w in range(v + 1, n):
            if class_of[w] < 0 and invariants[w] == invariants[v]:
                if find_isomorphism(game, game, pin=(v, w)) is not None:
                    class_of[w] = v
    return Partition.from_class_of(n, class_of)


def _winner_partition(game: ParityGame) -> Partition:
    won_by_even = solve_zielonka(game).won_by_even
    return Partition.from_class_of(game.vertex_count, [v in won_by_even for v in game.vertices])


def compute_relations(game: ParityGame) -> dict[str, Partition]:
    """All lattice relations of a game, as partitions in ``RELATION_ORDER``."""
    # The isomorphism partition comes first: its size limit fails fast.
    return {
        "iso": _iso_partition(game),
        "strong-bisim": strong_bisim(game),
        "stut": stut_bisim(game),
        "strong-direct-sim-equiv": equivalence_from_preorder(strong_direct_sim(game)),
        "governed-bisim": governed_bisim(game),
        "gstut": gstut_bisim(game),
        "direct-sim-equiv": equivalence_from_preorder(direct_sim(game)),
        "delayed-even-equiv": equivalence_from_preorder(delayed_sim(game, "even")),
        "delayed-odd-equiv": equivalence_from_preorder(delayed_sim(game, "odd")),
        "delayed-equiv": equivalence_from_preorder(delayed_sim(game, "none")),
        "winner": _winner_partition(game),
    }


@dataclass(frozen=True)
class LatticeResult:
    name: str
    passed: bool


def lattice_edges(relations: dict[str, Partition]) -> list[LatticeResult]:
    """Whether each inclusion edge holds on the given relations, by name."""
    return [
        LatticeResult(f"{finer} refines {coarser}", relations[finer].refines(relations[coarser]))
        for finer, coarser in LATTICE_EDGES
    ]


def check_lattice(game: ParityGame) -> list[LatticeResult]:
    """Check every inclusion edge, then every coincidence of ``COINCIDENCES``.

    The edges come first, so the isomorphism size limit fails before any
    arena is built.  Each coincidence reads the relations the edges kept on
    the game: the delayed preorders as game routes, the direct simulation
    rows and the governed and gstut partitions as fixpoint routes.
    """
    return lattice_edges(compute_relations(game)) + [
        LatticeResult(f"game-based {notion} coincides", coincidence_check(game, notion)) for notion in COINCIDENCES
    ]
