"""The lattice of parity game relations and its machine-checkable edges.

``compute_relations`` evaluates every relation of the lattice on a game;
``check_lattice`` verifies all inclusion edges plus the coincidence of the
game-based and fixpoint characterisations.  The CLI and the test suite
share this module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .game import ParityGame
from .quotient import EQUIVALENCES, find_isomorphism

# direct_sim and the four bisimulation partitions are reached through
# EQUIVALENCES, but bench/tracing.py wraps these names in this module, so
# they stay bound.
from .relations import (  # noqa: F401
    VertexRelation,
    direct_sim,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    strong_bisim,
    strong_direct_sim,
    stut_bisim,
)
from .simgames import coincidence_check, delayed_sim
from .solver import solve_zielonka

__all__ = [
    "RELATION_ORDER",
    "LATTICE_EDGES",
    "COINCIDENCE_NOTIONS",
    "compute_relations",
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

COINCIDENCE_NOTIONS = [
    "direct",
    "governed_bisim",
    "gstut",
    "delayed",
    "delayed_even",
    "delayed_odd",
]


def _iso_relation(game: ParityGame) -> VertexRelation:
    """Vertex-level isomorphism: an automorphism maps one vertex to the other."""
    n = game.vertex_count
    rows = [0] * n
    for v in game.vertices:
        rows[v] |= 1 << v
        for w in game.vertices:
            if w <= v:
                continue
            if find_isomorphism(game, game, pin=(v, w)) is not None:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
    return VertexRelation(n, tuple(rows), "equivalence")


def _winner_relation(game: ParityGame) -> VertexRelation:
    regions = solve_zielonka(game)
    n = game.vertex_count
    even_mask = 0
    for v in regions.won_by_even:
        even_mask |= 1 << v
    odd_mask = ((1 << n) - 1) & ~even_mask
    rows = tuple(even_mask if v in regions.won_by_even else odd_mask for v in game.vertices)
    return VertexRelation(n, rows, "equivalence")


def compute_relations(game: ParityGame) -> dict[str, VertexRelation]:
    """All lattice relations of a game, as vertex relations.

    The five equivalences with a unique quotient come from ``EQUIVALENCES``;
    the direct simulation kernel is named ``direct-sim-equiv`` here.
    """
    rels = {
        "iso": _iso_relation(game),
        "strong-direct-sim-equiv": equivalence_from_preorder(strong_direct_sim(game)).as_relation(),
        "delayed-even-equiv": equivalence_from_preorder(delayed_sim(game, "even")).as_relation(),
        "delayed-odd-equiv": equivalence_from_preorder(delayed_sim(game, "odd")).as_relation(),
        "delayed-equiv": equivalence_from_preorder(delayed_sim(game, "none")).as_relation(),
        "winner": _winner_relation(game),
    }
    for name, equivalence in EQUIVALENCES.items():
        key = "direct-sim-equiv" if name == "direct-sim" else name
        rels[key] = equivalence.partition(game).as_relation()
    return {name: rels[name] for name in RELATION_ORDER}


@dataclass(frozen=True)
class LatticeResult:
    name: str
    passed: bool


def check_lattice(
    game: ParityGame,
    relations: dict[str, VertexRelation] | None = None,
    coincidences: bool = True,
) -> list[LatticeResult]:
    """Check every inclusion edge (and optionally every coincidence property).

    ``relations`` exists as a test hook: a doctored bundle makes the run
    report the violated edge by name.
    """
    rels = relations if relations is not None else compute_relations(game)
    results = []
    for finer, coarser in LATTICE_EDGES:
        ok = rels[finer].is_subrelation(rels[coarser])
        results.append(LatticeResult(f"{finer} refines {coarser}", ok))
    if coincidences:
        for notion in COINCIDENCE_NOTIONS:
            results.append(
                LatticeResult(
                    f"game-based {notion} coincides",
                    coincidence_check(game, notion),
                )
            )
    return results
