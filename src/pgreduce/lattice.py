"""The lattice of parity game relations and its machine-checkable edges.

``compute_relations`` evaluates every relation of the lattice on a game;
``check_lattice`` verifies all inclusion edges plus the coincidence of the
game-based and fixpoint characterisations.  The CLI and the test suite
share this module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .game import ParityGame
from .quotient import EQUIVALENCES, _check_iso_size, _iso_invariants, find_isomorphism

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
from .simgames import DELAYED_BIAS, coincidence_check, delayed_coincides, delayed_sim
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
    """Vertex-level isomorphism: an automorphism maps one vertex to the other.

    Automorphisms form a group, so the relation is the partition into
    orbits.  Each orbit is searched from its least vertex ``v``: a later
    vertex not yet in an orbit joins ``v``'s when its isomorphism invariants
    equal ``v``'s and an automorphism maps ``v`` to it.
    """
    _check_iso_size(game)
    n = game.vertex_count
    invariants = _iso_invariants(game)
    rows = [0] * n
    for v in game.vertices:
        if rows[v]:
            continue
        orbit = [v] + [
            w
            for w in range(v + 1, n)
            if not rows[w]
            and invariants[w] == invariants[v]
            and find_isomorphism(game, game, pin=(v, w)) is not None
        ]
        mask = sum(1 << w for w in orbit)
        for w in orbit:
            rows[w] = mask
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


def _delayed_preorders(game: ParityGame) -> dict[str, VertexRelation]:
    """The delayed simulation preorder of each bias, by the arena route."""
    return {bias: delayed_sim(game, bias) for bias in ("even", "odd", "none")}


def compute_relations(
    game: ParityGame, *, _preorders: dict[str, VertexRelation] | None = None
) -> dict[str, VertexRelation]:
    """All lattice relations of a game, as vertex relations.

    The five equivalences with a unique quotient come from ``EQUIVALENCES``;
    the direct simulation kernel is named ``direct-sim-equiv`` here.
    ``_preorders`` lets ``check_lattice`` pass in the delayed preorders it
    has already computed.
    """
    # The isomorphism relation comes first: its size limit fails fast.
    rels = {"iso": _iso_relation(game)}
    pre = _preorders if _preorders is not None else _delayed_preorders(game)
    rels |= {
        "strong-direct-sim-equiv": equivalence_from_preorder(strong_direct_sim(game)).as_relation(),
        "delayed-even-equiv": equivalence_from_preorder(pre["even"]).as_relation(),
        "delayed-odd-equiv": equivalence_from_preorder(pre["odd"]).as_relation(),
        "delayed-equiv": equivalence_from_preorder(pre["none"]).as_relation(),
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

    Each delayed preorder is computed once, on one arena per bias, and
    serves both the lattice relations and its coincidence with the
    fixpoint.  ``relations`` exists as a test hook: a doctored bundle makes
    the run report the violated edge by name.
    """
    if relations is None:
        # The isomorphism size limit fails before any arena is built.
        _check_iso_size(game)
    pre = _delayed_preorders(game) if relations is None or coincidences else None
    rels = relations if relations is not None else compute_relations(game, _preorders=pre)
    results = []
    for finer, coarser in LATTICE_EDGES:
        ok = rels[finer].is_subrelation(rels[coarser])
        results.append(LatticeResult(f"{finer} refines {coarser}", ok))
    if coincidences:
        for notion in COINCIDENCE_NOTIONS:
            if notion in DELAYED_BIAS:
                bias = DELAYED_BIAS[notion]
                ok = delayed_coincides(game, bias, pre[bias])
            else:
                ok = coincidence_check(game, notion)
            results.append(LatticeResult(f"game-based {notion} coincides", ok))
    return results
