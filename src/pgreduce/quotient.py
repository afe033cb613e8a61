"""Quotient constructions, isomorphism checking and winner preservation.

Three quotients have unique results: by direct simulation equivalence
(little-brother pruning through minimal/maximal successors), by governed
bisimilarity and by governed stuttering bisimilarity.  The delayed
simulation family admits no unique quotient and is deliberately absent.
``EQUIVALENCES`` maps each equivalence name to its partition and its
quotient; the CLI and ``quotient_equivalent`` read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# attractor, diverges and steps are not called here, but bench/tracing.py
# wraps these names in this module, so they stay bound.
from .forcing import attractor, diverges, iter_bits, steps  # noqa: F401
from .game import ParityGame, Player, disjoint_union
from .relations import (
    Partition,
    direct_sim,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    strong_bisim,
    stut_bisim,
    _stutter_signatures,
)
from .solver import solve_zielonka

__all__ = [
    "EQUIVALENCES",
    "Equivalence",
    "QuotientResult",
    "min_successors",
    "max_successors",
    "quotient_direct_sim",
    "quotient_governed_bisim",
    "quotient_gstut",
    "quotient_strong_bisim",
    "quotient_stut",
    "find_isomorphism",
    "verify_preservation",
    "quotient_equivalent",
    "serialize_class_map",
]

ISO_SIZE_LIMIT = 64


@dataclass(frozen=True)
class QuotientResult:
    """A quotient game plus the map from original vertices to quotient vertices."""

    quotient: ParityGame
    class_map: tuple[int, ...]
    kind: str


def min_successors(game: ParityGame, preorder: tuple[int, ...], v: int) -> int:
    """Successors of ``v`` minimal in the given direct-simulation preorder."""
    return _extremal_successors(game, preorder, v, minimal=True)


def max_successors(game: ParityGame, preorder: tuple[int, ...], v: int) -> int:
    """Successors of ``v`` maximal in the given direct-simulation preorder."""
    return _extremal_successors(game, preorder, v, minimal=False)


def _extremal_successors(game: ParityGame, preorder: tuple[int, ...], v: int, minimal: bool) -> int:
    succs = game.successors[v]

    def beaten(cand: int, other: int) -> bool:
        # ``other`` lies strictly below (minimal) or above (maximal) ``cand``.
        lo, hi = (other, cand) if minimal else (cand, other)
        return preorder[lo] >> hi & 1 == 1 and not preorder[hi] >> lo & 1

    out = 0
    for cand in succs:
        if not any(beaten(cand, other) for other in succs):
            out |= 1 << cand
    return out


def _class_priorities(game: ParityGame, part: Partition) -> tuple[int, ...]:
    prios = []
    for cls in part.classes:
        members = list(iter_bits(cls))
        p = min(game.priorities[v] for v in members)
        if any(game.priorities[v] != p for v in members):
            raise RuntimeError("equivalence class mixes priorities; refinement bug")
        prios.append(p)
    return tuple(prios)


def quotient_direct_sim(game: ParityGame) -> QuotientResult:
    """Quotient by direct simulation equivalence.

    Odd-only classes whose members all see more than one class of minimal
    successors stay odd and keep edges to the minimal successor classes;
    every other class is assigned even and keeps the edges to the maximal
    successor classes of its even members.  Mixed-owner classes provably
    have a unique successor class, so the owner choice is immaterial.
    """
    preorder = direct_sim(game)
    part = equivalence_from_preorder(preorder)
    n_classes = part.class_count
    priorities = _class_priorities(game, part)
    min_cls: dict[int, frozenset[int]] = {}
    max_cls: dict[int, frozenset[int]] = {}
    class_of = part.class_of
    for v in game.vertices:
        min_cls[v] = frozenset(class_of[u] for u in iter_bits(min_successors(game, preorder, v)))
        max_cls[v] = frozenset(class_of[u] for u in iter_bits(max_successors(game, preorder, v)))

    owners = []
    succs: list[tuple[int, ...]] = []
    for ci, cls in enumerate(part.classes):
        members = list(iter_bits(cls))
        all_odd = all(game.owners[v] is Player.ODD for v in members)
        if all_odd and all(len(min_cls[v]) > 1 for v in members):
            owners.append(Player.ODD)
        else:
            owners.append(Player.EVEN)
        if all_odd:
            targets = min_cls[members[0]]
            if any(min_cls[v] != targets for v in members):
                raise RuntimeError("minimal successor classes differ inside a class")
        else:
            evens = [v for v in members if game.owners[v] is Player.EVEN]
            targets = max_cls[evens[0]]
            if any(max_cls[v] != targets for v in evens):
                raise RuntimeError("maximal successor classes differ inside a class")
            if len(evens) != len(members) and len(targets) != 1:
                raise RuntimeError("mixed-owner class without unique successor class")
        if not targets:
            raise RuntimeError("quotient class without successors")
        succs.append(tuple(sorted(targets)))

    quotient = ParityGame(priorities, tuple(owners), tuple(succs))
    assert quotient.vertex_count == n_classes
    return QuotientResult(quotient, part.class_of, "direct-sim")


def _bisim_quotient(game: ParityGame, by_owner: bool) -> QuotientResult:
    part = strong_bisim(game) if by_owner else governed_bisim(game)
    priorities = _class_priorities(game, part)
    owners = []
    succs = []
    for cls in part.classes:
        members = list(iter_bits(cls))
        succ_classes = [frozenset(part.class_of[u] for u in game.successors[v]) for v in members]
        targets = succ_classes[0]
        # Members of a (governed) bisimulation class reach the same classes.
        if any(c != targets for c in succ_classes):
            raise RuntimeError("successor classes differ inside a bisimulation class")
        owner = game.owners[members[0]]
        if by_owner:
            if any(game.owners[v] is not owner for v in members):
                raise RuntimeError("strong bisimulation class mixes owners")
        elif all(game.owners[v] is Player.ODD for v in members) and len(targets) > 1:
            owner = Player.ODD
        else:
            owner = Player.EVEN
        owners.append(owner)
        succs.append(tuple(sorted(targets)))
    quotient = ParityGame(priorities, tuple(owners), tuple(succs))
    return QuotientResult(quotient, part.class_of, "strong-bisim" if by_owner else "governed-bisim")


def quotient_governed_bisim(game: ParityGame) -> QuotientResult:
    """Quotient by governed bisimilarity: classes keep their successor classes.

    A class is odd when all its members are odd and it has more than one
    successor class, and even otherwise.
    """
    return _bisim_quotient(game, by_owner=False)


def quotient_strong_bisim(game: ParityGame) -> QuotientResult:
    """Classic bisimulation quotient: classes are single-owner and keep it."""
    return _bisim_quotient(game, by_owner=True)


def _even_escapes(game: ParityGame, class_of: tuple[int, ...], ci: int, cls: int) -> bool:
    # steps(EVEN, v, C) for some member v and some other class C.
    for v in iter_bits(cls):
        classes = {class_of[u] for u in game.successors[v]}
        if game.owners[v] is Player.EVEN:
            if classes != {ci}:
                return True
        elif len(classes) == 1 and ci not in classes:
            return True
    return False


def _stuttering_quotient(game: ParityGame, by_owner: bool) -> QuotientResult:
    # The stable signatures hold every forcing and divergence fact the
    # quotient needs: (i, cj) gives the edge to cj, (i, -1) the self-loop.
    part, signatures = _stutter_signatures(game, by_owner)
    priorities = _class_priorities(game, part)
    owners = []
    succs = []
    for ci, (cls, sig) in enumerate(zip(part.classes, signatures)):
        targets = {ci if cj < 0 else cj for _, cj in sig}
        if not targets:
            raise RuntimeError("stuttering quotient class without successors")
        succs.append(tuple(sorted(targets)))
        if by_owner:
            owners.append(game.owners[(cls & -cls).bit_length() - 1])
        elif (int(Player.EVEN), -1) in sig or _even_escapes(game, part.class_of, ci, cls):
            owners.append(Player.EVEN)
        else:
            owners.append(Player.ODD)
    quotient = ParityGame(priorities, tuple(owners), tuple(succs))
    return QuotientResult(quotient, part.class_of, "stut" if by_owner else "gstut")


def quotient_gstut(game: ParityGame) -> QuotientResult:
    """Quotient by governed stuttering bisimilarity.

    A class carries a self-loop only when one player can force divergence
    from all members, and an edge to another class only when one player can
    force every member there through the class.  Both facts are read from
    the signatures the refinement ends with, so no attractor is computed
    twice.  A class is odd unless even can diverge in it or some member
    steps out of it under even's control.
    """
    return _stuttering_quotient(game, by_owner=False)


def quotient_stut(game: ParityGame) -> QuotientResult:
    """Stuttering-bisimilarity quotient.

    Edges follow the same forcing conditions as the governed stuttering
    quotient, but classes are single-owner here and keep that owner, which
    makes the construction idempotent.
    """
    return _stuttering_quotient(game, by_owner=True)


def _iso_invariants(game: ParityGame) -> list[tuple]:
    preds = game.predecessors()
    base = [
        (
            game.priorities[v],
            int(game.owners[v]),
            len(game.successors[v]),
            len(preds[v]),
        )
        for v in game.vertices
    ]
    # One refinement round over neighbour invariants prunes most candidates.
    refined = []
    for v in game.vertices:
        succ_sig = tuple(sorted(base[u] for u in game.successors[v]))
        pred_sig = tuple(sorted(base[u] for u in preds[v]))
        refined.append((base[v], succ_sig, pred_sig))
    return refined


def _check_iso_size(game: ParityGame) -> None:
    if game.vertex_count > ISO_SIZE_LIMIT:
        raise ValueError(f"isomorphism check limited to {ISO_SIZE_LIMIT} vertices")


def find_isomorphism(
    g1: ParityGame, g2: ParityGame, pin: tuple[int, int] | None = None
) -> dict[int, int] | None:
    """Backtracking search for a priority/owner/edge-preserving bijection.

    ``pin`` forces a single vertex assignment, which turns the game-level
    check into the vertex-level isomorphism relation.
    """
    if g1.vertex_count != g2.vertex_count:
        return None
    _check_iso_size(g1)
    inv1 = _iso_invariants(g1)
    inv2 = _iso_invariants(g2)
    if sorted(inv1) != sorted(inv2):
        return None
    candidates = [
        [w for w in g2.vertices if inv2[w] == inv1[v]] for v in g1.vertices
    ]
    if pin is not None:
        v0, w0 = pin
        if w0 not in candidates[v0]:
            return None
        candidates[v0] = [w0]
    order = sorted(g1.vertices, key=lambda v: len(candidates[v]))
    succ1 = [set(row) for row in g1.successors]
    succ2 = [set(row) for row in g2.successors]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v: int, w: int) -> bool:
        for u, x in mapping.items():
            if (v in succ1[u]) != (w in succ2[x]):
                return False
            if (u in succ1[v]) != (x in succ2[w]):
                return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if search(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if search(0):
        return dict(mapping)
    return None


def verify_preservation(game: ParityGame, result: QuotientResult) -> bool:
    """Winners survive quotienting: each vertex and its class share a winner."""
    original = solve_zielonka(game)
    reduced = solve_zielonka(result.quotient)
    return all(
        original.winner(v) == reduced.winner(result.class_map[v]) for v in game.vertices
    )


def quotient_equivalent(game: ParityGame, result: QuotientResult) -> bool:
    """Each vertex is equivalent to its class in the disjoint union of both games,
    under the defining equivalence of the quotient kind."""
    if result.kind not in EQUIVALENCES:
        raise ValueError(f"unknown quotient kind {result.kind!r}")
    union = disjoint_union(game, result.quotient)
    part = EQUIVALENCES[result.kind].partition(union)
    off = game.vertex_count
    return all(part.same_class(v, off + result.class_map[v]) for v in game.vertices)


def serialize_class_map(result: QuotientResult) -> bytes:
    """Sidecar class-map format: one ``<original-id> <class-id>`` line per vertex."""
    lines = [f"{v} {c}" for v, c in enumerate(result.class_map)]
    return ("\n".join(lines) + "\n").encode("ascii")


@dataclass(frozen=True)
class Equivalence:
    """An equivalence with a unique quotient: its partition and its quotient builder."""

    partition: Callable[[ParityGame], Partition]
    quotient: Callable[[ParityGame], QuotientResult]


# Partitions look this module's names up when called, so a wrapper bound
# over one sees the calls that ``quotient_equivalent`` makes through it.
EQUIVALENCES: dict[str, Equivalence] = {
    "strong-bisim": Equivalence(lambda g: strong_bisim(g), quotient_strong_bisim),
    "governed-bisim": Equivalence(lambda g: governed_bisim(g), quotient_governed_bisim),
    "stut": Equivalence(lambda g: stut_bisim(g), quotient_stut),
    "gstut": Equivalence(lambda g: gstut_bisim(g), quotient_gstut),
    "direct-sim": Equivalence(
        lambda g: equivalence_from_preorder(direct_sim(g)), quotient_direct_sim
    ),
}
