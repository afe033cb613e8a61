"""Quotient constructions, isomorphism checking and winner preservation.

Five quotients have unique results: by direct simulation equivalence
(little-brother pruning through minimal/maximal successors) and by the
strong, governed, stuttering and governed stuttering bisimilarities.  One
builder makes the four bisimilarity quotients from the signature each
class ends the refinement with, which gives the class's successors and its
owner, so no member's successors are read again.  ``_REFINEMENTS`` names
each kind's initial partition and signer, for that builder and for
``quotient_equivalent``.  The delayed simulation family admits no unique
quotient and is deliberately absent.  ``EQUIVALENCES`` maps each
equivalence name to its partition and its quotient; the CLI and
``quotient_equivalent`` read it.
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
    _direct_sim_fixpoint,
    _initial_partition,
    _refine_classes,
    _sign_class,
    _sign_successors,
    _stable_signatures,
)
from .solver import solve_zielonka

__all__ = [
    "EQUIVALENCES",
    "Equivalence",
    "QuotientResult",
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


def _transpose(rows: tuple[int, ...]) -> list[int]:
    """``cols[w]`` is the mask of every ``v`` with ``w`` in ``rows[v]``."""
    # Equal rows are walked once, for all the vertices that hold them.
    holders: dict[int, int] = {}
    for v, row in enumerate(rows):
        holders[row] = holders.get(row, 0) | 1 << v
    cols = [0] * len(rows)
    for row, vs in holders.items():
        for w in iter_bits(row):
            cols[w] |= vs
    return cols


def _extremal_successors(
    succs: tuple[int, ...], rows: tuple[int, ...], cols: list[int]
) -> tuple[int, int]:
    """Masks of the minimal and of the maximal members of ``succs``.

    ``rows`` is a preorder and ``cols`` its transpose, so ``cols[u] & ~rows[u]``
    holds what lies strictly below ``u`` and ``rows[u] & ~cols[u]`` what
    lies strictly above.
    """
    among = 0
    for u in succs:
        among |= 1 << u
    low = high = 0
    for u in succs:
        if not among & cols[u] & ~rows[u]:
            low |= 1 << u
        if not among & rows[u] & ~cols[u]:
            high |= 1 << u
    return low, high


def _class_priorities(game: ParityGame, part: Partition) -> tuple[int, ...]:
    prios: list[int | None] = [None] * part.class_count
    for p, c in zip(game.priorities, part.class_of):
        if prios[c] != p:
            if prios[c] is not None:
                raise RuntimeError("equivalence class mixes priorities; refinement bug")
            prios[c] = p
    return tuple(prios)


def quotient_direct_sim(game: ParityGame) -> QuotientResult:
    """Quotient by direct simulation equivalence.

    A class's movers are all its members when every member is odd, and its
    even members otherwise.  The movers must agree on their minimal
    successor classes (all odd) or their maximal ones (otherwise), and those
    are the class's successors.  An all-odd class with more than one
    successor class stays odd; every other class is even.  Mixed-owner
    classes provably have a unique successor class, so the owner choice is
    immaterial.
    """
    preorder = direct_sim(game)
    part = equivalence_from_preorder(preorder)
    priorities = _class_priorities(game, part)
    class_of = part.class_of
    cols = _transpose(preorder)
    owners = []
    succs: list[tuple[int, ...]] = []
    for members in part.members():
        evens = [v for v in members if game.owners[v] is Player.EVEN]
        movers = evens or members
        side = 1 if evens else 0  # index of the maximal or the minimal mask
        seen = set()
        for v in movers:
            extremal = _extremal_successors(game.successors[v], preorder, cols)[side]
            seen.add(frozenset(class_of[u] for u in iter_bits(extremal)))
        if len(seen) > 1:
            kind = ("minimal", "maximal")[side]
            raise RuntimeError(f"{kind} successor classes differ inside a class")
        (targets,) = seen
        if len(movers) != len(members) and len(targets) != 1:
            raise RuntimeError("mixed-owner class without unique successor class")
        owners.append(Player.EVEN if evens or len(targets) == 1 else Player.ODD)
        succs.append(tuple(sorted(targets)))

    quotient = ParityGame._from_rows(priorities, owners, succs)
    return QuotientResult(quotient, part.class_of, "direct-sim")


# The initial partition (by owner or not) and the signer of each
# bisimilarity's refinement, read by the quotient and its certificate.
_REFINEMENTS = {
    "strong-bisim": (True, _sign_successors),
    "governed-bisim": (False, _sign_successors),
    "stut": (True, _sign_class),
    "gstut": (False, _sign_class),
}


def _refined_quotient(game: ParityGame, kind: str) -> QuotientResult:
    """The quotient by bisimilarity ``kind``, read off its stable signatures.

    A successor signature ``(classes, owner)`` gives the class's successor
    classes and, when there are several, its members' common owner.  A
    stuttering signature gives an edge to ``cj`` for each ``(i, cj)``, where
    ``i`` forces every member into ``cj``, and the self-loop for ``(i, -1)``,
    where ``i`` can keep every play inside.  Owner-split kinds keep their
    members' owner; otherwise a class is odd when odd owns every member and
    there are several successor classes, or, stuttering, when even neither
    forces nor diverges.  A member that steps out under even's control is
    the first to join even's attractor there, so even forces every member.
    """
    by_owner, sign = _REFINEMENTS[kind]
    part, leaders, signatures, index = _stable_signatures(game, by_owner, sign)
    priorities = _class_priorities(game, part)
    owners = []
    succs = []
    for ci, (v, sig) in enumerate(zip(leaders, signatures)):
        if sign is _sign_successors:
            classes, owner = sig
            targets = {index[cj] for cj in classes}
            odd = owner is Player.ODD
        else:
            targets = {ci if cj < 0 else index[cj] for _, cj in sig}
            odd = all(i for i, _ in sig)
        succs.append(tuple(sorted(targets)))
        owners.append(game.owners[v] if by_owner else Player.ODD if odd else Player.EVEN)
    quotient = ParityGame._from_rows(priorities, owners, succs)
    return QuotientResult(quotient, part.class_of, kind)


def quotient_governed_bisim(game: ParityGame) -> QuotientResult:
    """Quotient by governed bisimilarity: classes keep their successor classes.

    A class is odd when all its members are odd and it has more than one
    successor class, and even otherwise.
    """
    return _refined_quotient(game, "governed-bisim")


def quotient_strong_bisim(game: ParityGame) -> QuotientResult:
    """Classic bisimulation quotient: classes are single-owner and keep it."""
    return _refined_quotient(game, "strong-bisim")


def quotient_gstut(game: ParityGame) -> QuotientResult:
    """Quotient by governed stuttering bisimilarity.

    A class carries a self-loop only when one player can force divergence
    from all members, and an edge to another class only when one player can
    force every member there through the class.  Both facts are read from
    the signatures the refinement ends with, so no attractor is computed
    twice.  A class is odd unless even can diverge in it or some member
    steps out of it under even's control.
    """
    return _refined_quotient(game, "gstut")


def quotient_stut(game: ParityGame) -> QuotientResult:
    """Stuttering-bisimilarity quotient.

    Edges follow the same forcing conditions as the governed stuttering
    quotient, but classes are single-owner here and keep that owner, which
    makes the construction idempotent.
    """
    return _refined_quotient(game, "stut")


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


def _check_class_map(game: ParityGame, result: QuotientResult) -> None:
    """The class map names one quotient vertex for each game vertex."""
    class_map, q = result.class_map, result.quotient.vertex_count
    n = game.vertex_count
    if len(class_map) < n:
        raise ValueError(f"class map has no class for vertex {len(class_map)}")
    if len(class_map) > n:
        raise ValueError(f"class map names vertex {n}, outside 0..{n - 1}")
    if min(class_map) < 0 or max(class_map) >= q:
        v, c = next((v, c) for v, c in enumerate(class_map) if not 0 <= c < q)
        raise ValueError(f"vertex {v} maps to class {c}, outside 0..{q - 1}")


def verify_preservation(game: ParityGame, result: QuotientResult) -> bool:
    """Winners survive quotienting: each vertex and its class share a winner."""
    _check_class_map(game, result)
    original = solve_zielonka(game)
    reduced = solve_zielonka(result.quotient)
    return all(
        original.winner(v) == reduced.winner(result.class_map[v]) for v in game.vertices
    )


def quotient_equivalent(game: ParityGame, result: QuotientResult) -> bool:
    """Each vertex is equivalent to its class in the disjoint union of both games,
    under the defining equivalence of the quotient kind.

    The union's greatest fixpoint starts from the relation the quotient
    claims, not from scratch.  Let ``c(x)`` be ``class_map[x]`` for a game
    vertex ``x`` and ``x - n`` for a quotient vertex, with ``n`` game
    vertices.  A bisimilarity first refines, with the kind's own signer,
    the union's initial partition (equal priority, and equal owner for
    ``strong-bisim`` and ``stut``) cut by ``c``, so each quotient vertex
    starts in a class of its own with the vertices mapped onto it.  Only
    when that separates a vertex from its class does it compute the kind's
    relation on the quotient alone and refine again from that relation,
    read through ``c`` and cut down to the initial partition.
    ``direct-sim`` always starts from the quotient's own preorder, read the
    same way, and deletes pairs; then ``v`` must end related both ways to
    ``n + c(v)``.

    Sound: whatever the fixpoint keeps is a bisimulation (a direct
    simulation) of the union inside its initial relation, so it lies inside
    the largest one.  Exact on every quotient, minimal or not: the union
    has no edge between its two parts, so the largest relation on the
    quotient's part is the quotient's own.  If every vertex is equivalent
    to its class, ``x`` and ``y`` are related in the union exactly when
    ``n + c(x)`` and ``n + c(y)`` are, that is, when ``c(x)`` and ``c(y)``
    are related in the quotient.  The second start is then the union's
    largest relation, and the first round confirms it without a split.  A
    minimal quotient relates no two of its vertices, so there the first
    start is that relation already and the quotient is never refined alone.
    """
    if result.kind not in EQUIVALENCES:
        raise ValueError(f"unknown quotient kind {result.kind!r}")
    _check_class_map(game, result)
    quotient, class_map = result.quotient, result.class_map
    n = game.vertex_count
    union = disjoint_union(game, quotient)
    lift = (*class_map, *quotient.vertices)
    if result.kind == "direct-sim":
        # x <= y in the start exactly when c(y) is in the quotient row of c(x).
        # Row n + d of the lift's partition is the mask of every x with c(x) = d.
        lifted = Partition.from_class_of(len(lift), lift).as_relation()
        up = [0] * quotient.vertex_count
        for c, row in enumerate(direct_sim(quotient)):
            for d in iter_bits(row):
                up[c] |= lifted[n + d]
        prio = _initial_partition(union, by_owner=False).as_relation()
        start = [up[c] & same for c, same in zip(lift, prio)]
        rows = _direct_sim_fixpoint(union, start)
        return all(rows[v] >> (n + c) & 1 and rows[n + c] >> v & 1 for v, c in enumerate(class_map))
    by_owner, sign = _REFINEMENTS[result.kind]
    initial = _initial_partition(union, by_owner).class_of

    def refined_from(claimed) -> bool:
        class_of = list(Partition.from_class_of(len(lift), zip(initial, claimed)).class_of)
        _refine_classes(union, class_of, sign)
        return all(class_of[v] == class_of[n + c] for v, c in enumerate(class_map))

    if refined_from(lift):
        return True
    classes = EQUIVALENCES[result.kind].partition(quotient).class_of
    return refined_from([classes[c] for c in lift])


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
