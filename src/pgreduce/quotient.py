"""Quotient constructions, isomorphism checking and winner preservation.

Five quotients have unique results: by direct simulation equivalence
(little-brother pruning through minimal/maximal successors) and by the
strong, governed, stuttering and governed stuttering bisimilarities.  One
builder makes the four bisimilarity quotients from the rows
``relations._quotient_rows`` reads off the refinement, and
``quotient_equivalent`` refines through ``relations._refine``, so each
bisimilarity is defined in :mod:`pgreduce.relations` alone.  The direct
simulation quotient is built on the governed quotient: governed
bisimilarity lies inside direct simulation equivalence, so its n²-bit
relation is paid per governed class, not per vertex.  It reads that
preorder only through strict up-sets, each row minus its kernel class, so
no down-set is built.  Only the builder is staged; ``quotient_equivalent``
and the relations compute on the game they are given.  The direct-sim
certificate pays its n²-bit relation per quotient vertex: it runs no
fixpoint on the union of game and quotient.  The delayed simulation family
admits no unique quotient and is deliberately absent.
``EQUIVALENCES`` maps each equivalence name to its quotient builder; the
CLI and ``quotient_equivalent`` read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import index
from typing import Callable, Sequence

# attractor, diverges, steps and the four bisimilarities are not called
# here, but bench/tracing.py wraps these names in this module, so they stay
# bound.
from .forcing import attractor, diverges, iter_bits, steps  # noqa: F401
from .game import ParityGame, _EVEN, _ODD, _per_vertex, disjoint_union
from .relations import governed_bisim, gstut_bisim, strong_bisim, stut_bisim  # noqa: F401
from .relations import Partition, direct_sim, equivalence_from_preorder, _check_direct_sim_size, _quotient_rows, _refine
from .solver import solve_zielonka

__all__ = [
    "EQUIVALENCES",
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
    """A quotient game plus the map from original vertices to quotient
    vertices, read through ``operator.index``; each must name one of them."""

    quotient: ParityGame
    class_map: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        class_map, q = _per_vertex(index, self.class_map, "class"), self.quotient.vertex_count
        if class_map and (min(class_map) < 0 or max(class_map) >= q):
            v, c = next((v, c) for v, c in enumerate(class_map) if not 0 <= c < q)
            raise ValueError(f"vertex {v} maps to class {c}, outside 0..{q - 1}")
        object.__setattr__(self, "class_map", class_map)


def _extremal_successors(succs: tuple[int, ...], strict: Sequence[int]) -> tuple[int, int]:
    """Masks of the minimal and of the maximal members of ``succs``.

    ``strict[u]`` is the strict up-set of ``u`` in a preorder, everything
    strictly above it.  ``u`` is maximal when no member lies in it, and
    minimal when it lies in no member's, so no down-set is needed.
    """
    among = above = high = 0
    for u in succs:
        among |= 1 << u
        above |= strict[u]
    for u in succs:
        if not among & strict[u]:
            high |= 1 << u
    return among & ~above, high


def _class_priorities(game: ParityGame, part: Partition) -> tuple[int, ...]:
    prios: list[int | None] = [None] * part.class_count
    for p, c in zip(game.priorities, part.class_of):
        if prios[c] != p:
            if prios[c] is not None:
                raise RuntimeError("equivalence class mixes priorities; refinement bug")
            prios[c] = p
    return tuple(prios)


def quotient_direct_sim(game: ParityGame) -> QuotientResult:
    """Quotient by direct simulation equivalence, built on the governed quotient.

    Governed bisimilarity lies inside direct simulation equivalence, and
    every vertex is governed-bisimilar to its class in the disjoint union
    with the governed quotient.  So two vertices are direct-simulation
    equivalent exactly when their governed classes are, and the quotient
    of the governed quotient is the quotient of the game.  The n²-bit
    relation is computed on the governed quotient, and
    ``relations.DIRECT_SIM_LIMIT`` applies to its size, not the game's.
    Classes are numbered by least member there, so the composed class map
    numbers them by least vertex here.  The relations themselves
    (``direct_sim``, ``strong_direct_sim``) and the certificate of
    ``quotient_equivalent`` compute on the game and the quotient they are
    given, so they check this builder independently.
    """
    governed = _refined_quotient(game, "governed-bisim")
    _check_direct_sim_size(governed.quotient.vertex_count, "governed quotient")
    inner = _preorder_quotient(governed.quotient)
    class_map = tuple(inner.class_map[c] for c in governed.class_map)
    return QuotientResult(inner.quotient, class_map, "direct-sim")


def _preorder_quotient(game: ParityGame) -> QuotientResult:
    """The direct simulation quotient, read off the preorder of ``game`` itself.

    A class's movers are all its members when every member is odd, and its
    even members otherwise.  The movers must agree on their minimal
    successor classes (all odd) or their maximal ones (otherwise), and those
    are the class's successors.  An all-odd class with more than one
    successor class stays odd; every other class is even.  Mixed-owner
    classes provably have a unique successor class, so the owner choice is
    immaterial.  Extremal successors are read off strict up-sets, which the
    kernel partition yields, so no transposed copy of the preorder is built.
    """
    preorder = direct_sim(game)
    part = equivalence_from_preorder(preorder)
    priorities = _class_priorities(game, part)
    class_of = part.class_of
    # u <= w and w <= u hold together exactly when w is in u's class, so
    # taking u's class out of its up-set leaves what lies strictly above u.
    strict = [row & ~same for row, same in zip(preorder, part.as_relation())]
    owners = []
    succs: list[tuple[int, ...]] = []
    for members in part.members():
        evens = [v for v in members if game.owners[v] is _EVEN]
        movers = evens or members
        side = 1 if evens else 0  # index of the maximal or the minimal mask
        seen = set()
        for v in movers:
            extremal = _extremal_successors(game.successors[v], strict)[side]
            seen.add(frozenset(class_of[u] for u in iter_bits(extremal)))
        if len(seen) > 1:
            kind = ("minimal", "maximal")[side]
            raise RuntimeError(f"{kind} successor classes differ inside a class")
        (targets,) = seen
        if len(movers) != len(members) and len(targets) != 1:
            raise RuntimeError("mixed-owner class without unique successor class")
        owners.append(_EVEN if evens or len(targets) == 1 else _ODD)
        succs.append(tuple(sorted(targets)))

    quotient = ParityGame._from_rows(priorities, owners, succs)
    return QuotientResult(quotient, part.class_of, "direct-sim")


def _refined_quotient(game: ParityGame, kind: str) -> QuotientResult:
    """The quotient by bisimilarity ``kind``, from the rows its refinement ends with."""
    part, owners, succs = _quotient_rows(game, kind)
    quotient = ParityGame._from_rows(_class_priorities(game, part), owners, succs)
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
    if pin is not None and not (0 <= pin[0] < g1.vertex_count and 0 <= pin[1] < g2.vertex_count):
        raise ValueError(f"pin {pin} is outside 0..{g1.vertex_count - 1} x 0..{g2.vertex_count - 1}")
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


def _check_class_map(game: ParityGame, result: QuotientResult) -> tuple[int, ...]:
    """The class map, if it names a class for each game vertex and no more."""
    class_map, n = result.class_map, game.vertex_count
    if len(class_map) < n:
        raise ValueError(f"class map has no class for vertex {len(class_map)}")
    if len(class_map) > n:
        raise ValueError(f"class map names vertex {n}, outside 0..{n - 1}")
    return class_map


def verify_preservation(game: ParityGame, result: QuotientResult) -> bool:
    """Winners survive quotienting: each vertex and its class share a winner.

    Both games' regions partition their vertices, so that holds exactly
    when even's region of the game is the set of vertices whose class even
    wins in the quotient.
    """
    class_map = _check_class_map(game, result)
    original = solve_zielonka(game)
    reduced = solve_zielonka(result.quotient)
    lifted = compress(game.vertices, map(reduced.won_by_even.__contains__, class_map))
    return frozenset(lifted) == original.won_by_even


def quotient_equivalent(game: ParityGame, result: QuotientResult) -> bool:
    """Each vertex is equivalent to its class in the disjoint union of both games,
    under the defining equivalence of the quotient kind.

    Let ``c(x)`` be ``class_map[x]`` for a game vertex ``x`` and ``x - n``
    for a quotient vertex, with ``n`` game vertices.  A bisimilarity
    refines, by ``relations._refine``, the union's initial partition (equal
    priority, and equal owner for ``strong-bisim`` and ``stut``) cut by
    ``c``, so each quotient vertex starts in a class of its own with the
    vertices mapped onto it.  Only when that separates a vertex from its
    class does it refine the quotient alone and refine the union again from
    the quotient's classes, read through ``c`` and cut down to the initial
    partition.  ``direct-sim`` runs no fixpoint on the union: it checks,
    once, that the quotient's preorder read through ``c`` is a direct
    simulation of the union (``_direct_sim_post_fixpoint``).

    Sound: whatever the refinement keeps is a bisimulation of the union
    inside its initial partition, and a relation that passes the direct-sim
    check is a direct simulation; either lies inside the largest one.
    Exact on every quotient, minimal or not: the union has no edge between
    its two parts, so the largest relation on the quotient's part is the
    quotient's own.  If every vertex is equivalent to its class, ``x`` and
    ``y`` are related in the union exactly when ``n + c(x)`` and ``n +
    c(y)`` are, that is, when ``c(x)`` and ``c(y)`` are related in the
    quotient.  The quotient's relation read through ``c`` is then the
    union's largest one: the second start of a bisimilarity, which the
    first round confirms without a split, and the relation the direct-sim
    check passes, since the largest relation is a fixpoint.  A minimal
    quotient relates no two of its vertices, so there a bisimilarity's
    first start is that relation already and the quotient is never refined
    alone.
    """
    if result.kind not in EQUIVALENCES:
        raise ValueError(f"unknown quotient kind {result.kind!r}")
    class_map = _check_class_map(game, result)
    quotient = result.quotient
    if result.kind == "direct-sim":
        return _direct_sim_post_fixpoint(game, quotient, class_map)
    n = game.vertex_count
    union = disjoint_union(game, quotient)
    lift = (*class_map, *quotient.vertices)

    def refined_from(claimed) -> bool:
        class_of, _ = _refine(union, result.kind, claimed)
        return all(class_of[v] == class_of[n + c] for v, c in enumerate(class_map))

    if refined_from(lift):
        return True
    classes, _ = _refine(quotient, result.kind)
    return refined_from([classes[c] for c in lift])


def _direct_sim_post_fixpoint(game: ParityGame, quotient: ParityGame, class_map: tuple[int, ...]) -> bool:
    """Whether R, with ``x R y`` exactly when ``c(x) ≤ c(y)`` in the
    quotient's direct simulation preorder, is a direct simulation of the
    union of ``game`` and ``quotient`` that relates each vertex both ways
    to its class.

    The preorder ``up`` is not trusted.  It must be reflexive and relate
    only classes of equal priority, and every vertex must have its class's
    priority; then R relates only equal priorities, and ``x`` and ``n +
    c(x)`` both ways.  What remains is R ⊆ F(R): every pair of R passes
    ``relations._direct_sim_fixpoint``'s transfer condition against R
    itself, so R lies inside the union's greatest direct simulation.  A
    move ``x → x′`` targets every ``y`` with ``c(y)`` in ``up[c(x′)]``, so
    whether ``(x, y)`` passes depends only on the classes, owners and
    successor classes of ``x`` and ``y``.  Each group of union vertices
    alike in those is checked against every group of every class in its
    class's up-set, and no row over the union is built.
    """
    q = quotient.vertex_count
    _check_direct_sim_size(q, "quotient")
    up = direct_sim(quotient)
    prios = quotient.priorities
    if any(p != prios[c] for p, c in zip(game.priorities, class_map)):
        return False
    same: dict[int, int] = {}
    for d, p in enumerate(prios):
        same[p] = same.get(p, 0) | 1 << d
    if len(up) != q or any(not row >> d & 1 or row & ~same[p] for d, (row, p) in enumerate(zip(up, prios))):
        return False
    # Each class's groups: whether even owns a member, and the mask of its
    # successor classes, over the class's game vertices and its quotient vertex.
    groups: list[set[tuple[bool, int]]] = [set() for _ in range(q)]
    bit = [1 << c for c in class_map]
    for owner, row, c in zip(game.owners, game.successors, class_map):
        succ = 0
        for u in row:
            succ |= bit[u]
        groups[c].add((owner is _EVEN, succ))
    for d, (owner, row) in enumerate(zip(quotient.owners, quotient.successors)):
        groups[d].add((owner is _EVEN, sum(1 << e for e in row)))
    for a, row in enumerate(up):
        answers = set().union(*[groups[b] for b in iter_bits(row)])
        for even, succ in groups[a]:
            # Even at x: each move is a group, answered in its own target.
            # Odd at x: one group, whose target is the union of its moves'.
            targets = [up[d] for d in iter_bits(succ)]
            meet = -1 if even else 0
            for t in targets:
                meet = meet & t if even else meet | t
            for w_even, w_succ in answers:
                if w_even:
                    # Even at y needs a successor in every group's target.
                    if not (all(w_succ & t for t in targets) if even else w_succ & meet):
                        return False
                elif w_succ & ~meet:
                    # Odd at y needs all its successors in every group's target.
                    return False
    return True


def serialize_class_map(result: QuotientResult) -> bytes:
    """Sidecar class-map format: one ``<original-id> <class-id>`` line per vertex."""
    lines = [f"{v} {c}" for v, c in enumerate(result.class_map)]
    return ("\n".join(lines) + "\n").encode("ascii")


# The quotient builder of each equivalence name.
EQUIVALENCES: dict[str, Callable[[ParityGame], QuotientResult]] = {
    "strong-bisim": quotient_strong_bisim,
    "governed-bisim": quotient_governed_bisim,
    "stut": quotient_stut,
    "gstut": quotient_gstut,
    "direct-sim": quotient_direct_sim,
}
