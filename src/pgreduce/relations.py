"""Coinductive/fixpoint computation of the simulation preorders and bisimulations.

The simulation preorders are greatest fixpoints computed by pair deletion;
the stuttering-style equivalences are computed by signature-based partition
refinement over forcing and divergence predicates.  The delayed simulation
family lives in :mod:`pgreduce.simgames` because its natural home is the
obligation game.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .forcing import VertexSet, attractor, iter_bits
from .game import ParityGame, Player

__all__ = [
    "VertexRelation",
    "Partition",
    "direct_sim",
    "strong_direct_sim",
    "governed_bisim",
    "strong_bisim",
    "gstut_bisim",
    "stut_bisim",
    "equivalence_from_preorder",
]


@dataclass(frozen=True)
class VertexRelation:
    """A binary relation over vertices, one bit-row per left element.

    ``rows[v]`` is the bitmask of all ``w`` with ``v R w``.  The ``kind``
    tag states the intended shape; :meth:`validate` checks it.
    """

    universe: int
    rows: tuple[int, ...]
    kind: str = "preorder"

    def __post_init__(self) -> None:
        if self.kind not in ("preorder", "equivalence"):
            raise ValueError(f"unknown relation kind {self.kind!r}")
        if len(self.rows) != self.universe:
            raise ValueError("one row per vertex required")
        full = (1 << self.universe) - 1
        if any(row & ~full for row in self.rows):
            raise ValueError("row has bits outside the universe")

    def holds(self, v: int, w: int) -> bool:
        return self.rows[v] >> w & 1 == 1

    def pairs(self) -> Iterator[tuple[int, int]]:
        for v in range(self.universe):
            row = self.rows[v]
            while row:
                low = row & -row
                yield v, low.bit_length() - 1
                row ^= low

    def right_set(self, v: int) -> int:
        """Bitmask of ``{w | v R w}``."""
        return self.rows[v]

    def transpose(self) -> "VertexRelation":
        rows = [0] * self.universe
        for v, w in self.pairs():
            rows[w] |= 1 << v
        return VertexRelation(self.universe, tuple(rows), self.kind)

    def intersection(self, other: "VertexRelation", kind: str | None = None) -> "VertexRelation":
        rows = tuple(a & b for a, b in zip(self.rows, other.rows))
        return VertexRelation(self.universe, rows, kind or self.kind)

    def is_subrelation(self, other: "VertexRelation") -> bool:
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def validate(self) -> None:
        """Check reflexivity and transitivity, plus symmetry for equivalences."""
        for v in range(self.universe):
            if not self.holds(v, v):
                raise ValueError(f"relation not reflexive at {v}")
        for v, w in self.pairs():
            if self.rows[w] & ~self.rows[v]:
                raise ValueError(f"relation not transitive through ({v}, {w})")
        if self.kind == "equivalence":
            for v, w in self.pairs():
                if not self.holds(w, v):
                    raise ValueError(f"relation not symmetric at ({v}, {w})")


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty classes covering the vertex set.

    Classes are indexed by their least member, ascending, so equal
    partitions have equal representations.
    """

    class_of: tuple[int, ...]
    classes: tuple[VertexSet, ...]

    @classmethod
    def from_class_of(cls, n: int, class_of: Iterable[int]) -> "Partition":
        raw = list(class_of)
        if len(raw) != n:
            raise ValueError("class_of must cover every vertex")
        order: dict[int, int] = {}
        for v in range(n):
            if raw[v] not in order:
                order[raw[v]] = len(order)
        canonical = [order[c] for c in raw]
        masks = [0] * len(order)
        for v, c in enumerate(canonical):
            masks[c] |= 1 << v
        classes = tuple(VertexSet(n, m) for m in masks)
        return cls(tuple(canonical), classes)

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        class_of = [-1] * n
        for i, block in enumerate(blocks):
            for v in block:
                if class_of[v] != -1:
                    raise ValueError(f"vertex {v} in two blocks")
                class_of[v] = i
        if any(c == -1 for c in class_of):
            raise ValueError("blocks do not cover the vertex set")
        return cls.from_class_of(n, class_of)

    @property
    def universe(self) -> int:
        return len(self.class_of)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def same_class(self, v: int, w: int) -> bool:
        return self.class_of[v] == self.class_of[w]

    def class_containing(self, v: int) -> VertexSet:
        return self.classes[self.class_of[v]]

    def as_relation(self) -> VertexRelation:
        rows = tuple(self.classes[self.class_of[v]].mask for v in range(self.universe))
        return VertexRelation(self.universe, rows, "equivalence")

    def refines(self, other: "Partition") -> bool:
        return self.as_relation().is_subrelation(other.as_relation())


def _succ_masks(game: ParityGame) -> list[int]:
    masks = []
    for row in game.successors:
        m = 0
        for u in row:
            m |= 1 << u
        masks.append(m)
    return masks


def _steps_even_mask(game: ParityGame, succ_masks: list[int], w: int, target_mask: int) -> bool:
    # One-step controlled move for player even, on bitmasks.
    if game.owners[w] is Player.EVEN:
        return succ_masks[w] & target_mask != 0
    return succ_masks[w] & ~target_mask == 0


def _direct_sim_fixpoint(game: ParityGame, rows: list[int], symmetric: bool) -> tuple[int, ...]:
    """Delete pairs violating the direct-simulation transfer until stable.

    With ``symmetric`` set, a pair is also deleted when its mirror pair is,
    which yields the largest symmetric direct simulation.
    """
    succ_masks = _succ_masks(game)
    n = game.vertex_count
    changed = True
    while changed:
        changed = False
        for v in range(n):
            row = rows[v]
            w_bits = row
            while w_bits:
                low = w_bits & -w_bits
                w = low.bit_length() - 1
                w_bits ^= low
                ok = True
                if game.owners[v] is Player.EVEN:
                    for vp in game.successors[v]:
                        if not _steps_even_mask(game, succ_masks, w, rows[vp]):
                            ok = False
                            break
                else:
                    target = 0
                    for vp in game.successors[v]:
                        target |= rows[vp]
                    ok = _steps_even_mask(game, succ_masks, w, target)
                if not ok:
                    rows[v] &= ~(1 << w)
                    if symmetric:
                        rows[w] &= ~(1 << v)
                    changed = True
    return tuple(rows)


def _initial_rows(game: ParityGame, by_owner: bool) -> list[int]:
    # Rows of "same priority (and owner)", read from the initial partition.
    part = _initial_partition(game, by_owner)
    return [part.classes[c].mask for c in part.class_of]


def direct_sim(game: ParityGame) -> VertexRelation:
    """Greatest direct simulation preorder: even helps the simulating side."""
    rows = _direct_sim_fixpoint(game, _initial_rows(game, by_owner=False), symmetric=False)
    return VertexRelation(game.vertex_count, rows, "preorder")


def strong_direct_sim(game: ParityGame) -> VertexRelation:
    """Direct simulation that never relates vertices owned by different players."""
    rows = _direct_sim_fixpoint(game, _initial_rows(game, by_owner=True), symmetric=False)
    return VertexRelation(game.vertex_count, rows, "preorder")


def _symmetric_direct_sim_partition(game: ParityGame, by_owner: bool) -> Partition:
    fixed = _direct_sim_fixpoint(game, _initial_rows(game, by_owner), symmetric=True)
    rel = VertexRelation(game.vertex_count, fixed, "equivalence")
    rel.validate()
    class_of = [min(iter_bits(fixed[v])) for v in game.vertices]
    return Partition.from_class_of(game.vertex_count, class_of)


def governed_bisim(game: ParityGame) -> Partition:
    """Partition induced by the largest symmetric direct simulation."""
    return _symmetric_direct_sim_partition(game, by_owner=False)


def strong_bisim(game: ParityGame) -> Partition:
    """Governed bisimulation restricted to same-owner pairs."""
    return _symmetric_direct_sim_partition(game, by_owner=True)


def _sign_class(
    game: ParityGame, class_of: list[int], cid: int, members: list[int]
) -> dict[tuple, list[int]]:
    """Group the members of class ``cid`` by their signature.

    The item ``(i, cj)`` says that player ``i`` forces the member into class
    ``cj`` through ``cid``; ``(i, -1)`` says that ``i`` can keep every play
    from it inside ``cid`` forever.  Items appear in the same order for every
    member.  An attractor from ``cid`` can only take in a member that has a
    successor in the target, so only successor classes are tried, each with
    its target cut down to the members' successors.  This leaves the
    attractor's intersection with ``cid`` unchanged.
    """
    n = game.vertex_count
    mask = 0
    targets: dict[int, int] = {}
    for v in members:
        mask |= 1 << v
        for u in game.successors[v]:
            cj = class_of[u]
            if cj != cid:
                targets[cj] = targets.get(cj, 0) | 1 << u
    outside = 0
    for t in targets.values():
        outside |= t
    inside = VertexSet(n, mask)
    items: dict[int, list[tuple[int, int]]] = {v: [] for v in members}
    for player in (Player.EVEN, Player.ODD):
        for cj, target in targets.items():
            hit = attractor(game, player, inside, VertexSet(n, target)).mask & mask
            for v in iter_bits(hit):
                items[v].append((int(player), cj))
        # diverges(i, v, [v]) through the forcing duality.
        esc = attractor(game, player.opponent, inside, VertexSet(n, outside)).mask
        for v in iter_bits(mask & ~esc):
            items[v].append((int(player), -1))
    groups: dict[tuple, list[int]] = {}
    for v in members:
        groups.setdefault(tuple(items[v]), []).append(v)
    return groups


def _refine_classes(game: ParityGame, class_of: list[int]) -> dict[int, tuple]:
    """Refine ``class_of`` in place until stable; return the classes' signatures.

    Classes keep a stable id while they do not split.  Each round signs the
    dirty classes against one partition, then splits them all at once.  A
    class is dirty when it just split or when a member has a successor in a
    class that just split.  Any other class keeps its members and its
    successor classes, so its signature, and its refusal to split, carry
    over.  The rounds are therefore the same as re-signing every class each
    round.  The result maps the id of every class with more than one member
    to the signature all its members share.  Singleton classes cannot split
    and are never signed.
    """
    preds = game.predecessors()
    members: dict[int, list[int]] = {}
    for v, c in enumerate(class_of):
        members.setdefault(c, []).append(v)
    signatures: dict[int, tuple] = {}
    next_id = max(members) + 1
    dirty = set(members)
    while dirty:
        splits = []
        for cid in sorted(dirty):
            if len(members[cid]) == 1:
                continue
            groups = _sign_class(game, class_of, cid, members[cid])
            if len(groups) == 1:
                (signatures[cid],) = groups
            else:
                splits.append((cid, list(groups.values())))
        dirty = set()
        for cid, pieces in splits:
            del members[cid]
            signatures.pop(cid, None)
            for piece in pieces:
                members[next_id] = piece
                dirty.add(next_id)
                for v in piece:
                    class_of[v] = next_id
                next_id += 1
        for _, pieces in splits:
            for piece in pieces:
                for v in piece:
                    for u in preds[v]:
                        dirty.add(class_of[u])
    return signatures


def _gstut_refine(game: ParityGame, initial: Partition) -> Partition:
    """Signature-based partition refinement for governed stuttering bisimilarity.

    A vertex's signature collects, per player, the successor classes it is
    forced into through its own class and a divergence flag.  Classes are
    split by signature until stable, and only the classes next to a split
    are signed again (see :func:`_refine_classes`).  Splitting only ever
    separates vertices that no governed stuttering bisimulation within the
    initial partition can relate, so the result is the largest one.
    """
    class_of = list(initial.class_of)
    _refine_classes(game, class_of)
    return Partition.from_class_of(game.vertex_count, class_of)


def _initial_partition(game: ParityGame, by_owner: bool) -> Partition:
    """Classes of equal priority, and with ``by_owner`` also of equal owner."""
    keys = zip(game.priorities, game.owners) if by_owner else game.priorities
    return Partition.from_class_of(game.vertex_count, _dense_keys(keys))


def _stutter_signatures(game: ParityGame, by_owner: bool) -> tuple[Partition, list[tuple]]:
    """The stuttering partition with the stable signature of each of its classes.

    ``by_owner`` selects stuttering bisimilarity over the governed variant.
    ``signatures[ci]`` is shared by every member of class ``ci``.  It holds
    ``(i, cj)`` when player ``i`` forces every member into class ``cj``
    through ``ci``, and ``(i, -1)`` when ``i`` can keep every play from every
    member inside ``ci``.  Class ids follow the returned partition.
    """
    class_of = list(_initial_partition(game, by_owner).class_of)
    signatures = _refine_classes(game, class_of)
    part = Partition.from_class_of(game.vertex_count, class_of)
    index = dict(zip(class_of, part.class_of))
    out = []
    for cls in part.classes:
        v = (cls.mask & -cls.mask).bit_length() - 1
        sig = signatures.get(class_of[v])
        if sig is None:
            (sig,) = _sign_class(game, class_of, class_of[v], [v])
        out.append(tuple((i, index[cj] if cj >= 0 else -1) for i, cj in sig))
    return part, out


def gstut_bisim(game: ParityGame) -> Partition:
    """Governed stuttering bisimilarity, starting from the priority partition."""
    return _gstut_refine(game, _initial_partition(game, by_owner=False))


def stut_bisim(game: ParityGame) -> Partition:
    """Stuttering bisimilarity: the initial partition is additionally split by owner."""
    return _gstut_refine(game, _initial_partition(game, by_owner=True))


def _dense_keys(keys: Iterable) -> list[int]:
    seen: dict = {}
    out = []
    for k in keys:
        out.append(seen.setdefault(k, len(seen)))
    return out


def equivalence_from_preorder(relation: VertexRelation) -> Partition:
    """Kernel of a preorder: the classes of ``R`` intersected with its converse."""
    if relation.kind != "preorder":
        raise ValueError("kernel is only defined for preorders")
    relation.validate()
    # In a preorder, v and w are equivalent exactly when their up-sets are equal.
    return Partition.from_class_of(relation.universe, _dense_keys(relation.rows))
