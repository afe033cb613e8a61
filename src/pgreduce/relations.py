"""Coinductive/fixpoint computation of the simulation preorders and bisimulations.

The simulation preorders are greatest fixpoints computed by pair deletion,
re-checking only the rows whose successors' rows shrank.  The four
bisimilarities share one signature-based partition refinement: governed
and strong bisimilarity sign a vertex by its successor classes, the
stuttering variants by forcing and divergence predicates.  Those
predicates are constrained attractors from the signed class, and the
signer computes all of them for each player in a least fixpoint over the
class, one bit per successor class plus one for leaving the class, both
players' in one worklist; each bit is an independent monotone operator, so
each is exactly its attractor.  The delayed simulation family lives in
:mod:`pgreduce.simgames` because its natural home is the obligation game.

A preorder is the tuple of its rows: ``rows[v]`` is the bitmask of every
``w`` with ``v ≤ w``.  An equivalence is a :class:`Partition`, which is its
class map and nothing else: readers walk its classes' vertex lists, and
only ``Partition.as_relation`` builds masks, for the preorder routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

# attractor is not called here, but bench/tracing.py wraps this name in
# this module, so it stays bound.
from .forcing import attractor, iter_bits, mask_of  # noqa: F401
from .game import ParityGame, Player

__all__ = [
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
class Partition:
    """Disjoint non-empty classes covering the vertex set, as a class map.

    ``class_of[v]`` is the class of vertex ``v``.  Classes are numbered by
    their least member, ascending, so equal partitions have equal
    representations.
    """

    class_of: tuple[int, ...]
    class_count: int

    @classmethod
    def from_class_of(cls, n: int, class_of: Iterable[Hashable]) -> "Partition":
        order: dict[Hashable, int] = {}
        canonical = tuple(order.setdefault(c, len(order)) for c in class_of)
        if len(canonical) < n:
            raise ValueError("class_of must cover every vertex")
        if len(canonical) > n:
            raise ValueError(f"class_of has {len(canonical)} entries for {n} vertices")
        return cls(canonical, len(order))

    @property
    def universe(self) -> int:
        return len(self.class_of)

    def same_class(self, v: int, w: int) -> bool:
        return self.class_of[v] == self.class_of[w]

    def members(self) -> list[list[int]]:
        """The vertices of each class, ascending."""
        out: list[list[int]] = [[] for _ in range(self.class_count)]
        for v, c in enumerate(self.class_of):
            out[c].append(v)
        return out

    def as_relation(self) -> tuple[int, ...]:
        """The rows of the equivalence: ``rows[v]`` is the mask of ``v``'s class."""
        n = self.universe
        masks = [1 << members[0] if len(members) == 1 else mask_of(members, n) for members in self.members()]
        return tuple(masks[c] for c in self.class_of)

    def refines(self, other: "Partition") -> bool:
        """Every class lies inside one class of ``other``, over the same vertices."""
        if self.universe != other.universe:
            raise ValueError(f"partitions of {self.universe} and {other.universe} vertices")
        image = [-1] * self.class_count
        for c, d in zip(self.class_of, other.class_of):
            if image[c] != d:
                if image[c] >= 0:
                    return False
                image[c] = d
        return True


def _direct_sim_fixpoint(game: ParityGame, rows: list[int]) -> tuple[int, ...]:
    """Delete pairs violating the direct-simulation transfer until stable.

    Whether ``(v, w)`` may stay depends only on the rows of ``v``'s
    successors.  So the first round checks every row, and each later round
    only the rows of predecessors of rows that lost a pair in the round
    before.  The greatest fixpoint does not depend on the order in which
    violating pairs go, so this deletes down to the same rows as sweeping
    every row until none changes.

    An even ``w`` answers a target ``t`` when it has a successor in ``t``,
    that is, when it lies in ``t``'s predecessor image, the OR of the
    predecessor masks of ``t``'s members.  The image of each distinct row
    is computed once per call, and the image of a union of rows is the OR
    of theirs, so one AND per target keeps or drops every even candidate
    of ``v`` at once.  Odd candidates are checked one by one.
    """
    n = game.vertex_count
    succs = game.successors
    even = [owner is Player.EVEN for owner in game.owners]
    evens = 0
    succ_masks = []
    pred_masks = [0] * n
    for v, row in enumerate(succs):
        bit = 1 << v
        if even[v]:
            evens |= bit
        succ = 0
        for u in row:
            succ |= 1 << u
            pred_masks[u] |= bit
        succ_masks.append(succ)
    odds = ~evens
    images: dict[int, int] = {}
    dirty: Iterable[int] = range(n)
    while dirty:
        shrunk = []
        for v in dirty:
            # w must answer every group of v's moves.  Even at v, each move
            # is a group; odd at v picks the move, so all its moves form one
            # group, whose target is the union of their rows.
            row = rows[v]
            targets = [rows[vp] for vp in succs[v]]
            if even[v]:
                meet = answer = -1
                for t in targets:
                    meet &= t
            else:
                meet = answer = 0
                for t in targets:
                    meet |= t
            # Even at w needs a successor in every group's target.
            if row & evens:
                for t in targets:
                    image = images.get(t)
                    if image is None:
                        image = 0
                        bits = t
                        while bits:
                            low = bits & -bits
                            bits ^= low
                            image |= pred_masks[low.bit_length() - 1]
                        images[t] = image
                    if even[v]:
                        answer &= image
                    else:
                        answer |= image
            keep = row & (answer | odds)
            # Odd at w needs all its successors in every group's target.
            bits = row & odds
            while bits:
                low = bits & -bits
                bits ^= low
                if succ_masks[low.bit_length() - 1] & ~meet:
                    keep ^= low
            if keep != row:
                rows[v] = keep
                shrunk.append(v)
        if not shrunk:
            break
        preds = game.predecessors()
        dirty = {u for v in shrunk for u in preds[v]}
    return tuple(rows)


def direct_sim(game: ParityGame) -> tuple[int, ...]:
    """Greatest direct simulation preorder: even helps the simulating side."""
    return _direct_sim_fixpoint(game, list(_initial_partition(game, by_owner=False).as_relation()))


def strong_direct_sim(game: ParityGame) -> tuple[int, ...]:
    """Direct simulation that never relates vertices owned by different players."""
    return _direct_sim_fixpoint(game, list(_initial_partition(game, by_owner=True).as_relation()))


def governed_bisim(game: ParityGame) -> Partition:
    """Governed bisimilarity: the priority partition refined by successor classes."""
    return _refine(game, _initial_partition(game, by_owner=False), _sign_successors)


def strong_bisim(game: ParityGame) -> Partition:
    """Strong bisimilarity: the same refinement from the same-owner partition."""
    return _refine(game, _initial_partition(game, by_owner=True), _sign_successors)


def _sign_successors(
    game: ParityGame, class_of: list[int], cid: int, members: list[int]
) -> dict[tuple, list[int]]:
    """Group the members of class ``cid`` by successor classes and owner.

    Read against the current classes, direct simulation holds both ways
    between two vertices of one owner exactly when they reach the same set
    of successor classes, since each must match every move of the other.
    An even and an odd vertex need that set to be a single class: the even
    vertex picks a successor that the odd one must match with all of its
    own, and the other way round.  So ``(successor classes, owner if there
    are several, else -1)`` is the transfer condition of a symmetric direct
    simulation, and the coarsest refinement of the priority partition that
    it leaves stable is the largest one, governed bisimilarity.
    """
    groups: dict[tuple, list[int]] = {}
    for v in members:
        succ = frozenset(class_of[u] for u in game.successors[v])
        key = (succ, game.owners[v] if len(succ) > 1 else -1)
        groups.setdefault(key, []).append(v)
    return groups


def _sign_class(
    game: ParityGame, class_of: list[int], cid: int, members: list[int]
) -> dict[tuple, list[int]]:
    """Group the members of class ``cid`` by their signature.

    The item ``(i, cj)`` says that player ``i`` forces the member into class
    ``cj`` through ``cid``; ``(i, -1)`` says that ``i`` can keep every play
    from it inside ``cid`` forever.  Items appear in the same order for every
    member: even's items before odd's, each player's forcing items in the
    order in which the members' successor classes are first met, then its
    divergence item.

    Both predicates come from one least fixpoint per player over the class.
    Bit 0 of a member's mask stands for leaving the class, bit ``b`` for the
    ``b``-th successor class.  A successor in class ``cj`` contributes bit 0
    and ``cj``'s bit; one inside contributes its current mask.  A member
    owned by the player ORs what its successors contribute, any other member
    ANDs it.  Each bit is its own monotone operator, so bit ``b`` of player
    ``i``'s fixpoint is ``i``'s attractor from ``cid`` to the successors in
    class ``cj`` (an attractor from ``cid`` can only take in a member with a
    successor in the target), and bit 0 is ``i``'s attractor from ``cid`` to
    all successors outside.  Player ``i`` diverges exactly where the
    opponent's bit 0 is clear, by the duality of forcing and divergence.
    Members with equal masks have equal items, so the masks group them.

    A member with no successor inside has its masks fixed from the start.
    The others run both players' fixpoints in one worklist over the pair of
    masks, which re-queues a member's predecessors inside when either mask
    changes.  The pair of two least fixpoints is the least fixpoint of the
    pair, so the masks are each player's own.
    """
    succs = game.successors
    owners = game.owners
    bit: dict[int, int] = {}
    # (even's mask, odd's mask) of each member; the members with a successor
    # inside start at the least masks, the others are fixed at their value.
    mask: dict[int, tuple[int, int]] = {}
    # Each member with a successor inside: whether even owns it, its two
    # masks over the successors outside, and those inside.
    rules: dict[int, tuple[bool, int, int, list[int]]] = {}
    inner_preds: dict[int, list[int]] = {v: [] for v in members}
    for v in members:
        some, every = 0, -1
        inner = []
        for u in succs[v]:
            cj = class_of[u]
            if cj == cid:
                inner.append(u)
                inner_preds[u].append(v)
            else:
                c = 1 << bit.setdefault(cj, len(bit) + 1) | 1
                some |= c
                every &= c
        # The owner ORs what its successors contribute, the opponent ANDs it.
        ours = owners[v] is Player.EVEN
        base = (some, every) if ours else (every, some)
        if inner:
            mask[v] = (0, 0)
            rules[v] = (ours, *base, inner)
        else:
            mask[v] = base

    work = list(rules)
    while work:
        v = work.pop()
        ours, m_even, m_odd, inner = rules[v]
        if ours:
            for u in inner:
                e, o = mask[u]
                m_even |= e
                m_odd &= o
        else:
            for u in inner:
                e, o = mask[u]
                m_even &= e
                m_odd |= o
        if (m_even, m_odd) != mask[v]:
            mask[v] = m_even, m_odd
            work.extend(inner_preds[v])

    by_mask: dict[tuple[int, int], list[int]] = {}
    for v in members:
        by_mask.setdefault(mask[v], []).append(v)
    groups: dict[tuple, list[int]] = {}
    for (m_even, m_odd), group in by_mask.items():
        items = []
        for player, forced, opponent in ((0, m_even, m_odd), (1, m_odd, m_even)):
            items += [(player, cj) for cj, b in bit.items() if forced >> b & 1]
            if not opponent & 1:
                items.append((player, -1))
        groups[tuple(items)] = group
    return groups


def _refine_classes(game: ParityGame, class_of: list[int], sign) -> dict[int, tuple]:
    """Refine ``class_of`` in place until stable; return the classes' signatures.

    ``sign(game, class_of, cid, members)`` groups the members of class
    ``cid`` by a signature read from the classes of their successors.
    Classes keep a stable id while they do not split.  Each round signs the
    dirty classes against one partition, then splits them all at once.  A
    class is dirty when it just split or when a member has a successor in a
    class that just split.  Any other class keeps its members and its
    successor classes, so its signature, and its refusal to split, carry
    over.  The rounds are therefore the same as re-signing every class each
    round.  The result maps the id of every class with more than one member
    to the signature all its members share.  Singleton classes cannot split
    and are never signed.  Predecessor lists are built only once a class
    splits, so a partition that is stable from the start never needs them.
    """
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
            groups = sign(game, class_of, cid, members[cid])
            if len(groups) == 1:
                (signatures[cid],) = groups
            else:
                splits.append((cid, list(groups.values())))
        if not splits:
            break
        preds = game.predecessors()
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


def _refine(game: ParityGame, initial: Partition, sign) -> Partition:
    """The coarsest refinement of ``initial`` that ``sign`` leaves stable.

    Splitting only ever separates vertices that no bisimulation of the
    signed kind within ``initial`` relates, so the result is the largest one.
    """
    class_of = list(initial.class_of)
    _refine_classes(game, class_of, sign)
    return Partition.from_class_of(game.vertex_count, class_of)


def _initial_partition(game: ParityGame, by_owner: bool) -> Partition:
    """Classes of equal priority, and with ``by_owner`` also of equal owner."""
    keys = zip(game.priorities, game.owners) if by_owner else game.priorities
    return Partition.from_class_of(game.vertex_count, keys)


def _stable_signatures(
    game: ParityGame, by_owner: bool, sign
) -> tuple[Partition, list[int], list[tuple], dict[int, int]]:
    """The partition ``sign`` refines to, the least member and the stable signature of each class.

    ``by_owner`` selects the initial partition, as in ``_initial_partition``.
    ``signatures[c]`` is shared by every member of class ``c`` of the
    returned partition; the class ids inside it are the refinement's, and
    ``index`` maps them to the partition's.
    """
    class_of = list(_initial_partition(game, by_owner).class_of)
    signatures = _refine_classes(game, class_of, sign)
    part = Partition.from_class_of(game.vertex_count, class_of)
    # Classes are numbered by least member, so a class's least member is
    # the first vertex that carries its number.
    leaders: list[int] = []
    for v, c in enumerate(part.class_of):
        if c == len(leaders):
            leaders.append(v)
    out = []
    for v in leaders:
        sig = signatures.get(class_of[v])
        if sig is None:
            (sig,) = sign(game, class_of, class_of[v], [v])
        out.append(sig)
    return part, leaders, out, dict(zip(class_of, part.class_of))


def gstut_bisim(game: ParityGame) -> Partition:
    """Governed stuttering bisimilarity, starting from the priority partition."""
    return _refine(game, _initial_partition(game, by_owner=False), _sign_class)


def stut_bisim(game: ParityGame) -> Partition:
    """Stuttering bisimilarity: the initial partition is additionally split by owner."""
    return _refine(game, _initial_partition(game, by_owner=True), _sign_class)


def equivalence_from_preorder(rows: tuple[int, ...]) -> Partition:
    """Kernel of a preorder: the classes of ``≤`` intersected with its converse.

    Checks that ``rows`` is a preorder over ``range(len(rows))``: no bits
    outside, then reflexivity, then transitivity.  Errors name the first
    failing pair in ``(v, w)`` order.  Whether a row passes the
    transitivity check depends only on the row, so each distinct row is
    walked once, at its first vertex.
    """
    n = len(rows)
    if any(row >> n for row in rows):
        raise ValueError("row has bits outside the universe")
    for v, row in enumerate(rows):
        if not row >> v & 1:
            raise ValueError(f"relation not reflexive at {v}")
    # In a preorder, v and w are equivalent exactly when their up-sets are equal.
    keys: dict[int, int] = {}
    class_of = []
    for v, row in enumerate(rows):
        if row not in keys:
            keys[row] = len(keys)
            for w in iter_bits(row):
                if rows[w] & ~row:
                    raise ValueError(f"relation not transitive through ({v}, {w})")
        class_of.append(keys[row])
    return Partition.from_class_of(n, class_of)
