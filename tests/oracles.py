"""Oracles: brute-force ones and reference constructions.

The winner and forcing oracles enumerate memoryless strategies explicitly
and evaluate plays on the strategy-restricted graph, so a bug in the
attractor or in the Zielonka recursion cannot hide in them.  The stuttering,
signer, direct-simulation, validator, bisimulation, delayed-simulation,
layered attractor, Buchi, Zielonka, parser, isomorphism-relation and quotient-certificate
references at the end keep the library's earlier, direct constructions, and so do the arena
builders, which intern every position by its payload tuple.
``iso_check`` decides whether two whole games are isomorphic, and
``is_isomorphism`` checks a given vertex mapping, for the idempotence
tests.
"""
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import product

import networkx as nx

from pgreduce import (
    Arena,
    ArenaPlayer,
    ParityGame,
    Partition,
    PgSolverFormatError,
    Player,
    QuotientResult,
    WinningRegions,
    attractor,
    direct_sim,
    disjoint_union,
    diverges,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    steps,
    strong_bisim,
    stut_bisim,
)
from pgreduce.forcing import iter_bits
from pgreduce.lattice import COINCIDENCES, LATTICE_EDGES, LatticeResult, compute_relations
from pgreduce.quotient import find_isomorphism
from pgreduce.simgames import CHECK, DAGGER, _UPDATERS, _obligations, coincidence_check


def strategies(game: ParityGame, player: Player):
    """All memoryless strategies of ``player``, as vertex -> chosen successor."""
    owned = [v for v in game.vertices if game.owners[v] is player]
    for choice in product(*(game.successors[v] for v in owned)):
        yield dict(zip(owned, choice))


def restricted_successors(game: ParityGame, strategy: dict[int, int]):
    return [
        (strategy[v],) if v in strategy else game.successors[v] for v in game.vertices
    ]


def _all_plays_reach(succ, v: int, inside: set[int], target: set[int]) -> bool:
    # Least fixpoint of "every continuation reaches target via inside".
    good = set(target)
    changed = True
    while changed:
        changed = False
        for x in range(len(succ)):
            if x in good or x not in inside:
                continue
            if all(u in good for u in succ[x]):
                good.add(x)
                changed = True
    return v in good


def oracle_forces(game: ParityGame, player: Player, v: int, U: int, T: int) -> bool:
    inside = set(iter_bits(U))
    target = set(iter_bits(T))
    return any(
        _all_plays_reach(restricted_successors(game, s), v, inside, target)
        for s in strategies(game, player)
    )


def oracle_diverges(game: ParityGame, player: Player, v: int, U: int) -> bool:
    inside = set(iter_bits(U))
    for s in strategies(game, player):
        succ = restricted_successors(game, s)
        seen = {v}
        stack = [v]
        ok = v in inside
        while stack and ok:
            x = stack.pop()
            if x not in inside:
                ok = False
                break
            for u in succ[x]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if ok and all(x in inside for x in seen):
            return True
    return False


def _reachable(succ, v: int) -> set[int]:
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for u in succ[x]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def oracle_winner(game: ParityGame, v: int) -> Player:
    """Winner of ``v`` by exhaustive memoryless-strategy enumeration.

    A strategy of ``player`` wins from ``v`` iff no cycle reachable in the
    strategy-restricted graph has a minimal priority of the opponent's
    parity (the opponent steers into such a cycle and pumps it).
    """
    winners = []
    for player in (Player.EVEN, Player.ODD):
        won = False
        for s in strategies(game, player):
            succ = restricted_successors(game, s)
            reach = _reachable(succ, v)
            graph = nx.DiGraph(
                (x, u) for x in reach for u in succ[x] if u in reach
            )
            graph.add_nodes_from(reach)
            bad = False
            for cycle in nx.simple_cycles(graph):
                if min(game.priorities[x] for x in cycle) % 2 != int(player):
                    bad = True
                    break
            if not bad:
                won = True
                break
        if won:
            winners.append(player)
    assert len(winners) == 1, f"determinacy violated at {v}: {winners}"
    return winners[0]


def arena_as_parity_game(arena: Arena) -> ParityGame:
    """Re-encode a Buchi arena as a parity game, for a second solver's answer.

    Accepting positions get priority 0, the rest 1; Duplicator plays even.
    Duplicator wins the Buchi game from a position iff even wins the parity
    game from the corresponding vertex.
    """
    priorities = tuple(0 if p in arena.accepting else 1 for p in range(arena.size))
    owners = tuple(
        Player.EVEN if o is ArenaPlayer.DUPLICATOR else Player.ODD for o in arena.owners
    )
    return ParityGame(priorities, owners, tuple(tuple(row) for row in arena.edges))


# --- Reference stuttering refinement and quotient --------------------------
#
# Direct constructions: every round signs every class against every other
# class, and the quotient recomputes each forcing and divergence fact per
# member.  The library's worklist refinement and signature-based quotient
# must agree with them byte for byte.  They call the library's forcing
# layer, which the tests check against the strategy-enumeration oracles.


def _class_masks(part: Partition) -> list[int]:
    """The mask of each class: the row of its first member."""
    rows = part.as_relation()
    return [rows[members[0]] for members in part.members()]


def oracle_gstut_refine(game: ParityGame, initial: Partition) -> Partition:
    """Re-sign every non-singleton class against all classes each round."""
    n = game.vertex_count
    full = (1 << n) - 1
    part = initial
    while True:
        items: list[list] = [[] for _ in range(n)]
        classes = _class_masks(part)
        for ci, cls in enumerate(classes):
            if cls.bit_count() == 1:
                continue
            for player in (Player.EVEN, Player.ODD):
                for cj, target in enumerate(classes):
                    if ci == cj:
                        continue
                    attr = attractor(game, player, cls, target)
                    for v in iter_bits(cls & attr):
                        items[v].append((int(player), cj))
                esc = attractor(game, player.opponent, cls, full & ~cls)
                for v in iter_bits(cls & ~esc):
                    items[v].append((int(player), -1))
        keys = [(part.class_of[v], tuple(sorted(items[v]))) for v in range(n)]
        distinct: dict[tuple, int] = {}
        new = Partition.from_class_of(n, [distinct.setdefault(k, len(distinct)) for k in keys])
        if new.class_count == part.class_count:
            return new
        part = new


def _dense(keys) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def oracle_gstut_bisim(game: ParityGame) -> Partition:
    return oracle_gstut_refine(game, Partition.from_class_of(game.vertex_count, _dense(game.priorities)))


def oracle_stut_bisim(game: ParityGame) -> Partition:
    keys = _dense(zip(game.priorities, game.owners))
    return oracle_gstut_refine(game, Partition.from_class_of(game.vertex_count, keys))


def _oracle_stuttering_quotient(game: ParityGame, part: Partition, kind: str) -> QuotientResult:
    classes = _class_masks(part)
    priorities = tuple(game.priorities[next(iter_bits(cls))] for cls in classes)
    owners = []
    succs = []
    for ci, cls in enumerate(classes):
        members = list(iter_bits(cls))
        even_divergent = all(diverges(game, Player.EVEN, v, cls) for v in members)
        even_escape = any(
            steps(game, Player.EVEN, v, classes[cj])
            for v in members
            for cj in range(part.class_count)
            if cj != ci
        )
        owners.append(Player.EVEN if even_divergent or even_escape else Player.ODD)
        targets = []
        for cj, target in enumerate(classes):
            if cj == ci:
                facts = [[diverges(game, p, v, cls) for v in members] for p in Player]
            else:
                facts = [[attractor(game, p, cls, target) >> v & 1 for v in members] for p in Player]
            if any(all(row) for row in facts):
                targets.append(cj)
        succs.append(tuple(targets))
    return QuotientResult(ParityGame(priorities, tuple(owners), tuple(succs)), part.class_of, kind)


def oracle_quotient_gstut(game: ParityGame) -> QuotientResult:
    return _oracle_stuttering_quotient(game, oracle_gstut_bisim(game), "gstut")


def oracle_quotient_stut(game: ParityGame) -> QuotientResult:
    """Edges as for gstut; classes are single-owner and keep their owner."""
    part = oracle_stut_bisim(game)
    base = _oracle_stuttering_quotient(game, part, "stut")
    owners = tuple(game.owners[next(iter_bits(cls))] for cls in _class_masks(part))
    quotient = ParityGame(base.quotient.priorities, owners, base.quotient.successors)
    return QuotientResult(quotient, base.class_map, "stut")


# --- Reference stuttering signer and direct-simulation deletion ------------
#
# The signer makes one constrained attractor call per player and successor
# class, plus one escape attractor per player; the deletion sweeps every
# row until none changes.  The library's per-player class-local fixpoint
# and its predecessor worklist must give the same signatures and rows.


def oracle_sign_class(game: ParityGame, class_of: list[int], cid: int, members: list[int]) -> dict[tuple, list[int]]:
    """``relations._sign_class`` by attractors, with the same signature."""
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
    items: dict[int, list[tuple[int, int]]] = {v: [] for v in members}
    for player in (Player.EVEN, Player.ODD):
        for cj, target in targets.items():
            hit = attractor(game, player, mask, target) & mask
            for v in iter_bits(hit):
                items[v].append((int(player), cj))
        # diverges(i, v, [v]) through the forcing duality.
        esc = attractor(game, player.opponent, mask, outside)
        for v in iter_bits(mask & ~esc):
            items[v].append((int(player), -1))
    groups: dict[tuple, list[int]] = {}
    for v in members:
        groups.setdefault(tuple(items[v]), []).append(v)
    return groups


def oracle_direct_sim_fixpoint(game: ParityGame, rows: list[int]) -> tuple[int, ...]:
    """``relations._direct_sim_fixpoint`` by sweeping every row until stable."""
    succ_masks = [sum(1 << u for u in row) for row in game.successors]

    def steps_even(w: int, target: int) -> bool:
        if game.owners[w] is Player.EVEN:
            return succ_masks[w] & target != 0
        return succ_masks[w] & ~target == 0

    changed = True
    while changed:
        changed = False
        for v in game.vertices:
            for w in iter_bits(rows[v]):
                if game.owners[v] is Player.EVEN:
                    ok = all(steps_even(w, rows[vp]) for vp in game.successors[v])
                else:
                    target = 0
                    for vp in game.successors[v]:
                        target |= rows[vp]
                    ok = steps_even(w, target)
                if not ok:
                    rows[v] &= ~(1 << w)
                    changed = True
    return tuple(rows)


def oracle_validate(rows: tuple[int, ...]) -> None:
    """The preorder check of ``equivalence_from_preorder`` over every pair,
    with the same messages."""
    n = len(rows)
    pairs = [(v, w) for v in range(n) for w in iter_bits(rows[v])]
    for v in range(n):
        if not rows[v] >> v & 1:
            raise ValueError(f"relation not reflexive at {v}")
    for v, w in pairs:
        if rows[w] & ~rows[v]:
            raise ValueError(f"relation not transitive through ({v}, {w})")


def is_subrelation(finer: tuple[int, ...], coarser: tuple[int, ...]) -> bool:
    """Every pair of ``finer``'s rows is a pair of ``coarser``'s."""
    assert len(finer) == len(coarser)
    return all(a & ~b == 0 for a, b in zip(finer, coarser))


# --- Reference governed and strong bisimilarity ----------------------------
#
# The largest symmetric direct simulation by pair deletion over n^2 bits:
# a pair goes, with its mirror, as soon as it violates the direct-simulation
# transfer.  The library's signature refinement over successor classes must
# give the same partition.


def _oracle_symmetric_direct_sim(game: ParityGame, by_owner: bool) -> Partition:
    n = game.vertex_count
    keys = list(zip(game.priorities, game.owners)) if by_owner else list(game.priorities)
    rows = [sum(1 << w for w in range(n) if keys[w] == keys[v]) for v in range(n)]
    succ_masks = [sum(1 << u for u in row) for row in game.successors]

    def steps_even(w: int, target: int) -> bool:
        if game.owners[w] is Player.EVEN:
            return succ_masks[w] & target != 0
        return succ_masks[w] & ~target == 0

    def union(vertices) -> int:
        out = 0
        for u in vertices:
            out |= rows[u]
        return out

    changed = True
    while changed:
        changed = False
        for v, w in product(range(n), repeat=2):
            if not rows[v] >> w & 1:
                continue
            if game.owners[v] is Player.EVEN:
                ok = all(steps_even(w, rows[vp]) for vp in game.successors[v])
            else:
                ok = steps_even(w, union(game.successors[v]))
            if not ok:
                rows[v] &= ~(1 << w)
                rows[w] &= ~(1 << v)
                changed = True
    oracle_validate(rows)
    assert all(rows[w] >> v & 1 for v in range(n) for w in iter_bits(rows[v]))
    return Partition.from_class_of(n, [(row & -row).bit_length() for row in rows])


def oracle_governed_bisim(game: ParityGame) -> Partition:
    return _oracle_symmetric_direct_sim(game, by_owner=False)


def oracle_strong_bisim(game: ParityGame) -> Partition:
    return _oracle_symmetric_direct_sim(game, by_owner=True)


# --- Reference delayed-simulation fixpoint and Buchi solver ----------------
#
# Direct constructions: every inner round re-evaluates every obligation
# triple, and the one-step predecessor walks every arena position.  The
# library's worklist fixpoint and accepting-only predecessor step must agree
# with them exactly.  The worklist reference evaluates each transfer through
# ``delayed_transfer`` with one closure per evaluation; it scales to the
# games the full rescan is too slow for.


def delayed_transfer(game: ParityGame, v: int, w: int, matched) -> bool:
    """One round of the delayed simulation transfer condition from (v, w).

    ``matched(v', w')`` says whether the configuration a round reaches at
    the pair (v', w'), with its updated obligation, is related.
    """
    sv, sw = game.successors[v], game.successors[w]
    if game.owners[v] is Player.EVEN:
        if game.owners[w] is Player.EVEN:
            return all(any(matched(vp, wp) for wp in sw) for vp in sv)
        return all(matched(vp, wp) for vp in sv for wp in sw)
    if game.owners[w] is Player.EVEN:
        return any(matched(vp, wp) for wp in sw for vp in sv)
    return all(any(matched(vp, wp) for vp in sv) for wp in sw)


def oracle_delayed_sim_fixpoint(game: ParityGame, bias: str = "none") -> tuple[int, ...]:
    """Double fixpoint over (v, w, k), rescanning all triples until stable."""
    update = _UPDATERS[bias]
    obligations = [CHECK] + sorted(set(game.priorities))
    triples = [(v, w, k) for v in game.vertices for w in game.vertices for k in obligations]
    y = set(triples)
    while True:
        x: set = set()
        grew = True
        while grew:
            grew = False
            for t in triples:
                if t in x:
                    continue
                v, w, k = t

                def matched(vp, wp):
                    kp = update(game.priorities[vp], game.priorities[wp], k)
                    return (vp, wp, kp) in (y if kp == CHECK else x)

                if delayed_transfer(game, v, w, matched):
                    x.add(t)
                    grew = True
        if x == y:
            break
        y = x
    n = game.vertex_count
    rows = [0] * n
    for v in game.vertices:
        for w in game.vertices:
            if (v, w, update(game.priorities[v], game.priorities[w], CHECK)) in y:
                rows[v] |= 1 << w
    return tuple(rows)


def oracle_delayed_sim_worklist(game: ParityGame, bias: str = "none") -> tuple[int, ...]:
    """The stage-carrying worklist fixpoint with one ``matched`` closure per
    evaluation, passed to ``delayed_transfer``, and readers computed per
    triple.  The library's version must join the same triples."""
    n = game.vertex_count
    kk, table, prow = _obligations(game, bias)
    total = n * n * kk
    preds = game.predecessors()
    sources: list[list[int]] = [[] for _ in table]
    for r in range(0, len(table), kk):
        for k in range(kk):
            sources[r + table[r + k]].append(k)

    def readers(t: int) -> list[int]:
        j, k = divmod(t, kk)
        v, w = divmod(j, n)
        return [
            (a * n + b) * kk + s
            for s in sources[prow[j] + k]
            for a in preds[v]
            for b in preds[w]
        ]

    def holds(t: int) -> bool:
        j, k = divmod(t, kk)

        def matched(vp: int, wp: int) -> bool:
            jp = vp * n + wp
            kp = table[prow[jp] + k]
            return (x if kp else y)[jp * kk + kp] == 1

        return delayed_transfer(game, j // n, j % n, matched)

    def climb(todo: list[int]) -> None:
        queued = bytearray(total)
        for t in todo:
            queued[t] = 1
        work = deque(todo)
        while work:
            t = work.popleft()
            queued[t] = 0
            if not holds(t):
                continue
            x[t] = 1
            order.append(t)
            if t % kk:
                for r in readers(t):
                    if y[r] and not x[r] and not queued[r]:
                        queued[r] = 1
                        work.append(r)

    y = bytearray(b"\x01") * total
    x = bytearray(total)
    order: list[int] = []
    climb(list(range(total)))
    while True:
        left = [t for t in range(0, total, kk) if y[t] and not x[t]]
        if not left:
            break
        dirty = bytearray(total)
        for t in left:
            for r in readers(t):
                dirty[r] = 1
        y, x = x, bytearray(total)
        joined, order = order, []
        removed = []
        for t in joined:
            if dirty[t] and not holds(t):
                removed.append(t)
                if t % kk:
                    for r in readers(t):
                        dirty[r] = 1
            else:
                x[t] = 1
                order.append(t)
        climb(removed)
    rows = [0] * n
    for j in range(n * n):
        if x[j * kk + table[prow[j]]]:
            rows[j // n] |= 1 << (j % n)
    return tuple(rows)


def oracle_rank_check(game: ParityGame, bias: str, ranks: dict[int, int]) -> bool:
    """``wf_rank_check`` on given ranks of the delayed arena's positions:
    every transfer from a ranked configuration reaches ranked ones, of
    smaller rank unless the obligation is ✓.  Each position is read by its
    payload in the interning builder's arena after the same fold, whose
    positions are the library's, in the same order."""
    update = _UPDATERS[bias]
    prio = game.priorities
    payload = fold_same_owner_half_moves(game, oracle_build_delayed_sim_arena(game, bias)).payload
    rank = {payload[p][1:]: r for p, r in ranks.items() if payload[p][0] == "cfg"}
    for (v, w, k), r in rank.items():
        if r < 0:
            continue

        def matched(vp, wp):
            s = rank.get((vp, wp, update(prio[vp], prio[wp], k)), -1)
            return s >= 0 and (k == CHECK or s < r)

        if not delayed_transfer(game, v, w, matched):
            return False
    return True


def attractor_layers(
    owners: Sequence,
    preds: Sequence[Sequence[int]],
    degree: Callable[[int], int],
    player,
    targets: Iterable[int],
    allowed: int,
) -> dict[int, int]:
    """BFS layers of ``player``'s attractor to ``targets``: the layered
    reference for the library's byte-state attractor kernel.

    Layer 0 is the target set.  A vertex owned by ``player`` joins one layer
    after its first successor, any other vertex one layer after the last of
    its ``degree(v)`` counted successors.  ``degree`` is read once per
    vertex, when an edge into the attractor first reaches it, and must count
    every edge in ``preds`` whose target can join.  Only vertices in the
    ``allowed`` bitmask join; ``-1`` has every bit set and allows every
    vertex.
    """
    layers = dict.fromkeys(targets, 0)
    queue = deque(layers)
    remaining: dict[int, int] = {}
    while queue:
        u = queue.popleft()
        next_layer = layers[u] + 1
        for v in preds[u]:
            if v in layers or not allowed >> v & 1:
                continue
            if owners[v] is not player:
                r = remaining.get(v)
                r = (degree(v) if r is None else r) - 1
                remaining[v] = r
                if r:
                    continue
            layers[v] = next_layer
            queue.append(v)
    return layers


def _oracle_arena_preds(arena: Arena) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(arena.size)]
    for p, row in enumerate(arena.edges):
        for q in row:
            preds[q].append(p)
    return preds


def _oracle_cpre_duplicator(arena: Arena, target: set[int]) -> set[int]:
    """Every position from which Duplicator forces entering ``target`` in one move."""
    out = set()
    for p, row in enumerate(arena.edges):
        if arena.owners[p] is ArenaPlayer.DUPLICATOR:
            if any(q in target for q in row):
                out.add(p)
        elif row and all(q in target for q in row):
            out.add(p)
    return out


def _oracle_duplicator_layers(arena: Arena, targets: set[int]) -> dict[int, int]:
    return attractor_layers(
        arena.owners, _oracle_arena_preds(arena), lambda p: len(arena.edges[p]),
        ArenaPlayer.DUPLICATOR, sorted(targets), -1,
    )


def oracle_solve_buchi(arena: Arena) -> frozenset[int]:
    arena.validate()
    y = set(range(arena.size))
    while True:
        new_y = set(_oracle_duplicator_layers(arena, arena.accepting & _oracle_cpre_duplicator(arena, y)))
        if new_y == y:
            return frozenset(y)
        y = new_y


def oracle_buchi_rank(arena: Arena) -> dict[int, int]:
    won = set(oracle_solve_buchi(arena))
    return _oracle_duplicator_layers(arena, arena.accepting & _oracle_cpre_duplicator(arena, won))


# --- Reference arena builders ------------------------------------------------
#
# The interning builders: every half move builds its payload tuple and looks
# it up in the arena's payload index.  The library's builders find positions
# by arithmetic on their integer ids and must produce the same arenas: the
# same positions in the same order, with the same owners, edges, acceptance
# and start positions, once the oracle's arena has gone through the same
# transform (``fold_same_owner_half_moves`` for the direct, governed and
# delayed games, ``collapse_same_owner_chains`` for the stuttering game,
# which merges the Duplicator positions of equal ``gstut_canonical_key``).
# The interning builders keep a position per half move.

_LOSE = ("lose",)


@dataclass
class InterningArena(Arena):
    """An arena that interns positions by payload, so builders can freely
    re-request them: ``payload[p]`` describes position ``p`` and ``index``
    maps a payload back to its position.  It records no predecessor lists,
    so the solver derives them from its edges."""

    payload: list = field(default_factory=list)
    index: dict = field(default_factory=dict)

    def position(self, payload, owner: ArenaPlayer, accepting: bool = False) -> int:
        pos = self.index.get(payload)
        if pos is not None:
            return pos
        pos = len(self.owners)
        self.index[payload] = pos
        self.owners.append(owner)
        self.edges.append([])
        self.payload.append(payload)
        if accepting:
            self.accepting.add(pos)
        return pos

    def add_edge(self, src: int, dst: int) -> None:
        self.edges[src].append(dst)


def _round_order(game: ParityGame, a: int, b: int) -> tuple[int, ArenaPlayer, ArenaPlayer]:
    """First-moving side and the movers of both sides for the pair ``(a, b)``."""
    mover0 = ArenaPlayer.SPOILER if game.owners[a] is Player.EVEN else ArenaPlayer.DUPLICATOR
    mover1 = ArenaPlayer.SPOILER if game.owners[b] is Player.ODD else ArenaPlayer.DUPLICATOR
    first = 0 if game.owners[a] is Player.EVEN else 1
    return first, mover0, mover1


def _first_mover(game: ParityGame, a: int, b: int) -> ArenaPlayer:
    first, mover0, mover1 = _round_order(game, a, b)
    return mover0 if first == 0 else mover1


def _expand_all(arena: InterningArena, expand) -> InterningArena:
    # Positions appended during expansion are expanded in turn.
    i = 0
    while i < arena.size:
        expand(i, arena.payload[i])
        i += 1
    return arena


def _oracle_simulation_arena(game: ParityGame, swap: bool) -> Arena:
    arena = InterningArena()

    def cfg(v: int, w: int) -> int:
        if game.priorities[v] != game.priorities[w]:
            return arena.position(_LOSE, ArenaPlayer.DUPLICATOR)
        owner = ArenaPlayer.SPOILER if swap else _first_mover(game, v, w)
        return arena.position(("cfg", v, w), owner, accepting=True)

    arena.start = [cfg(v, w) for v in game.vertices for w in game.vertices]

    def expand(pos: int, payload) -> None:
        kind = payload[0]
        if kind == "lose":
            arena.add_edge(pos, pos)
        elif kind == "cfg" and swap:
            _, v, w = payload
            for a, b in ((v, w), (w, v)):
                arena.add_edge(pos, arena.position(("ori", a, b), _first_mover(game, a, b)))
        elif kind in ("cfg", "ori"):
            _, a, b = payload
            first, mover0, mover1 = _round_order(game, a, b)
            if first == 0:
                for t in game.successors[a]:
                    arena.add_edge(pos, arena.position(("mid", t, b, 1), mover1))
            else:
                for t in game.successors[b]:
                    arena.add_edge(pos, arena.position(("mid", a, t, 0), mover0))
        else:
            _, a, b, side = payload
            row = [cfg(u, b) if side == 0 else cfg(a, u) for u in game.successors[a if side == 0 else b]]
            for q in dict.fromkeys(row):
                arena.add_edge(pos, q)

    return _expand_all(arena, expand)


def oracle_build_direct_sim_arena(game: ParityGame) -> Arena:
    return _oracle_simulation_arena(game, swap=False)


def oracle_build_governed_bisim_arena(game: ParityGame) -> Arena:
    return _oracle_simulation_arena(game, swap=True)


def oracle_build_delayed_sim_arena(game: ParityGame, bias: str = "none") -> Arena:
    update = _UPDATERS[bias]
    arena = InterningArena()

    def cfg(v: int, w: int, k) -> int:
        return arena.position(("cfg", v, w, k), _first_mover(game, v, w), accepting=k == CHECK)

    arena.start = [
        cfg(v, w, update(game.priorities[v], game.priorities[w], CHECK)) for v in game.vertices for w in game.vertices
    ]

    def expand(pos: int, payload) -> None:
        kind = payload[0]
        if kind == "cfg":
            _, v, w, k = payload
            first, mover0, mover1 = _round_order(game, v, w)
            if first == 0:
                for t in game.successors[v]:
                    arena.add_edge(pos, arena.position(("mid", t, w, k, 1), mover1))
            else:
                for t in game.successors[w]:
                    arena.add_edge(pos, arena.position(("mid", v, t, k, 0), mover0))
        else:
            _, a, b, k, side = payload
            for u in game.successors[a if side == 0 else b]:
                vp, wp = (u, b) if side == 0 else (a, u)
                kp = update(game.priorities[vp], game.priorities[wp], k)
                arena.add_edge(pos, cfg(vp, wp, kp))

    return _expand_all(arena, expand)


def _gstut_challenge_update(c, cprime, same_vertex: bool, spoiler_moved: bool):
    if not same_vertex:
        return CHECK
    if spoiler_moved:
        return cprime if c in (DAGGER, CHECK, cprime) else CHECK
    return DAGGER


def oracle_build_gstut_arena(game: ParityGame) -> Arena:
    arena = InterningArena()

    def cfg(v: int, w: int, c) -> int:
        if game.priorities[v] != game.priorities[w]:
            return arena.position(_LOSE, ArenaPlayer.DUPLICATOR)
        return arena.position(("cfg", v, w, c), ArenaPlayer.SPOILER, accepting=c == CHECK)

    for v in game.vertices:
        for w in game.vertices:
            cfg(v, w, CHECK)

    def expand(pos: int, payload) -> None:
        kind = payload[0]
        if kind == "lose":
            arena.add_edge(pos, pos)
        elif kind == "cfg":
            _, v, w, c = payload
            for swap in (0, 1):
                a, b = (w, v) if swap else (v, w)
                arena.add_edge(pos, arena.position(("ori", a, b, c, swap), _first_mover(game, a, b)))
        elif kind == "ori":
            _, a, b, c, swap = payload
            first, mover0, mover1 = _round_order(game, a, b)
            if first == 0:
                for t in game.successors[a]:
                    arena.add_edge(pos, arena.position(("mid", a, b, c, swap, 0, t), mover1))
            else:
                for t in game.successors[b]:
                    arena.add_edge(pos, arena.position(("mid", a, b, c, swap, 1, t), mover0))
        elif kind == "mid":
            _, a, b, c, swap, moved, t = payload
            for u in game.successors[b if moved == 0 else a]:
                t0, t1 = (t, u) if moved == 0 else (u, t)
                arena.add_edge(pos, arena.position(("pick", a, b, t0, t1, c, swap), ArenaPlayer.DUPLICATOR))
        else:
            _, a, b, t0, t1, c, swap = payload
            same = (not swap) or a == b
            left = _gstut_challenge_update(c, (0, t0), same, game.owners[a] is Player.EVEN)
            right = _gstut_challenge_update(c, (1, t1), same, game.owners[b] is Player.ODD)
            arena.add_edge(pos, cfg(t0, t1, CHECK))
            arena.add_edge(pos, cfg(a, t1, left))
            arena.add_edge(pos, cfg(t0, b, right))

    return _expand_all(arena, expand)


def gstut_duplicator_key(game: ParityGame, payload) -> tuple:
    """The fields of the library's Duplicator position that stands for
    ``payload``, an orientation, half move or pick of
    ``oracle_build_gstut_arena`` owned by Duplicator, or a pick below one.

    They are what its answers read: the pair (a, b) the round started from
    in its orientation, Spoiler's move on each side (``None`` where
    Duplicator moves) and the challenge that rolling back a, and b, leaves.
    """
    kind = payload[0]
    if kind == "ori":
        _, a, b, c, swap = payload
        t0 = t1 = None
    elif kind == "mid":
        _, a, b, c, swap, moved, t = payload
        t0, t1 = (t, None) if moved == 0 else (None, t)
    else:
        _, a, b, t0, t1, c, swap = payload
    spoiler0, spoiler1 = game.owners[a] is Player.EVEN, game.owners[b] is Player.ODD
    same = (not swap) or a == b
    return (
        "dup",
        a,
        b,
        t0 if spoiler0 else None,
        t1 if spoiler1 else None,
        _gstut_challenge_update(c, (0, t0), same, spoiler0),
        _gstut_challenge_update(c, (1, t1), same, spoiler1),
    )


def gstut_canonical_key(game: ParityGame, arena: InterningArena):
    """``collapse_same_owner_chains``'s ``key`` for ``oracle_build_gstut_arena``:
    a Duplicator position of a round is ``gstut_duplicator_key`` of its
    payload, every other position its payload."""

    def key(p: int):
        payload = arena.payload[p]
        if payload[0] in ("cfg", "lose") or arena.owners[p] is ArenaPlayer.SPOILER:
            return payload
        return gstut_duplicator_key(game, payload)

    return key


def collapse_same_owner_chains(arena: Arena, start: list[int], key) -> Arena:
    """``arena`` with each position merged into the one that moves to it,
    when it is non-accepting, is no start, has that position as its only
    predecessor and has the same owner.

    A merged position's moves replace the move to it.  The positions
    reachable from ``start`` are then renumbered breadth-first, with all
    positions of equal ``key(p)`` as one, which takes
    the moves of the first one found; each row lists a position once, and
    ``start`` maps to the new arena's ``start``.  The player who owned the
    merged position chooses its move together with the move to it, so every
    position kept has the same Buchi winner, and so does a position merged
    by ``key`` when all positions of its key have the same moves.
    """
    preds = _oracle_arena_preds(arena)
    starts = set(start)

    def merged(p: int, q: int) -> bool:
        return (
            q not in arena.accepting
            and q not in starts
            and preds[q] == [p]
            and arena.owners[q] == arena.owners[p]
        )

    def moves(p: int) -> list[int]:
        out = []
        for q in arena.edges[p]:
            out += moves(q) if merged(p, q) else [q]
        return out

    order: list[int] = []
    new: dict = {}

    def number(p: int) -> int:
        k = key(p)
        if k not in new:
            new[k] = len(order)
            order.append(p)
        return new[k]

    new_start = [number(p) for p in start]
    edges = []
    for p in order:  # also visits the positions numbered below
        edges.append(list(dict.fromkeys(number(q) for q in moves(p))))
    return Arena(
        owners=[arena.owners[p] for p in order],
        edges=edges,
        accepting={new[key(p)] for p in arena.accepting if key(p) in new},
        start=new_start,
    )


def fold_same_owner_half_moves(game: ParityGame, arena: InterningArena) -> InterningArena:
    """``arena``, built for ``game``, with each half-move position folded
    into every position that moves to it and has its owner, and each half
    move whose answering vertex has one successor in ``game`` into every
    position that moves to it.

    Such a position moves to the half move's moves instead, each listed
    once; a half move with two answers or more that a position of the
    other owner moves to stays.  The positions reachable from
    ``arena.start`` are then renumbered breadth-first, with their
    payloads, and ``start`` maps along.  A half move is non-accepting and
    its owner makes both choices at once, or has only one, so every
    position kept has the same Buchi winner.  The answering vertex of a
    half move ``("mid", a, b, ..., side)`` is ``a`` on side 0 and ``b`` on
    side 1; its count of successors, not the half move's count of moves,
    decides, since answers that all reach the direct arena's sink make one
    move too.
    """

    def folds(p: int, q: int) -> bool:
        payload = arena.payload[q]
        if payload[0] != "mid":
            return False
        answerer = payload[2] if payload[-1] else payload[1]
        return arena.owners[q] == arena.owners[p] or len(game.successors[answerer]) == 1

    def moves(p: int) -> list[int]:
        row = arena.edges[p]
        if not any(folds(p, q) for q in row):
            return row
        return list(dict.fromkeys(r for q in row for r in (arena.edges[q] if folds(p, q) else [q])))

    order = list(dict.fromkeys(arena.start))
    new = {p: i for i, p in enumerate(order)}
    edges = []
    for p in order:
        row = moves(p)
        for q in row:
            if q not in new:
                new[q] = len(order)
                order.append(q)
        edges.append([new[q] for q in row])
    payload = [arena.payload[p] for p in order]
    return InterningArena(
        owners=[arena.owners[p] for p in order],
        edges=edges,
        accepting={new[p] for p in arena.accepting if p in new},
        start=[new[p] for p in arena.start],
        payload=payload,
        index={key: i for i, key in enumerate(payload)},
    )


# --- Reference lattice check -------------------------------------------------
#
# Every edge on ``compute_relations``, compared as n x n bit relations, then
# ``coincidence_check`` per notion, which builds and solves each delayed
# arena a second time.


def oracle_refines(finer: Partition, coarser: Partition) -> bool:
    """Inclusion of the two equivalences, row by row."""
    return is_subrelation(finer.as_relation(), coarser.as_relation())


def oracle_check_lattice(game: ParityGame) -> list[LatticeResult]:
    rels = compute_relations(game)
    results = [
        LatticeResult(f"{finer} refines {coarser}", oracle_refines(rels[finer], rels[coarser]))
        for finer, coarser in LATTICE_EDGES
    ]
    results += [
        LatticeResult(f"game-based {notion} coincides", coincidence_check(game, notion))
        for notion in COINCIDENCES
    ]
    return results

# --- Reference Zielonka solver ---------------------------------------------
#
# The recursive form: every call scans all vertices for its lowest priority
# and for the targets of both attractors.  Its depth grows with the vertex
# count, which the interpreter's default limit covers on the games it is
# compared on.  The library's explicit-stack solver must make the same
# attractor calls, in the same order, and return the same regions.


def oracle_solve_zielonka(game: ParityGame) -> WinningRegions:
    preds = game.predecessors()
    succ_masks = [sum(1 << u for u in row) for row in game.successors]

    def solve(alive: int) -> tuple[int, int]:
        if alive == 0:
            return 0, 0

        def degree(v: int) -> int:
            return (succ_masks[v] & alive).bit_count()

        p = min(game.priorities[v] for v in game.vertices if alive >> v & 1)
        i = Player(p % 2)
        o = i.opponent
        top = [v for v in game.vertices if alive >> v & 1 and game.priorities[v] == p]
        a = sum(1 << v for v in attractor_layers(game.owners, preds, degree, i, top, alive))
        sub = solve(alive & ~a)
        win = [sub[0], sub[1]]
        if win[o] == 0:
            win[i] = alive
            win[o] = 0
        else:
            lost = [v for v in game.vertices if win[o] >> v & 1]
            b = sum(1 << v for v in attractor_layers(game.owners, preds, degree, o, lost, alive))
            sub2 = solve(alive & ~b)
            win = [sub2[0], sub2[1]]
            win[o] |= b
        return win[0], win[1]

    even_mask, odd_mask = solve((1 << game.vertex_count) - 1)
    even = frozenset(v for v in game.vertices if even_mask >> v & 1)
    odd = frozenset(v for v in game.vertices if odd_mask >> v & 1)
    return WinningRegions(even, odd)


# --- Reference PGSolver statement splitter ----------------------------------
#
# The per-character loop: it tracks the line while it reads, and a
# statement's line is that of its first non-blank character.


def oracle_split_statements(text: str) -> list[tuple[str, int]]:
    statements: list[tuple[str, int]] = []
    line = 1
    buf: list[str] = []
    buf_line = 1
    for ch in text:
        if ch == ";":
            statements.append(("".join(buf), buf_line))
            buf = []
            buf_line = line
        else:
            if ch == "\n":
                line += 1
            if not buf and ch.isspace():
                buf_line = line
                continue
            buf.append(ch)
    if "".join(buf).strip():
        raise PgSolverFormatError("missing ';' at end of input", buf_line)
    return statements


# --- Reference isomorphism relation and checks -------------------------------
#
# The pairwise relation pins every pair of vertices, where the library
# searches once per orbit.  ``iso_check`` runs the library's search on two
# whole games.  ``is_isomorphism`` checks a given mapping in linear time, so
# idempotence tests need no search and no size limit.


def oracle_iso_relation(game: ParityGame) -> tuple[int, ...]:
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
    return tuple(rows)


def iso_check(g1: ParityGame, g2: ParityGame) -> bool:
    """True iff the two games are isomorphic.  Intended for quotient-sized games."""
    return find_isomorphism(g1, g2) is not None


def is_isomorphism(g1: ParityGame, g2: ParityGame, mapping) -> bool:
    """``mapping[v]`` is a bijection from g1's vertices onto g2's that keeps
    every priority, owner and successor set."""
    n = g1.vertex_count
    if g2.vertex_count != n or len(mapping) != n:
        return False
    if sorted(mapping[v] for v in g1.vertices) != list(range(n)):
        return False
    return all(
        g1.priorities[v] == g2.priorities[mapping[v]]
        and g1.owners[v] == g2.owners[mapping[v]]
        and {mapping[u] for u in g1.successors[v]} == set(g2.successors[mapping[v]])
        for v in g1.vertices
    )


# --- Reference quotient certificate -----------------------------------------


# The equivalence that defines each quotient kind, by the public functions.
KIND_RELATIONS: dict[str, Callable[[ParityGame], Partition]] = {
    "strong-bisim": strong_bisim,
    "governed-bisim": governed_bisim,
    "stut": stut_bisim,
    "gstut": gstut_bisim,
    "direct-sim": lambda game: equivalence_from_preorder(direct_sim(game)),
}


def oracle_quotient_equivalent(game: ParityGame, result: QuotientResult) -> bool:
    """Refine the disjoint union of the game and its quotient from scratch.

    The union's own partition, from the kind's initial one, must put every
    vertex in the class of its quotient vertex.
    """
    q = result.quotient.vertex_count
    assert len(result.class_map) == game.vertex_count, result
    assert all(0 <= c < q for c in result.class_map), result
    union = disjoint_union(game, result.quotient)
    part = KIND_RELATIONS[result.kind](union)
    off = game.vertex_count
    return all(part.same_class(v, off + result.class_map[v]) for v in game.vertices)
