"""Oracles: brute-force ones and reference constructions.

The winner and forcing oracles enumerate memoryless strategies explicitly
and evaluate plays on the strategy-restricted graph, so a bug in the
attractor or in the Zielonka recursion cannot hide in them.  The stuttering,
bisimulation, delayed-simulation, Buchi, Zielonka and parser references at
the end keep the library's earlier, direct constructions.
"""
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
    VertexRelation,
    WinningRegions,
    attractor,
    diverges,
    steps,
)
from pgreduce.forcing import attractor_layers
from pgreduce.simgames import CHECK, _UPDATERS, _delayed_transfer


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


def oracle_forces(game: ParityGame, player: Player, v: int, U, T) -> bool:
    inside = set(U)
    target = set(T)
    return any(
        _all_plays_reach(restricted_successors(game, s), v, inside, target)
        for s in strategies(game, player)
    )


def oracle_diverges(game: ParityGame, player: Player, v: int, U) -> bool:
    inside = set(U)
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


def oracle_gstut_refine(game: ParityGame, initial: Partition) -> Partition:
    """Re-sign every non-singleton class against all classes each round."""
    n = game.vertex_count
    part = initial
    while True:
        items: list[list] = [[] for _ in range(n)]
        for ci, cls in enumerate(part.classes):
            if len(cls) == 1:
                continue
            for player in (Player.EVEN, Player.ODD):
                for cj, target in enumerate(part.classes):
                    if ci == cj:
                        continue
                    attr = attractor(game, player, cls, target)
                    for v in cls:
                        if v in attr:
                            items[v].append((int(player), cj))
                esc = attractor(game, player.opponent, cls, cls.complement())
                for v in cls:
                    if v not in esc:
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
    priorities = tuple(game.priorities[next(iter(cls))] for cls in part.classes)
    owners = []
    succs = []
    for ci, cls in enumerate(part.classes):
        members = list(cls)
        even_divergent = all(diverges(game, Player.EVEN, v, cls) for v in members)
        even_escape = any(
            steps(game, Player.EVEN, v, part.classes[cj])
            for v in members
            for cj in range(part.class_count)
            if cj != ci
        )
        owners.append(Player.EVEN if even_divergent or even_escape else Player.ODD)
        targets = []
        for cj, target in enumerate(part.classes):
            if cj == ci:
                facts = [[diverges(game, p, v, cls) for v in members] for p in Player]
            else:
                facts = [[v in attractor(game, p, cls, target) for v in members] for p in Player]
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
    owners = tuple(game.owners[next(iter(cls))] for cls in part.classes)
    quotient = ParityGame(base.quotient.priorities, owners, base.quotient.successors)
    return QuotientResult(quotient, base.class_map, "stut")


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
    VertexRelation(n, tuple(rows), "equivalence").validate()
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
# with them exactly.


def oracle_delayed_sim_fixpoint(game: ParityGame, bias: str = "none") -> VertexRelation:
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

                def member(vp, wp, kp):
                    return (vp, wp, kp) in (y if kp == CHECK else x)

                if _delayed_transfer(game, update, v, w, k, member):
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
    return VertexRelation(n, tuple(rows), "preorder")


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
        ArenaPlayer.DUPLICATOR, sorted(targets),
    )


def oracle_solve_buchi(arena: Arena) -> frozenset[int]:
    arena.validate()
    y = set(range(arena.size))
    while True:
        new_y = set(_oracle_duplicator_layers(arena, arena.accepting & _oracle_cpre_duplicator(arena, y)))
        if new_y == y:
            return frozenset(y)
        y = new_y


def oracle_buchi_rank(arena: Arena, won: frozenset[int]) -> dict[int, int]:
    layers = _oracle_duplicator_layers(arena, arena.accepting & _oracle_cpre_duplicator(arena, set(won)))
    if set(layers) != set(won):
        raise ValueError("rank queried for positions not won by Duplicator")
    return layers


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
