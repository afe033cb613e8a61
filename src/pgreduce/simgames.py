"""Game-based characterisations of the preorders and equivalences.

Each (bi)simulation game is compiled into an explicit Buchi arena.  A round
of every game follows the same move table, driven by the owners of the two
tracked vertices:

    owner(a)  owner(b)   first mover on   second mover on
    even      even       Spoiler    a     Duplicator  b
    even      odd        Spoiler    a     Spoiler     b
    odd       even       Duplicator b     Duplicator  a
    odd       odd        Spoiler    b     Duplicator  a

so Spoiler moves on even-owned left vertices and odd-owned right vertices,
and the left side moves first exactly when it is even-owned.  The round is
encoded with an intermediate arena position per half move; this encoding is
validated against the coinductive fixpoints by ``coincidence_check``.
"""
from __future__ import annotations

from collections import deque
from itertools import product
from typing import Callable, Hashable

from .game import ParityGame, Player, reward_leq
from .relations import Partition, VertexRelation, gstut_bisim, iter_bits
from .solver import Arena, ArenaPlayer, buchi_rank, solve_buchi

__all__ = [
    "CHECK",
    "DAGGER",
    "gamma",
    "gamma_even",
    "gamma_odd",
    "build_direct_sim_arena",
    "build_governed_bisim_arena",
    "build_delayed_sim_arena",
    "build_gstut_arena",
    "direct_sim_via_game",
    "governed_bisim_via_game",
    "delayed_sim",
    "delayed_sim_fixpoint",
    "wf_rank_check",
    "gstut_via_game",
    "coincidence_check",
]

# Obligation/challenge sentinels: "no pending obligation" and "matched by
# staying put".  Distinct from every natural number and from each other.
CHECK = "✓"
DAGGER = "†"

Obligation = int | str
_LOSE = ("lose",)


def gamma(n: int, m: int, k: Obligation) -> Obligation:
    """Obligation update of the delayed simulation game.

    A pending obligation is discharged (result ✓) when the fresh pair of
    priorities rewards the simulating side and either the left priority is
    a small enough odd or the right one a small enough even; otherwise the
    new obligation is the minimum of the priorities involved.
    """
    if k == CHECK:
        return CHECK if reward_leq(m, n) else min(n, m)
    if reward_leq(m, n) and ((n % 2 == 1 and n <= k) or (m % 2 == 0 and m <= k)):
        return CHECK
    return min(n, m, k)


def gamma_even(n: int, m: int, k: Obligation) -> Obligation:
    """Even-biased update: a small odd left priority no longer discharges.

    The guard compares against the numeric obligation only, so with k = ✓
    it is vacuously false and the update falls through to ``gamma``.
    """
    if k != CHECK and reward_leq(m, n) and n % 2 == 1 and n <= k and (m % 2 == 1 or k < m):
        return k
    return gamma(n, m, k)


def gamma_odd(n: int, m: int, k: Obligation) -> Obligation:
    """Odd-biased update: a small even right priority no longer discharges."""
    if k != CHECK and reward_leq(m, n) and m % 2 == 0 and m <= k and (n % 2 == 0 or k < n):
        return k
    return gamma(n, m, k)


_UPDATERS: dict[str, Callable[[int, int, Obligation], Obligation]] = {
    "none": gamma,
    "even": gamma_even,
    "odd": gamma_odd,
}


def _updater(bias: str) -> Callable[[int, int, Obligation], Obligation]:
    if bias not in _UPDATERS:
        raise ValueError(f"unknown bias {bias!r}; expected one of none, even, odd")
    return _UPDATERS[bias]


def _round_order(game: ParityGame, a: int, b: int) -> tuple[int, ArenaPlayer, ArenaPlayer]:
    """First-moving side and the movers of both sides for the pair ``(a, b)``."""
    mover0 = ArenaPlayer.SPOILER if game.owners[a] is Player.EVEN else ArenaPlayer.DUPLICATOR
    mover1 = ArenaPlayer.SPOILER if game.owners[b] is Player.ODD else ArenaPlayer.DUPLICATOR
    first = 0 if game.owners[a] is Player.EVEN else 1
    return first, mover0, mover1


def _first_mover(game: ParityGame, a: int, b: int) -> ArenaPlayer:
    """Owner of the round's first half move for the pair ``(a, b)``."""
    first, mover0, mover1 = _round_order(game, a, b)
    return mover0 if first == 0 else mover1


def _expand_all(arena: Arena, expand: Callable[[int, Hashable], None]) -> Arena:
    # Positions appended during expansion are expanded in turn.
    i = 0
    while i < arena.size:
        expand(i, arena.payload[i])
        i += 1
    return arena


def _simulation_arena(game: ParityGame, swap: bool) -> Arena:
    """Arena of the direct simulation game over all vertex pairs.

    Configurations with unequal priorities collapse into one losing sink;
    every other configuration is accepting, so Duplicator wins exactly the
    safety condition of matching priorities forever.  With ``swap``,
    Spoiler owns every configuration and first picks which side plays the
    left role in the round.
    """
    arena = Arena()

    def cfg(v: int, w: int) -> int:
        if game.priorities[v] != game.priorities[w]:
            return arena.position(_LOSE, ArenaPlayer.DUPLICATOR)
        owner = ArenaPlayer.SPOILER if swap else _first_mover(game, v, w)
        return arena.position(("cfg", v, w), owner, accepting=True)

    for v in game.vertices:
        for w in game.vertices:
            cfg(v, w)

    def expand(pos: int, payload: Hashable) -> None:
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
            for u in game.successors[a if side == 0 else b]:
                arena.add_edge(pos, cfg(u, b) if side == 0 else cfg(a, u))

    return _expand_all(arena, expand)


def build_direct_sim_arena(game: ParityGame) -> Arena:
    """Arena of the direct simulation game over all vertex pairs."""
    return _simulation_arena(game, swap=False)


def build_governed_bisim_arena(game: ParityGame) -> Arena:
    """Direct simulation arena with a Spoiler-owned swap choice before each round."""
    return _simulation_arena(game, swap=True)


def build_delayed_sim_arena(game: ParityGame, bias: str = "none") -> Arena:
    """Buchi arena over (v, w, obligation) with the chosen update function.

    Accepting positions are the configurations without pending obligation.
    Only configurations reachable from the query positions (v, w, γ(v,w,✓))
    are materialised.
    """
    update = _updater(bias)
    arena = Arena()

    def cfg(v: int, w: int, k: Obligation) -> int:
        return arena.position(("cfg", v, w, k), _first_mover(game, v, w), accepting=k == CHECK)

    for v in game.vertices:
        for w in game.vertices:
            cfg(v, w, update(game.priorities[v], game.priorities[w], CHECK))

    def expand(pos: int, payload: Hashable) -> None:
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


def _gstut_challenge_update(
    c: Hashable, cprime: tuple[int, int], same_vertex: bool, spoiler_moved: bool
) -> Hashable:
    """Challenge bookkeeping of the stuttering game.

    Rolling back a Spoiler move on an unswapped side issues (or keeps) the
    challenge; Duplicator is rewarded when Spoiler swapped sides or dropped
    a pending challenge, and rolling back her own move costs a dagger.
    """
    if not same_vertex:
        return CHECK
    if spoiler_moved:
        return cprime if c in (DAGGER, CHECK, cprime) else CHECK
    return DAGGER


def build_gstut_arena(game: ParityGame) -> Arena:
    """Arena of the governed stuttering bisimulation game.

    A round from ((v, w), c): Spoiler picks an orientation, the usual two
    half moves follow, then Duplicator picks the next configuration from
    accepting both moves (reward ✓) or rolling back either side (challenge
    update).  Accepting positions are configurations with reward ✓.
    """
    arena = Arena()

    def cfg(v: int, w: int, c: Hashable) -> int:
        if game.priorities[v] != game.priorities[w]:
            return arena.position(_LOSE, ArenaPlayer.DUPLICATOR)
        return arena.position(("cfg", v, w, c), ArenaPlayer.SPOILER, accepting=c == CHECK)

    for v in game.vertices:
        for w in game.vertices:
            cfg(v, w, CHECK)

    def expand(pos: int, payload: Hashable) -> None:
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
                arena.add_edge(
                    pos,
                    arena.position(
                        ("pick", a, b, t0, t1, c, swap), ArenaPlayer.DUPLICATOR
                    ),
                )
        else:
            _, a, b, t0, t1, c, swap = payload
            # With a swap the rolled-back vertex differs from the one the
            # round started on, which always yields a ✓ reward.
            same = (not swap) or a == b
            left = _gstut_challenge_update(
                c, (0, t0), same, game.owners[a] is Player.EVEN
            )
            right = _gstut_challenge_update(
                c, (1, t1), same, game.owners[b] is Player.ODD
            )
            arena.add_edge(pos, cfg(t0, t1, CHECK))
            arena.add_edge(pos, cfg(a, t1, left))
            arena.add_edge(pos, cfg(t0, b, right))

    return _expand_all(arena, expand)


def _start_positions(game: ParityGame, arena: Arena, *tail: Hashable) -> dict[tuple[int, int], int]:
    """Position of each pair at the start of a play: ``("cfg", v, w, *tail)``,
    or the losing sink when the priorities differ."""
    initial = {}
    for v in game.vertices:
        for w in game.vertices:
            key = ("cfg", v, w, *tail) if game.priorities[v] == game.priorities[w] else _LOSE
            initial[(v, w)] = arena.index[key]
    return initial


def _pair_relation_from_arena(
    game: ParityGame, arena: Arena, initial, kind: str = "preorder"
) -> VertexRelation:
    won = solve_buchi(arena)
    n = game.vertex_count
    rows = [0] * n
    for (v, w), pos in initial.items():
        if pos in won:
            rows[v] |= 1 << w
    return VertexRelation(n, tuple(rows), kind)


def direct_sim_via_game(game: ParityGame) -> VertexRelation:
    """Pairs from which Duplicator wins the direct simulation game."""
    arena = build_direct_sim_arena(game)
    return _pair_relation_from_arena(game, arena, _start_positions(game, arena))


def governed_bisim_via_game(game: ParityGame) -> VertexRelation:
    """Winning set of the governed bisimulation game; symmetric by the swap move."""
    arena = build_governed_bisim_arena(game)
    return _pair_relation_from_arena(game, arena, _start_positions(game, arena))


def delayed_sim(game: ParityGame, bias: str = "none") -> VertexRelation:
    """Delayed simulation preorder: Duplicator wins from (v, w, γ(v, w, ✓))."""
    update = _updater(bias)
    arena = build_delayed_sim_arena(game, bias)
    initial = {}
    for v in game.vertices:
        for w in game.vertices:
            k0 = update(game.priorities[v], game.priorities[w], CHECK)
            initial[(v, w)] = arena.index[("cfg", v, w, k0)]
    return _pair_relation_from_arena(game, arena, initial)


def _delayed_transfer(
    game: ParityGame,
    update: Callable[[int, int, Obligation], Obligation],
    v: int,
    w: int,
    k: Obligation,
    member: Callable[[int, int, Obligation], bool],
) -> bool:
    """One round of the well-founded delayed simulation transfer condition."""

    def matched(vp: int, wp: int) -> bool:
        return member(vp, wp, update(game.priorities[vp], game.priorities[wp], k))

    if game.owners[v] is Player.EVEN:
        for vp in game.successors[v]:
            if game.owners[w] is Player.EVEN:
                if not any(matched(vp, wp) for wp in game.successors[w]):
                    return False
            else:
                if not all(matched(vp, wp) for wp in game.successors[w]):
                    return False
        return True
    if game.owners[w] is Player.EVEN:
        return any(
            any(matched(vp, wp) for vp in game.successors[v]) for wp in game.successors[w]
        )
    return all(
        any(matched(vp, wp) for vp in game.successors[v]) for wp in game.successors[w]
    )


def delayed_sim_fixpoint(game: ParityGame, bias: str = "none") -> VertexRelation:
    """Delayed simulation computed directly on obligation triples.

    Double fixpoint over (v, w, k): the outer greatest fixpoint ``y`` keeps
    the triples Duplicator can sustain forever, the inner least fixpoint
    ``x`` demands finite progress towards a ✓ obligation, exactly the
    well-founded formulation of ``_delayed_transfer``.  Worklist invariants:
    a round evaluates only triples in ``y`` (``x`` is monotone in ``y``, so
    ``x ⊆ y``); a triple (v, w, k) with k ≠ ✓ joining ``x`` re-queues only
    its readers (a, b, kk) with a ∈ pred(v), b ∈ pred(w) and
    update(p(v), p(w), kk) = k; a ✓-triple wakes nobody, as transfers read
    ``y`` at ✓.  No arena, Buchi solver or attractor enters this route, so
    it checks the arena encoding of ``delayed_sim`` independently.
    """
    update = _updater(bias)
    prio = game.priorities
    obligations: list[Obligation] = [CHECK] + sorted(set(prio))
    preds = game.predecessors()
    # (p(v), p(w), k) -> the obligations kk whose update lands on k.
    sources: dict[tuple[int, int, Obligation], list[Obligation]] = {}
    for pv, pw, kk in product(set(prio), set(prio), obligations):
        sources.setdefault((pv, pw, update(pv, pw, kk)), []).append(kk)
    triples = list(product(game.vertices, game.vertices, obligations))
    y = set(triples)
    while True:
        x: set[tuple[int, int, Obligation]] = set()

        def member(vp: int, wp: int, kp: Obligation) -> bool:
            return (vp, wp, kp) in (y if kp == CHECK else x)

        todo = deque(t for t in triples if t in y)
        queued = set(todo)
        while todo:
            t = todo.popleft()
            queued.discard(t)
            v, w, k = t
            if not _delayed_transfer(game, update, v, w, k, member):
                continue
            x.add(t)
            if k == CHECK:
                continue
            for kk in sources.get((prio[v], prio[w], k), ()):
                for a in preds[v]:
                    for b in preds[w]:
                        r = (a, b, kk)
                        if r in y and r not in x and r not in queued:
                            queued.add(r)
                            todo.append(r)
        if x == y:
            break
        y = x
    n = game.vertex_count
    rows = [0] * n
    for v in game.vertices:
        for w in game.vertices:
            if (v, w, update(prio[v], prio[w], CHECK)) in y:
                rows[v] |= 1 << w
    return VertexRelation(n, tuple(rows), "preorder")


def wf_rank_check(game: ParityGame, bias: str = "none") -> bool:
    """Validate the progress ranks extracted from the solved delayed arena.

    The Buchi layering of the won configurations must witness the
    well-founded formulation: every transfer step from a configuration with
    a pending obligation moves to related configurations of strictly
    smaller rank until a ✓ is reached.
    """
    update = _updater(bias)
    arena = build_delayed_sim_arena(game, bias)
    won = solve_buchi(arena)
    ranks = buchi_rank(arena, won)
    related: dict[tuple[int, int, Obligation], int] = {}
    for pos in won:
        payload = arena.payload[pos]
        if payload[0] == "cfg":
            _, v, w, k = payload
            related[(v, w, k)] = ranks[pos]

    for (v, w, k), rank in related.items():

        def member(vp: int, wp: int, kp: Obligation) -> bool:
            r = related.get((vp, wp, kp))
            if r is None:
                return False
            return k == CHECK or r < rank

        if not _delayed_transfer(game, update, v, w, k, member):
            return False
    return True


def gstut_via_game(game: ParityGame) -> Partition:
    """Partition of the governed stuttering game's winning pairs.

    The winning set is guaranteed to be an equivalence; anything else
    signals an arena encoding bug and raises.
    """
    arena = build_gstut_arena(game)
    initial = _start_positions(game, arena, CHECK)
    rel = _pair_relation_from_arena(game, arena, initial, "equivalence")
    try:
        rel.validate()
    except ValueError as exc:
        raise RuntimeError(
            f"stuttering game winning set is not an equivalence: {exc}"
        ) from exc
    class_of = [min(iter_bits(rel.rows[v])) for v in game.vertices]
    return Partition.from_class_of(game.vertex_count, class_of)


def coincidence_check(game: ParityGame, notion: str) -> bool:
    """Game-based relation equals the coinductive/fixpoint relation."""
    from . import relations

    if notion == "direct":
        return direct_sim_via_game(game).rows == relations.direct_sim(game).rows
    if notion == "governed_bisim":
        return (
            governed_bisim_via_game(game).rows
            == relations.governed_bisim(game).as_relation().rows
        )
    if notion == "gstut":
        return gstut_via_game(game) == gstut_bisim(game)
    if notion in ("delayed", "delayed_even", "delayed_odd"):
        bias = {"delayed": "none", "delayed_even": "even", "delayed_odd": "odd"}[notion]
        return delayed_sim(game, bias).rows == delayed_sim_fixpoint(game, bias).rows
    raise ValueError(f"unknown notion {notion!r}")
