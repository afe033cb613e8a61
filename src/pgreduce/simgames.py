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
and the left side moves first exactly when it is even-owned.  The direct,
governed and delayed arenas keep an intermediate position, Duplicator's,
for the second half move of the (even, even) and (odd, odd) rounds, where
the mover changes, unless it has a single answer.  In an (even, odd)
round Spoiler makes both half moves and in an (odd, even) round
Duplicator does, so the configuration moves straight to the next
configurations, each listed once: Spoiler's with the left successor outer
and the right one inner, Duplicator's with the right successor outer and
the left one inner.  The folded half move is non-accepting and its owner
makes both choices at once, so every play visits the same accepting
positions in the same order and every position keeps its Buchi winner.
An (even, even) round whose right vertex has one successor, or an (odd,
odd) one whose left vertex has one, is folded the same way: Duplicator's
half move has a single answer, so the configuration moves straight to the
configurations that Spoiler's moves reach with it, in Spoiler's move
order.  The governed stuttering round ends with Duplicator picking whether
both moves stand or one side rolls back, and its arena plays the round as
one Spoiler position, the configuration, and one Duplicator position,
which follows all of Spoiler's moves from (a, b), the pair in Spoiler's
orientation:

    Spoiler moves on   Duplicator position   its picks (t0, t1)
    a only             half move to t        (t, u), u a successor of b
    b only             half move to t        (u, t), u a successor of a
    both               pick (t0, t1)         that pick
    neither            orientation           every successor pair

Each pick stands for the three configurations it can choose, and each is
listed once.  This is the arena with a position per orientation, half move
and pick, after merging each position into the one that moves to it when
it is non-accepting, has that position as its only predecessor and the same
owner: that owner then makes both choices at once, so every play visits the
same configurations in the same order and every start keeps its Buchi
winner.  A Duplicator position then keeps only what its answers read: (a,
b), Spoiler's moves and the challenge that rolling back each side leaves,
which is the same for all its picks.  Rounds that differ only in a pending
challenge or a swap that no rollback reads share one position, which is
non-accepting with the same moves, so no winner changes.  The encodings are
validated against the coinductive fixpoints by ``coincidence_check``, which
reads each notion's pair of routes from ``COINCIDENCES``.

Positions are numbered in the order a breadth-first expansion discovers
them.  A position is its integer id, computed from its fields and kept in
``Arena.ids``.  One builder, ``_half_move_arena``, makes the direct,
governed and delayed arenas: configuration (v, w, k) has id ``t = (v * n +
w) * K + k``, where obligation 0 is ✓, i ≥ 1 the i-th smallest priority and
``K`` counts the obligations (1 in the direct and governed games); the
governed game's oriented copy ``n²K + t``, the half move after t ``2n²K +
2t + side``, the sink ``4n²K``.  A list maps these ids to positions; the
stuttering game's Duplicator positions, whose id space holds n²(2n + 2)²(n
+ 1)² ids, use an int-keyed dict.  Each builder decodes a position's id in
one place, its ``expand`` function, which gives the position's owner, its
acceptance and the ids of its moves; ``_explore`` calls it once per
position and records the predecessor lists as it appends the moves, so the
Buchi solver never derives them again.  Round order comes from a
per-vertex owner table and the obligation update from one table per
priority set and bias (``_gamma_table``, cached), which the delayed
fixpoint shares.

``delayed_sim_fixpoint`` computes delayed simulation without an arena, so
it cross-checks the arena route.  It evaluates only the triples that the
query triples reach, the same set as the arena's configurations, and its
greatest fixpoint carries the stages of each least fixpoint into the next
round instead of recomputing them.  It evaluates a triple's transfer on a
per-pair table (``_transfer_groups``): the successor pairs, grouped by the
owners, each with its triple base and its row in the γ table.  No bias
changes that table or the triple bases of each pair's predecessor pairs,
so both are built once per game object and kept on it, like its
predecessor lists; ``wf_rank_check`` reads the same table.
"""
from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Callable

from . import relations
from .game import ParityGame, Player, reward_leq
from .relations import Partition, equivalence_from_preorder, gstut_bisim
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
    "COINCIDENCES",
    "coincidence_check",
]

# Obligation/challenge sentinels: "no pending obligation" and "matched by
# staying put".  Distinct from every natural number and from each other.
CHECK = "✓"
DAGGER = "†"

Obligation = int | str
_SPOILER = ArenaPlayer.SPOILER
_DUPLICATOR = ArenaPlayer.DUPLICATOR


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


# The (priority set, bias) entries whose γ tables stay cached, in all.
_GAMMA_TABLES = 64


@lru_cache(maxsize=_GAMMA_TABLES)
def _gamma_table(levels: tuple[int, ...], bias: str) -> tuple[int, ...]:
    """The obligation update on obligation indices, built once per priority set.

    With ``P = len(levels)`` and ``K = P + 1`` obligations (0 is ✓, i ≥ 1
    is ``levels[i - 1]``), entry ``(i * P + j) * K + k`` is the index of
    ``update(levels[i], levels[j], obligation k)``.
    """
    update = _updater(bias)
    obligations = [CHECK, *levels]
    where = {k: i for i, k in enumerate(obligations)}
    return tuple(where[update(pv, pw, k)] for pv in levels for pw in levels for k in obligations)


def _obligations(game: ParityGame, bias: str) -> tuple[int, tuple[int, ...], list[int]]:
    """Number of obligations ``K``, the γ table and each vertex pair's row in it.

    The update of obligation k on entering the pair ``j = v * n + w`` is
    ``table[row[j] + k]``.
    """
    levels = tuple(sorted(set(game.priorities)))
    level = {p: i for i, p in enumerate(levels)}
    kk = len(levels) + 1
    lv = [level[p] * len(levels) for p in game.priorities]
    row = [(lv[v] + level[pw]) * kk for v in game.vertices for pw in game.priorities]
    return kk, _gamma_table(levels, bias), row


# The most arena ids a builder may list: ``_explore`` allocates a list slot
# per listed id before it explores anything.  The stuttering arena lists
# n²(2n + 2) + 1 ids, which pass this at 369 vertices.
ARENA_ID_LIMIT = 10**8


def _check_listed(game: ParityGame, ids: int) -> None:
    if ids > ARENA_ID_LIMIT:
        n = game.vertex_count
        raise ValueError(f"arena of a {n}-vertex game lists {ids} ids, above the limit of {ARENA_ID_LIMIT}")


def _even_owned(game: ParityGame) -> list[bool]:
    """Per vertex, whether Even owns it: the move table reads nothing else."""
    return [o is Player.EVEN for o in game.owners]


def _explore(
    listed: int, starts: list[int], expand: Callable[[int], tuple[ArenaPlayer, bool, list[int]]]
) -> Arena:
    """A breadth-first arena over integer position ids.

    Positions are numbered in discovery order, from the ids in ``starts``
    on; ``expand(id)`` gives a position's owner, whether it is accepting
    and the ids of its moves, and is called once per position.  Ids below
    ``listed`` are found through a list, the rest through a dict.  Returns
    the arena with every field filled in, and with the predecessor lists
    recorded as each move is appended, in the order ``_arena_preds`` gives.
    """
    pos_of = [-1] * listed
    far: dict[int, int] = {}
    ids = list(dict.fromkeys(starts))
    for pos, key in enumerate(ids):
        if key < listed:
            pos_of[key] = pos
        else:
            far[key] = pos
    start = [pos_of[key] if key < listed else far[key] for key in starts]
    # The start row is no position's moves: the starts have no predecessors.
    preds: list[list[int]] = [[] for _ in ids]
    rows: list[list[int]] = []
    owners: list[ArenaPlayer] = []
    accepting: set[int] = set()
    ids_append, preds_append, rows_append, owners_append = ids.append, preds.append, rows.append, owners.append
    src = 0
    count = len(ids)
    while src < count:
        owner, accept, keys = expand(ids[src])
        owners_append(owner)
        if accept:
            accepting.add(src)
        row = []
        for key in keys:
            # A new position is born with its first predecessor.
            if key < listed:
                pos = pos_of[key]
                if pos < 0:
                    pos = pos_of[key] = count
                    count += 1
                    ids_append(key)
                    preds_append([src])
                else:
                    preds[pos].append(src)
            else:
                pos = far.get(key, -1)
                if pos < 0:
                    pos = far[key] = count
                    count += 1
                    ids_append(key)
                    preds_append([src])
                else:
                    preds[pos].append(src)
            row.append(pos)
        rows_append(row)
        src += 1
    arena = Arena(owners=owners, edges=rows, accepting=accepting, ids=ids, start=start)
    arena.predecessors = preds
    return arena


def _half_move_arena(
    game: ParityGame, kk: int, table: tuple[int, ...], row: list[int], base: list[int], swap: bool
) -> Arena:
    """Arena of a pair game whose round follows the module docstring's move table.

    Ids: configuration ``t = j * K + k``, for the pair ``j = v * n + w`` and
    obligation k, accepting when k is 0 (✓); with ``swap``, Spoiler owns
    every configuration and picks which side plays the left role, and the
    oriented copy ``n²K + t``, not accepting, plays the round; the half move
    after t ``2n²K + 2t + side``, where Duplicator answers on w (side 1) or
    on v (side 0), listed only when that vertex has two successors or more;
    the sink ``4n²K``, which loses.  A round from obligation k that enters
    the pair x reaches ``base[x] + table[row[x] + k]``: ``base[x]`` is ``x
    * K``, or the sink where the table reads 0.  The callers check the id
    space before they build the tables.
    """
    n, succ = game.vertex_count, game.successors
    even = _even_owned(game)
    cfgs = n * n * kk
    half, sink = 2 * cfgs, 4 * cfgs
    # Only the sink can repeat in a row: distinct pairs reach distinct configurations.
    dedupe = sink in base

    def expand(key: int) -> tuple[ArenaPlayer, bool, list[int]]:
        if key < half:
            if key < cfgs:
                j, k = divmod(key, kk)
                if swap:
                    return _SPOILER, k == 0, [cfgs + key, cfgs + ((j % n) * n + j // n) * kk + k]
                accept = k == 0
            else:
                j, k = divmod(key - cfgs, kk)
                accept = False
            a, b = divmod(j, n)
            sa, sb = succ[a], succ[b]
            if even[a]:
                if even[b] and len(sb) > 1:
                    return _SPOILER, accept, [half + 2 * ((t * n + b) * kk + k) + 1 for t in sa]
                # Spoiler moves on both sides, or on a before Duplicator's one answer on b.
                owner = _SPOILER
                moves = [base[x := t * n + u] + table[row[x] + k] for t in sa for u in sb]
            elif not even[b] and len(sa) > 1:
                return _SPOILER, accept, [half + 2 * ((a * n + t) * kk + k) for t in sb]
            else:
                # Duplicator moves on both sides, or Spoiler on b before Duplicator's one answer on a.
                owner = _DUPLICATOR if even[b] else _SPOILER
                moves = [base[x := u * n + t] + table[row[x] + k] for t in sb for u in sa]
        elif key < sink:
            # ``half`` is even, so the key's last bit is the side.
            j, k = divmod((key - half) >> 1, kk)
            a, b = divmod(j, n)
            owner, accept = _DUPLICATOR, False
            if key & 1:
                moves = [base[x := a * n + u] + table[row[x] + k] for u in succ[b]]
            else:
                moves = [base[x := u * n + b] + table[row[x] + k] for u in succ[a]]
        else:
            return _DUPLICATOR, False, [sink]
        return owner, accept, list(dict.fromkeys(moves)) if dedupe else moves

    return _explore(sink + 1, [base[j] + table[row[j]] for j in range(n * n)], expand)


def _simulation_arena(game: ParityGame, swap: bool) -> Arena:
    """Direct simulation arena over all vertex pairs, with one obligation, ✓.

    Configurations with unequal priorities collapse into one losing sink;
    the others are accepting, so Duplicator wins exactly the safety
    condition of matching priorities forever.
    """
    n = game.vertex_count
    sink = 4 * n * n
    _check_listed(game, sink + 1)
    prio = game.priorities
    base = [v * n + w if pv == pw else sink for v, pv in enumerate(prio) for w, pw in enumerate(prio)]
    return _half_move_arena(game, 1, (0,), [0] * (n * n), base, swap)


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
    n = game.vertex_count
    # The half-move arena's ids, counted before the γ table is built.
    _check_listed(game, 4 * n * n * (len(set(game.priorities)) + 1) + 1)
    kk, table, row = _obligations(game, bias)
    return _half_move_arena(game, kk, table, row, [j * kk for j in range(n * n)], swap=False)


def _issued(c: int, cprime: int, same_vertex: bool) -> int:
    """Challenge left by rolling back a Spoiler move, on challenge indices.

    Rolling back a Spoiler move on an unswapped side issues (or keeps) the
    challenge ``cprime``; Duplicator is rewarded (✓, index 0) when Spoiler
    swapped sides or dropped a pending challenge ``c``, one other than ✓
    (0), † (1) and ``cprime``.
    """
    return cprime if same_vertex and (c < 2 or c == cprime) else 0


def build_gstut_arena(game: ParityGame) -> Arena:
    """Arena of the governed stuttering bisimulation game.

    A round from ((v, w), c): Spoiler picks an orientation, the usual two
    half moves follow, then Duplicator picks the next configuration from
    accepting both moves (reward ✓) or rolling back either side (challenge
    update).  Accepting positions are configurations with reward ✓.  The
    round is played as one Spoiler choice, from the configuration, and one
    Duplicator choice, after the module docstring's table: the orientation,
    the half moves and the picks are non-accepting, each has exactly one
    predecessor, and each is merged into it when both have the same owner,
    so the winner of every configuration stays that of the arena with a
    position for each of them.

    Challenges are indexed: 0 is ✓, 1 is †, ``2 + t`` is (0, t) and
    ``2 + n + t`` is (1, t), so ``C = 2n + 2``.  Ids: configuration ``(v *
    n + w) * C + c`` and the sink ``n²C``, listed; a Duplicator position
    ``M + (((j * C + l) * C + r) * (n + 1) + s0) * (n + 1) + s1`` in a dict,
    with ``M = n²C + 1``.  It holds only what its answers read: the pair
    ``j = a * n + b`` the round started from in its orientation, Spoiler's
    move ``s0`` on a and ``s1`` on b (``n`` where Duplicator moves), and
    the challenges ``l`` and ``r`` that rolling back a and b leave, which
    are the same for all its picks.  So rounds that differ only in the
    challenge or the swap their rollbacks never read share one Duplicator
    position; it is non-accepting with the same moves, so it has the same
    Buchi winner.  Swapping a pair with itself repeats the unswapped
    orientation, so a configuration (v, v) lists only that one.
    """
    n = game.vertex_count
    cc = 2 * n + 2
    sink = n * n * cc
    dups = sink + 1
    _check_listed(game, dups)
    m = n + 1
    prio, succ = game.priorities, game.successors
    even = _even_owned(game)
    # base[j]: the id of the configuration (j, ✓), or the sink.
    base = [j * cc if prio[j // n] == prio[j % n] else sink for j in range(n * n)]

    def duplicator(head: int, l: int, r: int, s0: int, s1: int) -> int:
        return dups + ((head + l) * cc + r) * m * m + s0 * m + s1

    def spoiler_moves(a: int, b: int, c: int, same: bool) -> list[int]:
        # The Duplicator positions that Spoiler's moves from (a, b) reach in
        # one orientation.  Rolling back a Duplicator move leaves a dagger,
        # or ✓ after a swap.
        head = (a * n + b) * cc
        dagger = 1 if same else 0
        if even[a]:
            if even[b]:
                return [duplicator(head, _issued(c, 2 + t, same), dagger, t, n) for t in succ[a]]
            rights = [(_issued(c, 2 + n + u, same), u) for u in succ[b]]
            return [duplicator(head, _issued(c, 2 + t, same), r, t, u) for t in succ[a] for r, u in rights]
        if even[b]:
            return [duplicator(head, dagger, dagger, n, n)]
        return [duplicator(head, dagger, _issued(c, 2 + n + t, same), n, t) for t in succ[b]]

    def answers(key: int) -> list[int]:
        # The three configurations of each pick (t0, t1), each listed once:
        # both moves stand, a rolls back with l, or b rolls back with r.
        rest, s1 = divmod(key - dups, m)
        rest, s0 = divmod(rest, m)
        rest, r = divmod(rest, cc)
        j, l = divmod(rest, cc)
        a, b = divmod(j, n)
        lefts = succ[a] if s0 == n else (s0,)
        out = []
        for t1 in succ[b] if s1 == n else (s1,):
            back_a = base[a * n + t1]
            if back_a != sink:
                back_a += l
            for t0 in lefts:
                back_b = base[t0 * n + b]
                out += (base[t0 * n + t1], back_a, back_b if back_b == sink else back_b + r)
        return list(dict.fromkeys(out))

    def expand(key: int) -> tuple[ArenaPlayer, bool, list[int]]:
        if key < sink:
            j, c = divmod(key, cc)
            v, w = divmod(j, n)
            moves = spoiler_moves(v, w, c, True)
            if v != w:
                moves += spoiler_moves(w, v, c, False)
            return _SPOILER, c == 0, moves
        if key == sink:
            return _DUPLICATOR, False, [sink]
        return _DUPLICATOR, False, answers(key)

    return _explore(dups, base, expand)


def _pair_relation_from_arena(game: ParityGame, arena: Arena) -> tuple[int, ...]:
    """Rows of the pairs whose start position Duplicator wins."""
    won = solve_buchi(arena)
    n = game.vertex_count
    rows = [0] * n
    for j, pos in enumerate(arena.start):
        if pos in won:
            rows[j // n] |= 1 << (j % n)
    return tuple(rows)


def _equivalence_from_arena(game: ParityGame, arena: Arena, name: str) -> Partition:
    """Partition of a bisimulation game's winning pairs.

    The winning set is guaranteed to be an equivalence, so its kernel must
    equal it; anything else signals an arena encoding bug and raises.
    """
    rows = _pair_relation_from_arena(game, arena)
    try:
        part = equivalence_from_preorder(rows)
    except ValueError as exc:
        raise RuntimeError(f"{name} game winning set is not an equivalence: {exc}") from exc
    if part.as_relation() != rows:
        raise RuntimeError(f"{name} game winning set is not an equivalence: relation not symmetric")
    return part


def direct_sim_via_game(game: ParityGame) -> tuple[int, ...]:
    """Pairs from which Duplicator wins the direct simulation game."""
    return _pair_relation_from_arena(game, build_direct_sim_arena(game))


def governed_bisim_via_game(game: ParityGame) -> Partition:
    """Partition of the governed bisimulation game's winning pairs, symmetric by the swap move."""
    return _equivalence_from_arena(game, build_governed_bisim_arena(game), "governed bisimulation")


def delayed_sim(game: ParityGame, bias: str = "none") -> tuple[int, ...]:
    """Delayed simulation preorder: Duplicator wins from (v, w, γ(v, w, ✓))."""
    return _pair_relation_from_arena(game, build_delayed_sim_arena(game, bias))


def _transfer_groups(game: ParityGame, kk: int, prow: list[int]) -> list[list[list[tuple[int, int]]]]:
    """Each vertex pair's transfer condition, as ``all(any(...))`` over groups.

    Entry ``j = v * n + w`` lists groups of successor pairs ``j'``, each
    given by its triple base ``j' * K`` and its row in the γ table: one
    round of the delayed simulation game from (v, w, k) can be answered
    when every group has a pair whose configuration ``j' * K + table[row +
    k]`` is related.  The owners fix the grouping, after the move table of
    the module docstring: one group per left successor when both are
    even-owned (Duplicator answers each of Spoiler's moves on v), one per
    successor pair when only v is (Spoiler moves on both sides), a single
    group when only w is (Duplicator moves on both sides), and one group
    per right successor when both are odd-owned.
    """
    n = game.vertex_count
    succ = game.successors
    even = _even_owned(game)
    cell = [(j * kk, prow[j]) for j in range(n * n)]
    out = []
    for v in game.vertices:
        sv = succ[v]
        for w in game.vertices:
            sw = succ[w]
            if even[v]:
                if even[w]:
                    groups = [[cell[a * n + b] for b in sw] for a in sv]
                else:
                    groups = [[cell[a * n + b]] for a in sv for b in sw]
            elif even[w]:
                groups = [[cell[a * n + b] for b in sw for a in sv]]
            else:
                groups = [[cell[a * n + b] for a in sv] for b in sw]
            out.append(groups)
    return out


def _per_game(game: ParityGame, name: str, build: Callable[[], list]) -> list:
    """``build()``, kept on ``game`` under ``name`` the first time, as
    ``ParityGame.predecessors`` keeps its lists.  Only for tables that no
    bias changes: ``K`` and the pairs' γ-table rows do not depend on it."""
    cached = getattr(game, name, None)
    if cached is None:
        cached = build()
        object.__setattr__(game, name, cached)
    return cached


def delayed_sim_fixpoint(game: ParityGame, bias: str = "none") -> tuple[int, ...]:
    """Delayed simulation computed directly on obligation triples.

    Double fixpoint over the triples ``t = (v * n + w) * K + k``: the outer
    greatest fixpoint ``y`` keeps the triples Duplicator can sustain
    forever, the inner least fixpoint ``x`` demands finite progress towards
    a ✓ obligation, exactly the well-founded formulation of the transfer
    condition.  Transfers read ``y`` at ✓ and ``x`` elsewhere, through
    per-pair tables (``_transfer_groups``) built once per game and kept on
    it with the readers' triple bases, so the three biases share them.
    Only the set R of triples reachable from the query triples ``(v, w,
    γ(v, w, ✓))`` through these reads is evaluated; R is found from the
    same tables first, and it is closed under reads, so the nested fixpoint
    on R equals the full one there.
    The readers of a triple (v, w, k) are the triples (a, b, kk) with
    a ∈ pred(v), b ∈ pred(w) and update(p(v), p(w), kk) = k; the pairs
    (a, b) are listed once per pair (v, w).

    Invariants:

    * ``y`` starts as R and ``x`` as the empty set, and the first worklist
      holds R in ascending order;
    * every triple records the order in which it joined ``x``, and its
      transfer holds against the ✓-triples of ``y`` and the triples that
      joined before it;
    * a round evaluates only triples in ``y`` (``x`` is monotone in ``y``,
      so ``x ⊆ y``), and a triple other than ✓ that joins ``x`` re-queues
      its readers; a ✓-triple wakes nobody;
    * round r + 1 has ``y = x_r`` and starts from ``x_r`` in join order.
      Only the readers of the ✓-triples that left ``y`` are re-checked,
      against the triples before them that survived.  A failed re-check
      removes the triple and, unless it is a ✓-triple, marks its readers
      for re-checking in turn.  The worklist then climbs from the
      survivors, starting with the removed triples;
    * the fixpoint is reached when no ✓-triple leaves ``y``.

    No arena, Buchi solver or attractor enters this route, so it checks the
    arena encoding of ``delayed_sim`` independently.
    """
    n = game.vertex_count
    kk, table, prow = _obligations(game, bias)
    total = n * n * kk
    preds = game.predecessors()
    # sources[table row + k]: the obligations whose update lands on k.
    sources: list[list[int]] = [[] for _ in table]
    for r in range(0, len(table), kk):
        for k in range(kk):
            sources[r + table[r + k]].append(k)
    transfer = _per_game(game, "_delayed_transfer", lambda: _transfer_groups(game, kk, prow))
    # The triple bases of the predecessor pairs of each pair.
    pred_bases = _per_game(
        game,
        "_delayed_pred_bases",
        lambda: [[(a * n + b) * kk for a in pv for b in pw] for pv in preds for pw in preds],
    )

    def holds(t: int) -> bool:
        j, k = divmod(t, kk)
        for group in transfer[j]:
            for base, row in group:
                kp = table[row + k]
                if (x if kp else y)[base + kp]:
                    break
            else:
                return False
        return True

    def mark_readers(t: int, flags: bytearray) -> None:
        j, k = divmod(t, kk)
        bases = pred_bases[j]
        for s in sources[prow[j] + k]:
            for base in bases:
                flags[base + s] = 1

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
            j, k = divmod(t, kk)
            if k:
                bases = pred_bases[j]
                for s in sources[prow[j] + k]:
                    for base in bases:
                        r = base + s
                        if y[r] and not x[r] and not queued[r]:
                            queued[r] = 1
                            work.append(r)

    # y starts as R, collected breadth-first from the query triples.
    y = bytearray(total)
    reach = [j * kk + table[prow[j]] for j in range(n * n)]
    for t in reach:
        y[t] = 1
    for t in reach:  # also visits the triples appended below
        j, k = divmod(t, kk)
        for group in transfer[j]:
            for base, row in group:
                r = base + table[row + k]
                if not y[r]:
                    y[r] = 1
                    reach.append(r)
    x = bytearray(total)
    order: list[int] = []
    climb(sorted(reach))
    while True:
        left = [t for t in range(0, total, kk) if y[t] and not x[t]]
        if not left:
            break
        dirty = bytearray(total)
        for t in left:
            mark_readers(t, dirty)
        y, x = x, bytearray(total)
        joined, order = order, []
        removed = []
        for t in joined:
            if dirty[t] and not holds(t):
                removed.append(t)
                if t % kk:
                    mark_readers(t, dirty)
            else:
                x[t] = 1
                order.append(t)
        climb(removed)
    rows = [0] * n
    for j in range(n * n):
        if x[j * kk + table[prow[j]]]:
            rows[j // n] |= 1 << (j % n)
    return tuple(rows)


def wf_rank_check(game: ParityGame, bias: str = "none") -> bool:
    """Validate the progress ranks extracted from the solved delayed arena.

    The Buchi layering of the won configurations must witness the
    well-founded formulation: every transfer step from a configuration with
    a pending obligation moves to related configurations of strictly
    smaller rank until a ✓ is reached.
    """
    n = game.vertex_count
    kk, table, prow = _obligations(game, bias)
    total = n * n * kk
    arena = build_delayed_sim_arena(game, bias)
    ranks = buchi_rank(arena)
    # A configuration's id is its triple (v * n + w) * K + k.
    rank = [-1] * total
    ids = arena.ids
    for pos, r in ranks.items():
        t = ids[pos]
        if t < total:
            rank[t] = r

    transfer = _per_game(game, "_delayed_transfer", lambda: _transfer_groups(game, kk, prow))
    for t, r in enumerate(rank):
        if r < 0:
            continue
        j, k = divmod(t, kk)
        for group in transfer[j]:
            for base, row in group:
                s = rank[base + table[row + k]]
                if s >= 0 and (k == 0 or s < r):
                    break
            else:
                return False
    return True


def gstut_via_game(game: ParityGame) -> Partition:
    """Partition of the governed stuttering game's winning pairs."""
    return _equivalence_from_arena(game, build_gstut_arena(game), "stuttering")


# The delayed coincidence notions and the bias of each.
DELAYED_BIAS = {"delayed": "none", "delayed_even": "even", "delayed_odd": "odd"}


def _delayed_routes(bias: str) -> tuple[Callable, Callable]:
    return lambda g: delayed_sim(g, bias), lambda g: delayed_sim_fixpoint(g, bias)


# Each notion's (game route, fixpoint route), whose results the paper proves
# equal: preorder rows, or partitions for the bisimilarities.  Routes look
# this module's and ``relations``'s names up when called, so a wrapper bound
# over one sees it.
COINCIDENCES: dict[str, tuple[Callable, Callable]] = {
    "direct": (lambda g: direct_sim_via_game(g), lambda g: relations.direct_sim(g)),
    "governed_bisim": (lambda g: governed_bisim_via_game(g), lambda g: relations.governed_bisim(g)),
    "gstut": (lambda g: gstut_via_game(g), lambda g: gstut_bisim(g)),
    **{notion: _delayed_routes(bias) for notion, bias in DELAYED_BIAS.items()},
}


def coincidence_check(game: ParityGame, notion: str) -> bool:
    """Game-based relation equals the coinductive/fixpoint relation."""
    if notion not in COINCIDENCES:
        raise ValueError(f"unknown notion {notion!r}")
    game_route, fixpoint_route = COINCIDENCES[notion]
    return game_route(game) == fixpoint_route(game)
