"""The three benchmark workloads: corpus, expected answers and one verdict each.

A verdict starts from PGSolver bytes and ends with every answer checked.
All library calls go through the module objects passed in as ``mods`` and
are looked up at call time, so that the tracer's wrappers see them.  The
ground truth comes from the construction of each game, never from the call
being timed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import corpus
from corpus import EQUIVALENCES, STUTTER_INVARIANT

# The CLI's table from equivalence name to quotient builder.
QUOTIENT_FN = {
    "strong-bisim": "quotient_strong_bisim",
    "governed-bisim": "quotient_governed_bisim",
    "stut": "quotient_stut",
    "gstut": "quotient_gstut",
    "direct-sim": "quotient_direct_sim",
}


@dataclass
class Item:
    """One verdict of a pass: a game as bytes, what to do with it, and the known answer."""

    family: str
    task: str
    blob: bytes
    answer: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """A verdict's result; the vertex counts feed ``quotient_frac``."""

    ok: bool
    original_vertices: int = 0
    quotient_vertices: int = 0


def _relabelled(game: corpus.Game, rng: random.Random) -> tuple[corpus.Game, list[int]]:
    perm = corpus.shuffled(game.n, rng)
    return corpus.relabel(game, perm), perm


def _parse_class_map(data: bytes) -> list[int]:
    out = []
    for v, line in enumerate(data.decode("ascii").splitlines()):
        vid, cls = line.split()
        if int(vid) != v:
            raise ValueError(f"class map line {v} names vertex {vid}")
        out.append(int(cls))
    return out


def _is_trap(game, region: frozenset, loser: int) -> bool:
    """No vertex of ``region`` lets ``loser`` leave it: the winner keeps one successor inside, the loser has none outside."""
    for v in region:
        inside = [u in region for u in game.successors[v]]
        if int(game.owners[v]) == loser:
            if not all(inside):
                return False
        elif not any(inside):
            return False
    return True


class Workload:
    """A named corpus builder and the verdict run on each of its items."""

    name: str
    why: str

    def build(self, mods, seed: int) -> list[Item]:
        raise NotImplementedError

    def expect(self, mods, items: list[Item]) -> None:
        """Fill in the answers that need the library; runs once per run, untimed."""

    def verdict(self, mods, item: Item) -> Outcome:
        raise NotImplementedError


# --- reduce-inflated --------------------------------------------------------


class ReduceInflated(Workload):
    name = "reduce-inflated"
    why = (
        "Inflated random cores and ladders that really reduce, with classes known by "
        "construction: relations, forcing and quotient do the work, the solver little."
    )
    # The cores are fixed random games; the seed places the duplicates and
    # chains, picks each ladder's owner and renames every game's vertices.
    CORE_SIZES = tuple(range(40, 58))
    CORE_SEED = 2_000
    LADDER_RUNGS = (16, 32, 48, 64)
    MAX_PRIORITY = 6

    def build(self, mods, seed: int) -> list[Item]:
        random_game = mods["game"].random_game
        rng = random.Random(seed)
        items = []
        for i, n in enumerate(self.CORE_SIZES):
            core = corpus.from_library(random_game(n, self.MAX_PRIORITY, (1, 3), self.CORE_SEED + i))
            core_blob = corpus.to_pgsolver(core)
            for family, duplicates, chains in (("inflated-stutter", n // 2, n // 4), ("inflated-dup", n, 0)):
                inflated = corpus.inflate(core, duplicates, chains, rng)
                game, perm = _relabelled(inflated.game, rng)
                origin = [0] * game.n
                for v, o in enumerate(inflated.origin):
                    origin[perm[v]] = perm[o]
                blob = corpus.to_pgsolver(game)
                for eq in EQUIVALENCES:
                    if (eq in STUTTER_INVARIANT) == (family == "inflated-stutter"):
                        items.append(Item(family, eq, blob, {"origin": origin, "core": core_blob}))
        for k in self.LADDER_RUNGS:
            owner = rng.randint(0, 1)
            game, _ = _relabelled(corpus.ladder(k, owner), rng)
            blob = corpus.to_pgsolver(game)
            for eq in EQUIVALENCES:
                items.append(Item("ladder", eq, blob, {"owner": owner, "prio": game.prio}))
        rng.shuffle(items)
        return items

    def expect(self, mods, items: list[Item]) -> None:
        """Class count of each core under each equivalence; an inflated game must match it."""
        rel = mods["relations"]
        count = {
            "strong-bisim": lambda g: rel.strong_bisim(g).class_count,
            "governed-bisim": lambda g: rel.governed_bisim(g).class_count,
            "stut": lambda g: rel.stut_bisim(g).class_count,
            "gstut": lambda g: rel.gstut_bisim(g).class_count,
            "direct-sim": lambda g: rel.equivalence_from_preorder(rel.direct_sim(g)).class_count,
        }
        for item in items:
            if item.family == "ladder":
                item.answer["classes"] = 2
            else:
                core = mods["game"].parse_pgsolver(item.answer["core"])
                item.answer["classes"] = count[item.task](core)

    def verdict(self, mods, item: Item) -> Outcome:
        game_mod, quotient = mods["game"], mods["quotient"]
        game = game_mod.parse_pgsolver(item.blob)
        result = getattr(quotient, QUOTIENT_FN[item.task])(game)
        game_mod.serialize_pgsolver(result.quotient)
        class_map = _parse_class_map(quotient.serialize_class_map(result))
        ok = quotient.verify_preservation(game, result)
        ok = quotient.quotient_equivalent(game, result) and ok
        q = result.quotient.vertex_count
        ok = ok and q == item.answer["classes"]
        if item.family == "ladder":
            by_prio = {p: class_map[item.answer["prio"].index(p)] for p in (1, 2)}
            ok = ok and all(class_map[v] == by_prio[p] for v, p in enumerate(item.answer["prio"]))
            # Both quotient vertices are won by the ladder's owner; with
            # preserved winners so is every original vertex.
            regions = mods["solver"].solve_zielonka(result.quotient)
            ok = ok and all(int(regions.winner(c)) == item.answer["owner"] for c in range(q))
        else:
            origin = item.answer["origin"]
            ok = ok and all(class_map[v] == class_map[origin[v]] for v in range(game.vertex_count))
        return Outcome(ok, game.vertex_count, q)


# --- solve-deep -------------------------------------------------------------


class SolveDeep(Workload):
    name = "solve-deep"
    why = (
        "Games that do not reduce and drive Zielonka's recursion deep: the solver does "
        "nearly all the work and relations are never called."
    )
    # Fixed random games, renamed by the seed: Zielonka's time varies twenty-fold
    # between random games of one size, so games drawn afresh per seed would
    # move the quantiles between seeds by more than any bound worth keeping.
    RANDOM_SIZES = (100, 125, 150, 175, 200, 225, 250, 275) * 15
    RANDOM_SEED = 1_000
    CHAIN_SIZES = tuple(range(40, 160, 10))

    def build(self, mods, seed: int) -> list[Item]:
        random_game = mods["game"].random_game
        rng = random.Random(seed)
        items = []
        for i, n in enumerate(self.RANDOM_SIZES):
            game, _ = _relabelled(corpus.from_library(random_game(n, n, (1, 2), self.RANDOM_SEED + i)), rng)
            items.append(Item("random", "solve", corpus.to_pgsolver(game)))
        for n in self.CHAIN_SIZES:
            game, perm = _relabelled(corpus.chain_loop(n), rng)
            winners = [0] * n
            for v in range(n):
                winners[perm[v]] = corpus.chain_loop_winner(v)
            items.append(Item("chain-loop", "solve", corpus.to_pgsolver(game), {"winners": winners}))
        rng.shuffle(items)
        return items

    def verdict(self, mods, item: Item) -> Outcome:
        game = mods["game"].parse_pgsolver(item.blob)
        regions = mods["solver"].solve_zielonka(game)
        even, odd = regions.won_by_even, regions.won_by_odd
        n = game.vertex_count
        ok = not (even & odd) and len(even) + len(odd) == n and all(0 <= v < n for v in even | odd)
        ok = ok and _is_trap(game, even, loser=1) and _is_trap(game, odd, loser=0)
        if "winners" in item.answer:
            ok = ok and all(int(regions.winner(v)) == w for v, w in enumerate(item.answer["winners"]))
        return Outcome(ok)


# --- crosscheck -------------------------------------------------------------


class Crosscheck(Workload):
    name = "crosscheck"
    why = (
        "The paper's two-route check: many tiny lattice checks (per-call cost) plus a "
        "mid-size tail through every coincidence and rank check (kernel cost)."
    )
    # The acceptance suite's 200 games (sizes cycle through 3..8, priorities
    # <= 3, out-degree <= 3, seeds 0..199) and a fixed mid-size tail; the seed
    # renames the vertices of each game.
    SMALL_GAMES = 200
    MID_SIZES = (12, 14, 16, 18, 20, 22)
    MID_SEED = 500
    NOTIONS = ("direct", "governed_bisim", "gstut", "delayed", "delayed_even", "delayed_odd")
    BIASES = ("none", "even", "odd")

    def build(self, mods, seed: int) -> list[Item]:
        random_game = mods["game"].random_game
        rng = random.Random(seed)
        small = []
        for i in range(self.SMALL_GAMES):
            n = 3 + i % 6
            game, _ = _relabelled(corpus.from_library(random_game(n, 3, (1, min(3, n)), i)), rng)
            small.append(Item("small", "lattice", corpus.to_pgsolver(game)))
        tail = []
        for i, n in enumerate(self.MID_SIZES):
            game, _ = _relabelled(corpus.from_library(random_game(n, 3, (1, 3), self.MID_SEED + i)), rng)
            blob = corpus.to_pgsolver(game)
            tail += [Item("mid", notion, blob) for notion in self.NOTIONS]
            tail += [Item("mid", f"rank-{bias}", blob) for bias in self.BIASES]
        items = small + tail
        rng.shuffle(items)
        return items

    def verdict(self, mods, item: Item) -> Outcome:
        game = mods["game"].parse_pgsolver(item.blob)
        simgames = mods["simgames"]
        if item.task == "lattice":
            results = mods["lattice"].check_lattice(game)
            ok = len(results) > 0 and all(r.passed for r in results)
        elif item.task.startswith("rank-"):
            ok = simgames.wf_rank_check(game, item.task[len("rank-"):])
        else:
            ok = simgames.coincidence_check(game, item.task)
        return Outcome(ok is True)


WORKLOADS = {w.name: w for w in (ReduceInflated(), SolveDeep(), Crosscheck())}
