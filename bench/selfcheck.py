"""Self-tests of the benchmark itself.

    python3 bench/selfcheck.py

1. On games of at most 8 vertices the generators' claimed winners agree
   with the brute-force ``oracle_winner`` of ``tests/oracles.py`` (read
   only; it needs networkx).  This covers the ladder and the chain-loop,
   relabelled, and inflation, whose vertices must share the winner of
   their origin in the core.
2. The same seed gives the same corpus digest; another seed another one.
3. Two traced runs of each workload report identical counters.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from run import import_library  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTERS = (
    "forcing.attractor_calls",
    "forcing.diverges_calls",
    "forcing.steps_calls",
    "relations.classes",
    "simgames.arena_positions",
    "simgames.arena_edges",
    "solver.zielonka_calls",
    "solver.buchi_calls",
    "quotient.iso_calls",
    "quotient_frac",
)


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_claimed_winners(mods) -> list[str]:
    oracles = load_oracles()

    def winners(game: corpus.Game) -> list[int]:
        pg = mods["game"].parse_pgsolver(corpus.to_pgsolver(game))
        return [int(oracles.oracle_winner(pg, v)) for v in range(game.n)]

    errors = []
    rng = random.Random(0)
    for k in range(1, 5):
        for owner in (0, 1):
            perm = corpus.shuffled(2 * k, rng)
            game = corpus.relabel(corpus.ladder(k, owner), perm)
            if winners(game) != [owner] * game.n:
                errors.append(f"ladder k={k} owner={owner}: owner does not win everywhere")
    for n in range(1, 9):
        perm = corpus.shuffled(n, rng)
        claimed = [0] * n
        for v in range(n):
            claimed[perm[v]] = corpus.chain_loop_winner(v)
        if winners(corpus.relabel(corpus.chain_loop(n), perm)) != claimed:
            errors.append(f"chain-loop n={n}: closed-form winners disagree with the oracle")
    checked = 0
    for seed in range(40):
        n = 2 + seed % 3
        core = corpus.from_library(mods["game"].random_game(n, 3, (1, min(2, n)), seed))
        inflated = corpus.inflate(core, 1 + seed % 2, seed % 2, random.Random(seed))
        if inflated.game.n > 8:
            continue
        checked += 1
        core_winners = winners(core)
        if winners(inflated.game) != [core_winners[o] for o in inflated.origin]:
            errors.append(f"inflation of seed {seed}: a vertex does not share its origin's winner")
    if checked < 20:
        errors.append(f"only {checked} inflated games were small enough for the oracle")
    return errors


def check_digests(mods) -> list[str]:
    errors = []
    for name, workload in WORKLOADS.items():
        first = corpus.digest(sorted({i.blob for i in workload.build(mods, 7)}))
        again = corpus.digest(sorted({i.blob for i in workload.build(mods, 7)}))
        other = corpus.digest(sorted({i.blob for i in workload.build(mods, 8)}))
        if first != again:
            errors.append(f"{name}: seed 7 gave two different digests")
        if first == other:
            errors.append(f"{name}: seeds 7 and 8 gave the same digest")
    return errors


def traced_counters(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in COUNTERS}


def check_traced_counters() -> list[str]:
    errors = []
    for name in WORKLOADS:
        first, second = traced_counters(name), traced_counters(name)
        for key in COUNTERS:
            if first[key] != second[key]:
                errors.append(f"{name}: {key} differs between traced runs ({first[key]} vs {second[key]})")
        print(f"  {name}: {json.dumps(first)}")
    return errors


def main() -> int:
    mods = import_library()
    failed = False
    for label, check in (
        ("claimed winners agree with oracle_winner", lambda: check_claimed_winners(mods)),
        ("same seed, same digest", lambda: check_digests(mods)),
        ("traced counters repeat exactly", check_traced_counters),
    ):
        errors = check()
        print(f"{'PASS' if not errors else 'FAIL'} {label}")
        for error in errors:
            print(f"  {error}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
