"""Re-time the baseline rows of ROADMAP.md, as an ungated report.

    python3 bench/baseline.py

Each row is timed once, as the table was.  Random games come from
``random_game(n, max_priority, (1, 3), seed)``.  The CLI rows start a fresh
interpreter, as a user typing ``pgreduce ...`` would, so they include
start-up.  The 2000-vertex self-loop case is left out: it does not finish.
Prints a Markdown table, then one JSON object with every time in seconds.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
sys.path.insert(0, str(BENCH))

from run import import_library  # noqa: E402


def timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def cli(*argv: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys; from pgreduce.cli import main; sys.exit(main(sys.argv[1:]))"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code, *argv], check=True, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def self_loops(game_mod, n: int):
    """``n`` isolated self-loops with distinct priorities; vertex ``i`` is owned by ``i mod 2``."""
    return game_mod.ParityGame(tuple(range(n)), tuple(i % 2 for i in range(n)), tuple((i,) for i in range(n)))


def main() -> int:
    mods = import_library()
    game, quotient, relations, solver, simgames = (
        mods["game"], mods["quotient"], mods["relations"], mods["solver"], mods["simgames"],
    )
    OUT_DIR.mkdir(exist_ok=True)
    g1000 = game.random_game(1000, 8, (1, 3), 7)
    path = OUT_DIR / "baseline-1000v.gm"
    path.write_bytes(game.serialize_pgsolver(g1000))
    g2000 = game.random_game(2000, 2, (1, 3), 7)
    g50 = game.random_game(50, 5, (1, 3), 1)

    rows = [
        ("random, 1000 v, max prio 8, seed 7", "pgreduce minimize --equiv gstut",
         lambda: cli("minimize", str(path), "--equiv", "gstut",
                     "--out", str(OUT_DIR / "baseline-q.gm"), "--map", str(OUT_DIR / "baseline-q.map"))),
        ("same game", "quotient_gstut", lambda: timed(quotient.quotient_gstut, g1000)),
        ("same game", "gstut_bisim", lambda: timed(relations.gstut_bisim, g1000)),
        ("same game", "pgreduce verify --equiv direct-sim",
         lambda: cli("verify", str(path), "--equiv", "direct-sim")),
        ("random, 2000 v, max prio 2, seed 7", "gstut_bisim", lambda: timed(relations.gstut_bisim, g2000)),
        ("same game", "direct_sim", lambda: timed(relations.direct_sim, g2000)),
        ("400 isolated self-loops, distinct priorities", "solve_zielonka",
         lambda: timed(solver.solve_zielonka, self_loops(game, 400))),
        ("random, 50 v, max prio 5, seed 1", "delayed_sim_fixpoint", lambda: timed(simgames.delayed_sim_fixpoint, g50)),
        ("same game", "delayed_sim (arena route)", lambda: timed(simgames.delayed_sim, g50)),
    ]
    print("| workload | call | time |")
    print("| --- | --- | --- |")
    report = []
    for workload, call, run in rows:
        seconds = run()
        report.append({"workload": workload, "call": call, "seconds": seconds})
        print(f"| {workload} | `{call}` | {seconds:.2f} s |", flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
