"""Benchmark driver: reduce, solve and cross-check, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduce-inflated --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with a single caller: each verdict
is a sequential in-process library call that starts from PGSolver bytes and
ends with its answer checked against ground truth.  The loop runs whole
passes over the corpus until ``--seconds`` have elapsed, so every run sees
each game equally often.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (per pass) plus the tracing overhead; its spans are written to
``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report that also names the figures no check gates.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
OUT_DIR = BENCH / "out"

# The host's speed drifts by up to 1.6x, for seconds or for a whole run at a
# time, and fixed pure-Python loops slow down with the library code: an
# arithmetic loop with CPU-bound phases, an allocating loop with the others.
# So every timed interval is bracketed by a measurement of this reference
# kernel, and the end-to-end times are reported in reference seconds: wall
# time scaled by REFERENCE_S over the kernel's time around the interval.
# The kernel never touches the library, so no change to ``src`` can move it.
# REFERENCE_S is about the kernel's time on the development host when fast.
REFERENCE_LOOPS = 3000
REFERENCE_REPEATS = 3
REFERENCE_S = 0.0007


def _arithmetic_loop() -> None:
    acc = 0
    seen = {}
    for i in range(REFERENCE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
        seen[acc & 255] = i


def _allocating_loop() -> None:
    rows = [(i, i & 7, (i, i + 1)) for i in range(REFERENCE_LOOPS // 2)]
    {row: j for j, row in enumerate(rows)}


def reference_kernel() -> float:
    """Time of both loops, each the fastest of a few calls; the minimum drops brief interruptions."""
    total = 0.0
    for loop in (_arithmetic_loop, _allocating_loop):
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            t0 = perf_counter()
            loop()
            best = min(best, perf_counter() - t0)
        total += best
    return total


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REFERENCE_S * 2 / (ref_before + ref_after)


class MissingLibrary(RuntimeError):
    pass


def import_library() -> dict:
    """Import ``pgreduce`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "pgreduce" / "__init__.py").is_file():
        raise MissingLibrary(f"no pgreduce package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "pgreduce" or m.startswith("pgreduce.")]:
        del sys.modules[name]
    package = importlib.import_module("pgreduce")
    if Path(package.__file__).resolve().parent != (src / "pgreduce").resolve():
        raise MissingLibrary(f"pgreduce imported from {package.__file__}, not from {src}")
    return {name: importlib.import_module(f"pgreduce.{name}") for name in LAYERS}


def set_up(workload, seed: int):
    """Import plus corpus generation and serialization; returns the modules, the corpus and the scaled duration."""
    # Start every repeat from a collected heap, so that no repeat pays for
    # the garbage of the one before.
    gc.collect()
    ref_before = reference_kernel()
    t0 = perf_counter()
    mods = import_library()
    items = workload.build(mods, seed)
    dt = perf_counter() - t0
    return mods, items, scaled(dt, ref_before, reference_kernel())


class Loop:
    """Runs passes over the corpus and keeps each pass's per-verdict latencies and the failures."""

    def __init__(self, workload, mods, items):
        self.workload = workload
        self.mods = mods
        self.items = items
        self.passes: list[list[float]] = []  # reference seconds
        self.wall: list[list[float]] = []  # wall seconds
        self.failures: list[str] = []
        self.first_pass: list = []
        self.families: dict[int, str] = {}

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def run_pass(self, tracer: Tracer | None = None) -> None:
        """One verdict per corpus item."""
        record_first = not self.passes
        latencies: list[float] = []
        wall: list[float] = []
        ref_before = reference_kernel()
        for item in self.items:
            verdict_id = self.attempted + len(latencies)
            if tracer is not None:
                tracer.begin_verdict(verdict_id)
                self.families[verdict_id] = item.family
            t0 = perf_counter()
            try:
                outcome = self.workload.verdict(self.mods, item)
            except Exception:  # a raising verdict counts as failed
                outcome = None
                error = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_verdict(dt)
            ref_after = reference_kernel()
            latencies.append(scaled(dt, ref_before, ref_after))
            wall.append(dt)
            ref_before = ref_after
            if outcome is None or not outcome.ok:
                detail = error if outcome is None else "wrong answer"
                self.failures.append(f"{item.family}/{item.task}: {detail}")
            if record_first:
                self.first_pass.append(outcome)
        self.passes.append(latencies)
        self.wall.append(wall)

    @staticmethod
    def per_verdict(passes: list[list[float]]) -> list[float]:
        """Per verdict of the corpus, its median time over the passes."""
        return [statistics.median(times) for times in zip(*passes)]


def quotient_frac(outcomes) -> float:
    total = sum(o.original_vertices for o in outcomes if o is not None)
    reduced = sum(o.quotient_vertices for o in outcomes if o is not None)
    return reduced / total if reduced else 0.0


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "pgreduce").glob("*.py")))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(loop: Loop, seed: int, seconds: float, setup_times: list[float]) -> tuple[dict, dict]:
    """Whole passes until ``seconds`` have elapsed, with one more set-up after each pass but the last."""
    started = perf_counter()
    while True:
        loop.run_pass()
        elapsed = perf_counter() - started
        if elapsed >= seconds and len(loop.passes) >= MIN_PASSES:
            break
        loop.mods, _, dt = set_up(loop.workload, seed)
        setup_times.append(dt)
    ref = Loop.per_verdict(loop.passes)
    wall = Loop.per_verdict(loop.wall)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (len(ref) / sum(ref), "1/s"),
        "verdict_s.p50": (statistics.median(ref), "s"),
        "verdict_s.p90": (percentile(ref, 90), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    as_run = {
        "verdicts_per_s": loop.attempted / elapsed,
        "verdict_s.p50": statistics.median(wall),
        "verdict_s.p90": percentile(wall, 90),
    }
    return metrics, as_run


def traced(loop: Loop, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer figures are per traced pass, in wall seconds."""
    tracer = Tracer(loop.mods)
    started = perf_counter()
    while True:
        loop.run_pass()
        tracer.install()
        try:
            loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        if perf_counter() - started >= seconds:
            break
    pairs = len(loop.passes) // 2
    plain = sum(sum(p) for p in loop.passes[0::2])
    with_trace = sum(sum(p) for p in loop.passes[1::2])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    s = tracer.summary()
    inc, calls, counts = s["inclusive"], s["calls"], s["counts"]

    def t(name):
        return (inc.get(name, 0.0) / pairs, "s")

    def c(key, table=counts):
        return (table.get(key, 0) / pairs, "count")

    metrics = {
        "relations.gstut_s": t("relations.gstut_bisim"),
        "relations.stut_s": t("relations.stut_bisim"),
        "relations.governed_bisim_s": t("relations.governed_bisim"),
        "relations.strong_bisim_s": t("relations.strong_bisim"),
        "relations.direct_sim_s": t("relations.direct_sim"),
        "relations.kernel_s": t("relations.kernel"),
        "relations.classes": c("relations.classes"),
        "forcing.attractor_calls": c("forcing.attractor_calls"),
        "forcing.attractor_s": (counts.get("forcing.attractor_s", 0.0) / pairs, "s"),
        "forcing.diverges_calls": c("forcing.diverges_calls"),
        "forcing.steps_calls": c("forcing.steps_calls"),
        "quotient.build_self_s": (s["build_self"] / pairs, "s"),
        "quotient.equivalent_s": t("quotient.equivalent"),
        "quotient.iso_s": t("quotient.iso"),
        "quotient.iso_calls": c("quotient.iso", calls),
        "quotient_frac": (quotient_frac(loop.first_pass), "ratio"),
        "solver.zielonka_original_s": t("solver.zielonka_original"),
        "solver.zielonka_quotient_s": t("solver.zielonka_quotient"),
        "solver.zielonka_calls": (
            (calls.get("solver.zielonka_original", 0) + calls.get("solver.zielonka_quotient", 0)) / pairs,
            "count",
        ),
        "solver.buchi_s": t("solver.buchi"),
        "solver.buchi_calls": c("solver.buchi", calls),
        "simgames.arena_build_s": t("simgames.arena_build"),
        "simgames.arena_positions": c("simgames.arena_positions"),
        "simgames.arena_edges": c("simgames.arena_edges"),
        "simgames.delayed_fixpoint_s": t("simgames.delayed_fixpoint"),
        "simgames.rank_check_s": t("simgames.rank_check"),
        "lattice.compute_relations_self_s": (s["self_by_name"].get("lattice.compute_relations", 0.0) / pairs, "s"),
        "lattice.check_self_s": (s["self_by_name"].get("lattice.check", 0.0) / pairs, "s"),
        "game.parse_s": t("game.parse"),
        "game.serialize_s": t("game.serialize"),
        **{f"{layer}.self_s": (s["self_by_layer"][layer] / pairs, "s") for layer in LAYERS},
        "trace.overhead_frac": (with_trace / plain, "ratio"),
        "trace.covered_frac": (s["covered"] / s["verdict_time"], "ratio"),
    }
    return metrics, {"pairs": pairs, "pipeline": reduce_over_direct(tracer, loop.families)}


def reduce_over_direct(tracer: Tracer, families: dict[int, str]) -> dict[str, float]:
    """Per family: (relation + quotient build + Zielonka on the quotient) / (Zielonka on the original)."""
    reduce: dict[str, float] = {}
    direct: dict[str, float] = {}
    for verdict, times in tracer.times_by_verdict().items():
        family = families.get(verdict)
        if family is None or "quotient.build" not in times:
            continue
        reduce[family] = reduce.get(family, 0.0) + times["quotient.build"] + times.get("solver.zielonka_quotient", 0.0)
        direct[family] = direct.get(family, 0.0) + times.get("solver.zielonka_original", 0.0)
    return {f: reduce[f] / direct[f] for f in sorted(reduce) if direct.get(f)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            mods, items, dt = set_up(workload, args.seed)
            setup_times.append(dt)
    except MissingLibrary as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    digest = corpus.digest(sorted({item.blob for item in items}))
    t0 = perf_counter()
    workload.expect(mods, items)
    expect_s = perf_counter() - t0

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"corpus {len(items)} verdicts per pass, {len({i.blob for i in items})} games, digest {digest}")
    print(f"expectations {expect_s:.4f} s (untimed)")
    print(f"src.lines {src_lines()} lines")

    loop = Loop(workload, mods, items)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        metrics, extra = traced(loop, args.seconds, spans_path)
        print(f"traced {extra['pairs']} pass pairs; spans in {spans_path.relative_to(ROOT)}")
        for family, ratio in extra["pipeline"].items():
            print(f"pipeline.reduce_over_direct[{family}] {ratio:.4f} ratio")
    else:
        metrics, as_run = untraced(loop, args.seed, args.seconds, setup_times)
        print(f"set-up repeats: {', '.join(f'{t:.4f}' for t in setup_times)} reference s")
        print(
            f"{len(loop.passes)} passes; p50 and p90 over {len(items)} verdicts, "
            f"{len(items) - math.ceil(0.9 * len(items))} beyond p90"
        )
        print("as run, in wall seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in as_run.items()))
        frac = quotient_frac(loop.first_pass)
        if frac:
            print(f"quotient_frac {frac:.6f} ratio (every game once)")

    attempted = loop.attempted
    failed = len(loop.failures)
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} verdicts)")
    for line in loop.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
