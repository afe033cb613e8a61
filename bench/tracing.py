"""Tracing from outside the library: wrap the functions each module calls into.

The package binds its cross-module calls at import time (``from .forcing
import attractor``), so a call is intercepted by replacing the name in the
*calling* module's namespace.  ``install`` swaps every binding listed below
for a wrapper and ``uninstall`` puts the originals back;
untraced runs therefore execute the library unmodified.

Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent, verdict)`` for calls
  into a layer;
* forcing wrappers only count (``diverges``, ``steps``) or count and time
  (``attractor``).  There are millions of these calls per pass, so they are
  aggregated into the enclosing span instead of being recorded one by one.
  A call made from inside another forcing call is never seen, because only
  bindings outside ``forcing`` are wrapped: each call is counted once, at
  its outermost forcing entry.

A span's self time is its duration minus its child spans and the timed
forcing calls made directly under it.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("game", "forcing", "relations", "quotient", "solver", "simgames", "lattice")

# (calling module, attribute, span name).  The span name's prefix is the
# layer that owns the called function.
_RELATIONS = {
    "strong_bisim": "relations.strong_bisim",
    "governed_bisim": "relations.governed_bisim",
    "stut_bisim": "relations.stut_bisim",
    "gstut_bisim": "relations.gstut_bisim",
    "direct_sim": "relations.direct_sim",
    "strong_direct_sim": "relations.strong_direct_sim",
    "equivalence_from_preorder": "relations.kernel",
}
_SPANS = [
    ("game", "parse_pgsolver", "game.parse"),
    ("game", "serialize_pgsolver", "game.serialize"),
    ("quotient", "serialize_class_map", "game.serialize"),
    *[("relations", attr, name) for attr, name in _RELATIONS.items() if attr in ("direct_sim", "governed_bisim")],
    *[("quotient", attr, name) for attr, name in _RELATIONS.items() if attr != "strong_direct_sim"],
    *[("lattice", attr, name) for attr, name in _RELATIONS.items()],
    ("simgames", "gstut_bisim", "relations.gstut_bisim"),
    ("quotient", "quotient_strong_bisim", "quotient.build"),
    ("quotient", "quotient_governed_bisim", "quotient.build"),
    ("quotient", "quotient_stut", "quotient.build"),
    ("quotient", "quotient_gstut", "quotient.build"),
    ("quotient", "quotient_direct_sim", "quotient.build"),
    ("quotient", "verify_preservation", "quotient.verify"),
    ("quotient", "quotient_equivalent", "quotient.equivalent"),
    ("quotient", "find_isomorphism", "quotient.iso"),
    ("lattice", "find_isomorphism", "quotient.iso"),
    ("solver", "solve_zielonka", "solver.zielonka"),
    ("quotient", "solve_zielonka", "solver.zielonka"),
    ("lattice", "solve_zielonka", "solver.zielonka"),
    ("simgames", "solve_buchi", "solver.buchi"),
    ("simgames", "buchi_rank", "solver.buchi_rank"),
    ("simgames", "build_direct_sim_arena", "simgames.arena_build"),
    ("simgames", "build_governed_bisim_arena", "simgames.arena_build"),
    ("simgames", "build_delayed_sim_arena", "simgames.arena_build"),
    ("simgames", "build_gstut_arena", "simgames.arena_build"),
    ("simgames", "direct_sim_via_game", "simgames.via_game"),
    ("simgames", "governed_bisim_via_game", "simgames.via_game"),
    ("simgames", "gstut_via_game", "simgames.via_game"),
    ("simgames", "delayed_sim", "simgames.delayed_sim"),
    ("lattice", "delayed_sim", "simgames.delayed_sim"),
    ("simgames", "delayed_sim_fixpoint", "simgames.delayed_fixpoint"),
    ("simgames", "coincidence_check", "simgames.coincidence"),
    ("lattice", "coincidence_check", "simgames.coincidence"),
    ("simgames", "wf_rank_check", "simgames.rank_check"),
    ("lattice", "check_lattice", "lattice.check"),
    ("lattice", "compute_relations", "lattice.compute_relations"),
]
_TIMED_FORCING = [("relations", "attractor"), ("quotient", "attractor")]
_COUNTED_FORCING = [("quotient", "diverges"), ("quotient", "steps")]


class Tracer:
    """Spans and counters of the traced passes of one run, kept in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []
        # span: [name, start, end, parent, verdict, forcing_time]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.verdict = -1
        self.verdict_time = 0.0
        self.quotients: dict[int, object] = {}

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in _SPANS:
            self._swap(mod_name, attr, self._span_wrapper(name))
        for mod_name, attr in _TIMED_FORCING:
            self._swap(mod_name, attr, self._attractor_wrapper)
        for mod_name, attr in _COUNTED_FORCING:
            self._swap(mod_name, attr, self._count_wrapper(f"forcing.{attr}_calls"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def _swap(self, mod_name: str, attr: str, make) -> None:
        module = self.modules[mod_name]
        original = getattr(module, attr)
        self.saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str):
        def make(fn):
            spans = self.spans
            stack = self.stack

            def wrapper(*args, **kwargs):
                if name == "solver.zielonka":
                    kind = "quotient" if id(args[0]) in self.quotients else "original"
                    span_name = f"solver.zielonka_{kind}"
                else:
                    span_name = name
                idx = len(spans)
                rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.verdict, 0.0]
                spans.append(rec)
                stack.append(idx)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                self._observe(name, result)
                return result

            return wrapper

        return make

    def _attractor_wrapper(self, fn):
        spans = self.spans
        stack = self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            counts["forcing.attractor_calls"] += 1
            counts["forcing.attractor_s"] += dt
            if stack:
                spans[stack[-1]][5] += dt
            return result

        return wrapper

    def _count_wrapper(self, key: str):
        def make(fn):
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _observe(self, name: str, result) -> None:
        counts = self.counts
        if name.startswith("relations.") and hasattr(result, "class_count"):
            counts["relations.classes"] += result.class_count
        elif name == "quotient.build":
            # Keep the object alive so that its id stays unique in this verdict.
            self.quotients[id(result.quotient)] = result.quotient
        elif name == "simgames.arena_build":
            counts["simgames.arena_positions"] += result.size
            counts["simgames.arena_edges"] += sum(len(row) for row in result.edges)

    # --- verdict boundaries ----------------------------------------------

    def begin_verdict(self, verdict: int) -> None:
        self.verdict = verdict
        self.quotients.clear()

    def end_verdict(self, seconds: float) -> None:
        self.verdict_time += seconds

    # --- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Totals of this tracer: inclusive time per span name, self time per layer and name, counters."""
        durations = [rec[2] - rec[1] for rec in self.spans]
        child_time = [rec[5] for rec in self.spans]
        relation_child = [0.0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            parent = rec[3]
            if parent >= 0:
                child_time[parent] += durations[i]
                if rec[0].startswith("relations."):
                    relation_child[parent] += durations[i]
        inclusive: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: Counter = Counter()
        covered = 0.0
        build_self = 0.0
        for i, rec in enumerate(self.spans):
            name = rec[0]
            calls[name] += 1
            if not self._nested_in_same_name(i):
                inclusive[name] += durations[i]
            own = durations[i] - child_time[i]
            self_by_name[name] += own
            self_by_layer[name.split(".", 1)[0]] += own
            if rec[3] < 0:
                covered += durations[i]
            if name == "quotient.build":
                build_self += durations[i] - relation_child[i]
        self_by_layer["forcing"] += self.counts["forcing.attractor_s"]
        return {
            "inclusive": dict(inclusive),
            "self_by_name": dict(self_by_name),
            "self_by_layer": self_by_layer,
            "calls": dict(calls),
            "counts": dict(self.counts),
            "covered": covered,
            "verdict_time": self.verdict_time,
            "build_self": build_self,
        }

    def _nested_in_same_name(self, i: int) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def times_by_verdict(self) -> dict[int, dict[str, float]]:
        """Inclusive time per span name, per verdict id (outermost spans of each name)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, rec in enumerate(self.spans):
            if not self._nested_in_same_name(i):
                out[rec[4]][rec[0]] += rec[2] - rec[1]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, verdict."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[0],
                            "start": rec[1],
                            "end": rec[2],
                            "parent": rec[3],
                            "verdict": rec[4],
                            "forcing_s": rec[5],
                        }
                    )
                    + "\n"
                )
