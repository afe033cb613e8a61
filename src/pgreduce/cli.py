"""Command-line front end: solve, minimize, compare, lattice-check, verify, random.

Exit codes are a stable contract: 0 on success, 1 on usage or semantic
errors (including parse errors), 2 on I/O errors.  With ``--json`` every
command emits a single JSON object with the fixed keys ``command``,
``input``, ``sizes``, ``classes``, ``timings`` and ``verdicts``; timing
figures are only filled in under ``--timings`` so that reports stay
byte-deterministic by default.  In text mode ``--timings`` writes one
``timing <stage> <ms> ms`` line per stage to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .game import (
    ParityGame,
    PgSolverFormatError,
    parse_pgsolver,
    random_game,
    serialize_pgsolver,
    to_dot,
)
from .lattice import RELATION_ORDER, check_lattice, compute_relations
from .quotient import (
    EQUIVALENCES,
    QuotientResult,
    quotient_equivalent,
    serialize_class_map,
    verify_preservation,
)
from .solver import solve_zielonka

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for I/O problems.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pgreduce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Only the commands that produce a game take --dot.
    def common(p, dot=False):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        if dot:
            p.add_argument("--dot", type=Path, help="also write the produced game as DOT")

    p = sub.add_parser("solve", help="print the winning regions")
    p.add_argument("input", type=Path)
    common(p, dot=True)

    p = sub.add_parser("minimize", help="write the quotient game and class map")
    p.add_argument("input", type=Path)
    p.add_argument("--equiv", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--map", dest="map_path", type=Path, required=True)
    common(p, dot=True)

    p = sub.add_parser("compare", help="relate two vertices under every relation")
    p.add_argument("input", type=Path)
    p.add_argument("v", type=int)
    p.add_argument("w", type=int)
    common(p)

    p = sub.add_parser("lattice-check", help="check inclusion edges and coincidences")
    p.add_argument("input", type=Path, nargs="?")
    p.add_argument("--random", type=int, metavar="N", help="vertex count for random games")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--max-priority", type=int, default=3)
    p.add_argument("--degree", default="1:3")
    common(p)

    p = sub.add_parser("verify", help="minimize, solve both games, check preservation")
    p.add_argument("input", type=Path)
    p.add_argument("--equiv", required=True)
    common(p)

    p = sub.add_parser("random", help="generate a deterministic random game")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--max-priority", type=int, default=3)
    p.add_argument("--degree", default="1:2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    common(p, dot=True)

    return parser


def _read_game(path: Path) -> tuple[ParityGame, str]:
    data = path.read_bytes()
    return parse_pgsolver(data), hashlib.sha256(data).hexdigest()


def _parse_degree(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"--degree expects lo:hi, got {text!r}") from exc


class _Report:
    """Accumulates the per-command report and renders it as text or JSON."""

    def __init__(self, command: str, args):
        self.data = {
            "command": command,
            "input": None,
            "sizes": {},
            "classes": {},
            "timings": {},
            "verdicts": {},
        }
        self.json = args.json
        self.timings = args.timings
        self.lines: list[str] = []
        self._t0 = time.perf_counter()

    def stamp(self, stage: str) -> None:
        if self.timings:
            ms = (time.perf_counter() - self._t0) * 1000.0
            self.data["timings"][stage] = round(ms, 3)
            self._t0 = time.perf_counter()

    def line(self, text: str) -> None:
        self.lines.append(text)

    def emit(self) -> None:
        if self.json:
            print(json.dumps(self.data, sort_keys=True))
        else:
            for text in self.lines:
                print(text)
            # On stderr, so that stdout stays byte-identical with or without --timings.
            for stage, ms in self.data["timings"].items():
                print(f"timing {stage} {ms} ms", file=sys.stderr)


def _maybe_dot(args, game: ParityGame) -> None:
    if args.dot:
        args.dot.write_text(to_dot(game))


def _cmd_solve(args) -> int:
    game, digest = _read_game(args.input)
    report = _Report("solve", args)
    report.data["input"] = digest
    report.data["sizes"]["original"] = game.vertex_count
    regions = solve_zielonka(game)
    report.stamp("solve")
    even = " ".join(str(v) for v in sorted(regions.won_by_even))
    odd = " ".join(str(v) for v in sorted(regions.won_by_odd))
    report.data["regions"] = {
        "even": sorted(regions.won_by_even),
        "odd": sorted(regions.won_by_odd),
    }
    report.line(f"even: {even}".rstrip())
    report.line(f"odd: {odd}".rstrip())
    _maybe_dot(args, game)
    report.emit()
    return 0


def _quotient_for(args, game: ParityGame, report: _Report) -> QuotientResult:
    if args.equiv not in EQUIVALENCES:
        supported = ", ".join(sorted(EQUIVALENCES))
        raise _UsageError(f"unknown equivalence {args.equiv!r}; supported: {supported}")
    result = EQUIVALENCES[args.equiv](game)
    report.data["sizes"] = {
        "original": game.vertex_count,
        "quotient": result.quotient.vertex_count,
    }
    return result


def _cmd_minimize(args) -> int:
    game, digest = _read_game(args.input)
    report = _Report("minimize", args)
    report.data["input"] = digest
    result = _quotient_for(args, game, report)
    report.stamp("minimize")
    args.out.write_bytes(serialize_pgsolver(result.quotient))
    args.map_path.write_bytes(serialize_class_map(result))
    report.data["classes"][args.equiv] = result.quotient.vertex_count
    report.line(f"original: {game.vertex_count} vertices")
    report.line(f"quotient: {result.quotient.vertex_count} vertices")
    _maybe_dot(args, result.quotient)
    report.emit()
    return 0


def _cmd_compare(args) -> int:
    game, digest = _read_game(args.input)
    if not (0 <= args.v < game.vertex_count and 0 <= args.w < game.vertex_count):
        raise _UsageError(f"vertex ids must lie in 0..{game.vertex_count - 1}")
    report = _Report("compare", args)
    report.data["input"] = digest
    report.data["sizes"]["original"] = game.vertex_count
    relations = compute_relations(game)
    report.stamp("relations")
    table = {}
    for name in RELATION_ORDER:
        related = relations[name].same_class(args.v, args.w)
        table[name] = related
        report.data["classes"][name] = relations[name].class_count
        report.line(f"{name}: {'yes' if related else 'no'}")
    report.data["related"] = table
    report.emit()
    return 0


def _cmd_lattice_check(args) -> int:
    report = _Report("lattice-check", args)
    games: list[tuple[str, ParityGame]] = []
    if args.input is not None and args.random is not None:
        raise _UsageError("lattice-check takes an input file or --random N, not both")
    if args.input is not None:
        game, digest = _read_game(args.input)
        report.data["input"] = digest
        games.append((str(args.input), game))
    elif args.random is not None:
        degree = _parse_degree(args.degree)
        for seed in args.seeds:
            games.append(
                (
                    f"random(n={args.random}, seed={seed})",
                    random_game(args.random, args.max_priority, degree, seed),
                )
            )
    else:
        raise _UsageError("lattice-check needs an input file or --random N")

    ok = True
    for label, game in games:
        for res in check_lattice(game):
            verdict = "pass" if res.passed else "fail"
            report.data["verdicts"][f"{label}: {res.name}"] = verdict
            report.line(f"{verdict} {res.name} [{label}]")
            ok = ok and res.passed
    report.stamp("lattice")
    report.emit()
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    game, digest = _read_game(args.input)
    report = _Report("verify", args)
    report.data["input"] = digest
    result = _quotient_for(args, game, report)
    preserved = verify_preservation(game, result)
    equivalent = quotient_equivalent(game, result)
    report.stamp("verify")
    report.data["verdicts"]["winners-preserved"] = "pass" if preserved else "fail"
    report.data["verdicts"]["quotient-equivalent"] = "pass" if equivalent else "fail"
    report.line(f"winners-preserved: {'pass' if preserved else 'fail'}")
    report.line(f"quotient-equivalent: {'pass' if equivalent else 'fail'}")
    report.emit()
    return 0 if preserved and equivalent else 1


def _cmd_random(args) -> int:
    # The JSON report takes the place of the game on stdout.
    if args.json and not args.out:
        raise _UsageError("random --json needs --out for the game")
    report = _Report("random", args)
    degree = _parse_degree(args.degree)
    game = random_game(args.vertices, args.max_priority, degree, args.seed)
    report.data["sizes"]["original"] = game.vertex_count
    data = serialize_pgsolver(game)
    report.stamp("random")
    if args.out:
        args.out.write_bytes(data)
        report.line(f"wrote {args.out}")
    else:
        report.line(data.decode("utf-8").rstrip("\n"))
    _maybe_dot(args, game)
    report.emit()
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "minimize": _cmd_minimize,
    "compare": _cmd_compare,
    "lattice-check": _cmd_lattice_check,
    "verify": _cmd_verify,
    "random": _cmd_random,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PgSolverFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
