"""Parity game data model, reward order, PGSolver I/O and random generation.

Vertices are dense 0-based indices.  External names, when present, live in
an optional label map; every algorithm in this package iterates vertices in
ascending index order, which makes all derived outputs deterministic.

Canonical PGSolver text, the shape ``serialize_pgsolver`` writes, is read in
one pass of a compiled pattern, one match per statement; anything else, and
every input that turns out to be malformed, goes through the
statement-by-statement parser.  Both give the same game, and the statement
parser reports every error.

A game is frozen, so every table derived from it alone stays valid for the
object's life.  ``derived(game, build, *args)`` runs ``build(game, *args)``
on first use and keeps the result on the game, keyed by the builder and its
arguments; later calls return it.  The predecessor lists and the even-owner
flags are kept so, and so are the tables that several layers read for one
game: the obligation and transfer tables and the delayed simulation
preorder of each bias of :mod:`pgreduce.simgames`, and the initial
partitions, the direct simulation masks and preorder and the governed and
governed stuttering bisimilarities of :mod:`pgreduce.relations`.  Every
kept table is a tuple or another immutable value, so no caller can change
what the next one reads, and a table that only one call reads per game is
not kept.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from enum import IntEnum
from operator import index, itemgetter, lt

__all__ = [
    "Player",
    "ParityGame",
    "WinningRegions",
    "PgSolverFormatError",
    "MAX_FILE_PRIORITY",
    "reward_leq",
    "parse_pgsolver",
    "serialize_pgsolver",
    "to_dot",
    "random_game",
    "disjoint_union",
]

# File I/O rejects priorities beyond this; the in-memory model is unbounded.
MAX_FILE_PRIORITY = 2**31 - 1


class Player(IntEnum):
    """Owner of a vertex.  The integer values match the PGSolver encoding."""

    EVEN = 0
    ODD = 1

    @property
    def opponent(self) -> "Player":
        return _OPPONENT[self]


# Module constants: an enum member's attribute read costs several times a
# global's.
_EVEN, _ODD = Player.EVEN, Player.ODD
_OPPONENT = (_ODD, _EVEN)
# Owner values ParityGame accepts: 0 and 1, as ints or players; and the
# owner digits of canonical text.
_OWNER = {0: _EVEN, 1: _ODD}
_OWNER_DIGIT = {"0": _EVEN, "1": _ODD}


@dataclass(frozen=True)
class ParityGame:
    """A total parity game.

    ``priorities[v]`` is the priority of vertex ``v``, ``owners[v]`` the
    player moving from it and ``successors[v]`` its sorted, duplicate-free
    successor list.  Construction normalises the successor lists and checks
    totality (every vertex has at least one successor) and index bounds.
    Instances are immutable and safe to share.
    """

    priorities: tuple[int, ...]
    owners: tuple[Player, ...]
    successors: tuple[tuple[int, ...], ...]
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        # operator.index takes ints, bools and players, and refuses what
        # int() would round or parse.
        try:
            owners = tuple(map(_OWNER.__getitem__, map(index, self.owners)))
        except (KeyError, TypeError):
            raise ValueError("every owner must be 0 (even) or 1 (odd)") from None
        prios = _per_vertex(index, self.priorities, "priority")
        succs = _per_vertex(_normal_row, self.successors, "successors")
        self._freeze(prios, owners, succs, self.labels)

    @classmethod
    def _from_rows(cls, priorities, owners, rows, labels=None) -> "ParityGame":
        """The game of int priorities, players and successor tuples of ints
        that are mostly normal already: a strictly ascending row is kept as
        it is, and only the others are sorted and de-duplicated.  The checks
        are the public constructor's."""
        game = object.__new__(cls)
        succs = tuple(row if all(map(lt, row, row[1:])) else _normal_row(row) for row in rows)
        game._freeze(tuple(priorities), tuple(owners), succs, labels)
        return game

    def _freeze(self, prios, owners, succs, labels) -> None:
        object.__setattr__(self, "priorities", prios)
        object.__setattr__(self, "owners", owners)
        object.__setattr__(self, "successors", succs)
        if labels is not None:
            labels = tuple(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_tables", {})

        n = len(prios)
        if n == 0:
            raise ValueError("a parity game needs at least one vertex")
        if len(owners) != n or len(succs) != n:
            raise ValueError("priorities, owners and successors must have equal length")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover every vertex")
        # Whole-tuple checks first; a failure then names the first bad vertex.
        if min(prios) < 0:
            v = next(v for v, p in enumerate(prios) if p < 0)
            raise ValueError(f"vertex {v} has negative priority {prios[v]}")
        if not all(succs) or max(map(itemgetter(-1), succs)) >= n or min(map(itemgetter(0), succs)) < 0:
            v, row = next((v, r) for v, r in enumerate(succs) if not r or r[-1] >= n or r[0] < 0)
            if not row:
                raise ValueError(f"vertex {v} has no successors")
            raise ValueError(f"vertex {v} has a successor outside 0..{n - 1}")

    @property
    def vertex_count(self) -> int:
        return len(self.priorities)

    @property
    def vertices(self) -> range:
        return range(len(self.priorities))

    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Predecessor lists, ascending; built once per game."""
        return derived(self, _predecessor_lists)


def derived(game: ParityGame, build, *args):
    """``build(game, *args)``, built on the first call for this game object
    and these arguments and kept on it; ``build`` must read nothing but the
    game and its arguments and return an immutable table."""
    tables = game._tables
    key = (build, *args)
    table = tables.get(key)
    if table is None:
        table = tables[key] = build(game, *args)
    return table


def _predecessor_lists(game: ParityGame) -> tuple[tuple[int, ...], ...]:
    preds: list[list[int]] = [[] for _ in game.vertices]
    for v, row in enumerate(game.successors):
        for u in row:
            preds[u].append(v)
    return tuple(map(tuple, preds))


def _even_owned(game: ParityGame) -> tuple[bool, ...]:
    """Per vertex, whether even owns it."""
    return tuple([owner is _EVEN for owner in game.owners])


def _normal_row(row) -> tuple[int, ...]:
    return tuple(sorted(set(map(index, row))))


def _per_vertex(read, values, what: str) -> tuple:
    """``read`` of each vertex's value; a ``TypeError`` from ``read`` becomes
    a ``ValueError`` naming the first vertex whose value it rejects."""
    try:
        return tuple(map(read, values))
    except TypeError:
        pass
    for v, value in enumerate(values):
        try:
            read(value)
        except TypeError:
            raise ValueError(f"vertex {v} has non-integer {what} {value!r}") from None


@dataclass(frozen=True)
class WinningRegions:
    """The unique partition of the vertices into the two players' regions."""

    won_by_even: frozenset[int]
    won_by_odd: frozenset[int]

    def winner(self, v: int) -> Player:
        """The player who wins from ``v``; a ``ValueError`` for a vertex in
        neither region."""
        if v in self.won_by_even:
            return _EVEN
        if v in self.won_by_odd:
            return _ODD
        n = len(self.won_by_even) + len(self.won_by_odd)
        raise ValueError(f"vertex {v} is outside 0..{n - 1}")


def reward_leq(n: int, m: int) -> bool:
    """Reward order on priorities: ``n`` is at most as good for player odd.

    Holds iff n is even and m odd, or both are even and n <= m, or both are
    odd and m <= n.  Lower even priorities and higher odd priorities are
    better for player even.
    """
    n_even = n % 2 == 0
    m_even = m % 2 == 0
    if n_even and not m_even:
        return True
    if n_even and m_even:
        return n <= m
    if not n_even and not m_even:
        return m <= n
    return False


class PgSolverFormatError(ValueError):
    """Raised on malformed PGSolver input; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# The successor field takes every digit, comma and blank up to the label, so
# a failed match backtracks in linear time.
_VERTEX_RE = re.compile(
    r"^(?P<id>\d+)\s+(?P<prio>\d+)\s+(?P<owner>\d+)"
    r"(?P<succs>(?:\s[\d,\s]*)?)"
    r'(?:"(?P<label>[^"]*)")?$'
)


def _number(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise PgSolverFormatError(f"malformed number {text[:20]!r}", at) from None


def _split_statements(text: str) -> list[tuple[str, int]]:
    """The ``;``-terminated statements, each without its leading whitespace
    and with the line of its first non-blank character.  Text after the last
    ``;`` must be blank."""
    statements = []
    line = 1
    for chunk in text.split(";"):
        stmt = chunk.lstrip()
        statements.append((stmt, line + chunk.count("\n", 0, len(chunk) - len(stmt))))
        line += chunk.count("\n")
    tail, at = statements.pop()
    if tail:
        raise PgSolverFormatError("missing ';' at end of input", at)
    return statements


# The canonical text serialize_pgsolver writes: an optional header, then
# vertex statements of ASCII digits, single spaces, owner 0 or 1 and no
# label, with whitespace only between statements.  Each vertex match ends in
# the whitespace before the next statement, so the matches tile the text: at
# the first statement of any other shape the second branch takes the rest of
# the text, as one last match whose fields are empty.  No match backtracks
# beyond one statement, and none holds state for the statements before it.
_CANONICAL_HEADER_RE = re.compile(r"\s*(?:parity ([0-9]+);\s*)?(?:start ([0-9]+);\s*)?", re.ASCII)
_CANONICAL_VERTEX_RE = re.compile(r"(?:([0-9]+) ([0-9]+) ([01]) ([0-9,]+);|[\s\S]+)\s*", re.ASCII)


def _parse_canonical(text: str) -> ParityGame | None:
    """The game of canonical text, or None when the statement parser must
    decide: on any other shape, and on every input it would reject."""
    header = _CANONICAL_HEADER_RE.match(text)
    max_id, start = header.groups()
    # The unpacking raises on text without vertex statements; int("") on the
    # empty fields of a statement of any other shape; int() on a number too
    # long to read; the JSON reader, which converts every successor list in
    # one call, on an empty successor and on a leading zero; and the game on
    # a successor of n or more.
    try:
        ids, prios, owners, fields = zip(*_CANONICAL_VERTEX_RE.findall(text, header.end()))
        n = len(ids)
        if list(map(int, ids)) != list(range(n)):
            return None
        if max_id is not None and int(max_id) != n - 1:
            return None
        if start is not None and int(start) >= n:
            return None
        rows = map(tuple, json.loads("[[" + "],[".join(fields) + "]]"))
        game = ParityGame._from_rows(map(int, prios), map(_OWNER_DIGIT.__getitem__, owners), rows)
    except ValueError:
        return None
    if max(game.priorities) > MAX_FILE_PRIORITY:
        return None
    return game


def parse_pgsolver(text: bytes | str) -> ParityGame:
    """Parse PGSolver format into a game.

    Grammar: an optional header ``parity <max-id>;`` and an optional
    ``start <id>;`` statement, followed by one statement per vertex,
    ``<id> <priority> <owner> <succ>(,<succ>)* ("name")? ;`` with owner 0
    for even and 1 for odd.  Statements are separated by ``;`` and
    whitespace between tokens is free-form.  The start vertex must exist
    and is otherwise ignored.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PgSolverFormatError(f"input is not UTF-8 text: {exc.reason}") from None

    game = _parse_canonical(text)
    if game is not None:
        return game
    statements = _split_statements(text)

    max_id: int | None = None
    start: tuple[int, int] | None = None
    # Owners and successor lists stay raw: ParityGame normalises them once.
    decls: dict[int, tuple[int, int, list[int], str | None]] = {}
    for idx, (stmt, at) in enumerate(statements):
        stmt = stmt.strip()
        if not stmt:
            continue
        if idx == 0 and stmt.startswith("parity"):
            rest = stmt[len("parity"):].strip()
            if not rest.isdecimal():
                raise PgSolverFormatError("malformed 'parity' header", at)
            max_id = _number(rest, at)
            continue
        if start is None and not decls and stmt.startswith("start"):
            rest = stmt[len("start"):].strip()
            if not rest.isdecimal():
                raise PgSolverFormatError("malformed 'start' statement", at)
            start = (_number(rest, at), at)
            continue
        m = _VERTEX_RE.match(stmt)
        if m is None:
            raise PgSolverFormatError(f"cannot parse vertex statement {stmt!r}", at)
        vid = _number(m.group("id"), at)
        prio = _number(m.group("prio"), at)
        owner = m.group("owner")
        if owner not in ("0", "1"):
            raise PgSolverFormatError(f"owner must be 0 or 1, got {owner!r}", at)
        if prio > MAX_FILE_PRIORITY:
            raise PgSolverFormatError(f"priority {prio} exceeds {MAX_FILE_PRIORITY}", at)
        if vid in decls:
            raise PgSolverFormatError(f"duplicate vertex id {vid}", at)
        succ_field = m.group("succs").strip()
        succs: list[int] = []
        if succ_field:
            for part in succ_field.split(","):
                part = part.strip()
                if not part.isdecimal():
                    raise PgSolverFormatError(
                        f"malformed successor list {succ_field!r}", at
                    )
                succs.append(_number(part, at))
        decls[vid] = (prio, int(owner), succs, m.group("label"))

    if not decls:
        raise PgSolverFormatError("input declares no vertices")
    n = max(max(decls), max_id if max_id is not None else 0) + 1

    # Check every id below n before allocating anything of size n: the
    # first undeclared id ends the loop, so a header or an id far beyond the
    # declared vertices costs nothing.
    for vid in range(n):
        # Undeclared ids below the header bound are dead ends.
        if vid not in decls or not decls[vid][2]:
            raise PgSolverFormatError(f"vertex {vid} has no successors")
        if max(decls[vid][2]) >= n:
            u = min(u for u in decls[vid][2] if u >= n)
            raise PgSolverFormatError(
                f"vertex {vid} lists successor {u} beyond the last vertex {n - 1}"
            )
    if start is not None and start[0] >= n:
        raise PgSolverFormatError(f"start vertex {start[0]} is not declared", start[1])

    priorities, owners, successors, labels = zip(*(decls[vid] for vid in range(n)))
    lab = labels if any(x is not None for x in labels) else None
    return ParityGame(priorities, owners, successors, lab)


def serialize_pgsolver(game: ParityGame) -> bytes:
    """Canonical PGSolver serialisation: header, vertices and successors ascending."""
    out = [f"parity {game.vertex_count - 1};"]
    for v in game.vertices:
        prio = game.priorities[v]
        # The parser rejects larger priorities, so such a file could not be read back.
        if prio > MAX_FILE_PRIORITY:
            raise ValueError(f"vertex {v} has priority {prio} above {MAX_FILE_PRIORITY}")
        succs = ",".join(str(u) for u in game.successors[v])
        line = f"{v} {prio} {int(game.owners[v])} {succs}"
        if game.labels is not None and game.labels[v] is not None:
            label = game.labels[v]
            # The format has no escape sequences, so such labels cannot
            # survive a round trip.
            if '"' in label or "\n" in label or ";" in label:
                raise ValueError(f"label {label!r} not representable in PGSolver format")
            line += f' "{label}"'
        out.append(line + ";")
    return ("\n".join(out) + "\n").encode("utf-8")


def to_dot(game: ParityGame) -> str:
    """GraphViz export: even vertices are diamonds, odd ones boxes."""
    lines = ["digraph parity_game {"]
    for v in game.vertices:
        shape = "diamond" if game.owners[v] is Player.EVEN else "box"
        lines.append(f'  v{v} [shape={shape}, label="{v}:{game.priorities[v]}"];')
    for v in game.vertices:
        for u in game.successors[v]:
            lines.append(f"  v{v} -> v{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_game(
    n: int,
    max_priority: int,
    out_degree: tuple[int, int],
    seed: int,
) -> ParityGame:
    """Deterministic random game: same seed, bit-identical game.

    Priorities are uniform on ``0..max_priority``, owners uniform, and each
    vertex draws its out-degree uniformly from ``out_degree`` (inclusive)
    and its successors without replacement.
    """
    lo, hi = out_degree
    if n < 1:
        raise ValueError("need at least one vertex")
    if lo > hi or lo < 1 or hi > n:
        raise ValueError(f"out-degree range [{lo}, {hi}] not within [1, {n}]")
    if max_priority < 0:
        raise ValueError(f"max priority {max_priority} is negative")
    rng = random.Random(seed)
    priorities = tuple(rng.randint(0, max_priority) for _ in range(n))
    owners = tuple(Player(rng.randint(0, 1)) for _ in range(n))
    succs = []
    for _ in range(n):
        k = rng.randint(lo, hi)
        succs.append(tuple(sorted(rng.sample(range(n), k))))
    return ParityGame(priorities, owners, tuple(succs))


def disjoint_union(g1: ParityGame, g2: ParityGame) -> ParityGame:
    """The disjoint union; the second game's indices are offset by ``|V1|``."""
    off = g1.vertex_count
    # Both games' rows are normal, and an offset keeps a row ascending, so
    # only the public constructor's checks run.
    succs = g1.successors + tuple(tuple(map(off.__add__, row)) for row in g2.successors)
    labels = None
    if g1.labels is not None or g2.labels is not None:
        l1 = g1.labels if g1.labels is not None else (None,) * g1.vertex_count
        l2 = g2.labels if g2.labels is not None else (None,) * g2.vertex_count
        labels = l1 + l2
    union = object.__new__(ParityGame)
    union._freeze(g1.priorities + g2.priorities, g1.owners + g2.owners, succs, labels)
    return union
