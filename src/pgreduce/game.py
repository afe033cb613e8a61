"""Parity game data model, reward order, PGSolver I/O and random generation.

Vertices are dense 0-based indices.  External names, when present, live in
an optional label map; every algorithm in this package iterates vertices in
ascending index order, which makes all derived outputs deterministic.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import IntEnum

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
        return Player(1 - self.value)


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
        prios = tuple(int(p) for p in self.priorities)
        owners = tuple(Player(o) for o in self.owners)
        succs = tuple(tuple(sorted(set(int(u) for u in row))) for row in self.successors)
        object.__setattr__(self, "priorities", prios)
        object.__setattr__(self, "owners", owners)
        object.__setattr__(self, "successors", succs)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

        n = len(prios)
        if n == 0:
            raise ValueError("a parity game needs at least one vertex")
        if len(owners) != n or len(succs) != n:
            raise ValueError("priorities, owners and successors must have equal length")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must cover every vertex")
        for v, p in enumerate(prios):
            if p < 0:
                raise ValueError(f"vertex {v} has negative priority {p}")
        for v, row in enumerate(succs):
            if not row:
                raise ValueError(f"vertex {v} has no successors")
            if row[-1] >= n or row[0] < 0:
                raise ValueError(f"vertex {v} has a successor outside 0..{n - 1}")

    @property
    def vertex_count(self) -> int:
        return len(self.priorities)

    @property
    def vertices(self) -> range:
        return range(len(self.priorities))

    def priority(self, v: int) -> int:
        return self.priorities[v]

    def owner(self, v: int) -> Player:
        return self.owners[v]

    def max_priority(self) -> int:
        return max(self.priorities)

    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Predecessor lists, ascending; computed once and cached."""
        cached = getattr(self, "_predecessors", None)
        if cached is None:
            preds: list[list[int]] = [[] for _ in self.vertices]
            for v, row in enumerate(self.successors):
                for u in row:
                    preds[u].append(v)
            cached = tuple(tuple(p) for p in preds)
            object.__setattr__(self, "_predecessors", cached)
        return cached


@dataclass(frozen=True)
class WinningRegions:
    """The unique partition of the vertices into the two players' regions."""

    won_by_even: frozenset[int]
    won_by_odd: frozenset[int]

    def winner(self, v: int) -> Player:
        return Player.EVEN if v in self.won_by_even else Player.ODD


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

    statements = _split_statements(text)

    max_id: int | None = None
    start: tuple[int, int] | None = None
    decls: dict[int, tuple[int, Player, tuple[int, ...], str | None]] = {}
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
        decls[vid] = (prio, Player(int(owner)), tuple(sorted(set(succs))), m.group("label"))

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
        for u in decls[vid][2]:
            if u >= n:
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
        succs = ",".join(str(u) for u in game.successors[v])
        line = f"{v} {game.priorities[v]} {int(game.owners[v])} {succs}"
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
    priorities = g1.priorities + g2.priorities
    owners = g1.owners + g2.owners
    succs = g1.successors + tuple(
        tuple(u + off for u in row) for row in g2.successors
    )
    labels = None
    if g1.labels is not None or g2.labels is not None:
        l1 = g1.labels if g1.labels is not None else (None,) * g1.vertex_count
        l2 = g2.labels if g2.labels is not None else (None,) * g2.vertex_count
        labels = l1 + l2
    return ParityGame(priorities, owners, succs, labels)
