import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgreduce.game as game_module
from oracles import oracle_split_statements
from pgreduce import (
    ParityGame,
    PgSolverFormatError,
    Player,
    WinningRegions,
    disjoint_union,
    parse_pgsolver,
    random_game,
    reward_leq,
    serialize_pgsolver,
    to_dot,
)


def test_reward_order_examples():
    assert reward_leq(0, 1)
    assert reward_leq(5, 5)
    assert reward_leq(3, 1)
    assert not reward_leq(1, 0)


def test_reward_order_is_total_order():
    prios = range(11)
    for n in prios:
        assert reward_leq(n, n)
        for m in prios:
            assert reward_leq(n, m) or reward_leq(m, n)
            if reward_leq(n, m) and reward_leq(m, n):
                assert n == m
            for k in prios:
                if reward_leq(n, m) and reward_leq(m, k):
                    assert reward_leq(n, k)


def test_player_opponent_involution():
    for p in Player:
        assert p.opponent.opponent is p


def test_winner_rejects_vertices_in_neither_region():
    regions = WinningRegions(frozenset({0}), frozenset({1}))
    assert (regions.winner(0), regions.winner(1)) == (Player.EVEN, Player.ODD)
    for v in (5, -1, 2):
        with pytest.raises(ValueError, match=rf"vertex {v} is outside 0\.\.1"):
            regions.winner(v)


def test_parse_smallest_game():
    g = parse_pgsolver("parity 0;\n0 0 0 0;")
    assert g.vertex_count == 1
    assert g.priorities == (0,)
    assert g.owners == (Player.EVEN,)
    assert g.successors == ((0,),)


def test_parse_escape_edge_fixture(escape_edge):
    assert escape_edge.priorities == (1, 1, 1, 0)
    assert escape_edge.owners == (Player.ODD, Player.EVEN, Player.ODD, Player.EVEN)
    assert escape_edge.successors == ((2,), (2, 3), (2,), (3,))


def test_parse_reports_totality_violation():
    with pytest.raises(PgSolverFormatError, match="vertex 0 has no successors"):
        parse_pgsolver("parity 1;\n0 0 0 ;")


def test_parse_reports_dangling_successor():
    with pytest.raises(PgSolverFormatError, match="successor 7"):
        parse_pgsolver("parity 0;\n0 0 0 7;")
    # The smallest out-of-range successor is named, whatever the list order.
    with pytest.raises(PgSolverFormatError, match="successor 5 beyond the last vertex 1"):
        parse_pgsolver("0 0 0 9,1,5,9;\n1 0 1 0;")


def test_parse_normalises_owners_and_successor_lists():
    g = parse_pgsolver("0 0 1 1,0,1;\n1 0 0 1,1;")
    assert g.owners == (Player.ODD, Player.EVEN)
    assert all(type(o) is Player for o in g.owners)
    assert g.successors == ((0, 1), (1,))


def test_parse_reports_duplicate_vertex():
    with pytest.raises(PgSolverFormatError, match="duplicate vertex id 0"):
        parse_pgsolver("0 0 0 0;\n0 1 1 0;")


def test_parse_reports_line_numbers():
    with pytest.raises(PgSolverFormatError, match="line 2"):
        parse_pgsolver("parity 1;\n0 0 broken 0;\n1 0 0 1;")


def test_parse_rejects_bad_owner_and_huge_priority():
    with pytest.raises(PgSolverFormatError, match="owner"):
        parse_pgsolver("0 0 2 0;")
    with pytest.raises(PgSolverFormatError, match="exceeds"):
        parse_pgsolver(f"0 {2**31} 0 0;")


def test_parse_is_whitespace_and_order_tolerant(escape_edge):
    scrambled = "parity 3;\n2 1 1    2;0 1 1 2;\n1 1 0 3 , 2;\n\n3 0 0 3;"
    assert parse_pgsolver(scrambled) == escape_edge


def test_parse_keeps_labels():
    g = parse_pgsolver('parity 1;\n0 0 0 1 "start";\n1 2 1 0,1 "sink loop";')
    assert g.labels == ("start", "sink loop")
    assert parse_pgsolver(serialize_pgsolver(g)) == g


def test_serialize_rejects_unrepresentable_labels():
    g = ParityGame((0,), (0,), ((0,),), labels=('a"b',))
    with pytest.raises(ValueError, match="not representable"):
        serialize_pgsolver(g)


def test_serialize_round_trips_largest_file_priority_and_rejects_larger():
    top = ParityGame((2**31 - 1,), (0,), ((0,),))
    assert parse_pgsolver(serialize_pgsolver(top)) == top
    over = ParityGame((0, 2**31), (0, 1), ((1,), (0,)))
    with pytest.raises(ValueError, match=r"^vertex 1 has priority 2147483648 above 2147483647$"):
        serialize_pgsolver(over)


def test_parse_accepts_start_statement():
    g = parse_pgsolver("parity 1;\nstart 1;\n0 0 0 1;\n1 1 1 0;\n")
    assert g == parse_pgsolver("parity 1;\n0 0 0 1;\n1 1 1 0;\n")
    assert parse_pgsolver("start 0; 0 2 1 0;").priorities == (2,)
    with pytest.raises(PgSolverFormatError, match="line 2: start vertex 2"):
        parse_pgsolver("parity 1;\nstart 2;\n0 0 0 1;\n1 1 1 0;\n")
    with pytest.raises(PgSolverFormatError, match="'start'"):
        parse_pgsolver("start x;\n0 0 0 0;")
    with pytest.raises(PgSolverFormatError, match="cannot parse"):
        parse_pgsolver("0 0 0 0;\nstart 0;")


def test_parse_rejects_bytes_that_are_not_utf8():
    with pytest.raises(PgSolverFormatError, match="UTF-8"):
        parse_pgsolver(b"\xff;")


def test_parse_rejects_numbers_int_cannot_read():
    for text in ("parity \u00b2;\n0 0 0 0;", "0 0 0 " + "1" * 5000 + ";"):
        with pytest.raises(PgSolverFormatError):
            parse_pgsolver(text)


def test_parse_rejects_large_header_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(PgSolverFormatError, match="vertex 1 has no successors"):
            parse_pgsolver("parity 1000000;\n0 0 0 0;\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parse_time_linear_in_unmatched_statement():
    # A statement that fails to match must not backtrack polynomially.
    start = time.perf_counter()
    for text in ("0 0 0" + " " * 3000 + "x;", "0 0 0 " + "1 " * 3000 + "x;"):
        with pytest.raises(PgSolverFormatError, match="cannot parse"):
            parse_pgsolver(text)
    assert time.perf_counter() - start < 2.0
    # Nor may the canonical path, on a long canonical prefix that ends in a
    # malformed statement or in a long run of digits.
    prefix = "".join(f"{v} 0 0 {v};\n" for v in range(100_000))
    for tail in ("0 0 0 x;", "1" * 100_000 + ";"):
        start = time.perf_counter()
        assert game_module._parse_canonical(prefix + tail) is None
        assert time.perf_counter() - start < 2.0
        with pytest.raises(PgSolverFormatError, match="line 100001: cannot parse"):
            parse_pgsolver(prefix + tail)


_TOKENS = [b"parity ", b"start ", b";", b",", b" ", b"\n", b'"', b"0", b"1", b"\xc2\xb2", b"\xd9\xa3"]


def _no_long_numbers(data: bytes) -> bool:
    # Numbers stay below 10**4, so that no input can allocate much even in
    # a parser that sizes its tables by the largest id.
    return re.search(r"\d{5}", data.decode("utf-8", "replace")) is None


@given(
    st.lists(
        st.one_of(
            st.binary(max_size=4),
            st.sampled_from(_TOKENS),
            st.integers(0, 9999).map(lambda i: b"%d" % i),
        ),
        max_size=40,
    )
    .map(b"".join)
    .filter(_no_long_numbers)
)
@settings(max_examples=500, deadline=None)
def test_parse_arbitrary_bytes_gives_game_or_format_error(data):
    try:
        game = parse_pgsolver(data)
    except PgSolverFormatError:
        return
    assert isinstance(game, ParityGame)


def _outcome(fn, text):
    try:
        return fn(text)
    except PgSolverFormatError as exc:
        return (type(exc), str(exc), exc.line)


def _assert_splitter_matches_reference(text):
    """The statements, or the error, are those of the per-character splitter;
    the parse result, or its error's type, message and line, is the same with
    that splitter and with the canonical one-match path switched off."""
    assert _outcome(game_module._split_statements, text) == _outcome(oracle_split_statements, text)
    ours = _outcome(parse_pgsolver, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game_module, "_split_statements", oracle_split_statements)
        assert ours == _outcome(parse_pgsolver, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game_module, "_parse_canonical", lambda text: None)
        assert ours == _outcome(parse_pgsolver, text)


_TEXT_TOKENS = [
    "parity ", "start ", ";", ";", ",", " ", "\n", "\n", "\t", "\r", "\x0b", "\x85", "\u2028", '"',
    "0", "1", "2", "x",
]


@given(
    st.lists(
        st.one_of(st.sampled_from(_TEXT_TOKENS), st.integers(0, 20).map(str), st.text(max_size=2)),
        max_size=40,
    ).map("".join)
)
@settings(max_examples=300, deadline=None)
def test_statement_splitter_matches_reference(text):
    _assert_splitter_matches_reference(text)


def test_statement_splitter_matches_reference_on_mutated_games():
    rng = random.Random(5)
    for seed in range(3000):
        n = rng.randint(1, 8)
        text = serialize_pgsolver(random_game(n, rng.randint(0, 5), (1, min(3, n)), seed)).decode()
        if seed % 4 == 0:
            # A start statement, declared or one past the last vertex.
            header, _, rest = text.partition("\n")
            text = f"{header}\nstart {seed % (n + 1)};\n{rest}"
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + rng.choice(_TEXT_TOKENS) + text[at:]
            elif edit == 1:
                text = text[:at] + text[at + rng.randint(1, 4):]
            else:
                text = text[:at] + rng.choice(_TEXT_TOKENS) + text[at + 1:]
        _assert_splitter_matches_reference(text)


def test_serialize_canonical_bytes():
    g = parse_pgsolver("parity 0;\n0 0 0 0;")
    assert serialize_pgsolver(g) == b"parity 0;\n0 0 0 0;\n"
    assert serialize_pgsolver(g) == serialize_pgsolver(g)


def test_serialize_round_trip_on_fixtures(all_fixture_games):
    for game in all_fixture_games.values():
        assert parse_pgsolver(serialize_pgsolver(game)) == game


def test_canonical_path_reads_serialized_games(all_fixture_games):
    # Unlabelled games serialise to canonical text, which must never fall
    # back to the statement parser.
    randoms = [random_game(n, n, (1, min(3, n)), seed) for seed, n in enumerate(range(1, 60))]
    for game in [*all_fixture_games.values(), *randoms]:
        assert game_module._parse_canonical(serialize_pgsolver(game).decode()) == game


def test_canonical_path_normalises_unsorted_rows_like_the_statement_parser():
    # Canonical in shape, but the first row is unsorted and lists 0 twice.
    text = "parity 1;\n0 0 0 1,0,0;\n1 1 1 0;\n"
    canonical = game_module._parse_canonical(text)
    assert canonical is not None
    assert canonical.successors == ((0, 1), (0,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game_module, "_parse_canonical", lambda text: None)
        assert parse_pgsolver(text) == canonical


def test_row_constructor_matches_the_public_one():
    # Rows already in strictly ascending order are kept, any other row is
    # normalised, and the checks reject what the public constructor rejects.
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        prios = [rng.randint(0, 5) for _ in range(n)]
        owners = [Player(rng.randint(0, 1)) for _ in range(n)]
        rows = [tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))) for _ in range(n)]
        rows = [tuple(sorted(set(row))) if rng.random() < 0.5 else row for row in rows]
        built = ParityGame._from_rows(prios, owners, rows)
        assert built == ParityGame(prios, owners, rows)
        assert all(type(x) is int for x in sum(built.successors, ()))
    for bad, message in [
        (((0,), (Player.EVEN,), ((),)), "no successors"),
        (((0,), (Player.EVEN,), ((1,),)), "outside"),
        (((0,), (Player.EVEN,), ((0, -1),)), "outside"),
        (((-1,), (Player.EVEN,), ((0,),)), "negative"),
        (((0, 0), (Player.EVEN,), ((0,), (0,))), "equal length"),
    ]:
        with pytest.raises(ValueError, match=message):
            ParityGame._from_rows(*bad)


@st.composite
def games(draw, max_n=6, max_priority=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    prios = draw(st.lists(st.integers(0, max_priority), min_size=n, max_size=n))
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    succs = [
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
        for _ in range(n)
    ]
    return ParityGame(tuple(prios), tuple(owners), tuple(succs))


@given(games())
@settings(max_examples=150, deadline=None)
def test_parse_serialize_identity(game):
    assert parse_pgsolver(serialize_pgsolver(game)) == game


def test_game_rejects_dead_ends_and_bad_indices():
    with pytest.raises(ValueError, match="no successors"):
        ParityGame((0,), (0,), ((),))
    with pytest.raises(ValueError, match="outside"):
        ParityGame((0,), (0,), ((1,),))
    with pytest.raises(ValueError, match="negative"):
        ParityGame((-1,), (0,), ((0,),))


def test_game_normalises_successors():
    g = ParityGame((0, 0), (0, 1), ((1, 0, 1), (0,)))
    assert g.successors == ((0, 1), (0,))


def test_game_rejects_owners_other_than_players():
    for owner in (2, -1, "0", None, 0.5, 1.0, [0]):
        with pytest.raises(ValueError, match="owner"):
            ParityGame((0,), (owner,), ((0,),))


def test_game_rejects_priorities_and_successors_other_than_integers():
    # int() would make priority 1.5 an odd 1 and successor "1" vertex 1.
    for value in ("0", None, 0.5, 1.5, 1.0, [0]):
        with pytest.raises(ValueError, match=re.escape(f"vertex 0 has non-integer priority {value!r}")):
            ParityGame((value,), (0,), ((0,),))
        with pytest.raises(ValueError, match=re.escape(f"vertex 1 has non-integer successors (1, {value!r})")):
            ParityGame((0, 2), (0, 0), ((0,), (1, value)))
    with pytest.raises(ValueError, match="vertex 0 has non-integer successors 0"):
        ParityGame((0,), (0,), (0,))


def test_game_normalisation_matches_enum_construction():
    # The constructor looks owners up in a table instead of calling
    # Player(...) per vertex: games, parsed or built, must come out equal,
    # with Player owners and int priorities and successors.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        prios = [rng.randint(0, 5) for _ in range(n)]
        owners = [rng.choice((0, 1, Player.EVEN, Player.ODD, False, True)) for _ in range(n)]
        succs = [[rng.randrange(n) for _ in range(rng.randint(1, 4))] for _ in range(n)]
        built = ParityGame(prios, owners, succs)
        for g in (built, parse_pgsolver(serialize_pgsolver(built))):
            assert g.priorities == tuple(int(p) for p in prios)
            assert g.owners == tuple(Player(o) for o in owners)
            assert g.successors == tuple(tuple(sorted(set(int(u) for u in row))) for row in succs)
            assert all(type(o) is Player for o in g.owners)
            assert all(type(x) is int for x in g.priorities + sum(g.successors, ()))


def test_random_game_is_deterministic():
    a = random_game(8, 3, (1, 3), 42)
    b = random_game(8, 3, (1, 3), 42)
    assert a == b
    assert serialize_pgsolver(a) == serialize_pgsolver(b)
    assert a != random_game(8, 3, (1, 3), 43)


def test_random_game_single_vertex_forces_loop():
    g = random_game(1, 0, (1, 1), 7)
    assert g.successors == ((0,),)


def test_random_game_rejects_negative_max_priority():
    with pytest.raises(ValueError, match="max priority -1 is negative"):
        random_game(3, -1, (1, 3), 0)
    assert random_game(3, 0, (1, 3), 0).priorities == (0, 0, 0)


def test_random_game_invariants():
    for seed in range(30):
        g = random_game(6, 4, (2, 4), seed)
        for v in g.vertices:
            assert 2 <= len(g.successors[v]) <= 4
            assert 0 <= g.priorities[v] <= 4


def test_random_game_rejects_empty_degree_range():
    with pytest.raises(ValueError):
        random_game(4, 2, (3, 2), 0)
    with pytest.raises(ValueError):
        random_game(4, 2, (0, 2), 0)
    with pytest.raises(ValueError):
        random_game(4, 2, (1, 5), 0)


def test_to_dot_shapes(escape_edge):
    dot = to_dot(escape_edge)
    assert "v1 [shape=diamond" in dot
    assert "v0 [shape=box" in dot
    assert 'label="3:0"' in dot
    assert "v1 -> v3;" in dot


def test_disjoint_union_offsets(escape_edge, delayed_chain):
    u = disjoint_union(escape_edge, delayed_chain)
    off = escape_edge.vertex_count
    assert u.vertex_count == off + delayed_chain.vertex_count
    assert u.successors[off] == (off + 1,)
    assert u.priorities[: off] == escape_edge.priorities
