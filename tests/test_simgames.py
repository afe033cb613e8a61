import random
from array import array
from dataclasses import dataclass
from itertools import chain

import pytest

import pgreduce.simgames
from conftest import small_random_games
from oracles import (
    collapse_same_owner_chains,
    fold_same_owner_half_moves,
    gstut_canonical_key,
    gstut_duplicator_key,
    is_subrelation,
    oracle_build_delayed_sim_arena,
    oracle_build_direct_sim_arena,
    oracle_build_governed_bisim_arena,
    oracle_build_gstut_arena,
    oracle_delayed_sim_fixpoint,
    oracle_delayed_sim_worklist,
    oracle_rank_check,
)
from pgreduce import (
    CHECK,
    DAGGER,
    ArenaPlayer,
    ParityGame,
    build_delayed_sim_arena,
    build_direct_sim_arena,
    build_governed_bisim_arena,
    build_gstut_arena,
    coincidence_check,
    delayed_sim,
    delayed_sim_fixpoint,
    direct_sim,
    direct_sim_via_game,
    equivalence_from_preorder,
    gamma,
    gamma_even,
    gamma_odd,
    governed_bisim_via_game,
    gstut_bisim,
    gstut_via_game,
    random_game,
    reward_leq,
    solve_buchi,
    wf_rank_check,
)

ALL_NOTIONS = ("direct", "governed_bisim", "gstut", "delayed", "delayed_even", "delayed_odd")


class TestObligationUpdates:
    def test_gamma_examples(self):
        assert gamma(4, 4, CHECK) == CHECK
        assert gamma(0, 1, CHECK) == 0
        assert gamma(3, 0, 2) == CHECK

    def test_gamma_even_examples(self):
        assert gamma_even(1, 1, 3) == 3
        for n in range(4):
            for m in range(4):
                assert gamma_even(n, m, CHECK) == gamma(n, m, CHECK)

    def test_gamma_odd_examples(self):
        assert gamma_odd(2, 0, 1) == 1
        for n in range(4):
            for m in range(4):
                assert gamma_odd(n, m, CHECK) == gamma(n, m, CHECK)

    def test_update_family_exhaustive_bounds(self):
        obligations = [CHECK] + list(range(9))
        for n in range(9):
            for m in range(9):
                for k in obligations:
                    base = gamma(n, m, k)
                    numeric = [n, m] + ([] if k == CHECK else [k])
                    assert base == CHECK or base <= min(numeric)
                    for biased, guard in (
                        (
                            gamma_even(n, m, k),
                            k != CHECK
                            and reward_leq(m, n)
                            and n % 2 == 1
                            and n <= k
                            and (m % 2 == 1 or k < m),
                        ),
                        (
                            gamma_odd(n, m, k),
                            k != CHECK
                            and reward_leq(m, n)
                            and m % 2 == 0
                            and m <= k
                            and (n % 2 == 0 or k < n),
                        ),
                    ):
                        if guard:
                            assert biased == k
                        else:
                            assert biased == base


class TestDirectSimArena:
    def test_diagonal_positions_won(self, escape_edge):
        arena = build_direct_sim_arena(escape_edge)
        won = solve_buchi(arena)
        n = escape_edge.vertex_count
        for v in escape_edge.vertices:
            assert arena.start[v * n + v] in won

    def test_escape_edge_asymmetry(self, escape_edge):
        arena = build_direct_sim_arena(escape_edge)
        won = solve_buchi(arena)
        n = escape_edge.vertex_count
        assert arena.start[0 * n + 1] in won
        assert arena.start[1 * n + 0] not in won

    def test_position_counts(self, escape_edge):
        # Ids: configurations below n², half moves from 2n² up to the sink at 4n².
        game = escape_edge
        arena = build_direct_sim_arena(game)
        n = game.vertex_count
        max_deg = max(len(row) for row in game.successors)
        full = [key for key in arena.ids if key < n * n]
        mids = [key for key in arena.ids if 2 * n * n <= key < 4 * n * n]
        pairs_with_equal_prio = sum(
            1
            for v in game.vertices
            for w in game.vertices
            if game.priorities[v] == game.priorities[w]
        )
        assert len(full) == pairs_with_equal_prio
        assert len(full) <= n * n
        assert len(mids) <= n * n * max_deg


class TestGovernedArena:
    def test_diagonal_won(self, cross_owner):
        arena = build_governed_bisim_arena(cross_owner)
        won = solve_buchi(arena)
        assert arena.start[0] in won

    def test_cross_owner_pairs(self, cross_owner):
        arena = build_governed_bisim_arena(cross_owner)
        won = solve_buchi(arena)
        n = cross_owner.vertex_count
        assert arena.start[0 * n + 6] in won
        assert arena.start[0 * n + 1] not in won

    def test_winning_set_symmetric(self):
        for seed in range(10):
            game = random_game(2 + seed % 4, 2, (1, 2), seed)
            rows = pgreduce.simgames._pair_relation_from_arena(game, build_governed_bisim_arena(game))
            for v in game.vertices:
                for w in game.vertices:
                    assert rows[v] >> w & 1 == rows[w] >> v & 1
            assert governed_bisim_via_game(game).as_relation() == rows


class TestDelayedArena:
    def test_delayed_chain_universal(self, delayed_chain):
        rows = delayed_sim(delayed_chain)
        assert all(
            rows[v] >> w & 1 for v in delayed_chain.vertices for w in delayed_chain.vertices
        )

    def test_diagonal_with_check_reachable(self, escape_edge):
        rows = delayed_sim(escape_edge)
        assert all(rows[v] >> v & 1 for v in escape_edge.vertices)

    def test_obligation_alphabet(self, random_corpus):
        # A configuration's id is (v * n + w) * K + k, where obligation k
        # indexes ✓ and the sorted priorities; the interning oracle's
        # arena, folded the same way and then position for position the
        # same, names each one.
        for game in random_corpus[:15]:
            n = game.vertex_count
            obligations = [CHECK, *sorted(set(game.priorities))]
            kk = len(obligations)
            arena = build_delayed_sim_arena(game)
            payload = fold_same_owner_half_moves(oracle_build_delayed_sim_arena(game)).payload
            for pos, key in enumerate(arena.ids):
                if key < n * n * kk:
                    j, k = divmod(key, kk)
                    assert payload[pos] == ("cfg", j // n, j % n, obligations[k])
                else:
                    assert payload[pos][0] == "mid"

    def test_contains_direct(self, escape_edge, random_corpus):
        for game in [escape_edge] + random_corpus[:15]:
            d = direct_sim(game)
            for bias in ("none", "even", "odd"):
                assert is_subrelation(d, delayed_sim(game, bias))

    def test_preorder_on_random_games(self, random_corpus):
        for game in random_corpus[:15]:
            equivalence_from_preorder(delayed_sim(game))

    def test_delayed_contains_both_biases(self, random_corpus):
        for game in random_corpus[:15]:
            full_rel = delayed_sim(game)
            for bias in ("even", "odd"):
                assert is_subrelation(delayed_sim(game, bias), full_rel)


class TestWellFoundedRanks:
    def test_fixture_games(self, all_fixture_games):
        for game in all_fixture_games.values():
            for bias in ("none", "even", "odd"):
                assert wf_rank_check(game, bias)

    def test_direct_equals_delayed_case(self):
        # All priorities equal: obligations are ✓ everywhere, rank 0.
        g = ParityGame((2, 2), (0, 1), ((1,), (0, 1)))
        assert delayed_sim(g) == direct_sim(g)
        assert wf_rank_check(g)

    def test_random_games(self):
        for seed in range(25):
            game = random_game(2 + seed % 5, 3, (1, 2), seed)
            for bias in ("none", "even", "odd"):
                assert wf_rank_check(game, bias)


class TestGstutGame:
    def test_diagonal_configuration_won(self, escape_edge):
        arena = build_gstut_arena(escape_edge)
        won = solve_buchi(arena)
        n = escape_edge.vertex_count
        for v in escape_edge.vertices:
            assert arena.start[v * n + v] in won

    def test_fake_divergence_challenge_roundtrip(self, fake_divergence):
        arena = build_gstut_arena(fake_divergence)
        won = solve_buchi(arena)
        n = fake_divergence.vertex_count
        assert arena.start[1 * n + 3] in won
        # priorities differ: (0, 2) starts at the builder's losing sink, a
        # non-accepting Duplicator position whose only move is to itself
        assert fake_divergence.priorities[0] != fake_divergence.priorities[2]
        sink = arena.start[0 * n + 2]
        assert arena.owners[sink] is ArenaPlayer.DUPLICATOR
        assert sink not in arena.accepting
        assert arena.edges[sink] == [sink]
        assert sink not in won

    def test_partition_matches_refinement(self, fake_divergence):
        assert gstut_via_game(fake_divergence) == gstut_bisim(fake_divergence)

    def test_singleton(self):
        g = ParityGame((1,), (1,), ((0,),))
        assert gstut_via_game(g).class_count == 1


def _drop_won_pair(monkeypatch, game, v, w):
    """Make ``solve_buchi`` lose the start position of the pair (v, w)."""
    n = game.vertex_count

    def doctored(arena):
        return solve_buchi(arena) - {arena.start[v * n + w]}

    monkeypatch.setattr(pgreduce.simgames, "solve_buchi", doctored)


@pytest.mark.parametrize("route", [governed_bisim_via_game, gstut_via_game], ids=["governed", "gstut"])
def test_bisim_game_route_rejects_asymmetric_won_set(monkeypatch, escape_edge, route):
    # Without (0, 2) the won pairs are still a preorder, but 2 ≤ 0 alone
    # splits the class {0, 2} in the kernel.
    _drop_won_pair(monkeypatch, escape_edge, 0, 2)
    with pytest.raises(RuntimeError, match=r"winning set is not an equivalence: relation not symmetric$"):
        route(escape_edge)


def test_gstut_game_route_rejects_won_set_that_is_no_preorder(monkeypatch, fake_divergence):
    # The class {0, 1, 3, 4} without (0, 1): 0 ≤ 3 and 3 ≤ 1, but not 0 ≤ 1.
    _drop_won_pair(monkeypatch, fake_divergence, 0, 1)
    with pytest.raises(RuntimeError, match=r"^stuttering game winning set is not an equivalence: "
                       r"relation not transitive through \(0, 3\)$"):
        gstut_via_game(fake_divergence)


class TestCoincidence:
    @pytest.mark.parametrize("notion", ALL_NOTIONS)
    def test_fixtures(self, all_fixture_games, notion):
        for game in all_fixture_games.values():
            assert coincidence_check(game, notion), notion

    def test_identity_memberships(self, escape_edge):
        rows_game = direct_sim_via_game(escape_edge)
        rows_fix = direct_sim(escape_edge)
        for v in escape_edge.vertices:
            assert rows_game[v] >> v & 1 and rows_fix[v] >> v & 1

    def test_random_games(self):
        for seed in range(20):
            n = 2 + seed % 5
            game = random_game(n, 3, (1, min(3, n)), 1000 + seed)
            for notion in ALL_NOTIONS:
                assert coincidence_check(game, notion), (seed, notion)

    def test_unknown_notion_rejected(self, escape_edge):
        with pytest.raises(ValueError):
            coincidence_check(escape_edge, "weak")


def test_delayed_fixpoint_agrees_on_fixtures(all_fixture_games):
    for game in all_fixture_games.values():
        for bias in ("none", "even", "odd"):
            assert delayed_sim(game, bias) == delayed_sim_fixpoint(game, bias)


def test_biased_gap_fixture(biased_gap, delayed_chain):
    # The even bias keeps obligations that only an odd priority could
    # discharge, and vice versa; these two games separate all four kernels.
    def kernel(game, bias):
        return equivalence_from_preorder(delayed_sim(game, bias))

    direct_kernel = equivalence_from_preorder(direct_sim(biased_gap))
    assert direct_kernel.class_count == 2
    assert kernel(biased_gap, "odd").class_count == 1
    assert kernel(biased_gap, "even").class_count == 2
    assert kernel(biased_gap, "none").class_count == 1

    assert equivalence_from_preorder(direct_sim(delayed_chain)).class_count == 3
    assert kernel(delayed_chain, "even").class_count == 1
    assert kernel(delayed_chain, "odd").class_count == 3
    assert kernel(delayed_chain, "none").class_count == 1


@pytest.mark.parametrize(
    "call", [delayed_sim, delayed_sim_fixpoint, wf_rank_check, build_delayed_sim_arena]
)
def test_unknown_bias_rejected(escape_edge, call):
    with pytest.raises(ValueError, match="'bogus'.*none, even, odd"):
        call(escape_edge, "bogus")


def _tail_games():
    """The benchmark's crosscheck tail, where the fixpoint needs the most rounds."""
    return [random_game(n, 3, (1, 3), 500 + i) for i, n in enumerate(range(12, 23, 2))]


@pytest.mark.parametrize("bias", ["none", "even", "odd"])
def test_delayed_fixpoint_matches_reference(bias):
    small = small_random_games(300, max_n=12, max_priority=4, start_n=2)
    for i, game in enumerate(small + _tail_games()):
        assert delayed_sim_fixpoint(game, bias) == oracle_delayed_sim_fixpoint(game, bias), i


@pytest.mark.parametrize("bias", ["none", "even", "odd"])
def test_delayed_fixpoint_matches_closure_worklist(bias):
    # Games of 12-40 vertices, beyond what the full rescan handles quickly.
    for i in range(40):
        game = random_game(12 + i * 28 // 39, 2 + i % 4, (1, 1 + i % 3), 9_100 + i)
        assert delayed_sim_fixpoint(game, bias) == oracle_delayed_sim_worklist(game, bias), i


def test_rank_check_matches_closure_transfer(monkeypatch):
    # Perturbed ranks make some checks fail; the per-pair tables must judge
    # every set of ranks as the closure-based transfer does.
    original = pgreduce.simgames.buchi_rank
    checked = []

    def perturbed(arena):
        ranks = original(arena)
        rng = random.Random(len(checked))
        for pos in rng.sample(sorted(ranks), min(len(checked) % 4, len(ranks))):
            ranks[pos] = rng.randrange(-1, max(ranks.values()) + 2)
        checked.append(ranks)
        return ranks

    monkeypatch.setattr(pgreduce.simgames, "buchi_rank", perturbed)
    outcomes = set()
    for i, game in enumerate(small_random_games(60, max_n=7, max_priority=4, start_n=2)):
        for bias in ("none", "even", "odd"):
            got = wf_rank_check(game, bias)
            assert got == oracle_rank_check(game, bias, checked[-1]), (i, bias)
            outcomes.add(got)
    assert outcomes == {True, False}


class _CountingReads(list):
    """A list that counts how often an entry is read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_delayed_fixpoint_evaluation_count(monkeypatch):
    # An evaluation of a triple reads its pair's transfer table once.
    original = pgreduce.simgames._transfer_groups
    tables = []

    def counting(*args):
        tables.append(_CountingReads(original(*args)))
        return tables[-1]

    monkeypatch.setattr(pgreduce.simgames, "_transfer_groups", counting)
    game = random_game(50, 5, (1, 3), 1)
    delayed_sim_fixpoint(game, "none")
    triples = game.vertex_count ** 2 * (1 + len(set(game.priorities)))
    reachable = sum(key[0] == "cfg" for key in oracle_build_delayed_sim_arena(game).payload)
    # The full-rescan reference evaluates each triple about 56 times here.
    # Evaluating all 17,500 triples, the stage-carrying fixpoint read the
    # table 47,959 times; on the 3,878 triples that the query triples reach,
    # it reads it 13,722 times, once per triple to find them and about 2.5
    # times per triple to evaluate them.
    [table] = tables
    assert 0 < table.reads <= 4 * triples
    assert table.reads <= 4 * reachable


class _PoisonedRow(int):
    """A γ-table row whose update fails when read at an obligation in ``unreachable``."""

    def __new__(cls, row, unreachable):
        self = super().__new__(cls, row)
        self.unreachable = unreachable
        return self

    def __add__(self, k):
        assert k not in self.unreachable, "read the transfer of an unreachable triple"
        return int(self) + k


@pytest.mark.parametrize("bias", ["none", "even", "odd"])
def test_delayed_fixpoint_ignores_unreachable_triples(monkeypatch, bias):
    # A transfer entry read at an obligation that no query triple reaches
    # at that pair raises; the result must be the one without poison.
    game = random_game(12, 3, (1, 3), 500)
    expected = delayed_sim_fixpoint(game, bias)
    n = game.vertex_count
    obligations = [CHECK, *sorted(set(game.priorities))]
    unreachable = [set(range(len(obligations))) for _ in range(n * n)]
    for key in oracle_build_delayed_sim_arena(game, bias).payload:
        if key[0] == "cfg":
            _, v, w, k = key
            unreachable[v * n + w].discard(obligations.index(k))
    assert sum(map(len, unreachable)) > 0
    original = pgreduce.simgames._transfer_groups

    def poisoned(*args):
        return [
            [[(base, _PoisonedRow(row, unreachable[j])) for base, row in group] for group in groups]
            for j, groups in enumerate(original(*args))
        ]

    monkeypatch.setattr(pgreduce.simgames, "_transfer_groups", poisoned)
    assert delayed_sim_fixpoint(game, bias) == expected


def test_explore_builds_the_arena_in_one_pass():
    # Ids 0..4 are found through the list, 7 and 10 through the dict.
    spoiler, duplicator = ArenaPlayer.SPOILER, ArenaPlayer.DUPLICATOR
    moves = {
        3: (spoiler, True, [7, 10]),
        7: (duplicator, False, [0, 3]),
        0: (spoiler, False, [10, 0]),
        10: (duplicator, True, [10]),
    }
    calls = []

    def expand(key):
        calls.append(key)
        return moves[key]

    arena = pgreduce.simgames._explore(5, [3, 7, 3, 0], expand)
    assert arena.ids == [3, 7, 0, 10]
    assert arena.start == [0, 1, 0, 2]
    assert arena.edges == [[1, 3], [2, 0], [3, 2], [3]]
    assert arena.predecessors == [[1], [0], [1, 2], [0, 2, 3]]
    assert arena.owners == [spoiler, duplicator, spoiler, duplicator]
    assert arena.accepting == {0, 3}
    assert calls == arena.ids
    assert len(calls) == arena.size


def test_arena_id_space_fails_fast():
    # The stuttering arena of 400 vertices would list 400² · 802 + 1 ids,
    # about 1.28 · 10⁸, so the builder refuses before allocating any.
    game = random_game(400, 8, (1, 2), 1)
    limit = pgreduce.simgames.ARENA_ID_LIMIT
    with pytest.raises(ValueError, match=f"400-vertex game lists 128320001 ids, above the limit of {limit}"):
        build_gstut_arena(game)


_UPDATES = {"none": gamma, "even": gamma_even, "odd": gamma_odd}


@pytest.mark.parametrize("bias", ["none", "even", "odd"])
def test_gamma_table_matches_update_functions(bias):
    update = _UPDATES[bias]
    for levels in (tuple(range(7)), (1, 4, 6), (3,)):
        obligations = [CHECK, *levels]
        table = pgreduce.simgames._gamma_table(levels, bias)
        assert pgreduce.simgames._gamma_table(levels, bias) is table
        assert isinstance(table, tuple)
        p, kk = len(levels), len(obligations)
        assert len(table) == p * p * kk
        for i, pv in enumerate(levels):
            for j, pw in enumerate(levels):
                for k, ob in enumerate(obligations):
                    assert obligations[table[(i * p + j) * kk + k]] == update(pv, pw, ob), (pv, pw, ob)


_BUILDERS = {
    "direct": (build_direct_sim_arena, oracle_build_direct_sim_arena, (None,)),
    "governed": (build_governed_bisim_arena, oracle_build_governed_bisim_arena, (None,)),
    "gstut": (build_gstut_arena, oracle_build_gstut_arena, (None,)),
    "delayed": (build_delayed_sim_arena, oracle_build_delayed_sim_arena, ("none", "even", "odd")),
}


def _packed(arena) -> dict[str, bytes | array]:
    """An arena's owners, moves, accepting positions and starts as flat
    arrays, a few bytes per move, so a corpus of arenas stays small."""
    return {
        "owners": bytes(owner is ArenaPlayer.SPOILER for owner in arena.owners),
        "degrees": array("i", map(len, arena.edges)),
        "moves": array("i", chain.from_iterable(arena.edges)),
        "accepting": array("i", sorted(arena.accepting)),
        "start": array("i", arena.start),
    }


@dataclass(frozen=True, slots=True)
class OracleFacts:
    """What the arena tests compare of one oracle arena: the arena after the
    library builder's transform, packed, whether the oracle's start row
    already names each pair's initial position, each start's Buchi winner
    and, for the stuttering game, the answers of each Duplicator position
    (by the library's id): the sorted ids of the configurations its rounds
    pick from, or None when two of its oracle rounds differ."""

    expected: dict[str, bytes | array]
    starts_agree: bool
    start_won: list[bool]
    answers: dict[int, tuple[int, ...] | None] | None


def _oracle_facts(kind, game, bias) -> OracleFacts:
    _, oracle, _ = _BUILDERS[kind]
    arena = oracle(game) if bias is None else oracle(game, bias)
    start = _start_positions(kind, game, bias, arena)
    won = solve_buchi(arena)
    if kind == "gstut":
        expected = collapse_same_owner_chains(arena, start, gstut_canonical_key(game, arena))
        answers = _gstut_answers(game, arena)
    else:
        expected = fold_same_owner_half_moves(arena)
        answers = None
    return OracleFacts(
        _packed(expected),
        arena.start == start,
        [p in won for p in start],
        answers,
    )


@pytest.fixture(scope="module")
def oracle_facts(exhaustive_corpus, random_corpus):
    """``oracle_facts(kind)`` gives the corpus games and the ``OracleFacts``
    of each game and bias, computed once per module from one oracle build
    each.  Only the facts stay, not the oracle arenas, which are several
    times larger, and nothing a test does changes them."""
    games = exhaustive_corpus + random_corpus + _tail_games()
    cache = {}

    def facts(kind):
        if kind not in cache:
            biases = _BUILDERS[kind][2]
            cache[kind] = [[_oracle_facts(kind, game, bias) for bias in biases] for game in games]
        return games, cache[kind]

    return facts


@pytest.mark.parametrize("kind", list(_BUILDERS))
def test_arena_builders_match_interning_oracle(kind, oracle_facts):
    # Same positions in the same order, hence also the same position and
    # edge counts; ``start`` holds each pair's initial position.  The
    # stuttering builder plays a round as one Spoiler and one Duplicator
    # position, which keeps only what its answers read, so it must match the
    # oracle's arena after the same collapse and the same canonical merge;
    # the other builders fold each half move into the positions of its own
    # owner that move to it, so they must match it after the same fold.
    build, _, biases = _BUILDERS[kind]
    games, facts = oracle_facts(kind)
    for i, (game, per_bias) in enumerate(zip(games, facts)):
        for bias, fact in zip(biases, per_bias):
            arena = build(game) if bias is None else build(game, bias)
            if kind != "gstut":
                assert fact.starts_agree, (i, bias)
            for field, packed in _packed(arena).items():
                assert packed == fact.expected[field], (i, bias, field)


def _gstut_builder_id(game, key) -> int:
    """The library's id of a configuration, the sink or a Duplicator
    position, from its payload or ``gstut_duplicator_key``, after the id
    layout in ``build_gstut_arena``'s docstring."""
    n = game.vertex_count
    cc = 2 * n + 2
    sink = n * n * cc

    def index(c) -> int:
        if c in (CHECK, DAGGER):
            return 0 if c == CHECK else 1
        side, t = c  # (0, t) or (1, t)
        return 2 + side * n + t

    if key[0] == "lose":
        return sink
    if key[0] == "cfg":
        _, v, w, c = key
        return (v * n + w) * cc + index(c)
    _, a, b, s0, s1, left, right = key
    s0, s1 = (n if s is None else s for s in (s0, s1))
    return sink + 1 + (((a * n + b) * cc + index(left)) * cc + index(right)) * (n + 1) ** 2 + s0 * (n + 1) + s1


def _gstut_answers(game, oracle) -> dict[int, tuple[int, ...] | None]:
    """Every pick of the oracle's arena, one position per half move and
    pick, maps to the library's Duplicator position of its round.  Per such
    position's id, the sorted ids of the configurations that the picks of
    each oracle round (its pair, challenge, swap and Spoiler's moves)
    mapping to it choose from, or None when two such rounds differ."""
    # The library's id of each oracle configuration and the sink.
    cfg = {p: _gstut_builder_id(game, key) for p, key in enumerate(oracle.payload) if key[0] in ("cfg", "lose")}
    rounds: dict[tuple, set[int]] = {}
    for p, payload in enumerate(oracle.payload):
        if payload[0] != "pick":
            continue
        key = gstut_duplicator_key(game, payload)
        round_ = (_gstut_builder_id(game, key), payload[1:3], payload[5:], key[3:5])
        rounds.setdefault(round_, set()).update(cfg[q] for q in oracle.edges[p])
    answers: dict[int, tuple[int, ...] | None] = {}
    for (dup, *_), picked in rounds.items():
        ids = tuple(sorted(picked))
        # No position can list the answers of two rounds that differ.
        answers[dup] = ids if answers.get(dup, ids) == ids else None
    return answers


def test_gstut_picks_answer_as_their_duplicator_position(oracle_facts):
    # Each Duplicator position must list exactly the answers of the picks of
    # every oracle round that maps to it, so a challenge or swap that the id
    # drops never changes a move.
    games, facts = oracle_facts("gstut")
    for i, (game, (fact,)) in enumerate(zip(games, facts)):
        arena = build_gstut_arena(game)
        pos_of = {key: p for p, key in enumerate(arena.ids)}
        for dup_id, picked in fact.answers.items():
            dup = pos_of.get(dup_id)
            assert dup is not None and arena.owners[dup] is ArenaPlayer.DUPLICATOR, (i, dup_id)
            assert picked == tuple(sorted({arena.ids[q] for q in arena.edges[dup]})), (i, dup)
        sink = pos_of.get(_gstut_builder_id(game, ("lose",)), -1)
        duplicator = {p for p, owner in enumerate(arena.owners) if owner is ArenaPlayer.DUPLICATOR and p != sink}
        assert duplicator == {pos_of[dup_id] for dup_id in fact.answers}, i


def test_gstut_arena_keeps_every_start_winner(oracle_facts):
    # The collapsed arena against the oracle's, one position per half move.
    games, facts = oracle_facts("gstut")
    for i, (game, (fact,)) in enumerate(zip(games, facts)):
        arena = build_gstut_arena(game)
        won = solve_buchi(arena)
        assert [p in won for p in arena.start] == fact.start_won, i


@pytest.mark.parametrize("kind", ["direct", "governed", "delayed"])
def test_folded_arenas_keep_every_start_winner(kind, oracle_facts):
    # The folded arena against the oracle's, one position per half move.
    build, _, biases = _BUILDERS[kind]
    games, facts = oracle_facts(kind)
    for i, (game, per_bias) in enumerate(zip(games, facts)):
        for bias, fact in zip(biases, per_bias):
            arena = build(game) if bias is None else build(game, bias)
            won = solve_buchi(arena)
            assert [p in won for p in arena.start] == fact.start_won, (i, bias)


def _start_positions(kind, game, bias, arena):
    """Position of (v, w) at the start of a play, looked up by payload."""
    prio = game.priorities
    keys = []
    for v in game.vertices:
        for w in game.vertices:
            if kind == "delayed":
                keys.append(("cfg", v, w, _UPDATES[bias](prio[v], prio[w], CHECK)))
            elif prio[v] != prio[w]:
                keys.append(("lose",))
            else:
                keys.append(("cfg", v, w, CHECK) if kind == "gstut" else ("cfg", v, w))
    return [arena.index[key] for key in keys]
