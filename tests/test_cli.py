import json
import re

import pytest

import fixture_games
from pgreduce import Partition, parse_pgsolver, random_game, serialize_pgsolver
from pgreduce.cli import main
from pgreduce.lattice import compute_relations, lattice_edges


@pytest.fixture
def write_fixture(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.gm"
        path.write_text(fixture_games.ALL_TEXTS[name])
        return path

    return write


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_escape_edge(self, capsys, write_fixture):
        code, out, _ = run(capsys, "solve", write_fixture("escape_edge"))
        assert code == 0
        assert out.splitlines() == ["even: 1 3", "odd: 0 2"]

    def test_single_self_loop(self, capsys, tmp_path):
        path = tmp_path / "one.gm"
        path.write_text("parity 0;\n0 0 0 0;\n")
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        assert out.splitlines() == ["even: 0", "odd:"]

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", tmp_path / "nope.gm")
        assert code == 2
        assert "i/o error" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.gm"
        path.write_text("parity 1;\n0 0 0 ;\n")
        code, _, err = run(capsys, "solve", path)
        assert code == 1
        assert "no successors" in err

    def test_non_utf8_input_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.gm"
        path.write_bytes(b"\xff;")
        code, _, err = run(capsys, "solve", path)
        assert code == 1
        assert err.startswith("parse error:")

    def test_json_report_is_deterministic(self, capsys, write_fixture):
        path = write_fixture("escape_edge")
        code, out1, _ = run(capsys, "solve", path, "--json")
        _, out2, _ = run(capsys, "solve", path, "--json")
        assert code == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["command"] == "solve"
        assert report["regions"] == {"even": [1, 3], "odd": [0, 2]}
        assert set(report) >= {"command", "input", "sizes", "classes", "timings", "verdicts"}

    def test_text_timings_go_to_stderr(self, capsys, write_fixture):
        path = write_fixture("escape_edge")
        _, plain, plain_err = run(capsys, "solve", path)
        code, out, err = run(capsys, "solve", path, "--timings")
        assert code == 0
        assert out == plain
        assert plain_err == ""
        assert re.fullmatch(r"timing solve \d+(\.\d+)? ms\n", err)

    def test_dot_output(self, capsys, write_fixture, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "solve", write_fixture("escape_edge"), "--dot", dot)
        assert code == 0
        assert "shape=diamond" in dot.read_text()


class TestMinimize:
    def test_gstut_fake_divergence(self, capsys, write_fixture, tmp_path):
        out_path, map_path = tmp_path / "q.gm", tmp_path / "q.map"
        code, out, _ = run(
            capsys, "minimize", write_fixture("fake_divergence"),
            "--equiv", "gstut", "--out", out_path, "--map", map_path,
        )
        assert code == 0
        assert "original: 5 vertices" in out
        assert "quotient: 2 vertices" in out
        assert parse_pgsolver(out_path.read_bytes()).vertex_count == 2
        assert map_path.read_text() == "0 0\n1 0\n2 1\n3 0\n4 0\n"

    def test_governed_single_move_owners(self, capsys, write_fixture, tmp_path):
        code, out, _ = run(
            capsys, "minimize", write_fixture("single_move_owners"),
            "--equiv", "governed-bisim",
            "--out", tmp_path / "q.gm", "--map", tmp_path / "q.map",
        )
        assert code == 0
        assert "quotient: 2 vertices" in out

    def test_strong_bisim_already_minimal(self, capsys, write_fixture, tmp_path):
        code, out, _ = run(
            capsys, "minimize", write_fixture("single_move_owners"),
            "--equiv", "strong-bisim",
            "--out", tmp_path / "q.gm", "--map", tmp_path / "q.map",
        )
        assert code == 0
        assert "quotient: 3 vertices" in out

    def test_unknown_equiv(self, capsys, write_fixture, tmp_path):
        code, _, err = run(
            capsys, "minimize", write_fixture("escape_edge"),
            "--equiv", "weak", "--out", tmp_path / "q.gm", "--map", tmp_path / "q.map",
        )
        assert code == 1
        assert "supported" in err and "gstut" in err


class TestCompare:
    def test_cross_owner_facts(self, capsys, write_fixture):
        code, out, _ = run(capsys, "compare", write_fixture("cross_owner"), 0, 6)
        assert code == 0
        table = dict(line.split(": ") for line in out.splitlines())
        assert table["governed-bisim"] == "yes"
        assert table["strong-direct-sim-equiv"] == "no"
        assert table["direct-sim-equiv"] == "yes"
        assert table["gstut"] == "yes"
        assert table["winner"] == "yes"

    def test_reflexive_everywhere(self, capsys, write_fixture):
        code, out, _ = run(capsys, "compare", write_fixture("escape_edge"), 2, 2)
        assert code == 0
        assert all(line.endswith(": yes") for line in out.splitlines())

    def test_fake_divergence_incomparability(self, capsys, write_fixture):
        code, out, _ = run(capsys, "compare", write_fixture("fake_divergence"), 3, 4)
        assert code == 0
        table = dict(line.split(": ") for line in out.splitlines())
        assert table["stut"] == "yes"
        assert table["direct-sim-equiv"] == "no"

    def test_finest_to_coarsest_order(self, capsys, write_fixture):
        _, out, _ = run(capsys, "compare", write_fixture("escape_edge"), 0, 1)
        names = [line.split(":")[0] for line in out.splitlines()]
        assert names[0] == "iso" and names[-1] == "winner"
        assert names.index("strong-bisim") < names.index("gstut")

    def test_bad_vertex_id(self, capsys, write_fixture):
        code, _, err = run(capsys, "compare", write_fixture("escape_edge"), 0, 9)
        assert code == 1
        assert "vertex ids" in err


class TestLatticeCheck:
    def test_fixture_file(self, capsys, write_fixture):
        code, out, _ = run(capsys, "lattice-check", write_fixture("cross_owner"))
        assert code == 0
        assert "fail" not in out
        assert "pass iso refines strong-bisim" in out

    def test_random_batch(self, capsys):
        code, out, _ = run(
            capsys, "lattice-check", "--random", "6", "--seeds", "1", "2", "3"
        )
        assert code == 0
        assert out.count("pass") >= 3 * 20

    def test_needs_input_or_random(self, capsys):
        code, _, err = run(capsys, "lattice-check")
        assert code == 1
        assert "needs" in err

    def test_input_and_random_together_rejected(self, capsys, write_fixture):
        code, out, err = run(capsys, "lattice-check", write_fixture("cross_owner"), "--random", 3)
        assert code == 1
        assert out == ""
        assert "not both" in err

    @pytest.mark.parametrize(
        "flag", [("--seeds", 1), ("--max-priority", 2), ("--degree", "x:y")], ids=lambda flag: flag[0]
    )
    def test_random_game_flags_rejected_with_input_file(self, capsys, write_fixture, flag):
        # They shape the games of --random N; with a file they would be ignored.
        code, out, err = run(capsys, "lattice-check", write_fixture("cross_owner"), *flag)
        assert code == 1
        assert out == ""
        assert f"{flag[0]} shapes the games of --random N, not an input file" in err

    def test_isomorphism_size_limit(self, capsys, tmp_path):
        path = tmp_path / "big.gm"
        path.write_bytes(serialize_pgsolver(random_game(65, 3, (1, 3), 1)))
        code, _, err = run(capsys, "lattice-check", path)
        assert code == 1
        assert "isomorphism check limited to 64 vertices" in err

    def test_corrupted_relation_names_the_edge(self, escape_edge):
        relations = compute_relations(escape_edge)
        # Vertex 0 alone: winner now misses pairs that delayed equivalence has.
        winner = relations["winner"]
        relations["winner"] = Partition.from_class_of(winner.universe, [-1, *winner.class_of[1:]])
        results = lattice_edges(relations)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["delayed-equiv refines winner", "gstut refines winner"]


class TestVerify:
    def test_fake_divergence_gstut(self, capsys, write_fixture):
        code, out, _ = run(
            capsys, "verify", write_fixture("fake_divergence"), "--equiv", "gstut"
        )
        assert code == 0
        assert "winners-preserved: pass" in out
        assert "quotient-equivalent: pass" in out

    def test_escape_edge_direct(self, capsys, write_fixture):
        code, _, _ = run(
            capsys, "verify", write_fixture("escape_edge"), "--equiv", "direct-sim"
        )
        assert code == 0

    def test_random_game_all_equivs(self, capsys, tmp_path):
        path = tmp_path / "r.gm"
        code, _, _ = run(capsys, "random", "--vertices", "10", "--seed", "5",
                         "--degree", "1:3", "--out", path)
        assert code == 0
        for equiv in ("strong-bisim", "governed-bisim", "stut", "gstut", "direct-sim"):
            code, _, _ = run(capsys, "verify", path, "--equiv", equiv)
            assert code == 0, equiv


@pytest.mark.parametrize(
    "argv",
    [("verify", "--equiv", "gstut"), ("compare", "0", "1"), ("lattice-check",)],
    ids=lambda argv: argv[0],
)
def test_dot_rejected_where_no_game_is_produced(argv, capsys, write_fixture, tmp_path):
    command, *rest = argv
    dot = tmp_path / "p"
    code, _, err = run(capsys, command, write_fixture("escape_edge"), *rest, "--dot", dot)
    assert code == 1
    assert "--dot" in err
    assert not dot.exists()


@pytest.mark.parametrize("argv", [("random", "--vertices", 3), ("lattice-check", "--random", 3)])
def test_negative_max_priority_rejected(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-priority", -1)
    assert code == 1
    assert out == ""
    assert "max priority -1 is negative" in err


class TestRandom:
    def test_deterministic_output(self, capsys):
        code, out1, _ = run(capsys, "random", "--vertices", "6", "--seed", "9")
        _, out2, _ = run(capsys, "random", "--vertices", "6", "--seed", "9")
        assert code == 0
        assert out1 == out2
        assert parse_pgsolver(out1).vertex_count == 6

    def test_bad_degree_spec(self, capsys):
        code, _, err = run(capsys, "random", "--vertices", "4", "--degree", "x")
        assert code == 1
        assert "lo:hi" in err

    def test_priority_beyond_file_format_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.gm"
        code, out, err = run(
            capsys, "random", "--vertices", 3, "--max-priority", 10**20, "--out", path
        )
        assert code == 1
        assert out == ""
        assert "above 2147483647" in err
        assert not path.exists()

    def test_json_without_out_rejected(self, capsys):
        # The report would take the game's place on stdout, so the game
        # would be written nowhere.
        code, out, err = run(capsys, "random", "--vertices", 3, "--json")
        assert code == 1
        assert out == ""
        assert "--out" in err

    def test_timings_stamp_random(self, capsys, tmp_path):
        path = tmp_path / "g.gm"
        code, out, _ = run(capsys, "random", "--vertices", 3, "--out", path, "--json", "--timings")
        assert code == 0
        assert list(json.loads(out)["timings"]) == ["random"]
        assert parse_pgsolver(path.read_bytes()).vertex_count == 3

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["minimize"]) == 1
