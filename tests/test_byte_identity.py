"""CLI outputs pinned byte for byte.

SHA-256 digests of what ``minimize`` writes (quotient game and class map)
and of ``verify --json`` for the fixture games and two random games, under
every equivalence, plus ``compare --json`` and ``lattice-check --json`` on
the fixtures.  A refactor that must not change behaviour keeps every
digest.  A change that means to alter an output re-records the file with
``PYTHONPATH=src python tests/test_byte_identity.py`` and says why.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import fixture_games
from pgreduce import random_game, serialize_pgsolver
from pgreduce.cli import main

RECORD = Path(__file__).with_name("byte_identity.json")
EQUIVS = ("strong-bisim", "governed-bisim", "stut", "gstut", "direct-sim")
RANDOM_GAMES = {"random-20": (20, 20), "random-60": (60, 60)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([str(a) for a in argv])
    return out.getvalue().encode("utf-8")


def _games() -> dict[str, bytes]:
    games = {name: text.encode("utf-8") for name, text in fixture_games.ALL_TEXTS.items()}
    for name, (n, seed) in RANDOM_GAMES.items():
        games[name] = serialize_pgsolver(random_game(n, 2, (1, 2), seed))
    return games


def digests() -> dict[str, str]:
    cwd = os.getcwd()
    # lattice-check names its input path in the report, so paths are relative.
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return _digests_here()
        finally:
            os.chdir(cwd)


def _digests_here() -> dict[str, str]:
    out = {}
    q, m = Path("q.gm"), Path("q.map")
    for name, data in _games().items():
        path = Path(f"{name}.gm")
        path.write_bytes(data)
        for equiv in EQUIVS:
            _run("minimize", path, "--equiv", equiv, "--out", q, "--map", m)
            out[f"{name} {equiv} quotient"] = _sha(q.read_bytes())
            out[f"{name} {equiv} class-map"] = _sha(m.read_bytes())
            out[f"{name} {equiv} verify"] = _sha(_run("verify", path, "--equiv", equiv, "--json"))
        if name in fixture_games.ALL_TEXTS:
            out[f"{name} compare"] = _sha(_run("compare", path, 0, 1, "--json"))
            out[f"{name} lattice-check"] = _sha(_run("lattice-check", path, "--json"))
    return out


def test_cli_outputs_unchanged():
    expected = json.loads(RECORD.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    RECORD.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
