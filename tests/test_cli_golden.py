"""Golden CLI output: one sha256 over argv, exit code, stdout and stderr.

The quivers below go through every subcommand and ``--format``, plus
``verify --field fp:1000003``, a few ``random`` calls and two failing
runs (a path-cap overflow and a DSL error).  The digest was
recorded before the structural pass read its path components off the
reachability rows, so a change that moves a byte of CLI output fails here.
The same runs with ``structure._matrix`` patched to raise pin that no
library path behind the CLI builds a bool matrix.
"""

import hashlib
import io
import json

import pytest

from commalg import structure, to_dsl
from commalg.cli import run
from commalg.randgen import random_quiver, random_sparse_quiver
from quiver_examples import (
    kronecker_quiver,
    oriented_cycle,
    six_cycle,
    six_cycle_with_chord,
    three_block_quiver,
    triangle,
    two_block_quiver,
)

GOLDEN_SHA256 = "2cc59991d3f68e8cd28f5f89ecbad8dae06db84566f50e047eccfa9254322e9e"

VARIANTS = (
    ["parse"], ["parse", "--format", "pretty"], ["parse", "--format", "dot"],
    ["components"], ["components", "--format", "pretty"],
    ["blockform"], ["blockform", "--format", "pretty"],
    ["skeleton"], ["skeleton", "--format", "pretty"], ["skeleton", "--format", "dot"],
    ["incidence"],
    ["gldim"], ["gldim", "--format", "pretty"],
    ["verify"], ["verify", "--format", "pretty"], ["verify", "--field", "fp:1000003"],
)


def golden_quivers():
    yield two_block_quiver()
    yield three_block_quiver()
    yield six_cycle()
    yield six_cycle_with_chord()
    yield triangle()
    yield kronecker_quiver(2)
    yield oriented_cycle(3)
    for seed in range(8):  # loops and parallel arrows allowed
        yield random_quiver(2 + seed % 4, 3 + seed % 5, seed)
    for seed in range(5):
        yield random_sparse_quiver(4 + seed % 3, 6 + seed % 3, 100 + seed)


def golden_digest(monkeypatch, capsys) -> str:
    digest = hashlib.sha256()

    def record(argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
        code = run(argv)
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode())

    for quiver in golden_quivers():
        text = to_dsl(quiver)
        for variant in VARIANTS:
            record(variant + ["-"], text)
    for seed in range(3):
        record(["random", "--vertices", "5", "--arrows", "7", "--seed", str(seed)])
    record(["verify", "--path-cap", "3", "-"], to_dsl(two_block_quiver()))
    record(["parse", "-"], "quiver Q {\n  vertices: v, v;\n}\n")
    return digest.hexdigest()


def test_cli_output_matches_golden_digest(monkeypatch, capsys):
    assert golden_digest(monkeypatch, capsys) == GOLDEN_SHA256


def test_no_cli_path_builds_a_bool_matrix(monkeypatch, capsys):
    def refuse(rows):
        pytest.fail("a bool matrix was built")

    monkeypatch.setattr(structure, "_matrix", refuse)
    assert golden_digest(monkeypatch, capsys) == GOLDEN_SHA256
