import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from commalg import InternalInvariantError, parse_quiver
from commalg import cli
from commalg.cli import run
from quiver_examples import THREE_BLOCK_DSL, TWO_BLOCK_DSL

BAD_DSL = "quiver Q {\n  vertices: v, v;\n}\n"


@pytest.fixture
def two_block_file(tmp_path):
    path = tmp_path / "two_block.quiver"
    path.write_text(TWO_BLOCK_DSL)
    return str(path)


@pytest.fixture
def three_block_file(tmp_path):
    path = tmp_path / "three_block.quiver"
    path.write_text(THREE_BLOCK_DSL)
    return str(path)


def run_cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_json(two_block_file, capsys):
    code, out, err = run_cli(["parse", two_block_file], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["name"] == "two_block"
    assert doc["vertices"][0] == "v1"
    assert len(doc["arrows"]) == 8
    assert doc["arrows"][0] == {
        "name": "a1", "source": "v1", "target": "v2", "weight": "1",
    }


def test_parse_pretty_roundtrips(two_block_file, capsys):
    code, out, _ = run_cli(["parse", "--format", "pretty", two_block_file], capsys)
    assert code == 0
    assert parse_quiver(out) == parse_quiver(TWO_BLOCK_DSL)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text(BAD_DSL)
    code, out, err = run_cli(["parse", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["parse", "/nonexistent/q.quiver"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_components_json(two_block_file, capsys):
    code, out, _ = run_cli(["components", two_block_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [["v1", "v2", "v3", "v4"], ["v5", "v6"]]
    assert doc["order"] == ["v1", "v2", "v3", "v4", "v5", "v6"]


def test_blockform_json(two_block_file, capsys):
    code, out, _ = run_cli(["blockform", two_block_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["block_sizes"] == [4, 2]
    assert doc["component_pattern"] == ["11", "01"]
    assert doc["pattern"] == [
        "111111", "111111", "111111", "111111", "000011", "000011",
    ]
    assert doc["total_dimension"] == 28
    assert doc["field"] == "QQ"


def test_blockform_pretty(two_block_file, capsys):
    code, out, _ = run_cli(
        ["blockform", "--format", "pretty", two_block_file], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "K K K K K K",
        "K K K K K K",
        "K K K K K K",
        "K K K K K K",
        "0 0 0 0 K K",
        "0 0 0 0 K K",
    ]


def test_blockform_prime_field(two_block_file, capsys):
    code, out, _ = run_cli(
        ["blockform", "--field", "fp:7", two_block_file], capsys
    )
    assert code == 0
    assert json.loads(out)["field"] == "F7"


def test_bad_field_spec(two_block_file, capsys):
    code, _, err = run_cli(
        ["blockform", "--field", "fp:6", two_block_file], capsys
    )
    assert code == 1 and "error:" in err


def test_skeleton_json(three_block_file, capsys):
    code, out, _ = run_cli(["skeleton", three_block_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == ["x1", "x5", "x6"]
    assert doc["representatives"] == ["x1", "x5", "x6"]
    assert doc["leq"] == ["111", "011", "001"]
    assert doc["covers"] == [["x1", "x5"], ["x5", "x6"]]
    assert doc["incidence_dimension"] == 6


def test_skeleton_dot(two_block_file, capsys):
    code, out, _ = run_cli(["skeleton", "--format", "dot", two_block_file], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert '"v1" -> "v5"' in out


def test_incidence_json(two_block_file, capsys):
    code, out, _ = run_cli(["incidence", two_block_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [["v1", "v1"], ["v1", "v5"], ["v5", "v5"]]
    assert doc["dimension"] == 3


def test_gldim_json(three_block_file, capsys):
    code, out, _ = run_cli(["gldim", three_block_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == ["x1", "x5", "x6"]
    assert doc["global_dimension"] == 1
    assert doc["chain_bound"] == 3
    assert doc["bound"] == "PASS"
    assert len(doc["projective_dimensions"]) == 3


def test_verify_json(two_block_file, capsys):
    code, out, _ = run_cli(["verify", "--trunc", "8", two_block_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["truncation"] == 8
    names = [p["name"] for p in doc["properties"]]
    assert names == [
        "block_form",
        "oracle_equivalence",
        "vertex_nondegeneracy",
        "skeleton_iso_incidence",
        "idempotence",
        "gldim_bound",
    ]
    assert all(p["pass"] for p in doc["properties"])
    assert doc["overall"] == "PASS"
    assert len(doc["pairs"]) == 36
    for pair in doc["pairs"]:
        assert set(pair) == {
            "source", "target", "path_count", "relation_rank",
            "dimension", "certified",
        }


def test_verify_pretty(two_block_file, capsys):
    code, out, _ = run_cli(
        ["verify", "--trunc", "8", "--format", "pretty", two_block_file], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS block_form"
    assert lines[-1] == "OVERALL PASS"
    assert sum(1 for ln in lines if ln.startswith("PASS ")) == 6


def test_verify_default_truncation(two_block_file, capsys):
    # default cutoff is n + 2 and must be accepted
    code, out, _ = run_cli(["verify", two_block_file], capsys)
    assert code == 0
    assert json.loads(out)["truncation"] == 8


def test_verify_truncation_too_small(two_block_file, capsys):
    code, _, err = run_cli(["verify", "--trunc", "3", two_block_file], capsys)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("dsl", [
    "quiver Q { vertices: a; }\n",
    "quiver Q { vertices: a, b; x: a -> b; y: b -> a; }\n",
])
def test_verify_rejects_a_negative_path_cap(dsl, tmp_path, capsys):
    # with and without an arrow to walk: the cap is checked before any count
    path = tmp_path / "q.quiver"
    path.write_text(dsl)
    code, out, err = run_cli(["verify", "--path-cap", "-3", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: path cap must be nonnegative\n"


def test_random_roundtrip(capsys):
    code, out, _ = run_cli(
        ["random", "--vertices", "5", "--arrows", "9", "--seed", "7"], capsys
    )
    assert code == 0
    q = parse_quiver(out)
    assert q.n == 5 and len(q.arrows) == 9


def test_random_is_seeded(capsys):
    args = ["random", "--vertices", "4", "--arrows", "6", "--seed", "11"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    _, other, _ = run_cli(
        ["random", "--vertices", "4", "--arrows", "6", "--seed", "12"], capsys
    )
    assert other != first


def test_output_to_file(two_block_file, tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = run_cli(
        ["blockform", "--out", str(dest), two_block_file], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["total_dimension"] == 28


def test_deterministic_output(two_block_file, capsys):
    _, first, _ = run_cli(["verify", "--trunc", "8", two_block_file], capsys)
    _, second, _ = run_cli(["verify", "--trunc", "8", two_block_file], capsys)
    assert first == second


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(TWO_BLOCK_DSL.encode())))
    code, out, _ = run_cli(["components", "-"], capsys)
    assert code == 0
    assert json.loads(out)["components"][1] == ["v5", "v6"]


def test_module_entry_point(two_block_file):
    proc = subprocess.run(
        [sys.executable, "-m", "commalg", "blockform", two_block_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_dimension"] == 28


def test_alternating_runs_write_what_separate_processes_write(three_block_file, capsys):
    # run reuses one parser for the process; no call may leak into the next
    invocations = [
        ["gldim", "--format", "pretty", three_block_file],
        ["blockform", three_block_file],
        ["gldim", three_block_file],
    ]
    for argv in invocations:
        proc = subprocess.run([sys.executable, "-m", "commalg", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert run_cli(argv, capsys) == (0, proc.stdout, "")


def test_module_entry_point_error():
    proc = subprocess.run(
        [sys.executable, "-m", "commalg", "parse", "-"],
        input=BAD_DSL,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_verify_cycle(capsys, tmp_path):
    from quiver_examples import SIX_CYCLE_DSL

    path = tmp_path / "c6.quiver"
    path.write_text(SIX_CYCLE_DSL)
    code, out, _ = run_cli(["verify", "--trunc", "8", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["overall"] == "PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ["blockform", "--format", "dot"],
        ["components", "--format", "dot"],
        ["gldim", "--format", "dot"],
        ["verify", "--format", "dot"],
        ["incidence", "--format", "pretty"],
        ["incidence", "--format", "dot"],
    ],
)
def test_unrendered_format_is_a_usage_error(argv, two_block_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + [two_block_file])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, shorthand, fmt",
    [("blockform", "--pretty", "pretty"), ("skeleton", "--dot", "dot")],
)
def test_format_shorthands(command, shorthand, fmt, two_block_file, capsys):
    assert run_cli([command, shorthand, two_block_file], capsys) == run_cli(
        [command, "--format", fmt, two_block_file], capsys
    )


def _count_stages(monkeypatch, argv, capsys):
    """Run the CLI; count commuting-algebra builds, longest-chain passes and
    Tarjan runs."""
    import commalg.structure
    from commalg.algebra import CommutingAlgebra

    counts = {"builds": 0, "chains": 0, "components": 0}
    init, chain = CommutingAlgebra.__init__, commalg.structure._longest_chain
    components = commalg.structure._components

    def counted_init(self, *args, **kwargs):
        counts["builds"] += 1
        init(self, *args, **kwargs)

    def counted_chain(*args):
        counts["chains"] += 1
        return chain(*args)

    def counted_components(*args):
        counts["components"] += 1
        return components(*args)

    monkeypatch.setattr(CommutingAlgebra, "__init__", counted_init)
    monkeypatch.setattr(commalg.structure, "_longest_chain", counted_chain)
    monkeypatch.setattr(commalg.structure, "_components", counted_components)
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    return counts


def test_verify_builds_each_stage_once(monkeypatch, two_block_file, capsys):
    # the quiver's algebra, then its skeleton's Hasse quiver for idempotence
    counts = _count_stages(monkeypatch, ["verify", two_block_file], capsys)
    assert counts == {"builds": 2, "chains": 1, "components": 2}


def test_gldim_builds_each_stage_once(monkeypatch, tmp_path, capsys):
    from commalg.dsl import to_dsl
    from commalg.poset import hasse_quiver
    from commalg.randgen import random_poset

    path = tmp_path / "poset.quiver"
    path.write_text(to_dsl(hasse_quiver(random_poset(16, 16016, 0.3))))
    counts = _count_stages(monkeypatch, ["gldim", str(path)], capsys)
    assert counts == {"builds": 1, "chains": 1, "components": 1}


def test_blockform_builds_each_stage_once(monkeypatch, two_block_file, capsys):
    counts = _count_stages(monkeypatch, ["blockform", two_block_file], capsys)
    assert counts == {"builds": 1, "chains": 0, "components": 1}


def test_gldim_sorts_the_skeleton_order_once(monkeypatch, tmp_path, capsys):
    # once, shared by the component order, the Mobius pass and the chain bound
    import sys

    import commalg.structure

    code, text, _ = run_cli(["random", "--vertices", "6", "--arrows", "12", "--seed", "1"],
                            capsys)
    assert code == 0
    path = tmp_path / "random.quiver"
    path.write_text(text)
    sorts, sort = [], commalg.structure._topological_order

    def counted(rows):
        sorts.append(len(rows))
        return sort(rows)

    for name, module in list(sys.modules.items()):  # every module that binds it
        if name.startswith("commalg") and getattr(module, "_topological_order", None) is sort:
            monkeypatch.setattr(module, "_topological_order", counted)
    assert run_cli(["gldim", str(path)], capsys)[0] == 0
    assert len(sorts) == 1


def test_verify_reads_vertex_nondegeneracy_off_the_report(
    monkeypatch, two_block_file, capsys
):
    # one packed pass at the default truncation and cap, above n - 1 so with
    # no uncapped pass, no per-pair oracle call and no walk list; one count
    # per ordered vertex pair, none repeated for the diagonal
    import commalg.oracle
    from commalg.quiver import WalkCounts, WalksFrom

    passes, reads = [], []
    build, count = WalkCounts.__init__, WalkCounts.count

    def built(self, quiver, max_length, cap=None):
        passes.append((quiver.n, max_length, cap))
        build(self, quiver, max_length, cap)

    def counted(self, source, target):
        reads.append((source, target))
        return count(self, source, target)

    def refuse(*args, **kwargs):
        pytest.fail("verify read the oracle pair by pair")

    monkeypatch.setattr(WalkCounts, "__init__", built)
    monkeypatch.setattr(WalkCounts, "count", counted)
    monkeypatch.setattr(WalksFrom, "__init__", refuse)
    monkeypatch.setattr(commalg.oracle, "truncated_hom_dimension", refuse)
    code, out, _ = run_cli(["verify", two_block_file], capsys)
    assert code == 0
    assert passes == [(6, 8, commalg.oracle.DEFAULT_PATH_CAP)]
    assert len(reads) == len(set(reads)) == 36
    properties = {p["name"]: p["pass"] for p in json.loads(out)["properties"]}
    assert properties["vertex_nondegeneracy"] is True


@pytest.mark.parametrize("command", ["gldim", "skeleton"])
def test_field_is_rejected_where_output_ignores_it(command, two_block_file, capsys):
    # gldim is computed over QQ only, and the skeleton does not depend on the field
    with pytest.raises(SystemExit) as exc:
        run([command, "--field", "fp:2", two_block_file])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field" in capsys.readouterr().err


NOT_UTF8 = b"quiver Q { vertices: v\xff; }"


def test_file_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_cli(["parse", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: input is not UTF-8: byte 0xff at offset 22\n"


def test_strict_stdin_not_utf8_exit_code(monkeypatch, capsys):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(["parse", "-"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: input is not UTF-8: byte 0xff at offset 22\n"


def test_surrogateescape_stdin_not_utf8_exit_code(monkeypatch, capsys):
    # stdin is read as bytes, so the locale's error handler does not matter
    import io

    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(["parse", "-"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: input is not UTF-8: byte 0xff at offset 22\n"


def test_lone_cr_is_not_a_line_end_in_a_file_or_on_stdin(tmp_path, monkeypatch, capsys):
    import io

    text = b"quiver Q {\r  vertices: v;\r  a: v -> w;\r}\r"
    expected = "error: line 1, column 37: undeclared vertex 'w'\n"
    path = tmp_path / "cr.quiver"
    path.write_bytes(text)
    assert run_cli(["parse", str(path)], capsys) == (1, "", expected)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text)))
    assert run_cli(["parse", "-"], capsys) == (1, "", expected)


def _raise_internal(*args, **kwargs):
    raise InternalInvariantError("stage broke")


@pytest.mark.parametrize("command", ["skeleton", "incidence", "gldim", "verify"])
def test_internal_error_exits_2_with_one_line(command, two_block_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "skeleton", _raise_internal)
    code, out, err = run_cli([command, two_block_file], capsys)
    assert code == 2
    assert out == ""
    assert err == "internal error: stage broke\n"


def test_verify_reports_a_failed_iso_check(two_block_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "skeleton_iso_incidence", _raise_internal)
    code, out, err = run_cli(["verify", "--format", "pretty", two_block_file], capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert "FAIL skeleton_iso_incidence" in lines
    assert lines[-1] == "OVERALL FAIL"
    assert sum(line.startswith("FAIL ") for line in lines) == 1


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**40)
    | st.floats() | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é☃😀", ""])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({"quote \" and \\": ["\n\t\x01", "naïve ☃ 😀", 10**60, -(10**60)]})
@example([[], {}, (), [[]], {"a": {}}, ({"b": ()},), None, True, False, 0])
def test_json_writes_the_bytes_of_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2) + "\n"


def test_json_refuses_what_json_dumps_refuses():
    for obj in ([object()], {"a": {1, 2}}):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as caught:
            cli._json(obj)
        assert str(caught.value) == str(expected.value)
    with pytest.raises(TypeError):  # no payload has a key other than a string
        cli._json({1: "one"})
