import ast
import re
import time
from fractions import Fraction

import pytest

from commalg import ParseError, Quiver, QuiverError, dsl, parse_quiver, to_dsl
from commalg.randgen import random_quiver, random_weights
import random


def test_parse_minimal():
    q = parse_quiver("quiver Q { vertices: v; }")
    assert q.name == "Q"
    assert q.vertices == ("v",)
    assert q.arrows == ()


def test_parse_full():
    text = """
    # a small example
    quiver K2 {
      vertices: v, w;   # two of them
      a: v -> w;
      b: v -> w [weight = 3/2];
      c: w -> w [weight = -2];
    }
    """
    q = parse_quiver(text)
    assert q.vertices == ("v", "w")
    assert [a.name for a in q.arrows] == ["a", "b", "c"]
    assert q.arrow("c").source == q.arrow("c").target == "w"
    assert q.weights == {"b": Fraction(3, 2), "c": Fraction(-2)}


def test_parse_weight_one_dropped():
    q = parse_quiver("quiver Q { vertices: v; a: v -> v [weight = 2/2]; }")
    assert q.weights == {}


def _err(text):
    with pytest.raises(ParseError) as exc:
        parse_quiver(text)
    return exc.value


def test_error_positions():
    e = _err("quiver Q {\n  vertices: v, v;\n}")
    assert (e.line, e.column) == (2, 16)
    assert "duplicate vertex" in str(e)
    assert "line 2, column 16" in str(e)

    e = _err("quiver Q {\n  vertices: v;\n  a: v -> w;\n}")
    assert (e.line, e.column) == (3, 11)
    assert "undeclared vertex 'w'" in str(e)

    e = _err("quiver Q {\n  vertices: v;\n  a: v -> v;\n  a: v -> v;\n}")
    assert e.line == 4
    assert "duplicate arrow" in str(e)

    e = _err("quiver Q {\n  vertices: v;\n  a: v -> v [weight = 0/5];\n}")
    assert e.line == 3
    assert "nonzero" in str(e)


def test_error_syntax():
    e = _err("quiver Q { vertices v; }")
    assert "expected ':'" in str(e)
    e = _err("graph Q { vertices: v; }")
    assert "expected 'quiver'" in str(e)
    e = _err("quiver Q { vertices: v; } trailing")
    assert "trailing" in str(e)
    e = _err("quiver Q { vertices: v; a: v -> v [weight = 1/0]; }")
    assert "denominator" in str(e)
    e = _err("quiver Q { vertices: v; a: v -> v [weight = x]; }")
    assert "rational" in str(e)
    e = _err("quiver Q {")
    assert "end of input" in str(e)


# one failure per expected token: keyword, punctuation, each identifier
# role and each number, pinned as full message, line and column
@pytest.mark.parametrize("text, message, line, column", [
    ("graph Q { vertices: v; }", "expected 'quiver', found 'graph'", 1, 1),
    ("quiver { vertices: v; }", "expected quiver name, found '{'", 1, 8),
    ("quiver Q vertices: v; }", "expected '{', found 'vertices'", 1, 10),
    ("quiver Q { edges: v; }", "expected 'vertices', found 'edges'", 1, 12),
    ("quiver Q { vertices v; }", "expected ':', found 'v'", 1, 21),
    ("quiver Q { vertices: ; }", "expected vertex identifier, found ';'", 1, 22),
    ("quiver Q { vertices: v w; }", "expected ';', found 'w'", 1, 24),
    ("quiver Q {\n  vertices: v;\n  -> v;\n}",
     "expected arrow identifier, found '->'", 3, 3),
    ("quiver Q {\n  vertices: v;\n",
     "expected arrow identifier, found end of input", 3, 1),
    ("quiver Q { vertices: v; a v -> v; }", "expected ':', found 'v'", 1, 27),
    ("quiver Q { vertices: v; a: ; }", "expected source vertex, found ';'", 1, 28),
    ("quiver Q { vertices: v; a: v v; }", "expected '->', found 'v'", 1, 30),
    ("quiver Q { vertices: v; a: v -> ; }", "expected target vertex, found ';'", 1, 33),
    ("quiver Q { vertices: v; a: v -> v [wt = 2]; }",
     "expected 'weight', found 'wt'", 1, 36),
    ("quiver Q { vertices: v; a: v -> v [weight 2]; }", "expected '=', found '2'", 1, 43),
    ("quiver Q { vertices: v; a: v -> v [weight = x]; }",
     "expected a rational number, found 'x'", 1, 45),
    ("quiver Q { vertices: v; a: v -> v [weight = 1/]; }",
     "expected a denominator, found ']'", 1, 47),
    ("quiver Q { vertices: v; a: v -> v [weight = 2; }", "expected ']', found ';'", 1, 46),
    ("quiver Q { vertices: v; a: v -> v [weight = 2] }", "expected ';', found '}'", 1, 48),
    # the scanner's own positions: a bad character, "\r\n" and tabs, a
    # comment that runs to the end of the text
    ("quiver Q { vertices: v; a: v @ v; }", "unexpected character '@'", 1, 30),
    ("quiver Q {\r\n  vertices: v;\r\n  a: v -> w;\r\n}\r\n",
     "undeclared vertex 'w'", 3, 11),
    ("quiver Q {\n\tvertices: v;\n\ta: v -> w;\n}\n", "undeclared vertex 'w'", 3, 10),
    ("quiver Q { # no newline", "expected 'vertices', found end of input", 1, 24),
])
def test_expected_token_messages(text, message, line, column):
    e = _err(text)
    assert str(e) == f"line {line}, column {column}: {message}"
    assert (e.line, e.column) == (line, column)


def test_error_unexpected_character():
    e = _err("quiver Q { vertices: v; a: v @ v; }")
    assert "'@'" in str(e)
    assert e.line == 1


def test_missing_arrow_operator():
    e = _err("quiver Q { vertices: v; a: v v; }")
    assert "expected '->'" in str(e)


def test_negative_integer_weight():
    q = parse_quiver("quiver Q { vertices: v; a: v -> v [weight = -3]; }")
    assert q.weight("a") == -3


def test_to_dsl_roundtrip_examples(two_block, three_block, cycle6_chord):
    for q in (two_block, three_block, cycle6_chord):
        assert parse_quiver(to_dsl(q)) == q


@pytest.mark.parametrize("seed", range(20))
def test_to_dsl_roundtrip_random(seed):
    rng = random.Random(seed)
    q = random_quiver(rng.randint(1, 8), rng.randint(0, 14), rng)
    weighted = Quiver(q.vertices, q.arrows, random_weights(q, rng).weights,
                      name=q.name)
    assert parse_quiver(to_dsl(weighted)) == weighted


def test_to_dsl_rejects_bad_identifiers():
    q = Quiver(["a b"], name="Q")
    with pytest.raises(QuiverError):
        to_dsl(q)


def test_to_dsl_shape(triangle_quiver):
    text = to_dsl(triangle_quiver)
    lines = text.splitlines()
    assert lines[0].startswith("quiver ") and lines[0].endswith("{")
    assert lines[1].strip().startswith("vertices:")
    assert lines[-1] == "}"
    assert text.endswith("\n")


_MUTATIONS = list("{}:;,[]=/->#0'\"\t\r\x0c") + ["\u00e9", "\r\n"]
_QUOTED = re.compile(r"(?:found|character|identifier|vertex|input) ('.*'|\".*\")$")


def _mutated_corpus(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        q = random_quiver(rng.randint(1, 6), rng.randint(0, 8), rng)
        text = to_dsl(Quiver(q.vertices, q.arrows, random_weights(q, rng).weights,
                             name=q.name))
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(text))
            if rng.random() < 0.6:
                text = text[:at] + rng.choice(_MUTATIONS) + text[at:]
            else:
                text = text[:at] + text[at + rng.randint(1, 3):]
        yield text


def _assert_points_at_token(text, e):
    message = str(e).split(": ", 1)[1]
    lines = text.split("\n")
    assert 1 <= e.line <= len(lines) and 1 <= e.column <= len(lines[e.line - 1]) + 1
    offset = sum(len(line) + 1 for line in lines[:e.line - 1]) + e.column - 1
    quoted = _QUOTED.search(message)
    if message.endswith("end of input"):
        assert offset == len(text), (text, str(e))
    elif quoted:
        token = ast.literal_eval(quoted.group(1))
        assert text.startswith(token, offset), (text, str(e))
    else:
        assert message in ("weight must be nonzero",
                           "denominator must be a positive integer"), message
        assert text[offset] == "-" or text[offset].isdigit(), (text, str(e))


def test_error_positions_point_at_the_token():
    errors = 0
    for text in _mutated_corpus(2500, seed=10):
        try:
            parse_quiver(text)
        except ParseError as e:
            errors += 1
            _assert_points_at_token(text, e)
    assert errors > 1000


def _outcome(parse, text):
    """The parsed quiver's fields, or the error's message, line and column."""
    try:
        q = parse(text)
    except ParseError as e:
        return str(e), e.line, e.column
    return q.name, q.vertices, q.arrows, q.weights


@pytest.mark.parametrize("seed", range(4))
def test_the_regex_route_agrees_with_the_token_parser(seed):
    # 0-3 inserts, deletes and splices of a canonical text, so that both
    # accepted and refused texts reach both routes
    rng = random.Random(seed)
    inserts = _MUTATIONS + ["quiver", "weight", "vertices", " ", "\n", "# c\n", "-", "7", "x"]
    accepted = 0
    for _ in range(600):
        q = random_quiver(rng.randint(1, 6), rng.randint(0, 8), rng)
        text = to_dsl(Quiver(q.vertices, q.arrows, random_weights(q, rng).weights,
                             name=q.name))
        for _ in range(rng.randint(0, 3)):
            at, kind = rng.randint(0, len(text)), rng.randrange(3)
            if kind == 0:
                text = text[:at] + rng.choice(inserts) + text[at:]
            elif kind == 1:
                text = text[:at] + text[at + rng.randint(1, 3):]
            else:
                start = rng.randint(0, len(text))
                text = text[:at] + text[start:start + rng.randint(1, 12)] + text[at:]
        expected = _outcome(dsl._parse_tokens, text)
        assert _outcome(parse_quiver, text) == expected, text
        accepted += isinstance(expected[1], tuple)
    assert 100 < accepted < 500


def test_a_long_comment_before_an_error_is_read_in_linear_time():
    # a skip pattern that lets "#" start a comment inside a comment backtracks
    # through every split of the run, 2 ** 100000 of them
    text = "quiver Q {\n  vertices: v;\n" + "#" * 100_000 + "\n  !\n}\n"
    start = time.perf_counter()
    e = _err(text)
    assert time.perf_counter() - start < 0.5
    assert str(e) == "line 4, column 3: unexpected character '!'"


@pytest.mark.parametrize("text, message", [
    ("quiver Q {\n  vertices: v;\n  " + "a" * 100_000 + "\n}\n",
     "line 4, column 1: expected ':', found '}'"),
    ("quiver Q {\n  vertices: v;" + " " * 100_000 + "!\n}\n",
     "line 2, column 100015: unexpected character '!'"),
], ids=["identifier", "spaces"])
def test_a_long_run_before_an_error_is_read_in_linear_time(text, message):
    # the body match gives up on a 100 000-character run in one linear pass,
    # not once per split of it, before the token parser finds the error
    start = time.perf_counter()
    e = _err(text)
    assert time.perf_counter() - start < 0.5
    assert str(e) == message


@pytest.mark.parametrize("gap", [None, "# c\n", "\t", "\r\n", "\t# c\r\n"])
def test_the_regex_route_reads_canonical_and_spaced_text(monkeypatch, gap):
    # canonical text of weighted quivers, and the same tokens with ``gap``
    # between every two of them, never reach the token parser
    rng, texts, drawn = random.Random(35), [], []
    for _ in range(200):
        q = random_quiver(rng.randint(1, 7), rng.randint(1, 10), rng)
        weights = random_weights(q, rng).weights
        drawn += weights.values()
        text = to_dsl(Quiver(q.vertices, q.arrows, weights, name=q.name))
        tokens = [m.group() for m in dsl._TOKEN_RE.finditer(text) if m.lastgroup]
        texts.append(text if gap is None else gap.join(tokens))
    assert min(drawn) < 0 and 1 in drawn and any(w.denominator > 1 for w in drawn)
    expected = [dsl._parse_tokens(text) for text in texts]

    def refuse(text):
        raise AssertionError(f"the token parser was called on {text!r}")

    monkeypatch.setattr(dsl, "_parse_tokens", refuse)
    assert [parse_quiver(text) for text in texts] == expected


def test_quiver_is_a_keyword_not_a_prefix():
    e = _err("quiverQ { vertices: v; }")
    assert str(e) == "line 1, column 1: expected 'quiver', found 'quiverQ'"
    assert parse_quiver("quiver#c\nQ { vertices: v; }").name == "Q"
