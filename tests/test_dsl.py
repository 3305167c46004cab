from fractions import Fraction

import pytest

from commalg import ParseError, Quiver, QuiverError, parse_quiver, to_dsl
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
