"""Parser and printer for the quiver description language.

The format:

    quiver Q {
      vertices: v1, v2, v3;
      a: v1 -> v2;
      b: v2 -> v3 [weight = 3/2];
    }

"#" starts a line comment, whitespace is insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, QuiverError
from .quiver import Arrow, Quiver

__all__ = ["parse_quiver", "to_dsl"]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<arrowop>->)"
    r"|(?P<int>-?\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}:;,\[\]=/])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "punct", "eof"; punct tokens carry their text
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup
            if kind == "comment":
                break
            if kind != "ws":
                if kind == "arrowop":
                    kind = "punct"
                tokens.append(_Token(kind, m.group(), lineno, pos + 1))
            pos = m.end()
    last_line = text.count("\n") + 1
    tokens.append(_Token("eof", "", last_line, len(text.split("\n")[-1]) + 1))
    return tokens


class _Stream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        """Consume a token of ``kind`` (and ``text``, if given) or raise."""
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = what or repr(text)
            raise ParseError(f"expected {wanted}, found {_describe(tok)}", tok.line, tok.column)
        return self.next()

    def accept(self, text: str) -> bool:
        """Consume the punctuation ``text`` if it comes next."""
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            self.next()
            return True
        return False


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


def _parse_rational(stream: _Stream) -> tuple[Fraction, _Token]:
    num_tok = stream.expect("int", what="a rational number")
    value = Fraction(int(num_tok.text))
    if stream.accept("/"):
        den_tok = stream.expect("int", what="a denominator")
        den = int(den_tok.text)
        if den <= 0:
            raise ParseError("denominator must be a positive integer",
                             den_tok.line, den_tok.column)
        value = Fraction(int(num_tok.text), den)
    return value, num_tok


def parse_quiver(text: str) -> Quiver:
    """Parse DSL text into a Quiver; errors carry line and column."""
    stream = _Stream(_tokenize(text))
    stream.expect("ident", "quiver")
    name = stream.expect("ident", what="quiver name").text
    stream.expect("punct", "{")

    stream.expect("ident", "vertices")
    stream.expect("punct", ":")
    vertices: list[str] = []
    positions: dict[str, _Token] = {}
    while True:
        tok = stream.expect("ident", what="vertex identifier")
        if tok.text in positions:
            raise ParseError(f"duplicate vertex identifier {tok.text!r}", tok.line, tok.column)
        positions[tok.text] = tok
        vertices.append(tok.text)
        if not stream.accept(","):
            break
    stream.expect("punct", ";")

    arrows: list[Arrow] = []
    weights: dict[str, Fraction] = {}
    arrow_names: set[str] = set()
    while not stream.accept("}"):
        name_tok = stream.expect("ident", what="arrow identifier")
        if name_tok.text in arrow_names:
            raise ParseError(f"duplicate arrow identifier {name_tok.text!r}",
                             name_tok.line, name_tok.column)
        stream.expect("punct", ":")
        src_tok = stream.expect("ident", what="source vertex")
        if src_tok.text not in positions:
            raise ParseError(f"undeclared vertex {src_tok.text!r}", src_tok.line, src_tok.column)
        stream.expect("punct", "->")
        tgt_tok = stream.expect("ident", what="target vertex")
        if tgt_tok.text not in positions:
            raise ParseError(f"undeclared vertex {tgt_tok.text!r}", tgt_tok.line, tgt_tok.column)
        if stream.accept("["):
            stream.expect("ident", "weight")
            stream.expect("punct", "=")
            value, value_tok = _parse_rational(stream)
            if value == 0:
                raise ParseError("weight must be nonzero", value_tok.line, value_tok.column)
            stream.expect("punct", "]")
            if value != 1:
                weights[name_tok.text] = value
        stream.expect("punct", ";")
        arrow_names.add(name_tok.text)
        arrows.append(Arrow(name_tok.text, src_tok.text, tgt_tok.text))

    tail = stream.peek()
    if tail.kind != "eof":
        raise ParseError(f"unexpected trailing input {_describe(tail)}", tail.line, tail.column)
    return Quiver(vertices, arrows, weights, name=name)


def _check_ident(text: str, what: str) -> str:
    if not _IDENT_RE.fullmatch(text):
        raise QuiverError(f"{what} {text!r} is not a valid identifier")
    return text


def to_dsl(quiver: Quiver) -> str:
    """Canonical DSL text; parse(to_dsl(Q)) reproduces Q exactly."""
    _check_ident(quiver.name, "quiver name")
    for v in quiver.vertices:
        _check_ident(v, "vertex")
    lines = [f"quiver {quiver.name} {{"]
    lines.append(f"  vertices: {', '.join(quiver.vertices)};")
    for a in quiver.arrows:
        _check_ident(a.name, "arrow")
        decl = f"  {a.name}: {a.source} -> {a.target}"
        if a.name in quiver.weights:
            decl += f" [weight = {quiver.weights[a.name]}]"
        lines.append(decl + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
