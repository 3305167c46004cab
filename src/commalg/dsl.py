"""Parser and printer for the quiver description language.

The format:

    quiver Q {
      vertices: v1, v2, v3;
      a: v1 -> v2;
      b: v2 -> v3 [weight = 3/2];
    }

"#" starts a line comment, whitespace is insignificant.

``parse_quiver`` deletes the comments, checks every declaration and the
closing brace by one regex match and reads the arrows by one findall.  Text the
match or ``Quiver`` refuses goes, as written, through the token parser, whose
scanner rejects a bad character before any syntax error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, QuiverError
from .quiver import Arrow, Quiver

__all__ = ["parse_quiver", "to_dsl"]

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# whitespace and comments match no named group; "->" is tried before "-5"
_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<punct>->|[{}:;,\[\]=/])"
    r"|(?P<int>-?\d+)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<bad>.)"
)
# the grammar over text without comments, where a denominator holds a nonzero
# digit; an arrow's fields open with "(" for findall, with "(?:" in the body
_ARROW = (r"\s*{g}{i})\s*:\s*{g}{i})\s*->\s*{g}{i})\s*"
          r"(?:\[\s*weight\s*=\s*{g}-?\d+)\s*(?:/\s*{g}0*[1-9]\d*)\s*)?\]\s*)?;")
_ARROW_RE = re.compile(_ARROW.format(g="(", i=_IDENT))
_BODY_RE = re.compile(rf"\s*quiver\b\s*({_IDENT})\s*\{{\s*vertices\s*:"
                      rf"(\s*{_IDENT}(?:\s*,\s*{_IDENT})*)\s*;"
                      rf"(?:{_ARROW.format(g='(?:', i=_IDENT)})*\s*\}}\s*\Z")


class _Stream:
    """(kind, text, offset) tokens: "ident", "int", "punct" (its text is the
    punctuation) or a last "eof" at offset len(text)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is not None:
                tok = (kind, m.group(), m.start())
                if kind == "bad":
                    raise self.error(f"unexpected character {tok[1]!r}", tok)
                self.tokens.append(tok)
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0

    def error(self, message: str, tok: tuple) -> ParseError:
        """The error at ``tok``: lines end at "\\n", columns count from 1."""
        offset = tok[2]
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> tuple:
        """Consume a token of ``kind`` (and ``text``, if given) or raise."""
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            wanted = what or repr(text)
            raise self.error(f"expected {wanted}, found {_describe(tok)}", tok)
        return self.next()

    def accept(self, text: str) -> bool:
        """Consume the punctuation ``text`` if it comes next."""
        tok = self.peek()
        if tok[0] == "punct" and tok[1] == text:
            self.next()
            return True
        return False


def _describe(tok: tuple) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


def _parse_rational(stream: _Stream) -> tuple[Fraction, tuple]:
    num_tok = stream.expect("int", what="a rational number")
    value = Fraction(int(num_tok[1]))
    if stream.accept("/"):
        den_tok = stream.expect("int", what="a denominator")
        den = int(den_tok[1])
        if den <= 0:
            raise stream.error("denominator must be a positive integer", den_tok)
        value = Fraction(int(num_tok[1]), den)
    return value, num_tok


def parse_quiver(text: str) -> Quiver:
    """Parse DSL text into a Quiver; errors carry line and column."""
    stripped = re.sub(r"#[^\n]*", "", text) if "#" in text else text
    if body := _BODY_RE.match(stripped):
        found = _ARROW_RE.findall(stripped, body.end(2))
        try:
            return Quiver(re.findall(_IDENT, body[2]), [Arrow(*f[:3]) for f in found],
                          {f[0]: Fraction(int(f[3]), int(f[4] or 1)) for f in found if f[3]},
                          name=body[1])
        except QuiverError:
            pass  # a duplicate, an undeclared vertex or a zero weight
    return _parse_tokens(text)


def _parse_tokens(text: str) -> Quiver:
    """The token parser: every token checked in turn, the first error raised."""
    stream = _Stream(text)
    stream.expect("ident", "quiver")
    name = stream.expect("ident", what="quiver name")[1]
    stream.expect("punct", "{")

    stream.expect("ident", "vertices")
    stream.expect("punct", ":")
    vertices: list[str] = []
    declared: set[str] = set()
    while True:
        tok = stream.expect("ident", what="vertex identifier")
        if tok[1] in declared:
            raise stream.error(f"duplicate vertex identifier {tok[1]!r}", tok)
        declared.add(tok[1])
        vertices.append(tok[1])
        if not stream.accept(","):
            break
    stream.expect("punct", ";")

    arrows: list[Arrow] = []
    weights: dict[str, Fraction] = {}
    arrow_names: set[str] = set()
    while not stream.accept("}"):
        name_tok = stream.expect("ident", what="arrow identifier")
        if name_tok[1] in arrow_names:
            raise stream.error(f"duplicate arrow identifier {name_tok[1]!r}", name_tok)
        stream.expect("punct", ":")
        src_tok = stream.expect("ident", what="source vertex")
        if src_tok[1] not in declared:
            raise stream.error(f"undeclared vertex {src_tok[1]!r}", src_tok)
        stream.expect("punct", "->")
        tgt_tok = stream.expect("ident", what="target vertex")
        if tgt_tok[1] not in declared:
            raise stream.error(f"undeclared vertex {tgt_tok[1]!r}", tgt_tok)
        if stream.accept("["):
            stream.expect("ident", "weight")
            stream.expect("punct", "=")
            value, value_tok = _parse_rational(stream)
            if value == 0:
                raise stream.error("weight must be nonzero", value_tok)
            stream.expect("punct", "]")
            weights[name_tok[1]] = value
        stream.expect("punct", ";")
        arrow_names.add(name_tok[1])
        arrows.append(Arrow(name_tok[1], src_tok[1], tgt_tok[1]))

    tail = stream.peek()
    if tail[0] != "eof":
        raise stream.error(f"unexpected trailing input {_describe(tail)}", tail)
    return Quiver(vertices, arrows, weights, name=name)


def _check_ident(text: str, what: str) -> str:
    if not re.fullmatch(_IDENT, text):
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
