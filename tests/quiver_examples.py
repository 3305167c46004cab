"""Small example quivers, the test suite's fixtures.

Each is provided both as DSL text (exercising the parser) and as a loader.
"""

from __future__ import annotations

from commalg.dsl import parse_quiver
from commalg.quiver import Arrow, Quiver

__all__ = [
    "TWO_BLOCK_DSL",
    "THREE_BLOCK_DSL",
    "SIX_CYCLE_DSL",
    "SIX_CYCLE_CHORD_DSL",
    "TRIANGLE_DSL",
    "two_block_quiver",
    "three_block_quiver",
    "six_cycle",
    "six_cycle_with_chord",
    "triangle",
    "kronecker_quiver",
    "oriented_cycle",
]

# a 4-cycle feeding a 2-cycle: components {v1..v4} and {v5, v6}
TWO_BLOCK_DSL = """\
quiver two_block {
  vertices: v1, v2, v3, v4, v5, v6;
  a1: v1 -> v2;
  a2: v1 -> v5;
  a3: v2 -> v3;
  a4: v5 -> v6;
  a5: v6 -> v5;
  a6: v4 -> v1;
  a7: v3 -> v4;
  a8: v3 -> v6;
}
"""

# a 4-cycle feeding two singleton components in a chain
THREE_BLOCK_DSL = """\
quiver three_block {
  vertices: x1, x2, x3, x4, x5, x6;
  a: x1 -> x2;
  g: x2 -> x3;
  b: x2 -> x5;
  c: x5 -> x6;
  f: x4 -> x1;
  e: x3 -> x4;
  d: x3 -> x6;
}
"""

SIX_CYCLE_DSL = """\
quiver six_cycle {
  vertices: u1, u2, u3, u4, u5, u6;
  a: u1 -> u2;
  b: u2 -> u3;
  c: u3 -> u4;
  d: u4 -> u5;
  e: u5 -> u6;
  f: u6 -> u1;
}
"""

SIX_CYCLE_CHORD_DSL = """\
quiver six_cycle_chord {
  vertices: u1, u2, u3, u4, u5, u6;
  a: u1 -> u2;
  b: u2 -> u3;
  c: u3 -> u4;
  d: u4 -> u5;
  e: u5 -> u6;
  f: u6 -> u1;
  g: u2 -> u5;
}
"""

TRIANGLE_DSL = """\
quiver triangle {
  vertices: v1, v2, v3;
  a: v1 -> v2;
  b: v2 -> v3;
  c: v3 -> v1;
}
"""


def two_block_quiver() -> Quiver:
    return parse_quiver(TWO_BLOCK_DSL)


def three_block_quiver() -> Quiver:
    return parse_quiver(THREE_BLOCK_DSL)


def six_cycle() -> Quiver:
    return parse_quiver(SIX_CYCLE_DSL)


def six_cycle_with_chord() -> Quiver:
    return parse_quiver(SIX_CYCLE_CHORD_DSL)


def triangle() -> Quiver:
    return parse_quiver(TRIANGLE_DSL)


def kronecker_quiver(n: int) -> Quiver:
    """Two vertices and n parallel arrows v -> w."""
    arrows = [Arrow(f"a{k + 1}", "v", "w") for k in range(n)]
    return Quiver(["v", "w"], arrows, name=f"kronecker{n}")


def oriented_cycle(n: int) -> Quiver:
    """One directed cycle through n vertices."""
    vertices = [f"v{i + 1}" for i in range(n)]
    arrows = [
        Arrow(f"a{i + 1}", vertices[i], vertices[(i + 1) % n]) for i in range(n)
    ]
    return Quiver(vertices, arrows, name=f"cycle{n}")
