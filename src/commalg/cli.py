"""Command line interface.

Subcommands: parse, components, blockform, skeleton, incidence, gldim,
verify, random.  Input is a DSL file or "-" for standard input.  Output is
deterministic: the same invocation always produces identical bytes.
Exit codes: 0 success, 1 validation failure, 2 internal invariant violation
or a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .algebra import commuting_algebra
from .dsl import parse_quiver, to_dsl
from .errors import InternalInvariantError, QuiverError
from .fields import QQ, parse_field
from .homology import global_dimension, projective_dimensions
from .oracle import DEFAULT_PATH_CAP, pattern_report
from .poset import (
    hasse,
    idempotence_check,
    incidence_algebra,
    skeleton,
    skeleton_iso_incidence,
)
from .quiver import Quiver, to_dot
from .randgen import random_quiver
from .structure import _bitstrings

__all__ = ["main", "run"]


def _read_input(path: str) -> str:
    """The input's bytes, from a file or stdin alike, decoded strictly as UTF-8."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise QuiverError(f"input is not UTF-8: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(obj) -> str:
    """``json.dumps(obj, indent=2)`` and a newline, strings escaped by the C encoder."""
    return _encode(obj, "\n") + "\n"


# exact types only: a subclass goes through json.dumps, as json writes it
_SCALARS = {
    str: _quote,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _encode(obj, newline: str) -> str:
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)  # floats and empty containers, or json's TypeError
    inner = newline + "  "
    if isinstance(obj, dict):
        # every key is a string: _quote refuses any other
        items = [
            f"{_quote(key)}: "
            f"{s(value) if (s := _SCALARS.get(type(value))) else _encode(value, inner)}"
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [s(item) if (s := _SCALARS.get(type(item))) else _encode(item, inner)
             for item in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _load(args) -> Quiver:
    return parse_quiver(_read_input(args.input))


def _cmd_parse(args) -> str:
    quiver = _load(args)
    if args.format == "dot":
        return to_dot(quiver)
    if args.format == "pretty":
        return to_dsl(quiver)
    return _json(
        {
            "name": quiver.name,
            "vertices": list(quiver.vertices),
            "arrows": [
                {
                    "name": a.name,
                    "source": a.source,
                    "target": a.target,
                    "weight": str(quiver.weights.get(a.name, 1)),
                }
                for a in quiver.arrows
            ],
        }
    )


def _cmd_components(args) -> str:
    algebra = commuting_algebra(_load(args))
    partition, order = algebra.partition, algebra.order
    payload = {
        "components": [list(comp) for comp in partition.components],
        "order": list(order),
    }
    if args.format == "pretty":
        lines = [
            f"D{i + 1}: {' '.join(comp)}" for i, comp in enumerate(partition.components)
        ]
        lines.append(f"order: {' '.join(order)}")
        return "\n".join(lines) + "\n"
    return _json(payload)


def _cmd_blockform(args) -> str:
    quiver = _load(args)
    algebra = commuting_algebra(quiver, parse_field(args.field))
    if args.format == "pretty":
        rows = algebra.pattern.bitstrings()
        return "\n".join(" ".join(row).replace("1", "K") for row in rows) + "\n"
    return _json(
        {
            "order": list(algebra.order),
            "block_sizes": list(algebra.block_sizes),
            "component_pattern": list(_bitstrings(algebra.block_rows)),
            "pattern": list(algebra.pattern.bitstrings()),
            "total_dimension": algebra.total_dimension(),
            "field": algebra.field.name,
        }
    )


def _cmd_skeleton(args) -> str:
    quiver = _load(args)
    skel = skeleton(quiver)
    elements, covers = skel.poset.elements, hasse(skel.poset).cover_pairs()
    if args.format == "dot":
        lines = [f'digraph "{quiver.name}_skeleton" {{']
        lines += [f'  "{x}";' for x in elements]
        lines += [f'  "{x}" -> "{y}";' for x, y in covers]
        lines.append("}")
        return "\n".join(lines) + "\n"
    dimension = incidence_algebra(skel.poset).dimension
    if args.format == "pretty":
        lines = [f"elements: {' '.join(elements)}"]
        lines += [f"cover: {x} -> {y}" for x, y in covers]
        lines.append(f"incidence dimension: {dimension}")
        return "\n".join(lines) + "\n"
    return _json(
        {
            "elements": list(elements),
            "representatives": list(skel.representatives),
            "leq": list(_bitstrings(skel.poset.rows)),
            "covers": [[x, y] for x, y in covers],
            "incidence_dimension": dimension,
        }
    )


def _cmd_incidence(args) -> str:
    quiver = _load(args)
    skel = skeleton(quiver)
    inc = incidence_algebra(skel.poset, parse_field(args.field))
    els = skel.poset.elements
    return _json(
        {
            "elements": list(els),
            "basis": [[els[i], els[j]] for i, j in inc.basis],
            "dimension": inc.dimension,
            "field": inc.field.name,
        }
    )


def _cmd_gldim(args) -> str:
    poset = skeleton(_load(args)).poset
    dims = projective_dimensions(poset, QQ)
    global_dim = max(dims)
    bound = poset.longest_chain()
    payload = {
        "elements": list(poset.elements),
        "projective_dimensions": list(dims),
        "global_dimension": global_dim,
        "chain_bound": bound,
        # the theorem: gldim <= (elements in the longest chain) - 1
        "bound": "PASS" if global_dim <= bound - 1 else "FAIL",
    }
    if args.format == "pretty":
        lines = [f"pd({x}) = {d}" for x, d in zip(poset.elements, dims)]
        lines.append(f"global dimension: {global_dim}")
        lines.append(f"chain bound: {bound} -> {payload['bound']}")
        return "\n".join(lines) + "\n"
    return _json(payload)


def _cmd_verify(args) -> tuple[str, bool]:
    quiver = _load(args)
    field = parse_field(args.field)
    trunc = args.trunc if args.trunc is not None else quiver.n + 2
    if trunc < quiver.n:
        raise QuiverError("truncation must be at least the vertex count")

    checks: list[tuple[str, bool]] = []

    skel = skeleton(quiver)  # block form verified on the algebra's build
    checks.append(("block_form", True))

    reports = pattern_report(quiver, trunc, path_cap=args.path_cap, field=field)
    oracle_ok = all(
        r.dimension == skel.algebra.hom_dimension(r.source, r.target) for r in reports
    )
    checks.append(("oracle_equivalence", oracle_ok))

    nondegenerate = all(r.dimension == 1 for r in reports if r.source == r.target)
    checks.append(("vertex_nondegeneracy", nondegenerate))

    try:
        skeleton_iso_incidence(skel, field)
        checks.append(("skeleton_iso_incidence", True))
    except InternalInvariantError:
        checks.append(("skeleton_iso_incidence", False))

    checks.append(("idempotence", idempotence_check(skel.poset)))
    bound = skel.poset.longest_chain() - 1
    checks.append(("gldim_bound", global_dimension(skel.poset, QQ) <= bound))

    ok = all(passed for _, passed in checks)
    if args.format == "pretty":
        lines = [f"{'PASS' if passed else 'FAIL'} {name}" for name, passed in checks]
        lines.append(f"OVERALL {'PASS' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n", ok
    payload = {
        "truncation": trunc,
        "properties": [
            {"name": name, "pass": passed} for name, passed in checks
        ],
        "pairs": [
            {
                "source": r.source,
                "target": r.target,
                "path_count": r.path_count,
                "relation_rank": r.relation_rank,
                "dimension": r.dimension,
                "certified": r.certified,
            }
            for r in reports
        ],
        "overall": "PASS" if ok else "FAIL",
    }
    return _json(payload), ok


def _cmd_random(args) -> str:
    return to_dsl(random_quiver(args.vertices, args.arrows, args.seed))


@cache  # built once per process: building costs far more than parsing
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commalg",
        description="Commuting algebras of quivers: block form, skeleton, homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, summary, func, formats, with_field=True, shorthand=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("input", nargs="?", default="-", help="DSL file or - for stdin")
        if with_field:
            p.add_argument("--field", default="rat", help="rat or fp:<p>")
        p.add_argument("--format", choices=formats, default="json")
        if shorthand is not None:
            p.add_argument(f"--{shorthand}", dest="format", action="store_const",
                           const=shorthand, help=f"shorthand for --format {shorthand}")
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    add_common("parse", "validate and echo a quiver", _cmd_parse,
               ["json", "pretty", "dot"], with_field=False)
    add_common("components", "path components and consistent order", _cmd_components,
               ["json", "pretty"], with_field=False)
    add_common("blockform", "pattern, block sizes, dimension", _cmd_blockform,
               ["json", "pretty"], shorthand="pretty")
    add_common("skeleton", "skeleton poset and Hasse diagram", _cmd_skeleton,
               ["json", "pretty", "dot"], with_field=False, shorthand="dot")
    add_common("incidence", "incidence algebra of the skeleton poset", _cmd_incidence,
               ["json"])
    add_common("gldim", "global dimension of the skeleton poset", _cmd_gldim,
               ["json", "pretty"], with_field=False)
    p = add_common("verify", "run the invariant suite", _cmd_verify, ["json", "pretty"])
    p.add_argument("--trunc", type=int, default=None, help="truncation length")
    p.add_argument("--path-cap", type=int, default=DEFAULT_PATH_CAP)

    p = sub.add_parser("random", help="emit a random quiver as DSL")
    p.set_defaults(func=_cmd_random)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--arrows", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.func(args)  # verify also says whether every check passed
        text, ok = result if isinstance(result, tuple) else (result, True)
        _emit(text, args.out)
    except (QuiverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main() -> int:
    return run()
