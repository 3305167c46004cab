"""Command line interface.

Subcommands: parse, components, blockform, skeleton, incidence, gldim,
verify, random.  Input is a DSL file or "-" for standard input.  Output is
deterministic: the same invocation always produces identical bytes.
Exit codes: 0 success, 1 validation failure, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import commuting_algebra
from .dsl import parse_quiver, to_dsl
from .errors import InternalInvariantError, QuiverError
from .fields import parse_field
from .homology import projective_dimension
from .oracle import (
    DEFAULT_PATH_CAP,
    GeneralCoefficientTable,
    pattern_report,
    vertex_nondegeneracy,
)
from .poset import (
    hasse,
    idempotence_check,
    incidence_algebra,
    skeleton,
    skeleton_iso_incidence,
)
from .quiver import Quiver, to_dot
from .randgen import random_quiver

__all__ = ["main", "run"]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load(args) -> Quiver:
    return parse_quiver(_read_input(args.input))


def _weight_str(quiver: Quiver, arrow_name: str) -> str:
    return str(quiver.weights.get(arrow_name, 1))


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
                    "weight": _weight_str(quiver, a.name),
                }
                for a in quiver.arrows
            ],
        }
    )


def _cmd_components(args) -> str:
    from .structure import consistent_ordering, path_components

    quiver = _load(args)
    partition = path_components(quiver)
    order = consistent_ordering(quiver, partition)
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
        lines = [
            " ".join("K" if b else "0" for b in row) for row in algebra.pattern.bits
        ]
        return "\n".join(lines) + "\n"
    return _json(
        {
            "order": list(algebra.order),
            "block_sizes": list(algebra.block_sizes),
            "component_pattern": [
                "".join("1" if b else "0" for b in row)
                for row in algebra.block_pattern
            ],
            "pattern": list(algebra.pattern.bitstrings()),
            "total_dimension": algebra.total_dimension(),
            "field": algebra.field.name,
        }
    )


def _cmd_skeleton(args) -> str:
    quiver = _load(args)
    skel = skeleton(quiver)
    diagram = hasse(skel.poset)
    if args.format == "dot":
        lines = [f'digraph "{quiver.name}_skeleton" {{']
        for x in skel.poset.elements:
            lines.append(f'  "{x}";')
        for x, y in diagram.cover_pairs():
            lines.append(f'  "{x}" -> "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    inc = incidence_algebra(skel.poset, parse_field(args.field))
    payload = {
        "elements": list(skel.poset.elements),
        "representatives": list(skel.representatives),
        "leq": ["".join("1" if b else "0" for b in row) for row in skel.poset.leq],
        "covers": [[x, y] for x, y in diagram.cover_pairs()],
        "incidence_dimension": inc.dimension,
    }
    if args.format == "pretty":
        lines = [f"elements: {' '.join(skel.poset.elements)}"]
        lines += [f"cover: {x} -> {y}" for x, y in diagram.cover_pairs()]
        lines.append(f"incidence dimension: {inc.dimension}")
        return "\n".join(lines) + "\n"
    return _json(payload)


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
    quiver = _load(args)
    skel = skeleton(quiver)
    poset = skel.poset
    dims = {x: projective_dimension(poset, x) for x in poset.elements}
    global_dim = max(dims.values())
    bound = poset.longest_chain()
    payload = {
        "elements": list(poset.elements),
        "projective_dimensions": [dims[x] for x in poset.elements],
        "global_dimension": global_dim,
        "chain_bound": bound,
        "bound": "PASS" if global_dim <= bound else "FAIL",
    }
    if args.format == "pretty":
        lines = [
            f"pd({x}) = {dims[x]}" for x in poset.elements
        ]
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

    algebra = commuting_algebra(quiver, field)  # block form verified on build
    checks.append(("block_form", True))

    reports = pattern_report(quiver, trunc, path_cap=args.path_cap, field=field)
    oracle_ok = all(
        r.dimension == algebra.hom_dimension(r.source, r.target) for r in reports
    )
    checks.append(("oracle_equivalence", oracle_ok))

    table = GeneralCoefficientTable.trivial(quiver)
    checks.append(
        (
            "vertex_nondegeneracy",
            vertex_nondegeneracy(quiver, table, trunc, args.path_cap, field),
        )
    )

    skel = skeleton(quiver)
    try:
        skeleton_iso_incidence(skel, field)
        checks.append(("skeleton_iso_incidence", True))
    except InternalInvariantError:
        checks.append(("skeleton_iso_incidence", False))

    checks.append(("idempotence", idempotence_check(skel.poset)))

    from .homology import global_dimension

    bound = skel.poset.longest_chain()
    checks.append(("gldim_bound", global_dimension(skel.poset) <= bound))

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
    quiver = random_quiver(args.vertices, args.arrows, args.seed)
    return to_dsl(quiver)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commalg",
        description="Commuting algebras of quivers: block form, skeleton, homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_field=True):
        p.add_argument("input", nargs="?", default="-", help="DSL file or - for stdin")
        if with_field:
            p.add_argument("--field", default="rat", help="rat or fp:<p>")
        p.add_argument(
            "--format", choices=["json", "pretty", "dot"], default="json"
        )
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("parse", help="validate and echo a quiver")
    add_common(p, with_field=False)

    p = sub.add_parser("components", help="path components and consistent order")
    add_common(p, with_field=False)

    p = sub.add_parser("blockform", help="pattern, block sizes, dimension")
    add_common(p)
    p.add_argument(
        "--pretty", action="store_true", help="shorthand for --format pretty"
    )

    p = sub.add_parser("skeleton", help="skeleton poset and Hasse diagram")
    add_common(p)
    p.add_argument("--dot", action="store_true", help="shorthand for --format dot")

    p = sub.add_parser("incidence", help="incidence algebra of the skeleton poset")
    add_common(p)

    p = sub.add_parser("gldim", help="global dimension of the skeleton poset")
    add_common(p)

    p = sub.add_parser("verify", help="run the invariant suite")
    add_common(p)
    p.add_argument("--trunc", type=int, default=None, help="truncation length")
    p.add_argument("--path-cap", type=int, default=DEFAULT_PATH_CAP)

    p = sub.add_parser("random", help="emit a random quiver as DSL")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--arrows", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "pretty", False):
        args.format = "pretty"
    if getattr(args, "dot", False):
        args.format = "dot"
    try:
        if args.command == "parse":
            _emit(_cmd_parse(args), args.out)
        elif args.command == "components":
            _emit(_cmd_components(args), args.out)
        elif args.command == "blockform":
            _emit(_cmd_blockform(args), args.out)
        elif args.command == "skeleton":
            _emit(_cmd_skeleton(args), args.out)
        elif args.command == "incidence":
            _emit(_cmd_incidence(args), args.out)
        elif args.command == "gldim":
            _emit(_cmd_gldim(args), args.out)
        elif args.command == "verify":
            text, ok = _cmd_verify(args)
            _emit(text, args.out)
            if not ok:
                return 1
        elif args.command == "random":
            _emit(_cmd_random(args), args.out)
        else:  # pragma: no cover
            raise QuiverError(f"unknown command {args.command!r}")
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> int:
    return run()
