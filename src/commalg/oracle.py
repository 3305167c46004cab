"""Brute-force Hom-space dimensions of truncated path quotients.

For a vertex pair (v, w) and a cutoff L, take the span of all paths v -> w
of length at most L, and quotient by every representable relation
r (f(p) p - f(q) q) s with p, q parallel and both padded products inside the
cutoff.  The reported dimension is the corank of the relation span.  No
reachability shortcut is consulted: this is the independent check that the
pattern-based algebra is measuring the right thing.

The unpadded relations f(p) p - f(q) q tie every walk v -> w to the first,
so the dimension is 1 or 0, and 0 exactly when a padded relation breaks
f(p) f(rqs) = f(q) f(rps).  With multiplicative coefficients none does, so
the report is the walk count: each ``GeneralCoefficientTable`` memoizes one
packed ``WalkCounts`` pass per (truncation, path_cap), which counts every
pair at once, and below truncation n - 1 one uncapped pass to n - 1 that
certifies the targets without a walk.  Walks are listed, by one ``WalksFrom``
per (source, truncation, path_cap), only where a coefficient other than one
is read: over a prime field with weights, to check that none vanishes, and
in the tabulated branch.  That branch keeps a plan per (field, source,
truncation, path_cap), each (a, b) in vertex order with a head to a and two
middles a -> b or more, and per (target, truncation, path_cap) each b's
walks to the target.  A middle list is priced once per field and (a, b),
once a tail follows it, and each later middle q is checked against the
first, p_0: where (p, q) fits beside r and s, so do (p_0, p) and (p_0, q),
and with nonzero coefficients those two imply it.  Pricing stops at the
first coefficient that vanishes or is not defined in the field, and that
failure raises only where a relation that fits reads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from numbers import Rational

from .algebra import CoefficientFunction
from .errors import InternalInvariantError, QuiverError, TruncationOverflowError, _Record
from .fields import QQ, PrimeField
from .quiver import Path, Quiver, WalkCounts, WalksFrom
from .structure import reachability

__all__ = [
    "DEFAULT_PATH_CAP",
    "GeneralCoefficientTable",
    "TruncatedQuotientReport",
    "truncated_hom_dimension",
    "vertex_nondegeneracy",
    "pattern_report",
    "pattern_equivalence",
]

DEFAULT_PATH_CAP = 20_000


class GeneralCoefficientTable(_Record):
    """Path coefficients: tabulated exceptions over a multiplicative base.

    Any path not listed in ``exceptions`` gets the product of its arrow
    weights.  Base weights must name arrows of the quiver, listed values must
    be nonzero and listed paths must be valid in the quiver.
    """

    quiver: Quiver
    base: CoefficientFunction
    exceptions: Mapping[Path, Rational]

    def __post_init__(self):
        self.base.check_arrows(self.quiver)
        cleaned = {}
        for path, value in self.exceptions.items():
            rebuilt = self.quiver.path(path.start, path.arrows)
            if rebuilt != path:
                raise QuiverError(f"path {path!r} is not a path of the quiver")
            value = QQ.element(value)
            if value == 0:
                raise QuiverError(f"zero coefficient for path {path!r}")
            cleaned[path] = value
        self.__dict__.update(exceptions=cleaned, _memo={})  # _memo: passes, plans, tails, prices

    @classmethod
    def trivial(cls, quiver: Quiver) -> "GeneralCoefficientTable":
        return cls(quiver, CoefficientFunction.trivial(), {})

    @classmethod
    def multiplicative(cls, quiver: Quiver, f: CoefficientFunction) -> "GeneralCoefficientTable":
        return cls(quiver, f, {})

    def value(self, path: Path) -> Rational:
        if path in self.exceptions:
            return self.exceptions[path]
        return self.base.value(path)

    @property
    def is_multiplicative(self) -> bool:
        return not self.exceptions


class TruncatedQuotientReport(_Record):
    """Result of one truncated quotient computation."""

    source: str
    target: str
    truncation: int
    path_count: int
    relation_rank: int
    dimension: int
    certified: bool

    def __init__(self, source, target, truncation, path_count, relation_rank, dimension, certified):
        self.__dict__.update(source=source, target=target, truncation=truncation,
                             path_count=path_count, relation_rank=relation_rank,
                             dimension=dimension, certified=certified)


def _listed(quiver: Quiver, table: GeneralCoefficientTable, truncation: int, field) -> bool:
    """Refuse a foreign table or a negative truncation; tell whether walks are listed."""
    if table.quiver != quiver:
        raise QuiverError("coefficient table belongs to a different quiver")
    if truncation < 0:
        raise QuiverError("truncation must be nonnegative")
    return not table.is_multiplicative or (
        isinstance(field, PrimeField) and not table.base.is_trivial)


def _counts(table: GeneralCoefficientTable, length: int, cap) -> WalkCounts:
    """The table's packed pass to ``length`` under ``cap``, made once."""
    found = table._memo.get((length, cap))
    if found is None:
        found = table._memo[length, cap] = WalkCounts(table.quiver, length, cap)
    return found


def _report(table, source, target, truncation, path_count, rank=None) -> TruncatedQuotientReport:
    if rank is None:
        # r (f(p) p - f(q) q) s is a multiple of f(rps) rps - f(rqs) rqs, so
        # padding adds no relation, and each later walk adds one to the rank
        rank = max(path_count - 1, 0)
    # a reachable target has a walk of length at most n - 1, so below that
    # truncation a target without a walk is certified by one uncapped pass
    dimension, last = path_count - rank, table.quiver.n - 1
    reached = (path_count > 0 or truncation >= last
               or not _counts(table, last, None).count(source, target))
    return TruncatedQuotientReport(source, target, truncation, path_count, rank, dimension,
                                   reached and (table.is_multiplicative or dimension == 0))


def truncated_hom_dimension(
    quiver: Quiver,
    table: GeneralCoefficientTable,
    source: str,
    target: str,
    truncation: int,
    path_cap: int = DEFAULT_PATH_CAP,
    field=QQ,
) -> TruncatedQuotientReport:
    """Dimension of span(paths source -> target, length <= truncation) / relations."""
    lists = _listed(quiver, table, truncation, field)
    quiver.check_vertex(source)
    quiver.check_vertex(target)
    if not lists:
        count = _counts(table, truncation, path_cap).count(source, target)
        return _report(table, source, target, truncation, count)
    memo = table._memo

    def coeff(path: Path):
        # a nonzero rational must also be defined and nonzero in the field
        try:
            value = field.element(table.value(path))
        except QuiverError as error:
            raise QuiverError(
                f"coefficient of {path!r} is not defined in {field.name}: {error}"
            ) from None
        if value == field.zero:
            raise QuiverError(f"coefficient of {path!r} vanishes in {field.name}")
        return value

    def walks_from(a: str) -> WalksFrom:
        # one frontier pass per source lists the walks to every target
        found = memo.get((a, truncation, path_cap))
        if found is None:
            found = memo[a, truncation, path_cap] = WalksFrom(quiver, a, truncation, path_cap, True)
        return found

    from_source = walks_from(source)
    if table.is_multiplicative:  # the count's rank, once each walk is priced
        path_count, rank = from_source.count(target), None
        if path_count > 1:
            for arrows, _ in from_source.walks(target):
                coeff(Path(source, arrows, target))  # raises unless nonzero in the field
    else:
        def price(a: str, b: str, middles) -> tuple[list, tuple | None]:
            # coefficients up to the first failure, and its (length, message)
            key = (field, a, b, truncation, path_cap)
            found = memo.get(key)
            if found is None:
                coeffs, failure = [], None
                for arrows, length in middles:
                    try:
                        coeffs.append(coeff(Path(a, arrows, b)))
                    except QuiverError as error:
                        failure = length, str(error)
                        break
                found = memo[key] = coeffs, failure
            return found

        targets = from_source.walks(target)
        path_count = len(targets)
        # the source's plan in (a, b) order, priced as tails read it; a head or
        # middle read that overflows ends it and raises again after its entries
        plan = memo.get(("plan", field, source, truncation, path_cap))
        if plan is None:
            entries, stop = [], None
            try:
                for a in quiver.vertices:
                    stop = from_source, a
                    if heads := from_source.walks(a):
                        from_a = walks_from(a)
                        for b in quiver.vertices:
                            stop = from_a, b
                            if len(middles := from_a.walks(b)) > 1:
                                entries.append([a, heads, b, middles, None])
                stop = None
            except TruncationOverflowError:
                pass
            plan = memo["plan", field, source, truncation, path_cap] = entries, stop
        # b's walks to the target, read once per target; an overflow raises on every read
        tails_to = memo.setdefault(("tails", target, truncation, path_cap), {})
        triples, unpadded = [], False
        for entry in plan[0]:
            a, heads, b, middles, priced = entry
            tails = tails_to.get(b)
            if tails is None:
                tails = tails_to[b] = walks_from(b).walks(target)
            if not tails:
                continue
            if priced is None:
                priced = entry[4] = price(a, b, middles)
            coeffs, failure = priced
            if failure:
                room = truncation - heads[0][1] - tails[0][1]
                if failure[0] <= room and middles[1][1] <= room:
                    raise QuiverError(failure[1])
            triples.append((heads, middles, coeffs, tails))
            if a == source and b == target and heads[0][1] == tails[0][1] == 0:
                unpadded = True
        if plan[1]:
            plan[1][0].walks(plan[1][1])  # the overflow that ended the plan

        def agrees(f: dict) -> bool:
            # each later middle against the first; walk lists run by length, so
            # the first middle, head or tail too long for what is left ends its loop
            for heads, middles, coeffs, tails in triples:
                shortest = heads[0][1] + tails[0][1]
                for (qa, lq), fq in zip(middles[1:], coeffs[1:]):
                    budget = truncation - lq
                    if budget < shortest:
                        break
                    for ra, lr in heads:
                        room = budget - lr
                        if room < 0:
                            break
                        rp, rq = ra + middles[0][0], ra + qa
                        for sa, ls in tails:
                            if ls > room:
                                break
                            if coeffs[0] * f[rq + sa] != fq * f[rp + sa]:
                                return False
            return True

        # one walk or none makes no relation; more lie on the line the
        # unpadded relations leave, which a breaking relation kills
        rank = 0
        if path_count > 1:
            if not unpadded:
                raise InternalInvariantError(
                    f"no unpadded relation among the {path_count} walks from "
                    f"{source!r} to {target!r}; relations are missing"
                )
            coeffs = price(source, target, targets)[0]
            f = {arrows: c for (arrows, _), c in zip(targets, coeffs)}
            rank = path_count - 1 if agrees(f) else path_count

    return _report(table, source, target, truncation, path_count, rank)


def vertex_nondegeneracy(
    quiver: Quiver,
    table: GeneralCoefficientTable,
    truncation: int,
    path_cap: int = DEFAULT_PATH_CAP,
    field=QQ,
) -> bool:
    """Whether every vertex keeps a one-dimensional Hom space to itself."""
    return all(
        truncated_hom_dimension(quiver, table, v, v, truncation, path_cap, field).dimension
        == 1
        for v in quiver.vertices
    )


def pattern_report(
    quiver: Quiver,
    truncation: int,
    table: GeneralCoefficientTable | None = None,
    path_cap: int = DEFAULT_PATH_CAP,
    field=QQ,
) -> list[TruncatedQuotientReport]:
    """Truncated quotient reports for every ordered vertex pair."""
    if table is None:
        table = GeneralCoefficientTable.trivial(quiver)
    pairs = [(v, w) for v in quiver.vertices for w in quiver.vertices]
    if _listed(quiver, table, truncation, field):
        return [truncated_hom_dimension(quiver, table, v, w, truncation, path_cap, field)
                for v, w in pairs]
    walks = _counts(table, truncation, path_cap)
    return [_report(table, v, w, truncation, walks.count(v, w)) for v, w in pairs]


def pattern_equivalence(
    quiver: Quiver,
    truncation: int,
    path_cap: int = DEFAULT_PATH_CAP,
    field=QQ,
) -> bool:
    """Oracle dimensions (trivial coefficients) against plain reachability.

    Requires truncation >= n so every shortest path fits under the cutoff.
    """
    if truncation < quiver.n:
        raise QuiverError("truncation must be at least the vertex count")
    pattern = reachability(quiver)
    reports = pattern_report(quiver, truncation, path_cap=path_cap, field=field)
    return all(
        report.dimension == int(pattern.at(report.source, report.target))
        for report in reports
    )
