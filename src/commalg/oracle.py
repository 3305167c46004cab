"""Brute-force Hom-space dimensions of truncated path quotients.

For a vertex pair (v, w) and a cutoff L, take the span of all paths v -> w
of length at most L, and quotient by every representable relation
r (f(p) p - f(q) q) s with p, q parallel and both padded products inside the
cutoff.  The reported dimension is the corank of the relation span.  No
reachability shortcut is consulted: this is the independent check that the
pattern-based algebra is measuring the right thing.

With multiplicative coefficients all parallel paths are one class, so the
report follows from the walk count v -> w of ``count_paths``; paths are
built only to check, over a prime field with weights, that none vanishes.
Walk lists and the union-find over two-term relations (``_TwoTermRank``)
belong to the tabulated branch, which reaches every relation through heads
x middles x tails walk lists.  These lists and the middle pairs recur for
every vertex pair of a report, so each ``GeneralCoefficientTable`` memoizes
them: walk lists as ``(arrows, length)`` pairs keyed by ``(start, end,
truncation, path_cap)``, and middle pairs keyed by ``(field, start, end,
truncation, path_cap)``, one ``(p, q, |q|, f(p), f(q), ratio id)`` for each
walk p before q, with f in the working field and the ratio f(q) / f(p)
interned per field, so the relation ledger holds int triples.  Middle pairs
are priced only between nonempty heads and tails, so a lone middle's
coefficient is never read.  Only successes are stored, so a path-cap
overflow or a coefficient that vanishes in the field raises again on every
call.  Reuse one table across calls, as ``pattern_report`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from numbers import Rational
from operator import itemgetter
from typing import Mapping

from .algebra import CoefficientFunction
from .errors import InternalInvariantError, QuiverError
from .fields import QQ, PrimeField
from .quiver import Path, Quiver, count_paths, enumerate_paths
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


@dataclass(frozen=True)
class GeneralCoefficientTable:
    """Path coefficients: tabulated exceptions over a multiplicative base.

    Any path not listed in ``exceptions`` gets the product of its arrow
    weights.  Base weights must name arrows of the quiver, listed values must
    be nonzero and listed paths must be valid in the quiver.
    """

    quiver: Quiver
    base: CoefficientFunction
    exceptions: Mapping[Path, Rational]
    # walk lists, middle pairs and ratio ids of the tabulated oracle branch
    _memo: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        object.__setattr__(self, "exceptions", cleaned)

    @classmethod
    def trivial(cls, quiver: Quiver) -> "GeneralCoefficientTable":
        return cls(quiver, CoefficientFunction.trivial(), {})

    @classmethod
    def multiplicative(
        cls, quiver: Quiver, f: CoefficientFunction
    ) -> "GeneralCoefficientTable":
        return cls(quiver, f, {})

    def value(self, path: Path) -> Rational:
        if path in self.exceptions:
            return self.exceptions[path]
        return self.base.value(path)

    @property
    def is_multiplicative(self) -> bool:
        return not self.exceptions


@dataclass(frozen=True)
class TruncatedQuotientReport:
    """Result of one truncated quotient computation."""

    source: str
    target: str
    truncation: int
    path_count: int
    relation_rank: int
    dimension: int
    certified: bool


class _TwoTermRank:
    """Rank of a span of vectors a*e_i - b*e_j via ratio union-find.

    Each class stores x_k = ratio_k * x_root.  A relation a x_i = b x_j
    either merges two classes, is redundant, or (on mismatch) proves the
    class is forced to zero.  rank = n - (number of live classes).
    """

    def __init__(self, n: int, field=QQ):
        self.parent = list(range(n))
        self.ratio = [field.one] * n  # x_i = ratio[i] * x_parent[i]
        self.dead = [False] * n  # meaningful at roots
        self.field = field

    def find(self, i: int) -> int:
        chain = []
        root = i
        while self.parent[root] != root:
            chain.append(root)
            root = self.parent[root]
        acc = self.field.one
        for node in reversed(chain):
            acc = self.ratio[node] * acc
            self.ratio[node] = acc
            self.parent[node] = root
        return root

    def _root_and_ratio(self, i: int) -> tuple[int, object]:
        root = self.find(i)
        return root, self.field.one if i == root else self.ratio[i]

    def relate(self, i: int, j: int, a, b) -> None:
        """Impose a * x_i == b * x_j with a, b nonzero."""
        ri, wi = self._root_and_ratio(i)
        rj, wj = self._root_and_ratio(j)
        if ri == rj:
            if a * wi != b * wj:
                self.dead[ri] = True
            return
        # x_ri = (b wj) / (a wi) * x_rj
        self.parent[ri] = rj
        self.ratio[ri] = self.field.div(b * wj, a * wi)
        self.dead[rj] = self.dead[rj] or self.dead[ri]

    def live_classes(self) -> int:
        roots = {self.find(i) for i in range(len(self.parent))}
        return sum(1 for r in roots if not self.dead[r])

    def rank(self) -> int:
        return len(self.parent) - self.live_classes()


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
    if table.quiver != quiver:
        raise QuiverError("coefficient table belongs to a different quiver")
    if truncation < 0:
        raise QuiverError("truncation must be nonnegative")

    def coeff(path: Path):
        # nonzero over the rationals is not enough: the value must stay
        # nonzero in the working field
        try:
            return field.nonzero(table.value(path))
        except QuiverError:
            raise QuiverError(
                f"coefficient of {path!r} vanishes in {field.name}"
            ) from None

    if table.is_multiplicative:
        # r (f(p) p - f(q) q) s is a scalar multiple of the plain difference
        # f(rps) rps - f(rqs) rqs, so padding never adds new relations; each
        # f(p_0) p_0 = f(p_k) p_k ties one more path to the first, so the
        # relations have rank one less than the path count
        path_count = count_paths(quiver, source, target, truncation, path_cap)
        if path_count > 1 and isinstance(field, PrimeField) and not table.base.is_trivial:
            for path in enumerate_paths(quiver, source, target, truncation, path_cap):
                coeff(path)  # raises if it vanishes in the field
        rank = max(path_count - 1, 0)
    else:
        memo = table._memo

        def walks(a: str, b: str) -> list[tuple[tuple[str, ...], int]]:
            key = (a, b, truncation, path_cap)
            found = memo.get(key)
            if found is None:
                found = [
                    (p.arrows, len(p.arrows))
                    for p in enumerate_paths(quiver, a, b, truncation, cap=path_cap)
                ]
                memo[key] = found
            return found

        def middle_pairs(a: str, b: str, middles) -> list[tuple]:
            # sorted by |q|; a ratio's id is its insertion index in ``ratio_ids``
            key = (field, a, b, truncation, path_cap)
            found = memo.get(key)
            if found is None:
                coeffs = [coeff(Path(a, arrows, b)) for arrows, _ in middles]
                found = memo[key] = sorted(
                    (
                        (pa, qa, lq, fp, fq,
                         ratio_ids.setdefault(field.div(fq, fp), len(ratio_ids)))
                        for k, ((pa, _), fp) in enumerate(zip(middles, coeffs))
                        for (qa, lq), fq in zip(middles[k + 1:], coeffs[k + 1:])
                    ),
                    key=itemgetter(2),
                )
            return found

        ratio_ids = memo.setdefault(field, {})
        index = {arrows: k for k, (arrows, _) in enumerate(walks(source, target))}
        path_count = len(index)
        solver = _TwoTermRank(path_count, field)
        seen: set[tuple[int, int, int]] = set()
        for a in quiver.vertices:
            heads = walks(source, a)
            if not heads:
                continue
            for b in quiver.vertices:
                middles = walks(a, b)
                if len(middles) < 2:
                    continue
                tails = walks(b, target)
                if not tails:
                    continue
                # pairs run by |q|, walk lists by length, then arrow order:
                # the first pair, head or tail too long for what is left
                # ends its loop, and r p s comes before r q s in the index
                shortest = heads[0][1] + tails[0][1]
                for pa, qa, lq, fp, fq, ratio in middle_pairs(a, b, middles):
                    budget = truncation - lq
                    if budget < shortest:
                        break
                    for ra, lr in heads:
                        room = budget - lr
                        if room < 0:
                            break
                        rp, rq = ra + pa, ra + qa
                        for sa, ls in tails:
                            if ls > room:
                                break
                            key = (index[rp + sa], index[rq + sa], ratio)
                            if key not in seen:
                                seen.add(key)
                                solver.relate(key[0], key[1], fp, fq)
        rank = solver.rank()

    dimension = path_count - rank
    if dimension > 1:
        raise InternalInvariantError(
            f"truncated dimension {dimension} exceeds 1 at "
            f"({source!r}, {target!r}); relations are missing"
        )

    # a reachable target has a path of length at most n - 1
    reached = path_count > 0 or not count_paths(quiver, source, target, quiver.n - 1)
    certified = reached and (table.is_multiplicative or dimension == 0)
    return TruncatedQuotientReport(
        source, target, truncation, path_count, rank, dimension, certified
    )


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
    return [
        truncated_hom_dimension(quiver, table, v, w, truncation, path_cap, field)
        for v in quiver.vertices
        for w in quiver.vertices
    ]


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
