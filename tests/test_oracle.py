import hashlib
import io
import random
import re
from fractions import Fraction

import pytest

from commalg import (
    DEFAULT_PATH_CAP,
    CoefficientFunction,
    GeneralCoefficientTable,
    InternalInvariantError,
    PrimeField,
    QuiverError,
    TruncatedQuotientReport,
    TruncationOverflowError,
    commuting_algebra,
    pattern_equivalence,
    pattern_report,
    truncated_hom_dimension,
    vertex_nondegeneracy,
)
from commalg.cli import run
from commalg.linalg import Mat
from commalg.quiver import Path, Quiver, WalkCounts, WalksFrom, enumerate_paths
from commalg.randgen import random_quiver, random_sparse_quiver, random_weights
from commalg.structure import reachability
from commalg.fields import QQ, PrimeFieldElement
from quiver_examples import TWO_BLOCK_DSL


def two_routes():
    return Quiver(
        ["v", "w", "x"],
        [("a", "v", "w"), ("b", "v", "w"), ("c", "w", "x")],
    )


def test_exception_table_hand_check():
    q = two_routes()
    table = GeneralCoefficientTable(
        q,
        CoefficientFunction.trivial(),
        {q.path("v", ["a", "c"]): Fraction(1), q.path("v", ["b", "c"]): Fraction(2)},
    )
    # ac - bc (from the parallel pair a, b padded by c) and ac - 2 bc
    # (from the full paths) together kill the whole space
    report = truncated_hom_dimension(q, table, "v", "x", 2)
    assert report.path_count == 2
    assert report.relation_rank == 2
    assert report.dimension == 0
    assert report.certified is True


def test_multiplicative_table_keeps_dimension_one():
    q = two_routes()
    f = CoefficientFunction({"a": Fraction(3), "b": Fraction(1, 2)})
    table = GeneralCoefficientTable.multiplicative(q, f)
    report = truncated_hom_dimension(q, table, "v", "x", 2)
    assert report.path_count == 2
    assert report.relation_rank == 1
    assert report.dimension == 1
    assert report.certified is True


def test_table_validation():
    q = two_routes()
    with pytest.raises(QuiverError):
        GeneralCoefficientTable(q, CoefficientFunction.trivial(),
                                {q.path("v", ["a"]): 0})
    bad = Path("v", ("c",), "x")  # c does not start at v
    with pytest.raises(QuiverError):
        GeneralCoefficientTable(q, CoefficientFunction.trivial(), {bad: 1})
    other = Quiver(["v"], [])
    table = GeneralCoefficientTable.trivial(other)
    with pytest.raises(QuiverError):
        truncated_hom_dimension(q, table, "v", "x", 2)
    with pytest.raises(QuiverError):
        truncated_hom_dimension(q, GeneralCoefficientTable.trivial(q), "v", "x", -1)


def test_table_rejects_a_path_that_ends_elsewhere():
    q = two_routes()
    wrong_end = Path("v", ("a",), "x")  # a runs v -> w
    with pytest.raises(QuiverError, match="is not a path of the quiver"):
        GeneralCoefficientTable(q, CoefficientFunction.trivial(), {wrong_end: 1})


def test_table_rejects_base_weights_on_unknown_arrows():
    q = Quiver(["v", "w"], [("a", "v", "w"), ("b", "v", "w")])
    with pytest.raises(QuiverError, match="weight given for unknown arrow 'zz'"):
        GeneralCoefficientTable(q, CoefficientFunction({"zz": 5}), {})
    with pytest.raises(QuiverError, match="weight given for unknown arrow 'zz'"):
        GeneralCoefficientTable.multiplicative(q, CoefficientFunction({"a": 2, "zz": 5}))
    table = GeneralCoefficientTable(q, CoefficientFunction({"a": 5}), {})
    assert table.base.weights == {"a": 5}


def test_table_value_exception_overrides_base():
    q = two_routes()
    f = CoefficientFunction({"a": 5})
    p = q.path("v", ["a", "c"])
    table = GeneralCoefficientTable(q, f, {p: Fraction(7)})
    assert table.value(p) == 7
    assert table.value(q.path("v", ["b", "c"])) == 1
    assert not table.is_multiplicative
    assert GeneralCoefficientTable.multiplicative(q, f).is_multiplicative


def _dense_relation_rank(quiver, table, source, target, truncation, field=QQ):
    """Naive full enumeration of padded two-term relations, dense rank.

    Raises QuiverError when a relation's coefficient vanishes or is not
    defined in the field.
    """
    paths = enumerate_paths(quiver, source, target, truncation, cap=500_000)
    index = {p: k for k, p in enumerate(paths)}
    rows = []
    for a in quiver.vertices:
        heads = enumerate_paths(quiver, source, a, truncation, cap=500_000)
        for b in quiver.vertices:
            middles = enumerate_paths(quiver, a, b, truncation, cap=500_000)
            tails = enumerate_paths(quiver, b, target, truncation, cap=500_000)
            for pi in range(len(middles)):
                for qi in range(pi + 1, len(middles)):
                    p, q = middles[pi], middles[qi]
                    budget = truncation - max(len(p), len(q))
                    if budget < 0:
                        continue
                    for r in heads:
                        if len(r) > budget:
                            continue
                        for s in tails:
                            if len(r) + len(s) > budget:
                                continue
                            row = [field.zero] * len(paths)
                            i = index[Path(source, r.arrows + p.arrows + s.arrows,
                                           target)]
                            j = index[Path(source, r.arrows + q.arrows + s.arrows,
                                           target)]
                            row[i] = row[i] + field.nonzero(table.value(p))
                            row[j] = row[j] - field.nonzero(table.value(q))
                            rows.append(row)
    if not rows:
        return 0
    return Mat(len(rows), len(paths), rows, field=field).rank()


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]


def test_tabulated_rank_agrees_with_dense_elimination():
    answered = dict.fromkeys(FIELDS, 0)
    refused = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        if seed % 2:  # loops and parallel arrows
            q = random_quiver(n, rng.randint(1, 4), rng)
        else:
            q = random_sparse_quiver(n, rng.randint(1, min(4, n * n)), rng)
        truncation = 3
        all_paths = [
            p
            for v in q.vertices
            for w in q.vertices
            for p in enumerate_paths(q, v, w, truncation, cap=100_000)
        ]
        if len(all_paths) > 60:
            continue
        nontrivial = [p for p in all_paths if len(p) >= 1]
        exceptions = {}
        for p in rng.sample(nontrivial, min(3, len(nontrivial))):
            exceptions[p] = Fraction(rng.choice([1, 2, 3, -1, 5, Fraction(1, 2), Fraction(-5, 3)]))
        base = random_weights(q, rng) if seed % 4 < 2 else CoefficientFunction.trivial()
        for table in (
            GeneralCoefficientTable.multiplicative(q, base),
            GeneralCoefficientTable(q, base, exceptions),
        ):
            for field in FIELDS:
                for v in q.vertices:
                    for w in q.vertices:
                        try:
                            dense = _dense_relation_rank(q, table, v, w, truncation, field)
                        except QuiverError:
                            dense = None
                        try:
                            report = truncated_hom_dimension(
                                q, table, v, w, truncation, field=field
                            )
                        except QuiverError as error:
                            # a refusal names a coefficient the field cannot
                            # hold, which a tabulated table reads exactly where
                            # the dense reference does
                            assert re.search(
                                rf"(vanishes|is not defined) in {field.name}", str(error)
                            )
                            assert dense is None or table.is_multiplicative
                            refused += 1
                            continue
                        # a multiplicative table reads only whole walks, whose
                        # weights may cancel where a middle's do not
                        assert dense is not None or table.is_multiplicative
                        if dense is not None:
                            assert report.relation_rank == dense
                            assert report.dimension == report.path_count - dense
                            answered[field] += 1
    assert min(answered.values()) >= 100
    assert refused >= 100


@pytest.mark.parametrize("seed", range(20))
def test_multiplicative_dimension_equals_reachability(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    q = random_sparse_quiver(n, rng.randint(0, min(10, n * n)), rng)
    f = random_weights(q, rng)
    table = GeneralCoefficientTable.multiplicative(q, f)
    alg = commuting_algebra(q)
    for v in q.vertices:
        for w in q.vertices:
            report = truncated_hom_dimension(q, table, v, w, n + 2)
            assert report.certified
            assert report.dimension == alg.hom_dimension(v, w)


@pytest.mark.parametrize("seed", range(12))
def test_truncation_monotone_stability(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    q = random_sparse_quiver(n, rng.randint(1, min(8, n * n)), rng)
    table = GeneralCoefficientTable.trivial(q)
    for v in q.vertices:
        for w in q.vertices:
            low = truncated_hom_dimension(q, table, v, w, n)
            high = truncated_hom_dimension(q, table, v, w, n + 2)
            assert low.certified and high.certified
            assert low.dimension == high.dimension


def test_certification_flags():
    q = Quiver(["v", "w", "x"], [("a", "v", "w"), ("b", "w", "x")])
    table = GeneralCoefficientTable.trivial(q)
    # v -> x needs two arrows; truncation 1 sees no path yet
    early = truncated_hom_dimension(q, table, "v", "x", 1)
    assert early.path_count == 0 and early.dimension == 0
    assert early.certified is False
    late = truncated_hom_dimension(q, table, "v", "x", 2)
    assert late.dimension == 1 and late.certified is True
    # x never reaches v: certified at any truncation
    never = truncated_hom_dimension(q, table, "x", "v", 0)
    assert never.dimension == 0 and never.certified is True


def test_exception_table_conflict_collapses():
    q = two_routes()
    # tabulated 2*ac = bc conflicts with the padded relation ac = bc,
    # so the whole Hom space dies
    table = GeneralCoefficientTable(
        q, CoefficientFunction.trivial(), {q.path("v", ["a", "c"]): Fraction(2)}
    )
    report = truncated_hom_dimension(q, table, "v", "x", 2)
    assert report.dimension == 0
    assert report.certified is True


def test_certification_exception_table():
    q = two_routes()
    # scaling both parallel classes the same way stays consistent:
    # dimension 1 survives, but a tabulated run cannot certify it
    table = GeneralCoefficientTable(
        q,
        CoefficientFunction.trivial(),
        {q.path("v", ["a", "c"]): Fraction(3), q.path("v", ["b", "c"]): Fraction(3)},
    )
    report = truncated_hom_dimension(q, table, "v", "x", 2)
    assert report.dimension == 1
    assert report.certified is False
    # unreachable pair: zero paths, certified
    unreachable = truncated_hom_dimension(q, table, "x", "v", 3)
    assert unreachable.dimension == 0 and unreachable.certified is True


def test_path_cap_overflows():
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
    table = GeneralCoefficientTable.trivial(q)
    with pytest.raises(TruncationOverflowError):
        truncated_hom_dimension(q, table, "v", "v", 20, path_cap=50)


def test_vertex_nondegeneracy(triangle_quiver, two_block):
    t1 = GeneralCoefficientTable.trivial(triangle_quiver)
    assert vertex_nondegeneracy(triangle_quiver, t1, 6)
    t2 = GeneralCoefficientTable.trivial(two_block)
    assert vertex_nondegeneracy(two_block, t2, 8)


def test_pattern_report_and_equivalence(two_block):
    reports = pattern_report(two_block, 8)
    assert len(reports) == 36
    assert all(r.truncation == 8 for r in reports)
    assert pattern_equivalence(two_block, 8)
    with pytest.raises(QuiverError):
        pattern_equivalence(two_block, 5)  # below the vertex count


def test_pattern_equivalence_cycle(cycle6):
    assert pattern_equivalence(cycle6, 6)


def test_oracle_over_prime_field(two_block):
    f5 = PrimeField(5)
    table = GeneralCoefficientTable.trivial(two_block)
    alg = commuting_algebra(two_block)
    for v in two_block.vertices:
        for w in two_block.vertices:
            report = truncated_hom_dimension(
                two_block, table, v, w, 8, field=f5
            )
            assert report.dimension == alg.hom_dimension(v, w)


def test_weights_that_vanish_mod_p_are_rejected():
    q = Quiver(["v", "w"], [("a", "v", "w"), ("b", "v", "w")])
    f = CoefficientFunction({"a": 5, "b": 1})
    table = GeneralCoefficientTable.multiplicative(q, f)
    # 5 is nonzero over the rationals but dies mod 5
    with pytest.raises(QuiverError):
        truncated_hom_dimension(q, table, "v", "w", 1, field=PrimeField(5))


def _tabulated_table(q, rng, truncation):
    """A table with a few random exceptions among the paths up to ``truncation``."""
    nontrivial = [
        p
        for v in q.vertices
        for w in q.vertices
        for p in enumerate_paths(q, v, w, truncation, cap=100_000)
        if len(p) >= 1
    ]
    exceptions = {
        p: Fraction(rng.choice([2, 3, -1, 5, Fraction(1, 2)]))
        for p in rng.sample(nontrivial, min(5, len(nontrivial)))
    }
    return GeneralCoefficientTable(q, random_weights(q, rng), exceptions)


def test_shared_table_reports_agree_with_dense_elimination():
    for seed in range(30):
        rng = random.Random(1000 + seed)
        n = rng.choice([5, 6])
        q = random_sparse_quiver(n, rng.randint(n - 1, n + 1), rng)
        table = _tabulated_table(q, rng, 2)
        assert not table.is_multiplicative
        # one table for every pair and every truncation, so later calls
        # read walk lists and coefficients that earlier ones stored
        for truncation in (3, 4, 5):
            for report in pattern_report(q, truncation, table):
                dense = _dense_relation_rank(
                    q, table, report.source, report.target, truncation
                )
                assert report.relation_rank == dense
                assert report.dimension == report.path_count - dense


def test_reused_table_matches_fresh_tables():
    rng = random.Random(7)
    q = random_sparse_quiver(6, 10, rng)
    shared = _tabulated_table(q, rng, 2)
    for truncation in (2, 4, 2):
        fresh = GeneralCoefficientTable(q, shared.base, shared.exceptions)
        assert pattern_report(q, truncation, shared) == pattern_report(
            q, truncation, fresh
        )


def _overflow_message(q, table, path_cap):
    with pytest.raises(TruncationOverflowError) as caught:
        truncated_hom_dimension(q, table, "s", "v", 6, path_cap=path_cap)
    return str(caught.value)


def test_memo_never_hides_a_path_cap_overflow():
    # s -> v has 63 paths up to length 6, but the middles v -> v number 127
    q = Quiver(["s", "v"], [("c", "s", "v"), ("a", "v", "v"), ("b", "v", "v")])
    exceptions = {q.path("s", ["c"]): Fraction(2)}
    table = GeneralCoefficientTable(q, CoefficientFunction.trivial(), exceptions)
    truncated_hom_dimension(q, table, "s", "v", 6, path_cap=10**6)
    fresh = GeneralCoefficientTable(q, CoefficientFunction.trivial(), exceptions)
    expected = _overflow_message(q, fresh, 100)
    assert expected.startswith("path count from 'v' to 'v' exceeds cap 100")
    assert _overflow_message(q, table, 100) == expected
    assert _overflow_message(q, table, 100) == expected


def test_memo_never_hides_a_coefficient_vanishing_in_the_field():
    q = two_routes()
    table = GeneralCoefficientTable(
        q, CoefficientFunction.trivial(), {q.path("v", ["a"]): Fraction(5)}
    )
    assert truncated_hom_dimension(q, table, "v", "x", 2).path_count == 2
    for _ in range(2):
        with pytest.raises(QuiverError, match="vanishes in F5"):
            truncated_hom_dimension(q, table, "v", "x", 2, field=PrimeField(5))


def test_only_middle_pairs_price_their_coefficients():
    # s -a-> v -b-> t: every middle is alone, so f(a) = 5 is never read and
    # cannot vanish in F5; a second route c from s to v makes it a middle pair
    q = Quiver(["s", "v", "t"], [("a", "s", "v"), ("b", "v", "t")])
    table = GeneralCoefficientTable(
        q, CoefficientFunction.trivial(), {q.path("s", ["a"]): Fraction(5)}
    )
    reports = pattern_report(q, 2, table, field=PrimeField(5))
    assert [r.dimension for r in reports] == [1, 1, 1, 0, 1, 1, 0, 0, 1]
    q = Quiver(["s", "v", "t"], [("a", "s", "v"), ("c", "s", "v"), ("b", "v", "t")])
    table = GeneralCoefficientTable(
        q, CoefficientFunction.trivial(), {q.path("s", ["a"]): Fraction(5)}
    )
    assert [r.dimension for r in pattern_report(q, 2, table)] == [1, 1, 0, 0, 1, 1, 0, 0, 1]
    for _ in range(2):
        with pytest.raises(QuiverError, match=r"Path\(s:a:v\) vanishes in F5"):
            pattern_report(q, 2, table, field=PrimeField(5))


def test_used_table_equals_fresh_table():
    q = two_routes()
    exceptions = {q.path("v", ["a", "c"]): Fraction(2)}
    used = GeneralCoefficientTable(q, CoefficientFunction.trivial(), exceptions)
    pattern_report(q, 3, used)
    fresh = GeneralCoefficientTable(q, CoefficientFunction.trivial(), exceptions)
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_memo_tells_apart_trivial_path_coefficients():
    # e_v and e_w share the empty arrow tuple; only e_w vanishes mod 5
    q = Quiver(["v", "w"], [("x", "v", "w"), ("y", "w", "v")])
    exceptions = {q.vertex_path("v"): Fraction(1), q.vertex_path("w"): Fraction(5)}
    table = GeneralCoefficientTable(q, CoefficientFunction.trivial(), exceptions)
    assert len(pattern_report(q, 2, table)) == 4
    with pytest.raises(QuiverError, match=r"Path\(w\) vanishes in F5"):
        pattern_report(q, 2, table, field=PrimeField(5))


def test_a_coefficient_the_field_cannot_hold_is_not_defined_there():
    # 1/3 has no value in F3, while 3 is a true zero there
    q = Quiver(["s", "t"], [("a", "s", "t"), ("b", "s", "t")])
    for value, message in (
        (Fraction(1, 3), r"Path\(s:a:t\) is not defined in F3: denominator of 1/3 is"),
        (3, r"Path\(s:a:t\) vanishes in F3$"),
    ):
        for table in (
            GeneralCoefficientTable(q, CoefficientFunction.trivial(), {q.path("s", ["a"]): value}),
            GeneralCoefficientTable.multiplicative(q, CoefficientFunction({"a": value})),
        ):
            with pytest.raises(QuiverError, match=message):
                truncated_hom_dimension(q, table, "s", "t", 2, field=PrimeField(3))


def test_a_middle_no_fitting_relation_reads_is_not_priced():
    # a0.a0 is not defined in F2, but at L = 2 only (s, s) has a relation
    # that reads it: (s, t) pads it with the tail a1, which leaves no room
    q = Quiver(["s", "t"], [("a0", "s", "s"), ("a1", "s", "t")])
    table = GeneralCoefficientTable(
        q, CoefficientFunction.trivial(), {q.path("s", ["a0", "a0"]): Fraction(1, 2)}
    )
    f2 = PrimeField(2)
    report = truncated_hom_dimension(q, table, "s", "t", 2, field=f2)
    assert (report.path_count, report.relation_rank, report.dimension) == (2, 1, 1)
    assert report.relation_rank == _dense_relation_rank(q, table, "s", "t", 2, f2)
    for _ in range(2):  # the stored failure raises again
        with pytest.raises(QuiverError, match=r"Path\(s:a0.a0:s\) is not defined in F2"):
            truncated_hom_dimension(q, table, "s", "s", 2, field=f2)
    with pytest.raises(QuiverError):
        _dense_relation_rank(q, table, "s", "s", 2, f2)


def test_missing_unpadded_relations_raise(monkeypatch):
    # without length-0 walks no relation ties the walks a and b together
    class NoTrivialWalks(WalksFrom):
        def walks(self, target):
            return [(arrows, length) for arrows, length in super().walks(target) if arrows]

    monkeypatch.setattr("commalg.oracle.WalksFrom", NoTrivialWalks)
    q = Quiver(["s", "t"], [("a", "s", "t"), ("b", "s", "t")])
    table = GeneralCoefficientTable(q, CoefficientFunction.trivial(), {q.path("s", ["a"]): 2})
    with pytest.raises(InternalInvariantError, match="relations are missing"):
        truncated_hom_dimension(q, table, "s", "t", 2)


def _record_passes(monkeypatch):
    """Patch both walk passes to record their arguments: ("counts", length, cap)
    for a packed pass, ("walks", source, length, cap, lists) for a ``WalksFrom``."""
    passes = []
    counts, walks = WalkCounts.__init__, WalksFrom.__init__

    def packed(self, quiver, max_length, cap=None):
        passes.append(("counts", max_length, cap))
        counts(self, quiver, max_length, cap)

    def listed(self, quiver, source, max_length, cap=None, lists=False):
        passes.append(("walks", source, max_length, cap, lists))
        walks(self, quiver, source, max_length, cap, lists)

    monkeypatch.setattr(WalkCounts, "__init__", packed)
    monkeypatch.setattr(WalksFrom, "__init__", listed)
    return passes


def test_no_uncapped_recount_once_the_truncation_reaches_n_minus_1(monkeypatch):
    # certification reads one uncapped packed pass to n - 1, kept in the
    # table's memo: made at the first report without a walk below n - 1, for
    # trivial and tabulated tables alike, and never from n - 1 on
    passes = _record_passes(monkeypatch)
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        q = random_quiver(n, n + 1, rng)
        pattern = reachability(q)
        for table in (GeneralCoefficientTable.trivial(q), _tabulated_table(q, rng, 2)):
            passes.clear()
            uncapped = [("counts", n - 1, None)]
            needed = None  # the first truncation with a report without a walk
            for truncation in range(n + 1):
                built = len(passes)
                reports = pattern_report(q, truncation, table)
                if needed is None and truncation < n - 1 and any(
                        r.path_count == 0 for r in reports):
                    needed = truncation
                made = [p for p in passes[built:] if p[0] == "counts" and p[2] is None]
                assert made == (uncapped if truncation == needed else [])
                for r in reports:
                    reached = r.path_count > 0 or not pattern.at(r.source, r.target)
                    assert r.certified == (
                        reached and (table.is_multiplicative or r.dimension == 0)
                    )
            assert needed is not None
            # every other pass is capped: the walk lists of the tabulated
            # branch, or one packed pass per truncation
            capped = [p for p in passes if p not in uncapped]
            assert all((p[3] if p[0] == "walks" else p[2]) == DEFAULT_PATH_CAP for p in capped)
            assert [p[1] for p in capped if p[0] == "counts"] == (
                list(range(n + 1)) if table.is_multiplicative else [])
        # on a fresh table, from n - 1 on, no uncapped pass at all
        for truncation in (n - 1, n):
            passes.clear()
            pattern_report(q, truncation, GeneralCoefficientTable.trivial(q))
            assert passes == [("counts", truncation, DEFAULT_PATH_CAP)]


def test_weights_whose_product_is_one_never_vanish_mod_p():
    # a and b each vanish or blow up mod 3, but no counted path carries
    # one without the other: both paths s -> t have value 1
    q = Quiver(["s", "m", "t"], [("a", "s", "m"), ("b", "m", "t"), ("c", "s", "t")],
               weights={"a": 3, "b": Fraction(1, 3)})
    table = GeneralCoefficientTable.multiplicative(q, CoefficientFunction.from_quiver(q))
    report = truncated_hom_dimension(q, table, "s", "t", 2, field=PrimeField(3))
    assert (report.path_count, report.dimension, report.certified) == (2, 1, True)


# stdout of `verify -` on TWO_BLOCK_DSL, the same over rat and fp:1000003,
# recorded while the oracle still enumerated every pair's paths
TWO_BLOCK_VERIFY_SHA256 = "a477df0b442a49b2627e1342de587835202c4f4b08635995dd9a3ec59122631d"


@pytest.mark.parametrize("field", ["rat", "fp:1000003"])
def test_verify_builds_no_path_in_the_oracle(field, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("the oracle built a path")

    def count_only(self, quiver, source, max_length, cap=None, lists=False):
        if lists:
            pytest.fail("the oracle listed walks")
        walks_from(self, quiver, source, max_length, cap, lists)

    walks_from = WalksFrom.__init__
    monkeypatch.setattr("commalg.quiver.enumerate_paths", refuse)
    monkeypatch.setattr("commalg.oracle.Path", refuse)
    monkeypatch.setattr(WalksFrom, "__init__", count_only)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(TWO_BLOCK_DSL.encode())))
    assert run(["verify", "--field", field, "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TWO_BLOCK_VERIFY_SHA256


class PerPairWalks:
    """The walks the oracle read before the per-source pass: one frontier per pair.

    ``count`` is ``count_paths`` as it stood, and ``walks`` is
    ``enumerate_paths`` as it stood, counting first and then listing every walk
    from the source as a ``Path``.  Lists are kept per pair, as the old memo
    kept them; an overflow is recounted on every read.  ``binds`` tallies
    which side of the cap rule each overflow met first.
    """

    binds = {"frontier": 0, "matches": 0}

    def __init__(self, quiver, source, max_length, cap=None, lists=False):
        quiver.check_vertex(source)
        if max_length < 0:
            raise QuiverError("max_length must be nonnegative")
        if cap is not None and cap < 0:
            raise QuiverError("path cap must be nonnegative")
        self.args, self.lists, self.listed = (quiver, source, max_length, cap), lists, {}

    def count(self, target):
        quiver, source, max_length, cap = self.args
        frontier = {source: 1}
        matches = int(source == target)
        for length in range(1, max_length + 1):
            previous, frontier = frontier, {}
            for at, walks in previous.items():
                for arrow in quiver.arrows_from[at]:
                    frontier[arrow.target] = frontier.get(arrow.target, 0) + walks
            if not frontier:
                break
            matches += frontier.get(target, 0)
            if cap is not None and (sum(frontier.values()) > cap or matches > cap):
                side = "frontier" if sum(frontier.values()) > cap else "matches"
                PerPairWalks.binds[side] += 1
                raise TruncationOverflowError(
                    f"path count from {source!r} to {target!r} exceeds cap {cap} "
                    f"at length {length}"
                )
        return matches

    def walks(self, target):
        self.count(target)
        if target not in self.listed:
            quiver, source, max_length, _ = self.args
            frontier = [quiver.vertex_path(source)]
            results = frontier[:] if source == target else []
            for _ in range(max_length):
                frontier = [
                    Path(path.start, path.arrows + (arrow.name,), arrow.target)
                    for path in frontier
                    for arrow in quiver.arrows_from[path.end]
                ]
                if not frontier:
                    break
                results += [path for path in frontier if path.end == target]
            self.listed[target] = [(p.arrows, len(p.arrows)) for p in results]
        return self.listed[target]


class PerPairCounts:
    """``WalkCounts`` read through ``PerPairWalks``: one frontier per pair."""

    def __init__(self, quiver, max_length, cap=None):
        self.walks = {v: PerPairWalks(quiver, v, max_length, cap) for v in quiver.vertices}

    def count(self, source, target):
        return self.walks[source].count(target)


def _report_outcome(q, table, truncation, cap, field):
    # a fresh table, so that no memo entry crosses from one route to the other
    fresh = GeneralCoefficientTable(q, table.base, table.exceptions)
    try:
        return pattern_report(q, truncation, fresh, cap, field)
    except (QuiverError, InternalInvariantError) as error:
        return type(error), str(error)


def _reference_cases(seeds, max_n, tables, fields, caps, shuffled=False):
    """Random quivers of at most ``max_n`` vertices, their vertices declared
    in a random order if ``shuffled``, each table, field, truncation 0 to
    n + 2 and cap."""
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(1, max_n)
        q = random_quiver(n, rng.randint(0, 2 * n), rng)
        if shuffled:
            q = Quiver(rng.sample(q.vertices, n), q.arrows, name=q.name)
        for table in tables(q, rng):
            for field in fields:
                for truncation in range(n + 3):
                    for cap in caps:
                        yield q, table, truncation, cap, field


def test_per_source_walks_match_the_per_pair_reference(monkeypatch):
    monkeypatch.setattr(PerPairWalks, "binds", {"frontier": 0, "matches": 0})
    outcomes = {"reports": 0, "overflow": 0, "cap 0": 0, "field": 0}
    cases = _reference_cases(
        range(2200, 2224), 4,
        lambda q, rng: [
            GeneralCoefficientTable.trivial(q),
            GeneralCoefficientTable.multiplicative(q, random_weights(q, rng)),
            _tabulated_table(q, rng, 2),
        ],
        (QQ, PrimeField(3)), (None, 0, 1, 2, 4, 9, 30),
    )
    for q, table, truncation, cap, field in cases:
        actual = _report_outcome(q, table, truncation, cap, field)
        with monkeypatch.context() as patched:
            # trivial and multiplicative tables count through PerPairWalks too
            patched.setattr("commalg.oracle.WalksFrom", PerPairWalks)
            patched.setattr("commalg.oracle.WalkCounts", PerPairCounts)
            expected = _report_outcome(q, table, truncation, cap, field)
        assert actual == expected
        if isinstance(actual, list):
            outcomes["reports"] += 1
        elif actual[0] is TruncationOverflowError:
            outcomes["cap 0" if cap == 0 else "overflow"] += 1
        else:
            outcomes["field"] += 1
    assert min(outcomes.values()) >= 100, outcomes
    assert min(PerPairWalks.binds.values()) >= 100, PerPairWalks.binds


def _walk_outcomes(walks_of, q):
    """Every (source, target) count, or its overflow message, off ``walks_of``."""
    out = []
    for source in q.vertices:
        for target in q.vertices:
            try:
                out.append(walks_of(source, target))
            except TruncationOverflowError as error:
                out.append(str(error))
    return out


def _packed_against_frontiers(q, truncation, cap):
    packed = WalkCounts(q, truncation, cap)
    frontiers = {v: WalksFrom(q, v, truncation, cap) for v in q.vertices}
    actual = _walk_outcomes(packed.count, q)
    assert actual == _walk_outcomes(lambda s, t: frontiers[s].count(t), q)
    return packed, actual


PACKED_CAPS = (None, 0, 1, 2, 4, 9, 30, 20000)


def test_packed_counts_match_the_frontier_pass_per_source():
    # every count and every overflow length on seeded random quivers, from a
    # few vertices and no arrows to twice as many arrows as vertices
    overflows = counts = 0
    for seed in range(3000, 3060):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        q = random_quiver(n, rng.randint(0, 2 * n), rng)
        for truncation in range(n + 3):
            for cap in PACKED_CAPS:
                _, outcomes = _packed_against_frontiers(q, truncation, cap)
                overflows += sum(isinstance(o, str) for o in outcomes)
                counts += sum(isinstance(o, int) for o in outcomes)
    assert min(overflows, counts) >= 1000, (overflows, counts)


def test_packed_counts_keep_a_cap_0_source_without_arrows():
    # w has no arrow, so its walk of length 0 exceeds a cap of 0 at no length;
    # every end of v overflows at length 1, where v's walks of one length do
    q = Quiver(["v", "w"], [("a", "v", "w")])
    for truncation in range(4):
        packed, outcomes = _packed_against_frontiers(q, truncation, 0)
        assert packed.count("w", "w") == 1 and packed.count("w", "v") == 0
        if truncation:
            assert outcomes[:2] == [f"path count from 'v' to {t!r} exceeds cap 0 at length 1"
                                    for t in "vw"]


def test_packed_counts_fill_a_slot_to_the_all_sources_bound():
    # x has two loops, y one and no arrow joins them: at L = 6 x has 127 walks
    # to itself, every walk to x, and no frontier of one length holds more,
    # so a slot holds the all-sources bound in 7 bits beneath its guard bit
    q = Quiver(["x", "y"], [("a", "x", "x"), ("b", "x", "x"), ("c", "y", "y")])
    for cap in PACKED_CAPS + (63, 64, 126, 127, 128):
        packed, outcomes = _packed_against_frontiers(q, 6, cap)
        assert packed.size == 1
        if cap is None or cap >= 127:
            assert outcomes == [127, 0, 0, 7]
    assert _packed_against_frontiers(q, 6, 126)[1][0] == (
        "path count from 'x' to 'x' exceeds cap 126 at length 6")


def test_packed_counts_read_a_cap_that_is_not_an_int_as_walks_from_does():
    # a count exceeds the cap 4.5 where it exceeds 4, and never exceeds
    # infinity: the packed pass, and the walk lists that weights over F_p read
    for seed in range(3060, 3070):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        q = random_quiver(n, 2 * n, rng)
        for cap in (2.5, Fraction(9, 2), 30.0, float("inf")):
            _packed_against_frontiers(q, n + 2, cap)
            assert (_report_outcome(q, GeneralCoefficientTable.trivial(q), n + 2, cap, QQ)
                    == _report_outcome(q, GeneralCoefficientTable(q, random_weights(q, rng), {}),
                                       n + 2, cap, PrimeField(1000003)))


def nested_loop_hom_dimension(q, table, source, target, truncation, cap, field, memo):
    """A tabulated report as the oracle made it before the per-source plans.

    For every pair it sweeps every middle end (a, b) in vertex order: the
    heads from the source to a, the middles from a to b, then, for two
    middles or more, the tails from b to the target, pricing each middle list
    that a tail follows and raising its failure where a relation that fits
    reads it.  ``memo`` keeps the walk passes and the priced lists.
    """

    def walks_from(a, length=truncation, cap=cap):
        if (a, length, cap) not in memo:
            memo[a, length, cap] = WalksFrom(q, a, length, cap, lists=True)
        return memo[a, length, cap]

    def coeff(path):
        try:
            value = field.element(table.value(path))
        except QuiverError as error:
            raise QuiverError(
                f"coefficient of {path!r} is not defined in {field.name}: {error}"
            ) from None
        if value == field.zero:
            raise QuiverError(f"coefficient of {path!r} vanishes in {field.name}")
        return value

    def middle_pairs(a, b, middles):
        if (a, b) not in memo:
            coeffs, failure = [], None
            for arrows, length in middles:
                try:
                    coeffs.append(coeff(Path(a, arrows, b)))
                except QuiverError as error:
                    failure = length, str(error)
                    break
            pairs = [(pa, qa, lq, fp, fq)
                     for k, ((pa, _), fp) in enumerate(zip(middles, coeffs))
                     for (qa, lq), fq in zip(middles[k + 1:], coeffs[k + 1:])]
            memo[a, b] = coeffs, sorted(pairs, key=lambda pair: pair[2]), failure
        return memo[a, b]

    from_source = walks_from(source)
    targets = from_source.walks(target)
    path_count = len(targets)
    triples, unpadded = [], False
    for a in q.vertices:
        heads = from_source.walks(a)
        if not heads:
            continue
        for b in q.vertices:
            middles = walks_from(a).walks(b)
            if len(middles) < 2:
                continue
            tails = walks_from(b).walks(target)
            if not tails:
                continue
            _, pairs, failure = middle_pairs(a, b, middles)
            if failure:
                room = truncation - heads[0][1] - tails[0][1]
                if failure[0] <= room and middles[1][1] <= room:
                    raise QuiverError(failure[1])
            triples.append((heads, pairs, tails))
            if a == source and b == target and heads[0][1] == tails[0][1] == 0:
                unpadded = True
    rank = 0
    if path_count > 1:
        if not unpadded:
            raise InternalInvariantError("relations are missing")
        f = dict(zip((arrows for arrows, _ in targets), middle_pairs(source, target, targets)[0]))

        def agrees():
            for heads, pairs, tails in triples:
                shortest = heads[0][1] + tails[0][1]
                for pa, qa, lq, fp, fq in pairs:
                    budget = truncation - lq
                    if budget < shortest:
                        break
                    for ra, lr in heads:
                        room = budget - lr
                        if room < 0:
                            break
                        for sa, ls in tails:
                            if ls > room:
                                break
                            if fp * f[ra + qa + sa] != fq * f[ra + pa + sa]:
                                return False
            return True

        rank = path_count - 1 if agrees() else path_count
    dimension = path_count - rank
    reached = (path_count > 0 or truncation >= q.n - 1
               or not walks_from(source, q.n - 1, None).count(target))
    return TruncatedQuotientReport(source, target, truncation, path_count, rank, dimension,
                                   reached and dimension == 0)


def _nested_loop_outcome(q, table, truncation, cap, field):
    memo = {}
    try:
        return [nested_loop_hom_dimension(q, table, v, w, truncation, cap, field, memo)
                for v in q.vertices for w in q.vertices]
    except (QuiverError, InternalInvariantError) as error:
        return type(error), str(error)


def test_source_plans_match_the_nested_loop_reference():
    # weighted bases with exceptions, over QQ and three prime fields where
    # some exception or weight vanishes or is not defined; the vertices are
    # declared out of name order, which the plans must follow
    outcomes = {"reports": 0, "overflow": 0, "field": 0}
    cases = _reference_cases(
        range(2400, 2437), 5, lambda q, rng: [_tabulated_table(q, rng, 2)],
        (QQ, PrimeField(2), PrimeField(3), PrimeField(5)), (None, 0, 1, 2, 5, 20), shuffled=True,
    )
    for q, table, truncation, cap, field in cases:
        if table.is_multiplicative:
            continue
        actual = _report_outcome(q, table, truncation, cap, field)
        assert actual == _nested_loop_outcome(q, table, truncation, cap, field)
        if isinstance(actual, list):
            outcomes["reports"] += 1
        else:
            outcomes["overflow" if actual[0] is TruncationOverflowError else "field"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_reports_read_one_frontier_pass_per_source(monkeypatch):
    # counts alone (trivial coefficients, or weights over QQ) read one packed
    # pass per (table, truncation, cap) and list no walk; reports that read
    # a coefficient other than one list the walks of one frontier pass per
    # source, and count none
    passes = _record_passes(monkeypatch)
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        q = random_quiver(n, n + 2, rng)
        weights = random_weights(q, rng)
        for table, field in (
            (GeneralCoefficientTable.trivial(q), QQ),
            (GeneralCoefficientTable.trivial(q), PrimeField(1000003)),
            (GeneralCoefficientTable.multiplicative(q, weights), QQ),
            (GeneralCoefficientTable.multiplicative(q, weights), PrimeField(1000003)),
            (_tabulated_table(q, rng, 2), QQ),
        ):
            listed = field is not QQ and not table.base.is_trivial or not table.is_multiplicative
            for truncation in range(n + 3):
                for cap in (None, DEFAULT_PATH_CAP):
                    passes.clear()
                    fresh = GeneralCoefficientTable(q, table.base, table.exceptions)
                    reports = pattern_report(q, truncation, fresh, path_cap=cap, field=field)
                    # below n - 1, one uncapped packed pass to n - 1 decides
                    # whether the reports without a walk are certified
                    uncapped = [("counts", n - 1, None)] if truncation < n - 1 and any(
                        r.path_count == 0 for r in reports) else []
                    if not listed:
                        assert passes == [("counts", truncation, cap)] + uncapped
                        # every later read on the table, of any pair, reuses them
                        assert [truncated_hom_dimension(q, fresh, r.source, r.target,
                                                        truncation, cap, field)
                                for r in reports] == reports
                        assert vertex_nondegeneracy(q, fresh, truncation, cap, field) == all(
                            r.dimension == 1 for r in reports if r.source == r.target)
                        assert pattern_report(q, truncation, fresh, cap, field) == reports
                        assert len(passes) == 1 + len(uncapped)
                        continue
                    assert [p for p in passes if p[0] == "counts"] == uncapped
                    walks = [p[1:] for p in passes if p[0] == "walks"]
                    assert sorted(walks) == sorted((v, truncation, cap, True) for v in q.vertices)


def test_tabulated_reports_read_heads_and_middles_once_per_field_and_source(monkeypatch):
    # each source reads its heads and, from every head it reaches, its middles
    # once per field; each target reads the tails from every end of two
    # middles or more once; a report on a used table reads only its targets
    reads = []
    original = WalksFrom.walks

    def counting(self, target):
        reads.append((self.source, target))
        return original(self, target)

    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        q = random_quiver(n, n + 2, rng)
        table = _tabulated_table(q, rng, 2)
        if table.is_multiplicative:
            continue
        for truncation in range(n + 3):
            counts = {v: WalksFrom(q, v, truncation) for v in q.vertices}
            heads = sum(counts[s].count(a) > 0 for s in q.vertices for a in q.vertices)
            ends = sum(any(counts[a].count(b) > 1 for a in q.vertices) for b in q.vertices)
            fresh = GeneralCoefficientTable(q, table.base, table.exceptions)
            with monkeypatch.context() as patched:
                patched.setattr(WalksFrom, "walks", counting)
                reads.clear()
                first = pattern_report(q, truncation, fresh, path_cap=None)
                assert len(reads) == n * n + n * n + n * heads + n * ends
                keys = set(fresh._memo)
                reads.clear()
                assert pattern_report(q, truncation, fresh, path_cap=None) == first
                assert len(reads) == n * n and set(fresh._memo) == keys
                reads.clear()
                pattern_report(q, truncation, fresh, path_cap=None, field=PrimeField(1000003))
                assert len(reads) == n * n + n * n + n * heads


def test_tabulated_reports_check_each_middle_against_the_first(monkeypatch):
    # three layers of three parallel arrows, so every head, middle and tail
    # fits at L = 3, and an exception equal to its base value, so every
    # relation agrees and no loop ends early: a middle list of k walks costs
    # k - 1 relations, two products each, per head and tail, not k(k - 1)/2
    layers = ["s", "v", "w", "t"]
    q = Quiver(layers, [(f"{x}{i}", x, y) for x, y in zip(layers, layers[1:])
                        for i in range(3)])
    base = CoefficientFunction({"s0": 2, "v1": 3, "w2": Fraction(1, 2)})
    table = GeneralCoefficientTable(q, base, {q.path("s", ["s0", "v0"]): Fraction(2)})
    counts = {v: WalksFrom(q, v, 3) for v in q.vertices}
    expected = pattern_report(q, 3, GeneralCoefficientTable.multiplicative(q, base),
                              field=PrimeField(7))
    products = [0]
    original = PrimeFieldElement.__mul__

    def counting(self, other):
        products[0] += 1
        return original(self, other)

    monkeypatch.setattr(PrimeFieldElement, "__mul__", counting)
    reports = pattern_report(q, 3, table, field=PrimeField(7))
    assert [r.relation_rank for r in reports] == [r.relation_rank for r in expected]
    bound = sum(
        2 * (counts[a].count(b) - 1) * counts[r.source].count(a) * counts[b].count(r.target)
        for r in expected if r.path_count > 1
        for a in q.vertices for b in q.vertices if counts[a].count(b) > 1
    )
    assert 0 < products[0] <= bound
