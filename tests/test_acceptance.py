"""Acceptance suite: one test per shipped guarantee, fixed seeds throughout.

Each test prints a single summary line on success; the pytest -v status line
doubles as the pass/fail record per criterion.  Time limits are asserted
with wall-clock measurements where a bound is part of the guarantee.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

from commalg import (
    QQ,
    GeneralCoefficientTable,
    PrimeField,
    commuting_algebra,
    end_hom_dims,
    global_dimension,
    hasse,
    idempotence_check,
    incidence_algebra,
    minimal_resolution,
    pattern_report,
    quasi_structure_constant,
    reachability,
    skeleton,
    skeleton_iso_incidence,
    truncated_hom_dimension,
)
from commalg.poset import Poset, hasse_quiver
from commalg.quiver import Quiver, WalksFrom, enumerate_paths
from commalg.randgen import (
    random_poset,
    random_quiver,
    random_sparse_quiver,
    random_tree_quiver,
    random_weights,
)
from quiver_examples import (
    kronecker_quiver,
    oriented_cycle,
    six_cycle,
    six_cycle_with_chord,
    three_block_quiver,
    two_block_quiver,
)


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_two_block_example():
    start = time.perf_counter()
    q = two_block_quiver()
    alg = commuting_algebra(q)
    assert alg.pattern.bitstrings() == (
        "111111", "111111", "111111", "111111", "000011", "000011",
    )
    assert alg.total_dimension() == 28
    skel = skeleton(q)
    assert len(skel) == 2
    assert len(hasse(skel.poset).covers) == 1
    inc = incidence_algebra(skel.poset)
    assert inc.dimension == 3
    assert skel.poset.leq == ((True, True), (False, True))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"6x6 block form, dim 28, skeleton 2/1 cover, "
               f"incidence dim 3 ({elapsed:.3f}s)")


def test_criterion_02_three_block_example():
    start = time.perf_counter()
    q = three_block_quiver()
    alg = commuting_algebra(q)
    assert alg.pattern.bitstrings() == (
        "111111", "111111", "111111", "111111", "000011", "000001",
    )
    assert alg.total_dimension() == 27
    skel = skeleton(q)
    assert len(skel) == 3
    assert skel.poset.longest_chain() == 3
    assert hasse(skel.poset).cover_pairs() == [("x1", "x5"), ("x5", "x6")]
    gd = global_dimension(skel.poset)
    assert gd == 1
    assert gd <= skel.poset.longest_chain() - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"dim 27, 3-chain skeleton, gldim 1 <= 2 ({elapsed:.3f}s)")


def test_criterion_03_cycle_with_chord():
    start = time.perf_counter()
    q1 = six_cycle()
    q2 = six_cycle_with_chord()
    for q in (q1, q2):
        alg = commuting_algebra(q)
        assert alg.total_dimension() == 36
        assert all(row == "111111" for row in alg.pattern.bitstrings())
        assert len(skeleton(q)) == 1
    # the quivers themselves differ by exactly the one chord arrow
    assert len(q2.arrows) == len(q1.arrows) + 1
    assert (len(q1.arrows), len(q2.arrows)) == (6, 7)
    names1 = {a.name for a in q1.arrows}
    names2 = {a.name for a in q2.arrows}
    assert names2 - names1 == {"g"}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"both full 6x6 (dim 36), single-element skeletons, "
               f"quivers differ by the chord ({elapsed:.3f}s)")


def test_criterion_04_kronecker_family():
    for n in range(1, 7):
        alg = commuting_algebra(kronecker_quiver(n))
        assert alg.block_sizes == (1, 1)
        assert alg.block_pattern == ((True, True), (False, True))
        assert alg.pattern.bitstrings() == ("11", "01")
        assert alg.total_dimension() == 3
        skel = skeleton(kronecker_quiver(n))
        assert len(skel) == 2 and skel.poset.longest_chain() == 2
    _report(4, "n = 1..6 all give [[K,K],[0,K]], dim 3, 2-chain skeleton")


def test_criterion_05_cycle_family():
    for n in range(2, 13):
        q = oriented_cycle(n)
        alg = commuting_algebra(q)
        assert alg.total_dimension() == n * n
        skel = skeleton(q)
        assert len(skel) == 1
        assert global_dimension(skel.poset) == 0
    _report(5, "n = 2..12 cycles: dim n^2, one-point skeleton, gldim 0")


def test_criterion_06_trees():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        q = random_tree_quiver(n, rng)
        alg = commuting_algebra(q)
        assert alg.partition.sizes == (1,) * n
        pat = reachability(q)
        for v in q.vertices:
            for w in q.vertices:
                assert alg.hom_dimension(v, w) == int(pat.at(v, w))
        assert alg.total_dimension() == pat.true_count()
        skel = skeleton(q)
        assert len(hasse_quiver(skel.poset).vertices) == n
    _report(6, "50 random trees (n <= 10): no collapsing, skeleton keeps "
               "every vertex")


def test_criterion_07_property_suite():
    start = time.perf_counter()
    checked = {"dim": 0, "block": 0, "units": 0, "iso": 0, "idem": 0,
               "gldim": 0, "endhom": 0}
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        q = random_quiver(n, rng.randint(0, 25), rng)
        alg = commuting_algebra(q)

        # (a) dimension bound
        assert alg.total_dimension() <= n * n
        checked["dim"] += 1

        # (b) block form: constant blocks, full diagonal, upper triangular,
        # and never both (i, j) and (j, i) off the diagonal
        offsets = [0]
        for d in alg.block_sizes:
            offsets.append(offsets[-1] + d)
        bits = alg.pattern.bits
        m = len(alg.block_sizes)
        for bi in range(m):
            for bj in range(m):
                block = {
                    bits[i][j]
                    for i in range(offsets[bi], offsets[bi + 1])
                    for j in range(offsets[bj], offsets[bj + 1])
                }
                assert len(block) == 1
                value = block.pop()
                if bi == bj:
                    assert value
                if value and bi != bj:
                    assert bi < bj
                    assert not alg.block_pattern[bj][bi]
        checked["block"] += 1

        # (c) matrix-unit closure and associativity
        supported = [
            (v, w)
            for v in alg.order
            for w in alg.order
            if alg.hom_dimension(v, w)
        ]
        units = {pair: alg.basis_element(*pair) for pair in supported}
        if len(supported) <= 12:
            pair_sample = list(itertools.product(supported, repeat=2))
        else:
            pair_sample = [
                (rng.choice(supported), rng.choice(supported))
                for _ in range(150)
            ]
        for (v, w), (x, y) in pair_sample:
            prod = units[(v, w)] * units[(x, y)]
            if w == x:
                assert prod == units[(v, y)]
            else:
                assert prod.is_zero()
        if len(supported) <= 8:
            triples = list(itertools.product(supported, repeat=3))
        else:
            triples = [
                (rng.choice(supported), rng.choice(supported),
                 rng.choice(supported))
                for _ in range(80)
            ]
        for a, b, c in triples:
            ua, ub, uc = units[a], units[b], units[c]
            assert (ua * ub) * uc == ua * (ub * uc)
        checked["units"] += 1

        # (d) incidence model matches, unit by unit
        skel = skeleton(q)
        iso = skeleton_iso_incidence(skel)
        assert iso.products_checked == iso.incidence.dimension + n
        checked["iso"] += 1

        # (e) the construction is idempotent on its own output
        assert idempotence_check(skel.poset)
        checked["idem"] += 1

        # (f) global dimension bounded by the longest chain
        assert global_dimension(skel.poset) <= skel.poset.longest_chain() - 1
        checked["gldim"] += 1

        # (g) Hom spaces between projectives at the representatives
        mm = len(skel)
        for i in range(mm):
            assert end_hom_dims(skel, i, i) == 1
            for j in range(mm):
                if i == j:
                    continue
                expected = int(
                    skel.pattern.at(skel.representatives[j],
                                    skel.representatives[i])
                )
                assert end_hom_dims(skel, i, j) == expected
                assert not (
                    end_hom_dims(skel, i, j) and end_hom_dims(skel, j, i)
                )
        checked["endhom"] += 1

    elapsed = time.perf_counter() - start
    assert all(v == 500 for v in checked.values()), checked
    assert elapsed < 60.0
    _report(7, f"500 random quivers, all 7 properties, zero failures "
               f"({elapsed:.1f}s)")


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        q = random_quiver(n, rng.randint(0, 12), rng)
        table = GeneralCoefficientTable.trivial(q)
        truncation = n + 2
        pat = reachability(q)
        for v in q.vertices:
            for w in q.vertices:
                report = truncated_hom_dimension(
                    q, table, v, w, truncation, path_cap=500_000
                )
                assert report.certified
                assert report.dimension == int(pat.at(v, w))
        # every vertex keeps its one-dimensional endomorphism space
        for v in q.vertices:
            diag = truncated_hom_dimension(
                q, table, v, v, truncation, path_cap=500_000
            )
            assert diag.dimension == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, f"200 random quivers (n <= 7, L = n+2): truncated quotients "
               f"match reachability everywhere ({elapsed:.1f}s)")


def test_criterion_09_quasi_invariance():
    start = time.perf_counter()
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        q = random_quiver(n, rng.randint(0, 12), rng)
        f = random_weights(q, rng)
        weighted = GeneralCoefficientTable.multiplicative(q, f)
        plain = GeneralCoefficientTable.trivial(q)
        truncation = n + 2
        for v in q.vertices:
            for w in q.vertices:
                a = truncated_hom_dimension(
                    q, weighted, v, w, truncation, path_cap=500_000
                )
                b = truncated_hom_dimension(
                    q, plain, v, w, truncation, path_cap=500_000
                )
                assert a.dimension == b.dimension
                assert a.certified and b.certified
        # multiplicative weights have trivial structure constants
        for v in q.vertices:
            for p in enumerate_paths(q, v, rng.choice(q.vertices), 2,
                                     cap=500_000)[:4]:
                for w in q.vertices:
                    for r in enumerate_paths(q, p.end, w, 2,
                                             cap=500_000)[:4]:
                        assert quasi_structure_constant(f, p, r) == 1
    elapsed = time.perf_counter() - start
    _report(9, f"200 random weighted quivers: dimensions unchanged, "
               f"structure constants all 1 ({elapsed:.1f}s)")


def test_criterion_10_homology_desk_checks():
    start = time.perf_counter()
    point = Poset.from_pairs(["x"], [])
    assert global_dimension(point) == 0
    res = minimal_resolution(point, "x")
    assert res.length == 0
    res.verify()

    chain3 = Poset.from_pairs("abc", [("a", "b"), ("b", "c")])
    assert global_dimension(chain3) == 1
    for x in chain3.elements:
        r = minimal_resolution(chain3, x)
        r.verify()
    assert minimal_resolution(chain3, "a").multisets == (
        (("a", 1),), (("b", 1),),
    )

    diamond = Poset.from_pairs(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    assert global_dimension(diamond) == 2
    deep = minimal_resolution(diamond, "a")
    assert deep.length == 2
    assert deep.multisets == (
        (("a", 1),), (("b", 1), ("c", 1)), (("d", 1),),
    )
    deep.verify()
    for x in "bcd":
        r = minimal_resolution(diamond, x)
        r.verify()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(10, f"gldim point/3-chain/diamond = 0/1/2, all resolutions "
                f"verified exact and minimal ({elapsed:.3f}s)")


def test_criterion_11_structural_pass_at_1000_vertices():
    q = random_sparse_quiver(1000, 2000, random.Random(1000))
    start = time.perf_counter()
    alg = commuting_algebra(q)
    elapsed = time.perf_counter() - start
    assert sum(alg.block_sizes) == 1000
    assert elapsed < 1.0
    _report(11, f"1000 vertices, 2000 arrows, {len(alg.block_sizes)} blocks "
                f"({elapsed:.3f}s)")


# sha256 of repr(pattern_report(...)) in criterion 12, recorded from the
# oracle that checked every pair (p, q) of each middle list
SEED_2437_L7_SHA256 = "3afde210e69cd997adf0005db48b08e006e1fdf37a3bfb1b0f5db3cda815b0d5"


def test_criterion_12_tabulated_oracle_on_seed_2437():
    # the quiver and table that seed 2437 of the oracle's nested-loop
    # reference test would draw: random_quiver(5, 10), its vertices declared
    # in a random order, with five exceptions among its paths up to length 2
    rng = random.Random(2437)
    n = rng.randint(1, 5)
    q = random_quiver(n, rng.randint(0, 2 * n), rng)
    q = Quiver(rng.sample(q.vertices, n), q.arrows, name=q.name)
    nontrivial = [p for v in q.vertices for w in q.vertices
                  for p in enumerate_paths(q, v, w, 2, cap=100_000) if len(p) >= 1]
    exceptions = {p: Fraction(rng.choice([2, 3, -1, 5, Fraction(1, 2)]))
                  for p in rng.sample(nontrivial, min(5, len(nontrivial)))}
    table = GeneralCoefficientTable(q, random_weights(q, rng), exceptions)
    assert (n, len(q.arrows)) == (5, 10)
    start = time.perf_counter()
    reports = pattern_report(q, 7, table, path_cap=None)
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == SEED_2437_L7_SHA256
    assert elapsed < 2.0
    walks = sum(r.path_count for r in reports)
    _report(12, f"tabulated oracle, uncapped L = 7, {walks} walks on the "
                f"seed-2437 quiver: reports unchanged ({elapsed:.3f}s)")


def test_criterion_13_morita_check_is_linear_at_600_vertices():
    # one product per incidence unit against the sum of the units, plus one per
    # vertex for fullness: each product reads the sum's entries grouped by row once
    n = 600
    skel = skeleton(random_sparse_quiver(n, 2 * n, random.Random(n)))
    start = time.perf_counter()
    iso = skeleton_iso_incidence(skel)
    elapsed = time.perf_counter() - start
    assert iso.products_checked == iso.incidence.dimension + n
    assert elapsed < 2.0
    _report(13, f"Morita check at n = {n}, {iso.products_checked} products ({elapsed:.3f}s)")


def test_criterion_14_global_dimension_at_400_elements():
    # a step's elements with the same tops below them share one reduction, and an
    # element whose lower cover's kernel has its kernel's size selects no generator
    for m, field, gldim, bound in ((400, QQ, 22, 6.0), (200, PrimeField(2), 13, 2.0)):
        poset = random_poset(m, 1000 * m, 0.3)
        start = time.perf_counter()
        assert global_dimension(poset, field) == gldim
        elapsed = time.perf_counter() - start
        assert elapsed < bound
        _report(14, f"global dimension {gldim} at m = {m} over {field} ({elapsed:.3f}s)")


def test_criterion_15_packed_walk_counts_at_300_vertices():
    # one packed pass counts the walks between every pair at L = n + 2, its
    # slots sized by one unpacked pass from every vertex at once
    n = 300
    q = random_sparse_quiver(n, 2 * n, random.Random(n))
    start = time.perf_counter()
    reports = pattern_report(q, n + 2, path_cap=10**200)
    elapsed = time.perf_counter() - start
    assert len(reports) == n * n
    for k in range(0, n, n // 10):
        source = q.vertices[k]
        walks = WalksFrom(q, source, n + 2, 10**200)
        assert [r.path_count for r in reports[k * n:(k + 1) * n]] == [
            walks.count(target) for target in q.vertices]
    assert elapsed < 5.0
    largest = max(r.path_count for r in reports)
    _report(15, f"packed walk counts at n = {n}, L = {n + 2}, largest "
                f"{largest.bit_length()} bits ({elapsed:.3f}s)")
