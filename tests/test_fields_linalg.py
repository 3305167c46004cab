import random
import time
from fractions import Fraction

import pytest

from commalg import InternalInvariantError, PrimeField, QQ, QuiverError, parse_field
from commalg.fields import PrimeFieldElement
from commalg.linalg import Mat


def test_rational_field():
    assert QQ.zero == 0 and QQ.one == 1
    assert QQ.element("2/3") == Fraction(2, 3)
    assert QQ.element(5) == Fraction(5)
    with pytest.raises(QuiverError):
        QQ.nonzero(0)
    assert QQ.name == "QQ"


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    a = f5.element(3)
    b = f5.element(4)
    assert a + b == f5.element(2)
    assert a * b == f5.element(2)
    assert a - b == f5.element(4)
    assert (a / b) * b == a
    assert -a == f5.element(2)
    assert bool(f5.element(0)) is False and bool(a) is True
    assert f5.element(Fraction(1, 2)) == f5.element(3)  # 1/2 = 3 mod 5
    assert f5.name == "F5"


def test_prime_field_division_by_zero():
    f5 = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f5.element(1) / f5.element(0)
    with pytest.raises(QuiverError):
        f5.element(Fraction(1, 5))  # denominator vanishes mod 5


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(QuiverError):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(97)


def test_prime_field_elements_do_not_mix():
    with pytest.raises(QuiverError):
        PrimeField(5).element(1) + PrimeField(7).element(1)


def test_parse_field():
    assert parse_field("rat") is QQ
    assert parse_field("fp:7").p == 7
    with pytest.raises(QuiverError):
        parse_field("fp:8")
    with pytest.raises(QuiverError):
        parse_field("real")
    with pytest.raises(QuiverError):
        parse_field("fp:x")


def test_prime_field_element_hashable():
    e = PrimeFieldElement(5, 2)
    assert {e: 1}[PrimeFieldElement(5, 2)] == 1


def test_mat_basics():
    m = Mat(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert m.column(1) == [Fraction(2), Fraction(5)]
    assert m.columns()[2] == [Fraction(3), Fraction(6)]
    i2 = Mat.identity(2)
    assert i2 @ m == m
    assert Mat(2, 3) .is_zero()
    with pytest.raises(InternalInvariantError):
        Mat(2, 2, [[1, 2]])
    with pytest.raises(InternalInvariantError):
        m @ m


def test_mat_rank_known():
    assert Mat(2, 2, [[1, 2], [2, 4]]).rank() == 1
    assert Mat(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert Mat(2, 3, [[1, 2, 3], [4, 5, 6]]).rank() == 2
    assert Mat(0, 4).rank() == 0
    assert Mat(4, 0).rank() == 0


def test_mat_rref():
    m = Mat(2, 3, [[2, 4, 6], [1, 2, 4]])
    red, pivots = m.rref()
    assert pivots == (0, 2)
    assert red.rows == [[1, 2, 0], [0, 0, 1]]


def test_kernel_basis_known():
    m = Mat(2, 3, [[1, 0, 1], [0, 1, 1]])
    k = m.kernel_basis()
    assert k.ncols == 1
    assert (m @ k).is_zero()
    assert k.column(0) == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_solve_known():
    a = Mat(2, 2, [[2, 0], [0, 3]])
    rhs = Mat(2, 1, [[4], [9]])
    x = a.solve(rhs)
    assert x.rows == [[Fraction(2)], [Fraction(3)]]
    assert a @ x == rhs


def test_solve_inconsistent():
    a = Mat(2, 1, [[1], [1]])
    rhs = Mat(2, 1, [[1], [2]])
    with pytest.raises(InternalInvariantError):
        a.solve(rhs)


def _random_mat(rng, nrows, ncols, field=QQ):
    rows = [
        [field.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return Mat(nrows, ncols, rows, field=field)


@pytest.mark.parametrize("seed", range(25))
def test_rank_nullity_and_kernel(seed):
    rng = random.Random(seed)
    field = rng.choice([QQ, PrimeField(5), PrimeField(11)])
    m = _random_mat(rng, rng.randint(0, 6), rng.randint(0, 6), field)
    r = m.rank()
    k = m.kernel_basis()
    assert r + k.ncols == m.ncols
    if k.ncols and m.nrows:
        assert (m @ k).is_zero()
    assert k.rank() == k.ncols  # kernel basis is independent
    # rank(A) == rank(A^T) via explicit transpose
    t = Mat(m.ncols, m.nrows, [m.column(j) for j in range(m.ncols)], field=field)
    assert t.rank() == r


@pytest.mark.parametrize("seed", range(15))
def test_solve_consistent_systems(seed):
    rng = random.Random(seed)
    field = rng.choice([QQ, PrimeField(7)])
    a = _random_mat(rng, rng.randint(1, 5), rng.randint(1, 5), field)
    x = _random_mat(rng, a.ncols, rng.randint(1, 3), field)
    rhs = a @ x
    got = a.solve(rhs)
    assert a @ got == rhs


def test_matmul_associative():
    rng = random.Random(0)
    a = _random_mat(rng, 3, 4)
    b = _random_mat(rng, 4, 2)
    c = _random_mat(rng, 2, 5)
    assert (a @ b) @ c == a @ (b @ c)


def test_mat_over_prime_field():
    f2 = PrimeField(2)
    m = Mat(2, 2, [[1, 1], [1, 1]], field=f2)
    assert m.rank() == 1
    k = m.kernel_basis()
    assert k.ncols == 1 and (m @ k).is_zero()


def test_from_columns_roundtrip():
    m = Mat(3, 2, [[1, 2], [3, 4], [5, 6]])
    assert Mat.from_columns(m.columns(), 3) == m
    with pytest.raises(InternalInvariantError):
        Mat.from_columns([[1, 2]], 3)


def test_parse_field_large_prime_is_fast():
    start = time.perf_counter()
    assert parse_field("fp:2305843009213693951").p == 2**61 - 1
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "composite",
    [0, 1, 561, 3215031751, 3825123056546413051, 318665857834031151167461, 2**61 + 1],
)
def test_parse_field_rejects_composites(composite):
    # 561 is a Carmichael number; the next three are strong pseudoprimes to every
    # prime base up to 7, 23 and 37 respectively
    with pytest.raises(QuiverError):
        parse_field(f"fp:{composite}")


def test_parse_field_rejects_primes_beyond_the_exact_range():
    with pytest.raises(QuiverError, match="too large"):
        parse_field(f"fp:{2**127 - 1}")


def test_primality_matches_trial_division_below_5000():
    for p in range(2, 5000):
        is_prime = all(p % d for d in range(2, int(p**0.5) + 1))
        if is_prime:
            assert PrimeField(p).p == p
        else:
            with pytest.raises(QuiverError):
                PrimeField(p)
