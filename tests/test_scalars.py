"""Rational scalars are ints until a division leaves a remainder.

``RationalField.div`` (and ``PrimeField.div``) is the one place that divides
field scalars, so a stray ``int / int`` cannot turn an exact scalar into a
float; floats are refused at the door of both fields.  Arrow weights and
tabulated exceptions enter through ``QQ.element`` too, and a prime-field
element meets only elements of its own field.
"""

import ast
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commalg
from commalg import (CoefficientFunction, GeneralCoefficientTable, PrimeField, QQ, Quiver,
                     QuiverError)
from commalg.fields import PrimeFieldElement
from commalg.linalg import Mat

SRC = Path(commalg.__file__).parent


def test_only_the_fields_divide():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_integral_rationals_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for value in (5, Fraction(10, 2), "6/3", "-4"):
        assert type(QQ.element(value)) is int
    assert QQ.element(Fraction(10, 2)) == 5
    assert QQ.element("2/4") == Fraction(1, 2)
    assert type(QQ.nonzero(Fraction(-3, 1))) is int


@pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
def test_fields_reject_floats(value):
    with pytest.raises(QuiverError, match="float"):
        QQ.element(value)
    with pytest.raises(QuiverError, match="float"):
        QQ.nonzero(value)
    with pytest.raises(QuiverError, match="float"):
        PrimeField(5).element(value)
    with pytest.raises(QuiverError, match="float"):
        PrimeField(5).nonzero(value)
    with pytest.raises(QuiverError, match="float"):
        Mat(1, 1, [[value]])


def _two_arrows(weights=None):
    return Quiver(["v", "w"], [("a", "v", "w"), ("b", "v", "w")], weights=weights)


@pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
def test_weights_and_exceptions_reject_floats(value):
    with pytest.raises(QuiverError, match="float"):
        _two_arrows({"a": value})
    with pytest.raises(QuiverError, match="float"):
        CoefficientFunction({"a": value})
    q = _two_arrows()
    with pytest.raises(QuiverError, match="float"):
        GeneralCoefficientTable(q, CoefficientFunction.trivial(), {q.path("v", ["a"]): value})


def test_integral_weights_and_exceptions_are_stored_as_ints():
    q = _two_arrows({"a": Fraction(4, 2), "b": "4/2"})
    assert q.weights == {"a": 2, "b": 2}
    assert all(type(x) is int for x in q.weights.values())
    assert type(_two_arrows().weight("a")) is int
    f = CoefficientFunction({"a": Fraction(4, 2), "b": "4/2"})
    assert [type(x) for x in f.weights.values()] == [int, int]
    table = GeneralCoefficientTable(q, f, {q.path("v", ["a"]): Fraction(4, 2),
                                           q.path("v", ["b"]): "4/2"})
    assert [type(x) for x in table.exceptions.values()] == [int, int]
    # a proper fraction stays a Fraction
    assert _two_arrows({"a": "3/2"}).weights == {"a": Fraction(3, 2)}


ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("other", [2, Fraction(1, 2), True])
@pytest.mark.parametrize("op", ARITHMETIC)
def test_prime_field_elements_take_no_outside_scalar(op, other):
    e = PrimeField(5).element(3)
    with pytest.raises(TypeError):
        op(e, other)
    with pytest.raises(TypeError):
        op(other, e)


@pytest.mark.parametrize("op", ARITHMETIC)
def test_prime_field_elements_of_two_moduli_do_not_mix(op):
    with pytest.raises(QuiverError, match="mixed prime field moduli"):
        op(PrimeField(5).one, PrimeField(7).one)
    with pytest.raises(QuiverError, match="mixed prime field moduli"):
        PrimeField(5).element(PrimeField(7).one)


def test_prime_field_element_equals_only_its_own_field():
    f5 = PrimeField(5)
    e = f5.element(3)
    assert e == f5.element(8) == PrimeFieldElement(5, 3)
    assert hash(e) == hash(PrimeFieldElement(5, 3))
    assert e != 3 and e != 8 and e != Fraction(3)
    assert e != PrimeField(7).element(3)
    assert f5.zero != 0 and f5.one != 1
    assert PrimeField(5) == f5 and hash(PrimeField(5)) == hash(f5)
    assert PrimeField(7) != f5


def test_division_is_exact_and_normalized():
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert QQ.div(-6, 4) == Fraction(-3, 2)
    assert type(QQ.div(Fraction(4), 2)) is int
    assert type(QQ.div(3, Fraction(3, 2))) is int
    assert QQ.div(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1, 2), 0)


def test_prime_field_division_matches_the_operator():
    f7 = PrimeField(7)
    for a in range(7):
        for b in range(1, 7):
            x, y = f7.element(a), f7.element(b)
            assert f7.div(x, y) == x / y
            assert f7.div(a, y) == x / y
    assert f7.div(f7.one, f7.element(3)) == PrimeFieldElement(7, 5)
    with pytest.raises(ZeroDivisionError):
        f7.div(f7.one, f7.zero)


# 0/1 entries and small integers, as ints, as Fractions with denominator 1,
# and as proper fractions
scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def raw_matrices(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return [[draw(scalars) for _ in range(ncols)] for _ in range(nrows)], ncols


def _no_floats(rows):
    return all(isinstance(x, (int, Fraction)) for row in rows for x in row)


@settings(max_examples=200, deadline=None)
@given(raw_matrices())
def test_linalg_over_mixed_scalars_matches_all_fractions(drawn):
    rows, ncols = drawn
    # _of_columns keeps the nonzero entries as drawn: nothing is normalized on either side
    mixed = Mat._of_columns([{i: r[j] for i, r in enumerate(rows)} for j in range(ncols)],
                            len(rows), QQ)
    reference = Mat._of_columns([{i: Fraction(r[j]) for i, r in enumerate(rows)}
                                 for j in range(ncols)], len(rows), QQ)
    assert mixed.rank() == reference.rank()
    red, pivots = mixed.rref()
    ref_red, ref_pivots = reference.rref()
    assert (red, pivots) == (ref_red, ref_pivots)
    basis, free = mixed.null_space()
    ref_basis, ref_free = reference.null_space()
    assert (basis, free) == (ref_basis, ref_free)
    assert _no_floats(red.rows) and _no_floats(basis.rows)
    assert _no_floats((mixed @ basis).rows)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars.filter(bool))
def test_rational_division_is_an_int_exactly_when_integral(a, b):
    out = QQ.div(a, b)
    exact = Fraction(a) / Fraction(b)
    assert out == exact
    assert isinstance(out, int) == (exact.denominator == 1)
    assert isinstance(out, (int, Fraction))
