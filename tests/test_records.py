"""The package's frozen value records: equality, hashing, repr and immutability.

Each case builds a record twice from equal parts.  The reprs and field names
are those the records had as frozen dataclasses, so a record keeps the value
semantics it had then.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

import commalg
from commalg import (
    CoefficientFunction,
    GeneralCoefficientTable,
    NormalizedBasisEntry,
    Poset,
    PrimeField,
    QuasiCommutingAlgebra,
    Quiver,
    RationalField,
    ReachabilityPattern,
    RepMorphism,
    SkeletonIsomorphism,
    commuting_algebra,
    hasse,
    incidence_algebra,
    minimal_resolution,
    pattern_report,
    projective,
    projective_cover,
    simple,
    skeleton,
    truncated_hom_dimension,
)
from commalg.linalg import Mat

Q = Quiver("ab", [("x", "a", "b")], {"x": 2}, name="T")
ALGEBRA = commuting_algebra(Q)
P = Poset.from_pairs(["a", "b"], [("a", "b")])
SKELETON = skeleton(Q)
ENTRY = NormalizedBasisEntry("a", "b", Q.path("a", ["x"]), 2)
TABLE = GeneralCoefficientTable(Q, CoefficientFunction({"x": 2}), {Q.path("a", ["x"]): 3})
ASSIGNMENT = (((0, 0), ("a", "a")), ((0, 1), ("a", "b")), ((1, 1), ("b", "b")))
LEQ = [[True, True], [False, True]]

CASES = {
    "CoefficientFunction": lambda: CoefficientFunction({"x": Fraction(4, 2)}),
    "AlgebraElement": lambda: ALGEBRA.basis_element("a", "b"),
    "NormalizedBasisEntry": lambda: NormalizedBasisEntry("a", "b", Q.path("a", ["x"]), 2),
    "QuasiCommutingAlgebra": lambda: QuasiCommutingAlgebra(ALGEBRA, (ENTRY,)),
    "RationalField": RationalField,
    "PrimeFieldElement": lambda: PrimeField(7).element(10),
    "PrimeField": lambda: PrimeField(7),
    "PosetRepresentation": lambda: projective(P, "a"),
    "RepMorphism": lambda: RepMorphism(projective(P, "a"), projective(P, "a"),
                                       (Mat.identity(1), Mat.identity(1))),
    "ProjectiveCover": lambda: projective_cover(simple(P, "b")),
    "Resolution": lambda: minimal_resolution(P, "a"),
    "GeneralCoefficientTable": lambda: GeneralCoefficientTable(
        Q, CoefficientFunction({"x": 2}), {Q.path("a", ["x"]): 3}),
    "TruncatedQuotientReport": lambda: truncated_hom_dimension(Q, TABLE, "a", "b", 2),
    "HasseDiagram": lambda: hasse(P),
    "Skeleton": lambda: skeleton(Q),
    "IncidenceAlgebra": lambda: incidence_algebra(P),
    "SkeletonIsomorphism": lambda: SkeletonIsomorphism(
        SKELETON, ALGEBRA, incidence_algebra(P), ASSIGNMENT, 5),
    "Path": lambda: Q.path("a", ["x"]),
    "ComponentPartition": lambda: SKELETON.partition,
    "ReachabilityPattern": lambda: ReachabilityPattern(["a", "b"], LEQ),
    "Poset": lambda: Poset(["a", "b"], LEQ),
}

REP_A = ("PosetRepresentation(poset=Poset(elements=('a', 'b'), rows=(3, 2)), dims=(1, 1), "
         "maps={(0, 1): Mat(1x1)}, field=QQ)")
REP_B = ("PosetRepresentation(poset=Poset(elements=('a', 'b'), rows=(3, 2)), dims=(0, 1), "
         "maps={(0, 1): Mat(1x0)}, field=QQ)")
SKELETON_REPR = ("Skeleton(quiver=Quiver('T', 2 vertices, 1 arrows), poset=Poset(elements=('a', "
                 "'b'), rows=(3, 2)), representatives=('a', 'b'))")
INCIDENCE_REPR = ("IncidenceAlgebra(poset=Poset(elements=('a', 'b'), rows=(3, 2)), "
                  "basis=((0, 0), (0, 1), (1, 1)), field=QQ)")

# recorded from the frozen dataclasses: repr, whether hash works, and the fields
RECORDED = {
    "CoefficientFunction": ("CoefficientFunction(weights={'x': 2})", False, ("weights",)),
    "AlgebraElement": ("e(a,b)*1", False, ("algebra", "entries")),
    "NormalizedBasisEntry": (
        "NormalizedBasisEntry(source='a', target='b', path=Path(a:x:b), scale=2)", True,
        ("source", "target", "path", "scale")),
    "QuasiCommutingAlgebra": (
        "QuasiCommutingAlgebra(algebra=CommutingAlgebra('T', dim 3, blocks (1, 1)), "
        "normalization=(NormalizedBasisEntry(source='a', target='b', path=Path(a:x:b), "
        "scale=2),))", True, ("algebra", "normalization")),
    "RationalField": ("QQ", True, ()),
    "PrimeFieldElement": ("3 (mod 7)", True, ("modulus", "value")),
    "PrimeField": ("F7", True, ("p",)),
    "PosetRepresentation": (REP_A, False, ("poset", "dims", "maps", "field")),
    "RepMorphism": (f"RepMorphism(source={REP_A}, target={REP_A}, "
                    "blocks=(Mat(1x1), Mat(1x1)))", False, ("source", "target", "blocks")),
    "ProjectiveCover": (
        f"ProjectiveCover(multiset=(('b', 1),), module={REP_B}, surjection=RepMorphism("
        f"source={REP_B}, target={REP_B}, blocks=(Mat(0x0), Mat(1x1))))", False,
        ("multiset", "module", "surjection")),
    "Resolution": (
        "Resolution(poset=Poset(elements=('a', 'b'), rows=(3, 2)), simple=0, "
        "covers=((0,), (1,)), differentials=(Mat(1x1),))", False,
        ("poset", "simple", "covers", "differentials")),
    "GeneralCoefficientTable": (
        "GeneralCoefficientTable(quiver=Quiver('T', 2 vertices, 1 arrows), "
        "base=CoefficientFunction(weights={'x': 2}), exceptions={Path(a:x:b): 3})", False,
        ("quiver", "base", "exceptions", "_memo")),
    "TruncatedQuotientReport": (
        "TruncatedQuotientReport(source='a', target='b', truncation=2, path_count=1, "
        "relation_rank=0, dimension=1, certified=False)", True,
        ("source", "target", "truncation", "path_count", "relation_rank", "dimension",
         "certified")),
    "HasseDiagram": ("HasseDiagram(poset=Poset(elements=('a', 'b'), rows=(3, 2)), "
                     "covers=((0, 1),))", True, ("poset", "covers")),
    "Skeleton": (SKELETON_REPR, False, ("quiver", "poset", "representatives", "algebra")),
    "IncidenceAlgebra": (INCIDENCE_REPR, True, ("poset", "basis", "field")),
    "SkeletonIsomorphism": (
        f"SkeletonIsomorphism(skeleton={SKELETON_REPR}, algebra=CommutingAlgebra('T', dim 3, "
        f"blocks (1, 1)), incidence={INCIDENCE_REPR}, assignment=(((0, 0), ('a', 'a')), "
        "((0, 1), ('a', 'b')), ((1, 1), ('b', 'b'))), products_checked=5)", False,
        ("skeleton", "algebra", "incidence", "assignment", "products_checked")),
    "Path": ("Path(a:x:b)", True, ("start", "arrows", "end")),
    "ComponentPartition": ("ComponentPartition(components=(('a',), ('b',)))", True,
                           ("components",)),
    "ReachabilityPattern": ("ReachabilityPattern(order=('a', 'b'), rows=(3, 2))", True,
                            ("order", "rows")),
    "Poset": ("Poset(elements=('a', 'b'), rows=(3, 2))", True, ("elements", "rows")),
}


def test_every_record_has_a_case():
    assert CASES.keys() == RECORDED.keys() and len(CASES) == 21
    for name in CASES:
        assert type(CASES[name]()) is getattr(commalg, name)


@pytest.mark.parametrize("name", list(CASES))
def test_repr_is_the_recorded_one(name):
    assert repr(CASES[name]()) == RECORDED[name][0]


@pytest.mark.parametrize("name", list(CASES))
def test_equal_builds_are_equal_and_hash_equal(name):
    a, b = CASES[name](), CASES[name]()
    assert a == b and not a != b
    assert a != object() and not a == object()
    if RECORDED[name][1]:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", list(CASES))
def test_fields_are_frozen(name):
    record = CASES[name]()
    for field in RECORDED[name][2] + ("not_a_field",):
        before = vars(record).get(field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert vars(record).get(field) is before


def test_hand_written_methods_compare_every_field():
    path = Q.path("a", ["x"])
    assert path != Q.vertex_path("a") and path != Q.path("b") and path != ("a", ("x",), "b")
    assert {path: 1}[Q.path("a", ["x"])] == 1
    f7, f11 = PrimeField(7), PrimeField(11)
    assert f7.element(3) != f7.element(4) and f7.element(3) != f11.element(3)
    assert f7.element(3) != 3 and 3 != f7.element(3)
    assert len({f7.element(3), f7.element(10), f11.element(3)}) == 2
    assert RationalField() == commalg.QQ and hash(RationalField()) == hash(commalg.QQ)
    assert commalg.QQ != f7 and f7 != commalg.QQ and f7 != f11 and f7 == PrimeField(7)
    report = truncated_hom_dimension(Q, TABLE, "a", "b", 2)
    assert report != truncated_hom_dimension(Q, TABLE, "a", "b", 3)
    res = minimal_resolution(P, "a")
    assert res != minimal_resolution(P, "b")
    assert type(res)(**vars(res)) == res


def test_records_take_keywords_and_defaults_and_refuse_wrong_arguments():
    rep = projective(P, "a")
    assert type(rep)(P, rep.dims, rep.maps) == type(rep)(maps=rep.maps, dims=rep.dims, poset=P)
    assert type(rep)(P, rep.dims, rep.maps).field is commalg.QQ
    assert NormalizedBasisEntry(*vars(ENTRY).values()) == ENTRY
    for args, kwargs in [((), {}), (("a", "b", ENTRY.path), {}), ((*vars(ENTRY).values(), 1), {}),
                         (("a",), {"source": "a"}), (tuple(vars(ENTRY).values()), {"size": 1})]:
        with pytest.raises(TypeError):
            NormalizedBasisEntry(*args, **kwargs)


def test_hidden_fields_stay_out_of_eq_hash_and_repr():
    # a second skeleton carries an algebra of its own; a table that has been
    # read holds a filled memo, which a fresh one lacks
    first, second = skeleton(Q), skeleton(Q)
    assert first.algebra is not second.algebra
    assert first == second and repr(first) == repr(second)
    used = GeneralCoefficientTable(Q, CoefficientFunction({"x": 2}), {Q.path("a", ["x"]): 3})
    pattern_report(Q, 3, used)
    fresh = GeneralCoefficientTable(Q, CoefficientFunction({"x": 2}), {Q.path("a", ["x"]): 3})
    assert used._memo and not fresh._memo
    assert used == fresh and repr(used) == repr(fresh)


def test_the_cli_loads_no_dataclasses_inspect_or_typing(tmp_path):
    quiver = tmp_path / "q.quiver"
    quiver.write_text("quiver Q {\n  vertices: u, v;\n  a: u -> v;\n  b: v -> u;\n}\n")
    code = ("import sys, commalg.cli\n"
            f"assert commalg.cli.run(['blockform', {str(quiver)!r}]) == 0\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n")
    src = str(FilePath(commalg.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
