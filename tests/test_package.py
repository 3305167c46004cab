"""The package surface: ``commalg`` re-exports each module's ``__all__``."""

import ast
import importlib
import inspect

import pytest

import commalg

REEXPORTED = [
    "algebra", "dsl", "errors", "fields", "homology",
    "oracle", "poset", "quiver", "structure",
]

# every name the package exported before the module lists became its only
# list, by the module that defines it
EXPORTED_BEFORE = {
    "algebra": [
        "AlgebraElement", "CoefficientFunction", "CommutingAlgebra",
        "NormalizedBasisEntry", "QuasiCommutingAlgebra", "commuting_algebra",
        "quasi_commuting_algebra", "quasi_structure_constant",
    ],
    "dsl": ["parse_quiver", "to_dsl"],
    "errors": [
        "InternalInvariantError", "ParseError", "QuiverError",
        "TruncationOverflowError",
    ],
    "fields": ["PrimeField", "QQ", "RationalField", "parse_field"],
    "homology": [
        "PosetRepresentation", "RepMorphism", "Resolution", "global_dimension",
        "minimal_resolution", "projective", "projective_cover",
        "projective_dimension", "simple",
    ],
    "oracle": [
        "GeneralCoefficientTable", "TruncatedQuotientReport",
        "pattern_equivalence", "pattern_report", "truncated_hom_dimension",
        "vertex_nondegeneracy",
    ],
    "poset": [
        "HasseDiagram", "IncidenceAlgebra", "Skeleton",
        "SkeletonIsomorphism", "end_hom_dims", "hasse", "hasse_quiver",
        "idempotence_check", "incidence_algebra", "skeleton",
        "skeleton_iso_incidence",
    ],
    "quiver": [
        "Arrow", "Path", "Quiver", "compose", "enumerate_paths", "is_parallel",
        "to_dot",
    ],
    "structure": [
        "ComponentPartition", "Poset", "ReachabilityPattern",
        "condensation", "consistent_ordering", "longest_chain",
        "path_components", "reachability", "topological_component_order",
    ],
}

# declared public by their modules, importable from the package since then
NEWLY_EXPORTED = [
    "count_paths", "projective_dimensions", "ProjectiveCover",
    "DEFAULT_PATH_CAP", "PrimeFieldElement",
]

# top-level public names that are deliberately left out of ``__all__``
INTERNAL = {"structure": {"Rows"}}


def _modules():
    return [importlib.import_module(f"commalg.{name}") for name in REEXPORTED]


def test_names_exported_before_are_still_exported_as_the_same_objects():
    names = [name for names in EXPORTED_BEFORE.values() for name in names]
    assert len(names) == len(set(names)) == 60
    for module_name, names in EXPORTED_BEFORE.items():
        module = importlib.import_module(f"commalg.{module_name}")
        for name in names:
            assert name in commalg.__all__
            assert getattr(commalg, name) is getattr(module, name)


def test_all_is_the_union_of_the_module_lists():
    assert len(commalg.__all__) == len(set(commalg.__all__))
    assert set(commalg.__all__) == {
        name for module in _modules() for name in module.__all__
    }
    namespace = {}
    exec("from commalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(commalg.__all__)


@pytest.mark.parametrize("name", NEWLY_EXPORTED)
def test_names_declared_public_are_exported(name):
    assert name in commalg.__all__
    assert hasattr(commalg, name)


@pytest.mark.parametrize("module", _modules(), ids=REEXPORTED)
def test_every_public_top_level_name_is_in_the_module_all(module):
    tree = ast.parse(inspect.getsource(module))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    public = {name for name in defined if not name.startswith("_")}
    internal = INTERNAL.get(module.__name__.rsplit(".", 1)[1], set())
    assert internal <= public
    assert public - internal == set(module.__all__)
