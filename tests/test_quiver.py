import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from commalg import (
    Arrow,
    CoefficientFunction,
    Path,
    Quiver,
    QuiverError,
    TruncationOverflowError,
    compose,
    enumerate_paths,
    is_parallel,
    to_dot,
)
from commalg.quiver import count_paths
from commalg.randgen import random_quiver


def test_path_basics(triangle_quiver):
    q = triangle_quiver
    p = q.path("v1", ["a", "b"])
    assert len(p) == 2
    assert p.start == "v1" and p.end == "v3"
    assert not p.is_trivial
    e = q.vertex_path("v2")
    assert len(e) == 0 and e.is_trivial
    assert e.start == e.end == "v2"


def test_construction_validation():
    with pytest.raises(QuiverError):
        Quiver([])
    with pytest.raises(QuiverError):
        Quiver(["v", "v"])
    with pytest.raises(QuiverError):
        Quiver(["v", "w"], [("a", "v", "w"), ("a", "w", "v")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [("a", "v", "u")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [("a", "v", "v")], weights={"a": 0})
    with pytest.raises(QuiverError):
        Quiver(["v"], [("a", "v", "v")], weights={"b": 2})


LOOP = (("a", "v", "v"),)


@pytest.mark.parametrize("build", [
    lambda weights: Quiver(["v"], LOOP, weights=weights),
    lambda weights: CoefficientFunction(weights).check_arrows(Quiver(["v"], LOOP)),
], ids=["quiver", "coefficients"])
@pytest.mark.parametrize("weights, message", [
    ({"a": 0}, "arrow 'a' has zero weight"),
    ({"zz": 2}, "weight given for unknown arrow 'zz'"),
    ({"a": 0.5}, "float scalar 0.5 is not exact"),
], ids=["zero", "unknown", "float"])
def test_weight_errors_keep_their_messages(build, weights, message):
    with pytest.raises(QuiverError, match=f"^{re.escape(message)}$"):
        build(weights)


def test_undeclared_source_vertex_is_rejected():
    with pytest.raises(QuiverError, match="undeclared source vertex 'u'"):
        Quiver(["v"], [("a", "u", "v")])


@pytest.mark.parametrize("arrows, message", [
    ([("a", "v", "v"), ("b", "v", "w"), ("c", "u", "v")], "arrow 'b': undeclared target vertex 'w'"),
    ([("a", "u", "w")], "arrow 'a': undeclared source vertex 'u'"),
    ([("a", "v", "v"), ("a", "v", "w")], "arrow 'a': undeclared target vertex 'w'"),
], ids=["first-arrow", "source-first", "before-duplicates"])
def test_the_first_undeclared_endpoint_is_named(arrows, message):
    with pytest.raises(QuiverError, match=f"^{re.escape(message)}$"):
        Quiver(["v"], arrows)


def test_endpoint_positions_follow_the_declaration_order():
    q = Quiver(["u", "v", "w"], [("a", "w", "u"), ("b", "v", "v"), Arrow("c", "u", "w")])
    assert q._ends == [(2, 0), (1, 1), (0, 2)]


def test_weight_one_is_dropped():
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")], weights={"a": 1, "b": "2/3"})
    assert q.weights == {"b": Fraction(2, 3)}
    assert q.weight("a") == 1
    assert q.weight("b") == Fraction(2, 3)


def test_loops_and_parallel_arrows_allowed():
    q = Quiver(["v", "w"], [("a", "v", "w"), ("b", "v", "w"), ("c", "v", "v")])
    assert len(q.arrows) == 3
    assert q.arrows_from["v"] == (q.arrow("a"), q.arrow("b"), q.arrow("c"))


def test_path_validation(triangle_quiver):
    q = triangle_quiver
    with pytest.raises(QuiverError):
        q.path("v1", ["b"])  # b starts at v2
    with pytest.raises(QuiverError):
        q.path("nope")
    with pytest.raises(QuiverError):
        q.path("v1", ["zz"])
    with pytest.raises(QuiverError):
        q.arrow("zz")
    with pytest.raises(QuiverError):
        q.check_vertex("zz")


def test_compose(triangle_quiver):
    q = triangle_quiver
    p1 = q.path("v1", ["a"])
    p2 = q.path("v2", ["b"])
    p3 = q.path("v3", ["c"])
    assert compose(p1, p2) == q.path("v1", ["a", "b"])
    assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))
    assert len(compose(p1, p2)) == len(p1) + len(p2)
    e = q.vertex_path("v1")
    assert compose(e, p1) == p1 and compose(p1, q.vertex_path("v2")) == p1
    with pytest.raises(QuiverError):
        compose(p1, p1)


def test_is_parallel(triangle_quiver):
    q = triangle_quiver
    full = q.path("v1", ["a", "b", "c"])
    assert is_parallel(full, q.vertex_path("v1"))
    assert not is_parallel(full, q.path("v1", ["a"]))


def _walk_counts(quiver, max_length):
    """Independent path counter: powers of the arrow-count matrix."""
    n = quiver.n
    idx = quiver.vertex_index
    adj = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        adj[idx[a.source]][idx[a.target]] += 1
    counts = []
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    counts.append([row[:] for row in power])
    for _ in range(max_length):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        counts.append([row[:] for row in power])
    return counts


@pytest.mark.parametrize("seed", range(12))
def test_enumerate_paths_matches_walk_counts(seed):
    q = random_quiver(5, 9, seed)
    counts = _walk_counts(q, 4)
    idx = q.vertex_index
    for s in q.vertices:
        for t in q.vertices:
            paths = enumerate_paths(q, s, t, 4, cap=200_000)
            by_len = {}
            for p in paths:
                by_len[len(p)] = by_len.get(len(p), 0) + 1
            for k in range(5):
                assert by_len.get(k, 0) == counts[k][idx[s]][idx[t]]


def test_enumerate_paths_order(triangle_quiver):
    q = triangle_quiver
    ps = enumerate_paths(q, "v1", "v1", 6)
    assert ps[0] == q.vertex_path("v1")
    lengths = [len(p) for p in ps]
    assert lengths == sorted(lengths)
    assert ps == [q.vertex_path("v1"), q.path("v1", ["a", "b", "c"]),
                  q.path("v1", ["a", "b", "c", "a", "b", "c"])]


def test_enumerate_paths_lex_within_length():
    q = Quiver(["v", "w"], [("a", "v", "w"), ("b", "v", "w")])
    ps = enumerate_paths(q, "v", "w", 1)
    assert [p.arrows for p in ps] == [("a",), ("b",)]


def test_enumerate_paths_trivial_only_on_diagonal(triangle_quiver):
    assert enumerate_paths(triangle_quiver, "v1", "v2", 0) == []
    assert enumerate_paths(triangle_quiver, "v1", "v1", 0) == [
        triangle_quiver.vertex_path("v1")
    ]


def test_enumerate_paths_cap():
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
    with pytest.raises(TruncationOverflowError):
        enumerate_paths(q, "v", "v", 30, cap=100)


def _reference_paths(quiver, source, target, max_length, cap):
    """The frontier enumeration that held the cap rule before ``count_paths``.

    Kept as it stood, in-loop cap check included, as the rule both functions
    must still follow.
    """
    results = []
    frontier = [quiver.vertex_path(source)]
    if source == target:
        results.append(frontier[0])
    for _ in range(max_length):
        nxt = []
        for path in frontier:
            for arrow in quiver.arrows_from[path.end]:
                extended = Path(path.start, path.arrows + (arrow.name,), arrow.target)
                nxt.append(extended)
                if arrow.target == target:
                    results.append(extended)
                if cap is not None and (len(nxt) > cap or len(results) > cap):
                    raise TruncationOverflowError(
                        f"path count from {source!r} to {target!r} exceeds cap {cap} "
                        f"at length {len(extended)}"
                    )
        frontier = nxt
        if not frontier:
            break
    return results


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TruncationOverflowError as error:
        return str(error)


CAPS = [None, 0, 1, 2, 3, 5, 8, 13, 40, 200]


def test_count_and_enumerate_follow_the_reference_cap_rule():
    rng = random.Random(20)
    overflows = 0
    for _ in range(2500):
        n = rng.randint(1, 5)
        q = random_quiver(n, rng.randint(0, 2 * n), rng)
        s, t = rng.choice(q.vertices), rng.choice(q.vertices)
        args = (q, s, t, rng.randint(0, 7), rng.choice(CAPS))
        expected = _outcome(_reference_paths, *args)
        if isinstance(expected, str):
            overflows += 1
            assert _outcome(count_paths, *args) == expected
            assert _outcome(enumerate_paths, *args) == expected
        else:
            assert count_paths(*args) == len(expected)
            assert enumerate_paths(*args) == expected
    assert 300 <= overflows <= 2200


def test_cap_zero_at_a_sink_keeps_its_trivial_path():
    # the match count is 1 > 0, but no walk leaves the source, so no length
    # is ever reached at which the cap could be checked
    q = Quiver(["s", "w"], [("a", "w", "s")])
    assert count_paths(q, "s", "s", 3, 0) == 1
    assert enumerate_paths(q, "s", "s", 3, cap=0) == [q.vertex_path("s")]
    assert _outcome(count_paths, q, "w", "w", 3, 0) == (
        "path count from 'w' to 'w' exceeds cap 0 at length 1"
    )


def test_count_paths_checks_its_arguments(triangle_quiver):
    with pytest.raises(QuiverError):
        count_paths(triangle_quiver, "zz", "v1", 2)
    with pytest.raises(QuiverError):
        count_paths(triangle_quiver, "v1", "v1", -1)
    assert count_paths(triangle_quiver, "v1", "v1", 0) == 1


@pytest.mark.parametrize("walk", [count_paths, enumerate_paths])
def test_negative_cap_is_rejected_with_or_without_an_out_arrow(walk):
    # "s" has an out-arrow, "w" has none: both refuse before any walk is counted
    q = Quiver(["s", "w"], [("a", "s", "w")])
    for source in ("s", "w"):
        with pytest.raises(QuiverError, match="path cap must be nonnegative") as exc:
            walk(q, source, "w", 3, -1)
        assert not isinstance(exc.value, TruncationOverflowError)
    assert walk(q, "w", "w", 3, None) and walk(q, "w", "w", 3, 0)


def test_enumerate_paths_unknown_vertex(triangle_quiver):
    with pytest.raises(QuiverError):
        enumerate_paths(triangle_quiver, "v1", "zz", 2)


def test_to_dot(two_block):
    text = to_dot(two_block)
    assert text.startswith("digraph")
    for v in two_block.vertices:
        assert f'"{v}"' in text
    for a in two_block.arrows:
        assert f'"{a.source}" -> "{a.target}"' in text
    assert to_dot(two_block) == text  # deterministic


def test_quiver_equality_roundtrip(two_block):
    clone = Quiver(two_block.vertices, two_block.arrows, two_block.weights,
                   name=two_block.name)
    assert clone == two_block
    other = Quiver(two_block.vertices, two_block.arrows, {"a1": 2},
                   name=two_block.name)
    assert other != two_block


def test_arrow_is_an_immutable_value_equal_only_to_arrows():
    a = Arrow("a", "v", "w")
    assert (a.name, a.source, a.target) == ("a", "v", "w")
    assert a == Arrow(name="a", source="v", target="w") and not a != Arrow("a", "v", "w")
    assert a != Arrow("a", "v", "x") and not a == Arrow("a", "v", "x")
    for other in (("a", "v", "w"), ["a", "v", "w"], "a"):
        assert a != other and other != a and not a == other and not other == a
    assert hash(a) == hash(Arrow("a", "v", "w"))
    assert repr(a) == "Arrow(name='a', source='v', target='w')"
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for attribute in ("name", "target", "weight"):
        with pytest.raises(AttributeError):
            setattr(a, attribute, "x")
    assert a == Arrow("a", "v", "w")


def test_arrow_and_path_are_hashable():
    a = Arrow("a", "v", "w")
    p = Path("v", ("a",), "w")
    assert {a: 1}[Arrow("a", "v", "w")] == 1
    assert {p: 1}[Path("v", ("a",), "w")] == 1
