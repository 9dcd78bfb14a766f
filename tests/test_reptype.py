import pytest

from quivergrass.quiverrep import Arrow, Quiver, make_kronecker
from quivergrass.reptype import (
    ClassificationResult,
    classify,
    symmetric_inertia,
    tits_definiteness,
)

from oracles import NoRemovableVertex, NotApplicable, find_removable_extremal_vertex


def path(n):
    """Linear orientation of the n-vertex path."""
    verts = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return Quiver(verts, arrows)


def star(arms):
    """Tree with one center `c` and arms of the given lengths, edges outward."""
    verts = ["c"]
    arrows = []
    for ai, length in enumerate(arms):
        prev = "c"
        for step in range(length):
            v = f"v{ai}_{step}"
            verts.append(v)
            arrows.append(Arrow(f"e{ai}_{step}", prev, v))
            prev = v
    return Quiver(tuple(verts), tuple(arrows))


def cycle(n):
    """Underlying n-cycle, oriented acyclically (all arrows away from vertex 1)."""
    verts = tuple(str(i) for i in range(1, n + 1))
    arrows = [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    arrows.append(Arrow("back", "1", str(n)))
    return Quiver(verts, tuple(arrows))


def test_classify_finite_types():
    assert classify(path(1)) == ClassificationResult("finite", "A1")
    assert classify(path(2)) == ClassificationResult("finite", "A2")
    assert classify(path(5)) == ClassificationResult("finite", "A5")
    assert classify(star([1, 1, 1])) == ClassificationResult("finite", "D4")
    assert classify(star([1, 1, 2])) == ClassificationResult("finite", "D5")
    assert classify(star([1, 2, 2])) == ClassificationResult("finite", "E6")
    assert classify(star([1, 2, 3])) == ClassificationResult("finite", "E7")
    assert classify(star([1, 2, 4])) == ClassificationResult("finite", "E8")


def test_classify_tame_types():
    assert classify(make_kronecker(2)) == ClassificationResult("tame", "A~1")
    assert classify(cycle(3)) == ClassificationResult("tame", "A~2")
    assert classify(cycle(6)) == ClassificationResult("tame", "A~5")
    assert classify(star([1, 1, 1, 1])) == ClassificationResult("tame", "D~4")
    assert classify(star([2, 2, 2])) == ClassificationResult("tame", "E~6")
    assert classify(star([1, 3, 3])) == ClassificationResult("tame", "E~7")
    assert classify(star([1, 2, 5])) == ClassificationResult("tame", "E~8")
    # two branch vertices, each with two pendant leaves
    dtilde = Quiver(("1", "2", "3", "4", "5", "6"),
                    (Arrow("a", "1", "3"), Arrow("b", "2", "3"),
                     Arrow("c", "3", "4"),
                     Arrow("d", "4", "5"), Arrow("e", "4", "6")))
    assert classify(dtilde) == ClassificationResult("tame", "D~5")


def test_classify_wild_types():
    assert classify(make_kronecker(3)).kind == "wild"
    assert classify(make_kronecker(5)).kind == "wild"
    assert classify(star([1, 2, 6])).kind == "wild"   # one past E~8
    assert classify(star([2, 2, 3])).kind == "wild"   # one past E~6
    assert classify(star([1, 1, 1, 1, 1])).kind == "wild"
    # double edge inside a larger quiver
    q = Quiver(("1", "2", "3"),
               (Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "2", "3")))
    assert classify(q).kind == "wild"
    # triangle = 3-cycle, still tame; a chorded 4-cycle is wild
    tri = Quiver(("1", "2", "3"),
                 (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                  Arrow("c", "1", "3")))
    assert classify(tri) == ClassificationResult("tame", "A~2")
    chorded = Quiver(("1", "2", "3", "4"),
                     (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                      Arrow("c", "1", "4"), Arrow("d", "4", "3"),
                      Arrow("e", "1", "3")))
    assert classify(chorded).kind == "wild"


def test_classify_orientation_independent():
    q = star([1, 2, 2])
    assert classify(q.opposite()) == classify(q)
    assert classify(path(4).opposite()) == classify(path(4))


def test_classify_rejects_disconnected():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"),))
    with pytest.raises(ValueError):
        classify(q)


def test_representation_infinite_property():
    assert not classify(path(3)).is_representation_infinite
    assert classify(make_kronecker(2)).is_representation_infinite
    assert classify(make_kronecker(4)).is_representation_infinite


def test_symmetric_inertia_basic():
    assert symmetric_inertia([[1, 0], [0, 1]]) == (2, 0, 0)
    assert symmetric_inertia([[-3]]) == (0, 1, 0)
    assert symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    # hyperbolic plane: one positive, one negative
    assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    # Kronecker 2 Tits form: rank 1 positive, one radical direction
    assert symmetric_inertia([[2, -2], [-2, 2]]) == (1, 0, 1)
    # Kronecker 3 Tits form: indefinite
    assert symmetric_inertia([[2, -3], [-3, 2]]) == (1, 1, 0)


def test_tits_definiteness_matches_classification():
    cases = [
        (path(4), "positive_definite"),
        (star([1, 2, 4]), "positive_definite"),
        (make_kronecker(2), "positive_semidefinite"),
        (cycle(4), "positive_semidefinite"),
        (star([2, 2, 2]), "positive_semidefinite"),
        (make_kronecker(3), "indefinite"),
        (star([1, 2, 6]), "indefinite"),
    ]
    for q, expected in cases:
        assert tits_definiteness(q) == expected
        kind = classify(q).kind
        expected_kind = {"positive_definite": "finite",
                         "positive_semidefinite": "tame",
                         "indefinite": "wild"}[expected]
        assert kind == expected_kind


def test_find_removable_on_kronecker_with_tail():
    # wild K(3) core plus a pendant sink: deleting the pendant keeps K(3)
    q = Quiver(("1", "2", "3"),
               (Arrow("a1", "1", "2"), Arrow("a2", "1", "2"),
                Arrow("a3", "1", "2"), Arrow("b", "2", "3")))
    omega, rest = find_removable_extremal_vertex(q)
    assert omega == "3"
    assert set(rest.vertices) == {"1", "2"}
    assert classify(rest).kind == "wild"
    assert omega in (set(q.sources()) | set(q.sinks()))


def test_find_removable_tame_remainder_allowed():
    # K(2) core plus a pendant source: remainder is tame, still qualifies
    q = Quiver(("0", "1", "2"),
               (Arrow("c", "0", "1"),
                Arrow("a1", "1", "2"), Arrow("a2", "1", "2"),
                Arrow("a3", "1", "2")))
    omega, rest = find_removable_extremal_vertex(q)
    assert omega == "0"
    assert classify(rest).is_representation_infinite


def test_find_removable_not_applicable():
    with pytest.raises(NotApplicable):
        find_removable_extremal_vertex(make_kronecker(3))   # only 2 vertices
    with pytest.raises(NotApplicable):
        find_removable_extremal_vertex(path(4))             # not wild
    disconnected = Quiver(("1", "2", "3", "4"),
                          (Arrow("a", "1", "2"), Arrow("b", "1", "2"),
                           Arrow("c", "1", "2")))
    with pytest.raises(NotApplicable):
        find_removable_extremal_vertex(disconnected)


def test_find_removable_boundary_failure():
    # wild on 3 vertices where deleting either extremal vertex leaves a
    # representation-finite path: the search must report failure loudly
    q = Quiver(("1", "2", "3"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                Arrow("t1", "1", "3"), Arrow("t2", "1", "3"),
                Arrow("t3", "1", "3")))
    assert classify(q).kind == "wild"
    with pytest.raises(NoRemovableVertex):
        find_removable_extremal_vertex(q)


def test_find_removable_keeps_connected():
    # deleting the only cut vertex neighbor could disconnect; the search
    # must skip extremal vertices whose removal splits the quiver
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a1", "1", "2"), Arrow("a2", "1", "2"),
                Arrow("a3", "1", "2"), Arrow("b", "3", "1"),
                Arrow("c", "3", "4")))
    omega, rest = find_removable_extremal_vertex(q)
    assert rest.is_connected()
    assert classify(rest).is_representation_infinite
