import random

import pytest

from quivergrass.quiverrep import Arrow, Quiver, make_kronecker
from quivergrass.reptype import ClassificationResult, classify, tits_definiteness

from oracles import (
    NoRemovableVertex, NotApplicable, find_removable_extremal_vertex, symmetric_inertia)

KIND_OF_CLASS = {"positive_definite": "finite",
                 "positive_semidefinite": "tame",
                 "indefinite": "wild"}


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


def tits_rows(q):
    """Twice the Tits form of q as an integer matrix, in q's vertex order."""
    return [[2 * (u == v) - sum((a.source, a.target) in ((u, v), (v, u))
                                for a in q.arrows)
             for v in q.vertices] for u in q.vertices]


def inertia_class(rows):
    """Definiteness class of a symmetric matrix by the inertia oracle."""
    pos, neg, zero = symmetric_inertia(rows)
    if neg == 0 and zero == 0:
        return "positive_definite"
    return "positive_semidefinite" if neg == 0 else "indefinite"


def leading_minor_signs(rows):
    """Signs of the leading principal minors D_1, ..., D_n, read off inertias."""
    signs = []
    for k in range(1, len(rows) + 1):
        _, neg, zero = symmetric_inertia([row[:k] for row in rows[:k]])
        signs.append(0 if zero else (-1) ** neg)
    return signs


def test_tits_definiteness_matches_classification():
    def quiver(verts, pairs):
        return Quiver(verts, tuple(Arrow(f"a{i}", s, t)
                                   for i, (s, t) in enumerate(pairs)))
    cycle_arrows = (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"))
    dtilde_arrows = tuple(("c", leaf) for leaf in "wxyz")
    # (quiver, class, signs of D_1, ..., D_n in its vertex order); a zero
    # or negative D_k with k < n must give "indefinite", never a division
    cases = [
        (Quiver(("1",), ()), "positive_definite", [1]),
        (path(4), "positive_definite", [1] * 4),
        (star([1, 2, 4]), "positive_definite", [1] * 8),
        (make_kronecker(2), "positive_semidefinite", [1, 0]),
        (cycle(4), "positive_semidefinite", [1, 1, 1, 0]),
        (quiver(("1", "3", "2", "4"), cycle_arrows), "positive_semidefinite",
         [1, 1, 1, 0]),
        (quiver(("c", "w", "x", "y", "z"), dtilde_arrows), "positive_semidefinite",
         [1, 1, 1, 1, 0]),
        (quiver(("w", "x", "y", "z", "c"), dtilde_arrows), "positive_semidefinite",
         [1, 1, 1, 1, 0]),
        (star([2, 2, 2]), "positive_semidefinite", [1] * 6 + [0]),
        (make_kronecker(3), "indefinite", [1, -1]),
        # its first nine vertices span E~8
        (star([1, 2, 6]), "indefinite", [1] * 8 + [0, -1]),
        # a K(2) block first: a Bareiss step past D_2 = 0 divides by zero
        (quiver(("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("2", "4"), ("4", "3"))),
         "indefinite", [1, 0, 0, -1]),
        # two K(3) blocks joined by one arrow: D_2 < 0 although D_4 > 0
        (quiver(("1", "2", "3", "4"), (("1", "2"),) * 3 + (("3", "4"),) * 3 + (("2", "3"),)),
         "indefinite", [1, -1, -1, 1]),
    ]
    for q, expected, signs in cases:
        rows = tits_rows(q)
        assert leading_minor_signs(rows) == signs
        assert inertia_class(rows) == expected
        assert tits_definiteness(q) == expected
        assert classify(q).kind == KIND_OF_CLASS[expected]


def random_connected_quiver(rng, n):
    """Connected acyclic quiver on n vertices, edge multiplicities 1 to 3.

    Arrows run from lower to higher topological index over a random
    spanning tree plus a few chords; the vertex tuple is shuffled, so the
    order the Tits matrix is built in is random too.
    """
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {(i, j) for j in range(n) for i in range(j) if rng.random() < 0.12}
    arrows = [Arrow(f"a{i}_{j}_{k}", f"v{i}", f"v{j}")
              for i, j in sorted(edges)
              for k in range(rng.choices((1, 2, 3), (14, 2, 1))[0])]
    verts = [f"v{i}" for i in range(n)]
    rng.shuffle(verts)
    return Quiver(tuple(verts), tuple(arrows))


@pytest.mark.parametrize("seed", [0, 1])
def test_tits_definiteness_matches_inertia_oracle(seed):
    rng = random.Random(seed)
    seen = {}
    for _ in range(1000):
        q = random_connected_quiver(rng, rng.randint(1, 9))
        got = tits_definiteness(q)
        assert got == inertia_class(tits_rows(q)), q
        assert classify(q).kind == KIND_OF_CLASS[got], q
        seen[got] = seen.get(got, 0) + 1
    assert min(seen.get(c, 0) for c in KIND_OF_CLASS) >= 20, seen


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
