import copy
import json
import pickle
import random

import pytest

from quivergrass.exactlinalg import FieldSpec, Matrix, hstack, rref
from quivergrass.quiverrep import (
    Arrow,
    Morphism,
    NotASubmodule,
    Quiver,
    Representation,
    SubmodulePoint,
    change_of_basis,
    dim_add,
    direct_sum,
    field_from_json,
    make_kronecker,
    kronecker_shape,
    projective,
    quiver_from_json,
    quiver_to_json,
    random_invertible,
    rep_power,
    representation_from_json,
    representation_to_json,
    simple,
    sub_representation,
    zero_representation,
)

from oracles import (
    dual, image_point, injective, is_isomorphic, is_stable, make_representation, opposite,
    quotient_representation, random_representation, sources)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)

A2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
A3 = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(("1", "1"), ())
    with pytest.raises(ValueError):
        Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "2", "1")))
    with pytest.raises(ValueError):
        Quiver(("1",), (Arrow("a", "1", "9"),))
    # directed cycle
    with pytest.raises(ValueError):
        Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))


def test_topological_order():
    q = Quiver(("c", "a", "b"), (Arrow("x", "a", "c"), Arrow("y", "b", "c")))
    assert q.topological_order() == ["a", "b", "c"]
    assert make_kronecker(2).topological_order() == ["1", "2"]
    assert A3.topological_order() == ["1", "2", "3"]


def test_topological_order_is_computed_once_and_copied():
    # a caller may mutate the list it gets; the quiver's order stays put.
    # The order is derived state: equality, repr and pickling see the fields
    q = Quiver(("c", "a", "b"), (Arrow("x", "a", "c"), Arrow("y", "b", "c")))
    order = q.topological_order()
    order.reverse()
    order.append("z")
    assert q.topological_order() == ["a", "b", "c"]
    assert q.topological_order() is not q.topological_order()
    assert repr(q) == ("Quiver(vertices=('c', 'a', 'b'), arrows=("
                       "Arrow(id='x', source='a', target='c'), "
                       "Arrow(id='y', source='b', target='c')))")
    for copied in (pickle.loads(pickle.dumps(q)), copy.copy(q)):
        assert copied == q and hash(copied) == hash(q)
        assert copied.topological_order() == ["a", "b", "c"]


def test_sources_sinks_connected():
    assert sources(A3) == ["1"]
    assert A3.sinks() == ["3"]
    assert A3.is_connected()
    two = Quiver(("1", "2"), ())
    assert not two.is_connected()


def test_subquiver():
    sub = A3.subquiver(["1", "2"])
    assert sub.vertices == ("1", "2")
    assert [a.id for a in sub.arrows] == ["a"]
    with pytest.raises(ValueError):
        A3.subquiver(["1", "9"])


def test_opposite():
    op = opposite(A3)
    assert op.arrows == (Arrow("a", "2", "1"), Arrow("b", "3", "2"))
    assert op.topological_order() == ["3", "2", "1"]


def test_kronecker_shape():
    assert kronecker_shape(make_kronecker(3)) == ("1", "2", ("a1", "a2", "a3"))
    assert kronecker_shape(A3) is None
    assert kronecker_shape(Quiver(("1", "2"), ())) is None


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(A2, F3, {"1": 1}, {})
    with pytest.raises(ValueError):
        Representation(A2, F3, {"1": 1, "2": 1},
                       {"a": Matrix(F3, [[1, 0]], ncols=2)})
    with pytest.raises(ValueError):
        Representation(A2, F3, {"1": 1, "2": 1}, {"a": Matrix(F5, [[1]], ncols=1)})


def test_simple_projective_injective_on_a3():
    s2 = simple(A3, "2", F3)
    assert s2.dims == {"1": 0, "2": 1, "3": 0}
    p1 = projective(A3, "1", F3)
    assert p1.dims == {"1": 1, "2": 1, "3": 1}
    p2 = projective(A3, "2", F3)
    assert p2.dims == {"1": 0, "2": 1, "3": 1}
    i3 = injective(A3, "3", F3)
    assert i3.dims == {"1": 1, "2": 1, "3": 1}
    i1 = injective(A3, "1", F3)
    assert i1.dims == {"1": 1, "2": 0, "3": 0}


def test_projective_on_kronecker():
    p1 = projective(make_kronecker(2), "1", F5)
    assert p1.dims == {"1": 1, "2": 2}
    # the two arrows hit independent basis vectors
    side_by_side = hstack([p1.matrices["a1"], p1.matrices["a2"]])
    assert rref(side_by_side).rank == 2


def test_direct_sum_and_power():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    s = direct_sum(m, simple(k2, "2", F3))
    assert s.dims == {"1": 1, "2": 3}
    sq = rep_power(m, 2)
    assert sq.dims == {"1": 2, "2": 4}
    assert rep_power(m, 0).is_zero
    z = zero_representation(k2, F3)
    assert direct_sum(m, z).dims == m.dims


def test_restrict_and_dual():
    p1 = projective(A3, "1", F3)
    d = dual(p1)
    assert d.quiver == opposite(A3)
    assert d.matrices["a"] == p1.matrices["a"].transpose()
    assert dual(d) == p1


def test_morphism_intertwining_enforced():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    with pytest.raises(ValueError):
        Morphism(m, m, {"1": Matrix(F3, [[1]], ncols=1),
                        "2": Matrix(F3, [[1, 1], [0, 0]], ncols=2)})
    ident = Morphism(m, m, {v: Matrix.identity(F3, m.dims[v]) for v in k2.vertices})
    assert ident.is_injective() and ident.is_surjective()
    comp = ident.compose(ident)
    assert comp.maps == ident.maps


def test_submodule_point_canonicalization():
    k2 = make_kronecker(2)
    m = rep_power(projective(k2, "1", F3), 1)
    s1 = Matrix(F3, [[2]], ncols=1)     # gets scaled to (1,)
    s2 = Matrix(F3, [[1, 1], [2, 2]], ncols=2)  # dependent rows collapse
    pt = SubmodulePoint(m, {"1": s1, "2": s2})
    assert pt.subspaces["1"].entries == ((1,),)
    assert pt.subspaces["2"].entries == ((1, 1),)
    assert pt.dim_vector == {"1": 1, "2": 1}


def test_sub_representation_stable_and_unstable():
    k2 = make_kronecker(2)
    p = projective(k2, "1", F3)   # dims (1,2), arrows e1, e2
    good = SubmodulePoint(p, {"1": Matrix.zeros(F3, 0, 1),
                              "2": Matrix(F3, [[1, 0]], ncols=2)})
    sub, incl = sub_representation(good)
    assert sub.dims == {"1": 0, "2": 1}
    assert incl.is_injective()
    bad = SubmodulePoint(p, {"1": Matrix(F3, [[1]], ncols=1),
                             "2": Matrix(F3, [[1, 0]], ncols=2)})
    assert not is_stable(bad)
    with pytest.raises(NotASubmodule):
        sub_representation(bad)


def test_quotient_representation():
    k2 = make_kronecker(2)
    p = projective(k2, "1", F3)
    pt = SubmodulePoint(p, {"1": Matrix.zeros(F3, 0, 1),
                            "2": Matrix(F3, [[0, 1]], ncols=2)})
    quot, proj = quotient_representation(pt)
    assert quot.dims == {"1": 1, "2": 1}
    assert proj.is_surjective()
    sub, incl = sub_representation(pt)
    for v in ("1", "2"):
        assert (proj.maps[v] * incl.maps[v]).is_zero


def test_quotient_dimension_bookkeeping():
    rng = random.Random(11)
    k2 = make_kronecker(2)
    for _ in range(15):
        m = random_representation(k2, F3, rng, max_dim=3)
        # the zero submodule: quotient is the whole thing
        pt = SubmodulePoint(m, {v: Matrix.zeros(F3, 0, m.dims[v])
                                for v in m.quiver.vertices})
        quot, proj = quotient_representation(pt)
        assert quot.dims == m.dims
        assert proj.is_injective() and proj.is_surjective()


def test_image_point():
    k2 = make_kronecker(2)
    p = projective(k2, "1", F3)
    ident = Morphism(p, p, {v: Matrix.identity(F3, p.dims[v]) for v in k2.vertices})
    pt = image_point(ident)
    assert pt.dim_vector == p.dims
    sub, _ = sub_representation(pt)
    assert is_isomorphic(sub, p)


def test_change_of_basis_isomorphism():
    rng = random.Random(0)
    k3 = make_kronecker(3)
    for _ in range(10):
        m = random_representation(k3, F5, rng, max_dim=3)
        g = {v: random_invertible(F5, m.dims[v], rng) for v in k3.vertices}
        assert is_isomorphic(m, change_of_basis(m, g))


def test_is_isomorphic_negatives():
    k2 = make_kronecker(2)
    s1, s2 = simple(k2, "1", F3), simple(k2, "2", F3)
    assert not is_isomorphic(s1, s2)
    assert is_isomorphic(s1, s1)
    assert is_isomorphic(zero_representation(k2, F3), zero_representation(k2, F3))
    # same dimension vector, different module: P(1) vs S(1) + S(2)^2
    p = projective(k2, "1", F3)
    split = direct_sum(simple(k2, "1", F3), rep_power(simple(k2, "2", F3), 2))
    assert p.dims == split.dims
    assert not is_isomorphic(p, split)


def test_is_isomorphic_detects_eigenvalue_difference():
    # two (1,1) modules on K(2): arrows (1, c). Isomorphic only for equal c.
    k2 = make_kronecker(2)

    def bristle(c):
        return make_representation(k2, F5, {"1": 1, "2": 1},
                                   {"a1": [[1]], "a2": [[c]]})

    assert is_isomorphic(bristle(2), bristle(2))
    assert not is_isomorphic(bristle(2), bristle(3))


def test_is_isomorphic_input_checks():
    k2 = make_kronecker(2)
    with pytest.raises(ValueError):
        is_isomorphic(simple(k2, "1", F3), simple(k2, "1", F5))


def test_quiver_json_roundtrip():
    data = quiver_to_json(A3)
    assert quiver_from_json(data) == A3
    assert json.loads(json.dumps(data)) == data
    with pytest.raises(ValueError):
        quiver_from_json({"vertices": ["1"]})
    with pytest.raises(ValueError):
        quiver_from_json({"vertices": [1], "arrows": []})
    with pytest.raises(ValueError, match="unknown key 'name'"):
        quiver_from_json(dict(data, name="A3"))
    arrow = dict(data["arrows"][0], label="x")
    with pytest.raises(ValueError, match="unknown key 'label'"):
        quiver_from_json(dict(data, arrows=[arrow] + data["arrows"][1:]))


def test_field_json_rejects_unknown_keys():
    assert field_from_json({"type": "prime", "p": 3}) == F3
    assert field_from_json({"type": "rational"}) == FieldSpec.rational()
    for data in ({"type": "prime", "p": 3, "q": 5}, {"type": "rational", "p": 3}):
        with pytest.raises(ValueError, match="unknown key"):
            field_from_json(data)


def test_representation_json_roundtrip():
    rng = random.Random(1)
    k3 = make_kronecker(3)
    m = random_representation(k3, F5, rng, max_dim=3)
    data = representation_to_json(m)
    back = representation_from_json(json.loads(json.dumps(data)))
    assert back == m
    rational = random_representation(A3, FieldSpec.rational(), rng, max_dim=2)
    assert representation_from_json(representation_to_json(rational)) == rational
    with pytest.raises(ValueError):
        representation_from_json({"quiver": quiver_to_json(k3)})
    with pytest.raises(ValueError, match="unknown key 'matrixes'"):
        representation_from_json(dict(data, matrixes=data["matrices"]))


def test_make_representation_defaults_zero():
    m = make_representation(A2, F3, {"1": 2, "2": 1}, {})
    assert m.matrices["a"].is_zero


def test_dim_helpers():
    assert dim_add({"1": 1, "2": 2}, {"1": 3, "2": 0}) == {"1": 4, "2": 2}
