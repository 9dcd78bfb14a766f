import random

import pytest

from quivergrass.exactlinalg import FieldSpec, Matrix, rref
from quivergrass.homext import (
    ExtCocycle,
    _differential,
    are_orthogonal_bricks,
    euler_form,
    ext1,
    has_brick_summand,
    hom_basis,
    hom_ext_dims,
    is_brick,
    is_reduced_kronecker,
)
from quivergrass.quiverrep import (
    Arrow,
    Quiver,
    change_of_basis,
    direct_sum,
    make_kronecker,
    projective,
    random_invertible,
    rep_power,
    simple,
    zero_representation,
)

from oracles import (
    cocycle_is_coboundary, is_exceptional, make_representation, random_representation)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)

A2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))


def test_hom_ext_simples_a2():
    s1 = simple(A2, "1", F3)
    s2 = simple(A2, "2", F3)
    # no maps between distinct simples, one extension S1 on top of S2
    assert hom_ext_dims(s1, s2) == (0, 1)
    assert hom_ext_dims(s2, s1) == (0, 0)
    assert hom_ext_dims(s1, s1) == (1, 0)
    assert hom_ext_dims(s2, s2) == (1, 0)


def test_hom_basis_matches_dims():
    rng = random.Random(5)
    k2 = make_kronecker(2)
    for _ in range(10):
        m = random_representation(k2, F3, rng, max_dim=3)
        n = random_representation(k2, F3, rng, max_dim=3)
        basis = hom_basis(m, n)
        assert basis.dim == hom_ext_dims(m, n)[0]
        for f in basis.basis:
            assert f.source == m and f.target == n


def _rebased_sum(parts, rng):
    m = zero_representation(parts[0].quiver, parts[0].field)
    for part in parts:
        m = direct_sum(m, part)
    return change_of_basis(m, {v: random_invertible(m.field, m.dims[v], rng)
                               for v in m.quiver.vertices})


def test_rank_path_matches_rref_path_on_rebased_sums():
    # hom_ext_dims reads one sparse rank of the differential; hom_basis and
    # ext1 read the dense canonical RREF of the same matrix
    rng = random.Random(31)
    tri = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                   Arrow("c", "1", "3"), Arrow("d", "1", "3")))
    quivers = (A2, make_kronecker(2), make_kronecker(3), tri)
    fields = [FieldSpec.prime(p) for p in (2, 3, 5, 7, 2 ** 31 - 1)] + [FieldSpec.rational()]
    for field in fields:
        for _ in range(12):
            q = rng.choice(quivers)
            m, n = (_rebased_sum([rng.choice((projective, simple))(q, rng.choice(q.vertices), field)
                                  for _ in range(rng.randint(1, 3))]
                                 + [random_representation(q, field, rng, max_dim=2)], rng)
                    for _ in range(2))
            d = _differential(m, n).matrix
            assert d.rank() == rref(d).rank == d.transpose().rank()
            assert hom_ext_dims(m, n) == (hom_basis(m, n).dim, ext1(m, n).dim)


def test_projectives_have_no_ext():
    rng = random.Random(7)
    for q in (A2, make_kronecker(3)):
        for v in q.vertices:
            p = projective(q, v, F5)
            for _ in range(5):
                n = random_representation(q, F5, rng, max_dim=3)
                assert hom_ext_dims(p, n)[1] == 0


def test_hom_additive_in_second_argument():
    rng = random.Random(9)
    k2 = make_kronecker(2)
    m = random_representation(k2, F3, rng, max_dim=3)
    b = random_representation(k2, F3, rng, max_dim=3)
    c = random_representation(k2, F3, rng, max_dim=3)
    hb, eb = hom_ext_dims(m, b)
    hc, ec = hom_ext_dims(m, c)
    hs, es = hom_ext_dims(m, direct_sum(b, c))
    assert hs == hb + hc
    assert es == eb + ec


def test_euler_form_values():
    k3 = make_kronecker(3)
    assert euler_form(k3, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == -1
    assert euler_form(k3, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == -3
    assert euler_form(A2, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == -1
    assert euler_form(A2, {"1": 0, "2": 1}, {"1": 1, "2": 0}) == 0


def test_euler_form_identity_random():
    rng = random.Random(3)
    for q in (A2, make_kronecker(2), make_kronecker(3)):
        for _ in range(8):
            m = random_representation(q, F3, rng, max_dim=3)
            n = random_representation(q, F3, rng, max_dim=3)
            h, e = hom_ext_dims(m, n)
            assert h - e == euler_form(q, m.dims, n.dims)


def test_ext1_cocycles_are_independent():
    k3 = make_kronecker(3)
    s1 = simple(k3, "1", F3)
    s2 = simple(k3, "2", F3)
    res = ext1(s1, s2)
    assert res.dim == 3
    for eps in res.basis:
        assert not cocycle_is_coboundary(eps)
        assert set(eps.components) == {"a1", "a2", "a3"}


def test_coboundary_detection():
    # a cocycle built as d0(f) for a nonzero f must be recognized as trivial
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    n = projective(k2, "1", F3)
    f1 = Matrix(F3, [[1]], ncols=1)
    f2 = Matrix.zeros(F3, 2, 2)
    comps = {}
    for arr in k2.arrows:
        na, ma = n.matrices[arr.id], m.matrices[arr.id]
        comps[arr.id] = na * f1 + (f2 * ma).scale(F3.coerce(-1))
    eps = ExtCocycle(m, n, comps)
    assert cocycle_is_coboundary(eps)
    zero = ExtCocycle(m, n, {a.id: Matrix.zeros(F3, 2, 1) for a in k2.arrows})
    assert cocycle_is_coboundary(zero)


def test_ext1_zero_for_zero_module():
    k2 = make_kronecker(2)
    z = zero_representation(k2, F3)
    m = projective(k2, "1", F3)
    assert hom_ext_dims(z, m) == (0, 0)
    assert hom_ext_dims(m, z) == (0, 0)
    assert ext1(m, z).dim == 0


def test_is_brick():
    k2 = make_kronecker(2)
    b = make_representation(k2, F3, {"1": 1, "2": 1}, {"a1": [[1]], "a2": [[0]]})
    assert is_brick(b)
    assert not is_brick(rep_power(b, 2))
    assert is_brick(simple(k2, "1", F3))
    with pytest.raises(ValueError):
        is_brick(zero_representation(k2, F3))


def test_orthogonal_bricks():
    k3 = make_kronecker(3)
    s1 = simple(k3, "1", F3)
    s2 = simple(k3, "2", F3)
    assert are_orthogonal_bricks(s2, s1)   # hom = 0 both ways
    assert not are_orthogonal_bricks(s1, s1)
    p = projective(k3, "1", F3)
    assert not are_orthogonal_bricks(p, s2)  # hom(p, s2) != 0


def test_is_exceptional():
    k2 = make_kronecker(2)
    p = projective(k2, "1", F3)
    assert is_exceptional(p)
    assert is_exceptional(simple(k2, "2", F3))
    k3 = make_kronecker(3)
    s1 = simple(k3, "1", F3)
    assert is_exceptional(s1)
    # a brick with self-extensions on the wild quiver
    m = make_representation(k3, F3, {"1": 1, "2": 1},
                            {"a1": [[1]], "a2": [[0]], "a3": [[0]]})
    assert is_brick(m)
    assert not is_exceptional(m)
    assert hom_ext_dims(m, m)[1] == 2


def test_has_brick_summand():
    k3 = make_kronecker(3)
    s1 = simple(k3, "1", F3)
    s2 = simple(k3, "2", F3)
    assert has_brick_summand(direct_sum(s2, s1), s1)
    assert has_brick_summand(s1, s1)
    assert not has_brick_summand(s2, s1)
    assert not has_brick_summand(rep_power(s2, 3), s1)
    with pytest.raises(ValueError):
        has_brick_summand(s2, rep_power(s1, 2))


def test_is_reduced_kronecker():
    k2 = make_kronecker(2)
    b = make_representation(k2, F3, {"1": 1, "2": 1}, {"a1": [[1]], "a2": [[0]]})
    assert is_reduced_kronecker(b)
    assert not is_reduced_kronecker(simple(k2, "1", F3))
    assert not is_reduced_kronecker(direct_sum(b, simple(k2, "1", F3)))
    assert is_reduced_kronecker(zero_representation(k2, F3))
    assert is_reduced_kronecker(simple(k2, "2", F3))


def test_is_reduced_matches_brick_summand_test():
    # reduced == no summand isomorphic to the simple at the source
    rng = random.Random(21)
    k3 = make_kronecker(3)
    s1 = simple(k3, "1", F3)
    hits = 0
    for _ in range(60):
        n = random_representation(k3, F3, rng, max_dim=2)
        if n.is_zero:
            continue
        reduced = is_reduced_kronecker(n)
        assert reduced == (not has_brick_summand(n, s1))
        hits += not reduced
    assert hits > 0  # the sample actually exercised both branches
