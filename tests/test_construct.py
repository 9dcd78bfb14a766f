import random

import pytest

from quivergrass import construct
from quivergrass.construct import (
    DistinctnessViolated,
    Lemma2Report,
    NotOrthogonalBricks,
    NotReduced,
    SubmoduleIsoReport,
    ZeroExt,
    build_eta,
    case1_instance,
    case1_pair,
    case1_quiver,
    case2_X,
    case2_Y,
    case2_instance,
    check_bijection,
    check_condition_C,
    check_eta_fullness,
    check_lemma1,
    check_lemma2,
    coordinate_inclusion_N,
    is_E_bristle,
    kronecker_preprojective,
    make_eta_context,
    preinjective_N,
    regular_N,
    remark_N,
    remark_Xprime,
    remark_counterexample_demo,
)
from quivergrass.exactlinalg import FieldSpec, Matrix
from quivergrass.grassmann import count_submodules, enumerate_submodules
from quivergrass.homext import (
    are_orthogonal_bricks,
    ext1,
    hom_ext_dims,
    is_brick,
    is_reduced_kronecker,
)
from quivergrass.quiverrep import (
    direct_sum,
    make_kronecker,
    rep_power,
    simple,
    sub_representation,
)

from oracles import (
    is_brick_power, is_exceptional, is_isomorphic, make_representation,
    random_representation)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
QQ = FieldSpec.rational()


def bristle(field, c0=1, c1=0):
    return make_representation(make_kronecker(2), field, {"1": 1, "2": 1},
                               {"a1": [[c0]], "a2": [[c1]]})


# -- instance builders -------------------------------------------------------

def test_case2_X_matrices():
    x = case2_X((1, 2), F5)
    assert x.dims == {"1": 2, "2": 2}
    assert x.matrices["a1"].entries == ((1, 0), (0, 1))
    assert x.matrices["a2"].entries == ((1, 0), (0, 2))
    assert x.matrices["a3"].entries == ((0, 1), (1, 0))
    assert is_brick(x)
    assert not is_exceptional(x)   # wild brick with self-extensions


def test_case2_X_validation():
    with pytest.raises(DistinctnessViolated):
        case2_X((1, 1), F5)
    with pytest.raises(DistinctnessViolated):
        case2_X((0, 1), F5)
    with pytest.raises(ValueError):
        case2_X((1,), F5)
    with pytest.raises(DistinctnessViolated) as exc:
        case2_X((1, 2, 3), F3)   # needs three distinct nonzero values mod 3
    assert "p > n" in str(exc.value)
    # over the rationals any distinct nonzero values work
    x = case2_X((1, -1, 7), QQ)
    assert x.dims == {"1": 3, "2": 3}


def test_case2_Y():
    y = case2_Y(F3)
    assert y.dims == {"1": 1, "2": 1}
    assert y.matrices["a1"].entries == ((1,),)
    assert y.matrices["a2"].is_zero and y.matrices["a3"].is_zero
    assert is_brick(y)


def test_case2_pair_orthogonal_with_n_extensions():
    for n, field in ((2, F3), (2, F5), (3, F5)):
        x = case2_X(tuple(range(1, n + 1)), field)
        y = case2_Y(field)
        assert are_orthogonal_bricks(x, y)
        assert hom_ext_dims(y, x)[1] == n


def test_remark_Xprime():
    xp = remark_Xprime(1, 2, F3)
    assert xp.matrices["a3"].entries == ((0, 0), (1, 0))
    assert is_brick(xp)
    assert are_orthogonal_bricks(xp, case2_Y(F3))
    assert ext1(case2_Y(F3), xp).dim == 2
    # exactly one (1,1) submodule, spanned by e_2 at both vertices
    report = enumerate_submodules(xp, {"1": 1, "2": 1})
    assert report.count == 1
    pt = report.points[0]
    assert pt.subspaces["1"].entries == ((0, 1),)
    assert pt.subspaces["2"].entries == ((0, 1),)
    with pytest.raises(DistinctnessViolated):
        remark_Xprime(2, 2, F3)
    with pytest.raises(DistinctnessViolated):
        remark_Xprime(0, 1, F3)


def test_kronecker_preprojective():
    for m in (0, 1, 3):
        p = kronecker_preprojective(m, F3)
        assert p.dims == {"1": m, "2": m + 1}
        assert is_exceptional(p)
    assert kronecker_preprojective(0, F3).dims == {"1": 0, "2": 1}
    with pytest.raises(ValueError):
        kronecker_preprojective(-1, F3)


def test_case1_pair():
    q = case1_quiver()
    x, y, n = case1_pair(q, "w", kronecker_preprojective(1, F3))
    assert x.dims == {"1": 1, "2": 2, "w": 0}
    assert y.dims == {"1": 0, "2": 0, "w": 1}
    assert n == 2
    assert are_orthogonal_bricks(x, y)
    assert hom_ext_dims(y, x)[1] == 2


def test_case1_pair_input_checks():
    q = case1_quiver()
    with pytest.raises(ValueError):
        case1_pair(q, "2", kronecker_preprojective(1, F3))   # not a source
    with pytest.raises(ValueError):
        case1_pair(q, "zz", kronecker_preprojective(1, F3))
    with pytest.raises(ValueError):
        case1_pair(q, "w", case2_X((1, 2), F3))   # lives on the wrong quiver
    with pytest.raises(ValueError):
        case1_pair(q, "w", rep_power(kronecker_preprojective(1, F3), 2))


def test_case1_pair_warns_for_nonexceptional_brick():
    q = case1_quiver()
    with pytest.warns(UserWarning):
        x, y, n = case1_pair(q, "w", bristle(F3))
    assert n == 1


# -- the eta construction ----------------------------------------------------

def test_make_eta_context():
    ctx = case2_instance(F3)
    assert ctx.n == 2
    assert len(ctx.cocycles) == 2
    assert ctx.xdim == {"1": 2, "2": 2}
    assert ctx.ydim == {"1": 1, "2": 1}
    for eps in ctx.cocycles:
        for arr in ctx.x.quiver.arrows:
            assert eps.components[arr.id].nrows == 2
            assert eps.components[arr.id].ncols == 1


def test_make_eta_context_rejections():
    k2 = make_kronecker(2)
    s1, s2 = simple(k2, "1", F3), simple(k2, "2", F3)
    with pytest.raises(NotOrthogonalBricks):
        make_eta_context(s1, s1)
    with pytest.raises(ZeroExt):
        make_eta_context(s1, s2)   # orthogonal, but Ext1(S2, S1) = 0


def test_build_eta_on_simples():
    ctx = case2_instance(F3)
    k2 = make_kronecker(2)
    w_sink = build_eta(ctx, simple(k2, "2", F3))
    assert w_sink.a == 1 and w_sink.b == 0
    assert is_brick_power(w_sink.m, ctx.x, 1)
    w_src = build_eta(ctx, simple(k2, "1", F3))
    assert w_src.a == 0 and w_src.b == 1
    assert is_brick_power(w_src.m, ctx.y, 1)


def test_build_eta_additive():
    ctx = case2_instance(F3)
    n1 = bristle(F3)
    n2 = kronecker_preprojective(1, F3)
    sum_w = build_eta(ctx, direct_sum(n1, n2))
    parts = direct_sum(build_eta(ctx, n1).m, build_eta(ctx, n2).m)
    assert sum_w.m.dims == parts.dims
    assert is_isomorphic(sum_w.m, parts)


def test_build_eta_dimension_vector():
    ctx = case2_instance(F3)
    n = regular_N(F3)   # dims (2, 2): a = 2 copies of X, b = 2 copies of Y
    w = build_eta(ctx, n)
    assert (w.a, w.b) == (2, 2)
    for v in ("1", "2"):
        assert w.m.dims[v] == 2 * ctx.xdim[v] + 2 * ctx.ydim[v]
    assert w.mu.is_injective()
    assert w.pi.is_surjective()
    for v in ("1", "2"):
        assert (w.pi.maps[v] * w.mu.maps[v]).is_zero


def test_build_eta_input_checks():
    ctx = case2_instance(F3)
    with pytest.raises(ValueError):
        build_eta(ctx, case2_Y(F3))            # K(3) module, context wants K(2)
    with pytest.raises(ValueError):
        build_eta(ctx, bristle(F5))            # field mismatch


def test_is_E_bristle():
    ctx = case2_instance(F3)
    w = build_eta(ctx, bristle(F3))
    assert is_E_bristle(ctx, w.m)
    assert not is_E_bristle(ctx, direct_sum(ctx.x, ctx.y))   # decomposable
    assert not is_E_bristle(ctx, ctx.x)                      # wrong dimensions
    assert not is_E_bristle(ctx, rep_power(ctx.y, 3))        # no X inside


# -- checkers ----------------------------------------------------------------

def test_check_lemma1_counts():
    ctx2, ctx3 = case1_instance(F2), case1_instance(F3)
    r2 = check_lemma1(ctx2.x, 2)
    r3 = check_lemma1(ctx3.x, 2)
    assert (r2.holds, r2.count) == (True, 3)
    assert (r3.holds, r3.count) == (True, 4)
    assert r2.failures == () and r3.failures == ()
    with pytest.raises(ValueError):
        check_lemma1(ctx2.x, 0)
    with pytest.raises(ValueError):
        check_lemma1(rep_power(ctx2.x, 2), 1)   # not a brick


def test_check_lemma2_counts():
    x = case2_X((1, 2), F3)
    r1 = check_lemma2(x, 1)
    assert r1.holds
    assert r1.counts == {0: 1, 1: 0, 2: 1}
    r2 = check_lemma2(x, 2)
    assert r2.holds
    assert r2.counts == {0: 1, 1: 0, 2: 4, 3: 0, 4: 1}
    with pytest.raises(ValueError):
        check_lemma2(kronecker_preprojective(1, F3), 1)   # dims not equal
    with pytest.raises(ValueError):
        check_lemma2(simple(case1_quiver(), "w", F3), 1)  # not Kronecker shaped


def test_lemma_checks_enumerate_only_when_a_count_is_off(monkeypatch):
    # where the lemmas hold every count is the Gaussian binomial, so the
    # checkers never enumerate; the reports match the enumerated counts
    holding = [(check_lemma1, case1_instance(field).x, a)
               for field in (F2, F3) for a in (2, 3)]
    holding += [(check_lemma2, case2_X((1, 2), field), 2) for field in (F3, F5)]
    expected = []
    for check, x, a in holding:
        xa = rep_power(x, a)
        if check is check_lemma1:
            count = enumerate_submodules(xa, x.dim_vector).count
            expected.append(SubmoduleIsoReport(True, count, ()))
        else:
            counts = {w: enumerate_submodules(xa, {"1": w, "2": w}).count
                      for w in range(5)}
            expected.append(Lemma2Report(True, counts, ()))

    def refuse(m, d, budget):
        raise AssertionError(f"enumerated {d}")
    monkeypatch.setattr(construct, "enumerate_submodules", refuse)
    assert [check(x, a) for check, x, a in holding] == expected

    # on X' the counts are off: only those dimension vectors are enumerated
    # and their failures listed
    seen = []

    def record(m, d, budget):
        seen.append(dict(d))
        return enumerate_submodules(m, d, budget=budget)
    monkeypatch.setattr(construct, "enumerate_submodules", record)
    xprime = remark_Xprime(1, 2, F3)
    r1 = check_lemma1(xprime, 2)
    assert seen == [xprime.dim_vector]
    assert not r1.holds and r1.failures
    assert r1.count == enumerate_submodules(rep_power(xprime, 2), xprime.dim_vector).count
    seen.clear()
    r2 = check_lemma2(xprime, 2)
    assert seen == [{"1": w, "2": w} for w in (1, 2, 3)]
    assert not r2.holds and len(r2.failures) == 9
    assert {w for w, _ in r2.failures} == {1, 2, 3}


def test_check_eta_fullness():
    ctx = case2_instance(F3)
    k2 = make_kronecker(2)
    pairs = [
        (simple(k2, "1", F3), simple(k2, "2", F3)),
        (simple(k2, "2", F3), simple(k2, "1", F3)),
        (bristle(F3), bristle(F3)),
        (bristle(F3), kronecker_preprojective(1, F3)),
    ]
    for n1, n2 in pairs:
        rep = check_eta_fullness(ctx, n1, n2)
        assert rep.equal, (rep.lhs, rep.rhs)
    rng = random.Random(13)
    for _ in range(5):
        n1 = random_representation(k2, F3, rng, max_dim=2)
        n2 = random_representation(k2, F3, rng, max_dim=2)
        assert check_eta_fullness(ctx, n1, n2).equal


def test_check_bijection_case2():
    ctx = case2_instance(F3)
    n = coordinate_inclusion_N(F3, 2)
    assert is_reduced_kronecker(n)
    rep = check_bijection(ctx, n)
    assert rep.equal and rep.lhs == 0 and rep.rhs == 0


def test_check_bijection_case1():
    ctx = case1_instance(F3)
    n = regular_N(F3)
    rep = check_bijection(ctx, n)
    assert rep.equal and rep.lhs == 1 and rep.rhs == 1


def test_check_bijection_rejects_unreduced():
    ctx = case2_instance(F3)
    k2 = make_kronecker(2)
    with pytest.raises(NotReduced):
        check_bijection(ctx, direct_sum(bristle(F3), simple(k2, "1", F3)))


def test_check_condition_C_holds_for_case1():
    ctx = case1_instance(F3)
    w = build_eta(ctx, regular_N(F3))
    report = check_condition_C(ctx, w)
    assert report.holds
    assert report.checked == 1
    assert report.violations == ()


def test_check_condition_C_rejects_unreduced():
    ctx = case2_instance(F3)
    k2 = make_kronecker(2)
    w = build_eta(ctx, direct_sum(bristle(F3), simple(k2, "1", F3)))
    with pytest.raises(NotReduced):
        check_condition_C(ctx, w)


def test_remark_instances_are_reduced_indecomposables():
    for b in (1, 2, 3):
        n = remark_N(F3, b)
        assert n.dims == {"1": b, "2": 2}
        assert is_reduced_kronecker(n)
    with pytest.raises(ValueError):
        remark_N(F3, 4)


def test_remark_counterexample_demo():
    xprime = remark_Xprime(1, 2, F3)
    ctx = make_eta_context(xprime, case2_Y(F3))
    for b in (1, 2, 3):
        report = remark_counterexample_demo(F3, b=b)
        # checked here, not by the demo: the witness point is no E-bristle
        assert not is_E_bristle(ctx, sub_representation(report.witness_point)[0])
        assert report.counterexample_found == report.witness_is_violation
        assert report.counterexample_found
        assert not report.condition_c.holds
        assert report.witness_point in report.condition_c.violations
    # the bijection still fails strictly for the same instance
    bij = check_bijection(ctx, remark_N(F3, 1))
    assert not bij.equal
    assert bij.lhs < bij.rhs
    assert (bij.lhs, bij.rhs) == (0, 4)


def test_remark_demo_rejects_small_fields():
    with pytest.raises(ValueError):
        remark_counterexample_demo(F2, b=1)


def test_case2_instance_validation():
    with pytest.raises(ValueError):
        case2_instance(F5, n=2, lambdas=(1, 2, 3))
    ctx = case2_instance(F5, n=3)
    assert ctx.n == 3


def test_shipped_N_modules():
    for field in (F3, F5):
        assert is_reduced_kronecker(coordinate_inclusion_N(field, 2))
        assert is_reduced_kronecker(regular_N(field))
        assert is_reduced_kronecker(preinjective_N(field))
    n = coordinate_inclusion_N(F3, 3)
    assert n.dims == {"1": 1, "2": 3}
    assert count_submodules(n, {"1": 1, "2": 1}) == 0
