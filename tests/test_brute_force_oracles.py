"""Brute-force oracles for the theory-based checks of construct and homext.

is_E_bristle decides a candidate u from the spanning maps of Hom(X, u) and
Hom(u, Y) and a brick test.  The lemma checkers compare the number of
submodules of x^a of one dimension vector with a Gaussian binomial and, only
when it is off, decide each submodule U by one Hom dimension,
h = dim Hom(x, U), and a comparison of dimension vectors; the oracle
is_brick_power decides m = x^s from a Hom basis and block ranks.  The
functions here are the searches those replaced: a scan of every map
X -> u up to scalars with an is_isomorphic test of its cokernel, a scan of
End(u) for nontrivial idempotents, and is_isomorphic against x^s.  The
differential tests require equal verdicts on seeded changes of basis of the
shipped instances, with both verdicts occurring; the lemma checkers are also
compared with is_brick_power.
"""

import random
from itertools import product

from quivergrass.construct import (
    build_eta,
    case1_instance,
    case2_X,
    case2_Y,
    case2_instance,
    check_lemma1,
    check_lemma2,
    is_E_bristle,
    make_eta_context,
    regular_N,
    remark_N,
    remark_Xprime,
)
from quivergrass.exactlinalg import FieldSpec, Matrix, block2x2
from quivergrass.grassmann import enumerate_submodules
from quivergrass.homext import hom_basis, is_brick
from quivergrass.quiverrep import (
    Morphism,
    Representation,
    change_of_basis,
    dim_add,
    direct_sum,
    make_kronecker,
    make_representation,
    random_invertible,
    rep_power,
    sub_representation,
)

from oracles import (
    image_point,
    is_brick_power,
    is_isomorphic,
    projective_coefficients,
    quotient_representation,
)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def _combination(basis, coeffs, source, target):
    field = target.field
    maps = {}
    for v in target.quiver.vertices:
        acc = Matrix.zeros(field, target.dims[v], source.dims[v])
        for c, f in zip(coeffs, basis):
            if c:
                acc = acc + f.maps[v].scale(c)
        maps[v] = acc
    return maps


def injective_hom_with_quotient_by_search(ctx, u):
    """Some injective X -> u, first nonzero coefficient 1, with cokernel Y."""
    basis = hom_basis(ctx.x, u).basis
    for coeffs in projective_coefficients(len(basis), u.field.p):
        f = Morphism(ctx.x, u, _combination(basis, coeffs, ctx.x, u))
        if not f.is_injective():
            continue
        quot, _ = quotient_representation(image_point(f))
        if is_isomorphic(quot, ctx.y):
            return True
    return False


def is_indecomposable_by_idempotents(u):
    """No idempotent endomorphism besides zero and the identity."""
    basis = hom_basis(u, u).basis
    if len(basis) == 1:
        return True
    ident = {v: Matrix.identity(u.field, u.dims[v]) for v in u.quiver.vertices}
    for coeffs in product(range(u.field.p), repeat=len(basis)):
        maps = _combination(basis, coeffs, u, u)
        if all(m.is_zero for m in maps.values()) or maps == ident:
            continue
        if all(m * m == m for m in maps.values()):
            return False
    return True


def is_E_bristle_by_search(ctx, u):
    if u.dims != dim_add(ctx.xdim, ctx.ydim):
        return False
    return (injective_hom_with_quotient_by_search(ctx, u)
            and is_indecomposable_by_idempotents(u))


def _rebase(m, rng):
    g = {v: random_invertible(m.field, m.dims[v], rng) for v in m.quiver.vertices}
    return change_of_basis(m, g)


def _random_matrix(field, nrows, ncols, rng):
    return Matrix(field, [[rng.randrange(field.p) for _ in range(ncols)]
                          for _ in range(nrows)], ncols=ncols)


def _random_middle_terms(ctx, rng, count):
    """u = [[X_a, eps_a], [0, Q_a]] for random eps, with Q of dimension vector
    y cycling through Y, zero arrows (Hom(Y, Q) = k yet Q is not Y) and
    random arrows: X sits inside each u, with quotient Q."""
    x, y, field = ctx.x, ctx.y, ctx.x.field
    out = []
    for i in range(count):
        mats = {}
        for a in x.quiver.arrows:
            s, t = a.source, a.target
            qa = [y.matrices[a.id], Matrix.zeros(field, y.dims[t], y.dims[s]),
                  _random_matrix(field, y.dims[t], y.dims[s], rng)][i % 3]
            mats[a.id] = block2x2(x.matrices[a.id],
                                  _random_matrix(field, x.dims[t], y.dims[s], rng),
                                  Matrix.zeros(field, y.dims[t], x.dims[s]), qa)
        out.append(Representation(x.quiver, field, dim_add(x.dims, y.dims), mats))
    return out


def _glue(sub, quot, rng):
    """u = [[S_a, eps_a], [0, Q_a]] for random eps: S a submodule, Q = u/S."""
    field = sub.field
    mats = {a.id: block2x2(sub.matrices[a.id],
                           _random_matrix(field, sub.dims[a.target], quot.dims[a.source], rng),
                           Matrix.zeros(field, quot.dims[a.target], sub.dims[a.source]),
                           quot.matrices[a.id])
            for a in sub.quiver.arrows}
    return Representation(sub.quiver, field, dim_add(sub.dims, quot.dims), mats)


def _submodules(m, d):
    return [(pt, sub_representation(pt)[0])
            for pt in enumerate_submodules(m, d).points]


def test_is_E_bristle_matches_search():
    rng = random.Random(2017)
    cases = []   # (ctx, candidate)
    for field, bs in ((F3, (1, 2, 3)), (F5, (1, 2))):
        ctx = make_eta_context(remark_Xprime(1, 2, field), case2_Y(field))
        d = dim_add(ctx.xdim, ctx.ydim)
        for b in bs:
            m = _rebase(build_eta(ctx, remark_N(field, b)).m, rng)
            cases += [(ctx, u) for _, u in _submodules(m, d)]
    for field in (F2, F3, F5):
        ctx = case1_instance(field)
        m = _rebase(build_eta(ctx, regular_N(field)).m, rng)
        cases += [(ctx, u) for _, u in _submodules(m, dim_add(ctx.xdim, ctx.ydim))]
    ctx = case2_instance(F3)
    bristle = make_representation(make_kronecker(2), F3, {"1": 1, "2": 1},
                                  {"a1": [[1]], "a2": [[0]]})
    for u in (build_eta(ctx, bristle).m, direct_sum(ctx.x, ctx.y), ctx.x,
              rep_power(ctx.y, 3)):
        cases.append((ctx, _rebase(u, rng)))
    for ctx in (make_eta_context(remark_Xprime(1, 2, F3), case2_Y(F3)),
                case2_instance(F5)):
        cases += [(ctx, _rebase(u, rng)) for u in _random_middle_terms(ctx, rng, 30)]
    verdicts = []
    for ctx, u in cases:
        fast = is_E_bristle(ctx, u)
        assert fast == is_E_bristle_by_search(ctx, u), u.matrices
        verdicts.append(fast)
    assert len(cases) == 31 + 3 + 4 + 60
    assert 0 < sum(verdicts) < len(verdicts)


def test_is_E_bristle_needs_injective_and_surjective_spans():
    # bricks u whose one-dimensional Hom(X, u) is spanned by a map that is not
    # injective, and, with the roles of X' and Y swapped, whose Hom(u, Y) is
    # spanned by a map that is not surjective: u contains X'/V (resp. maps
    # onto V), V the (1,1) submodule of X'
    rng = random.Random(31)
    xprime, y = remark_Xprime(1, 2, F3), case2_Y(F3)

    def kron11(*arrows):
        return make_representation(y.quiver, F3, {"1": 1, "2": 1},
                                   {f"a{i + 1}": [[c]] for i, c in enumerate(arrows)})

    top, v = kron11(1, 1, 0), kron11(1, 2, 0)
    for ctx, sub, quot in ((make_eta_context(xprime, y), top, y),
                           (make_eta_context(y, xprime), y, v)):
        sharp = 0
        for _ in range(20):
            middle = kron11(*(rng.randrange(3) for _ in range(3)))
            u = _rebase(_glue(sub, _glue(middle, quot, rng), rng), rng)
            assert is_E_bristle(ctx, u) == is_E_bristle_by_search(ctx, u), u.matrices
            into, onto = hom_basis(ctx.x, u).basis, hom_basis(u, ctx.y).basis
            sharp += (len(into) == len(onto) == 1 and is_brick(u)
                      and not (into[0].is_injective() and onto[0].is_surjective()))
        assert sharp > 0


def test_brick_power_and_lemma_checks_match_is_isomorphic():
    rng = random.Random(1703)
    runs = []   # (x, a, check, [(w or None, dimension vector, s or None)])
    for field in (F2, F3, F5):
        x = _rebase(case1_instance(field).x, rng)
        runs += [(x, a, check_lemma1, [(None, x.dim_vector, 1)]) for a in (2, 3)]
    xprime = _rebase(remark_Xprime(1, 2, F3), rng)
    runs.append((xprime, 2, check_lemma1, [(None, xprime.dim_vector, 1)]))
    # a = 3 reaches proper submodules of x^3 isomorphic to x^2
    for x, copies in ((case2_X((1, 2), F3), (2, 3)), (case2_X((1, 2), F5), (2,)),
                      (remark_Xprime(1, 2, F3), (2, 3))):
        x = _rebase(x, rng)
        runs += [(x, a, check_lemma2,
                  [(w, {"1": w, "2": w}, None if w % 2 else w // 2)
                   for w in range(2 * a + 1)]) for a in copies]
    verdicts = []
    for x, a, check, dimvecs in runs:
        xa = rep_power(x, a)
        expected = []
        for w, d, s in dimvecs:
            for pt, sub in _submodules(xa, d):
                if s is not None:
                    fast = is_brick_power(sub, x, s)
                    assert fast == is_isomorphic(sub, rep_power(x, s)), sub.matrices
                    verdicts.append(fast)
                if s is None or not fast:
                    expected.append(pt if w is None else (w, pt))
        report = check(x, a)
        assert list(report.failures) == expected
        assert report.holds == (not expected)
    y = case2_Y(F3)
    z = make_representation(y.quiver, F3, y.dims, {})   # Hom(y, z) = k, z is not y
    for m, s in ((y, 1), (z, 1), (rep_power(y, 2), 2), (direct_sum(y, z), 2)):
        m = _rebase(m, rng)
        fast = is_brick_power(m, y, s)
        assert fast == is_isomorphic(m, rep_power(y, s)), m.matrices
        verdicts.append(fast)
    assert 0 < sum(verdicts) < len(verdicts)
