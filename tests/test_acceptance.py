"""Acceptance checks: one test per shipped criterion, timed where pinned.

Each test prints a single `criterion NN: PASS (...)` line on success; a failed
criterion shows up as the usual pytest failure for that test.
"""

import hashlib
import itertools
import random
import time

from quivergrass.construct import (
    build_eta,
    case1_instance,
    case2_X,
    case2_Y,
    case2_instance,
    check_bijection,
    check_condition_C,
    check_eta_fullness,
    check_lemma1,
    check_lemma2,
    coordinate_inclusion_N,
    make_eta_context,
    regular_N,
    remark_N,
    remark_Xprime,
    remark_counterexample_demo,
)
from quivergrass.exactlinalg import (
    FieldSpec,
    enumerate_subspaces,
    gaussian_binomial,
)
from quivergrass.grassmann import count_submodules
from quivergrass.homext import (
    are_orthogonal_bricks,
    euler_form,
    hom_ext_dims,
    is_brick,
)
from quivergrass.quiverrep import (
    Arrow,
    Quiver,
    change_of_basis,
    random_invertible,
    rep_power,
)
from quivergrass.reptype import classify, tits_definiteness

from oracles import (
    find_removable_extremal_vertex, is_representation_infinite, random_representation,
    sources)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)


def _pass(num, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: PASS{suffix}")


def _random_acyclic_quiver(rng, max_vertices=4, max_mult=3):
    n = rng.randint(2, max_vertices)
    verts = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(rng.randint(0, max_mult)):
                arrows.append(Arrow(f"a{i}_{j}_{k}", str(i), str(j)))
    if not arrows:
        arrows.append(Arrow("a1_2_0", "1", "2"))
    return Quiver(verts, tuple(arrows))


def test_criterion_01_euler_identity():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    for _ in range(200):
        q = _random_acyclic_quiver(rng)
        m = random_representation(q, F5, rng, max_dim=3)
        n = random_representation(q, F5, rng, max_dim=3)
        h, e = hom_ext_dims(m, n)
        assert h - e == euler_form(q, m.dims, n.dims)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(1, f"200 pairs, {elapsed:.2f}s")


def test_criterion_02_case2_pair():
    t0 = time.perf_counter()
    for field in (F3, F5, F7):
        x = case2_X((1, 2), field)
        y = case2_Y(field)
        assert is_brick(x)
        assert is_brick(y)
        assert hom_ext_dims(x, y)[0] == 0
        assert hom_ext_dims(y, x)[0] == 0
        assert hom_ext_dims(y, x)[1] == 2
        assert are_orthogonal_bricks(x, y)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"F_3, F_5, F_7, {elapsed:.2f}s")


def test_criterion_03_lemma2():
    t0 = time.perf_counter()
    x = case2_X((1, 2), F3)
    expected = {1: {0: 1, 1: 0, 2: 1},
                2: {0: 1, 1: 0, 2: 4, 3: 0, 4: 1}}
    for a in (1, 2):
        report = check_lemma2(x, a)
        assert report.holds
        assert report.counts == expected[a]
        assert all(report.counts[w] == 0 for w in report.counts if w % 2 == 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(3, f"a in {{1,2}}, {elapsed:.2f}s")


def test_criterion_04_lemma1():
    t0 = time.perf_counter()
    expected = {2: 3, 3: 4}   # p + 1 submodules, all isomorphic to X
    for field, p in ((F2, 2), (F3, 3)):
        ctx = case1_instance(field)
        report = check_lemma1(ctx.x, 2)
        assert report.holds
        assert report.count == expected[p]
        assert report.failures == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(4, f"F_2 and F_3, {elapsed:.2f}s")


def test_criterion_05_condition_c_case2():
    t0 = time.perf_counter()
    ctx = case2_instance(F3)
    n_rep = coordinate_inclusion_N(F3, 2)
    witness = build_eta(ctx, n_rep)
    assert witness.m.dims == {"1": 5, "2": 5}
    report = check_condition_C(ctx, witness)
    assert report.holds
    assert report.violations == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(5, f"checked {report.checked} submodules, {elapsed:.2f}s")


def test_criterion_06_condition_c_case1():
    t0 = time.perf_counter()
    ctx = case1_instance(F3)
    witness = build_eta(ctx, regular_N(F3))
    report = check_condition_C(ctx, witness)
    assert report.holds
    assert report.violations == ()
    assert report.checked == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(6, f"checked {report.checked} submodules, {elapsed:.2f}s")


def test_criterion_07_bijection():
    results = []
    for field in (F3, F5):
        ctx2 = case2_instance(field)
        rep2 = check_bijection(ctx2, coordinate_inclusion_N(field, 2))
        assert rep2.equal and rep2.lhs == 0
        ctx1 = case1_instance(field)
        rep1 = check_bijection(ctx1, regular_N(field))
        assert rep1.equal and rep1.lhs == 1
        results.append((field.p, rep2.lhs, rep1.lhs))
    _pass(7, f"case 2 and case 1 instances over p in {{3,5}}: {results}")


def test_criterion_08_remark_counterexample():
    expected = {(3, 1): (0, 4), (3, 2): (1, 5), (3, 3): (4, 9),
                (5, 1): (0, 6), (5, 2): (1, 7), (5, 3): (6, 13)}
    for field in (F3, F5):
        xprime = remark_Xprime(1, 2, field)
        y = case2_Y(field)
        ctx = make_eta_context(xprime, y)
        for b in (1, 2, 3):
            report = remark_counterexample_demo(field, b=b)
            assert not report.condition_c.holds
            assert report.witness_is_violation
            assert report.counterexample_found
            n_rep = remark_N(field, b)
            witness = build_eta(ctx, n_rep)
            lhs = count_submodules(n_rep, {"1": 1, "2": 1})
            rhs = count_submodules(witness.m, {"1": 3, "2": 3})
            assert lhs < rhs
            assert (lhs, rhs) == expected[(field.p, b)]
    _pass(8, "6 instances, strict count gap in every one")


def test_criterion_09_eta_fullness():
    ctx = case2_instance(F5)
    rng = random.Random(99)
    from quivergrass.quiverrep import make_kronecker
    k2 = make_kronecker(2)
    for _ in range(50):
        n1 = random_representation(k2, F5, rng, max_dim=2)
        n2 = random_representation(k2, F5, rng, max_dim=2)
        report = check_eta_fullness(ctx, n1, n2)
        assert report.equal, (n1.dims, n2.dims, report.lhs, report.rhs)
    _pass(9, "50 seeded pairs")


def _connected_multigraphs(n, max_mult):
    """Yield one representative per isomorphism class of connected loopless
    multigraphs on n vertices with edge multiplicities up to max_mult,
    canonicalized as the lexicographically minimal multiplicity vector."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    # one index map per non-identity vertex permutation: position t of the
    # permuted vector holds the multiplicity at position sources[t]
    maps = []
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        sources = [0] * len(pairs)
        for k, (i, j) in enumerate(pairs):
            sources[pair_index[tuple(sorted((perm[i], perm[j])))]] = k
        maps.append(sources)
    for vec in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        minimal = True
        for sources in maps:
            # lexicographic comparison of the permuted vector with vec
            for t, k in enumerate(sources):
                if vec[k] != vec[t]:
                    minimal = vec[k] > vec[t]
                    break
            if not minimal:
                break
        if not minimal:
            continue
        adj = {v: set() for v in range(n)}
        for (i, j), mult in zip(pairs, vec):
            if mult:
                adj[i].add(j)
                adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            continue
        yield pairs, vec


def test_criterion_10_classification_cross_check():
    t0 = time.perf_counter()
    expected_kind = {"positive_definite": "finite",
                     "positive_semidefinite": "tame",
                     "indefinite": "wild"}
    total = 0
    digest = hashlib.sha256()
    for n in range(1, 6):
        for pairs, vec in _connected_multigraphs(n, 3):
            digest.update(repr((n, vec)).encode())
            verts = tuple(str(v) for v in range(n))
            arrows = []
            for (i, j), mult in zip(pairs, vec):
                for k in range(mult):
                    arrows.append(Arrow(f"a{i}_{j}_{k}", str(i), str(j)))
            q = Quiver(verts, tuple(arrows))
            assert classify(q).kind == expected_kind[tits_definiteness(q)]
            total += 1
    elapsed = time.perf_counter() - t0
    assert total == 10634
    # the (n, vec) sequence itself: the same classes, in the same order
    assert digest.hexdigest() == \
        "a9e56f781d790fd561bcb7239ddb25003ea4b0ab516abbae4c10de3ebb6eda93"
    assert elapsed < 60.0
    _pass(10, f"{total} quivers, {elapsed:.2f}s")


WILD_FIXTURES = [
    # (vertices, arrows) with a triple- or double-arrow core plus pendants
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("1", "2"), ("2", "3"))),
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("1", "2"), ("3", "1"))),
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("1", "2"), ("1", "3"))),
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("1", "2"), ("3", "2"))),
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("2", "3"), ("2", "3"))),
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("1", "2"),
                       ("2", "3"), ("2", "3"))),
    (("1", "2", "3"), (("1", "2"), ("1", "2"), ("1", "2"),
                       ("1", "3"), ("1", "3"))),
    (("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("1", "2"),
                            ("2", "3"), ("3", "4"))),
    (("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("1", "2"),
                            ("2", "3"), ("2", "4"))),
    (("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("1", "2"),
                            ("3", "1"), ("2", "4"))),
    (("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("1", "2"),
                            ("3", "1"), ("4", "1"))),
    (("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("1", "2"),
                            ("1", "3"), ("1", "4"))),
    (("1", "2", "3", "4"), (("2", "3"), ("2", "3"), ("2", "3"),
                            ("1", "2"), ("3", "4"))),
    (("1", "2", "3", "4"), (("1", "2"), ("1", "2"), ("2", "3"),
                            ("2", "3"), ("3", "4"))),
    (("1", "2", "3", "4", "5"), (("1", "2"), ("1", "2"), ("1", "2"),
                                 ("2", "3"), ("3", "4"), ("4", "5"))),
    (("1", "2", "3", "4", "5"), (("1", "2"), ("1", "2"), ("1", "2"),
                                 ("2", "3"), ("2", "4"), ("2", "5"))),
    (("1", "2", "3", "4", "5"), (("1", "2"), ("1", "2"), ("1", "2"),
                                 ("3", "1"), ("2", "4"), ("4", "5"))),
    (("1", "2", "3", "4", "5"), (("1", "2"), ("1", "2"), ("1", "2"),
                                 ("3", "1"), ("4", "1"), ("5", "2"))),
    (("1", "2", "3", "4", "5"), (("1", "2"), ("1", "2"), ("2", "3"),
                                 ("2", "3"), ("3", "4"), ("4", "5"))),
    (("1", "2", "3", "4", "5"), (("3", "4"), ("3", "4"), ("3", "4"),
                                 ("1", "2"), ("2", "3"), ("4", "5"))),
]


def test_criterion_11_removable_extremal_vertex():
    assert len(WILD_FIXTURES) == 20
    for verts, edges in WILD_FIXTURES:
        arrows = tuple(Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(edges))
        q = Quiver(verts, arrows)
        assert 3 <= len(q.vertices) <= 5
        assert classify(q).kind == "wild"
        omega, rest = find_removable_extremal_vertex(q)
        assert omega in set(sources(q)) | set(q.sinks())
        assert set(rest.vertices) == set(q.vertices) - {omega}
        assert rest.is_connected()
        assert is_representation_infinite(rest)
    _pass(11, "20 wild fixtures, 3-5 vertices each")


def test_criterion_12_enumeration_soundness():
    for p in (2, 3, 5):
        field = FieldSpec.prime(p)
        for n in range(0, 6):
            for k in range(0, n + 1):
                count = sum(1 for _ in enumerate_subspaces(n, k, field))
                assert count == gaussian_binomial(n, k, p)
    # base-change invariance of quiver Grassmannian counts
    rng = random.Random(7)
    instances = []
    ctx = case1_instance(F3)
    instances.append((rep_power(ctx.x, 2), ctx.x.dim_vector, 4))
    xprime = remark_Xprime(1, 2, F3)
    w = build_eta(make_eta_context(xprime, case2_Y(F3)), remark_N(F3, 1))
    instances.append((w.m, {"1": 3, "2": 3}, 4))
    for m, d, expected in instances:
        assert count_submodules(m, d) == expected
        for _ in range(20):
            g = {v: random_invertible(m.field, m.dims[v], rng)
                 for v in m.quiver.vertices}
            assert count_submodules(change_of_basis(m, g), d) == expected
    _pass(12, "Gaussian binomial counts and 20 base changes per instance")
