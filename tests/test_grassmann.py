import itertools
import random

import pytest

from quivergrass.construct import (
    build_eta,
    case2_X,
    case2_Y,
    case2_instance,
    coordinate_inclusion_N,
    make_eta_context,
    remark_N,
    remark_Xprime,
)
from quivergrass.exactlinalg import (
    FieldSpec,
    Matrix,
    enumerate_subspaces,
    gaussian_binomial,
    inverse,
    row_space,
    vstack,
)
from quivergrass.grassmann import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _Budget,
    _choose_engine,
    _eigenline_walk,
    _invariant,
    _invariant_setup,
    _line_closure,
    _line_closures,
    _projective_lines,
    _scan,
    _split_characters,
    bristle_points,
    count_submodules,
    enumerate_submodules,
)
from quivergrass.quiverrep import (
    Arrow,
    NotASubmodule,
    Quiver,
    SubmodulePoint,
    change_of_basis,
    direct_sum,
    make_kronecker,
    make_representation,
    projective,
    quotient_representation,
    random_invertible,
    random_representation,
    simple,
    sub_representation,
    zero_representation,
)

from oracles import solve_sub_representation

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)

A2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))


def flat_points(m, d):
    """Oracle: filter the full product of vertex subspaces by stability."""
    verts = list(m.quiver.vertices)
    per_vertex = [list(enumerate_subspaces(m.dims[v], d[v], m.field))
                  for v in verts]
    found = []
    for combo in itertools.product(*per_vertex):
        pt = SubmodulePoint(m, dict(zip(verts, combo)))
        if pt.is_stable():
            found.append(pt)
    found.sort(key=lambda pt: pt.canonical_key())
    return found


def assert_matches_oracle(m, d):
    report = enumerate_submodules(m, d)
    oracle = flat_points(m, d)
    assert report.count == len(oracle)
    assert [p.canonical_key() for p in report.points] == \
        [p.canonical_key() for p in oracle]
    for pt in report.points:
        sub, incl = sub_representation(pt)  # raises if not really a submodule
        assert sub.dims == d


def test_known_small_counts():
    k2 = make_kronecker(2)
    p = projective(k2, "1", F3)           # dims (1,2)
    # (1,1): the image of V1 is all of V2, no 1-dim subspace works
    assert count_submodules(p, {"1": 1, "2": 1}) == 0
    assert count_submodules(p, {"1": 0, "2": 1}) == 4
    assert count_submodules(p, {"1": 1, "2": 2}) == 1
    assert count_submodules(p, {"1": 0, "2": 0}) == 1
    split = direct_sum(simple(k2, "1", F3), simple(k2, "2", F3))
    assert count_submodules(split, {"1": 1, "2": 1}) == 1


def test_matches_flat_oracle_random():
    rng = random.Random(17)
    quivers = [A2, make_kronecker(2)]
    for q in quivers:
        for _ in range(6):
            m = random_representation(q, F3, rng, max_dim=3)
            d = {v: rng.randint(0, m.dims[v]) for v in q.vertices}
            assert_matches_oracle(m, d)


def test_total_count_over_strata():
    # summing over all d with fixed total weight reproduces a plain filter
    k2 = make_kronecker(2)
    rng = random.Random(23)
    m = random_representation(k2, F2, rng, max_dim=3)
    for total in range(sum(m.dims.values()) + 1):
        by_strata = 0
        for d1 in range(m.dims["1"] + 1):
            d2 = total - d1
            if 0 <= d2 <= m.dims["2"]:
                by_strata += count_submodules(m, {"1": d1, "2": d2})
        flat = 0
        for d1 in range(m.dims["1"] + 1):
            d2 = total - d1
            if 0 <= d2 <= m.dims["2"]:
                flat += len(flat_points(m, {"1": d1, "2": d2}))
        assert by_strata == flat


def test_input_validation():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    with pytest.raises(ValueError):
        enumerate_submodules(m, {"1": 2, "2": 2})   # d exceeds dims
    with pytest.raises(ValueError):
        enumerate_submodules(m, {"1": 1})           # missing vertex
    rational = make_representation(k2, FieldSpec.rational(), {"1": 1, "2": 1},
                                   {"a1": [[1]], "a2": [[0]]})
    with pytest.raises(ValueError):
        enumerate_submodules(rational, {"1": 1, "2": 1})


def test_budget_enforced():
    k2 = make_kronecker(2)
    m = make_representation(k2, F5, {"1": 4, "2": 4},
                            {"a1": [[0] * 4] * 4, "a2": [[0] * 4] * 4})
    with pytest.raises(BudgetExceeded):
        enumerate_submodules(m, {"1": 2, "2": 2}, budget=10)


def test_budget_is_the_scan_candidate_count():
    # a single vertex: the scan examines all [4 choose 2]_3 = 130 subspaces
    # and charges exactly that, with no other cap in between
    one = Quiver(("1",), ())
    m = make_representation(one, F3, {"1": 4}, {})
    d = {"1": 2}
    assert gaussian_binomial(4, 2, 3) == 130
    assert count_submodules(m, d, budget=130) == 130
    with pytest.raises(BudgetExceeded):
        count_submodules(m, d, budget=129)


def test_base_change_invariance():
    rng = random.Random(31)
    k2 = make_kronecker(2)
    m = make_representation(k2, F3, {"1": 2, "2": 3},
                            {"a1": [[1, 0], [0, 1], [0, 0]],
                             "a2": [[0, 0], [1, 0], [0, 1]]})
    d = {"1": 1, "2": 1}
    baseline = count_submodules(m, d)
    for _ in range(5):
        g = {v: random_invertible(F3, m.dims[v], rng) for v in k2.vertices}
        assert count_submodules(change_of_basis(m, g), d) == baseline


def test_direct_sum_with_zero_changes_nothing():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    z = zero_representation(k2, F3)
    for d in ({"1": 0, "2": 1}, {"1": 1, "2": 2}):
        a = enumerate_submodules(m, d)
        b = enumerate_submodules(direct_sum(m, z), d)
        assert a.count == b.count
        assert [p.canonical_key() for p in a.points] == \
            [p.canonical_key() for p in b.points]


def _invariant_engine_modules(rng):
    """Kronecker modules with equal dims and one invertible arrow, rebased.

    A hand-made K(2) module over F_3, then per prime random K(2) and K(3)
    modules with an identity arrow in a random position, and scalar-arrow
    modules a_i = c_i * I, whose invariant subspaces are all subspaces.
    """
    k2 = make_kronecker(2)
    yield make_representation(k2, F3, {"1": 2, "2": 2},
                              {"a1": [[1, 0], [0, 1]], "a2": [[0, 1], [0, 0]]})
    for field, n in ((F2, 4), (F3, 3), (F5, 3)):
        for q in (k2, make_kronecker(3)):
            ids = [a.id for a in q.arrows]
            unit = rng.choice(ids)
            mats = {aid: [[rng.randrange(field.p) for _ in range(n)]
                          for _ in range(n)] for aid in ids}
            mats[unit] = [[int(i == j) for j in range(n)] for i in range(n)]
            scalars = {aid: rng.randrange(field.p) for aid in ids}
            scalars[unit] = rng.randrange(1, field.p)
            scalar = {aid: [[c * int(i == j) for j in range(n)] for i in range(n)]
                      for aid, c in scalars.items()}
            for arrows in (mats, scalar):
                m = make_representation(q, field, {"1": n, "2": n}, arrows)
                g = {v: random_invertible(field, n, rng) for v in q.vertices}
                yield change_of_basis(m, g)


def auto_engine(m, d):
    return _choose_engine(m, d, _invariant_setup(m, d), _Budget(DEFAULT_BUDGET))


def engine_pairs(m, d, engine, walk_sinks=True):
    """The (weight, point) pairs of one engine, run whatever it costs.

    None for the eigenline walk when the source space is not split.
    """
    budget = _Budget(DEFAULT_BUDGET)
    if engine == "scan":
        return list(_scan(m, d, budget, walk_sinks))
    setup = _invariant_setup(m, d)
    if engine == "eigenline":
        chars = _split_characters(m, setup, budget)
        if chars is None:
            return None
        return list(_eigenline_walk(m, d, setup, chars, budget))
    closures = _line_closures(m, d, setup, budget)
    return list(_invariant(m, d, setup, closures, budget))


def assert_engines_match(m, d, keys):
    """Every engine that applies gives the oracle's points, weights and count.

    Returns whether the eigenline walk applied.
    """
    split = True
    for engine in ("scan", "invariant", "eigenline"):
        pairs = engine_pairs(m, d, engine)
        if pairs is None:
            split = False
            continue
        assert sorted(SubmodulePoint._trusted(m, s).canonical_key()
                      for _, s in pairs) == keys, (m, d, engine)
        assert {w for w, _ in pairs} <= {1}
        counted = engine_pairs(m, d, engine, walk_sinks=False)
        assert sum(w for w, _ in counted) == len(keys), (m, d, engine)
    return split


def test_strategies_agree():
    # seeded differential test of the three engines, automatic choice and
    # the flat oracle, on points and on counts, for every d = (k, k)
    rng = random.Random(59)
    walked = 0
    for m in _invariant_engine_modules(rng):
        n = m.dims["1"]
        for k in range(n + 1):
            d = {"1": k, "2": k}
            if k in (0, 1, n):
                # no fewer lines than scan candidates: no probe runs
                assert auto_engine(m, d) == ("scan", None), (m, d)
            keys = [p.canonical_key() for p in flat_points(m, d)]
            walked += assert_engines_match(m, d, keys)
            report = enumerate_submodules(m, d)
            assert [p.canonical_key() for p in report.points] == keys, (m, d)
            assert report.count == len(keys)
            assert count_submodules(m, d) == len(keys)
    assert walked > 0


def _flag_modules(rng):
    """Seeded K(2)/K(3) modules with equal dims and an invertible arrow.

    Per prime: split ones (every arrow upper triangular, one the identity,
    diagonals drawn from two values so that eigenspaces repeat) and ones that
    are not split (random arrows next to an identity, case2_X((1,2)), its
    square, and its sum with a split module).  The flat oracle's cost grows
    like p^(2k(n-k)), so F_5 and F_7 get one quiver each.
    """
    k2, k3 = make_kronecker(2), make_kronecker(3)
    for field, n, quivers in ((F2, 4, (k2, k3)), (F3, 3, (k2, k3)),
                              (F5, 3, (k2,)), (F7, 3, (k3,))):
        p = field.p
        for q in quivers:
            ids = [a.id for a in q.arrows]
            unit = rng.choice(ids)
            for kind in ("triangular", "random"):
                mats = {}
                for aid in ids:
                    diag = [rng.randrange(p) for _ in range(2)]
                    mats[aid] = [[int(i == j) if aid == unit else
                                  rng.choice(diag) if i == j else
                                  rng.randrange(p) if kind == "random" or j > i else 0
                                  for j in range(n)] for i in range(n)]
                yield kind == "triangular", make_representation(
                    q, field, {"1": n, "2": n}, mats)
        if p > 2:
            x = case2_X((1, 2), field)
            line = make_representation(k3, field, {"1": 1, "2": 1},
                                       {"a1": [[1]], "a2": [[1]], "a3": [[0]]})
            yield False, x
            if p < 7:
                yield False, direct_sum(x, line)
            if p == 3:
                yield False, direct_sum(x, x)


def _rebased(m, rng):
    g = {v: random_invertible(m.field, m.dims[v], rng) for v in m.quiver.vertices}
    return change_of_basis(m, g)


def _has_full_flag(m, sources):
    """Oracle: is there a chain 0 < S_1 < ... < S_n of the given subspaces?

    sources[k] holds the k-dimensional source subspaces of the points.
    """
    reached = sources[0]
    for k in range(1, len(sources)):
        reached = [u for u in sources[k]
                   if any(row_space(vstack([w, u])).nrows == k if w.nrows else True
                          for w in reached)]
    return bool(reached)


def test_eigenline_walk_matches_oracles():
    # seeded differential test over F_2, F_3, F_5 and F_7: on every module
    # and every k the eigenline walk, the sweep and merge walk and the scan
    # give the flat oracle's points, and the certificate says split exactly
    # when the flat points hold a full invariant flag
    rng = random.Random(83)
    seen = set()
    for triangular, m in _flag_modules(rng):
        m = _rebased(m, rng)
        n = m.dims["1"]
        sources = []
        split = None
        for k in range(n + 1):
            d = {"1": k, "2": k}
            oracle = flat_points(m, d)
            sources.append([pt.subspaces["1"] for pt in oracle])
            walked = assert_engines_match(m, d, [pt.canonical_key() for pt in oracle])
            assert split in (None, walked)
            split = walked
        assert split == _has_full_flag(m, sources), m
        if triangular:
            assert split, m
        seen.add((triangular, split))
    assert seen == {(True, True), (False, True), (False, False)}


def test_sub_representation_matches_solve_oracle():
    # every point of the vertex-subspace products that test_strategies_agree
    # filters: a stable one restricts its arrows as the per-column solve does,
    # an unstable one is refused by is_stable and both constructions
    rng = random.Random(59)
    for m in _invariant_engine_modules(rng):
        verts = list(m.quiver.vertices)
        for k in range(m.dims["1"] + 1):
            per_vertex = [list(enumerate_subspaces(m.dims[v], k, m.field)) for v in verts]
            for combo in itertools.product(*per_vertex):
                pt = SubmodulePoint(m, dict(zip(verts, combo)))
                try:
                    want_sub, want_incl = solve_sub_representation(pt)
                except NotASubmodule:
                    assert not pt.is_stable()
                    for construct in (sub_representation, quotient_representation):
                        with pytest.raises(NotASubmodule):
                            construct(pt)
                    continue
                assert pt.is_stable()
                sub, incl = sub_representation(pt)
                assert sub == want_sub and incl.maps == want_incl.maps


def closure_oracle(rows, ops, cap):
    """Smallest op-invariant subspace containing rows, or None once dim > cap.

    Rebuilds the row space of the current basis and its op-images each
    round until it stops growing.
    """
    current = row_space(rows)
    while True:
        if current.nrows > cap:
            return None
        pieces = [current] + [current * op.transpose() for op in ops]
        grown = row_space(vstack(pieces))
        if grown.nrows == current.nrows:
            return current
        current = grown


def _random_operators(field, n, rng):
    """One or two random operators, possibly sharing an invariant flag.

    Generic operators have few invariant subspaces, so a third of the sets
    are upper triangular in a common random basis and a third are scalars.
    """
    p = field.p
    g = random_invertible(field, n, rng)
    g_inv = inverse(g)
    kind = rng.choice(("random", "triangular", "scalar"))
    ops = []
    for _ in range(rng.randint(1, 2)):
        if kind == "random":
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        elif kind == "triangular":
            rows = [[rng.randrange(p) if j >= i else 0 for j in range(n)]
                    for i in range(n)]
        else:
            c = rng.randrange(p)
            rows = [[c * int(i == j) for j in range(n)] for i in range(n)]
        ops.append(g_inv * Matrix(field, rows, ncols=n) * g)
    return ops


def test_line_closure_matches_oracle():
    # seeded differential test of the incremental echelon closure against
    # the row-space rebuild, for every line of F_p^n and every cap
    rng = random.Random(71)
    for field in (F2, F3, F5, F7):
        for n in range(1, 5):
            for _ in range(3):
                ops = _random_operators(field, n, rng)
                op_rows = [op.entries for op in ops]
                for vec in _projective_lines(field, n):
                    line = Matrix(field, (vec,), ncols=n)
                    for cap in range(n + 1):
                        want = closure_oracle(line, ops, cap)
                        got = _line_closure(vec, op_rows, cap, field.p)
                        if want is None:
                            assert got is None, (ops, vec, cap)
                        else:
                            assert got is not None, (ops, vec, cap)
                            assert row_space(Matrix(field, got, ncols=n)) == want


def _remark_witness(p, b):
    field = FieldSpec.prime(p)
    ctx = make_eta_context(remark_Xprime(1, 2, field), case2_Y(field))
    return build_eta(ctx, remark_N(field, b)).m


def test_automatic_engine_choice_on_baseline_instances():
    # the remark witnesses are split with three characters, and the eigenline
    # walk runs; their 12-26 distinct line closures are what the sweep would
    # merge.  The bijection's case-2 module is not split, so the sweep and
    # merge walk run.  On the degenerate K(2) module every subspace is
    # invariant: split with one character, but the walk's bound passes G.
    d = {"1": 3, "2": 3}
    closures = {(3, 1): 12, (3, 2): 13, (3, 3): 18,
                (5, 1): 18, (5, 2): 19, (5, 3): 26}
    for (p, b), c in closures.items():
        m = _remark_witness(p, b)
        engine, chars = auto_engine(m, d)
        assert engine == "eigenline", (p, b)
        assert sorted(chars) == [(0, 0), (1, 0), (2, 0)], (p, b)
        setup = _invariant_setup(m, d)
        assert len(_line_closures(m, d, setup, _Budget(DEFAULT_BUDGET))) == c, (p, b)
    case2 = build_eta(case2_instance(F3), coordinate_inclusion_N(F3, 2)).m
    assert case2.dims == {"1": 5, "2": 5}
    assert _split_characters(case2, _invariant_setup(case2, d), _Budget(DEFAULT_BUDGET)) is None
    engine, found = auto_engine(case2, d)
    assert (engine, len(found)) == ("invariant", 4)
    ident = Matrix.identity(F3, 5)
    degenerate = make_representation(make_kronecker(2), F3, {"1": 5, "2": 5},
                                     {"a1": ident.entries, "a2": ident.entries})
    assert auto_engine(degenerate, d) == ("scan", None)
    setup = _invariant_setup(degenerate, d)
    assert _split_characters(degenerate, setup, _Budget(DEFAULT_BUDGET)) == [(1,)]
    assert len(_line_closures(degenerate, d, setup, _Budget(DEFAULT_BUDGET))) == 121


def test_invariant_strategy_rejected_when_inapplicable():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)   # dims differ, engine cannot apply
    assert _invariant_setup(m, {"1": 1, "2": 1}) is None


def test_count_only_consistency():
    # counts weigh the sinks instead of walking them; here a sink also sits
    # between two walked vertices in topological order
    rng = random.Random(47)
    tree = Quiver(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "1", "3"),
                                         Arrow("c", "3", "4")))
    for q in (make_kronecker(2), tree):
        for _ in range(8):
            m = random_representation(q, F3, rng, max_dim=3)
            d = {v: rng.randint(0, m.dims[v]) for v in q.vertices}
            assert count_submodules(m, d) == enumerate_submodules(m, d).count


def test_grassmannian_of_plain_vector_space():
    # a representation with zero maps on one vertex degenerates to a
    # classical Grassmannian; counts must match the Gaussian binomial
    k2 = make_kronecker(2)
    for n, k in ((3, 1), (4, 2)):
        m = make_representation(k2, F3, {"1": 0, "2": n}, {})
        d = {"1": 0, "2": k}
        assert count_submodules(m, d) == gaussian_binomial(n, k, 3)


def test_bristle_points_examples():
    k2 = make_kronecker(2)
    b = make_representation(k2, F3, {"1": 1, "2": 1}, {"a1": [[1]], "a2": [[0]]})
    assert bristle_points(b).count == 1
    split = direct_sum(simple(k2, "1", F3), simple(k2, "2", F3))
    assert bristle_points(split).count == 0
    # on a reduced module every (1,1) point has nonzero arrow action
    p = projective(k2, "1", F3)
    m = direct_sum(p, b)
    all_11 = enumerate_submodules(m, {"1": 1, "2": 1})
    assert bristle_points(m).count == all_11.count
    # adding a source simple creates points the bristle filter drops
    unreduced = direct_sum(b, simple(k2, "1", F3))
    assert bristle_points(unreduced).count < \
        enumerate_submodules(unreduced, {"1": 1, "2": 1}).count
    with pytest.raises(ValueError):
        bristle_points(simple(A2, "1", F3))


def test_report_json_shape():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    report = enumerate_submodules(m, {"1": 0, "2": 1})
    data = report.to_json()
    assert data["count"] == 4
    assert len(data["points"]) == 4
    only_count = report.to_json(count_only=True)
    assert "points" not in only_count
    assert only_count["count"] == 4
