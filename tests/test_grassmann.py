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
    row_space,
    vstack,
)
from quivergrass.grassmann import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _Budget,
    _cheapest_walk,
    _choose_engine,
    _eigenline_walk,
    _eigenspace_sums,
    _invariant_setup,
    _scan,
    _split_characters,
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
    projective,
    random_invertible,
    simple,
    sub_representation,
    zero_representation,
)

from oracles import (
    filter_walk, is_stable, make_representation, quotient_representation,
    random_representation, solve_sub_representation)

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
        if is_stable(pt):
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


ENGINES = ("scan", "eigenline", "filter", "eigenspace")


def engine_pairs(m, d, engine, walk_sinks=True):
    """The (weight, point) pairs of one engine, run whatever it costs.

    "filter" is the oracle that walks every subspace the walk's operator
    set fixes and then filters.  None for it and for the eigenline walk when
    no operator set is split, and for the eigenspace decomposition when the
    full set is not semisimple.
    """
    budget = _Budget(DEFAULT_BUDGET)
    if engine == "scan":
        return list(_scan(m, d, budget, walk_sinks))
    setup = _invariant_setup(m, d)
    walk = _cheapest_walk(m, d, setup, budget)
    if walk is None or engine == "eigenspace" and not walk.semisimple:
        return None
    run = {"eigenline": _eigenline_walk, "filter": filter_walk,
           "eigenspace": _eigenspace_sums}[engine]
    return list(run(m, d, setup, walk, budget, walk_sinks))


def assert_engines_match(m, d, keys):
    """Every engine that applies gives the oracle's points, weights and count.

    Returns the set of engines that applied.
    """
    applied = set()
    for engine in ENGINES:
        pairs = engine_pairs(m, d, engine)
        if pairs is None:
            continue
        applied.add(engine)
        assert sorted(SubmodulePoint._trusted(m, s).canonical_key()
                      for _, s in pairs) == keys, (m, d, engine)
        assert {w for w, _ in pairs} <= {1}
        counted = engine_pairs(m, d, engine, walk_sinks=False)
        assert sum(w for w, _ in counted) == len(keys), (m, d, engine)
    return applied


def test_strategies_agree():
    # seeded differential test of the two engines, automatic choice and
    # the flat oracle, on points and on counts, for every d = (k, k)
    rng = random.Random(59)
    walked = 0
    for m in _invariant_engine_modules(rng):
        n = m.dims["1"]
        for k in range(n + 1):
            d = {"1": k, "2": k}
            if k in (0, 1, n):
                # no fewer lines than scan candidates: no probe runs
                assert auto_engine(m, d) is None, (m, d)
            keys = [p.canonical_key() for p in flat_points(m, d)]
            walked += "eigenline" in assert_engines_match(m, d, keys)
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
    # and every k the eigenline walk, the filter walk and the scan give the
    # flat oracle's points, and the certificate of the full operator set says
    # split exactly when the flat points hold a full invariant flag.  Each of
    # the three outcomes occurs: the full set is split; only single operators
    # are, so the walk spins its lines under the other operators, on V and
    # on V*; nothing is split, so only the scan applies.
    rng = random.Random(83)
    seen = set()
    spun = set()
    for triangular, m in _flag_modules(rng):
        m = _rebased(m, rng)
        n = m.dims["1"]
        ops = _invariant_setup(m, {"1": 0, "2": 0})[3]
        split = _split_characters(m.field, ops, n, _Budget(DEFAULT_BUDGET)) is not None
        sources = []
        outcomes = set()
        for k in range(n + 1):
            d = {"1": k, "2": k}
            oracle = flat_points(m, d)
            sources.append([pt.subspaces["1"] for pt in oracle])
            walked = "eigenline" in assert_engines_match(
                m, d, [pt.canonical_key() for pt in oracle])
            walk = _cheapest_walk(m, d, _invariant_setup(m, d), _Budget(DEFAULT_BUDGET))
            assert walked == (walk is not None)
            outcomes.add("scan" if walk is None else "subset" if walk.rest else "full")
            if walk is not None and walk.rest and 0 < k < n:
                spun.add(walk.dual)
        assert split == _has_full_flag(m, sources), m
        assert len(outcomes) == 1 and (outcomes == {"full"}) == split, m
        if triangular:
            assert split, m
        seen |= outcomes
    assert seen == {"full", "subset", "scan"}
    assert spun == {False, True}


def _semisimple_modules(rng):
    """Seeded semisimple K(2)/K(3) modules with equal dims and an identity arrow.

    The other arrows are diagonal.  Each coordinate carries one of 2 or 3
    distinct joint characters (at most p^(arrows - 1) of them), every
    character at least one, so characters repeat across coordinates and
    eigenvalues across characters.  The flat oracle's cost grows like
    p^(2k(n-k)), so F_3 gets one quiver and F_5 and F_7 get n = 3.
    """
    k2, k3 = make_kronecker(2), make_kronecker(3)
    for field, n, quivers in ((F2, 4, (k2, k3)), (F3, 4, (k2,)),
                              (F5, 3, (k2, k3)), (F7, 3, (k2, k3))):
        for q in quivers:
            ids = [a.id for a in q.arrows]
            unit = rng.choice(ids)
            others = [aid for aid in ids if aid != unit]
            for want in (2, 3):
                chars = []
                while len(chars) < min(want, field.p ** len(others)):
                    chi = tuple(rng.randrange(field.p) for _ in others)
                    if chi not in chars:
                        chars.append(chi)
                coords = chars + [rng.choice(chars) for _ in range(n - len(chars))]
                rng.shuffle(coords)
                mats = {unit: [[int(i == j) for j in range(n)] for i in range(n)]}
                for idx, aid in enumerate(others):
                    mats[aid] = [[coords[i][idx] if i == j else 0 for j in range(n)]
                                 for i in range(n)]
                yield make_representation(q, field, {"1": n, "2": n}, mats)


def test_eigenspace_decomposition_matches_oracles():
    # seeded differential test over F_2, F_3, F_5 and F_7: on rebased
    # semisimple modules and every k, including 2k > n, the eigenspace
    # decomposition, the scan and the eigenline walk give the flat oracle's
    # points and count, and the automatic choice takes the decomposition
    # wherever the probe runs
    rng = random.Random(97)
    probed = 0
    for m in _semisimple_modules(rng):
        m = _rebased(m, rng)
        n, p = m.dims["1"], m.field.p
        for k in range(n + 1):
            d = {"1": k, "2": k}
            keys = [pt.canonical_key() for pt in flat_points(m, d)]
            assert assert_engines_match(m, d, keys) == set(ENGINES), (m, d)
            if gaussian_binomial(n, 1, p) < gaussian_binomial(n, k, p):
                assert auto_engine(m, d).semisimple, (m, d)
                probed += 1
            report = enumerate_submodules(m, d)
            assert [pt.canonical_key() for pt in report.points] == keys, (m, d)
            assert count_submodules(m, d) == report.count == len(keys)
    assert probed > 0


def test_eigenspace_decomposition_needs_semisimple_operators():
    # split modules with a Jordan block and modules that are not split
    # never take the eigenspace decomposition
    rng = random.Random(101)
    k2, k3 = make_kronecker(2), make_kronecker(3)
    modules = []
    for field in (F2, F3, F5):
        lam, mu = rng.randrange(field.p), rng.randrange(field.p)
        jordan = [[lam, 1, 0, 0], [0, lam, 0, 0], [0, 0, mu, 0], [0, 0, 0, mu]]
        ident = [[int(i == j) for j in range(4)] for i in range(4)]
        diag = [[rng.randrange(field.p) if i == j else 0 for j in range(4)]
                for i in range(4)]
        modules.append(make_representation(k2, field, {"1": 4, "2": 4},
                                           {"a1": ident, "a2": jordan}))
        modules.append(make_representation(k3, field, {"1": 4, "2": 4},
                                           {"a1": diag, "a2": jordan, "a3": ident}))
        if field.p > 2:
            modules.append(case2_X((1, 2), field))
    for m in modules:
        m = _rebased(m, rng)
        n = m.dims["1"]
        for k in range(n + 1):
            d = {"1": k, "2": k}
            walk = _cheapest_walk(m, d, _invariant_setup(m, d), _Budget(DEFAULT_BUDGET))
            assert walk is None or not walk.semisimple, (m, d)
            assert engine_pairs(m, d, "eigenspace") is None
            chosen = auto_engine(m, d)
            assert chosen is None or not chosen.semisimple, (m, d)


def test_eigenspace_budget_is_the_certificate_kernels_and_the_points():
    # the degenerate K(2) module at (3,3) takes the eigenspace decomposition.
    # The certificate charges 8 kernels: 7 for the flag of T = I on V*
    # (three to find the character (1,), one per later step) and one for the
    # eigenspace's dimension.  The eigenspace on V costs one more, and the
    # points [5 choose 3]_3 = 1210, so a count and a list both need 1219.
    ident = Matrix.identity(F3, 5)
    degenerate = make_representation(make_kronecker(2), F3, {"1": 5, "2": 5},
                                     {"a1": ident.entries, "a2": ident.entries})
    d = {"1": 3, "2": 3}
    budget = _Budget(DEFAULT_BUDGET)
    walk = _cheapest_walk(degenerate, d, _invariant_setup(degenerate, d), budget)
    assert walk.semisimple and walk.chars == [(1,)] and budget.used == 8
    threshold = budget.used + len(walk.chars) + gaussian_binomial(5, 3, 3)
    assert threshold == 1219
    assert count_submodules(degenerate, d, budget=threshold) == 1210
    assert enumerate_submodules(degenerate, d, budget=threshold).count == 1210
    for run in (count_submodules, enumerate_submodules):
        with pytest.raises(BudgetExceeded):
            run(degenerate, d, budget=threshold - 1)


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
                    assert not is_stable(pt)
                    for construct in (sub_representation, quotient_representation):
                        with pytest.raises(NotASubmodule):
                            construct(pt)
                    continue
                assert is_stable(pt)
                sub, incl = sub_representation(pt)
                assert sub == want_sub and incl.maps == want_incl.maps


def _remark_witness(p, b):
    field = FieldSpec.prime(p)
    ctx = make_eta_context(remark_Xprime(1, 2, field), case2_Y(field))
    return build_eta(ctx, remark_N(field, b)).m


def test_automatic_engine_choice_on_baseline_instances():
    # the remark witnesses are split with three characters but not
    # semisimple, and the eigenline walk runs over both operators.  The
    # bijection's case-2 module is not split, but one of its operators is, so
    # the walk runs on V* (2k > n) over that one and spins its lines under
    # the other.  On the degenerate K(2) module every subspace is
    # invariant: split with one character whose eigenspace is all of V, so
    # the eigenspace decomposition runs, although the walk's bound passes G.
    d = {"1": 3, "2": 3}
    for p in (3, 5):
        for b in (1, 2, 3):
            walk = auto_engine(_remark_witness(p, b), d)
            assert walk is not None and walk.rest == [], (p, b)
            assert not walk.semisimple, (p, b)
            assert sorted(walk.chars) == [(0, 0), (1, 0), (2, 0)], (p, b)
    case2 = build_eta(case2_instance(F3), coordinate_inclusion_N(F3, 2)).m
    assert case2.dims == {"1": 5, "2": 5}
    setup = _invariant_setup(case2, d)
    assert _split_characters(F3, setup[3], 5, _Budget(DEFAULT_BUDGET)) is None
    walk = auto_engine(case2, d)
    assert (len(walk.ops), len(walk.rest), walk.dual) == (1, 1, True)
    assert not walk.semisimple
    assert walk.chars == [(0,), (1,), (2,)]
    keys = sorted(SubmodulePoint._trusted(case2, s).canonical_key()
                  for _, s in engine_pairs(case2, d, "scan"))
    assert assert_engines_match(case2, d, keys)
    ident = Matrix.identity(F3, 5)
    degenerate = make_representation(make_kronecker(2), F3, {"1": 5, "2": 5},
                                     {"a1": ident.entries, "a2": ident.entries})
    walk = auto_engine(degenerate, d)
    assert walk.semisimple and walk.bound > gaussian_binomial(5, 3, 3)
    setup = _invariant_setup(degenerate, d)
    assert _split_characters(F3, setup[3], 5, _Budget(DEFAULT_BUDGET)) == [(1,)]


def test_spin_walk_budget_on_the_case2_witness():
    # the (4,4) points of the `demo case2 --field p=5 --n 3` witness: none.
    # The walk runs over one operator on V and spins each line under the
    # other, so the count passes 1000 units; walking every subspace that
    # one operator fixes and then filtering needs more than 1000
    m = build_eta(case2_instance(F5, n=3), coordinate_inclusion_N(F5, 3)).m
    d = {"1": 4, "2": 4}
    assert count_submodules(m, d, budget=1000) == 0
    assert enumerate_submodules(m, d, budget=1000).count == 0
    budget = _Budget(1000)
    setup = _invariant_setup(m, d)
    walk = _choose_engine(m, d, setup, budget)
    assert walk.rest and not walk.dual
    with pytest.raises(BudgetExceeded):
        list(filter_walk(m, d, setup, walk, budget, walk_sinks=False))


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


def test_report_json_shape():
    k2 = make_kronecker(2)
    m = projective(k2, "1", F3)
    report = enumerate_submodules(m, {"1": 0, "2": 1})
    data = report.to_json()
    assert data["count"] == 4
    assert len(data["points"]) == 4
