import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from quivergrass.exactlinalg import (
    FieldSpec,
    Matrix,
    Record,
    block_diag,
    enumerate_subspaces,
    gaussian_binomial,
    hstack,
    inverse,
    kernel_basis,
    kron,
    matrix_from_json,
    matrix_to_json,
    rref,
    row_space,
    scalar_from_json,
    scalar_to_json,
    subspaces_containing,
    vstack,
)

from oracles import block2x2, reference_matmul, reference_rref_rows, solve

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
QQ = FieldSpec.rational()


def rand_matrix(field, nr, nc, rng):
    if field.is_prime:
        rows = [[rng.randrange(field.p) for _ in range(nc)] for _ in range(nr)]
    else:
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
    return Matrix(field, rows, ncols=nc)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    assert FieldSpec.prime(2).p == 2
    assert FieldSpec.prime(101).is_prime
    assert not QQ.is_prime


class Pair(Record):
    __slots__ = ("left", "right")


def test_records_are_read_only_values():
    pair = Pair(1, [2])
    assert pair == Pair(1, [2]) and pair != Pair(1, [3])
    assert pair != (1, [2])
    assert repr(pair) == "Pair(left=1, right=[2])"
    assert hash(Pair(1, (2,))) == hash(Pair(1, (2,)))
    with pytest.raises(TypeError):
        hash(pair)                      # a list field is unhashable
    for args in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError, match="Pair takes the fields left, right"):
            Pair(*args)
    with pytest.raises(AttributeError):
        pair.left = 2
    with pytest.raises(AttributeError):
        del pair.right
    with pytest.raises(AttributeError):
        pair.other = 0
    assert copy.copy(pair) == pickle.loads(pickle.dumps(pair)) == pair
    assert F3 == FieldSpec("prime", 3) and F3 != F5 and F3 != QQ
    assert {F3: 1}[FieldSpec.prime(3)] == 1
    assert repr(QQ) == "FieldSpec(kind='rational', p=None)"
    with pytest.raises(AttributeError):
        F3.p = 5
    assert pickle.loads(pickle.dumps(F3)) == F3


def test_field_coerce():
    assert F5.coerce(7) == 2
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(1, 2)) == 3  # inverse of 2 mod 5
    assert QQ.coerce(3) == Fraction(3)
    with pytest.raises(TypeError):
        F5.coerce(True)
    with pytest.raises(ValueError):
        F5.coerce(Fraction(1, 5))


def test_field_inv():
    for a in range(1, 5):
        assert (F5.inv(a) * a) % 5 == 1
    assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_field_inv_matches_fermat():
    rng = random.Random(96)
    for p in (2, 3, 5, 7, 2 ** 31 - 1):
        field = FieldSpec.prime(p)
        xs = range(1, p) if p < 8 else [rng.randrange(1, p) for _ in range(200)] + [1, p - 1]
        for x in xs:
            assert field.inv(x) == pow(x, p - 2, p)
            assert field.inv(x - p) == field.inv(x + 3 * p) == field.inv(x)


def test_matrix_basic_arithmetic():
    a = Matrix(F5, [[1, 2], [3, 4]], ncols=2)
    b = Matrix(F5, [[0, 1], [1, 0]], ncols=2)
    assert (a + b).entries == ((1, 3), (4, 4))
    assert (a - b).entries == ((1, 1), (2, 4))
    assert (a * b).entries == ((2, 1), (4, 3))
    assert a.scale(2).entries == ((2, 4), (1, 3))
    assert (-b).entries == ((0, 4), (4, 0))
    assert a.transpose().entries == ((1, 3), (2, 4))


def test_matrix_rational_product():
    a = Matrix(QQ, [[Fraction(1, 2), 1]], ncols=2)
    b = Matrix(QQ, [[2], [Fraction(1, 3)]], ncols=1)
    assert (a * b).entries == ((Fraction(4, 3),),)


def test_zero_dimension_matrices():
    e = Matrix.zeros(F3, 0, 3)
    f = Matrix.zeros(F3, 3, 0)
    assert (f * e).shape == (3, 3)
    assert (f * e).is_zero
    assert (e * f).shape == (0, 0)
    assert e.transpose().shape == (3, 0)
    assert rref(e).rank == 0
    assert kernel_basis(e).nrows == 3  # everything is in the kernel


def test_shape_mismatch_errors():
    a = Matrix(F3, [[1, 2]], ncols=2)
    with pytest.raises(ValueError):
        a + Matrix(F3, [[1]], ncols=1)
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a + Matrix(F5, [[1, 2]], ncols=2)


def test_stack_and_blocks():
    a = Matrix(F3, [[1, 2]], ncols=2)
    b = Matrix(F3, [[0, 1]], ncols=2)
    assert vstack([a, b]).entries == ((1, 2), (0, 1))
    assert hstack([a, b]).entries == ((1, 2, 0, 1),)
    d = block_diag(a, b)
    assert d.shape == (2, 4)
    assert d.entries == ((1, 2, 0, 0), (0, 0, 0, 1))
    q = block2x2(Matrix.identity(F3, 1), Matrix(F3, [[2]], ncols=1),
                 Matrix.zeros(F3, 1, 1), Matrix.identity(F3, 1))
    assert q.entries == ((1, 2), (0, 1))


def test_kron_indexing():
    a = Matrix(F5, [[1, 2], [0, 3]], ncols=2)
    b = Matrix(F5, [[0, 1], [1, 0]], ncols=2)
    k = kron(a, b)
    # k[(i*2+r), (j*2+s)] = a[i][j] * b[r][s]
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for s in range(2):
                    assert k.at(i * 2 + r, j * 2 + s) == (a.at(i, j) * b.at(r, s)) % 5


def test_rref_known_example():
    # det = 3, invertible over F_5
    m = Matrix(F5, [[1, 2, 3], [2, 0, 1], [1, 1, 1]], ncols=3)
    res = rref(m)
    assert res.rank == 3
    assert res.reduced == Matrix.identity(F5, 3)
    # the second row is 2x the first over F_3, so the rank drops
    m2 = Matrix(F3, [[1, 2, 0], [2, 1, 0]], ncols=3)
    res2 = rref(m2)
    assert res2.rank == 1
    assert res2.pivots == (0,)
    assert res2.reduced.entries == ((1, 2, 0), (0, 0, 0))


def test_rref_idempotent_random():
    rng = random.Random(1)
    for _ in range(40):
        field = rng.choice([F2, F3, F5, QQ])
        m = rand_matrix(field, rng.randint(0, 4), rng.randint(0, 4), rng)
        r = rref(m).reduced
        again = rref(r)
        assert again.reduced == r
        assert again.rank == rref(m).rank


def test_row_space_canonical():
    rng = random.Random(2)
    for _ in range(30):
        m = rand_matrix(F5, 3, 4, rng)
        s = row_space(m)
        # scrambling the rows by an invertible transform keeps the row space
        g = None
        while g is None or inverse(g) is None:
            g = rand_matrix(F5, 3, 3, rng)
        assert row_space(g * m) == s


def test_kernel_basis_property():
    rng = random.Random(3)
    for _ in range(40):
        field = rng.choice([F3, F5, QQ])
        m = rand_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng)
        kb = kernel_basis(m)
        assert kb.nrows == m.ncols - rref(m).rank
        prod = m * kb.transpose()
        assert prod.is_zero
        # canonical: already in reduced form
        assert rref(kb).reduced == kb or kb.nrows == 0


def _canonical(m):
    """Every entry is an int in [0, p), or a Fraction over Q."""
    if m.field.is_prime:
        return all(type(x) is int and 0 <= x < m.field.p for row in m.entries for x in row)
    return all(type(x) is Fraction for row in m.entries for x in row)


def _rank_deficient(field, nr, nc, rng):
    """A product through an inner dimension of at most min(nr, nc)."""
    inner = rng.randint(0, min(nr, nc))
    return reference_matmul(rand_matrix(field, nr, inner, rng),
                            rand_matrix(field, inner, nc, rng))


def test_kernels_match_reference():
    # seeded differential test of the row-primitive kernels against the old
    # two-body ones, including 0-row, 0-column and empty-inner shapes
    rng = random.Random(83)
    fields = [FieldSpec.prime(p) for p in (2, 3, 5, 7, 2 ** 31 - 1)] + [QQ]
    for field in fields:
        for _ in range(40):
            nr, nk, nc = (rng.randint(0, 4) for _ in range(3))
            make = rand_matrix if rng.random() < 0.5 else _rank_deficient
            a, a2 = make(field, nr, nk, rng), make(field, nr, nk, rng)
            b, c = make(field, nk, nc, rng), rand_matrix(field, nc, nr, rng)
            rows = [list(r) for r in a.entries]
            rank, pivots = reference_rref_rows(rows, nk, field)
            res = rref(a)
            assert res.reduced.entries == tuple(tuple(r) for r in rows)
            assert (res.rank, res.pivots) == (rank, pivots)
            assert row_space(a).entries == tuple(tuple(r) for r in rows[:rank])
            ker = kernel_basis(a)
            # the canonical basis of ker(a) is the RREF basis of dimension nk - rank
            assert ker.nrows == nk - rank and ker.ncols == nk
            assert reference_matmul(a, ker.transpose()).is_zero
            ker_rows = [list(r) for r in ker.entries]
            reference_rref_rows(ker_rows, nk, field)
            assert tuple(tuple(r) for r in ker_rows) == ker.entries
            coerce = field.coerce
            x = rng.choice([0, 1, -1, 2, Fraction(3)] if not field.is_prime
                           else [0, 1, -1, 2, field.p - 1])
            expected = {
                "mul": reference_matmul(a, b),
                "add": [[coerce(u + v) for u, v in zip(r1, r2)]
                        for r1, r2 in zip(a.entries, a2.entries)],
                "sub": [[coerce(u - v) for u, v in zip(r1, r2)]
                        for r1, r2 in zip(a.entries, a2.entries)],
                "neg": [[coerce(-u) for u in r] for r in a.entries],
                "scale": [[coerce(x * u) for u in r] for r in a.entries],
                "kron": [[coerce(a.entries[i][j] * c.entries[k][l])
                          for j in range(nk) for l in range(nr)]
                         for i in range(nr) for k in range(nc)],
            }
            got = {"mul": a * b, "add": a + a2, "sub": a - a2, "neg": -a,
                   "scale": a.scale(x), "kron": kron(a, c)}
            for op, m in got.items():
                want = expected[op]
                if not isinstance(want, Matrix):
                    want = Matrix(field, want, ncols=m.ncols)
                assert m == want and m.shape == want.shape, (field, op)
                assert _canonical(m), (field, op)
            for m in (res.reduced, ker):
                assert _canonical(m)
    for field in (F5, QQ):
        empty = rand_matrix(field, 3, 0, rng) * rand_matrix(field, 0, 2, rng)
        assert empty.is_zero and empty.shape == (3, 2)
        assert all(x == field.zero and type(x) is type(field.zero)
                   for row in empty.entries for x in row)


RANK_FIELDS = [FieldSpec.prime(p) for p in (2, 3, 5, 7, 2 ** 31 - 1)] + [QQ]


def _nonzero(field, rng):
    if field.is_prime:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))


def _sparse_rows(field, nr, nc, density, rng, nonzero=_nonzero):
    """nr x nc entries, each nonzero with probability density."""
    return [[nonzero(field, rng) if rng.random() < density else field.zero
             for _ in range(nc)] for _ in range(nr)]


def _of_rank(field, nr, nc, r, density, rng, nonzero=_nonzero):
    """An nr x nc matrix of rank exactly r, as a product A B of an injective A
    (a scaled permutation on r of its rows) and a surjective B (a scaled
    identity on r of its columns), sparse elsewhere with the given density."""
    a = _sparse_rows(field, nr, r, density, rng, nonzero)
    b = _sparse_rows(field, r, nc, density, rng, nonzero)
    for k, i in enumerate(rng.sample(range(nr), r)):
        a[i] = [field.zero] * r
        a[i][k] = nonzero(field, rng)
    for k, j in enumerate(rng.sample(range(nc), r)):
        for row in b:
            row[j] = field.zero
        b[k][j] = nonzero(field, rng)
    return reference_matmul(Matrix(field, a, ncols=r), Matrix(field, b, ncols=nc))


def test_sparse_rank_matches_dense_rank():
    # seeded differential test of Matrix.rank (sparse forward elimination, on
    # the orientation with fewer rows) against the dense RREF rank, on
    # 0 x n, n x 0, zero, full-rank, tall, wide and square matrices of mixed
    # density, of known rank and of random rank
    rng = random.Random(97)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 3), (6, 6), (2, 7), (4, 9),
              (7, 2), (9, 4), (10, 24), (24, 10)]
    for field in RANK_FIELDS:
        for nr, nc in shapes:
            for density in (0.0, 0.1, 0.3, 0.6, 1.0):
                for r in sorted({0, min(nr, nc), rng.randint(0, min(nr, nc))}):
                    m = _of_rank(field, nr, nc, r, density, rng)
                    assert m.rank() == r == rref(m).rank, (field, nr, nc, density)
                    assert m.transpose().rank() == r
                m = Matrix(field, _sparse_rows(field, nr, nc, density, rng), ncols=nc)
                rank, _ = reference_rref_rows([list(row) for row in m.entries], nc, field)
                assert m.rank() == rank == rref(m).rank, (field, nr, nc, density)


def _sparse(row):
    return {j: a for j, a in enumerate(row) if a}


def _on_line(got, want):
    """got is a nonzero rational multiple of the dense row want, stored
    sparse with nonzero int entries."""
    if not all(type(a) is int and a for a in got.values()):
        return False
    j = next((j for j, a in enumerate(want) if a), None)
    if j is None or j not in got:
        return j is None and not got
    factor = Fraction(got[j]) / want[j]
    return got == _sparse([factor * a for a in want])


def test_sparse_row_primitives_match_dense_ones():
    # the rank's row primitives against dense field arithmetic: over F_p
    # exactly (scale_row, add_scaled); over Q up to a nonzero rational
    # factor, on int rows, with every pivot row primitive and every row
    # primitive after a step that scaled it
    rng = random.Random(98)
    scaled = set()
    for field in RANK_FIELDS:
        for _ in range(60):
            n = rng.randint(1, 8)
            x, y = _sparse_rows(field, 2, n, rng.random(), rng)
            c = rng.randrange(n)
            x[c], y[c] = _nonzero(field, rng), _nonzero(field, rng)
            # a pivot row pivots at its first column
            y[:c] = [field.zero] * c
            sx, sy = _sparse(x), _sparse(y)
            row = field.sparse_row(sx)
            assert row is not sx and sx == _sparse(x)
            pivot = field.sparse_pivot(field.sparse_row(sy))
            assert next(iter(pivot)) == c
            out = field.sparse_eliminate(dict(row), c, pivot)
            assert c not in out
            if field.is_prime:
                assert row == sx
                dense_pivot = field.scale_row(field.inv(y[c]), y)
                assert pivot == _sparse(dense_pivot)
                assert out == _sparse(field.add_scaled(x, field.coerce(-x[c]), dense_pivot))
                assert all(type(a) is int and 0 < a < field.p for a in out.values())
            else:
                want = [a - x[c] / y[c] * b for a, b in zip(x, y)]
                assert _on_line(row, x) and _on_line(pivot, y) and _on_line(out, want)
                # cross-multiplied by the lowest terms e/f of pivot[c]/row[c],
                # e > 0, and divided by its content when e > 1
                g = gcd(pivot[c], row[c]) * (1 if pivot[c] > 0 else -1)
                e, f = pivot[c] // g, row[c] // g
                cross = {j: a for j in row.keys() | pivot.keys()
                         if (a := e * row.get(j, 0) - f * pivot.get(j, 0))}
                content = gcd(*cross.values()) if e > 1 else 1
                assert out == {j: a // content for j, a in cross.items()}
                scaled.add(e > 1)
                assert gcd(*pivot.values()) == 1
                if out:
                    primitive = field.sparse_pivot(out)
                    assert gcd(*primitive.values()) == 1 and _on_line(primitive, want)
    assert scaled == {True, False}


def _big_rational(field, rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def _big_numerator(field, rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), rng.randint(1, 3))


def test_fraction_free_rank_matches_rref_over_q():
    # Matrix.rank over Q eliminates primitive int rows; compare it with the
    # Fraction RREF kernels on dense matrices and on products of known rank,
    # with numerators and denominators up to 10^6.  Dense ones above 20 x 20
    # keep denominators up to 3: with independent 10^6 ones a 40 x 40 rank,
    # exact either way, takes seconds on ints of thousands of digits
    rng = random.Random(99)
    cases = []                          # (matrix, its rank)
    for nr, nc in ((1, 1), (3, 5), (5, 3), (8, 8), (10, 7), (20, 20)):
        m = Matrix(QQ, _sparse_rows(QQ, nr, nc, 1.0, rng, _big_rational), ncols=nc)
        cases.append((m, min(nr, nc)))
    for nr, nc in ((30, 30), (40, 40)):
        m = Matrix(QQ, _sparse_rows(QQ, nr, nc, 1.0, rng, _big_numerator), ncols=nc)
        cases.append((m, nr))
    for nr, nc, r in ((12, 12, 5), (40, 40, 3), (25, 40, 2), (30, 30, 12)):
        make = _big_rational if r <= 4 else _big_numerator
        cases.append((_of_rank(QQ, nr, nc, r, 1.0, rng, make), r))
        cases.append((reference_matmul(
            Matrix(QQ, _sparse_rows(QQ, nr, r, 1.0, rng, make), ncols=r),
            Matrix(QQ, _sparse_rows(QQ, r, nc, 1.0, rng, make), ncols=nc)), r))
    for m, r in cases:
        rank, _ = reference_rref_rows([list(row) for row in m.entries], m.ncols, QQ)
        assert m.rank() == m.transpose().rank() == rank == rref(m).rank == r, m.shape


def test_solve():
    a = Matrix(F5, [[1, 2], [3, 4]], ncols=2)
    x = solve(a, [1, 1])
    assert x is not None
    got = a * Matrix(F5, [[x[0]], [x[1]]], ncols=1)
    assert got.entries == ((1,), (1,))
    # inconsistent system
    b = Matrix(F5, [[1, 0], [2, 0]], ncols=2)
    assert solve(b, [0, 1]) is None
    # underdetermined: free variables are set to zero
    c = Matrix(F5, [[1, 2, 3]], ncols=3)
    y = solve(c, [4])
    assert y == (4, 0, 0)


def test_inverse():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(0, 4)
        m = rand_matrix(F5, n, n, rng)
        inv = inverse(m)
        if inv is None:
            assert rref(m).rank < n
        else:
            assert m * inv == Matrix.identity(F5, n)
            assert inv * m == Matrix.identity(F5, n)


def test_inverse_singular_mod3():
    # det(1,2;2,1) = 1 - 4 = -3 which vanishes mod 3
    m = Matrix(F3, [[1, 2], [2, 1]], ncols=2)
    assert rref(m).rank == 1
    assert inverse(m) is None


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(6, 3, 5) == 2558556
    assert gaussian_binomial(3, 0, 7) == 1
    assert gaussian_binomial(3, 3, 7) == 1
    assert gaussian_binomial(2, 3, 7) == 0
    # symmetry
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


def test_enumerate_subspaces_counts():
    for p, field in ((2, F2), (3, F3), (5, F5)):
        for n in range(5):
            for k in range(n + 1):
                pts = list(enumerate_subspaces(n, k, field))
                assert len(pts) == gaussian_binomial(n, k, p)
                assert len(set(m.entries for m in pts)) == len(pts)
                for m in pts:
                    assert rref(m).reduced == m


def test_subspace_streams_are_lazy_and_uncapped():
    # 109221651 subspaces: the stream must start without counting or capping
    # them, since only the enumeration that consumes it holds a budget
    first = next(subspaces_containing(Matrix.zeros(F2, 0, 10), 5))
    assert first.shape == (5, 10)
    assert rref(first).reduced == first
    assert next(enumerate_subspaces(10, 5, F2)) == first


def test_subspaces_containing():
    base = row_space(Matrix(F3, [[1, 0, 2, 0]], ncols=4))
    found = list(subspaces_containing(base, 2))
    assert len(found) == gaussian_binomial(3, 1, 3)
    for s in found:
        assert s.nrows == 2
        stacked = vstack([s, base])
        assert rref(stacked).rank == 2  # base inside s
    # oracle: filter the full enumeration
    brute = [s for s in enumerate_subspaces(4, 2, F3)
             if rref(vstack([s, base])).rank == 2]
    assert sorted(s.entries for s in found) == sorted(s.entries for s in brute)


def test_subspaces_containing_trivial_base():
    base = Matrix.zeros(F2, 0, 3)
    got = sorted(s.entries for s in subspaces_containing(base, 1))
    want = sorted(s.entries for s in enumerate_subspaces(3, 1, F2))
    assert got == want


def test_scalar_serialization():
    assert scalar_to_json(F5, 3) == 3
    assert scalar_from_json(F5, 3) == 3
    assert scalar_to_json(QQ, Fraction(-2, 3)) == "-2/3"
    assert scalar_from_json(QQ, "-2/3") == Fraction(-2, 3)
    assert scalar_from_json(QQ, 4) == Fraction(4)


def test_matrix_serialization_roundtrip():
    rng = random.Random(5)
    for field in (F3, QQ):
        m = rand_matrix(field, 2, 3, rng)
        data = matrix_to_json(m)
        back = matrix_from_json(field, data, 2, 3)
        assert back == m
    with pytest.raises(ValueError):
        matrix_from_json(F3, [[1, 2]], 1, 3)
