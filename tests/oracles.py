"""Slow, deterministic oracles that tests compare the package against.

None is used by quivergrass itself: its lemma checkers compare submodule
counts with Gaussian binomials and test single points by one Hom dimension,
it never needs an isomorphism or splitting test, its kernels reduce entries
through FieldSpec's row primitives, and it reads submodule coordinates off
canonical bases instead of solving.
"""

from fractions import Fraction
from itertools import product

from quivergrass.exactlinalg import Matrix, hstack, solve
from quivergrass.homext import (
    _check_pair, _differential, hom_basis, hom_ext_dims, is_brick)
from quivergrass.quiverrep import Morphism, NotASubmodule, Representation


def projective_coefficients(k, p):
    """One coefficient vector in F_p^k per line: first nonzero entry 1."""
    for lead in range(k):
        for tail in product(range(p), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def is_isomorphic(m1, m2):
    """Is there an isomorphism m1 -> m2?  Exhaustive, over F_p only.

    Structural rejections come first: dimension vectors, then the dimensions
    of Hom(m1, m2), Hom(m2, m1), End(m1) and End(m2), which agree for
    isomorphic modules.  Then every element of P(Hom(m1, m2)) is tested for
    being invertible at every vertex; invertibility is scalar invariant.
    """
    if m1.quiver != m2.quiver or m1.field != m2.field:
        raise ValueError("representations live on different quivers or fields")
    if not m1.field.is_prime:
        raise ValueError("the isomorphism oracle scans F_p only")
    if m1.dims != m2.dims:
        return False
    if m1.total_dim == 0:
        return True
    basis = hom_basis(m1, m2).basis
    if not (len(basis) == hom_ext_dims(m2, m1)[0] == hom_ext_dims(m1, m1)[0]
            == hom_ext_dims(m2, m2)[0]):
        return False
    verts = [v for v in m1.quiver.vertices if m1.dims[v]]

    def invertible_at(coeffs, v):
        terms = [f.maps[v].scale(c) for c, f in zip(coeffs, basis) if c]
        return sum(terms[1:], terms[0]).rank() == m1.dims[v]

    return any(all(invertible_at(coeffs, v) for v in verts)
               for coeffs in projective_coefficients(len(basis), m1.field.p))


def is_brick_power(m, x, s):
    """Is m isomorphic to x^s, for a brick x?

    Hom(x, x^s) is s dimensional because End(x) is the ground field, and for
    any basis f_1..f_s of Hom(x, m) the evaluation map x^s -> m sending the
    i-th copy by f_i is an isomorphism whenever some isomorphism exists.  So
    m is a copy of x^s exactly when the dimension vectors match,
    dim Hom(x, m) = s, and at every vertex the block matrix
    [f_1,v | ... | f_s,v] is invertible.
    """
    _check_pair(m, x)
    if not is_brick(x):
        raise ValueError("power test requires a brick")
    if any(m.dims[v] != s * x.dims[v] for v in m.quiver.vertices):
        return False
    basis = hom_basis(x, m).basis
    if len(basis) != s:
        return False
    return all(hstack([f.maps[v] for f in basis]).rank() == m.dims[v]
               for v in m.quiver.vertices if m.dims[v])


def cocycle_is_coboundary(eps):
    """True when the cocycle lies in the image of d0 (the extension splits)."""
    m, n = eps.source, eps.target
    vec = [x for a in m.quiver.arrows for row in eps.components[a.id].entries
           for x in row]
    return solve(_differential(m, n).matrix, vec) is not None


def reference_rref_rows(rows, ncols, field):
    """In-place RREF with a separate prime and rational body, entry by entry.

    Returns (rank, pivot columns), like exactlinalg._rref_rows.
    """
    nrows = len(rows)
    if field.is_prime:
        p = field.p
        r = 0
        pivots = []
        for c in range(ncols):
            pr = None
            for i in range(r, nrows):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            piv = rows[r][c]
            if piv != 1:
                inv = pow(piv, p - 2, p)
                rows[r] = [(x * inv) % p for x in rows[r]]
            rowr = rows[r]
            for i in range(nrows):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rowr)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return r, tuple(pivots)
    zero = Fraction(0)
    r = 0
    pivots = []
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        rowr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rowr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots)


def reference_matmul(a, b):
    """Matrix product with a separate prime and rational body."""
    cols = list(zip(*b.entries)) if b.entries else []
    if a.field.is_prime:
        p = a.field.p
        rows = tuple(
            tuple(sum(x * y for x, y in zip(arow, col)) % p for col in cols)
            if cols else tuple(0 for _ in range(b.ncols))
            for arow in a.entries)
    else:
        z = Fraction(0)
        rows = tuple(
            tuple(sum((x * y for x, y in zip(arow, col)), z) for col in cols)
            if cols else tuple(z for _ in range(b.ncols))
            for arow in a.entries)
    return Matrix(a.field, rows, ncols=b.ncols, _trusted=True)


def solve_sub_representation(pt):
    """(sub, inclusion) by solving for each image column in the target basis.

    Raises NotASubmodule when some column has no solution.
    """
    parent = pt.parent
    q = parent.quiver
    field = parent.field
    dims = {v: pt.subspaces[v].nrows for v in q.vertices}
    incl = {v: pt.subspaces[v].transpose() for v in q.vertices}
    mats = {}
    for a in q.arrows:
        cols = []
        image = parent.matrices[a.id] * incl[a.source]  # d_t x k_s
        for j in range(dims[a.source]):
            col = tuple(image.entries[i][j] for i in range(image.nrows))
            x = solve(incl[a.target], col)
            if x is None:
                raise NotASubmodule(f"arrow {a.id} image leaves the subspace")
            cols.append(x)
        rows = tuple(tuple(cols[j][i] for j in range(dims[a.source]))
                     for i in range(dims[a.target]))
        mats[a.id] = Matrix(field, rows, ncols=dims[a.source], _trusted=True)
    sub = Representation(q, field, dims, mats)
    return sub, Morphism(sub, parent, incl)
