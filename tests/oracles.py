"""Slow, deterministic oracles and generators that tests use.

None is used by quivergrass itself: its lemma checkers compare submodule
counts with Gaussian binomials and test single points by one Hom dimension,
it never needs an isomorphism or splitting test, its kernels reduce entries
through FieldSpec's row primitives, and it reads submodule coordinates off
canonical bases instead of solving.  The quotient and image constructions,
the random representation generator, the exceptional-module test, the
removable-vertex search, representations from nested lists, sources,
opposite quivers, duals and injectives, the stability test of a point and
the representation-infinite test are used by tests alone, so they live
here too.
`symmetric_inertia`, a congruence reduction over Q for any symmetric
matrix, is the reference for `reptype.tits_definiteness`.
`has_brick_summand_by_composition`, which composes every pair of Hom
basis elements, is the reference for `homext.has_brick_summand`.
`dense_differential`, which writes the blocks of d0 into dense rows by
slice assignment, is the reference for the sparse rows of
`homext._differential`.
`kron_eta_module`, which assembles each arrow of the middle term from
Kronecker products, sums and `block2x2`, is the reference for the block
placement of `construct._eta_module`.
"""

import random
from fractions import Fraction
from itertools import product
from typing import List, Optional, Tuple

from quivergrass.exactlinalg import (
    FieldSpec, Matrix, _rref_rows, gaussian_binomial, hstack, kernel_basis, kron,
    pivot_columns, row_space, vstack)
from quivergrass.grassmann import _projective_lines, _Quotient, _spin
from quivergrass.homext import (
    _check_pair, _differential, hom_basis, hom_ext_dims, is_brick)
from quivergrass.quiverrep import (
    Arrow, Morphism, NotASubmodule, Quiver, Representation, SubmodulePoint,
    kronecker_shape, projective)
from quivergrass.reptype import classify


def make_representation(q, field, dims, matrices):
    """A representation from plain nested lists; a missing arrow is zero."""
    mats = {}
    for a in q.arrows:
        data = matrices.get(a.id)
        if data is None:
            data = [[0] * dims[a.source] for _ in range(dims[a.target])]
        mats[a.id] = Matrix(field, data, ncols=dims[a.source])
    return Representation(q, field, dict(dims), mats)


def sources(q: Quiver) -> List[str]:
    """The vertices no arrow points into, in vertex order."""
    has_in = {a.target for a in q.arrows}
    return [v for v in q.vertices if v not in has_in]


def opposite(q: Quiver) -> Quiver:
    """The quiver with every arrow reversed."""
    return Quiver(q.vertices, tuple(Arrow(a.id, a.target, a.source) for a in q.arrows))


def dual(m: Representation) -> Representation:
    """Dual representation on the opposite quiver (transposed matrices)."""
    mats = {a.id: m.matrices[a.id].transpose() for a in m.quiver.arrows}
    return Representation(opposite(m.quiver), m.field, dict(m.dims), mats)


def injective(q: Quiver, v: str, field: FieldSpec) -> Representation:
    """Indecomposable injective I(v), built as the dual of a projective."""
    return dual(projective(opposite(q), v, field))


def is_stable(pt: SubmodulePoint) -> bool:
    """True when every arrow maps the source subspace into the target one."""
    return pt._restricted_arrows() is not None


def is_representation_infinite(q: Quiver) -> bool:
    """Tame or wild: infinitely many indecomposables up to isomorphism."""
    return classify(q).kind != "finite"


def solve(a: Matrix, b) -> Optional[tuple]:
    """One solution x of a x = b, or None if the system is inconsistent.

    b may be a sequence of scalars or a single-column Matrix.  Free variables
    are set to zero, so the answer is deterministic.
    """
    if isinstance(b, Matrix):
        if b.ncols != 1:
            raise ValueError("right hand side must be a column")
        bvals = [r[0] for r in b.entries]
    else:
        bvals = [a.field.coerce(x) for x in b]
    if len(bvals) != a.nrows:
        raise ValueError(f"rhs length {len(bvals)} does not match {a.nrows} rows")
    rows = [list(r) + [bv] for r, bv in zip(a.entries, bvals)]
    if not rows:
        return tuple()
    rank, pivots = _rref_rows(rows, a.ncols + 1, a.field)
    if pivots and pivots[-1] == a.ncols:
        return None
    z = a.field.zero
    x = [z] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.ncols]
    return tuple(x)


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
    basis = hom_basis(m1, m2)
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
    basis = hom_basis(x, m)
    if len(basis) != s:
        return False
    return all(hstack([f.maps[v] for f in basis]).rank() == m.dims[v]
               for v in m.quiver.vertices if m.dims[v])


def has_brick_summand_by_composition(m, y):
    """Does m have a summand isomorphic to the brick y?  Composition scan.

    The reference for homext.has_brick_summand: End(y) is the ground field,
    so y splits off m exactly when some composite y -> m -> y of Hom basis
    elements is nonzero.  Every pair is composed at every vertex.
    """
    _check_pair(m, y)
    into = hom_basis(y, m)
    back = hom_basis(m, y)
    return any(not (f.maps[v] * g.maps[v]).is_zero
               for f in back for g in into for v in y.quiver.vertices)


def cocycle_is_coboundary(eps):
    """True when the cocycle lies in the image of d0 (the extension splits)."""
    m, n = eps.source, eps.target
    vec = [x for a in m.quiver.arrows for row in eps.components[a.id].entries
           for x in row]
    return solve(_differential(m, n).matrix, vec) is not None


def dense_differential(m, n) -> Matrix:
    """The D1 x D0 matrix of d0 : sum_v Hom(M_v, N_v) -> sum_a Hom(M_i, N_j),
    (d0 f)_a = N_a f_i - f_j M_a, built dense block by block."""
    _check_pair(m, n)
    q, field = m.quiver, m.field
    dom_bases, off = {}, 0
    for v in q.vertices:
        dom_bases[v] = off
        off += n.dims[v] * m.dims[v]
    d0 = off
    rows = []
    minus_one = field.coerce(-1)
    for a in q.arrows:
        i, j = a.source, a.target
        mi, mj = m.dims[i], m.dims[j]
        fi, fj, ni = dom_bases[i], dom_bases[j], n.dims[i]
        neg_cols = [field.scale_row(minus_one, col)
                    for col in m.matrices[a.id].transpose().entries]
        for r, na_row in enumerate(n.matrices[a.id].entries):
            for c in range(mi):
                row = [field.zero] * d0
                # (N_a f_i)[r,c] contributes +N_a[r,s] at f_i[s,c]
                row[fi + c:fi + ni * mi:mi] = na_row
                # (f_j M_a)[r,c] contributes -M_a[t,c] at f_j[r,t]
                row[fj + r * mj:fj + (r + 1) * mj] = neg_cols[c]
                rows.append(tuple(row))
    return Matrix(field, tuple(rows), ncols=d0, _trusted=True)


def block2x2(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    """The block matrix [[tl, tr], [bl, br]]."""
    return vstack([hstack([tl, tr]), hstack([bl, br])])


def kron_eta_module(ctx, n_rep) -> Representation:
    """The middle term of eta(N), each arrow assembled as the block matrix
    [[X_alpha (x) I_a, sum_i eps_i,alpha (x) gamma_i], [0, Y_alpha (x) I_b]]
    from Kronecker products, matrix sums and block2x2."""
    src, tgt, arrow_ids = kronecker_shape(n_rep.quiver)
    x, y, field = ctx.x, ctx.y, ctx.x.field
    b, a = n_rep.dims[src], n_rep.dims[tgt]
    gammas = [n_rep.matrices[aid] for aid in arrow_ids]
    q = x.quiver
    dims = {v: x.dims[v] * a + y.dims[v] * b for v in q.vertices}
    mats = {}
    for arr in q.arrows:
        xa = kron(x.matrices[arr.id], Matrix.identity(field, a))
        yb = kron(y.matrices[arr.id], Matrix.identity(field, b))
        glue = Matrix.zeros(field, x.dims[arr.target] * a, y.dims[arr.source] * b)
        for eps, gamma in zip(ctx.cocycles, gammas):
            glue = glue + kron(eps.components[arr.id], gamma)
        lower = Matrix.zeros(field, y.dims[arr.target] * b, x.dims[arr.source] * a)
        mats[arr.id] = block2x2(xa, glue, lower, yb)
    return Representation(q, field, dims, mats)


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


def quotient_representation(pt: SubmodulePoint):
    """The quotient by a stable point, with its projection morphism.

    The quotient basis at a vertex is the set of non-pivot coordinates of the
    subspace's RREF basis, which makes the projection deterministic.
    Returns (quot, proj) where proj: parent -> quot.
    """
    parent = pt.parent
    q = parent.quiver
    field = parent.field
    if not is_stable(pt):
        raise NotASubmodule("subspaces are not stable under the arrow maps")
    minus_one = field.coerce(-1)
    proj_maps = {}
    lift_maps = {}
    dims = {}
    for v in q.vertices:
        s = pt.subspaces[v]
        d = parent.dims[v]
        pivots = pivot_columns(s)
        pivset = set(pivots)
        free = [c for c in range(d) if c not in pivset]
        dims[v] = len(free)
        # proj = Sel_free (I - S^T Sel_pivot): kills the subspace, hits free coords
        st = s.transpose()
        rows = []
        for fcol in free:
            row = [field.zero] * d
            row[fcol] = field.one
            for pc, val in zip(pivots, field.scale_row(minus_one, st.entries[fcol])):
                row[pc] = val
            rows.append(tuple(row))
        proj_maps[v] = Matrix(field, tuple(rows), ncols=d, _trusted=True)
        lrows = tuple(tuple(field.one if free[j] == i else field.zero
                            for j in range(len(free))) for i in range(d))
        lift_maps[v] = Matrix(field, lrows, ncols=len(free), _trusted=True)
    mats = {}
    for a in q.arrows:
        mats[a.id] = proj_maps[a.target] * parent.matrices[a.id] * lift_maps[a.source]
    quot = Representation(q, field, dims, mats)
    projection = Morphism(parent, quot, proj_maps)
    return quot, projection


def image_point(f: Morphism) -> SubmodulePoint:
    """The image of a morphism as a submodule point of its target."""
    subs = {v: row_space(f.maps[v].transpose()) for v in f.maps}
    return SubmodulePoint(f.target, subs)


def random_representation(q: Quiver, field: FieldSpec, rng: random.Random,
                          max_dim: int = 3) -> Representation:
    dims = {v: rng.randint(0, max_dim) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        if field.is_prime:
            rows = [[rng.randrange(field.p) for _ in range(dims[a.source])]
                    for _ in range(dims[a.target])]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(dims[a.source])]
                    for _ in range(dims[a.target])]
        mats[a.id] = Matrix(field, rows, ncols=dims[a.source])
    return Representation(q, field, dims, mats)


def is_exceptional(m: Representation) -> bool:
    """Brick with no self extensions."""
    if m.is_zero:
        raise ValueError("the zero representation is not exceptional")
    h, e = hom_ext_dims(m, m)
    return h == 1 and e == 0


class NotApplicable(ValueError):
    """Preconditions of the removable-vertex search do not hold."""


class NoRemovableVertex(AssertionError):
    """The removable-vertex search exhausted all candidates.

    Raised when a connected wild quiver with at least three vertices has no
    deletable sink or source leaving a connected representation-infinite
    quiver.  Such inputs exist (for example two vertices joined to a middle
    vertex by single arrows plus a triple arrow between the extremes), so
    this is a documented boundary of the search, not an internal bug.
    """


def find_removable_extremal_vertex(q: Quiver) -> Tuple[str, Quiver]:
    """A sink or source whose deletion stays connected and representation-infinite.

    Candidates are scanned in sorted vertex order and the first success is
    returned, so the answer is deterministic.  NotApplicable signals that the
    preconditions (connected, wild, at least three vertices) fail;
    NoRemovableVertex signals that every candidate fails despite them.
    """
    if len(q.vertices) < 3:
        raise NotApplicable("need at least three vertices")
    if not q.is_connected():
        raise NotApplicable("quiver is not connected")
    if classify(q).kind != "wild":
        raise NotApplicable("quiver is not wild")
    extremal = sorted(set(q.sinks()) | set(sources(q)))
    for omega in extremal:
        rest = [v for v in q.vertices if v != omega]
        sub = q.subquiver(rest)
        if not sub.is_connected():
            continue
        if is_representation_infinite(sub):
            return omega, sub
    raise NoRemovableVertex(
        "no sink or source can be deleted while keeping the rest connected "
        "and representation-infinite")


def symmetric_inertia(rows: List[List[int]]) -> Tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Exact congruence reduction over the rationals; zero diagonals with a
    nonzero off-diagonal partner are handled as hyperbolic pairs, which
    contribute one positive and one negative inertia unit each.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is not None:
            d = m[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            active.remove(piv)
            # symmetric rank-one update; symmetry of the block is preserved
            for u in active:
                if m[piv][u] == 0:
                    continue
                f = m[piv][u] / d
                for v in active:
                    m[u][v] -= f * m[piv][v]
            continue
        pair = None
        for i in active:
            for j in active:
                if i < j and m[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        s = m[i][j]
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        for u in active:
            for v in active:
                m[u][v] -= (m[i][u] * m[j][v] + m[j][u] * m[i][v]) / s
    return pos, neg, zero


def _fixes(field, op_rows, w):
    """Whether every operator maps the subspace with canonical basis w into it."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in w]
    for u in (field.row_times(v, op) for op in op_rows for v in w):
        for c, row in zip(pivots, w):
            if u[c]:
                u = field.add_scaled(u, -u[c], row)
        if any(u):
            return False
    return True


def filter_walk(m, d, setup, walk, budget, walk_sinks=True):
    """(1, point) pairs of the eigenline walk without spins, then a filter.

    Level j holds every j-dimensional subspace that the operator set S of
    the walk fixes: each W of a level gives, for each character, one kernel,
    and each line of it modulo W a candidate W + l of the next level, deduped
    by canonical basis and charged like the walk's.  The last level keeps
    the subspaces that the operators outside S fix too; on V* each is mapped
    to its annihilator.
    """
    src, tgt, pivot, _ = setup
    field = m.field
    n = m.dims[src]
    level = [()]
    for _ in range(n - d[src] if walk.dual else d[src]):
        nxt = {}
        for w in level:
            quot = _Quotient(field, walk.ops, w, n)
            for chi in walk.chars:
                basis = quot.eigenspace(chi, budget)
                budget.charge(gaussian_binomial(len(basis), 1, field.p))
                for coeffs in _projective_lines(field, len(basis)):
                    line = [0] * n
                    for c, row in zip(coeffs, basis):
                        if c:
                            line = field.add_scaled(line, c, row)
                    nxt[_spin(field, [], w, quot.pivots, line, n)] = None
        level = list(nxt)
    for w in level:
        if not _fixes(field, walk.rest, w):
            continue
        if not walk_sinks:
            yield 1, {}
            continue
        s1 = Matrix(field, w, ncols=n, _trusted=True)
        if walk.dual:
            s1 = kernel_basis(s1)
        yield 1, {src: s1, tgt: row_space(s1 * m.matrices[pivot].transpose())}
