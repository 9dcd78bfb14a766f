"""Hom spaces, first extension groups and the Euler form.

Everything is driven by one differential.  For representations M, N of the
same acyclic quiver,

    d0 : sum_v Hom(M_v, N_v)  ->  sum_{a: i->j} Hom(M_i, N_j)
    (d0 f)_a = N_a f_i - f_j M_a

has kernel Hom(M, N), and since path algebras of acyclic quivers are
hereditary, its cokernel is Ext^1(M, N).  Both are read off one matrix, built
once as sparse {column: entry} rows: a row, one entry of (d0 f)_a, has at
most dim N_i + dim M_j nonzeros.  hom_ext_dims reads the two dimensions off
the rank of those rows, fraction-free over Q; hom_basis and ext1 read their
canonical bases off the dense RREF of the same rows.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .exactlinalg import (
    FieldSpec, Matrix, Record, Scalar, _sparse_rank, kernel_basis, rref, vstack)
from .quiverrep import (
    DimVector,
    Morphism,
    Quiver,
    Representation,
    check_dimvec,
    kronecker_shape,
)


class ExtCocycle(Record):
    """One cocycle: a matrix N_{t(a)} x M_{s(a)} per arrow a.

    source is the M side (the quotient in extensions 0 -> N -> E -> M -> 0),
    target the N side.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Representation, target: Representation,
                 components: Dict[str, Matrix]) -> None:
        self._set(source, target, dict(components))
        q = self.source.quiver
        for a in q.arrows:
            want = (self.target.dims[a.target], self.source.dims[a.source])
            got = self.components[a.id].shape
            if got != want:
                raise ValueError(f"cocycle component at {a.id}: shape {got}, expected {want}")


class _Differential(NamedTuple):
    rows: List[Dict[int, Scalar]]  # D1 sparse rows of length D0
    field: FieldSpec
    dom_bases: Dict[str, int]  # vertex -> offset into flattened domain
    cod_bases: Dict[str, int]  # arrow id -> offset into flattened codomain
    d0: int
    d1: int

    @property
    def matrix(self) -> Matrix:
        """The D1 x D0 matrix of the rows."""
        z = self.field.zero
        dense = []
        for row in self.rows:
            r = [z] * self.d0
            for j, x in row.items():
                r[j] = x
            dense.append(tuple(r))
        return Matrix(self.field, tuple(dense), ncols=self.d0, _trusted=True)


def _check_pair(m: Representation, n: Representation) -> None:
    if m.quiver != n.quiver:
        raise ValueError("representations live on different quivers")
    if m.field != n.field:
        raise ValueError("representations live over different fields")


def _differential(m: Representation, n: Representation) -> _Differential:
    _check_pair(m, n)
    q = m.quiver
    field = m.field
    dom_bases: Dict[str, int] = {}
    off = 0
    for v in q.vertices:
        dom_bases[v] = off
        off += n.dims[v] * m.dims[v]
    d0 = off
    cod_bases: Dict[str, int] = {}
    off = 0
    for a in q.arrows:
        cod_bases[a.id] = off
        off += n.dims[a.target] * m.dims[a.source]
    d1 = off
    rows = []
    minus_one = field.coerce(-1)
    for a in q.arrows:
        # the quiver is acyclic, so i != j and the f_i and f_j blocks of a row
        # are disjoint; rows come in codomain order, arrow by arrow
        i, j = a.source, a.target
        mi, mj = m.dims[i], m.dims[j]
        fi, fj = dom_bases[i], dom_bases[j]
        neg_cols = [[(t, x) for t, x in enumerate(field.scale_row(minus_one, col)) if x]
                    for col in m.matrices[a.id].transpose().entries]
        for r, na_row in enumerate(n.matrices[a.id].entries):
            # (N_a f_i)[r,c] contributes +N_a[r,s] at f_i[s,c]
            na = [(fi + s * mi, x) for s, x in enumerate(na_row) if x]
            fjr = fj + r * mj
            for c in range(mi):
                # plain loops: a row has only a few entries, fewer than pay
                # for the call of a comprehension
                row = {}
                for k, x in na:
                    row[k + c] = x
                # (f_j M_a)[r,c] contributes -M_a[t,c] at f_j[r,t]
                for t, x in neg_cols[c]:
                    row[fjr + t] = x
                rows.append(row)
    return _Differential(rows, field, dom_bases, cod_bases, d0, d1)


def _unflatten(vec, blocks, field: FieldSpec) -> Dict[str, Matrix]:
    """Cut a flat vector into row-major matrices; blocks maps each key to
    its (offset, rows, cols)."""
    return {key: Matrix(field, tuple(tuple(vec[base + r * nc + c] for c in range(nc))
                                     for r in range(nr)), ncols=nc, _trusted=True)
            for key, (base, nr, nc) in blocks.items()}


def hom_basis(m: Representation, n: Representation) -> Tuple[Morphism, ...]:
    """Canonical basis of the space of homomorphisms m -> n."""
    diff = _differential(m, n)
    blocks = {v: (diff.dom_bases[v], n.dims[v], m.dims[v]) for v in m.quiver.vertices}
    return tuple(Morphism(m, n, _unflatten(vec, blocks, m.field))
                 for vec in kernel_basis(diff.matrix).entries)


def hom_ext_dims(m: Representation, n: Representation) -> Tuple[int, int]:
    """(dim Hom(m,n), dim Ext1(m,n)) from a single rank computation."""
    diff = _differential(m, n)
    r = _sparse_rank(diff.rows, diff.d0, diff.field)
    return diff.d0 - r, diff.d1 - r


def ext1(m: Representation, n: Representation) -> Tuple[ExtCocycle, ...]:
    """Canonical cocycle basis of Ext1(m, n).

    The cokernel of d0 is presented by the standard basis vectors sitting at
    the non-pivot coordinates of the RREF of the image (row space of the
    transposed differential); their classes form a basis and the choice is
    deterministic.
    """
    diff = _differential(m, n)
    pivots = set(rref(diff.matrix.transpose()).pivots)
    field = m.field
    blocks = {a.id: (diff.cod_bases[a.id], n.dims[a.target], m.dims[a.source])
              for a in m.quiver.arrows}
    one, zero = field.one, field.zero
    return tuple(ExtCocycle(m, n, _unflatten([one if i == coord else zero
                                              for i in range(diff.d1)], blocks, field))
                 for coord in range(diff.d1) if coord not in pivots)


def euler_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """The Euler bilinear form of the path algebra on dimension vectors."""
    check_dimvec(q, d)
    check_dimvec(q, e)
    total = sum(d[v] * e[v] for v in q.vertices)
    for a in q.arrows:
        total -= d[a.source] * e[a.target]
    return total


def is_brick(m: Representation) -> bool:
    """True when End(m) is one dimensional."""
    if m.is_zero:
        raise ValueError("the zero representation is not a brick candidate")
    return hom_ext_dims(m, m)[0] == 1


def are_orthogonal_bricks(x: Representation, y: Representation) -> bool:
    _check_pair(x, y)
    if not is_brick(x) or not is_brick(y):
        return False
    if hom_ext_dims(x, y)[0] != 0:
        return False
    return hom_ext_dims(y, x)[0] == 0


def has_brick_summand(m: Representation, y: Representation) -> bool:
    """Does m have a direct summand isomorphic to the brick y?

    Since End(y) is the ground field, every composite f g of g: y -> m and
    f: m -> y is c(f, g) id_y, and y splits off m exactly when some c(f, g)
    is nonzero: that scalar is invertible and the pair realizes the
    splitting.  The pairing c is bilinear, so it is nonzero on some pair of
    hom basis elements when it is nonzero at all, and c(f, g) can be read
    at one vertex v with y_v != 0 as the first row of f_v times the first
    column of g_v.
    """
    _check_pair(m, y)
    if not is_brick(y):
        raise ValueError("summand test requires a brick to look for")
    if m.is_zero:
        return False
    into = hom_basis(y, m)
    if not into:
        return False
    v = next(w for w in y.quiver.vertices if y.dims[w])
    cols = [tuple(row[0] for row in g.maps[v].entries) for g in into]
    row_times = m.field.row_times
    return any(any(row_times(f.maps[v].entries[0], cols))
               for f in hom_basis(m, y))


def is_reduced_kronecker(n: Representation) -> bool:
    """No simple injective summand: joint kernel of the arrow matrices is 0.

    Only meaningful for n-Kronecker shaped quivers (two vertices, all arrows
    parallel); the simple injective is the one supported at the common source.
    """
    shape = kronecker_shape(n.quiver)
    if shape is None:
        raise ValueError("reducedness test needs a Kronecker shaped quiver")
    _src, _tgt, arrow_ids = shape
    stacked = vstack([n.matrices[aid] for aid in arrow_ids])
    return stacked.rank() == n.dims[_src]
