"""Finite acyclic quivers and their finite dimensional representations.

A representation assigns an exact vector space dimension to every vertex and
an exact matrix to every arrow, using the column-vector convention: the
matrix of an arrow a: i -> j has shape dims[j] x dims[i].

Subspaces of a representation are always stored as canonical RREF basis
matrices whose rows span the subspace, so equality of subspaces is equality
of matrices.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .exactlinalg import (
    FieldSpec,
    Matrix,
    Record,
    block_diag,
    matrix_from_json,
    matrix_to_json,
    pivot_columns,
    row_space,
)

DimVector = Dict[str, int]

#: default work budget of a single enumeration; the budget names live here,
#: in a module every CLI command loads, so commands that enumerate nothing
#: need not import grassmann
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """An enumeration needs more work units than its budget allows."""


class NotASubmodule(ValueError):
    """The given subspaces are not stable under all arrow maps."""


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class Quiver(Record):
    """Finite quiver with string vertex ids; acyclicity is enforced.

    The topological order is computed once, on construction.  It is derived
    from the fields, the vertices and the arrows, and is not one of them.
    """

    __slots__ = ("vertices", "arrows", "_order")

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow]) -> None:
        verts = tuple(vertices)
        arrs = tuple(Arrow(*a) for a in arrows)
        self._set(verts, arrs)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex ids")
        for v in verts:
            if not isinstance(v, str):
                raise ValueError(f"vertex ids must be strings, got {v!r}")
        ids = [a.id for a in arrs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        vset = set(verts)
        for a in arrs:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.id} has endpoints outside the quiver")
        # raises on a directed cycle
        object.__setattr__(self, "_order", self._topological_sort())

    def _fields(self) -> tuple:
        return (self.vertices, self.arrows)

    # every Representation and Morphism compares quivers, hence the identity test
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Quiver:
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows))

    def arrows_into(self, v: str) -> List[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def arrows_out_of(self, v: str) -> List[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def sinks(self) -> List[str]:
        has_out = {a.source for a in self.arrows}
        return [v for v in self.vertices if v not in has_out]

    def topological_order(self) -> List[str]:
        """Topological vertex order; ties are broken by sorted vertex id."""
        return list(self._order)

    def _topological_sort(self) -> Tuple[str, ...]:
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            changed = False
            for a in self.arrows_out_of(v):
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    ready.append(a.target)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(self.vertices):
            raise ValueError("quiver has a directed cycle")
        return tuple(order)

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if not self.vertices:
            return False
        adj = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def subquiver(self, vertices: Iterable[str]) -> "Quiver":
        """The full subquiver on the given vertices: every arrow between them."""
        keep_v = tuple(vertices)
        keep_vset = set(keep_v)
        if not keep_vset <= set(self.vertices):
            raise ValueError("unknown vertices in subquiver")
        return Quiver(keep_v, tuple(a for a in self.arrows
                                    if a.source in keep_vset and a.target in keep_vset))

    def edge_multiplicities(self) -> Dict[frozenset, int]:
        """Undirected edge multiset of the underlying graph."""
        mult: Dict[frozenset, int] = {}
        for a in self.arrows:
            key = frozenset((a.source, a.target))
            mult[key] = mult.get(key, 0) + 1
        return mult


def make_kronecker(n: int) -> Quiver:
    """The n-Kronecker quiver: vertices "1", "2" and arrows a1..an from 1 to 2."""
    if n < 1:
        raise ValueError("need at least one arrow")
    return Quiver(("1", "2"), tuple(Arrow(f"a{i + 1}", "1", "2") for i in range(n)))


def kronecker_shape(q: Quiver) -> Optional[Tuple[str, str, Tuple[str, ...]]]:
    """(source, sink, arrow ids) when q is shaped like a Kronecker quiver."""
    if len(q.vertices) != 2 or not q.arrows:
        return None
    src, tgt = q.arrows[0].source, q.arrows[0].target
    if src == tgt:
        return None
    for a in q.arrows:
        if a.source != src or a.target != tgt:
            return None
    return src, tgt, tuple(a.id for a in q.arrows)


def check_dimvec(q: Quiver, d: DimVector) -> None:
    if set(d.keys()) != set(q.vertices):
        raise ValueError("dimension vector keys must be exactly the vertices")
    for v, k in d.items():
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"bad dimension {k!r} at vertex {v}")


def dim_add(d: DimVector, e: DimVector) -> DimVector:
    return {v: d[v] + e[v] for v in d}

def dim_total(d: DimVector) -> int:
    return sum(d.values())

def dim_leq(d: DimVector, e: DimVector) -> bool:
    return all(d[v] <= e[v] for v in d)


class Representation(Record):
    """A representation of a quiver over an exact field."""

    __slots__ = ("quiver", "field", "dims", "matrices")

    def __init__(self, quiver: Quiver, field: FieldSpec, dims: DimVector,
                 matrices: Dict[str, Matrix]) -> None:
        check_dimvec(quiver, dims)
        self._set(quiver, field, dict(dims), dict(matrices))
        if set(self.matrices.keys()) != {a.id for a in self.quiver.arrows}:
            raise ValueError("matrices must be given for exactly the arrows")
        for a in self.quiver.arrows:
            m = self.matrices[a.id]
            want = (self.dims[a.target], self.dims[a.source])
            if m.shape != want:
                raise ValueError(
                    f"arrow {a.id}: {a.source}->{a.target} needs shape {want}, got {m.shape}")
            if m.field != self.field:
                raise ValueError(f"arrow {a.id} matrix is over the wrong field")

    @property
    def dim_vector(self) -> DimVector:
        return dict(self.dims)

    @property
    def total_dim(self) -> int:
        return dim_total(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0


def zero_representation(q: Quiver, field: FieldSpec) -> Representation:
    dims = {v: 0 for v in q.vertices}
    mats = {a.id: Matrix.zeros(field, 0, 0) for a in q.arrows}
    return Representation(q, field, dims, mats)


def simple(q: Quiver, v: str, field: FieldSpec) -> Representation:
    """The simple representation S(v): one dimensional at v, zero elsewhere."""
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v}")
    dims = {w: (1 if w == v else 0) for w in q.vertices}
    mats = {a.id: Matrix.zeros(field, dims[a.target], dims[a.source]) for a in q.arrows}
    return Representation(q, field, dims, mats)


def _paths_from(q: Quiver, v: str) -> Dict[str, List[Tuple[str, ...]]]:
    """All directed paths starting at v, as arrow-id tuples, keyed by endpoint."""
    paths: Dict[str, List[Tuple[str, ...]]] = {w: [] for w in q.vertices}
    paths[v].append(tuple())
    for w in q.topological_order():
        for p in list(paths[w]):
            for a in q.arrows_out_of(w):
                paths[a.target].append(p + (a.id,))
    for w in paths:
        paths[w].sort()
    return paths


def projective(q: Quiver, v: str, field: FieldSpec) -> Representation:
    """Indecomposable projective P(v); basis at w is the set of paths v -> w."""
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v}")
    paths = _paths_from(q, v)
    index = {w: {p: i for i, p in enumerate(paths[w])} for w in q.vertices}
    dims = {w: len(paths[w]) for w in q.vertices}
    mats = {}
    for a in q.arrows:
        rows = [[field.zero] * dims[a.source] for _ in range(dims[a.target])]
        for p, col in index[a.source].items():
            rows[index[a.target][p + (a.id,)]][col] = field.one
        mats[a.id] = Matrix(field, rows, ncols=dims[a.source])
    return Representation(q, field, dims, mats)


def direct_sum(m1: Representation, m2: Representation) -> Representation:
    if m1.quiver != m2.quiver or m1.field != m2.field:
        raise ValueError("direct sum needs the same quiver and field")
    dims = {v: m1.dims[v] + m2.dims[v] for v in m1.quiver.vertices}
    mats = {a.id: block_diag(m1.matrices[a.id], m2.matrices[a.id]) for a in m1.quiver.arrows}
    return Representation(m1.quiver, m1.field, dims, mats)


def rep_power(m: Representation, a: int) -> Representation:
    """Direct sum of a copies of m; copies are stacked in order."""
    if a < 0:
        raise ValueError("negative power")
    out = zero_representation(m.quiver, m.field)
    for _ in range(a):
        out = direct_sum(out, m)
    return out


class Morphism(Record):
    """A homomorphism of representations; intertwining is checked on build."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: Representation, target: Representation,
                 maps: Dict[str, Matrix]) -> None:
        if source.quiver != target.quiver:
            raise ValueError("morphism endpoints live on different quivers")
        if source.field != target.field:
            raise ValueError("morphism endpoints live over different fields")
        self._set(source, target, dict(maps))
        q = self.source.quiver
        if set(self.maps.keys()) != set(q.vertices):
            raise ValueError("need one matrix per vertex")
        for v in q.vertices:
            want = (self.target.dims[v], self.source.dims[v])
            if self.maps[v].shape != want:
                raise ValueError(f"map at {v} needs shape {want}, got {self.maps[v].shape}")
        for a in q.arrows:
            lhs = self.target.matrices[a.id] * self.maps[a.source]
            rhs = self.maps[a.target] * self.source.matrices[a.id]
            if lhs != rhs:
                raise ValueError(f"intertwining fails at arrow {a.id}")

    def compose(self, inner: "Morphism") -> "Morphism":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        maps = {v: self.maps[v] * inner.maps[v] for v in self.maps}
        return Morphism(inner.source, self.target, maps)

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.maps.values())

    def is_injective(self) -> bool:
        return all(self.maps[v].rank() == self.source.dims[v] for v in self.maps)

    def is_surjective(self) -> bool:
        return all(self.maps[v].rank() == self.target.dims[v] for v in self.maps)


class SubmodulePoint(Record):
    """A point of a quiver Grassmannian: one canonical subspace per vertex.

    subspaces[v] is a k_v x dims[v] matrix whose rows are the canonical RREF
    basis of the chosen subspace.  Canonicalization happens on construction,
    except through _trusted, which the enumeration engines use.
    """

    __slots__ = ("parent", "subspaces")

    def __init__(self, parent: Representation, subspaces: Dict[str, Matrix]) -> None:
        if set(subspaces.keys()) != set(parent.quiver.vertices):
            raise ValueError("need one subspace per vertex")
        canon = {}
        for v, s in subspaces.items():
            if s.ncols != parent.dims[v]:
                raise ValueError(f"subspace at {v} has ambient dim {s.ncols}, "
                                 f"expected {parent.dims[v]}")
            if s.field != parent.field:
                raise ValueError("subspace over the wrong field")
            canon[v] = row_space(s)
        self._set(parent, canon)

    @classmethod
    def _trusted(cls, parent: Representation,
                 subspaces: Dict[str, Matrix]) -> "SubmodulePoint":
        """A point from canonical RREF bases, one per vertex, taken as given."""
        pt = object.__new__(cls)
        object.__setattr__(pt, "parent", parent)
        object.__setattr__(pt, "subspaces", subspaces)
        return pt

    @property
    def dim_vector(self) -> DimVector:
        return {v: s.nrows for v, s in self.subspaces.items()}

    def _restricted_arrows(self) -> Optional[Dict[str, Matrix]]:
        """Each arrow's matrix on the chosen bases, or None if one leaves them.

        The coordinates of a vector in a canonical RREF basis S are its entries
        at S's pivot columns, so the image rows S_src A^T lie in S_tgt exactly
        when coords * S_tgt == image; the restricted arrow is coords^T.
        """
        field = self.parent.field
        pivots = {v: pivot_columns(s) for v, s in self.subspaces.items()}
        mats = {}
        for a in self.parent.quiver.arrows:
            image = self.subspaces[a.source] * self.parent.matrices[a.id].transpose()
            piv = pivots[a.target]
            coords = Matrix(field, tuple(tuple(row[c] for c in piv) for row in image.entries),
                            ncols=len(piv), _trusted=True)
            if coords * self.subspaces[a.target] != image:
                return None
            mats[a.id] = coords.transpose()
        return mats

    def canonical_key(self):
        subs = self.subspaces
        return tuple((subs[v].nrows, subs[v].entries) for v in self.parent.quiver._order)


def sub_representation(pt: SubmodulePoint):
    """The subrepresentation carried by a stable point, with its inclusion.

    Returns (sub, incl) where incl: sub -> parent.  Raises NotASubmodule when
    some arrow map leaves the chosen subspaces.
    """
    parent = pt.parent
    q = parent.quiver
    mats = pt._restricted_arrows()
    if mats is None:
        raise NotASubmodule("subspaces are not stable under the arrow maps")
    dims = {v: pt.subspaces[v].nrows for v in q.vertices}
    incl = {v: pt.subspaces[v].transpose() for v in q.vertices}
    sub = Representation(q, parent.field, dims, mats)
    inclusion = Morphism(sub, parent, incl)
    return sub, inclusion


def change_of_basis(m: Representation, g: Dict[str, Matrix]) -> Representation:
    """Conjugate every arrow matrix by the invertible vertex matrices g."""
    from .exactlinalg import inverse
    q = m.quiver
    ginv = {}
    for v in q.vertices:
        if g[v].shape != (m.dims[v], m.dims[v]):
            raise ValueError(f"base change at {v} has wrong shape")
        inv = inverse(g[v])
        if inv is None:
            raise ValueError(f"base change at {v} is singular")
        ginv[v] = inv
    mats = {a.id: g[a.target] * m.matrices[a.id] * ginv[a.source] for a in q.arrows}
    return Representation(q, m.field, dict(m.dims), mats)


def random_invertible(field: FieldSpec, n: int, rng: random.Random) -> Matrix:
    """A uniformly sampled invertible n x n matrix (rejection sampling)."""
    while True:
        if field.is_prime:
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows, ncols=n)
        if m.rank() == n:
            return m


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"id": a.id, "from": a.source, "to": a.target} for a in q.arrows],
    }


def _reject_unknown_keys(data: dict, known, what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")


def quiver_from_json(data: dict) -> Quiver:
    if not isinstance(data, dict) or "vertices" not in data or "arrows" not in data:
        raise ValueError("quiver JSON needs 'vertices' and 'arrows'")
    _reject_unknown_keys(data, ("vertices", "arrows"), "quiver JSON")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("quiver vertices must be a list of strings")
    if not isinstance(data["arrows"], list):
        raise ValueError("quiver arrows must be a list")
    arrows = []
    for a in data["arrows"]:
        if not (isinstance(a, dict)
                and all(isinstance(a.get(k), str) for k in ("id", "from", "to"))):
            raise ValueError(f"bad arrow entry {a!r}")
        _reject_unknown_keys(a, ("id", "from", "to"), f"arrow {a['id']!r}")
        arrows.append(Arrow(a["id"], a["from"], a["to"]))
    return Quiver(tuple(vertices), tuple(arrows))


def field_to_json(field: FieldSpec) -> dict:
    if field.is_prime:
        return {"type": "prime", "p": field.p}
    return {"type": "rational"}


def field_from_json(data: dict) -> FieldSpec:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("field JSON needs a 'type'")
    if data["type"] == "prime":
        _reject_unknown_keys(data, ("type", "p"), "field JSON")
        return FieldSpec.prime(data.get("p"))
    if data["type"] == "rational":
        _reject_unknown_keys(data, ("type",), "field JSON")
        return FieldSpec.rational()
    raise ValueError(f"unknown field type {data['type']!r}")


def representation_to_json(m: Representation) -> dict:
    return {
        "quiver": quiver_to_json(m.quiver),
        "field": field_to_json(m.field),
        "dims": {v: m.dims[v] for v in m.quiver.vertices},
        "matrices": {a.id: matrix_to_json(m.matrices[a.id]) for a in m.quiver.arrows},
    }


def dimvec_from_json(q: Quiver, data, what: str) -> DimVector:
    """Dimension vector from JSON: an object with a plain int for each vertex."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    for v in q.vertices:
        if v not in data:
            raise ValueError(f"{what} is missing vertex {v!r}")
    check_dimvec(q, data)
    return {v: data[v] for v in q.vertices}


def representation_from_json(data: dict) -> Representation:
    if not isinstance(data, dict):
        raise ValueError("representation JSON must be an object")
    for key in ("quiver", "field", "dims", "matrices"):
        if key not in data:
            raise ValueError(f"representation JSON is missing '{key}'")
    _reject_unknown_keys(data, ("quiver", "field", "dims", "matrices"),
                         "representation JSON")
    q = quiver_from_json(data["quiver"])
    field = field_from_json(data["field"])
    dims = dimvec_from_json(q, data["dims"], "dims")
    if not isinstance(data["matrices"], dict):
        raise ValueError("matrices must be an object")
    _reject_unknown_keys(data["matrices"], [a.id for a in q.arrows], "matrices")
    mats = {}
    for a in q.arrows:
        if a.id not in data["matrices"]:
            raise ValueError(f"matrices is missing arrow {a.id!r}")
        mats[a.id] = matrix_from_json(field, data["matrices"][a.id],
                                      dims[a.target], dims[a.source])
    return Representation(q, field, dims, mats)


def point_to_json(pt: SubmodulePoint) -> dict:
    return {v: matrix_to_json(s) for v, s in sorted(pt.subspaces.items())}
