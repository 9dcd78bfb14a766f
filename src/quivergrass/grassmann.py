"""Exhaustive enumeration of quiver Grassmannians over prime fields.

G_d(M) is materialized as the set of arrow-stable tuples of subspaces with
dimension vector d, each subspace in canonical RREF form.  Two engines:

* a general scan that walks vertices in topological order, so that by the
  time a vertex is processed every arrow into it has a fixed source subspace
  and only subspaces containing the span of the incoming images are tried;

* an invariant-subspace engine for Kronecker-shaped quivers with equal
  dimensions d = (k, k) and an invertible arrow matrix A*: points then
  correspond to subspaces of the source space invariant under all A*^{-1}A_i,
  and those are exactly the sums of cyclic closures of lines, found by a
  breadth-first walk.  This is what makes the larger bristle-variety
  instances finish in seconds instead of hours.

Counts are exact point counts over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactlinalg import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    FieldSpec,
    Matrix,
    gaussian_binomial,
    inverse,
    matrix_to_json,
    row_space,
    subspaces_containing,
    vstack,
)
from .quiverrep import (
    DimVector,
    Representation,
    SubmodulePoint,
    check_dimvec,
    dim_leq,
    kronecker_shape,
)

# above this many first-vertex candidates the general scan is considered
# too slow and the invariant-subspace engine is preferred when it applies
SCAN_THRESHOLD = 200_000


class _Budget:
    """Work counter; work units are candidate subspaces examined."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"enumeration budget of {self.limit} work units exceeded")


@dataclass(frozen=True)
class GrassmannianReport:
    parent: Representation
    dimvec: DimVector
    points: Tuple[SubmodulePoint, ...]
    count: int
    field: FieldSpec

    def to_json(self, count_only: bool = False) -> dict:
        data = {
            "dimvec": dict(sorted(self.dimvec.items())),
            "count": self.count,
        }
        if not count_only:
            data["points"] = [
                {v: matrix_to_json(s) for v, s in sorted(pt.subspaces.items())}
                for pt in self.points
            ]
        return data


def _check_enumeration_input(m: Representation, d: DimVector) -> None:
    if not m.field.is_prime:
        raise ValueError("Grassmannian enumeration needs a finite prime field")
    check_dimvec(m.quiver, d)
    if not dim_leq(d, m.dims):
        raise ValueError("target dimension vector exceeds the module's")


# ---------------------------------------------------------------------------
# general scan
# ---------------------------------------------------------------------------

def _scan_candidates(m: Representation, d: DimVector, order: List[str], idx: int,
                     chosen: Dict[str, Matrix], budget: _Budget):
    """Candidate subspaces at vertex order[idx], given all earlier choices."""
    v = order[idx]
    field = m.field
    ambient = m.dims[v]
    images = []
    for a in m.quiver.arrows_into(v):
        s_src = chosen.get(a.source)
        if s_src is None:
            continue  # source vertex comes later; impossible for acyclic order
        if s_src.nrows:
            images.append(s_src * m.matrices[a.id].transpose())
    if images:
        lower = row_space(vstack(images))
    else:
        lower = Matrix.zeros(field, 0, ambient)
    if lower.nrows > d[v]:
        return
    n_cands = gaussian_binomial(ambient - lower.nrows, d[v] - lower.nrows, field.p)
    budget.charge(n_cands)
    yield from subspaces_containing(lower, d[v])


def _scan_rec(m: Representation, d: DimVector, order: List[str], idx: int,
              chosen: Dict[str, Matrix], budget: _Budget, out: Optional[list],
              counter: List[int]) -> None:
    if idx == len(order):
        counter[0] += 1
        if out is not None:
            out.append(SubmodulePoint(m, dict(chosen)))
        return
    v = order[idx]
    for s in _scan_candidates(m, d, order, idx, chosen, budget):
        chosen[v] = s
        _scan_rec(m, d, order, idx + 1, chosen, budget, out, counter)
    chosen.pop(v, None)


def _enumerate_scan(m: Representation, d: DimVector, budget: _Budget,
                    materialize: bool) -> Tuple[int, list]:
    order = m.quiver.topological_order()
    out: Optional[list] = [] if materialize else None
    counter = [0]
    _scan_rec(m, d, order, 0, {}, budget, out, counter)
    return counter[0], (out or [])


# ---------------------------------------------------------------------------
# invariant-subspace engine (Kronecker shape, equal dims, invertible arrow)
# ---------------------------------------------------------------------------

def _invariant_setup(m: Representation, d: DimVector):
    """Operators (A_i) when the invariant-subspace engine applies, else None."""
    shape = kronecker_shape(m.quiver)
    if shape is None:
        return None
    src, tgt, arrow_ids = shape
    if d[src] != d[tgt] or m.dims[src] != m.dims[tgt]:
        return None
    pivot = None
    pivot_inv = None
    for aid in arrow_ids:
        inv = inverse(m.matrices[aid])
        if inv is not None:
            pivot, pivot_inv = aid, inv
            break
    if pivot is None:
        return None
    ops = [pivot_inv * m.matrices[aid] for aid in arrow_ids if aid != pivot]
    return src, tgt, pivot, ops


def _closure_of(rows: Matrix, ops: List[Matrix], cap: int) -> Optional[Matrix]:
    """Smallest op-invariant subspace containing rows, or None once dim > cap."""
    current = row_space(rows)
    while True:
        if current.nrows > cap:
            return None
        pieces = [current] + [current * op.transpose() for op in ops]
        grown = row_space(vstack(pieces))
        if grown.nrows == current.nrows:
            return current
        current = grown


def _enumerate_invariant(m: Representation, d: DimVector, setup,
                         budget: _Budget, materialize: bool) -> Tuple[int, list]:
    src, tgt, pivot, ops = setup
    field = m.field
    p = field.p
    n = m.dims[src]
    k = d[src]
    empty = Matrix.zeros(field, 0, n)
    if k == 0:
        pts = [_invariant_point(m, src, tgt, pivot, empty)] if materialize else []
        return 1, pts
    # every invariant subspace is the sum of the cyclic closures of the lines
    # through its basis vectors, so sums of small-closure lines reach them all
    line_closures: List[Matrix] = []
    seen_closures = set()
    for vec in _projective_lines(field, n):
        budget.charge()
        cl = _closure_of(Matrix(field, (vec,), ncols=n), ops, k)
        if cl is not None and cl.entries not in seen_closures:
            seen_closures.add(cl.entries)
            line_closures.append(cl)
    reached = {empty.entries: empty}
    frontier = [empty]
    while frontier:
        nxt = []
        for sub in frontier:
            for cl in line_closures:
                budget.charge()
                merged = row_space(vstack([sub, cl])) if sub.nrows else cl
                if merged.nrows > k or merged.entries in reached:
                    continue
                reached[merged.entries] = merged
                nxt.append(merged)
        frontier = nxt
    hits = [s for s in reached.values() if s.nrows == k]
    count = len(hits)
    pts = [_invariant_point(m, src, tgt, pivot, s) for s in hits] if materialize else []
    return count, pts


def _invariant_point(m: Representation, src: str, tgt: str, pivot: str,
                     s1: Matrix) -> SubmodulePoint:
    s2 = row_space(s1 * m.matrices[pivot].transpose())
    return SubmodulePoint(m, {src: s1, tgt: s2})


def _projective_lines(field: FieldSpec, n: int):
    """One normalized representative per line of F_p^n (leading entry 1)."""
    from itertools import product as iproduct
    p = field.p
    for lead in range(n):
        for tail in iproduct(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _first_vertex_cost(m: Representation, d: DimVector) -> int:
    v = m.quiver.topological_order()[0]
    return gaussian_binomial(m.dims[v], d[v], m.field.p)


def _run(m: Representation, d: DimVector, budget_limit: int, materialize: bool,
         strategy: Optional[str]) -> Tuple[int, list]:
    _check_enumeration_input(m, d)
    budget = _Budget(budget_limit)
    setup = _invariant_setup(m, d)
    if strategy == "invariant":
        if setup is None:
            raise ValueError("invariant-subspace engine does not apply here")
        return _enumerate_invariant(m, d, setup, budget, materialize)
    if strategy == "scan":
        return _enumerate_scan(m, d, budget, materialize)
    if strategy is not None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if setup is not None and _first_vertex_cost(m, d) > SCAN_THRESHOLD:
        return _enumerate_invariant(m, d, setup, budget, materialize)
    return _enumerate_scan(m, d, budget, materialize)


def enumerate_submodules(m: Representation, d: DimVector,
                         budget: int = DEFAULT_BUDGET,
                         _strategy: Optional[str] = None) -> GrassmannianReport:
    """All submodule points of m with dimension vector d, sorted canonically."""
    count, pts = _run(m, d, budget, True, _strategy)
    pts.sort(key=lambda pt: pt.canonical_key())
    return GrassmannianReport(m, dict(d), tuple(pts), count, m.field)


def count_submodules(m: Representation, d: DimVector,
                     budget: int = DEFAULT_BUDGET,
                     _strategy: Optional[str] = None) -> int:
    """|G_d(m)(F_p)| without materializing the points."""
    count, _ = _run(m, d, budget, False, _strategy)
    return count


def bristle_points(n_rep: Representation,
                   budget: int = DEFAULT_BUDGET) -> GrassmannianReport:
    """The (1,1)-submodule points carrying an indecomposable subrepresentation.

    On a Kronecker-shaped quiver a length-two submodule with dimension vector
    (1,1) is indecomposable exactly when some arrow acts nonzero on it.
    """
    shape = kronecker_shape(n_rep.quiver)
    if shape is None:
        raise ValueError("bristle points need a Kronecker shaped quiver")
    src, tgt, arrow_ids = shape
    d = {src: 1, tgt: 1}
    full = enumerate_submodules(n_rep, d, budget=budget)
    keep = []
    for pt in full.points:
        s1 = pt.subspaces[src]
        s2 = pt.subspaces[tgt]
        alive = False
        for aid in arrow_ids:
            if (s1 * n_rep.matrices[aid].transpose()).rank() > 0:
                alive = True
                break
        if alive:
            keep.append(pt)
    return GrassmannianReport(n_rep, d, tuple(keep), len(keep), n_rep.field)
