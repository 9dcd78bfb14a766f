"""Exhaustive enumeration of quiver Grassmannians over prime fields.

A point of G_d(M) is an arrow-stable tuple of subspaces with dimension
vector d, one canonical RREF basis matrix per vertex.  Each of the two
engines is a generator of points, as {vertex: subspace} dicts:

* a general scan that walks vertices in topological order, so that by the
  time a vertex is processed every arrow into it has a fixed source subspace
  and only subspaces containing the span of the incoming images are tried;

* an invariant-subspace engine for Kronecker-shaped quivers with equal
  dimensions d = (k, k) and an invertible arrow matrix A*: points then
  correspond to subspaces of the source space invariant under all A*^{-1}A_i,
  and those are exactly the sums of cyclic closures of lines, found by a
  breadth-first walk.  This is what makes the larger bristle-variety
  instances finish in seconds instead of hours.

Counts are exact point counts over F_p.  The work budget of an enumeration
is charged here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .exactlinalg import (
    FieldSpec,
    Matrix,
    gaussian_binomial,
    inverse,
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
    point_to_json,
)

#: default work budget of a single enumeration
DEFAULT_BUDGET = 10_000_000

# above this many first-vertex candidates the general scan is considered
# too slow and the invariant-subspace engine is preferred when it applies
SCAN_THRESHOLD = 200_000

Point = Dict[str, Matrix]


class BudgetExceeded(RuntimeError):
    """An enumeration needs more work units than its budget allows."""


class _Budget:
    """Work counter of one enumeration.

    The scan charges the number of candidate subspaces at a vertex when it
    reaches them; the invariant engine charges one unit per line closure and
    one per merge.
    """

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
            data["points"] = [point_to_json(pt) for pt in self.points]
        return data


# ---------------------------------------------------------------------------
# general scan
# ---------------------------------------------------------------------------

def _scan(m: Representation, d: DimVector, budget: _Budget) -> Iterator[Point]:
    order = m.quiver.topological_order()
    # (source vertex, transposed arrow matrix) of every arrow into a vertex
    incoming = {v: [(a.source, m.matrices[a.id].transpose())
                    for a in m.quiver.arrows_into(v)] for v in order}
    p = m.field.p
    chosen: Point = {}

    def walk(idx: int) -> Iterator[Point]:
        if idx == len(order):
            yield dict(chosen)
            return
        v = order[idx]
        images = [chosen[src] * t for src, t in incoming[v] if chosen[src].nrows]
        if images:
            lower = row_space(vstack(images))
        else:
            lower = Matrix.zeros(m.field, 0, m.dims[v])
        if lower.nrows > d[v]:
            return
        budget.charge(gaussian_binomial(m.dims[v] - lower.nrows,
                                        d[v] - lower.nrows, p))
        for s in subspaces_containing(lower, d[v]):
            chosen[v] = s
            yield from walk(idx + 1)

    return walk(0)


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


def _invariant(m: Representation, d: DimVector, setup,
               budget: _Budget) -> Iterator[Point]:
    src, tgt, pivot, ops = setup
    field = m.field
    n = m.dims[src]
    k = d[src]
    pivot_t = m.matrices[pivot].transpose()

    def point(s1: Matrix) -> Point:
        return {src: s1, tgt: row_space(s1 * pivot_t)}

    empty = Matrix.zeros(field, 0, n)
    if k == 0:
        yield point(empty)
        return
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
    reached = {empty.entries}
    frontier = [empty]
    while frontier:
        nxt = []
        for sub in frontier:
            for cl in line_closures:
                budget.charge()
                merged = row_space(vstack([sub, cl])) if sub.nrows else cl
                if merged.nrows > k or merged.entries in reached:
                    continue
                reached.add(merged.entries)
                nxt.append(merged)
                if merged.nrows == k:
                    yield point(merged)
        frontier = nxt


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

def _points(m: Representation, d: DimVector, budget_limit: int,
            strategy: Optional[str]) -> Iterator[Point]:
    """The points of G_d(m) from the chosen engine, under one budget."""
    if not m.field.is_prime:
        raise ValueError("Grassmannian enumeration needs a finite prime field")
    check_dimvec(m.quiver, d)
    if not dim_leq(d, m.dims):
        raise ValueError("target dimension vector exceeds the module's")
    budget = _Budget(budget_limit)
    setup = _invariant_setup(m, d)
    if strategy is None:
        first = m.quiver.topological_order()[0]
        cost = gaussian_binomial(m.dims[first], d[first], m.field.p)
        strategy = ("invariant" if setup is not None and cost > SCAN_THRESHOLD
                    else "scan")
    if strategy == "invariant":
        if setup is None:
            raise ValueError("invariant-subspace engine does not apply here")
        return _invariant(m, d, setup, budget)
    if strategy == "scan":
        return _scan(m, d, budget)
    raise ValueError(f"unknown strategy {strategy!r}")


def enumerate_submodules(m: Representation, d: DimVector,
                         budget: int = DEFAULT_BUDGET,
                         _strategy: Optional[str] = None) -> GrassmannianReport:
    """All submodule points of m with dimension vector d, sorted canonically."""
    pts = [SubmodulePoint(m, s) for s in _points(m, d, budget, _strategy)]
    pts.sort(key=lambda pt: pt.canonical_key())
    return GrassmannianReport(m, dict(d), tuple(pts), len(pts), m.field)


def count_submodules(m: Representation, d: DimVector,
                     budget: int = DEFAULT_BUDGET,
                     _strategy: Optional[str] = None) -> int:
    """|G_d(m)(F_p)| without materializing the points."""
    return sum(1 for _ in _points(m, d, budget, _strategy))


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
