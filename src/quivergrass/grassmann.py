"""Exhaustive enumeration of quiver Grassmannians over prime fields.

A point of G_d(M) is an arrow-stable tuple of subspaces with dimension
vector d, one canonical RREF basis matrix per vertex.  Each of the two
engines is a generator of (weight, point) pairs, a point being a
{vertex: subspace} dict:

* a general scan that walks vertices in topological order, so that by the
  time a vertex is processed every arrow into it has a fixed source subspace
  and only subspaces containing the span of the incoming images are tried;

* an invariant-subspace engine for Kronecker-shaped quivers with equal
  dimensions d = (k, k) and an invertible arrow matrix A*: points then
  correspond to subspaces of the source space invariant under all A*^{-1}A_i,
  and those are exactly the sums of cyclic closures of lines, found by a
  breadth-first walk.  This is what makes the larger bristle-variety
  instances finish in seconds instead of hours.

The engine is chosen by cost: when the source space has fewer lines than the
scan has candidates at its first vertex, the line closures are computed
first, and their number bounds the invariant engine's remaining work from
below (see _choose_engine).  A count multiplies by the number of choices at
each sink instead of walking them.

Counts are exact point counts over F_p.  The work budget of an enumeration
is charged here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
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

def _scan(m: Representation, d: DimVector, budget: _Budget,
          walk_sinks: bool = True) -> Iterator[Tuple[int, Point]]:
    """(weight, point) pairs of the topological-order scan.

    With walk_sinks the weights are 1.  Without it a sink vertex is not
    walked: its choices are exactly the subspaces containing its incoming
    image and constrain no later vertex, so the weight is multiplied by their
    number and the sink is left out of the point.
    """
    order = m.quiver.topological_order()
    # (source vertex, transposed arrow matrix) of every arrow into a vertex
    incoming = {v: [(a.source, m.matrices[a.id].transpose())
                    for a in m.quiver.arrows_into(v)] for v in order}
    counted = set() if walk_sinks else set(m.quiver.sinks())
    p = m.field.p
    chosen: Point = {}

    def walk(idx: int, weight: int) -> Iterator[Tuple[int, Point]]:
        if idx == len(order):
            yield weight, dict(chosen)
            return
        v = order[idx]
        images = [chosen[src] * t for src, t in incoming[v] if chosen[src].nrows]
        if images:
            lower = row_space(vstack(images))
        else:
            lower = Matrix.zeros(m.field, 0, m.dims[v])
        if lower.nrows > d[v]:
            return
        choices = gaussian_binomial(m.dims[v] - lower.nrows,
                                    d[v] - lower.nrows, p)
        budget.charge(choices)
        if v in counted:
            yield from walk(idx + 1, weight * choices)
            return
        for s in subspaces_containing(lower, d[v]):
            chosen[v] = s
            yield from walk(idx + 1, weight)

    return walk(0, 1)


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


def _line_closure(vec, op_rows, cap: int, p: int) -> Optional[List[list]]:
    """Basis rows of the smallest op-invariant subspace containing vec.

    None once the dimension would pass cap.  The basis is an incremental
    echelon form over F_p: every row has a leading 1 at its pivot and is zero
    at the pivots of the rows before it, so one pass in insertion order
    reduces a vector.  The op-images of each vector that enters the basis
    are queued and reduced in turn; the span is invariant when none is left.
    """
    basis: List[Tuple[int, list]] = []
    # (operator rows or None, vector): an image is computed only when popped,
    # so the images still pending when the cap is passed cost nothing
    pending = [(None, vec)]
    while pending:
        op, v = pending.pop()
        if op is not None:
            v = [sum(map(mul, r, v)) % p for r in op]
        for c, row in basis:
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        if len(basis) == cap:
            return None
        inv = pow(v[lead], p - 2, p)
        v = [x * inv % p for x in v]
        basis.append((lead, v))
        pending.extend((op, v) for op in op_rows)
    return [row for _, row in basis]


def _line_closures(m: Representation, d: DimVector, setup,
                   budget: _Budget) -> List[Matrix]:
    """The distinct closures of dimension at most k of the source lines.

    Charges one unit per line.  Each kept closure is canonicalized once.
    """
    src, _, _, ops = setup
    field = m.field
    n = m.dims[src]
    k = d[src]
    if k == 0:
        return []
    op_rows = [op.entries for op in ops]
    found: Dict[tuple, Matrix] = {}
    for vec in _projective_lines(field, n):
        budget.charge()
        rows = _line_closure(vec, op_rows, k, field.p)
        if rows is not None:
            cl = row_space(Matrix(field, rows, ncols=n, _trusted=True))
            found.setdefault(cl.entries, cl)
    return list(found.values())


def _invariant(m: Representation, d: DimVector, setup,
               line_closures: List[Matrix],
               budget: _Budget) -> Iterator[Tuple[int, Point]]:
    """(1, point) pairs of the merge walk over the line closures."""
    src, tgt, pivot, _ = setup
    k = d[src]
    pivot_t = m.matrices[pivot].transpose()

    def point(s1: Matrix) -> Tuple[int, Point]:
        return 1, {src: s1, tgt: row_space(s1 * pivot_t)}

    empty = Matrix.zeros(m.field, 0, m.dims[src])
    if k == 0:
        yield point(empty)
        return
    # every invariant subspace is the sum of the cyclic closures of the lines
    # through its basis vectors, so sums of small-closure lines reach them all
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

def _choose_engine(m: Representation, d: DimVector, setup,
                   budget: _Budget) -> Tuple[str, Optional[List[Matrix]]]:
    """The cheaper engine, with the line closures when it is the invariant one.

    G, the number of candidates at the first vertex, is the scan's first
    charge and a lower bound on its work.  The invariant engine charges one
    unit per line of the source space, so it is probed only when there are
    fewer lines than G.  With C distinct line closures its merge walk then
    charges at least C*(C+1) units (the empty subspace and each of the C
    level-one closures merged with every closure); it runs when that is at
    most G.  The probe's charges stay spent when the scan runs.
    """
    first = m.quiver.topological_order()[0]
    p = m.field.p
    g = gaussian_binomial(m.dims[first], d[first], p)
    if setup is None or gaussian_binomial(m.dims[setup[0]], 1, p) >= g:
        return "scan", None
    closures = _line_closures(m, d, setup, budget)
    c = len(closures)
    if c * (c + 1) <= g:
        return "invariant", closures
    return "scan", None


def _points(m: Representation, d: DimVector, budget_limit: int,
            walk_sinks: bool = True) -> Iterator[Tuple[int, Point]]:
    """(weight, point) pairs of G_d(m) from the chosen engine, under one budget."""
    if not m.field.is_prime:
        raise ValueError("Grassmannian enumeration needs a finite prime field")
    check_dimvec(m.quiver, d)
    if not dim_leq(d, m.dims):
        raise ValueError("target dimension vector exceeds the module's")
    budget = _Budget(budget_limit)
    setup = _invariant_setup(m, d)
    engine, closures = _choose_engine(m, d, setup, budget)
    if engine == "invariant":
        return _invariant(m, d, setup, closures, budget)
    return _scan(m, d, budget, walk_sinks)


def enumerate_submodules(m: Representation, d: DimVector,
                         budget: int = DEFAULT_BUDGET) -> GrassmannianReport:
    """All submodule points of m with dimension vector d, sorted canonically."""
    # the engines emit canonical RREF subspaces, one per vertex
    pts = [SubmodulePoint._trusted(m, s) for _, s in _points(m, d, budget)]
    pts.sort(key=lambda pt: pt.canonical_key())
    return GrassmannianReport(m, dict(d), tuple(pts), len(pts), m.field)


def count_submodules(m: Representation, d: DimVector,
                     budget: int = DEFAULT_BUDGET) -> int:
    """|G_d(m)(F_p)| without materializing the points or walking the sinks."""
    return sum(w for w, _ in _points(m, d, budget, walk_sinks=False))


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
    keep = [pt for pt in full.points
            if any((pt.subspaces[src] * n_rep.matrices[aid].transpose()).rank() > 0
                   for aid in arrow_ids)]
    return GrassmannianReport(n_rep, d, tuple(keep), len(keep), n_rep.field)
