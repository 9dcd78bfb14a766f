"""Exhaustive enumeration of quiver Grassmannians over prime fields.

A point of G_d(M) is an arrow-stable tuple of subspaces with dimension
vector d, one canonical RREF basis matrix per vertex.  Each of the three
engines is a generator of (weight, point) pairs, a point being a
{vertex: subspace} dict:

* a general scan that walks vertices in topological order, so that by the
  time a vertex is processed every arrow into it has a fixed source subspace
  and only subspaces containing the span of the incoming images are tried;

* for Kronecker-shaped quivers with equal dimensions d = (k, k) and an
  invertible arrow matrix A*, points correspond to the k-dimensional
  subspaces of the source space V invariant under all T_i = A*^{-1}A_i, and
  two engines find those:

  - the eigenline walk, when V is split (has a full flag of invariant
    subspaces).  Each invariant subspace of dimension j + 1 is W + l for an
    invariant W of dimension j and a common eigenline l of the T_i on V/W,
    whose character is one of the flag's.  So the walk goes level by level
    from W = 0, with one kernel per (W, character), as in the submodule
    lattice method of the MeatAxe (Lux, Mueller and Ringe, 1994);

  - otherwise, the sweep and merge walk: every invariant subspace is a sum
    of cyclic closures of lines, found by a breadth-first walk over the
    closures of all lines of V.

The engine is chosen by cost (see _choose_engine): the scan's first charge is
compared with a lower bound on the other engines' charges.  A count
multiplies by the number of choices at each sink instead of walking them.

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
    kernel_basis,
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
    reaches them.  The eigenline walk and its split certificate charge one
    unit per kernel and one per candidate (W, line).  The sweep charges one
    unit per line closure and the merge walk one per merge.
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
# invariant subspaces (Kronecker shape, equal dims, invertible arrow):
# the sweep of all lines and the merge walk over their closures
# ---------------------------------------------------------------------------

def _invariant_setup(m: Representation, d: DimVector):
    """(source, sink, pivot arrow A*, rows of each T_i) when points are
    invariant subspaces of the source space, else None."""
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
    op_rows = [(pivot_inv * m.matrices[aid]).entries for aid in arrow_ids if aid != pivot]
    return src, tgt, pivot, op_rows


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
    src, _, _, op_rows = setup
    field = m.field
    n = m.dims[src]
    k = d[src]
    if k == 0:
        return []
    found: Dict[tuple, Matrix] = {}
    for vec in _projective_lines(field, n):
        budget.charge()
        rows = _line_closure(vec, op_rows, k, field.p)
        if rows is not None:
            cl = row_space(Matrix(field, rows, ncols=n, _trusted=True))
            found.setdefault(cl.entries, cl)
    return list(found.values())


def _invariant_point(m: Representation, setup, s1: Matrix) -> Tuple[int, Point]:
    """(1, point) of an invariant source subspace s1, with its image under A*."""
    src, tgt, pivot, _ = setup
    return 1, {src: s1, tgt: row_space(s1 * m.matrices[pivot].transpose())}


def _invariant(m: Representation, d: DimVector, setup,
               line_closures: List[Matrix],
               budget: _Budget) -> Iterator[Tuple[int, Point]]:
    """(1, point) pairs of the merge walk over the line closures."""
    src = setup[0]
    k = d[src]
    empty = Matrix.zeros(m.field, 0, m.dims[src])
    if k == 0:
        yield _invariant_point(m, setup, empty)
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
                    yield _invariant_point(m, setup, merged)
        frontier = nxt


def _projective_lines(field: FieldSpec, n: int):
    """One normalized representative per line of F_p^n (leading entry 1)."""
    from itertools import product as iproduct
    p = field.p
    for lead in range(n):
        for tail in iproduct(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


# ---------------------------------------------------------------------------
# eigenline walk (the same setting, on a split source space)
# ---------------------------------------------------------------------------
# A subspace is a tuple of rows, its canonical RREF basis.  An invariant
# U = W + l over an invariant hyperplane W has a character chi = (mu_i): the
# vectors v of l satisfy (T_i - mu_i) v in W for every operator T_i.

class _Quotient:
    """The operators T_i reduced modulo an invariant subspace W.

    Reducing a column vector x modulo W subtracts x[c]*w for each basis row w
    of W with pivot c; P is that linear map.  The rows of P and of each P*T_i
    give every eigenspace over W with one kernel.
    """

    def __init__(self, field: FieldSpec, op_rows, w: tuple, n: int) -> None:
        self.field = field
        self.w = w
        self.n = n
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        add_scaled = field.add_scaled
        reduced = []
        for mat in [ident, *op_rows]:
            out = list(mat)
            for row in w:
                c = next(j for j, x in enumerate(row) if x)
                for r, f in enumerate(row):
                    if f:
                        out[r] = add_scaled(out[r], -f, mat[c])
            reduced.append(out)
        self.proj, self.ops = reduced[0], reduced[1:]

    def eigenspace(self, chi: tuple, budget: _Budget) -> tuple:
        """{v : (T_i - mu_i) v in W for the first len(chi) operators}.

        The canonical basis rows; the space contains W.  One work unit.
        """
        budget.charge()
        add_scaled = self.field.add_scaled
        rows = [add_scaled(t, -mu, q)
                for op, mu in zip(self.ops, chi) for t, q in zip(op, self.proj)]
        return kernel_basis(Matrix(self.field, rows, ncols=self.n, _trusted=True)).entries

    def lines(self, space: tuple) -> List[list]:
        """Basis rows of space/W, zero at the pivots of W, in RREF."""
        rows = [self.field.row_times(v, self.proj) for v in space]
        return [list(r) for r in
                row_space(Matrix(self.field, rows, ncols=self.n, _trusted=True)).entries]

    def extend(self, line) -> tuple:
        """The canonical basis of W + line.

        line is zero at W's pivots and has a leading 1, as every row of
        lines() and every combination of them with a leading coefficient 1.
        """
        field = self.field
        lead = next(j for j, x in enumerate(line) if x)
        rows = [tuple(field.add_scaled(row, -row[lead], line)) if row[lead] else row
                for row in self.w]
        rows.append(tuple(line))
        rows.sort(key=lambda row: next(j for j, x in enumerate(row) if x))
        return tuple(rows)


def _common_eigenline(quot: _Quotient, budget: _Budget, known: List[tuple]):
    """(character, eigenspace) with the eigenspace larger than W, or None.

    The characters already known are tried first; then a depth-first search
    fixes mu_1, mu_2, ... and goes deeper only where the eigenspace of the
    fixed prefix is still larger than W.
    """
    dim_w = len(quot.w)
    for chi in known:
        space = quot.eigenspace(chi, budget)
        if len(space) > dim_w:
            return chi, space

    def search(prefix: tuple):
        space = quot.eigenspace(prefix, budget)
        if len(space) == dim_w:
            return None
        if len(prefix) == len(quot.ops):
            return prefix, space
        for mu in range(quot.field.p):
            found = search(prefix + (mu,))
            if found is not None:
                return found
        return None

    return search(())


def _split_characters(m: Representation, setup,
                      budget: _Budget) -> Optional[List[tuple]]:
    """The distinct characters of a full invariant flag, or None if there is none.

    The flag is built greedily, one common eigenline of the T_i on V/W at a
    time.  Every invariant W of a split V has one (V/W is split too), so the
    greedy flag fails only when V is not split.  One work unit per kernel.
    """
    src, _, _, op_rows = setup
    field = m.field
    n = m.dims[src]
    chars: List[tuple] = []
    w: tuple = ()
    while len(w) < n:
        quot = _Quotient(field, op_rows, w, n)
        found = _common_eigenline(quot, budget, chars)
        if found is None:
            return None
        chi, space = found
        if chi not in chars:
            chars.append(chi)
        w = quot.extend(quot.lines(space)[0])
    return chars


def _eigenline_walk(m: Representation, d: DimVector, setup, chars: List[tuple],
                    budget: _Budget) -> Iterator[Tuple[int, Point]]:
    """(1, point) pairs of the level-by-level walk over a split source space.

    Level j holds the invariant j-dimensional subspaces.  Each W of a level
    gives, for each character, one kernel, and each line of that kernel
    modulo W a candidate W + l of the next level; the candidates are deduped
    by canonical basis.  Every candidate is charged, before it is built.
    """
    src, _, _, op_rows = setup
    field = m.field
    n = m.dims[src]
    level = [()]
    for _ in range(d[src]):
        nxt: Dict[tuple, None] = {}
        for w in level:
            quot = _Quotient(field, op_rows, w, n)
            for chi in chars:
                basis = quot.lines(quot.eigenspace(chi, budget))
                budget.charge(gaussian_binomial(len(basis), 1, field.p))
                for coeffs in _projective_lines(field, len(basis)):
                    line = [0] * n
                    for c, row in zip(coeffs, basis):
                        if c:
                            line = field.add_scaled(line, c, row)
                    nxt[quot.extend(line)] = None
        level = list(nxt)
    for w in level:
        yield _invariant_point(m, setup, Matrix(field, w, ncols=n, _trusted=True))


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _choose_engine(m: Representation, d: DimVector, setup,
                   budget: _Budget) -> Tuple[str, Optional[list]]:
    """The cheaper engine, with what it needs: characters or line closures.

    G, the number of candidates at the first vertex, is the scan's first
    charge and a lower bound on its work.  The other engines are probed only
    when the source space V has fewer lines than G, so 2 <= k <= dim V - 2
    there unless V = 0.  The probes' charges stay spent when the scan runs.

    * On a split source space (the certificate of _split_characters) the
      eigenline walk runs when its lower bound c1*(1 + sum lines(e - 1)) is
      at most G.  Here e is the dimension of the eigenspace over 0 of one
      character, the sum runs over the characters, and c1 = sum lines(e) is
      the number of level-one subspaces: over each of them the walk meets,
      for every character, a kernel holding the eigenspace over 0 modulo a
      line, hence at least lines(e - 1) candidates.
    * Otherwise the line closures are computed, one unit per line.  With C
      distinct closures the merge walk charges at least C*(C+1) units (the
      empty subspace and each of the C level-one closures merged with every
      closure); it runs when that is at most G.
    """
    first = m.quiver.topological_order()[0]
    p = m.field.p
    g = gaussian_binomial(m.dims[first], d[first], p)
    if setup is None or gaussian_binomial(m.dims[setup[0]], 1, p) >= g:
        return "scan", None
    chars = _split_characters(m, setup, budget)
    if chars is not None:
        quot = _Quotient(m.field, setup[3], (), m.dims[setup[0]])
        dims = [len(quot.eigenspace(chi, budget)) for chi in chars]
        c1 = sum(gaussian_binomial(e, 1, p) for e in dims)
        if c1 * (1 + sum(gaussian_binomial(e - 1, 1, p) for e in dims)) <= g:
            return "eigenline", chars
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
    engine, found = _choose_engine(m, d, setup, budget)
    if engine == "eigenline":
        return _eigenline_walk(m, d, setup, found, budget)
    if engine == "invariant":
        return _invariant(m, d, setup, found, budget)
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
