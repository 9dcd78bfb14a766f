"""Exhaustive enumeration of quiver Grassmannians over prime fields.

A point of G_d(M) is an arrow-stable tuple of subspaces with dimension
vector d, one canonical RREF basis matrix per vertex.  Each of the three
paths is a generator of (weight, point) pairs, a point being a
{vertex: subspace} dict:

* a general scan that walks vertices in topological order, so that by the
  time a vertex is processed every arrow into it has a fixed source subspace
  and only subspaces containing the span of the incoming images are tried;

* for Kronecker-shaped quivers with equal dimensions d = (k, k) and an
  invertible arrow matrix A*, points correspond to the k-dimensional
  subspaces of the source space V invariant under all T_i = A*^{-1}A_i.
  The eigenline walk finds them when some set S of the T_i is split (V has
  a full flag of S-invariant subspaces).  Each S-invariant subspace of
  dimension j + 1 is W + l for an S-invariant W of dimension j and a common
  eigenline l of S on V/W, whose character is one of the flag's.  So the
  walk goes level by level from W = 0, with one kernel per (W, character),
  as in the submodule lattice method of the MeatAxe (Lux, Mueller and Ringe,
  1994), and keeps the last level's subspaces that the other T_i fix.  When
  2k > dim V it walks their annihilators in V* instead;

* the eigenspace decomposition, when the full set of T_i is split and its
  joint eigenspaces E_chi fill V, so that every T_i acts as a scalar on each
  E_chi.  This is the argument of the paper's Lemma 2: a submodule of a
  semisimple module is a direct summand, so an invariant W is the direct sum
  of its intersections with the E_chi, and every subspace of an E_chi is
  invariant.  The count is the sum over (k_chi) with sum k_chi = k of the
  products of [e_chi choose k_chi]_p, and the points are the direct sums of
  canonical subspaces of the E_chi.

The path is chosen by cost (see _choose_engine): the scan's first charge is
compared with a lower bound on the walk's charges, and the eigenspace
decomposition, which charges no more than either, runs whenever its
certificate holds.  A count multiplies by the number of choices at each sink
instead of walking them, and builds no points of the walk or of the
eigenspace decomposition.

Counts are exact point counts over F_p.  The work budget of an enumeration
is charged here and nowhere else (see _Budget).  The eigenspace
decomposition charges the kernels of its certificate, one kernel per
character for the E_chi on V and the point count, once, before the first
point, so a count and a list need the same budget.
"""

from __future__ import annotations

from bisect import bisect
from itertools import product
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .exactlinalg import (
    FieldSpec,
    Matrix,
    Record,
    enumerate_subspaces,
    gaussian_binomial,
    inverse,
    kernel_basis,
    row_space,
    subspaces_containing,
    vstack,
)
from .quiverrep import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DimVector,
    Representation,
    SubmodulePoint,
    check_dimvec,
    dim_leq,
    kronecker_shape,
    point_to_json,
)

Point = Dict[str, Matrix]


class _Budget:
    """Work counter of one enumeration.

    The scan charges the number of candidate subspaces at a vertex when it
    reaches them.  The eigenline walk, its split certificates and its cost
    bound charge one unit per eigenspace kernel and one per candidate
    (W, line).  The eigenspace decomposition charges, after the kernels of
    the certificate, one kernel per character for the eigenspaces E_chi on V
    and then the point count, once, before the first point; a count and a
    list charge the same.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"enumeration budget of {self.limit} work units exceeded")


class GrassmannianReport(Record):
    __slots__ = ("parent", "dimvec", "points", "count", "field")
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
# eigenline walk (Kronecker shape, equal dims, invertible arrow)
# ---------------------------------------------------------------------------
# A subspace is a tuple of rows, its canonical RREF basis.  An invariant
# U = W + l over an invariant hyperplane W has a character chi = (mu_i): the
# vectors v of l satisfy (T_i - mu_i) v in W for every operator T_i.

def _invariant_setup(m: Representation, d: DimVector):
    """(source, sink, pivot arrow A*, rows of each T_i) when points are
    invariant subspaces of the source space, else None."""
    shape = kronecker_shape(m.quiver)
    if shape is None:
        return None
    src, tgt, arrow_ids = shape
    if d[src] != d[tgt] or m.dims[src] != m.dims[tgt]:
        return None
    for pivot in arrow_ids:
        inv = inverse(m.matrices[pivot])
        if inv is not None:
            return src, tgt, pivot, [(inv * m.matrices[aid]).entries
                                     for aid in arrow_ids if aid != pivot]
    return None


def _projective_lines(field: FieldSpec, n: int):
    """One normalized representative per line of F_p^n (leading entry 1)."""
    p = field.p
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


class _Quotient:
    """Operators reduced modulo a subspace W.

    Reducing a column vector x modulo W subtracts x[c]*w for each basis row w
    of W with pivot c; P is that linear map, and its kernel is W.  The rows of
    P and of each P*T_i, with unit rows at the pivots of W, give every
    eigenspace modulo W with one kernel.
    """

    def __init__(self, field: FieldSpec, op_rows, w: tuple, n: int) -> None:
        self.field = field
        self.w = w
        self.n = n
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        self.pivots = [next(j for j, x in enumerate(row) if x) for row in w]
        add_scaled = field.add_scaled
        reduced = []
        for mat in [ident, *op_rows]:
            out = list(mat)
            for c, row in zip(self.pivots, w):
                for r, f in enumerate(row):
                    if f:
                        out[r] = add_scaled(out[r], -f, mat[c])
            # the rows at W's pivots are zero
            reduced.append([row for r, row in enumerate(out) if r not in self.pivots])
        self.proj, self.ops = reduced[0], reduced[1:]
        self.units = [ident[c] for c in self.pivots]

    def eigenspace(self, chi: tuple, budget: _Budget) -> tuple:
        """{v : (T_i - mu_i) v in W for the first len(chi) operators} modulo W.

        The canonical basis rows of its vectors that are zero at the pivots
        of W, a complement of W in it.  One work unit.
        """
        budget.charge()
        add_scaled = self.field.add_scaled
        rows = [add_scaled(t, -mu, q)
                for op, mu in zip(self.ops, chi) for t, q in zip(op, self.proj)]
        return kernel_basis(Matrix(self.field, rows + self.units, ncols=self.n,
                                   _trusted=True)).entries

    def extend(self, line) -> tuple:
        """The canonical basis of W + line.

        line is zero at W's pivots and has a leading 1, as every row of
        eigenspace() and every combination of them with a leading coefficient 1.
        """
        field = self.field
        lead = next(j for j, x in enumerate(line) if x)
        rows = [tuple(field.add_scaled(row, -row[lead], line)) if row[lead] else row
                for row in self.w]
        rows.insert(bisect(self.pivots, lead), tuple(line))
        return tuple(rows)


def _common_eigenline(quot: _Quotient, budget: _Budget, known: List[tuple]):
    """(character, eigenspace modulo W) with a nonzero eigenspace, or None.

    The characters already known are tried first; then a depth-first search
    fixes mu_1, mu_2, ... and goes deeper only where the eigenspace of the
    fixed prefix is still nonzero modulo W.
    """
    for chi in known:
        space = quot.eigenspace(chi, budget)
        if space:
            return chi, space

    def search(prefix: tuple):
        space = quot.eigenspace(prefix, budget)
        if not space:
            return None
        if len(prefix) == len(quot.ops):
            return prefix, space
        for mu in range(quot.field.p):
            found = search(prefix + (mu,))
            if found is not None:
                return found
        return None

    return search(())


def _split_characters(field: FieldSpec, op_rows, n: int,
                      budget: _Budget) -> Optional[List[tuple]]:
    """The distinct characters of a full flag of F^n invariant under the
    operators, or None if there is none.

    The flag is built greedily, one common eigenline of the operators on V/W
    at a time.  Every invariant W of a split V has one (V/W is split too), so
    the greedy flag fails only when V is not split.  One work unit per kernel.
    """
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
        w = quot.extend(space[0])
    return chars


def _fixes(field: FieldSpec, op_rows, w: tuple) -> bool:
    """Whether every operator maps the subspace with canonical basis w into it."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in w]
    for u in (field.row_times(v, op) for op in op_rows for v in w):
        for c, row in zip(pivots, w):
            if u[c]:
                u = field.add_scaled(u, -u[c], row)
        if any(u):
            return False
    return True


class _Walk(NamedTuple):
    """A split operator set S of the walked space, V or its dual V*."""
    ops: list       # rows of the operators in S, transposed on V*
    rest: list      # rows of the other operators, likewise
    chars: list     # the characters of a full S-invariant flag
    dual: bool      # whether the walked space is V*
    bound: int      # the lower bound on the walk's charges
    semisimple: bool  # S is the full set and its eigenspaces fill the space


def _cheapest_walk(m: Representation, d: DimVector, setup,
                   budget: _Budget) -> Optional[_Walk]:
    """The walk over the split operator set S with the smallest bound, or None.

    S is the full operator set when that is split (the certificate of
    _split_characters), else each single operator that is.  The walked space
    is V* with the transposed operators when 2k > dim V, so the walk has
    min(k, dim V - k) levels: a subspace is invariant exactly when its
    annihilator is invariant under the transposes.

    The bound c1*(1 + sum lines(e - 1)) holds when the walk has at least two
    levels.  Here e is the dimension of the eigenspace over 0 of one
    character, the sum runs over the characters, and c1 = sum lines(e) is the
    number of level-one subspaces: over each of them the walk meets, for
    every character, a kernel holding the eigenspace over 0 modulo a line,
    hence at least lines(e - 1) candidates.

    The same dimensions certify that the full set is semisimple: its joint
    eigenspaces are independent, so they fill the space exactly when
    sum e = dim V.  This holds on V* exactly when it holds on V.
    """
    src, _, _, op_rows = setup
    field, n = m.field, m.dims[src]
    dual = 2 * d[src] > n
    if dual:
        op_rows = [tuple(zip(*rows)) for rows in op_rows]
    r = len(op_rows)
    walks = []
    for subset in [range(r)] + [[i] for i in range(r) if r > 1]:
        ops = [op_rows[i] for i in subset]
        chars = _split_characters(field, ops, n, budget)
        if chars is None:
            continue
        quot = _Quotient(field, ops, (), n)
        dims = [len(quot.eigenspace(chi, budget)) for chi in chars]
        c1 = sum(gaussian_binomial(e, 1, field.p) for e in dims)
        bound = c1 * (1 + sum(gaussian_binomial(e - 1, 1, field.p) for e in dims))
        rest = [op for i, op in enumerate(op_rows) if i not in subset]
        semisimple = not rest and sum(dims) == n
        walks.append(_Walk(ops, rest, chars, dual, bound, semisimple))
        if not rest:
            break
    return min(walks, key=lambda walk: walk.bound, default=None)


def _eigenline_walk(m: Representation, d: DimVector, setup, walk: _Walk,
                    budget: _Budget, walk_sinks: bool = True
                    ) -> Iterator[Tuple[int, Point]]:
    """(1, point) pairs of the level-by-level walk over a split space.

    Level j holds the S-invariant j-dimensional subspaces.  Each W of a level
    gives, for each character, one kernel, and each line of that kernel
    modulo W a candidate W + l of the next level; the candidates are deduped
    by canonical basis.  Every candidate is charged, before it is built.  The
    last level keeps the subspaces that the operators outside S fix, and on
    V* each is mapped to its annihilator.  Without walk_sinks the points are
    left empty: a count needs only the weights.
    """
    src, tgt, pivot, _ = setup
    field = m.field
    n = m.dims[src]
    level = [()]
    for _ in range(n - d[src] if walk.dual else d[src]):
        nxt: Dict[tuple, None] = {}
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
                    nxt[quot.extend(line)] = None
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


def _eigenspace_sums(m: Representation, d: DimVector, setup, walk: _Walk,
                     budget: _Budget, walk_sinks: bool = True
                     ) -> Iterator[Tuple[int, Point]]:
    """(weight, point) pairs of a semisimple operator set, by eigenspaces.

    V is the direct sum of the joint eigenspaces E_chi of the full set, each
    found on V by one kernel.  A point is a sum of one k_chi-dimensional
    subspace of each E_chi, with sum k_chi = k; the point count is charged
    before the first point, and a count yields it as one weight.  A subspace
    of E_chi is the canonical basis t of a subspace of F^e_chi times E_chi's
    canonical basis b.  t*b is canonical already, because b is the identity
    at its pivots, so only a sum of two or more nonzero parts is reduced.
    """
    src, tgt, pivot, op_rows = setup
    field, n, k = m.field, m.dims[src], d[src]
    quot = _Quotient(field, op_rows, (), n)
    bases = [quot.eigenspace(chi, budget) for chi in walk.chars]
    dims = [len(basis) for basis in bases]
    # sizes[j]: the number of j-dimensional sums over the eigenspaces so far
    sizes = [1]
    for e in dims:
        sizes = [sum(c * gaussian_binomial(e, j - i, field.p)
                     for i, c in enumerate(sizes)) for j in range(len(sizes) + e)]
    budget.charge(sizes[k])
    if not walk_sinks:
        yield sizes[k], {}
        return
    arrow_t = m.matrices[pivot].transpose()
    parts: Dict[tuple, list] = {}   # (chi index, k_chi) -> subspaces of E_chi
    for ks in product(*(range(e + 1) for e in dims)):
        if sum(ks) != k:
            continue
        for i, j in enumerate(ks):
            if (i, j) not in parts:
                cols = tuple(zip(*bases[i]))
                parts[i, j] = [t.entries if dims[i] == n else
                               tuple(tuple(field.row_times(row, cols)) for row in t.entries)
                               for t in enumerate_subspaces(dims[i], j, field)]
        for combo in product(*(parts[i, j] for i, j in enumerate(ks))):
            s1 = Matrix(field, [row for part in combo for row in part], ncols=n,
                        _trusted=True)
            if sum(1 for part in combo if part) > 1:
                s1 = row_space(s1)
            yield 1, {src: s1, tgt: row_space(s1 * arrow_t)}


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _choose_engine(m: Representation, d: DimVector, setup,
                   budget: _Budget) -> Optional[_Walk]:
    """The walk to run, or None for the scan.

    G, the number of candidates at the first vertex, is the scan's first
    charge and a lower bound on its work.  The walk is probed only when the
    source space V has fewer lines than G, so 2 <= k <= dim V - 2 there unless
    V = 0.  When the full set is semisimple (the certificate of
    _cheapest_walk) the eigenspace decomposition runs: it charges the point
    count, and its points are some of the scan's G first-vertex candidates
    and each a candidate of the walk's last level.
    Otherwise the walk runs when the bound of _cheapest_walk is at most G.
    The probe's charges stay spent when the scan runs.
    """
    first = m.quiver.topological_order()[0]
    p = m.field.p
    g = gaussian_binomial(m.dims[first], d[first], p)
    if setup is None or gaussian_binomial(m.dims[setup[0]], 1, p) >= g:
        return None
    walk = _cheapest_walk(m, d, setup, budget)
    if walk is not None and (walk.semisimple or walk.bound <= g):
        return walk
    return None


def _points(m: Representation, d: DimVector, budget_limit: int,
            walk_sinks: bool = True) -> Iterator[Tuple[int, Point]]:
    """(weight, point) pairs of G_d(m) from the chosen path, under one budget."""
    if not m.field.is_prime:
        raise ValueError("Grassmannian enumeration needs a finite prime field")
    check_dimvec(m.quiver, d)
    if not dim_leq(d, m.dims):
        raise ValueError("target dimension vector exceeds the module's")
    budget = _Budget(budget_limit)
    setup = _invariant_setup(m, d)
    walk = _choose_engine(m, d, setup, budget)
    if walk is None:
        return _scan(m, d, budget, walk_sinks)
    if walk.semisimple:
        return _eigenspace_sums(m, d, setup, walk, budget, walk_sinks)
    return _eigenline_walk(m, d, setup, walk, budget, walk_sinks)


def enumerate_submodules(m: Representation, d: DimVector,
                         budget: int = DEFAULT_BUDGET) -> GrassmannianReport:
    """All submodule points of m with dimension vector d, sorted canonically."""
    # every path emits canonical RREF subspaces, one per vertex
    pts = [SubmodulePoint._trusted(m, s) for _, s in _points(m, d, budget)]
    pts.sort(key=lambda pt: pt.canonical_key())
    return GrassmannianReport(m, dict(d), tuple(pts), len(pts), m.field)


def count_submodules(m: Representation, d: DimVector,
                     budget: int = DEFAULT_BUDGET) -> int:
    """|G_d(m)(F_p)| without materializing the points or walking the sinks."""
    return sum(w for w, _ in _points(m, d, budget, walk_sinks=False))

