"""Module families, the extension-category functor and its checkers.

The central object is a pair of orthogonal bricks X, Y with n-dimensional
first extension group Ext1(Y, X).  Out of a fixed cocycle basis for that
group one builds, for every representation N of the n-arrow Kronecker quiver,
a module M fitting in an exact sequence 0 -> X^a -> M -> Y^b -> 0 whose
gluing data is N itself; this assignment is functorial, exact and fully
faithful onto the subcategory of such middle terms.  The checkers in this
module verify the finitely testable consequences: hom-dimension preservation,
the bristle correspondence of (1,1)-submodules, and the submodule condition
that every submodule of dimension vector x+y of a reduced middle term is
again such a middle term over a single X and Y (an "E-bristle").
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactlinalg import (
    FieldSpec,
    Matrix,
    Record,
    block2x2,
    gaussian_binomial,
    kron,
    row_space,
)
from .grassmann import count_submodules, enumerate_submodules
from .homext import (
    ExtCocycle,
    are_orthogonal_bricks,
    ext1,
    hom_basis,
    hom_ext_dims,
    has_brick_summand,
    is_brick,
    is_reduced_kronecker,
)
from .quiverrep import (
    DEFAULT_BUDGET,
    Arrow,
    DimVector,
    Morphism,
    Quiver,
    Representation,
    SubmodulePoint,
    dim_add,
    kronecker_shape,
    make_kronecker,
    point_to_json,
    rep_power,
    simple,
    sub_representation,
)


class NotOrthogonalBricks(ValueError):
    """The given pair is not a pair of orthogonal bricks."""


class ZeroExt(ValueError):
    """The extension group that should drive the construction vanishes."""


class DistinctnessViolated(ValueError):
    """Eigenvalue parameters must be pairwise distinct and nonzero."""


class NotReduced(ValueError):
    """The module has a forbidden simple injective (or Y-) direct summand."""


# ---------------------------------------------------------------------------
# module families on Kronecker quivers
# ---------------------------------------------------------------------------

def case2_X(lambdas: Sequence, field: FieldSpec) -> Representation:
    """Brick family on the 3-Kronecker quiver with prescribed eigenvalues.

    Dimension (n, n) where n = len(lambdas): the first arrow acts as the
    identity, the second as diag(lambdas), the third as the cyclic shift
    e_i -> e_{i+1} (indices mod n).  The lambdas must be pairwise distinct
    and nonzero, which over F_p requires p > n.
    """
    n = len(lambdas)
    if n < 2:
        raise ValueError("need at least two eigenvalue parameters")
    coerced = [field.coerce(l) for l in lambdas]
    bad = (any(c == field.zero for c in coerced)
           or len(set(coerced)) != len(coerced))
    if bad:
        msg = "eigenvalue parameters must be pairwise distinct and nonzero"
        if field.is_prime and field.p <= n:
            msg += (f"; over F_{field.p} there are only {field.p - 1} nonzero "
                    f"values, so {n} distinct ones cannot exist (need p > n)")
        raise DistinctnessViolated(msg)
    q = make_kronecker(3)
    ident = Matrix.identity(field, n)
    diag = Matrix(field, [[coerced[i] if i == j else 0 for j in range(n)]
                          for i in range(n)], ncols=n)
    shift = Matrix(field, [[1 if i == (j + 1) % n else 0 for j in range(n)]
                           for i in range(n)], ncols=n)
    return Representation(q, field, {"1": n, "2": n},
                          {"a1": ident, "a2": diag, "a3": shift})


def case2_Y(field: FieldSpec) -> Representation:
    """The (1,1) brick on the 3-Kronecker quiver killed by all but the first arrow."""
    q = make_kronecker(3)
    one = Matrix(field, [[1]], ncols=1)
    zero = Matrix(field, [[0]], ncols=1)
    return Representation(q, field, {"1": 1, "2": 1},
                          {"a1": one, "a2": zero, "a3": zero})


def remark_Xprime(l1, l2, field: FieldSpec) -> Representation:
    """(2,2) brick on the 3-Kronecker quiver with a nilpotent third arrow.

    First arrow the identity, second diag(l1, l2) with l1, l2 distinct and
    nonzero, third the nilpotent map e_1 -> e_2, e_2 -> 0.  Unlike the cyclic
    family above it has a submodule of dimension vector (1,1), spanned by e_2
    on both sides.
    """
    c1, c2 = field.coerce(l1), field.coerce(l2)
    if c1 == field.zero or c2 == field.zero or c1 == c2:
        raise DistinctnessViolated(
            "the two eigenvalue parameters must be distinct and nonzero")
    q = make_kronecker(3)
    ident = Matrix.identity(field, 2)
    diag = Matrix(field, [[c1, 0], [0, c2]], ncols=2)
    nilp = Matrix(field, [[0, 0], [1, 0]], ncols=2)
    return Representation(q, field, {"1": 2, "2": 2},
                          {"a1": ident, "a2": diag, "a3": nilp})


def kronecker_preprojective(m: int, field: FieldSpec) -> Representation:
    """The exceptional 2-Kronecker module of dimension vector (m, m+1).

    Arrow matrices are the two (m+1) x m shift blocks: identity on top of a
    zero row, and a zero row on top of the identity.
    """
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    q = make_kronecker(2)
    top = Matrix(field, [[1 if i == j else 0 for j in range(m)]
                         for i in range(m + 1)], ncols=m)
    bot = Matrix(field, [[1 if i == j + 1 else 0 for j in range(m)]
                         for i in range(m + 1)], ncols=m)
    return Representation(q, field, {"1": m, "2": m + 1}, {"a1": top, "a2": bot})


# ---------------------------------------------------------------------------
# Case 1 assembly: a new source over a representation-infinite subquiver
# ---------------------------------------------------------------------------

def case1_pair(q: Quiver, omega: str, x_on_qprime: Representation
               ) -> Tuple[Representation, Representation, int]:
    """Zero-extend a module across a new source and pair it with the source simple.

    omega must be a source of q, and x_on_qprime a module on the full
    subquiver at the remaining vertices.  Returns (x, y, n) with x the
    extension of x_on_qprime by a zero space at omega, y the simple at omega,
    and n = dim Ext1(y, x), which equals the sum of dim x at the heads of the
    arrows leaving omega.
    """
    if omega not in q.vertices:
        raise ValueError(f"unknown vertex {omega}")
    if q.arrows_into(omega):
        raise ValueError(f"{omega} is not a source")
    rest = [v for v in q.vertices if v != omega]
    qprime = q.subquiver(rest)
    if x_on_qprime.quiver != qprime:
        raise ValueError("module does not live on the quiver minus the source")
    h, e = hom_ext_dims(x_on_qprime, x_on_qprime)
    if h != 1:
        raise ValueError("the module to extend must be a brick")
    if e != 0:
        warnings.warn("module to extend is a brick but not exceptional "
                      "(it has self-extensions)", stacklevel=2)
    field = x_on_qprime.field
    dims = {v: (0 if v == omega else x_on_qprime.dims[v]) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        if a.source == omega or a.target == omega:
            mats[a.id] = Matrix.zeros(field, dims[a.target], dims[a.source])
        else:
            mats[a.id] = x_on_qprime.matrices[a.id]
    x = Representation(q, field, dims, mats)
    y = simple(q, omega, field)
    n = hom_ext_dims(y, x)[1]
    structural = sum(x.dims[a.target] for a in q.arrows_out_of(omega))
    if n != structural:
        raise AssertionError(
            f"extension dimension {n} disagrees with the arrow-head count {structural}")
    if not are_orthogonal_bricks(x, y):
        raise NotOrthogonalBricks("zero-extension and source simple fail orthogonality")
    return x, y, n


# ---------------------------------------------------------------------------
# the eta construction
# ---------------------------------------------------------------------------

class EtaContext(Record):
    """A pair of orthogonal bricks with a fixed ordered cocycle basis."""

    __slots__ = ("x", "y", "n", "cocycles", "xdim", "ydim")
    x: Representation
    y: Representation
    n: int
    cocycles: Tuple[ExtCocycle, ...]
    xdim: DimVector
    ydim: DimVector


class EtaWitness(Record):
    """A built middle term with its exact-sequence data."""

    __slots__ = ("m", "a", "b", "mu", "pi")
    m: Representation
    a: int
    b: int
    mu: Morphism   # X^a -> m, injective
    pi: Morphism   # m -> Y^b, surjective


def make_eta_context(x: Representation, y: Representation) -> EtaContext:
    if not are_orthogonal_bricks(x, y):
        raise NotOrthogonalBricks("need a pair of orthogonal bricks")
    res = ext1(y, x)
    if res.dim == 0:
        raise ZeroExt("the pair has no extensions to glue with")
    return EtaContext(x, y, res.dim, res.basis, x.dim_vector, y.dim_vector)


def _shuffle_mu(field: FieldSpec, xv: int, a: int, mv: int) -> Matrix:
    """Matrix of X_v^a -> M_v: copy-major coordinates into the tensor block."""
    rows = [[field.zero] * (a * xv) for _ in range(mv)]
    for i in range(xv):
        for c in range(a):
            rows[i * a + c][c * xv + i] = field.one
    return Matrix(field, rows, ncols=a * xv)


def _shuffle_pi(field: FieldSpec, xv: int, yv: int, a: int, b: int, mv: int) -> Matrix:
    """Matrix of M_v -> Y_v^b: tensor block onto copy-major coordinates."""
    rows = [[field.zero] * mv for _ in range(b * yv)]
    for j in range(yv):
        for c in range(b):
            rows[c * yv + j][xv * a + j * b + c] = field.one
    return Matrix(field, rows, ncols=mv)


def build_eta(ctx: EtaContext, n_rep: Representation) -> EtaWitness:
    """Apply the extension-glueing functor to a Kronecker representation.

    Convention: the source space of n_rep carries the Y-multiplicity b, the
    sink space the X-multiplicity a, and the i-th arrow matrix (in quiver
    order) is glued with the i-th basis cocycle.  Vertex spaces of the result
    are (X_v tensor k^a) + (Y_v tensor k^b) in that block order, and each
    arrow acts by the block matrix
    [[X_alpha (x) I_a, sum_i eps_i,alpha (x) gamma_i], [0, Y_alpha (x) I_b]].
    """
    shape = kronecker_shape(n_rep.quiver)
    if shape is None or len(shape[2]) != ctx.n:
        raise ValueError(f"need a representation of the {ctx.n}-arrow Kronecker quiver")
    if n_rep.field != ctx.x.field:
        raise ValueError("field mismatch between context and representation")
    src, tgt, arrow_ids = shape
    field = ctx.x.field
    b = n_rep.dims[src]
    a = n_rep.dims[tgt]
    gammas = [n_rep.matrices[aid] for aid in arrow_ids]   # each a x b
    q = ctx.x.quiver
    x, y = ctx.x, ctx.y
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
    m = Representation(q, field, dims, mats)
    xa_rep = rep_power(x, a)
    yb_rep = rep_power(y, b)
    mu_maps = {v: _shuffle_mu(field, x.dims[v], a, dims[v]) for v in q.vertices}
    pi_maps = {v: _shuffle_pi(field, x.dims[v], y.dims[v], a, b, dims[v])
               for v in q.vertices}
    mu = Morphism(xa_rep, m, mu_maps)
    pi = Morphism(m, yb_rep, pi_maps)
    for v in q.vertices:
        comp = pi_maps[v] * mu_maps[v]
        if not comp.is_zero:
            raise AssertionError(f"projection after inclusion is nonzero at {v}")
        if mu_maps[v].rank() != a * x.dims[v] or pi_maps[v].rank() != b * y.dims[v]:
            raise AssertionError(f"exactness rank bookkeeping fails at {v}")
    return EtaWitness(m, a, b, mu, pi)


# ---------------------------------------------------------------------------
# E-bristles and condition (C)
# ---------------------------------------------------------------------------

def is_E_bristle(ctx: EtaContext, u: Representation) -> bool:
    """Indecomposable middle term of a single-X, single-Y exact sequence.

    Checks, in order: dimension vector equals xdim + ydim; Hom(X, u) = k f
    with f injective and Hom(u, Y) = k g with g surjective, at every vertex;
    u is a brick.  The Hom conditions say that u is a middle term of
    0 -> X -> u -> Y -> 0: g f lies in Hom(X, Y) = 0, and the image of f and
    the kernel of g both have dimension vector xdim.  Conversely, applying
    Hom(X, -) and Hom(-, Y) to the sequence gives Hom(X, u) = Hom(X, X) = k
    and Hom(u, Y) = Hom(Y, Y) = k, spanned by the inclusion and the
    projection.  Such a u is indecomposable exactly when it is a brick: an
    endomorphism h acts on X by a scalar c and induces a scalar c' on Y; if
    c' != c then (h - c)/(c' - c) splits the sequence, and if c' = c then
    h - c factors through Hom(Y, X) = 0.
    """
    if u.quiver != ctx.x.quiver or u.field != ctx.x.field:
        raise ValueError("candidate lives on the wrong quiver or field")
    if u.dims != dim_add(ctx.xdim, ctx.ydim):
        return False
    into = hom_basis(ctx.x, u).basis
    if len(into) != 1 or not into[0].is_injective():
        return False
    onto = hom_basis(u, ctx.y).basis
    return len(onto) == 1 and onto[0].is_surjective() and is_brick(u)


class ConditionCReport(Record):
    __slots__ = ("holds", "checked", "violations")
    holds: bool
    checked: int
    violations: Tuple[SubmodulePoint, ...]

    def to_json(self, count_only: bool = False) -> dict:
        data = {"holds": self.holds, "checked": self.checked,
                "violation_count": len(self.violations)}
        if not count_only:
            data["violations"] = [point_to_json(pt) for pt in self.violations]
        return data


def check_condition_C(ctx: EtaContext, witness: EtaWitness,
                      budget: int = DEFAULT_BUDGET) -> ConditionCReport:
    """Are all submodules of dimension vector x+y of the witness E-bristles?

    The witness must be reduced (no direct summand isomorphic to ctx.y);
    a non-reduced witness is rejected with NotReduced since the statement
    presupposes reducedness.
    """
    if has_brick_summand(witness.m, ctx.y):
        raise NotReduced("the witness has a direct summand isomorphic to the Y brick")
    d = dim_add(ctx.xdim, ctx.ydim)
    report = enumerate_submodules(witness.m, d, budget=budget)
    violations = []
    for pt in report.points:
        sub, _ = sub_representation(pt)
        if not is_E_bristle(ctx, sub):
            violations.append(pt)
    return ConditionCReport(not violations, report.count, tuple(violations))


# ---------------------------------------------------------------------------
# lemma checkers
# ---------------------------------------------------------------------------

class SubmoduleIsoReport(Record):
    """Outcome of checking all submodules of a fixed dimension vector."""

    __slots__ = ("holds", "count", "failures")
    holds: bool
    count: int
    failures: Tuple[SubmodulePoint, ...]

    def to_json(self, count_only: bool = False) -> dict:
        data = {"holds": self.holds, "count": self.count,
                "failure_count": len(self.failures)}
        if not count_only:
            data["failures"] = [point_to_json(pt) for pt in self.failures]
        return data


def _power_test(x: Representation) -> Callable[[SubmodulePoint], bool]:
    """For a brick x: is a submodule point U of a power x^a itself a power of x?

    Hom(x, x^a) = k^a because End(x) = k, so Hom(x, U) is a subspace W of
    k^a of some dimension h, and the image of the evaluation map from
    x (x) W is a copy of x^h inside U.  Hence U is isomorphic to a power of
    x exactly when its dimension vector is h times that of x.

    So W -> x (x) W is a bijection from the h-dimensional subspaces of k^a
    onto the submodules of x^a isomorphic to x^h, and every submodule of
    dimension vector h*dim x is a power of x exactly when there are
    [a choose h]_p of them.  The lemma checkers count first and run this test
    only on the points of a dimension vector whose count is off.
    """
    if not is_brick(x):
        raise ValueError("power test requires a brick")

    def is_power(pt: SubmodulePoint) -> bool:
        sub, _ = sub_representation(pt)
        h = hom_ext_dims(x, sub)[0]
        return all(sub.dims[v] == h * x.dims[v] for v in x.quiver.vertices)
    return is_power


def check_lemma1(x: Representation, a: int,
                 budget: int = DEFAULT_BUDGET) -> SubmoduleIsoReport:
    """Every submodule of x^a with the dimension vector of x is a copy of x.

    x must be a brick.  The lemma holds exactly when there are [a choose 1]_p
    such submodules (see _power_test).  Only when the count is off are they
    enumerated, and the U with dim Hom(x, U) != 1 are listed as failures.
    """
    if a < 1:
        raise ValueError("need at least one copy")
    is_power = _power_test(x)
    xa = rep_power(x, a)
    count = count_submodules(xa, x.dim_vector, budget=budget)
    failures: Tuple[SubmodulePoint, ...] = ()
    if count != gaussian_binomial(a, 1, x.field.p):
        report = enumerate_submodules(xa, x.dim_vector, budget=budget)
        failures = tuple(pt for pt in report.points if not is_power(pt))
    return SubmoduleIsoReport(not failures, count, failures)


class Lemma2Report(Record):
    __slots__ = ("holds", "counts", "failures")
    holds: bool
    counts: Dict[int, int]          # w -> number of (w,w)-submodules
    failures: Tuple[Tuple[int, SubmodulePoint], ...]

    def to_json(self, count_only: bool = False) -> dict:
        data = {"holds": self.holds,
                "counts": {str(w): c for w, c in sorted(self.counts.items())},
                "failure_count": len(self.failures)}
        if not count_only:
            data["failures"] = [{"w": w, "point": point_to_json(pt)}
                                for w, pt in self.failures]
        return data


def check_lemma2(x: Representation, a: int,
                 budget: int = DEFAULT_BUDGET) -> Lemma2Report:
    """Square-dimension submodules of x^a are powers of x.

    x must be a Kronecker-shaped brick with equal vertex dimensions (n, n).
    For every w from 0 to a*n, all (w,w)-submodules U of x^a must be
    isomorphic to x^s with w = s*n; in particular none may exist when n does
    not divide w.  So the lemma holds at w exactly when the (w,w) count is
    [a choose w/n]_p, or 0 when n does not divide w (see _power_test).  Only
    a w whose count is off is enumerated, and its U with w != h*n for
    h = dim Hom(x, U) are listed as failures.
    """
    shape = kronecker_shape(x.quiver)
    if shape is None:
        raise ValueError("need a Kronecker shaped module")
    src, tgt, _ = shape
    n = x.dims[src]
    if x.dims[tgt] != n:
        raise ValueError("need equal dimensions at both vertices")
    if a < 1:
        raise ValueError("need at least one copy")
    is_power = _power_test(x)
    xa = rep_power(x, a)
    counts: Dict[int, int] = {}
    failures: List[Tuple[int, SubmodulePoint]] = []
    for w in range(a * n + 1):
        d = {src: w, tgt: w}
        counts[w] = count_submodules(xa, d, budget=budget)
        if counts[w] != (0 if w % n else gaussian_binomial(a, w // n, x.field.p)):
            report = enumerate_submodules(xa, d, budget=budget)
            failures.extend((w, pt) for pt in report.points if not is_power(pt))
    return Lemma2Report(not failures, counts, tuple(failures))


class FullnessReport(Record):
    __slots__ = ("lhs", "rhs", "equal")
    lhs: int    # dim Hom(n1, n2) on the Kronecker side
    rhs: int    # dim Hom(eta n1, eta n2)
    equal: bool

    def to_json(self) -> dict:
        return {"hom_dim_kronecker": self.lhs, "hom_dim_image": self.rhs,
                "equal": self.equal}


def check_eta_fullness(ctx: EtaContext, n1: Representation,
                       n2: Representation) -> FullnessReport:
    """Hom dimensions agree before and after applying the functor."""
    lhs = hom_ext_dims(n1, n2)[0]
    m1 = build_eta(ctx, n1).m
    m2 = build_eta(ctx, n2).m
    rhs = hom_ext_dims(m1, m2)[0]
    return FullnessReport(lhs, rhs, lhs == rhs)


class BijectionReport(Record):
    __slots__ = ("lhs", "rhs", "equal")
    lhs: int    # |G_{(1,1)}(N)|
    rhs: int    # |G_{x+y}(eta N)|
    equal: bool

    def to_json(self) -> dict:
        return {"bristle_count": self.lhs, "image_submodule_count": self.rhs,
                "equal": self.equal}


def _bristle_count(n_rep: Representation, budget: int) -> int:
    """|G_{(1,1)}(N)| for reduced N."""
    if not is_reduced_kronecker(n_rep):
        raise NotReduced("the Kronecker representation has a simple injective summand")
    src, tgt, _ = kronecker_shape(n_rep.quiver)
    return count_submodules(n_rep, {src: 1, tgt: 1}, budget=budget)


def check_bijection(ctx: EtaContext, n_rep: Representation,
                    budget: int = DEFAULT_BUDGET) -> BijectionReport:
    """Compare |G_{(1,1)}(N)| with |G_{x+y}(eta N)| for reduced N."""
    lhs = _bristle_count(n_rep, budget)
    witness = build_eta(ctx, n_rep)
    d = dim_add(ctx.xdim, ctx.ydim)
    rhs = count_submodules(witness.m, d, budget=budget)
    return BijectionReport(lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# shipped instances and the counterexample demo
# ---------------------------------------------------------------------------

def case2_instance(field: FieldSpec, n: int = 2,
                   lambdas: Optional[Sequence] = None) -> EtaContext:
    """Context for the cyclic-shift brick pair with default eigenvalues 1..n."""
    if lambdas is None:
        lambdas = list(range(1, n + 1))
    if len(lambdas) != n:
        raise ValueError("need exactly n eigenvalue parameters")
    x = case2_X(lambdas, field)
    y = case2_Y(field)
    ctx = make_eta_context(x, y)
    if ctx.n != n:
        raise AssertionError(f"extension dimension {ctx.n} differs from n={n}")
    return ctx


def case1_quiver() -> Quiver:
    """Two-arrow Kronecker core 1 => 2 with an extra source w -> 2."""
    return Quiver(("1", "2", "w"),
                  (Arrow("a1", "1", "2"), Arrow("a2", "1", "2"),
                   Arrow("b1", "w", "2")))


def case1_instance(field: FieldSpec, m: int = 1) -> EtaContext:
    """Context built from a zero-extended preprojective and the new source simple."""
    q = case1_quiver()
    xq = kronecker_preprojective(m, field)
    x, y, _n = case1_pair(q, "w", xq)
    return make_eta_context(x, y)


def coordinate_inclusion_N(field: FieldSpec, n: int) -> Representation:
    """Reduced (1, n) Kronecker representation: i-th arrow = i-th coordinate."""
    q = make_kronecker(n)
    mats = {}
    for i in range(n):
        col = [[1] if j == i else [0] for j in range(n)]
        mats[f"a{i + 1}"] = Matrix(field, col, ncols=1)
    return Representation(q, field, {"1": 1, "2": n}, mats)


def regular_N(field: FieldSpec) -> Representation:
    """Indecomposable reduced (2,2) module on K(2): identity and one Jordan block."""
    q = make_kronecker(2)
    ident = Matrix.identity(field, 2)
    nilp = Matrix(field, [[0, 0], [1, 0]], ncols=2)
    return Representation(q, field, {"1": 2, "2": 2}, {"a1": ident, "a2": nilp})


def preinjective_N(field: FieldSpec) -> Representation:
    """Indecomposable reduced (3,2) module on K(2): the two 2x3 shift blocks."""
    q = make_kronecker(2)
    left = Matrix(field, [[1, 0, 0], [0, 1, 0]], ncols=3)
    right = Matrix(field, [[0, 1, 0], [0, 0, 1]], ncols=3)
    return Representation(q, field, {"1": 3, "2": 2}, {"a1": left, "a2": right})


def remark_N(field: FieldSpec, b: int) -> Representation:
    """Indecomposable reduced K(2)-modules with sink dimension 2 and source dimension b."""
    if b == 1:
        return kronecker_preprojective(1, field)
    if b == 2:
        return regular_N(field)
    if b == 3:
        return preinjective_N(field)
    raise ValueError("sink dimension 2 forces source dimension 1, 2 or 3 "
                     "for an indecomposable module")


class RemarkReport(Record):
    __slots__ = ("condition_c", "witness_point", "witness_is_violation",
                 "counterexample_found")
    condition_c: ConditionCReport
    witness_point: SubmodulePoint       # the non-bristle submodule X + V
    witness_is_violation: bool
    counterexample_found: bool

    def to_json(self, count_only: bool = False) -> dict:
        data = {
            "condition_c": self.condition_c.to_json(count_only=count_only),
            "witness_is_violation": self.witness_is_violation,
            "counterexample_found": self.counterexample_found,
        }
        if not count_only:
            data["witness_point"] = point_to_json(self.witness_point)
        return data


def remark_counterexample_demo(field: FieldSpec, b: int = 1,
                               budget: int = DEFAULT_BUDGET) -> RemarkReport:
    """Exhibit the failure of the submodule condition for the nilpotent pair.

    Builds the context from the (2,2) brick with nilpotent third arrow,
    applies the functor to an indecomposable reduced N with sink dimension 2,
    and produces the explicit submodule (first X copy) + (the (1,1) submodule
    of the second X copy), which has dimension vector x+y but is not an
    E-bristle; the condition-(C) scan must list it among the violations.
    """
    if field.is_prime and field.p < 3:
        raise ValueError("need two distinct nonzero eigenvalues, so p >= 3")
    xprime = remark_Xprime(1, 2, field)
    y = case2_Y(field)
    ctx = make_eta_context(xprime, y)
    n_rep = remark_N(field, b)
    witness = build_eta(ctx, n_rep)
    point = _x_plus_v_point(ctx, witness)
    sub, _ = sub_representation(point)
    point_is_bristle = is_E_bristle(ctx, sub)
    report = check_condition_C(ctx, witness, budget=budget)
    is_violation = point in report.violations
    found = (not point_is_bristle) and is_violation and not report.holds
    return RemarkReport(report, point, is_violation, found)


def _x_plus_v_point(ctx: EtaContext, witness: EtaWitness) -> SubmodulePoint:
    """The submodule mu(X + V) of the witness, V the (1,1) submodule of X.

    Needs a >= 2 copies of the (2,2) brick inside the witness; the point
    takes all of copy one and the e_2-line of copy two, per vertex.
    """
    if witness.a < 2:
        raise ValueError("the explicit counterexample needs at least two X copies")
    m = witness.m
    field = m.field
    subs = {}
    for v in m.quiver.vertices:
        xv = ctx.x.dims[v]
        # coordinates of X^a are copy-major: copy c holds c*xv .. c*xv + xv - 1
        rows = []
        for i in range(xv):
            e = [field.zero] * (witness.a * xv)
            e[0 * xv + i] = field.one
            rows.append(e)
        e = [field.zero] * (witness.a * xv)
        e[1 * xv + (xv - 1)] = field.one   # the e_2 line of copy two
        rows.append(e)
        inside = Matrix(field, rows, ncols=witness.a * xv)
        image = inside * witness.mu.maps[v].transpose()
        subs[v] = row_space(image)
    return SubmodulePoint(m, subs)
