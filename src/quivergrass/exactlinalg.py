"""Exact linear algebra over prime fields F_p and over the rationals.

Everything here is exact: prime field elements are Python ints reduced into
[0, p), rational entries are fractions.Fraction in lowest terms.  No floats
anywhere.  FieldSpec alone knows how entries reduce: every matrix operation and
kernel here is one body over its row primitives (x + f*y, c*x, a row times a
list of columns; on the sparse rows of a rank: taking a row in, clearing one
column of it by a pivot row, making a pivot row).  Matrices are dense.  The
canonical reduced row echelon form (RREF), kernel bases, inverses and the
enumeration of all k-dimensional subspaces of F_p^n by canonical RREF
representatives run on the dense Gauss-Jordan kernel.  A rank runs forward
elimination on sparse {column: entry} rows, of the matrix or its transpose;
over Q those rows hold integers and the elimination is fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _primitive(x: dict) -> dict:
    """A nonzero sparse int row divided by the gcd of its entries."""
    g = gcd(*x.values())
    return x if g == 1 else {j: a // g for j, a in x.items()}


class Record:
    """Read-only value whose fields are its class's __slots__, in order.

    The constructor takes the fields in that order.  Records of one class
    compare equal and hash alike field by field (a record equals itself at
    once), repr as Name(field=value, ...), and refuse assignment with
    AttributeError.  A subclass that checks its fields does so in its own
    __init__ and stores them with _set.  One that keeps derived state in
    slots after its fields overrides _fields to return the fields alone.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    # every Matrix product compares fields and every Representation compares
    # quivers, hence the identity test
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class FieldSpec(Record):
    """Exact coefficient field: a prime field F_p or the rationals.

    kind is "prime" (with 2 <= p < 2**31) or "rational" (p is None).
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: Optional[int] = None) -> None:
        self._set(kind, p)
        if kind == "prime":
            if not isinstance(p, int) or not (2 <= p < 2 ** 31):
                raise ValueError(f"prime field needs an int 2 <= p < 2^31, got {p!r}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        elif kind == "rational":
            if p is not None:
                raise ValueError("rational field takes no characteristic")
        else:
            raise ValueError(f"unknown field kind {kind!r}")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls("rational")

    @property
    def is_prime(self) -> bool:
        return self.kind == "prime"

    @property
    def zero(self) -> Scalar:
        return 0 if self.is_prime else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.is_prime else Fraction(1)

    def coerce(self, x) -> Scalar:
        """Bring x into canonical form for this field.

        Prime fields accept ints and Fractions whose denominator is a unit
        mod p; rationals accept ints and Fractions.
        """
        if self.is_prime:
            p = self.p
            if isinstance(x, bool):
                raise TypeError("bool is not a field scalar")
            if isinstance(x, int):
                return x % p
            if isinstance(x, Fraction):
                den = x.denominator % p
                if den == 0:
                    raise ValueError(f"{x} has no image in F_{p}")
                return (x.numerator % p) * self.inv(den) % p
            raise TypeError(f"cannot coerce {type(x).__name__} into F_{p}")
        if isinstance(x, bool):
            raise TypeError("bool is not a field scalar")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q")

    def inv(self, x: Scalar) -> Scalar:
        if self.is_prime:
            x = x % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(x, -1, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / x

    # Row primitives: each returns a new canonical row, as a list.

    def add_scaled(self, x, f, y) -> list:
        """The row x + f*y."""
        p = self.p
        if p is None:
            return [a + f * b for a, b in zip(x, y)]
        return [(a + f * b) % p for a, b in zip(x, y)]

    def scale_row(self, c, x) -> list:
        """The row c*x."""
        p = self.p
        if p is None:
            return [c * a for a in x]
        return [c * a % p for a in x]

    def row_times(self, x, cols) -> list:
        """The row x times each column in cols; an empty x gives zeros."""
        p = self.p
        if p is None:
            z = Fraction(0)
            return [sum(map(mul, x, col), z) for col in cols]
        return [sum(map(mul, x, col)) % p for col in cols]

    # Rank primitives on sparse rows, {column: nonzero entry} dicts.  A rank
    # needs each row only up to a nonzero factor, so over Q they hold ints.

    def sparse_row(self, x: dict) -> dict:
        """A new sparse row on the line of x for the rank to eliminate: over
        Q, x times the lcm of its denominators, in ints."""
        if self.p is not None:
            return dict(x)
        den = lcm(*[a.denominator for a in x.values()])
        return {j: a.numerator * (den // a.denominator) for j, a in x.items()}

    def sparse_pivot(self, x: dict) -> dict:
        """The pivot row on the line of x: scaled to 1 at its first column
        (its first key) over F_p; over Q, divided by the gcd of its entries."""
        p = self.p
        if p is None:
            return _primitive(x)
        c = self.inv(next(iter(x.values())))
        return {j: c * a % p for j, a in x.items()}

    def sparse_eliminate(self, x: dict, c: int, y: dict) -> dict:
        """A row on the line of x - (x[c]/y[c]) y, which is zero at column c,
        for a pivot row y; x may be updated in place.  Over Q it is
        e*x - f*y with e/f = y[c]/x[c] in lowest terms and e > 0, divided
        by the gcd of its entries when e > 1: the factor e is where the ints
        would outgrow the row's line, as in Bareiss elimination."""
        p = self.p
        f = x[c]
        if p is None:
            e = y[c]
            g = gcd(e, f) if e > 0 else -gcd(e, f)
            e //= g
            f //= g
            if e != 1:
                x = {j: e * a for j, a in x.items()}
            for j, b in y.items():
                a = x.get(j, 0) - f * b
                if a:
                    x[j] = a
                else:
                    del x[j]
            return _primitive(x) if e != 1 and x else x
        for j, b in y.items():
            a = (x.get(j, 0) - f * b) % p
            if a:
                x[j] = a
            else:
                del x[j]
        return x


class Matrix:
    """Immutable dense matrix with exact entries over a FieldSpec.

    Stored row major as a tuple of row tuples; entries are canonical for the
    field (reduced mod p, or Fraction in lowest terms).  Column-vector
    convention is used throughout: a matrix of shape (r, c) maps F^c -> F^r.
    """

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence[Scalar]],
                 ncols: Optional[int] = None, _trusted: bool = False):
        self.field = field
        if _trusted:
            rows = tuple(entries)
            self.nrows = len(rows)
            self.ncols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
            self.entries = rows
            return
        rows = [tuple(field.coerce(x) for x in row) for row in entries]
        self.nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.ncols = ncols
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows in matrix")
        self.entries = tuple(rows)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)),
                   ncols=ncols, _trusted=True)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
                   ncols=n, _trusted=True)

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.nrows, self.ncols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.kind}{self.field.p or ''})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._assert_same_shape(other)
        add = self.field.add_scaled
        rows = tuple(tuple(add(r1, 1, r2)) for r1, r2 in zip(self.entries, other.entries))
        return Matrix(self.field, rows, ncols=self.ncols, _trusted=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._assert_same_shape(other)
        add = self.field.add_scaled
        rows = tuple(tuple(add(r1, -1, r2)) for r1, r2 in zip(self.entries, other.entries))
        return Matrix(self.field, rows, ncols=self.ncols, _trusted=True)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        scale_row = self.field.scale_row
        rows = tuple(tuple(scale_row(c, r)) for r in self.entries)
        return Matrix(self.field, rows, ncols=self.ncols, _trusted=True)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        cols = other.transpose().entries
        row_times = self.field.row_times
        rows = tuple(tuple(row_times(arow, cols)) for arow in self.entries)
        return Matrix(self.field, rows, ncols=other.ncols, _trusted=True)

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            rows = tuple(tuple() for _ in range(self.ncols))
        else:
            rows = tuple(zip(*self.entries))
        return Matrix(self.field, rows, ncols=self.nrows, _trusted=True)

    def rank(self) -> int:
        # a tall matrix is ranked by its columns, transposed here as tuples
        tall = self.nrows > self.ncols
        rows = zip(*self.entries) if tall else self.entries
        return _sparse_rank([{j: x for j, x in enumerate(r) if x} for r in rows],
                            self.nrows if tall else self.ncols, self.field)

    def _assert_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    ncols = mats[0].ncols
    field = mats[0].field
    rows = []
    for m in mats:
        if m.ncols != ncols or m.field != field:
            raise ValueError("vstack mismatch")
        rows.extend(m.entries)
    return Matrix(field, tuple(rows), ncols=ncols, _trusted=True)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack of nothing")
    nrows = mats[0].nrows
    field = mats[0].field
    for m in mats:
        if m.nrows != nrows or m.field != field:
            raise ValueError("hstack mismatch")
    rows = tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(nrows))
    return Matrix(field, rows, ncols=sum(m.ncols for m in mats), _trusted=True)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise ValueError("field mismatch")
    z = a.field.zero
    rows = []
    for r in a.entries:
        rows.append(tuple(r) + tuple(z for _ in range(b.ncols)))
    for r in b.entries:
        rows.append(tuple(z for _ in range(a.ncols)) + tuple(r))
    return Matrix(a.field, tuple(rows), ncols=a.ncols + b.ncols, _trusted=True)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i*rb + k, j*cb + l) carries a[i,j]*b[k,l]."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    scale_row = a.field.scale_row
    rows = tuple(tuple(x for aij in arow for x in scale_row(aij, brow))
                 for arow in a.entries for brow in b.entries)
    return Matrix(a.field, rows, ncols=a.ncols * b.ncols, _trusted=True)


class RrefResult(NamedTuple):
    reduced: Matrix
    rank: int
    pivots: tuple


def _rref_rows(rows: list, ncols: int, field: FieldSpec) -> tuple:
    """In-place RREF on a list of rows.  Returns (rank, pivot columns)."""
    nrows = len(rows)
    add_scaled, scale_row = field.add_scaled, field.scale_row
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
            rows[r] = scale_row(field.inv(piv), rows[r])
        rowr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = add_scaled(rows[i], -rows[i][c], rowr)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, tuple(pivots)


def _sparse_rank(rows: Sequence[dict], ncols: int, field: FieldSpec) -> int:
    """Rank of sparse {column: nonzero entry} rows of length ncols.

    Forward elimination on whichever of the rows and their transpose has
    fewer rows.  Its rows are taken sparsest first (fewer fill-ins) and each
    is cleared at the pivot columns found so far, in the order found: a pivot
    row is zero at the earlier pivot columns.  A nonzero remainder is the
    next pivot row, pivoting at its first column.  The rows given are not
    modified.
    """
    if len(rows) > ncols:
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                cols[j][i] = x
        rows = cols
    eliminate, pivot = field.sparse_eliminate, field.sparse_pivot
    pivots = {}
    for row in sorted(map(field.sparse_row, rows), key=len):
        for c, prow in pivots.items():
            if c in row:
                row = eliminate(row, c, prow)
        if row:
            prow = pivot(row)
            pivots[next(iter(prow))] = prow
    return len(pivots)


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, the unique canonical one.

    Returns (reduced matrix of the same shape, rank, pivot column tuple).
    """
    rows = [list(r) for r in m.entries]
    rank, pivots = _rref_rows(rows, m.ncols, m.field)
    reduced = Matrix(m.field, tuple(tuple(r) for r in rows), ncols=m.ncols, _trusted=True)
    return RrefResult(reduced, rank, pivots)


def row_space(m: Matrix) -> Matrix:
    """Canonical basis of the row space: RREF with zero rows dropped."""
    res = rref(m)
    rows = res.reduced.entries[:res.rank]
    return Matrix(m.field, rows, ncols=m.ncols, _trusted=True)


def pivot_columns(basis: Matrix) -> tuple:
    """Pivot columns of a canonical RREF basis: each row's first nonzero entry.

    A vector in the row space has as its coordinates in that basis its entries
    at these columns.
    """
    return tuple(next(j for j, x in enumerate(row) if x) for row in basis.entries)


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right null space {x : m x = 0}, rows of the result.

    The basis rows are returned in canonical RREF form, so equal kernels give
    equal matrices.  A trivial kernel yields a 0 x ncols matrix.
    """
    res = rref(m)
    pivots = set(res.pivots)
    free = [c for c in range(m.ncols) if c not in pivots]
    field = m.field
    z, o = field.zero, field.one
    rows = []
    red = res.reduced.entries[:res.rank]
    for f in free:
        vec = [z] * m.ncols
        vec[f] = o
        for pc, val in zip(res.pivots, field.scale_row(-o, [row[f] for row in red])):
            vec[pc] = val
        rows.append(vec)
    rank, _ = _rref_rows(rows, m.ncols, field)
    return Matrix(field, tuple(tuple(r) for r in rows[:rank]), ncols=m.ncols, _trusted=True)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular."""
    if not m.is_square:
        return None
    n = m.nrows
    if n == 0:
        return Matrix(m.field, tuple(), ncols=0, _trusted=True)
    aug = hstack([m, Matrix.identity(m.field, n)])
    res = rref(aug)
    # [m | I] always has rank n; m is invertible iff all pivots sit in the left block
    if res.pivots != tuple(range(n)):
        return None
    rows = tuple(r[n:] for r in res.reduced.entries)
    return Matrix(m.field, rows, ncols=n, _trusted=True)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def enumerate_subspaces(ambient_dim: int, sub_dim: int,
                        field: FieldSpec) -> Iterator[Matrix]:
    """Stream every sub_dim-dimensional subspace of F_p^ambient_dim exactly once.

    Each subspace is emitted as its canonical RREF basis matrix
    (sub_dim x ambient_dim).  Order is deterministic: pivot column sets
    lexicographically, then free entries lexicographically.

    The stream is lazy and has gaussian_binomial(ambient_dim, sub_dim, p)
    members; a caller that caps its work counts them with that function.
    """
    if not field.is_prime:
        raise ValueError("subspace enumeration needs a prime field")
    if sub_dim < 0 or sub_dim > ambient_dim:
        return
    p = field.p
    n, k = ambient_dim, sub_dim
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        positions = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n)
                     if c not in pivset]
        base = [[0] * n for _ in range(k)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for assignment in product(range(p), repeat=len(positions)):
            rows = [list(r) for r in base]
            for (i, c), val in zip(positions, assignment):
                rows[i][c] = val
            yield Matrix(field, tuple(tuple(r) for r in rows), ncols=n, _trusted=True)


def subspaces_containing(base: Matrix, sub_dim: int) -> Iterator[Matrix]:
    """All sub_dim-dimensional subspaces containing the row space of base.

    base must be a canonical RREF basis (as produced by row_space).  Uses the
    bijection with subspaces of the quotient space, so the stream has exactly
    gaussian_binomial(n - r, sub_dim - r, p) members, each canonical.
    """
    field = base.field
    if not field.is_prime:
        raise ValueError("subspace enumeration needs a prime field")
    n = base.ncols
    r = base.nrows
    if sub_dim < r or sub_dim > n:
        return
    if sub_dim == r:
        yield row_space(base)
        return
    res = rref(base)
    if res.rank != r:
        raise ValueError("base rows are dependent")
    pivset = set(res.pivots)
    free = [c for c in range(n) if c not in pivset]
    base_rows = [list(row) for row in res.reduced.entries]
    for t in enumerate_subspaces(len(free), sub_dim - r, field):
        rows = [list(row) for row in base_rows]
        for trow in t.entries:
            vec = [0] * n
            for j, c in enumerate(free):
                vec[c] = trow[j]
            rows.append(vec)
        rank, _ = _rref_rows(rows, n, field)
        yield Matrix(field, tuple(tuple(row) for row in rows[:rank]), ncols=n, _trusted=True)


def scalar_to_json(field: FieldSpec, x: Scalar):
    if field.is_prime:
        return int(x)
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def scalar_from_json(field: FieldSpec, data) -> Scalar:
    if isinstance(data, str):
        if "/" in data:
            num, den = (int(t) for t in data.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator in scalar {data!r}")
            return field.coerce(Fraction(num, den))
        return field.coerce(int(data))
    if isinstance(data, int) and not isinstance(data, bool):
        return field.coerce(data)
    raise ValueError(f"bad scalar {data!r}")


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(m.field, x) for x in row] for row in m.entries]


def matrix_from_json(field: FieldSpec, data, nrows: int, ncols: int) -> Matrix:
    if not isinstance(data, list) or len(data) != nrows:
        raise ValueError(f"expected {nrows} matrix rows, got {data!r}")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != ncols:
            raise ValueError(f"expected rows of length {ncols}")
        rows.append([scalar_from_json(field, x) for x in row])
    return Matrix(field, rows, ncols=ncols)
