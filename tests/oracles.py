"""Slow, deterministic oracles that tests compare the package against.

Neither is used by quivergrass itself: its checkers decide isomorphism with
brick theory (homext.is_brick_power) and never need a splitting test.
"""

from itertools import product

from quivergrass.exactlinalg import solve
from quivergrass.homext import _differential, hom_basis, hom_ext_dims


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
    basis = hom_basis(m1, m2).basis
    if not (len(basis) == hom_ext_dims(m2, m1)[0] == hom_ext_dims(m1, m1)[0]
            == hom_ext_dims(m2, m2)[0]):
        return False
    verts = [v for v in m1.quiver.vertices if m1.dims[v]]

    def invertible_at(coeffs, v):
        terms = [f.maps[v].scale(c) for c, f in zip(coeffs, basis) if c]
        return sum(terms[1:], terms[0]).rank() == m1.dims[v]

    return any(all(invertible_at(coeffs, v) for v in verts)
               for coeffs in projective_coefficients(len(basis), m1.field.p))


def cocycle_is_coboundary(eps):
    """True when the cocycle lies in the image of d0 (the extension splits)."""
    m, n = eps.source, eps.target
    vec = [x for a in m.quiver.arrows for row in eps.components[a.id].entries
           for x in row]
    return solve(_differential(m, n).matrix, vec) is not None
