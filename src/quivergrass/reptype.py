"""Representation type of acyclic quivers.

The trichotomy finite / tame / wild depends only on the underlying undirected
multigraph (all acyclic orientations of a graph are derived-equivalent), so
classification is graph recognition: Dynkin graphs A/D/E are finite type,
extended Dynkin graphs are tame, everything else is wild.  An independent
numerical oracle, the definiteness of the Tits form, is provided for
cross-checking: positive definite = finite, positive semidefinite = tame,
indefinite = wild.  It is decided by the signs of the leading principal
minors of the integer Tits matrix, read off one fraction-free elimination
(Bareiss 1968), via Sylvester's criterion and the principal submatrices of
irreducible M-matrices (Berman and Plemmons, ch. 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .exactlinalg import Record
from .quiverrep import Quiver


class ClassificationResult(Record):
    __slots__ = ("kind", "witness")
    kind: str                 # "finite" | "tame" | "wild"
    witness: Optional[str]    # Dynkin / extended Dynkin label when not wild


def _underlying(q: Quiver):
    """(adjacency sets, edge multiplicities) of the underlying multigraph."""
    adj: Dict[str, set] = {v: set() for v in q.vertices}
    mult: Dict[frozenset, int] = {}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
        key = frozenset((a.source, a.target))
        mult[key] = mult.get(key, 0) + 1
    return adj, mult


def _arm_lengths(adj: Dict[str, set], center: str) -> List[int]:
    """Arm lengths (edge counts) of a tree star, walked from the center."""
    arms = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                # not a plain arm; caller only uses this on stars
                length = -1
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def classify(q: Quiver) -> ClassificationResult:
    """Finite / tame / wild type of a connected acyclic quiver."""
    if not q.is_connected():
        raise ValueError("classification needs a connected quiver")
    n = len(q.vertices)
    adj, mult = _underlying(q)
    wild = ClassificationResult("wild", None)

    if any(m >= 3 for m in mult.values()):
        return wild
    doubles = [e for e, m in mult.items() if m == 2]
    if doubles:
        if n == 2 and len(mult) == 1:
            return ClassificationResult("tame", "A~1")
        return wild

    # simple underlying graph from here on
    n_edges = len(mult)
    degree = {v: len(adj[v]) for v in q.vertices}
    if n_edges >= n:
        if n_edges == n and all(d == 2 for d in degree.values()):
            return ClassificationResult("tame", f"A~{n - 1}")
        return wild

    # tree
    branch = sorted(v for v, d in degree.items() if d >= 3)
    if not branch:
        return ClassificationResult("finite", f"A{n}")
    if len(branch) == 1:
        c = branch[0]
        if degree[c] == 3:
            arms = tuple(_arm_lengths(adj, c))
            if arms[:2] == (1, 1):
                return ClassificationResult("finite", f"D{n}")
            if arms == (1, 2, 2):
                return ClassificationResult("finite", "E6")
            if arms == (1, 2, 3):
                return ClassificationResult("finite", "E7")
            if arms == (1, 2, 4):
                return ClassificationResult("finite", "E8")
            if arms == (2, 2, 2):
                return ClassificationResult("tame", "E~6")
            if arms == (1, 3, 3):
                return ClassificationResult("tame", "E~7")
            if arms == (1, 2, 5):
                return ClassificationResult("tame", "E~8")
            return wild
        if degree[c] == 4 and n == 5:
            return ClassificationResult("tame", "D~4")
        return wild
    if len(branch) == 2 and all(degree[v] == 3 for v in branch):
        # double fork: both branch vertices carry two pendant leaves
        for v in branch:
            leaves = [w for w in adj[v] if degree[w] == 1]
            if len(leaves) != 2:
                return wild
        return ClassificationResult("tame", f"D~{n - 1}")
    return wild


def _tits_matrix(q: Quiver) -> List[List[int]]:
    """Integer matrix of twice the Tits form q(d) = sum d_v^2 - sum d_i d_j."""
    verts = list(q.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        s[i][i] = 2
    for a in q.arrows:
        i, j = index[a.source], index[a.target]
        s[i][j] -= 1
        s[j][i] -= 1
    return s


def tits_definiteness(q: Quiver) -> str:
    """Exact definiteness class of the Tits quadratic form of q.

    Integer Bareiss elimination (Bareiss 1968) without row exchanges puts
    the leading principal minors D_1, ..., D_n of the Tits matrix on the
    pivots, and D_k / D_{k-1} are the pivots of its LDL^T congruence.  So
    all D_k > 0 is positive definite (Sylvester), and D_1, ..., D_{n-1} > 0
    with D_n = 0 is positive semidefinite.  Any other sign pattern is
    indefinite in every vertex order: the Tits matrix of a connected quiver
    is a symmetric irreducible Z-matrix, so were it semidefinite it would be
    an irreducible M-matrix, whose proper principal submatrices are all
    nonsingular M-matrices (Berman and Plemmons, ch. 6) with D_k > 0.
    """
    if not q.is_connected():
        raise ValueError("definiteness oracle needs a connected quiver")
    m = _tits_matrix(q)
    n = len(m)
    prev = 1
    for k in range(n - 1):
        d = m[k][k]
        if d <= 0:
            return "indefinite"
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (d * row[j] - f * m[k][j]) // prev
        prev = d
    d = m[n - 1][n - 1]
    if d > 0:
        return "positive_definite"
    return "positive_semidefinite" if d == 0 else "indefinite"
