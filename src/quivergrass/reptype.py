"""Representation type of acyclic quivers.

The trichotomy finite / tame / wild depends only on the underlying undirected
multigraph (all acyclic orientations of a graph are derived-equivalent), so
classification is graph recognition: Dynkin graphs A/D/E are finite type,
extended Dynkin graphs are tame, everything else is wild.  An independent
numerical oracle, the definiteness of the Tits form, is provided for
cross-checking: positive definite = finite, positive semidefinite = tame,
indefinite = wild.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactlinalg import Record
from .quiverrep import Quiver


class ClassificationResult(Record):
    __slots__ = ("kind", "witness")
    kind: str                 # "finite" | "tame" | "wild"
    witness: Optional[str]    # Dynkin / extended Dynkin label when not wild

    @property
    def is_representation_infinite(self) -> bool:
        return self.kind in ("tame", "wild")


def _underlying(q: Quiver):
    """(adjacency sets, edge multiplicities) of the underlying multigraph."""
    adj: Dict[str, set] = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    return adj, q.edge_multiplicities()


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


def symmetric_inertia(rows: List[List[int]]) -> Tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Exact congruence reduction over the rationals; zero diagonals with a
    nonzero off-diagonal partner are handled as hyperbolic pairs, which
    contribute one positive and one negative inertia unit each.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is not None:
            d = m[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            active.remove(piv)
            # symmetric rank-one update; symmetry of the block is preserved
            for u in active:
                if m[piv][u] == 0:
                    continue
                f = m[piv][u] / d
                for v in active:
                    m[u][v] -= f * m[piv][v]
            continue
        pair = None
        for i in active:
            for j in active:
                if i < j and m[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        s = m[i][j]
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        for u in active:
            for v in active:
                m[u][v] -= (m[i][u] * m[j][v] + m[j][u] * m[i][v]) / s
    return pos, neg, zero


def tits_definiteness(q: Quiver) -> str:
    """Exact definiteness class of the Tits quadratic form of q."""
    if not q.is_connected():
        raise ValueError("definiteness oracle needs a connected quiver")
    pos, neg, zero = symmetric_inertia(_tits_matrix(q))
    if neg == 0 and zero == 0:
        return "positive_definite"
    if neg == 0:
        return "positive_semidefinite"
    return "indefinite"
