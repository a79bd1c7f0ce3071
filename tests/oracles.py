"""Reference kernels kept as test oracles: the loop forms of cyclotomic
reduction, Hadamard verification, certification, cut enumeration and the
characteristic polynomial that the table-driven kernels in ``chd``
replaced.  They share no code with those kernels: Phi_r comes from
recursive long division, reduction is long division by Phi_r, the integer
matrix is rebuilt from the graph's Fraction edges, the cut tables are one
pass per edge on Python integers, and the characteristic polynomial is
computed in Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def _exact_polydiv(num: list[int], den: list[int]) -> list[int]:
    # long division by a monic divisor that must divide exactly
    num = list(num)
    m = len(den) - 1
    quot = [0] * (len(num) - m)
    for i in range(len(num) - 1, m - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - m] = c
        for k in range(m + 1):
            num[i - m + k] -= c * den[k]
    assert not any(num), "polynomial division left a remainder"
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """x**r - 1 divided by Phi_d for every proper divisor d of r."""
    poly = [-1] + [0] * (r - 1) + [1]
    for d in range(1, r):
        if r % d == 0:
            poly = _exact_polydiv(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def reduce(coeffs, r: int) -> tuple[int, ...]:
    """Remainder of sum(a_j x^j) modulo Phi_r, by long division."""
    phi = cyclotomic_polynomial(r)
    m = len(phi) - 1
    rem = [int(c) for c in coeffs]
    for i in range(len(rem) - 1, m - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        rem[i] = 0
        for k in range(m):
            rem[i - m + k] -= c * phi[k]
    return tuple(rem[:m])


def verify(exps, r: int) -> bool:
    """Pairwise row orthogonality: each difference count reduces to zero."""
    n = len(exps)
    for i in range(n):
        for j in range(i + 1, n):
            counts = [0] * r
            for a, b in zip(exps[i], exps[j]):
                counts[(a - b) % r] += 1
            if any(reduce(counts, r)):
                return False
    return True


def integer_matrix(g, target: str = "laplacian") -> tuple[list[list[int]], int]:
    """(matrix, scale) with matrix == scale * target, from the edge list."""
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v, w in g.edges():
        rows[u][v] = rows[v][u] = Fraction(w)
    if target == "laplacian":
        rows = [
            [sum(row, Fraction(0)) - w if v == u else -w for v, w in enumerate(row)]
            for u, row in enumerate(rows)
        ]
    scale = math.lcm(1, *(w.denominator for row in rows for w in row))
    return [[int(w * scale) for w in row] for row in rows], scale


def certify(g, h, target: str = "laplacian"):
    """None, or per column (coeffs, scale, rational) of M h_j = lambda_j h_j,
    checked entry by entry with long-division reduction."""
    mat, scale = integer_matrix(g, target)
    n, r = g.n, h.r
    exps = h.exps.tolist()
    entries = []
    for j in range(n):
        col = [exps[s][j] for s in range(n)]
        lam = [0] * r
        for s in range(n):
            lam[col[s]] += mat[0][s]
        for u in range(n):
            vec = [0] * r
            for s in range(n):
                vec[col[s]] += mat[u][s]
            for t in range(r):
                vec[(t + col[u]) % r] -= lam[t]
            if any(reduce(vec, r)):
                return None
        rem = reduce(lam, r)
        rational = None if any(rem[1:]) else Fraction(rem[0], scale)
        entries.append((tuple(lam), scale, rational))
    return entries


def subset_tables(g):
    """(cut, vol, size, total degree, scale) of every subset of the first
    n - 1 vertices, indexed by bit mask: one pass per edge and per vertex
    over all masks, in Python integers."""
    mat, scale = integer_matrix(g, "adjacency")
    n = g.n
    masks = np.arange(1 << (n - 1)).astype(object)
    cut = np.zeros(len(masks), dtype=object)
    for u in range(n):
        for v in range(u + 1, n):
            if mat[u][v]:
                cut += mat[u][v] * (((masks >> u) & 1) ^ ((masks >> v) & 1))
    deg = [sum(row) for row in mat]
    vol = np.zeros(len(masks), dtype=object)
    size = np.zeros(len(masks), dtype=object)
    for u in range(n):
        vol += deg[u] * ((masks >> u) & 1)
        size += (masks >> u) & 1
    return cut.tolist(), vol.tolist(), size.tolist(), sum(deg), scale


def cut_minimum(g, kind: str):
    """(value, mask) of the exact minimum of the Cheeger ratio (kind
    "cheeger") or the edge density over nonempty masks, smallest mask first
    among ties; Cheeger needs every vertex to have an edge."""
    cut, vol, size, total, scale = subset_tables(g)
    n = g.n
    best = None
    for mask in range(1, len(cut)):
        if kind == "cheeger":
            val = Fraction(cut[mask], min(vol[mask], total - vol[mask]))
        else:
            val = Fraction(n * cut[mask], size[mask] * (n - size[mask]) * scale)
        if best is None or val < best[0]:
            best = (val, mask)
    return best


def char_poly(mat) -> list[int]:
    """det(xI - M), constant term first, by Faddeev-LeVerrier in Fractions."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    mk = [row[:] for row in m]
    cs = [Fraction(1)]
    for k in range(1, n + 1):
        if k > 1:
            mk = [
                [sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        ck = -sum(mk[i][i] for i in range(n)) / k
        cs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    assert all(c.denominator == 1 for c in cs)
    return [int(c) for c in reversed(cs)]
