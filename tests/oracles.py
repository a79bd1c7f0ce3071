"""Reference kernels kept as test oracles: the loop forms of cyclotomic
reduction, Hadamard verification, certification, cut enumeration, the
characteristic polynomial, rational root extraction and revival search
that the table-driven kernels in ``chd`` replaced.  They share no code with
those kernels: Phi_r comes from recursive long division, reduction is long
division by Phi_r, the integer matrix is rebuilt from the graph's Fraction
edges, the cut tables are one pass per edge on Python integers, the
characteristic polynomial is computed in Fractions, rational roots are
found by trying every integer in range, and revival search decides every
vertex pair on its own and validates every certificate with its own walk
column.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from chd.walks import FRCertificate, RationalAngle


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


def rational_spectrum(mat) -> list[int] | None:
    """The eigenvalues of an integer Laplacian matrix if all are integers,
    else None: every integer from 0 to twice the largest absolute row sum
    is tried as a root of the characteristic polynomial, with deflation."""
    poly = char_poly(mat)  # constant first
    bound = 2 * max((sum(abs(x) for x in row) for row in mat), default=0)
    roots = []
    for _ in range(len(mat)):
        for cand in range(bound + 1):
            if sum(c * cand**k for k, c in enumerate(poly)) == 0:
                break
        else:
            return None
        roots.append(cand)
        # synthetic division by (x - cand), highest coefficient first
        rev, out = poly[::-1], [poly[-1]]
        for c in rev[1:-1]:
            out.append(c + out[-1] * cand)
        poly = out[::-1]
    return sorted(roots)


def find_fr(g, h, spectrum) -> list:
    """Revival certificates pair by pair, in (a, b, q, s) order: the sign
    pattern from the exponents of the two rows, the times from the
    congruences on the pair's own eigenvalue sets, and one float walk
    column per certificate, asserted to 1e-9."""
    lam = spectrum.integers()
    exps, r, n = h.exps.tolist(), h.r, h.n
    hc, lam_float = h.to_complex(), np.array(spectrum.floats())
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            diff = [(x - y) % r for x, y in zip(exps[a], exps[b])]
            if any(d not in (0, Fraction(r, 2)) for d in diff):
                continue
            sigma = tuple(1 if d == 0 else -1 for d in diff)
            minus = sorted({l for s, l in zip(sigma, lam) if s == -1})
            if not minus or 0 in minus:
                continue
            plus = [l for s, l in zip(sigma, lam) if s == 1 and l != 0]
            top = math.gcd(*plus) if plus else 2 * math.lcm(*minus)
            for q in range(1, top + 1):
                if top % q:
                    continue
                for s in range(1, q):
                    if math.gcd(s, q) != 1:
                        continue
                    if any((l - minus[0]) * s % q for l in minus):
                        continue
                    two_gamma = Fraction(-minus[0] * s, q) % 1
                    if two_gamma == 0:
                        continue
                    gamma = RationalAngle(two_gamma.numerator, 2 * two_gamma.denominator)
                    cert = FRCertificate(a, b, RationalAngle(s, q), gamma, sigma)
                    phases = np.exp(-1j * 2 * math.pi * s / q * lam_float)
                    column = hc @ (phases * hc[a].conj()) / n
                    column[a] -= cert.alpha
                    column[b] -= cert.beta
                    assert np.max(np.abs(column)) <= 1e-9, cert
                    out.append(cert)
    return out
