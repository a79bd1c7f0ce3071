"""Reference kernels kept as test oracles: the per-edge graph loader and
the object-array exponent table that the bulk loaders replaced, the loop
forms of cyclotomic reduction, Hadamard verification, certification with
its eigenvalue entries built one column at a time, cut enumeration, the
characteristic polynomial, rational root extraction and revival search
that the table-driven kernels in ``chd`` replaced, and the
labelled regular-graph enumeration that the small-graph catalogue
replaced.  They share no code with those kernels: the graph loader checks
and stores one edge at a time and builds the graph from a dense integer
matrix and the lcm of its weight denominators (only the vertex-count check
and the graph constructor are shared), the exponent
table goes through a numpy object array, Phi_r comes from recursive long
division, reduction is long division by Phi_r, the integer matrix is
rebuilt from the graph's Fraction edges, the cut tables are one pass per
edge on Python integers, the characteristic polynomial is computed in
Fractions, rational roots are found by trying every integer in range,
revival search decides every vertex pair on its own and validates every
certificate with its own walk column, and the catalogue oracle keeps, up
to isomorphism, every labelled regular graph that passes the necessary
conditions for a real or Turyn diagonaliser.  Sum, product and
conjugation in Z[x]/(x**r - 1) live only here, to test that
``chd.cyclotomic.reduce`` is a ring map onto Z[z].  The dephasing at any
column, which the catalogue once scanned, stays here as a test helper
built on ``chd.dephase``.  The Sylvester matrices by repeated ``double``
and the Hadamard class by an lcm over the distinct entries, which the
character-table constructor and the one-gcd class replaced, stay as
references.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from chd import (
    ButsonMatrix,
    ChdError,
    ScaleError,
    SimplicityError,
    WeightedGraph,
    character_table,
    dephase,
    double,
    monomial_transform,
)
from chd.graphs import check_count
from chd.walks import FRCertificate, RationalAngle


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if _is_int(x):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ChdError(f"cannot interpret {x!r} as an exact rational weight")


def graph_from_edges(n, edges) -> WeightedGraph:
    """One Python step per edge, in order: shape, weight, vertex type,
    range, loop, and any pair seen before in either orientation."""
    check_count(n)
    weights: dict[tuple[int, int], Fraction] = {}
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise ChdError(f"edge {item!r} is not [u, v] or [u, v, weight]")
        u, v = item[:2]
        weight = _as_fraction(item[2]) if len(item) == 3 else Fraction(1)
        if not (_is_int(u) and _is_int(v)):
            raise ChdError(f"edge ({u!r}, {v!r}) has a vertex that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ChdError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SimplicityError(f"loop at vertex {u}")
        if (u, v) in weights:
            raise SimplicityError(f"duplicate edge ({u}, {v})")
        weights[u, v] = weights[v, u] = weight
    scale = math.lcm(1, *(w.denominator for w in weights.values()))
    mat = np.zeros((n, n), dtype=object)
    for (u, v), w in weights.items():
        mat[u, v] = w.numerator * (scale // w.denominator)
    return WeightedGraph(mat, scale)


def exponent_table(exps, r: int) -> np.ndarray:
    """The exponents mod r as an object array reads them: numpy's shape
    must be square and every entry an integer."""
    arr = np.array(exps, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ChdError(f"exponent table must be square, got shape {arr.shape}")
    if not all(_is_int(e) for e in arr.flat):
        raise ChdError("exponents must be integers")
    return (arr % r).astype(np.int64)


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


def ring_add(x, y) -> list[int]:
    """The sum of two coefficient vectors of one length r."""
    return [a + b for a, b in zip(x, y, strict=True)]


def ring_multiply(x, y) -> list[int]:
    """The product in Z[x]/(x**r - 1): a cyclic convolution."""
    r = len(x)
    out = [0] * r
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[(i + j) % r] += a * b
    return out


def ring_conjugate(x) -> list[int]:
    """Complex conjugation: the coefficient of z**j moves to z**(-j)."""
    return [x[-j % len(x)] for j in range(len(x))]


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
    mat, _ = integer_matrix(g, target)
    n, r = g.n, h.r
    exps = h.exps.tolist()
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
    return column_entries(g, h, target)


def column_entries(g, h, target: str = "laplacian") -> list:
    """(coeffs, scale, rational) of the eigenvalue of each column, built
    column by column: lambda_j = sum_s M[0, s] z**H[s, j], reduced by long
    division."""
    mat, scale = integer_matrix(g, target)
    entries = []
    for col in zip(*h.exps.tolist()):
        lam = [0] * h.r
        for w, e in zip(mat[0], col):
            lam[e] += w
        rem = reduce(lam, h.r)
        entries.append((tuple(lam), scale, None if any(rem[1:]) else Fraction(rem[0], scale)))
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


def _dephased_at(h: ButsonMatrix, j: int) -> ButsonMatrix:
    """h dephased at column j: column j moved first, then rows and columns
    rescaled so that the first row and the first column are all ones."""
    n = h.n
    cols = [j] + [k for k in range(n) if k != j]
    return dephase(monomial_transform(h, range(n), cols, [0] * n, [0] * n))


def sylvester_hadamard(order: int) -> ButsonMatrix:
    """[[1, 1], [1, -1]] doubled from the 1 x 1 table up to ``order``, every
    intermediate matrix verified by ``double``."""
    h = character_table((1,))
    while h.n < order:
        h = double(h)
    return h


def classify_root_order(h: ButsonMatrix) -> int:
    """The smallest root order holding every entry: the lcm of the orders
    of the distinct entries z**e."""
    r_min = 1
    for e in np.unique(h.exps):
        e = int(e)
        r_min = math.lcm(r_min, h.r // math.gcd(e, h.r) if e else 1)
    return r_min


def _regular_masks(n: int, d: int):
    """All labelled d-regular graphs on n vertices, as tuples of neighbour
    bit masks, by row-by-row backtracking with degree feasibility pruning."""
    if d < 0 or d >= n or (n * d) % 2:
        return
    masks = [0] * n
    deg = [0] * n

    def rec(u: int):
        if u == n:
            yield tuple(masks)
            return
        need = d - deg[u]
        avail = [v for v in range(u + 1, n) if deg[v] < d]
        if need < 0 or need > len(avail):
            return
        for chosen in combinations(avail, need):
            for v in chosen:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                deg[v] += 1
            deg[u] += need
            if sum(d - deg[v] for v in range(u + 1, n)) % 2 == 0:
                yield from rec(u + 1)
            for v in chosen:
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
                deg[v] -= 1
            deg[u] -= need

    yield from rec(0)


def _masks_to_graph(masks) -> WeightedGraph:
    n = len(masks)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]
    return WeightedGraph.from_edges(n, edges)


def enumerate_regular_graphs(n: int, degree: int | None = None):
    """Every labelled regular graph on n vertices (optionally of one
    degree); capped at n <= 10."""
    if n > 10:
        raise ScaleError(f"labelled enumeration is capped at 10 vertices, got {n}")
    for d in range(n) if degree is None else [degree]:
        for masks in _regular_masks(n, d):
            yield _masks_to_graph(masks)


def _odd_union(masks) -> bool:
    """An odd number (>= 3) of components, all of one order."""
    n = len(masks)
    sizes, seen = [], 0
    for s in range(n):
        if seen >> s & 1:
            continue
        comp, frontier = 1 << s, 1 << s
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = masks[v] & ~comp
            comp |= new
            frontier |= new
        seen |= comp
        sizes.append(bin(comp).count("1"))
    return len(sizes) >= 3 and len(sizes) % 2 == 1 and len(set(sizes)) == 1


def _walk_colours(masks) -> tuple[tuple[int, int], ...]:
    """Closed-walk counts of lengths 3 and 4 at each vertex, which an
    isomorphism preserves."""
    n = len(masks)
    a = np.array([[m >> v & 1 for v in range(n)] for m in masks], dtype=np.int64)
    a2 = a @ a
    return tuple(zip(np.diagonal(a2 @ a).tolist(), np.diagonal(a2 @ a2).tolist()))


def _isomorphic(a, ca, b, cb) -> bool:
    """Backtracking search for a bijection u -> p[u] with a[u] ~ b[p[u]]
    that maps each vertex to one of the same walk colour."""
    n = len(a)
    p: list[int] = []

    def rec(u: int) -> bool:
        if u == n:
            return True
        for v in range(n):
            if v in p or ca[u] != cb[v]:
                continue
            if all((a[u] >> w & 1) == (b[v] >> p[w] & 1) for w in range(u)):
                p.append(v)
                if rec(u + 1):
                    return True
                p.pop()
        return False

    return sorted(ca) == sorted(cb) and rec(0)


def _even_trace_masks(n: int, d: int) -> list[tuple[int, ...]]:
    """The labelled d-regular graphs whose Laplacian L has tr(L^k) divisible
    by 2^k for k = 1..n, as every graph with an even-integer spectrum must;
    exact in int64, since no entry of L^n exceeds (2d)^n < 2^62."""
    masks = np.array(list(_regular_masks(n, d)), dtype=np.int64).reshape(-1, n)
    lap = d * np.eye(n, dtype=np.int64) - (masks[:, :, None] >> np.arange(n) & 1)
    keep = np.ones(len(masks), dtype=bool)
    power = lap
    for k in range(1, n + 1):
        keep &= np.trace(power, axis1=1, axis2=2) % (1 << k) == 0
        power = power @ lap
    return [tuple(row) for row in masks[keep].tolist()]


def catalogue_classes(n: int) -> list[tuple[int, ...]]:
    """One neighbour-mask tuple per isomorphism class of graphs on n <= 8
    vertices that pass the necessary conditions for a real or Turyn
    diagonaliser: regular (L = H diag(lambda) H* / n has every diagonal
    entry equal to tr(L) / n), every Laplacian eigenvalue an even integer
    (checked exactly on the characteristic polynomial after a 2-adic trace
    prefilter), and neither the graph nor its complement an odd union of
    equal components (such a union has no diagonaliser, and its complement
    is connected, so a diagonaliser of the complement has an all-ones
    column and would diagonalise the union too)."""
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []
    for d in range(n):
        reps: list[tuple[tuple[int, ...], tuple]] = []
        for masks in _even_trace_masks(n, d):
            colours = _walk_colours(masks)
            if not any(_isomorphic(masks, colours, *rep) for rep in reps):
                reps.append((masks, colours))
        for masks, _ in reps:
            comp = tuple(full & ~m & ~(1 << u) for u, m in enumerate(masks))
            lap, _ = integer_matrix(_masks_to_graph(masks))
            spectrum = rational_spectrum(lap)
            if spectrum is None or any(x % 2 for x in spectrum):
                continue
            if not (_odd_union(masks) or _odd_union(comp)):
                out.append(masks)
    return out
