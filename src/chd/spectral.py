"""Brute-force cut searches: Cheeger constant, edge density, tightness.

Everything is exact: weights are scaled to integers, every subset of a
desk-scale vertex set is enumerated with vectorised bit arithmetic, and the
minimising subset is selected by exact rational comparison (floats are used
only to shortlist candidates, with an exact pass over the shortlist).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagonalise import SpectrumAssignment, certify, regularity_check
from .errors import ChdError, ExactnessError, PreconditionError, ScaleError
from .graphs import WeightedGraph
from .hadamard import ButsonMatrix, classify

__all__ = [
    "CutReport",
    "cheeger",
    "min_edge_density",
    "tightness_check",
    "cheeger_inequality_audit",
    "exact_rational_spectrum",
]

_MAX_VERTICES = 24


@dataclass(frozen=True)
class CutReport:
    """One vertex subset with its exact cut weight and the derived ratios."""

    subset: tuple[int, ...]
    cut_weight: Fraction
    cheeger_value: Fraction
    density: Fraction

    def to_json(self) -> dict:
        return {
            "subset": list(self.subset),
            "cut_weight": str(self.cut_weight),
            "cheeger_value": str(self.cheeger_value),
            "density": str(self.density),
        }


def _subset_tables(g: WeightedGraph):
    """Integer cut weights and volumes for every subset not containing the
    last vertex (each {S, V-S} pair is visited once)."""
    n = g.n
    if n > _MAX_VERTICES:
        raise ScaleError(f"subset enumeration is capped at {_MAX_VERTICES} vertices")
    if n < 2:
        raise ChdError("need at least two vertices")
    mat, scale = g.integer_matrix("adjacency")
    count = 1 << (n - 1)
    masks = np.arange(count, dtype=np.int64)
    cut = np.zeros(count, dtype=np.int64)
    for u, v in zip(*np.nonzero(np.triu(mat))):
        side_u = (masks >> u) & 1
        side_v = (masks >> v) & 1
        cut += int(mat[u, v]) * (side_u ^ side_v)
    vol = np.zeros(count, dtype=np.int64)
    deg = mat.sum(axis=1).tolist()
    for u in range(n):
        vol += deg[u] * ((masks >> u) & 1)
    size = np.zeros(count, dtype=np.int64)
    for u in range(n):
        size += (masks >> u) & 1
    return masks, cut, vol, size, deg, scale


def _mask_vertices(mask: int, n: int) -> tuple[int, ...]:
    return tuple(u for u in range(n) if mask >> u & 1)


def _report(g: WeightedGraph, mask: int, cut_scaled: int, scale: int) -> CutReport:
    n = g.n
    subset = _mask_vertices(mask, n)
    cut = Fraction(cut_scaled, scale)
    vol_s = sum((g.degree(u) for u in subset), Fraction(0))
    vol_rest = sum(g.degrees(), Fraction(0)) - vol_s
    k = len(subset)
    smaller = min(vol_s, vol_rest)
    # a zero-volume side only happens with isolated vertices, where the cut
    # is empty as well; the ratio is 0 by convention
    cheeger_value = cut / smaller if smaller else Fraction(0)
    density = Fraction(n) * cut / (k * (n - k))
    return CutReport(subset, cut, cheeger_value, density)


def _exact_argmin(numerators, denominators, float_ratios):
    """Index of the exact minimum of numerators[i]/denominators[i], using the
    float ratios only to shortlist; ties break to the smallest index."""
    fmin = float(np.min(float_ratios))
    tol = 1e-9 * max(1.0, abs(fmin))
    candidates = np.nonzero(float_ratios <= fmin + tol)[0]
    best = None
    best_idx = None
    for i in candidates:
        val = Fraction(int(numerators[i]), int(denominators[i]))
        if best is None or val < best or (val == best and int(i) < best_idx):
            best = val
            best_idx = int(i)
    return best_idx, best


def cheeger(g: WeightedGraph) -> tuple[Fraction, CutReport]:
    """Exact Cheeger constant and a minimising subset.

    A disconnected graph has constant 0, witnessed by one component.
    """
    if g.n > _MAX_VERTICES:
        raise ScaleError(f"subset enumeration is capped at {_MAX_VERTICES} vertices")
    comps = g.components()
    if len(comps) > 1:
        mask = sum(1 << u for u in comps[0])
        return Fraction(0), _report(g, mask, 0, g.scale)
    masks, cut, vol, size, deg, scale = _subset_tables(g)
    total = int(sum(deg))
    proper = (size > 0) & (size < g.n)
    idx = np.nonzero(proper)[0]
    vols = vol[idx]
    denom = np.minimum(vols, total - vols)
    ratios = cut[idx].astype(float) / denom.astype(float)
    best_i, best = _exact_argmin(cut[idx], denom, ratios)
    mask = int(masks[idx[best_i]])
    return best, _report(g, mask, int(cut[idx[best_i]]), scale)


def min_edge_density(g: WeightedGraph) -> tuple[Fraction, CutReport]:
    """Exact minimum over proper subsets of n * cut(S) / (|S| * |V-S|)."""
    masks, cut, vol, size, deg, scale = _subset_tables(g)
    n = g.n
    proper = (size > 0) & (size < n)
    idx = np.nonzero(proper)[0]
    sizes = size[idx]
    denom = sizes * (n - sizes) * scale
    numer = cut[idx] * n
    ratios = numer.astype(float) / denom.astype(float)
    best_i, best = _exact_argmin(numer, denom, ratios)
    mask = int(masks[idx[best_i]])
    return best, _report(g, mask, int(cut[idx[best_i]]), scale)


def cheeger_value_of(g: WeightedGraph, subset) -> Fraction:
    """Exact Cheeger ratio of one given subset."""
    subset = set(subset)
    if not subset or len(subset) >= g.n:
        raise ChdError("subset must be nonempty and proper")
    cut = Fraction(0)
    for u, v, w in g.edges():
        if (u in subset) != (v in subset):
            cut += w
    vol_s = sum((g.degree(u) for u in subset), Fraction(0))
    vol_rest = sum(g.degrees(), Fraction(0)) - vol_s
    return cut / min(vol_s, vol_rest)


def tightness_check(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment
) -> bool:
    """Exact check that the Cheeger constant meets its spectral lower bound,
    h = (lambda_2 / d) / 2, witnessed by the plus-cell of a second-eigenvalue
    column.

    Requires a certified real or Turyn diagonaliser and a connected
    unweighted graph.
    """
    if classify(h).kind not in ("real", "turyn"):
        raise PreconditionError("tightness needs a real or turyn matrix")
    if not g.is_unweighted():
        raise PreconditionError("tightness is defined for unweighted graphs")
    if not g.is_connected():
        raise PreconditionError("tightness needs a connected graph")
    d = regularity_check(g)
    lam2 = spectrum.second_smallest()
    gamma2 = lam2 / d
    h_val, _ = cheeger(g)
    if h_val != gamma2 / 2:
        return False
    # witness: vertices where a lambda_2 column is 1 or i
    k = _second_eigenvalue_column(spectrum)
    r = h.r
    plus = []
    for u in range(g.n):
        e = 4 * int(h.exps[u, k])
        if e % r:
            raise PreconditionError(f"column {k} has an entry outside {{1,-1,i,-i}}")
        if (e // r) % 4 in (0, 1):
            plus.append(u)
    return cheeger_value_of(g, plus) == h_val


def _second_eigenvalue_column(spectrum: SpectrumAssignment) -> int:
    lam2 = spectrum.second_smallest()
    for k, entry in enumerate(spectrum.entries):
        if k > 0 and entry.rational == lam2:
            return k
    raise ChdError("no column carries the second smallest eigenvalue")


def cheeger_inequality_audit(
    g: WeightedGraph, spectrum: SpectrumAssignment | None = None
) -> dict:
    """Exact audit of gamma_2 / 2 <= h <= sqrt(2 * gamma_2).

    The lower bound is compared in rationals; the upper bound is checked as
    h * h <= 2 * gamma_2 to avoid floating square roots.  gamma_2 comes from
    a certified spectrum when one is supplied, otherwise from exact rational
    root extraction of the characteristic polynomial.
    """
    if not g.is_connected():
        raise PreconditionError("the audit needs a connected graph")
    d = regularity_check(g)
    if d is None:
        raise PreconditionError("the audit needs a regular graph")
    if spectrum is not None:
        lam2 = spectrum.second_smallest()
    else:
        lam2 = sorted(exact_rational_spectrum(g))[1]
    gamma2 = lam2 / d
    h_val, witness = cheeger(g)
    lower_ok = gamma2 / 2 <= h_val
    upper_ok = h_val * h_val <= 2 * gamma2
    return {
        "h": h_val,
        "gamma2": gamma2,
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
        "witness": witness,
    }


def exact_rational_spectrum(g: WeightedGraph) -> list[Fraction]:
    """All Laplacian eigenvalues as exact rationals, via the characteristic
    polynomial; raises when the spectrum is not fully rational."""
    mat, scale = g.integer_matrix("laplacian")
    mat = mat.tolist()
    n = g.n
    poly = _char_poly(mat)  # monic, integer coefficients, constant first
    roots = []
    bound = 2 * max((sum(abs(x) for x in row) for row in mat), default=0)
    current = poly
    for _ in range(n):
        root = None
        for cand in range(0, bound + 1):
            if _poly_eval(current, cand) == 0:
                root = cand
                break
        if root is None:
            raise ExactnessError(
                "the Laplacian spectrum is not fully rational; exact "
                "extraction is unsupported"
            )
        roots.append(Fraction(root, scale))
        current = _deflate(current, root)
    return sorted(roots)


def _char_poly(mat) -> list[int]:
    """Characteristic polynomial det(xI - M) of an integer matrix via the
    Faddeev-LeVerrier recurrence (exact integer arithmetic)."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)] * (n + 1)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(1)
    mk = None
    cs = [Fraction(1)]
    for k in range(1, n + 1):
        if mk is None:
            mk = [row[:] for row in m]
        else:
            mk = _matmul(m, mk)
        ck = -sum(mk[i][i] for i in range(n)) / k
        cs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    out = list(reversed(cs))  # constant term first
    res = []
    for c in out:
        if c.denominator != 1:
            raise ExactnessError("characteristic polynomial is not integral")
        res.append(int(c))
    return res


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _poly_eval(poly, x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _deflate(poly, root: int):
    # synthetic division by (x - root); poly is constant-first
    rev = list(reversed(poly))
    out = [rev[0]]
    for c in rev[1:-1]:
        out.append(c + out[-1] * root)
    return list(reversed(out))
