"""Brute-force cut searches: Cheeger constant, edge density, tightness.

Everything is exact: weights are scaled to integers, and the cut weight,
volume and size of every subset of up to 24 vertices come from one split
product: the vertices form a low and a high block of bits, and each table
is an outer sum over the two blocks plus one int64 matrix product (see
``_subset_tables``).  int64 is used only while n * sum(deg) and
n**2 * scale stay below 2**62, which bounds every entry, numerator and
denominator; beyond that a ScaleError is raised.  The minimising subset is
selected by exact rational comparison (floats are used only to shortlist
candidates, with an exact pass over the shortlist).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import INT64_BOUND
from .diagonalise import SpectrumAssignment, regularity_check
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
# n * (largest absolute row sum) below this keeps rounded eigvalsh exact
_EIGVALSH_BOUND = 2**40


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


def _require_cap(g: WeightedGraph) -> None:
    if g.n > _MAX_VERTICES:
        raise ScaleError(f"subset enumeration is capped at {_MAX_VERTICES} vertices")


def _bits(k: int) -> np.ndarray:
    """The 2**k x k table whose row x holds the bits of x, low bit first."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _subset_tables(g: WeightedGraph):
    """Cut weight, volume and size of every subset S of the first n - 1
    vertices (so each {S, V - S} pair appears once), indexed by the bit mask
    of S, with the total degree and the scale.

    The n - 1 vertices split into a low block of k bits and a high block.
    With x the indicator of S, cut(S) = vol(S) - x^T A x, and x^T A x is a
    term of each block plus 2 x_hi^T A_hl x_lo, so each table is an outer
    sum over (high, low) plus one integer product; flattened row-major, its
    index is the mask.  No entry, nor any numerator or denominator the
    callers form, exceeds n * sum(deg) or n**2 * scale, so int64 is exact
    below 2**62 for both; larger weights raise ScaleError.
    """
    n = g.n
    _require_cap(g)
    if n < 2:
        raise ChdError("need at least two vertices")
    mat, scale = g.integer_matrix("adjacency")
    deg = mat.sum(axis=1)  # exact: the graph keeps n * max weight < 2**62
    total = sum(deg.tolist())
    if n * total >= INT64_BOUND or n * n * scale >= INT64_BOUND:
        raise ScaleError("weights this large overflow the int64 cut tables")
    k = (n - 1) // 2
    hi, lo = slice(k, n - 1), slice(0, k)
    x_hi, x_lo = _bits(n - 1 - k), _bits(k)
    vol_hi, vol_lo = x_hi @ deg[hi], x_lo @ deg[lo]
    # cut within each block: vol - x^T A x
    q_hi = vol_hi - ((x_hi @ mat[hi, hi]) * x_hi).sum(axis=1)
    q_lo = vol_lo - ((x_lo @ mat[lo, lo]) * x_lo).sum(axis=1)
    cut = x_hi @ (mat[hi, lo] @ x_lo.T)
    cut *= -2
    cut += q_hi[:, None]
    cut += q_lo[None, :]
    vol = vol_hi[:, None] + vol_lo[None, :]
    size = x_hi.sum(axis=1)[:, None] + x_lo.sum(axis=1)[None, :]
    return cut.ravel(), vol.ravel(), size.ravel(), total, scale


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
    _require_cap(g)
    comps = g.components()
    if len(comps) > 1:
        mask = sum(1 << u for u in comps[0])
        return Fraction(0), _report(g, mask, 0, g.scale)
    # index 0 is the empty set and the last vertex is never in S, so every
    # other index is a proper subset; entry i of the slices is mask i + 1
    cut, vol, _, total, scale = _subset_tables(g)
    cut, vol = cut[1:], vol[1:]
    denom = np.minimum(vol, total - vol)
    best_i, best = _exact_argmin(cut, denom, cut / denom)
    return best, _report(g, best_i + 1, int(cut[best_i]), scale)


def min_edge_density(g: WeightedGraph) -> tuple[Fraction, CutReport]:
    """Exact minimum over proper subsets of n * cut(S) / (|S| * |V-S|)."""
    cut, _, size, _, scale = _subset_tables(g)
    n = g.n
    cut, size = cut[1:], size[1:]
    numer = cut * n
    denom = size * (n - size) * scale
    best_i, best = _exact_argmin(numer, denom, numer / denom)
    return best, _report(g, best_i + 1, int(cut[best_i]), scale)


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
    root extraction of the characteristic polynomial.  The vertex cap of the
    cut search is checked before anything else.
    """
    _require_cap(g)
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
    polynomial; raises when the spectrum is not fully rational.

    A rational eigenvalue of the scaled integer Laplacian M is an integer,
    being a root of the monic integer polynomial det(xI - M).  The
    candidates are the eigenvalues of M from eigvalsh, rounded; each is
    confirmed as a root exactly and deflated, so the result is exact
    whatever the floats did.  The rounding misses no integer eigenvalue
    while n * R < 2**40, R the largest absolute row sum of M: R bounds
    ||M||_2, the integer entries convert exactly, and a backward error of
    up to 2**11 * n * 2**-53 * ||M||_2 moves no eigenvalue by 1/4 (Weyl).
    Beyond that bound a ScaleError is raised.
    """
    ints, scale = g.integer_matrix("laplacian")
    mat = ints.tolist()
    row_sum = max((sum(abs(x) for x in row) for row in mat), default=0)
    if g.n * row_sum >= _EIGVALSH_BOUND:
        raise ScaleError("weights this large exceed the rounding bound of the spectrum")
    current = _char_poly(mat)  # monic, integer coefficients, constant first
    roots = sorted(int(x) for x in np.rint(np.linalg.eigvalsh(ints.astype(float))))
    for root in roots:
        if _poly_eval(current, root):
            raise ExactnessError(
                "the Laplacian spectrum is not fully rational; exact "
                "extraction is unsupported"
            )
        current = _deflate(current, root)
    return [Fraction(root, scale) for root in roots]


def _char_poly(mat) -> list[int]:
    """Characteristic polynomial det(xI - M) of an integer matrix, constant
    term first, by the Faddeev-LeVerrier recurrence on Python integers:
    M_1 = M, c_k = -tr(M_k) / k, M_(k+1) = M (M_k + c_k I).  For an integer
    matrix every c_k is an integer."""
    m = np.array(mat, dtype=object)
    eye = np.identity(len(m), dtype=object)
    coeffs, acc = [1], eye
    for k in range(1, len(m) + 1):
        mk = m @ acc
        tr = int(mk.trace())
        if tr % k:
            raise ExactnessError("characteristic polynomial is not integral")
        coeffs.append(-tr // k)
        acc = mk + coeffs[-1] * eye
    return coeffs[::-1]


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
