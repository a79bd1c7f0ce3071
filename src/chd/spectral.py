"""Exact cut searches, for the Cheeger constant and the edge density, and
the tightness check, which by Fiedler's bound needs no search.

Weights are scaled to integers, and the cut weight of every subset of up
to 24 vertices comes from one split product over a low and a high block of
vertices (see ``_cut_tables``).  The low subsets are sorted by the key that
fixes the ratio's denominator, volume for the Cheeger ratio and size for
the density, so within one high subset a run of equal keys shares its
denominator and only its least cut can be minimal.  The products come in
``graphs.blocks``, each shrunk to its run minima by one grouped minimum,
and only those are divided, so a search holds a few blocks, under 5 MiB at
24 vertices, never the 2**(n-1)-entry tables.  The product runs on float64
BLAS while n * sum(deg) < 2**53 and in int64 above.  Keys and ratios are
int64, used only while n * sum(deg) and n**2 * scale stay below 2**62,
which bounds every cut, numerator and denominator; beyond that a
ScaleError is raised.  The minimum and its smallest subset are selected by
exact comparison (floats only keep a running shortlist, with an exact pass
over it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cyclotomic import FLOAT64_BOUND, INT64_BOUND, all_integers, exact_dtype
from .diagonalise import SpectrumAssignment, bipartition_from_column, regularity_check
from .errors import ChdError, ExactnessError, PreconditionError, ScaleError
from . import graphs
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


class _CutTables(NamedTuple):
    """The cut weight and key of every subset S of the first n - 1 vertices
    (so each {S, V - S} pair appears once).  S's bit mask splits at bit k
    into a high mask h and a low mask order[j], and then
    cut(S) = left[h] @ right[:, j] and key(S) = key_hi[h] + key_lo[j].  The
    low masks are sorted by key, ascending within a key, so equal keys form
    runs, which begin at ``starts``."""

    total: int  # the sum of the degrees
    left: np.ndarray
    right: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    key_hi: np.ndarray
    key_lo: np.ndarray

    def run_minima(self):
        """(first high mask, the least cut of each run in each of the next
        high masks), from products over ``graphs.blocks`` of high masks,
        gathered while the next product's run minima fit in BLOCK entries."""
        parts, first = [], 0
        for rows in graphs.blocks(len(self.left), len(self.order)):
            cut = self.left[rows] @ self.right
            if len(self.starts) < len(self.order):
                cut = np.minimum.reduceat(cut, self.starts, axis=1)
            parts.append(cut)
            end = rows.stop  # the next block is as long as this one, or there is none
            if (end - first + len(cut)) * len(self.starts) > graphs.BLOCK or end == len(self.left):
                yield first, np.concatenate(parts) if len(parts) > 1 else parts[0]
                parts, first = [], end


def _cut_tables(g: WeightedGraph, key: str) -> _CutTables:
    """The cut tables of g, keyed by "volume" (the sum of the degrees in S)
    or by "size".

    The n - 1 vertices split into a low block of k bits and a high block.
    With x the indicator of S, cut(S) = vol(S) - x^T A x, and x^T A x is a
    term of each block plus 2 x_hi^T A_hl x_lo, so the cut is one product
    [x_hi, q_hi, 1] @ [-2 A_hl x_lo^T; 1; q_lo], q the cut within a block.
    Its partial sums are integers in [-sum(deg), sum(deg)], so it runs on
    float64 BLAS while n * sum(deg) < 2**53 and in int64 above.
    """
    n = g.n
    _require_cap(g)
    if n < 2:
        raise ChdError("need at least two vertices")
    mat = g.matrix  # the adjacency matrix times g.scale
    deg = mat.sum(axis=1)  # exact: the graph keeps n * max weight < 2**62
    total = sum(deg.tolist())
    if n * total >= INT64_BOUND or n * n * g.scale >= INT64_BOUND:
        raise ScaleError("weights this large overflow the int64 cut tables")
    k = (n - 1) // 2
    hi, lo = slice(k, n - 1), slice(0, k)
    weight = deg if key == "volume" else np.ones_like(deg)
    x_hi, x_lo = _bits(n - 1 - k), _bits(k)
    key_lo = x_lo @ weight[lo]
    order = np.argsort(key_lo, kind="stable")
    x_lo, key_lo = x_lo[order], key_lo[order]
    q_hi = x_hi @ deg[hi] - ((x_hi @ mat[hi, hi]) * x_hi).sum(axis=1)
    q_lo = x_lo @ deg[lo] - ((x_lo @ mat[lo, lo]) * x_lo).sum(axis=1)
    dtype = np.float64 if n * total < FLOAT64_BOUND else np.int64
    left = np.column_stack((x_hi, q_hi, np.ones_like(q_hi))).astype(dtype)
    right = np.vstack((-2 * mat[hi, lo] @ x_lo.T, np.ones_like(q_lo), q_lo)).astype(dtype)
    starts = np.flatnonzero(np.diff(key_lo, prepend=-1))
    return _CutTables(total, left, right, order, starts, x_hi @ weight[hi], key_lo)


def _report(g: WeightedGraph, mask: int, cut_scaled: int) -> CutReport:
    n = g.n
    subset = tuple(u for u in range(n) if mask >> u & 1)
    cut = Fraction(cut_scaled, g.scale)
    degs = g.degrees()
    vol_s = sum((degs[u] for u in subset), Fraction(0))
    vol_rest = sum(degs, Fraction(0)) - vol_s
    k = len(subset)
    smaller = min(vol_s, vol_rest)
    # a zero-volume side only happens with isolated vertices, where the cut
    # is empty as well; the ratio is 0 by convention
    cheeger_value = cut / smaller if smaller else Fraction(0)
    density = Fraction(n) * cut / (k * (n - k))
    return CutReport(subset, cut, cheeger_value, density)


def _scan_minimum(g: WeightedGraph, t: _CutTables, ratio) -> tuple[Fraction, CutReport]:
    """The exact minimum of num / den over the nonempty masks of t,
    (num, den) = ratio(cut, key) with num increasing in the cut, and its
    report; ties break to the smallest mask.

    Within one high row a run of equal keys shares its denominator, so its
    least ratio is that of its least cut: only the run minima are divided.
    Of those, the first entry of each distinct (num, den) pair is kept while
    its float ratio is within 1e-9 max(1, fmin) of the smallest so far.  The
    ratios are nonnegative, so that threshold only tightens, and the kept
    entries hold every pair within it of the final minimum; those are
    compared exactly, one Fraction per pair.  The first row at the minimum
    holds the smallest minimising mask; that row is recomputed whole and
    its masks are compared with the minimum in Python integers.
    """
    fmin, kept = np.inf, []
    run_keys, width = t.key_lo[t.starts], len(t.starts)
    for a, cut in t.run_minima():
        num, den = ratio(cut, t.key_hi[a : a + len(cut), None] + run_keys)
        # den is 0 only at mask 0, the empty set, in the first block
        f = num / den if a else np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0)
        fmin = min(fmin, float(f.min()))
        idx = np.flatnonzero(f <= fmin + 1e-9 * max(1.0, fmin))
        if len(idx):
            f, num, den = (x.ravel()[idx] for x in (f, num, den))
            pos = np.lexsort((den, num))  # stable: the first of a pair leads
            pos = pos[(np.diff(num[pos], prepend=-1) != 0) | (np.diff(den[pos], prepend=-1) != 0)]
            kept.append((f[pos], num[pos].astype(np.int64), den[pos], a + idx[pos] // width))
    fs, nums, dens, rows = (np.concatenate(c) for c in zip(*kept))
    sel = fs <= fmin + 1e-9 * max(1.0, fmin)
    first = {}  # the first row of each pair; rows ascend over blocks
    for pair, row in zip(zip(nums[sel].tolist(), dens[sel].tolist()), rows[sel].tolist()):
        first.setdefault(pair, row)
    best, row = min((Fraction(*pair), row) for pair, row in first.items())
    cut = (t.left[row] @ t.right).astype(np.int64, copy=False)
    num, den = ratio(cut, t.key_hi[row] + t.key_lo)
    p, q = best.numerator, best.denominator
    j = min(
        (j for j, (x, y) in enumerate(zip(num.tolist(), den.tolist())) if y and x * q == y * p),
        key=t.order.__getitem__,
    )
    k = len(t.order).bit_length() - 1
    return best, _report(g, row << k | int(t.order[j]), int(cut[j]))


def cheeger(g: WeightedGraph) -> tuple[Fraction, CutReport]:
    """Exact Cheeger constant and a minimising subset.

    A disconnected graph has constant 0, witnessed by one component.
    """
    _require_cap(g)
    comps = g.components()
    if len(comps) > 1:
        mask = sum(1 << u for u in comps[0])
        return Fraction(0), _report(g, mask, 0)
    # the last vertex is never in S, so every nonempty mask is a proper subset
    t = _cut_tables(g, "volume")
    return _scan_minimum(g, t, lambda cut, vol: (cut, np.minimum(vol, t.total - vol, out=vol)))


def min_edge_density(g: WeightedGraph) -> tuple[Fraction, CutReport]:
    """Exact minimum over proper subsets of n * cut(S) / (|S| * |V-S|)."""
    n, scale = g.n, g.scale
    return _scan_minimum(
        g, _cut_tables(g, "size"), lambda cut, size: (cut * n, size * (n - size) * scale)
    )


def cheeger_value_of(g: WeightedGraph, subset) -> Fraction:
    """Exact Cheeger ratio of one given subset of the vertices 0..n-1, by
    ``cheeger``'s rules: 0 when a side has no volume."""
    subset = set(subset)
    if not subset or len(subset) >= g.n:
        raise ChdError("subset must be nonempty and proper")
    if not (all_integers(subset) and 0 <= min(subset) and max(subset) < g.n):
        raise ChdError(f"subset must hold vertices in 0..{g.n - 1}")
    inside = np.zeros(g.n, dtype=bool)
    inside[list(subset)] = True
    # each row sum is below 2**62, the bound of the graph's int64 storage
    cut = sum(g.matrix[np.ix_(inside, ~inside)].sum(axis=1).tolist())
    return _report(g, sum(1 << int(u) for u in subset), cut).cheeger_value


def tightness_check(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment
) -> bool:
    """Exact check that the Cheeger constant h meets its spectral lower
    bound gamma_2 / 2 = lambda_2 / 2d at the plus cell of a lambda_2 column,
    given a real or Turyn diagonaliser, its certified Laplacian spectrum and
    a connected unweighted graph.  No cut is searched, so any order is taken.

    Proof: x = 1_S - (|S|/n) 1 is orthogonal to 1, so cut(S) = x^T L x >=
    lambda_2 |S| |V-S| / n (Fiedler, 1973); as min(|S|, |V-S|) <=
    2 |S| |V-S| / n, every S of a d-regular graph has ratio at least
    gamma_2 / 2.  So h >= gamma_2 / 2, and "h = gamma_2 / 2 = the plus
    cell's ratio" holds iff the plus cell's ratio is gamma_2 / 2.

    Under these preconditions it returns True or raises: ``_equitable``,
    through ``bipartition_from_column``, already makes every plus vertex
    send lambda_2 / 2 into the other cell, so the plus cell's cut is
    n lambda_2 / 4; the final comparison recomputes that independently.
    """
    if classify(h).kind not in ("real", "turyn"):
        raise PreconditionError("tightness needs a real or turyn matrix")
    if spectrum.target != "laplacian":
        raise PreconditionError("tightness needs the laplacian spectrum")
    if not g.is_unweighted():
        raise PreconditionError("tightness is defined for unweighted graphs")
    if not g.is_connected():
        raise PreconditionError("tightness needs a connected graph")
    d = regularity_check(g)
    lam2 = spectrum.second_smallest()
    # witness: the cell where a lambda_2 column is 1 or i; column 0, all
    # ones, has eigenvalue 0, so lambda_2 is on another column too
    rows = {i for i, e in enumerate(spectrum.values) if e.rational == lam2}
    k = next(k for k, i in enumerate(spectrum.index) if k > 0 and i in rows)
    plus = bipartition_from_column(g, h, spectrum, k).cells[0]
    return cheeger_value_of(g, plus) == lam2 / d / 2


def cheeger_inequality_audit(
    g: WeightedGraph, spectrum: SpectrumAssignment | None = None
) -> dict:
    """Exact audit of gamma_2 / 2 <= h <= sqrt(2 * gamma_2).

    The lower bound is compared in rationals; the upper bound is checked as
    h * h <= 2 * gamma_2 to avoid floating square roots.  gamma_2 comes from
    a supplied spectrum, once ``_is_spectrum`` confirms it is g's Laplacian
    spectrum, otherwise from ``exact_rational_spectrum``.  The vertex cap of
    the cut search is checked before anything else.
    """
    _require_cap(g)
    if g.n < 2:
        raise PreconditionError("the audit needs at least two vertices")
    if not g.is_connected():
        raise PreconditionError("the audit needs a connected graph")
    d = regularity_check(g)
    if d is None:
        raise PreconditionError("the audit needs a regular graph")
    if spectrum is None:
        lam2 = sorted(exact_rational_spectrum(g))[1]
    else:
        ints, scale = g.integer_matrix("laplacian")
        if not _is_spectrum(ints, [q * scale for q in spectrum.rationals()]):
            raise PreconditionError("the spectrum is not the Laplacian spectrum of the graph")
        lam2 = spectrum.second_smallest()
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
    """All Laplacian eigenvalues as exact rationals; raises when the
    spectrum is not fully rational.

    A rational eigenvalue of the scaled integer Laplacian M is an integer,
    being a root of the monic integer polynomial det(xI - M).  The
    candidates are the eigenvalues of M from eigvalsh, rounded, and
    ``_is_spectrum`` confirms them all at once, so the result is exact
    whatever the floats did.  The rounding misses no integer eigenvalue
    while n * R < 2**40, R the largest absolute row sum of M: R bounds
    ||M||_2, the integer entries convert exactly, and a backward error of
    up to 2**11 * n * 2**-53 * ||M||_2 moves no eigenvalue by 1/4 (Weyl).
    Beyond that bound a ScaleError is raised.
    """
    ints, scale = g.integer_matrix("laplacian")
    row_sum = max((sum(abs(x) for x in row) for row in ints.tolist()), default=0)
    if g.n * row_sum >= _EIGVALSH_BOUND:
        raise ScaleError("weights this large exceed the rounding bound of the spectrum")
    roots = sorted(int(x) for x in np.rint(np.linalg.eigvalsh(ints.astype(float))))
    if not _is_spectrum(ints, roots):
        raise ExactnessError(
            "the Laplacian spectrum is not fully rational; exact "
            "extraction is unsupported"
        )
    return [Fraction(root, scale) for root in roots]


def _is_spectrum(mat: np.ndarray, values) -> bool:
    """Whether the integers or Fractions ``values`` are the eigenvalues of
    the n x n integer matrix M, with multiplicity.  By Newton's identities
    the power sums tr(M**k) = sum(v**k) for k = 1..n fix the characteristic
    polynomial, so they decide exactly.  Every entry, partial sum and trace
    of M**k is at most n * R**k in size, R the largest absolute row sum of
    M, so M**k is formed in int64 while n * R**k < 2**62 and on Python
    integers from the first k past that; M**(n+1) is never formed.

    >>> m = np.array([[1, -1], [-1, 1]])
    >>> _is_spectrum(m, [0, 2]), _is_spectrum(m, [1, 1]), _is_spectrum(m, [2])
    (True, False, False)
    """
    n = len(mat)
    if len(values) != n:
        return False
    bound = max((sum(abs(x) for x in row) for row in mat.tolist()), default=0)
    power = np.identity(n, dtype=np.int64)
    for k in range(1, n + 1):
        dtype = exact_dtype(n * bound**k)
        power = power.astype(dtype, copy=False) @ mat.astype(dtype, copy=False)
        if int(power.trace()) != sum(v**k for v in values):
            return False
    return True
