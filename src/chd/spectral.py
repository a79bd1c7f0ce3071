"""Exact cut searches, for the Cheeger constant and the edge density, and
the tightness check, which by Fiedler's bound needs no search.

Weights are scaled to integers, and the cut of every subset of up to 24
vertices comes from one product over the boundary patterns of a
breadth-first high block (see ``_cut_tables``).  Subsets that share the key
fixing the ratio's denominator (volume for the Cheeger ratio, size for the
density) form runs and groups, and only the least cut of each is divided,
in blocks of ``graphs.BLOCK // 2`` entries, under 5 MiB.  Products run on
float64 BLAS while n * sum(deg) < 2**53 and in int64 above; keys and ratios
are int64 while n * sum(deg) and n**2 * scale stay below 2**62, past which
a ScaleError is raised.  Floats only shortlist: the minimum and its
smallest subset are decided exactly (see ``_scan_minimum``).
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
        raise ScaleError(f"cut searches and exact spectra are capped at {_MAX_VERTICES} vertices")


def _bits(k: int) -> np.ndarray:
    """The 2**k x k table whose row x holds the bits of x, low bit first."""
    x = np.arange(1 << k, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(x, axis=1, count=k, bitorder="little")


def _blocks(count: int, width: int):
    """``graphs.blocks`` of half size, the cut search's one block size: float64
    temporaries of 2**15 entries pass glibc's mmap threshold, paged in afresh."""
    return graphs.blocks(count, 2 * width)


def _begins(a: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted array a begins a run of equal ones."""
    return np.concatenate(([True], a[1:] != a[:-1]))


class _CutTables(NamedTuple):
    """The cut weight and key of every subset S of the first n - 1 vertices
    (so each {S, V - S} pair appears once), S the union of a high subset h,
    a row, and a low subset j, a column: its mask is hi_masks[h] |
    lo_masks[j], its cut q_hi[h] + left[h >> shift] @ right[:, j] and its
    key key_hi[h] + key_lo[j], h >> shift being h's boundary pattern.  The
    columns are sorted by key, then mask, in runs of one key from ``starts``."""

    total: int  # the sum of the degrees
    shift: int  # the number of high vertices without a low neighbour
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray
    key_lo: np.ndarray
    lo_masks: np.ndarray
    q_hi: np.ndarray
    key_hi: np.ndarray
    hi_masks: np.ndarray

    def groups(self):
        """(q, key, mask), patterns x groups: a group is the rows of one
        pattern and one key, q its least q_hi, at which its rows hold its
        least cut in every column, and mask their least.  When every key is
        distinct, each row is a group, as each column is a run."""
        rows = [x.reshape(len(self.left), -1) for x in self[-3:]]  # pattern x interior part
        if not self.shift:
            return rows
        inner = np.argsort(self.key_hi[: 1 << self.shift], kind="stable")
        starts = np.flatnonzero(_begins(self.key_hi[inner]))
        if len(starts) == len(inner):
            return rows
        q, key, masks = (x[:, inner] for x in rows)
        least = np.minimum.reduceat(q, starts, axis=1)
        at = q == np.repeat(least, np.diff(starts, append=len(inner)), axis=1)
        masks = np.minimum.reduceat(np.where(at, masks, np.iinfo(np.int64).max), starts, axis=1)
        return least, key[:, starts], masks

    def run_minima(self, q: np.ndarray):
        """(patterns, groups, the least cut of each run in each group), q the
        groups' least q_hi, for ``_blocks`` of patterns whose run minima fill
        one block, from products of one block each, each shrunk to its run
        minima by one grouped minimum unless every key is distinct."""
        width, runs, groups = len(self.lo_masks), len(self.starts), q.shape[1]
        for pats in _blocks(len(q), groups * runs):
            left, cut = self.left[pats], []
            for rows in _blocks(len(left), width):
                part = left[rows] @ self.right
                cut.append(np.minimum.reduceat(part, self.starts, axis=1) if runs < width else part)
            cut = np.concatenate(cut) if len(cut) > 1 else cut[0]
            for cs in _blocks(groups, runs * len(cut)):
                yield pats, cs, q[pats, cs, None] + cut[:, None, :]


def _cut_tables(g: WeightedGraph, key: str) -> _CutTables:
    """The cut tables of g, keyed by "volume" (the sum of the degrees in S)
    or by "size".  The high block is the first n - 1 - k vertices that a
    breadth-first search from vertex n - 1 reaches, taking each vertex's
    neighbours and then the unreached in descending order, so that the block
    leans to the larger vertices, whose bits order the witnesses; the low
    block is the other k = (n - 1) // 2.  As cut(S) = x^T (D - A) x, x the
    indicator of S, and only the boundary B of the high block meets the low
    block, the cut is q_hi plus [x_B, 1] @ [-2 A_Bl x_lo^T; q_lo] over the
    2**|B| patterns x_B, q the cut within a block.  The partial sums are
    integers of size at most sum(deg), so exact in float64 while that is
    below 2**53.
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
    adj, order, seen = mat.tolist(), [n - 1], {n - 1}
    for u in order:  # the loop goes on over what it appends
        if len(order) >= n - k:
            break
        order += [v for v in range(n - 2, -1, -1) if adj[u][v] and not (v in seen or seen.add(v))]
    order += [v for v in range(n - 2, -1, -1) if v not in seen]
    high, low = sorted(order[1 : n - k]), sorted(order[n - k :])
    inner = [u for u in high if not any(adj[u][v] for v in low)]  # the boundary takes the top bits
    hi = np.array(inner + [u for u in high if u not in inner], dtype=np.int64)
    lo, shift = np.array(low, dtype=np.int64), len(inner)
    weight = deg if key == "volume" else np.ones_like(deg)
    dtype = np.float64 if n * total < FLOAT64_BOUND else np.int64
    # per vertex: its row of A, key weight, mask bit, row of -2 A into B, degree
    into_b = -2 * mat[:, hi[shift:]]
    table = np.hstack((mat, np.array((weight, 1 << np.arange(n))).T, into_b, deg[:, None]))
    extra = np.arange(n, table.shape[1])
    x_hi = _bits(len(hi))  # its first 2**k rows and k columns are _bits(k)
    sides = []  # per block and subset: key, mask, for the low block x @ -2 A_lB, and q
    for vs, cols in ((hi, extra[[0, 1, -1]]), (lo, extra)):
        m, cols = len(vs), table[vs][:, np.concatenate((vs, cols))].astype(dtype)
        out = np.empty((len(cols.T) - m, 1 << m), dtype=dtype)
        for rows in _blocks(1 << m, len(cols.T)):
            x = x_hi[rows, :m].astype(dtype)
            p = x @ cols
            p[:, -1] -= np.einsum("ij,ij->i", p[:, :m], x)
            out[:, rows] = p[:, m:].T
        sides.append(out)
    (key_hi, hi_masks), (key_lo, lo_masks) = (out[:2].astype(np.int64) for out in sides)
    perm = np.argsort(key_lo, kind="stable")
    key_lo, lo_masks = key_lo[perm], lo_masks[perm]
    starts = np.flatnonzero(_begins(key_lo))
    left = np.ones((1 << len(hi) - shift, len(hi) - shift + 1), dtype=dtype)
    left[:, :-1] = x_hi[:: 1 << shift, shift:]  # row p << shift has pattern p alone
    q_hi, right = sides[0][-1], sides[1][2:, perm]
    return _CutTables(total, shift, left, right, starts, key_lo, lo_masks, q_hi, key_hi, hi_masks)


def _report(g: WeightedGraph, mask: int, cut_scaled: int) -> CutReport:
    n = g.n
    subset = tuple(u for u in range(n) if mask >> u & 1)
    deg = g.matrix.sum(axis=1).tolist()  # the degrees times g.scale, exact
    vol_s = sum(deg[u] for u in subset)
    smaller = min(vol_s, sum(deg) - vol_s)
    k = len(subset)
    # a zero-volume side only happens with isolated vertices, where the cut
    # is empty as well; the ratio is 0 by convention
    cheeger_value = Fraction(cut_scaled, smaller) if smaller else Fraction(0)
    density = Fraction(n * cut_scaled, k * (n - k) * g.scale)
    return CutReport(subset, Fraction(cut_scaled, g.scale), cheeger_value, density)


def _scan_minimum(g: WeightedGraph, t: _CutTables, ratio) -> tuple[Fraction, CutReport]:
    """The exact minimum of num / den over the nonempty masks of t,
    (num, den) = ratio(cut, key) with num increasing in the cut, and its
    report; ties break to the smallest mask.

    A group is kept, with the (num, den) pairs of its run minima, while its
    least float ratio is within 1e-9 max(1, fmin) of the least so far, fmin.
    That threshold only tightens, so the kept pairs, all true ratios, hold
    the minimum's; of one den only the least num can be the minimum, and
    the least of those, compared exactly, is.  The groups kept to the end
    are recomputed whole, in ascending order of their high masks and the
    first alone: a mask is at the minimum iff its pair is a minimum's, and
    once the least such mask found is below a group's high mask, no later
    group holds a smaller one.
    """
    q, key, hmask = t.groups()
    run_keys = t.key_lo[t.starts]
    fmin, kept, least, pairs = np.inf, [], [], set()
    for pats, cs, cut in t.run_minima(q):
        num, den = ratio(cut, key[pats, cs, None] + run_keys)
        if pats.start or cs.start:
            f = num / den
        else:  # den is 0 only at mask 0, the empty set, in group 0
            f = np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0)
        low = f.min(axis=2).ravel()
        fmin = min(fmin, float(low.min()))
        i = np.flatnonzero(low <= fmin + 1e-9 * max(1.0, fmin))
        if len(i) and fmin < np.inf:  # not the empty set alone
            near = f <= fmin + 1e-9 * max(1.0, fmin)
            kept.append(pats.start * q.shape[1] + cs.start + i)  # groups of one pattern, or all
            least.append(low[i])
            den = den[near]
            pos = np.argsort(den, kind="stable")
            num, den = num[near][pos], den[pos]
            first = np.flatnonzero(_begins(den))  # the least num of each den
            num = np.minimum.reduceat(num, first).astype(np.int64)
            pairs.update(zip(num.tolist(), den[first].tolist()))
    pairs = {pair: Fraction(*pair) for pair in pairs}
    best = min(pairs.values())
    pairs = [pair for pair, value in pairs.items() if value == best]
    kept = np.concatenate(kept)[np.concatenate(least) <= fmin + 1e-9 * max(1.0, fmin)]
    kept = kept[np.argsort(hmask.flat[kept], kind="stable")]
    mask = None
    for gs in [kept[:1], *(kept[1:][b] for b in _blocks(len(kept) - 1, len(t.lo_masks)))]:
        if mask is not None:
            gs = gs[hmask.flat[gs] < mask]
            if not len(gs):
                break
        cut = q.flat[gs][:, None] + t.left[gs // q.shape[1]] @ t.right
        num, den = ratio(cut, key.flat[gs][:, None] + t.key_lo)
        i, j = np.nonzero(np.logical_or.reduce([(num == x) & (den == y) for x, y in pairs]))
        masks = hmask.flat[gs[i]] | t.lo_masks[j]
        if len(masks) and (mask is None or masks.min() < mask):
            m = int(masks.argmin())
            mask, cut_weight = int(masks[m]), int(cut[i[m], j[m]])
    return best, _report(g, mask, cut_weight)


def cheeger(g: WeightedGraph) -> tuple[Fraction, CutReport]:
    """Exact Cheeger constant and a minimising subset.

    A disconnected graph has constant 0, witnessed by one component.
    """
    _require_cap(g)
    comps = g.components()
    if len(comps) > 1:
        mask = sum(1 << u for u in comps[0])
        return Fraction(0), _report(g, mask, 0)
    return _connected_cheeger(g)


def _connected_cheeger(g: WeightedGraph) -> tuple[Fraction, CutReport]:
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
    h_val, witness = _connected_cheeger(g)  # connected, as checked above
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
    Beyond that bound, or past 24 vertices, a ScaleError is raised.
    """
    _require_cap(g)
    ints, scale = g.integer_matrix("laplacian")
    row_sum = int(np.abs(ints).sum(axis=1).max(initial=0))  # 2 deg: n * max weight < 2**62
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
