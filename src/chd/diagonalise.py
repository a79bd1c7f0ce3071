"""Exact certification that a Hadamard matrix diagonalises a graph matrix.

The central routine, :func:`certify`, never touches a numerical eigensolver:
for each column h_j of a dephased matrix H it reads the candidate eigenvalue
off the first coordinate of M h_j (valid because H[0, j] = 1) and then checks
M h_j - lambda_j h_j = 0 exactly in the ring of root-of-unity combinations,
by evaluation at split primes (``cyclotomic.vanishes``).
Everything downstream (equitable partitions, parity/divisibility checks, the
small-graph catalogue) consumes those exact certificates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import CyclotomicInt, all_integers, prime_factors, reduce, vanishes
from .errors import (
    ChdError,
    ExactnessError,
    InternalCheckError,
    PreconditionError,
    ScaleError,
)
from . import graphs as graphmod
from .graphs import WeightedGraph, blocks, complement
from .hadamard import ButsonMatrix, _require_dephased, classify, instance_library

__all__ = [
    "EigenvalueEntry",
    "SpectrumAssignment",
    "EquitablePartition",
    "certify",
    "regularity_check",
    "bipartition_from_column",
    "p_partition_from_column",
    "theorem_checks",
    "TheoremReport",
    "odd_union_obstruction",
    "catalogue",
    "CatalogueEntry",
]

@dataclass(frozen=True)
class EigenvalueEntry:
    """One eigenvalue: an exact ring element divided by an integer scale,
    with the rational value extracted when it exists."""

    cyclo: CyclotomicInt
    scale: int
    rational: Fraction | None

    def to_complex(self) -> complex:
        return self.cyclo.to_complex() / self.scale

    @property
    def is_rational(self) -> bool:
        return self.rational is not None

    @property
    def is_integer(self) -> bool:
        return self.rational is not None and self.rational.denominator == 1

    def __str__(self) -> str:
        if self.rational is not None:
            return str(self.rational)
        return f"({self.cyclo!r})/{self.scale}"


@dataclass(frozen=True)
class SpectrumAssignment:
    """Per-column eigenvalues certifying M h_j = lambda_j h_j exactly: one
    entry in ``values`` per distinct coefficient row of lambda (two may be
    one value), in first-column order, and column j's is values[index[j]]."""

    values: tuple[EigenvalueEntry, ...]
    index: tuple[int, ...]
    target: str  # "laplacian" or "adjacency"

    def __post_init__(self) -> None:
        if self.target not in ("laplacian", "adjacency"):
            raise ChdError(f"unknown target {self.target!r}")
        index, m = self.index, len(self.values)
        if index and not (all_integers(index) and 0 <= min(index) and max(index) < m):
            raise ChdError(f"spectrum index entries must be integers in 0..{m - 1}")

    @cached_property
    def entries(self) -> tuple[EigenvalueEntry, ...]:
        return tuple(map(self.values.__getitem__, self.index))

    @property
    def n(self) -> int:
        return len(self.index)

    def expand(self, per_value: list) -> list:
        """One item per column from one item per entry of ``values``."""
        return list(map(per_value.__getitem__, self.index))

    def floats(self) -> list[float]:
        return self.expand([e.to_complex().real for e in self.values])

    def rationals(self) -> list[Fraction]:
        """All eigenvalues as exact rationals; raises if any is irrational."""
        if any(e.rational is None for e in self.values):
            raise ExactnessError(
                "spectrum contains an irrational eigenvalue; "
                "exact rational processing is unsupported here"
            )
        return self.expand([e.rational for e in self.values])

    def integers(self) -> list[int]:
        """All eigenvalues as exact integers, decided once; raises if any is not."""
        return list(self._integers)

    @cached_property
    def _integers(self) -> tuple[int, ...]:
        self.rationals()  # raises on an irrational entry
        for e in self.values:
            if e.rational.denominator != 1:
                raise ExactnessError(
                    f"eigenvalue {e.rational} is not an integer; exact congruence "
                    "arithmetic is unsupported here"
                )
        return tuple(self.expand([int(e.rational) for e in self.values]))

    def second_smallest(self) -> Fraction:
        if self.n < 2:
            raise PreconditionError("a spectrum of one vertex has no second eigenvalue")
        return sorted(self.rationals())[1]


def regularity_check(g: WeightedGraph) -> Fraction | None:
    """The common weighted degree if the graph is weighted-regular, else None."""
    degs = g.matrix.sum(axis=1).tolist()  # the degrees times g.scale, exact
    if degs.count(degs[0]) == len(degs):
        return Fraction(degs[0], g.scale)
    return None


def _require_orders(g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment) -> None:
    if not g.n == h.n == spectrum.n:
        raise ChdError(
            "order mismatch: graph, matrix and spectrum orders must agree, "
            f"got {g.n}, {h.n} and {spectrum.n}"
        )


def certify(
    g: WeightedGraph, h: ButsonMatrix, target: str = "laplacian"
) -> SpectrumAssignment | None:
    """Exact spectrum assignment if h diagonalises the chosen matrix of g.

    Requires a verified, dephased h of matching order.  Returns None when
    some column fails the exact residual check (the graph is then not
    diagonalised by h).

    The check is M H(g) = H(g) diag(lambda(g)) (mod p), lambda(g) row 0 of
    M H(g), by ``cyclotomic.vanishes``: an entry of M h_j - lambda_j h_j has
    at most 2W in coefficients, W the largest row sum of |M|, so one split
    prime decides while 20 W < p (about 1.4M).  Closure, as in ``verify``,
    is over the columns of H.  Beside the blocks of ``graphs.blocks`` it
    holds one float64 copy of M, 128 MiB at n = 4096.

    Columns of one coefficient row of lambda share one entry, reduced and
    built once (Q8: 9 entries for 256 columns).
    """
    mat, scale = g.integer_matrix(target)
    if g.n != h.n:
        raise ChdError(f"order mismatch: graph has {g.n} vertices, matrix {h.n}")
    _require_dephased(h, "certify")
    n, r = g.n, h.r
    w = int(np.abs(mat).sum(axis=1).max(initial=0))
    if not vanishes(lambda p, powers: _residuals(mat, w, h, p, powers), h.exps.T, r, 2 * w):
        return None
    # row 0 of H is all ones, so lambda_j is row 0 of M h_j:
    # lam[j] = sum_s M[0, s] z**exps[s, j]
    lam = np.zeros((n, r), dtype=mat.dtype)
    nz = np.flatnonzero(mat[0])
    np.add.at(lam, (np.arange(n), h.exps[nz]), mat[0, nz][:, None])
    keys = (list(map(tuple, lam.tolist())) if lam.dtype == object
            else lam.view((np.void, 8 * r)).ravel().tolist())
    place = {key: i for i, key in enumerate(dict.fromkeys(keys))}  # numbered in first-column order
    index = list(map(place.__getitem__, keys))
    rows = np.empty((len(place), r), dtype=lam.dtype)
    rows[index] = lam  # the columns of one row agree, so any may write it
    entries = []
    for coeffs, rem in zip(rows.tolist(), reduce(rows, r).tolist()):
        rational = None if any(rem[1:]) else Fraction(rem[0], scale)
        entries.append(EigenvalueEntry(CyclotomicInt(r, coeffs), scale, rational))
    return SpectrumAssignment(tuple(entries), tuple(index), target)


def _residuals(mat: np.ndarray, bound: int, h: ButsonMatrix, p: int, powers: np.ndarray):
    """Blocks of columns of M H(g) - H(g) diag(lambda(g)), with powers[e] =
    g**e mod p and lambda(g) row 0 of M H(g) reduced mod p.  M is reduced
    mod p unless its row sums of |M|, at most ``bound``, are below p; either
    way every entry is below 4097 (p-1)**2 < 2**53 in size, so float64
    holds it exactly."""
    weights = (mat if bound < p else mat % p).astype(np.float64)
    for block in blocks(h.n, h.n):
        hg = powers.take(h.exps[:, block])
        mh = weights @ hg
        hg *= mh[0] - p * np.rint(mh[0] / p)
        mh -= hg
        yield mh


# -- equitable partitions ------------------------------------------------


@dataclass(frozen=True)
class EquitablePartition:
    """Vertex partition whose cell-to-cell edge weights are vertex-independent."""

    cells: tuple[tuple[int, ...], ...]
    quotient: tuple[tuple[Fraction, ...], ...]


def _fractions(row, scale: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(x), scale) for x in row)


def _column_cells(h: ButsonMatrix, k: int, m: int) -> np.ndarray:
    """For each vertex u, the i with H[u, k] = z**(i r / m): the place of
    the entry among the m-th roots of unity."""
    if not (all_integers((k,)) and 0 < k < h.n):
        raise PreconditionError(f"column {k!r} is not in 1..{h.n - 1}; column 0 is all ones")
    scaled = m * h.exps[:, k]
    if (scaled % h.r).any():
        raise PreconditionError(
            f"column {k} contains an entry that is not a {m}-th root of unity"
        )
    return scaled // h.r


def _equitable(
    g: WeightedGraph, index: np.ndarray, p: int, lam: Fraction
) -> EquitablePartition:
    """The partition whose cell i holds the vertices u with index[u] = i, as
    a column of eigenvalue lam cuts it, checked exactly: the cells are equal
    in size, every vertex of a cell sends the same weight into each cell,
    and the quotient is the one the column predicts, lam/p off the diagonal
    and d - (p-1) lam/p on it."""
    cells = tuple(tuple(np.flatnonzero(index == i).tolist()) for i in range(p))
    if len({len(c) for c in cells}) != 1:
        raise InternalCheckError("cells do not have equal sizes")
    # into[u, i] is the weight from u into cell i
    into = g.matrix @ (index[:, None] == np.arange(p)).astype(g.matrix.dtype)
    quotient = []
    for i, cell in enumerate(cells):
        row = into[cell[0]]
        for u in cell:
            if not np.array_equal(into[u], row):
                raise InternalCheckError(
                    f"partition is not equitable: vertex {u} of cell {i} "
                    f"sees {_fractions(into[u], g.scale)}, "
                    f"expected {_fractions(row, g.scale)}"
                )
        quotient.append(_fractions(row, g.scale))
    quotient = tuple(quotient)
    d = regularity_check(g)
    off = lam / p
    expected = tuple(
        tuple(d - (p - 1) * off if i == j else off for j in range(p)) for i in range(p)
    )
    if quotient != expected:
        raise InternalCheckError(
            f"quotient {quotient} does not match the predicted {expected}"
        )
    return EquitablePartition(cells, quotient)


def bipartition_from_column(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment, k: int
) -> EquitablePartition:
    """Two-cell equitable partition read off a column with entries in
    {1, -1, i, -i}: one cell collects the vertices where the column is 1 or
    i, the other where it is -1 or -i.  Both cells have exactly n/2 vertices
    and the quotient is [[d - l/2, l/2], [l/2, d - l/2]] with l the column's
    eigenvalue.
    """
    _require_orders(g, h, spectrum)
    index = _column_cells(h, k, 4) // 2
    lam = spectrum.entries[k].rational
    if lam is None:
        raise PreconditionError(f"column {k} has an irrational eigenvalue")
    return _equitable(g, index, 2, lam)


def p_partition_from_column(
    g: WeightedGraph,
    h: ButsonMatrix,
    spectrum: SpectrumAssignment,
    k: int,
    p: int,
) -> EquitablePartition:
    """Equitable partition into p equal cells from a column of p-th roots of
    unity (p prime) with a nonzero integer eigenvalue.

    Cell j collects the vertices where the column equals z**j; the quotient
    has off-diagonal entries l/p and diagonal d - (p-1) l/p.  Only a p that
    divides r gives such a column, so that is checked before primality.
    """
    _require_orders(g, h, spectrum)
    if not all_integers((p,)) or p < 2 or h.r % p or prime_factors(p) != [p]:
        raise PreconditionError(f"{p!r} is not a prime dividing the root order {h.r}")
    index = _column_cells(h, k, p)
    entry = spectrum.entries[k]
    if not entry.is_integer or entry.rational == 0:
        raise PreconditionError(
            f"column {k} needs a nonzero integer eigenvalue, got {entry}"
        )
    lam = entry.rational
    if int(lam) % p:
        raise PreconditionError(f"eigenvalue {lam} is not divisible by {p}")
    return _equitable(g, index, p, lam)


# -- parity / divisibility reports ---------------------------------------


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    applicable: bool
    passed: bool | None
    detail: str


@dataclass(frozen=True)
class TheoremReport:
    checks: tuple[TheoremCheck, ...]

    def to_json(self) -> list:
        return [asdict(c) for c in self.checks]


def theorem_checks(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment
) -> TheoremReport:
    """Spectral consequences of the matrix class, checked as falsifiable facts.

    The theorems speak of the Laplacian of an integer-weighted graph; for
    any other graph or target every check is marked not applicable.

    - real or turyn class: every eigenvalue is an even integer;
    - root order a power of two: every rational eigenvalue is an even
      integer;
    - root order an odd prime p: every nonzero integer eigenvalue is
      divisible by p and has multiplicity at least p - 1.
    """
    _require_orders(g, h, spectrum)
    cls = classify(h)
    r = cls.root_order
    in_scope = g.scale == 1 and spectrum.target == "laplacian"
    bad = {i for i, e in enumerate(spectrum.values) if not (e.is_integer and e.rational % 2 == 0)}
    odd = [spectrum.values[i] for i in spectrum.index if i in bad]  # one per column
    return TheoremReport((
        _check(
            "even-spectrum-real-turyn",
            in_scope and cls.kind in ("real", "turyn"),
            f"matrix class is {cls}",
            "all eigenvalues are even integers",
            (str(e) for e in odd),
        ),
        _check(
            "power-of-two-even-integers",
            in_scope and r >= 1 and (r & (r - 1)) == 0,
            f"minimal root order is {r}",
            "all rational eigenvalues are even integers",
            (str(e.rational) for e in odd if e.is_rational),
        ),
        _check(
            "prime-divisibility-and-multiplicity",
            in_scope and r > 2 and prime_factors(r) == [r],
            f"minimal root order is {r}",
            f"nonzero integer eigenvalues divisible by {r} with multiplicity >= {r - 1}",
            _prime_violations(spectrum, r),
        ),
    ))


def _check(name: str, applicable: bool, scope: str, holds: str, violations) -> TheoremCheck:
    """Not applicable with the detail ``scope``, passed with ``holds``, or
    failed with the ``violations``, an iterable read only if applicable."""
    if not applicable:
        return TheoremCheck(name, False, None, scope)
    bad = list(violations)
    return TheoremCheck(name, True, not bad, f"violations: {bad}" if bad else holds)


def _prime_violations(spectrum: SpectrumAssignment, p: int):
    """Nonzero integer eigenvalues not divisible by p or rarer than p - 1."""
    ints = spectrum.expand([int(e.rational) if e.is_integer else 0 for e in spectrum.values])
    for lam in {v for v in ints if v}:
        if lam % p:
            yield f"{lam} not divisible by {p}"
        mult = ints.count(lam)
        if mult < p - 1:
            yield f"{lam} has multiplicity {mult} < {p - 1}"


def odd_union_obstruction(g: WeightedGraph) -> bool:
    """True iff the graph is a disjoint union of an odd number (>= 3) of
    connected pieces of one common order; such unions admit no real or
    Turyn diagonaliser."""
    if not g.is_unweighted():
        raise ChdError("the obstruction is defined for unweighted graphs")
    comps = g.components()
    if len(comps) < 3 or len(comps) % 2 == 0:
        return False
    return len({len(c) for c in comps}) == 1


# -- the small-graph catalogue --------------------------------------------


def _isomorphic_masks(a, b) -> bool:
    """Backtracking search for a bijection u -> perm[u] with a[u] ~
    b[perm[u]], on tuples of neighbour bit masks.  The candidates for u are
    the unused vertices of b of u's degree, grouped once; pulled[v] holds
    the w < u with b[v] ~ perm[w] as a mask, so that a candidate is checked
    against all earlier vertices by one comparison."""
    n = len(a)
    deg_a = [bin(m).count("1") for m in a]
    deg_b = [bin(m).count("1") for m in b]
    if n != len(b) or sorted(deg_a) != sorted(deg_b):
        return False
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(deg_b):
        by_degree.setdefault(d, []).append(v)
    neighbours = [[x for x in range(n) if m >> x & 1] for m in b]
    used = [False] * n
    pulled = [0] * n

    def rec(u: int) -> bool:
        if u == n:
            return True
        want, bit = a[u] & ((1 << u) - 1), 1 << u
        for v in by_degree[deg_a[u]]:
            if used[v] or pulled[v] != want:
                continue
            used[v] = True
            for x in neighbours[v]:
                pulled[x] |= bit
            if rec(u + 1):
                return True
            used[v] = False
            for x in neighbours[v]:
                pulled[x] ^= bit
        return False

    return rec(0)


def _graph_masks(g: WeightedGraph) -> tuple[int, ...]:
    return tuple(((g.matrix != 0) @ (1 << np.arange(g.n))).tolist())


@dataclass(frozen=True)
class CatalogueEntry:
    order: int
    degree: int
    name: str
    graph: WeightedGraph
    hadamard_name: str
    hadamard: ButsonMatrix
    spectrum: SpectrumAssignment

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "name": self.name,
            "graph": self.graph.to_json(),
            "hadamard": dict(self.hadamard.to_json(), name=self.hadamard_name),
            "eigenvalues": sorted(self.spectrum.expand([str(e) for e in self.spectrum.values])),
        }


@lru_cache(maxsize=None)
def _named_targets(n: int) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """(name, degree, neighbour bit masks) of each named graph of order n,
    built once per order."""
    g = graphmod
    named = []
    if n == 2:
        named = [("K_2", g.complete(2)), ("K_2^c", g.empty_graph(2))]
    elif n == 4:
        named = [
            ("K_4", g.complete(4)),
            ("C_4", g.cycle(4)),
            ("K_2+K_2", g.graph_union(g.complete(2), g.complete(2))),
            ("K_4^c", g.empty_graph(4)),
        ]
    elif n == 6:
        named = [("K_6", g.complete(6)), ("K_6^c", g.empty_graph(6))]
    elif n == 8:
        c4c4 = g.graph_union(g.cycle(4), g.cycle(4))
        q3 = g.product(g.complete_bipartite(2, 2), g.complete(2), "cartesian")
        named = [
            ("K_8", g.complete(8)),
            ("K_{2,2,2,2}", g.complete_multipartite((2, 2, 2, 2))),
            ("(C_4+C_4)^c", complement(c4c4)),
            ("(K_{2,2}[]K_2)^c", complement(q3)),
            ("K_{4,4}", g.complete_bipartite(4, 4)),
            ("K_4+K_4", g.graph_union(g.complete(4), g.complete(4))),
            ("K_{2,2}[]K_2", q3),
            ("C_4+C_4", c4c4),
            ("K_8^c", g.empty_graph(8)),
            (
                "4K_2",
                g.graph_union(
                    g.graph_union(g.complete(2), g.complete(2)),
                    g.graph_union(g.complete(2), g.complete(2)),
                ),
            ),
        ]
    return tuple((name, int(regularity_check(x)), _graph_masks(x)) for name, x in named)


def _laplacians_of(h: ButsonMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Every simple graph whose Laplacian the dephased h diagonalises with
    integer eigenvalues, as (eigenvalues, adjacency matrices).

    Row 0 of L H = H diag(lambda) reads lambda_k = deg(0) - y . H[1:, k],
    y the neighbour indicator of vertex 0, because row 0 of H is all ones.
    So y fixes lambda, and lambda fixes L = H diag(lambda) H* / n.  All
    2**(n-1) choices of y run as one batch in reduced cyclotomic
    coordinates; lambda is kept when every entry is an integer, and L when
    it is an integer matrix whose off-diagonal entries are 0 or -1.
    """
    n, r = h.n, h.r
    ys = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    # weights deg(0), -y against the rows of H; row 0 is all ones
    lam = reduce(np.hstack((ys.sum(axis=1)[:, None], -ys)), r, h.exps)
    lam = lam[~lam[:, :, 1:].any(axis=(1, 2)), :, 0]
    # n L[u, v] = sum_k lambda_k z**(e_uk - e_vk), one product over k
    diff = h.exps.T[:, :, None] - h.exps.T[:, None, :]
    scaled = reduce(lam, r, diff.reshape(n, -1)).reshape(len(lam), n, n, -1)
    integral = ~scaled[..., 1:].any(axis=(1, 2, 3))
    integral &= ~(scaled[..., 0] % n).any(axis=(1, 2))
    adj = -scaled[integral, :, :, 0] // n
    adj[:, np.arange(n), np.arange(n)] = 0
    simple = ((adj == 0) | (adj == 1)).all(axis=(1, 2))
    return lam[integral][simple], adj[simple]


def catalogue(max_n: int) -> list[CatalogueEntry]:
    """Every unweighted graph on an even number <= max_n of vertices whose
    Laplacian is diagonalised by a real or Turyn Hadamard matrix, one per
    isomorphism class, each with a certified witness.

    The graphs are read off the real and Turyn matrices of
    ``instance_library``.  A row permutation of H only relabels vertices,
    and a column permutation or column phase changes nothing.  A row phase
    D is forced for a connected graph: the column j of D H that carries the
    all-ones kernel vector makes D a multiple of conj(H[:, j]), which may
    be +-i for a Turyn matrix.  So every connected graph diagonalised by a
    matrix equivalent to H is, up to labelling, diagonalised by H dephased
    at some column j.  Each library matrix is dephased as built and read
    once, as every j gives the same labelled graphs.  The character tables
    (Sylvester-2/4/8 of Z_2^k, Z_4, Z_4 x Z_2) dephased at column j have
    row g times conj(chi_j(g)), so column chi_i becomes chi_i chi_j^-1: the
    columns are only permuted.  The conference-6 lift gives K_6 and its
    complement, which every dephased order-6 matrix diagonalises, and the
    enumeration oracle finds no other order-6 graph that passes the
    necessary conditions.  The list is
    closed under complement, as L(G^c) = nI - J - L(G) is diagonalised
    by the same dephased matrix.  A disconnected graph all of whose
    diagonalisers need different row phases on different components is
    not reached this way.  Completeness over every real or Turyn matrix at n <= 8 is
    pinned by the tests: every class here is certified, and the classes
    equal those of an oracle that enumerates every labelled regular graph
    and keeps the ones passing the exact even-spectrum and odd-union
    necessary conditions.

    A labelled candidate whose neighbour bit masks were already seen at its
    order is dropped before any graph is built; the rest are keyed by exact
    spectrum before the isomorphism test, and each class is certified once.
    """
    if not all_integers((max_n,)) or max_n not in (2, 4, 6, 8):
        raise ScaleError(
            f"catalogue supports even orders up to 8, got max_n={max_n}"
        )
    lib = instance_library()
    entries: list[CatalogueEntry] = []
    for n in range(2, max_n + 1, 2):
        targets = _named_targets(n)
        seen: set[tuple[int, ...]] = set()
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for name, h in lib[n]:
            if classify(h).kind not in ("real", "turyn"):
                continue
            lams, adjs = _laplacians_of(h)
            packed = (adjs @ (1 << np.arange(n))).tolist()
            for lam, masks, adj in zip(lams, map(tuple, packed), adjs):
                if masks in seen:
                    continue
                seen.add(masks)
                reps = classes.setdefault(tuple(sorted(lam.tolist())), [])
                if any(_isomorphic_masks(masks, m) for m in reps):
                    continue
                reps.append(masks)
                graph = WeightedGraph(adj)
                spectrum = certify(graph, h)
                if spectrum is None:
                    raise InternalCheckError(f"a graph read off {name} fails its certificate")
                entries.append(_make_entry(n, graph, masks, name, h, spectrum, targets))
    entries.sort(key=lambda e: (e.order, e.degree, e.name))
    return entries


def _make_entry(n, graph, masks, hname, h, spectrum, targets) -> CatalogueEntry:
    degree = int(regularity_check(graph))
    name = next(
        (t for t, d, m in targets if d == degree and _isomorphic_masks(masks, m)),
        f"order-{n}-degree-{degree}",
    )
    return CatalogueEntry(n, degree, name, graph, hname, h, spectrum)
