"""Exact certification that a Hadamard matrix diagonalises a graph matrix.

The central routine, :func:`certify`, never touches a numerical eigensolver:
for each column h_j of a dephased matrix H it reads the candidate eigenvalue
off the first coordinate of M h_j (valid because H[0, j] = 1) and then checks
M h_j - lambda_j h_j = 0 exactly in the ring of root-of-unity combinations.
Everything downstream (equitable partitions, parity/divisibility checks, the
small-graph catalogue) consumes those exact certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cyclotomic import CyclotomicInt, reduce
from .errors import (
    ChdError,
    ExactnessError,
    InternalCheckError,
    PreconditionError,
    ScaleError,
)
from . import graphs as graphmod
from .graphs import AbelianGroup, WeightedGraph, cayley, complement
from .hadamard import ButsonMatrix, character_table, classify, instance_library, verify

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
    "enumerate_regular_graphs",
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
    """Per-column eigenvalues certifying M h_j = lambda_j h_j exactly."""

    entries: tuple[EigenvalueEntry, ...]
    target: str  # "laplacian" or "adjacency"
    dephased: bool = True

    @property
    def n(self) -> int:
        return len(self.entries)

    def floats(self) -> list[float]:
        return [e.to_complex().real for e in self.entries]

    def rationals(self) -> list[Fraction]:
        """All eigenvalues as exact rationals; raises if any is irrational."""
        out = []
        for e in self.entries:
            if e.rational is None:
                raise ExactnessError(
                    "spectrum contains an irrational eigenvalue; "
                    "exact rational processing is unsupported here"
                )
            out.append(e.rational)
        return out

    def integers(self) -> list[int]:
        """All eigenvalues as exact integers; raises if any is not."""
        out = []
        for q in self.rationals():
            if q.denominator != 1:
                raise ExactnessError(
                    f"eigenvalue {q} is not an integer; exact congruence "
                    "arithmetic is unsupported here"
                )
            out.append(int(q))
        return out

    def second_smallest(self) -> Fraction:
        vals = sorted(self.rationals())
        return vals[1]


def regularity_check(g: WeightedGraph) -> Fraction | None:
    """The common weighted degree if the graph is weighted-regular, else None."""
    degs = g.degrees()
    if all(d == degs[0] for d in degs):
        return degs[0]
    return None


def certify(
    g: WeightedGraph, h: ButsonMatrix, target: str = "laplacian"
) -> SpectrumAssignment | None:
    """Exact spectrum assignment if h diagonalises the chosen matrix of g.

    Requires a verified, dephased h of matching order.  Returns None when
    some column fails the exact residual check (the graph is then not
    diagonalised by h).
    """
    if target not in ("laplacian", "adjacency"):
        raise ChdError(f"unknown target {target!r}")
    if g.n != h.n:
        raise ChdError(f"order mismatch: graph has {g.n} vertices, matrix {h.n}")
    if not verify(h):
        raise PreconditionError("certify requires a verified Hadamard matrix")
    if not h.is_dephased():
        raise PreconditionError("certify requires a dephased matrix; dephase first")
    mat, scale = g.integer_matrix(target)
    r = h.r
    entries = []
    # M h_j against lambda_j h_j, one column at a time so that the working
    # set stays n x r rather than n x n x phi(r)
    for e in h.exps.T:
        lam = np.zeros(r, dtype=mat.dtype)
        np.add.at(lam, e, mat[0])
        expected = reduce(lam[(np.arange(r) - e[:, None]) % r], r)
        if not np.array_equal(reduce(mat, r, e), expected):
            return None
        # row 0 of H is all ones, so row 0 of `expected` is lambda_j reduced
        rem = expected[0].tolist()
        rational = None if any(rem[1:]) else Fraction(rem[0], scale)
        entries.append(EigenvalueEntry(CyclotomicInt(r, lam), scale, rational))
    return SpectrumAssignment(tuple(entries), target)


# -- equitable partitions ------------------------------------------------


@dataclass(frozen=True)
class EquitablePartition:
    """Vertex partition whose cell-to-cell edge weights are vertex-independent."""

    cells: tuple[tuple[int, ...], ...]
    quotient: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.cells)


def _verified_quotient(g: WeightedGraph, cells) -> tuple[tuple[Fraction, ...], ...]:
    """Compute the adjacency-level quotient matrix, checking equitability
    exactly; raises if some vertex breaks the cell-wise constancy."""
    p = len(cells)
    if any(not cell for cell in cells):
        raise ChdError("equitable partition has an empty cell")
    member = np.zeros((g.n, p), dtype=np.int64)
    for i, cell in enumerate(cells):
        member[list(cell), i] = 1
    into = g.matrix @ member.astype(g.matrix.dtype)
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
    return tuple(quotient)


def _fractions(row, scale: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(x), scale) for x in row)


def bipartition_from_column(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment, k: int
) -> EquitablePartition:
    """Two-cell equitable partition read off a column with entries in
    {1, -1, i, -i}: one cell collects the vertices where the column is 1 or
    i, the other where it is -1 or -i.  Both cells have exactly n/2 vertices
    and the quotient is [[d - l/2, l/2], [l/2, d - l/2]] with l the column's
    eigenvalue.
    """
    if k <= 0:
        raise PreconditionError("column 0 is the all-ones column; pick k >= 1")
    n, r = g.n, h.r
    values = []
    for u in range(n):
        e = int(h.exps[u, k])
        if (4 * e) % r:
            raise PreconditionError(
                f"column {k} contains an entry outside {{1, -1, i, -i}}"
            )
        values.append((4 * e // r) % 4)
    lam = spectrum.entries[k].rational
    if lam is None:
        raise PreconditionError(f"column {k} has an irrational eigenvalue")
    plus = tuple(u for u in range(n) if values[u] in (0, 1))
    minus = tuple(u for u in range(n) if values[u] in (2, 3))
    if len(plus) != n // 2 or len(minus) != n // 2:
        raise InternalCheckError("cells are not both of size n/2")
    quotient = _verified_quotient(g, (plus, minus))
    d = regularity_check(g)
    expected = (
        (d - lam / 2, lam / 2),
        (lam / 2, d - lam / 2),
    )
    if quotient != expected:
        raise InternalCheckError(
            f"quotient {quotient} does not match the predicted {expected}"
        )
    return EquitablePartition((plus, minus), quotient)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % q for q in range(2, int(p**0.5) + 1))


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
    has off-diagonal entries l/p and diagonal d - (p-1) l/p.
    """
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if k <= 0:
        raise PreconditionError("column 0 is the all-ones column; pick k >= 1")
    entry = spectrum.entries[k]
    if not entry.is_integer or entry.rational == 0:
        raise PreconditionError(
            f"column {k} needs a nonzero integer eigenvalue, got {entry}"
        )
    lam = entry.rational
    if int(lam) % p:
        raise PreconditionError(f"eigenvalue {lam} is not divisible by {p}")
    n, r = g.n, h.r
    cells: list[list[int]] = [[] for _ in range(p)]
    for u in range(n):
        e = int(h.exps[u, k])
        if (p * e) % r:
            raise PreconditionError(
                f"column {k} contains an entry that is not a {p}-th root of unity"
            )
        cells[(p * e // r) % p].append(u)
    if len({len(c) for c in cells}) != 1:
        raise InternalCheckError("cells do not have equal sizes")
    cells_t = tuple(tuple(c) for c in cells)
    quotient = _verified_quotient(g, cells_t)
    d = regularity_check(g)
    off = lam / p
    diag = d - (p - 1) * off
    expected = tuple(
        tuple(diag if i == j else off for j in range(p)) for i in range(p)
    )
    if quotient != expected:
        raise InternalCheckError(
            f"quotient {quotient} does not match the predicted {expected}"
        )
    return EquitablePartition(cells_t, quotient)


# -- parity / divisibility reports ---------------------------------------


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    applicable: bool
    passed: bool | None
    detail: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TheoremReport:
    checks: tuple[TheoremCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def to_json(self) -> list:
        return [c.to_json() for c in self.checks]


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
    cls = classify(h)
    in_scope = g.scale == 1 and spectrum.target == "laplacian"
    checks = []

    applicable = in_scope and cls.kind in ("real", "turyn")
    passed = None
    detail = f"matrix class is {cls}"
    if applicable:
        bad = [
            str(e)
            for e in spectrum.entries
            if not (e.is_integer and int(e.rational) % 2 == 0)
        ]
        passed = not bad
        detail = "all eigenvalues are even integers" if passed else (
            f"violations: {bad}"
        )
    checks.append(TheoremCheck("even-spectrum-real-turyn", applicable, passed, detail))

    r_min = cls.root_order
    applicable = in_scope and r_min >= 1 and (r_min & (r_min - 1)) == 0
    passed = None
    detail = f"minimal root order is {r_min}"
    if applicable:
        bad = [
            str(e.rational)
            for e in spectrum.entries
            if e.is_rational and not (e.is_integer and int(e.rational) % 2 == 0)
        ]
        passed = not bad
        detail = (
            "all rational eigenvalues are even integers"
            if passed
            else f"violations: {bad}"
        )
    checks.append(
        TheoremCheck("power-of-two-even-integers", applicable, passed, detail)
    )

    applicable = in_scope and r_min > 2 and _is_prime(r_min)
    passed = None
    detail = f"minimal root order is {r_min}"
    if applicable:
        p = r_min
        ints = [e.rational for e in spectrum.entries if e.is_integer]
        bad = []
        for lam in {int(v) for v in ints if v != 0}:
            mult = sum(1 for v in ints if v == lam)
            if lam % p:
                bad.append(f"{lam} not divisible by {p}")
            if mult < p - 1:
                bad.append(f"{lam} has multiplicity {mult} < {p - 1}")
        passed = not bad
        detail = (
            f"nonzero integer eigenvalues divisible by {p} with multiplicity "
            f">= {p - 1}"
            if passed
            else f"violations: {bad}"
        )
    checks.append(
        TheoremCheck("prime-divisibility-and-multiplicity", applicable, passed, detail)
    )
    return TheoremReport(tuple(checks))


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


# -- enumeration of regular graphs at desk scale --------------------------


def _regular_masks(n: int, d: int):
    """All labeled d-regular graphs on n vertices, as tuples of neighbor
    bitmasks, by row-by-row backtracking with degree feasibility pruning."""
    if d < 0 or d >= n:
        return
    if (n * d) % 2:
        return
    masks = [0] * n
    deg = [0] * n

    def rec(u: int):
        if u == n:
            yield tuple(masks)
            return
        need = d - deg[u]
        if need < 0:
            return
        avail = [v for v in range(u + 1, n) if deg[v] < d]
        if need > len(avail):
            return
        for chosen in combinations(avail, need):
            # capacity pruning: remaining vertices must still be fillable
            for v in chosen:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                deg[u] += 1
                deg[v] += 1
            remaining = sum(d - deg[v] for v in range(u + 1, n))
            if remaining % 2 == 0:
                yield from rec(u + 1)
            for v in chosen:
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
                deg[u] -= 1
                deg[v] -= 1

    yield from rec(0)


def _masks_to_graph(masks) -> WeightedGraph:
    n = len(masks)
    return WeightedGraph.from_edges(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if masks[u] >> v & 1
        ],
    )


def enumerate_regular_graphs(n: int, degree: int | None = None):
    """Yield every labeled regular graph on n vertices (optionally of one
    degree).  Desk-scale guard at n <= 10."""
    if n > 10:
        raise ScaleError(f"labeled enumeration is capped at 10 vertices, got {n}")
    degrees = range(n) if degree is None else [degree]
    for d in degrees:
        for masks in _regular_masks(n, d):
            yield _masks_to_graph(masks)


def _complement_masks(masks) -> tuple[int, ...]:
    n = len(masks)
    full = (1 << n) - 1
    return tuple((full ^ m ^ (1 << u)) & full for u, m in enumerate(masks))


def _invariant_key(masks):
    n = len(masks)
    a = np.zeros((n, n))
    for u, m in enumerate(masks):
        for v in range(n):
            if m >> v & 1:
                a[u, v] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    spec = tuple(round(float(x), 6) for x in np.linalg.eigvalsh(lap))
    tri = sorted(
        sum(
            1
            for v in range(n)
            for w in range(v + 1, n)
            if masks[u] >> v & 1 and masks[u] >> w & 1 and masks[v] >> w & 1
        )
        for u in range(n)
    )
    return (n, bin(masks[0]).count("1") if n else 0, spec, tuple(tri))


def _isomorphic_masks(a, b) -> bool:
    n = len(a)
    if n != len(b):
        return False
    if sorted(bin(m).count("1") for m in a) != sorted(bin(m).count("1") for m in b):
        return False
    perm = [-1] * n
    used = [False] * n

    def rec(u: int) -> bool:
        if u == n:
            return True
        deg_u = bin(a[u]).count("1")
        for v in range(n):
            if used[v] or bin(b[v]).count("1") != deg_u:
                continue
            ok = True
            for w in range(u):
                if (a[u] >> w & 1) != (b[v] >> perm[w] & 1):
                    ok = False
                    break
            if ok:
                perm[u] = v
                used[v] = True
                if rec(u + 1):
                    return True
                used[v] = False
                perm[u] = -1
        return False

    return rec(0)


def _graph_masks(g: WeightedGraph) -> tuple[int, ...]:
    masks = [0] * g.n
    for u, v, _ in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


# -- the small-graph catalogue --------------------------------------------


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
            "eigenvalues": sorted(str(e) for e in self.spectrum.entries),
        }


def _exponent4_groups(n: int) -> list[tuple[int, ...]]:
    """Abelian groups of order n whose exponent divides 4 (their character
    tables are real or turyn)."""
    out = []
    if n == 1:
        return [(1,)]

    def build(remaining, factors):
        if remaining == 1:
            out.append(tuple(sorted(factors, reverse=True)))
            return
        for m in (4, 2):
            if remaining % m == 0 and (not factors or m <= factors[-1]):
                build(remaining // m, factors + [m])

    build(n, [])
    return sorted(set(out), reverse=True)


def _symmetric_connection_sets(group: AbelianGroup):
    """All connection sets closed under negation, grouped as {c, -c} orbits."""
    seen = set()
    orbits = []
    for el in group.elements():
        if el == group.identity or el in seen:
            continue
        neg = group.neg(el)
        orbit = frozenset({el, neg})
        seen.update(orbit)
        orbits.append(orbit)
    for bits in range(1 << len(orbits)):
        conn = set()
        for i, orbit in enumerate(orbits):
            if bits >> i & 1:
                conn.update(orbit)
        yield conn


def _named_targets(n: int) -> list[tuple[str, WeightedGraph]]:
    g = graphmod
    if n == 2:
        return [("K_2", g.complete(2)), ("K_2^c", g.empty_graph(2))]
    if n == 4:
        return [
            ("K_4", g.complete(4)),
            ("C_4", g.cycle(4)),
            ("K_2+K_2", g.graph_union(g.complete(2), g.complete(2))),
            ("K_4^c", g.empty_graph(4)),
        ]
    if n == 6:
        return [("K_6", g.complete(6)), ("K_6^c", g.empty_graph(6))]
    if n == 8:
        c4c4 = g.graph_union(g.cycle(4), g.cycle(4))
        q3 = g.product(g.complete_bipartite(2, 2), g.complete(2), "cartesian")
        return [
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
    return []


def _even_integer_spectrum(masks) -> bool:
    n = len(masks)
    a = np.zeros((n, n))
    for u, m in enumerate(masks):
        for v in range(n):
            if m >> v & 1:
                a[u, v] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    vals = np.linalg.eigvalsh(lap)
    rounded = np.rint(vals / 2.0) * 2.0
    return bool(np.all(np.abs(vals - rounded) < 1e-6))


def _catalogue_pool(n: int) -> list[tuple[str, WeightedGraph, ButsonMatrix]]:
    """Labeled graphs with known real/turyn diagonalisers at order n:
    Cayley graphs over groups of exponent dividing 4 under their character
    tables, plus anything the order-6 conference matrix certifies."""
    pool = []
    for moduli in _exponent4_groups(n):
        group = AbelianGroup(moduli)
        table = character_table(moduli)
        name = "z" + "xz".join(str(m) for m in moduli) + "-characters"
        for conn in _symmetric_connection_sets(group):
            pool.append((name, cayley(group, conn), table))
    if n == 6:
        lib = {name: h for name, h in instance_library()[6]}
        conf = lib["conference-6"]
        for g in enumerate_regular_graphs(6):
            if certify(g, conf) is not None:
                pool.append(("conference-6-scan", g, conf))
    return pool


def catalogue(max_n: int):
    """Every unweighted regular graph on an even number <= max_n of vertices
    whose Laplacian is diagonalised by a real or Turyn Hadamard matrix, each
    with an explicit certified diagonaliser.

    Enumerates labeled regular graphs of degree <= (n-1)/2, filters by an
    all-even-integer Laplacian spectrum and the odd-union obstruction,
    deduplicates up to isomorphism, confirms each class with a certificate
    from the built-in matrix library, and mirrors every class to its
    complement (which the same matrix certifies).  Raises if a surviving
    class cannot be confirmed.
    """
    if max_n not in (2, 4, 6, 8):
        raise ScaleError(
            f"catalogue supports even orders up to 8, got max_n={max_n}"
        )
    lib = instance_library()
    entries: list[CatalogueEntry] = []
    for n in range(2, max_n + 1, 2):
        reps: list[tuple[tuple[int, ...], object]] = []
        for d in range((n - 1) // 2 + 1):
            for masks in _regular_masks(n, d):
                if not _even_integer_spectrum(masks):
                    continue
                key = _invariant_key(masks)
                if any(
                    key == k and _isomorphic_masks(masks, m) for m, k in reps
                ):
                    continue
                reps.append((masks, key))
        # odd-union filtering: obstructed classes (and, implicitly, their
        # complements, which are never reps at these degrees) drop out
        survivors = [
            masks
            for masks, _ in reps
            if not odd_union_obstruction(_masks_to_graph(masks))
        ]
        turyn_lib = [
            (name, h) for name, h in lib[n] if classify(h).kind in ("real", "turyn")
        ]
        pool = None
        for masks in survivors:
            found = _confirm_class(masks, turyn_lib)
            if found is None:
                if pool is None:
                    pool = _catalogue_pool(n)
                found = _confirm_via_pool(masks, pool)
            if found is None:
                raise InternalCheckError(
                    f"an order-{n} class passed every filter but no library "
                    "diagonaliser certifies it"
                )
            hname, graph, h, spectrum = found
            entries.append(_make_entry(n, graph, hname, h, spectrum))
            comp = complement(graph)
            comp_spec = certify(comp, h)
            if comp_spec is None:
                raise InternalCheckError("complement failed to certify")
            if not _isomorphic_masks(_graph_masks(graph), _graph_masks(comp)):
                entries.append(_make_entry(n, comp, hname, h, comp_spec))
    entries.sort(key=lambda e: (e.order, e.degree, e.name))
    return entries


def _confirm_class(masks, turyn_lib):
    g = _masks_to_graph(masks)
    for name, h in turyn_lib:
        spectrum = certify(g, h)
        if spectrum is not None:
            return name, g, h, spectrum
    return None


def _confirm_via_pool(masks, pool):
    key = _invariant_key(masks)
    for name, g, h in pool:
        gm = _graph_masks(g)
        if _invariant_key(gm) != key:
            continue
        if _isomorphic_masks(masks, gm):
            spectrum = certify(g, h)
            if spectrum is None:
                raise InternalCheckError("pool graph failed its own certificate")
            return name, g, h, spectrum
    return None


def _make_entry(n, graph, hname, h, spectrum) -> CatalogueEntry:
    degree = int(regularity_check(graph))
    gm = _graph_masks(graph)
    name = None
    for cand_name, cand in _named_targets(n):
        if int(regularity_check(cand)) != degree:
            continue
        if _isomorphic_masks(gm, _graph_masks(cand)):
            name = cand_name
            break
    if name is None:
        name = f"order-{n}-degree-{degree}"
    return CatalogueEntry(n, degree, name, graph, hname, h, spectrum)
