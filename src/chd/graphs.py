"""Weighted simple graphs and the constructions used throughout the package.

A graph is stored as one integer numpy matrix and one integer ``scale``:
the weight of edge (u, v) is ``matrix[u, v] / scale``, where ``scale`` is
the lcm of the weight denominators, so the stored form is canonical.  The
matrix is int64 when n times its largest entry stays below 2**62, which
keeps every row sum and Laplacian entry exact, and an array of Python
integers otherwise.  ``integer_table`` is the one reader of square integer
tables: weight, exponent and conference matrices.  Fractions appear only at
the boundary: ``from_edges``, JSON, ``edges()`` and ``degrees()``.  An edge
list is validated in one bulk pass, by column and by distinct weight, not
edge by edge; a pair given twice is refused.  When the list fails, a binary
search finds its shortest failing prefix, whose last edge is the first
offender, and reports that edge.  Vertices of product-style constructions
are numbered in row-major mixed-radix order, matching the rows of
tensor-product Hadamard matrices.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

from .cyclotomic import all_integers, exact_dtype, integer_types
from .errors import ChdError, ScaleError, SimplicityError

__all__ = [
    "WeightedGraph",
    "AbelianGroup",
    "cayley",
    "complement",
    "graph_union",
    "graph_join",
    "merge",
    "product",
    "neps",
    "weighted_tensor_sum",
    "complete",
    "empty_graph",
    "cycle",
    "hypercube",
    "cocktail_party",
    "complete_bipartite",
    "complete_multipartite",
    "named",
]

# a dense int64 matrix at the cap takes 128 MiB; the largest graph in use
# is the hypercube Q9 with 512 vertices
MAX_VERTICES = 4096
# entries of one block of verify, certify, the cut searches and the revival
# cross-validation (256 KiB in float64)
BLOCK = 1 << 15


def blocks(count: int, width: int):
    """Slices of range(count), BLOCK // width items each (at least one), so
    that items ``width`` entries wide make blocks of about BLOCK entries.

    >>> list(blocks(5, BLOCK // 2))
    [slice(0, 2, None), slice(2, 4, None), slice(4, 5, None)]
    """
    step = max(1, BLOCK // width)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if all_integers((x,)):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ChdError(f"cannot interpret {x!r} as an exact rational weight")


def _edge_columns(edges: list, n: int):
    """(us, vs, keys, weights) of an edge list, checked once per column or
    distinct value: int64 vertex columns, each edge's weight key (its type
    and value, so that True is never taken for 1) and each key's weight.
    The rules run in order (shape, weight, vertex type, range, loop,
    repeated pair), and the first that fails is raised, worded for the
    last edge: the one at fault when the edges before it break none."""
    if not edges:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), [], {}
    shaped = all(issubclass(t, (list, tuple)) for t in set(map(type, edges)))
    if not (shaped and (lengths := set(map(len, edges))) <= {2, 3}):
        raise ChdError(f"edge {edges[-1]!r} is not [u, v] or [u, v, weight]")
    us, vs, *ws = zip(*edges)
    ws = ws[0] if lengths == {3} else [item[2] if len(item) == 3 else 1 for item in edges]
    keys = list(zip(map(type, ws), ws))
    try:
        weights = {k: _as_fraction(k[1]) for k in set(keys)}
    except TypeError:  # an unhashable weight, which no rule accepts
        raise ChdError(f"cannot interpret {ws[-1]!r} as an exact rational weight") from None
    u, v = edges[-1][:2]
    if not all_integers(us + vs):
        raise ChdError(f"edge ({u!r}, {v!r}) has a vertex that is not an integer")
    try:
        us, vs = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    except OverflowError:  # a vertex past int64, so out of range
        raise ChdError(f"edge ({u}, {v}) out of range for n={n}") from None
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    if (lo < 0).any() or (hi >= n).any():
        raise ChdError(f"edge ({u}, {v}) out of range for n={n}")
    if (lo == hi).any():
        raise SimplicityError(f"loop at vertex {u}")
    # a repeated pair, in either orientation, is a repeated key lo * n + hi
    if (np.diff(np.sort(lo * n + hi)) == 0).any():
        raise SimplicityError(f"duplicate edge ({u}, {v})")
    return us, vs, keys, weights


def _fails(edges: list, n: int) -> bool:
    try:
        _edge_columns(edges, n)
    except ChdError:
        return True
    return False


def _maxabs(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def check_count(n, noun: str = "vertices") -> None:
    """Refuse a count of graph vertices, group elements or matrix rows that
    is not an integer in 0..MAX_VERTICES, before anything of that size is
    built."""
    if not all_integers((n,)) or n < 0:
        raise ChdError(f"the number of {noun} must be a nonnegative integer, got {n!r}")
    if n > MAX_VERTICES:
        raise ScaleError(f"{noun} are capped at {MAX_VERTICES}, got {n}")


def integer_table(rows, name: str = "exponent table", entries: str = "exponents") -> np.ndarray:
    """The table numpy reads ``rows`` as in an object array, if it is n x n
    within the cap with entries of ``integer_types`` (no float, no bool);
    else a ``ChdError``.  An int or uint array is returned as it is; n lists
    or tuples of n are scanned once by type and read in one pass.  The
    table is int64, or Python integers past int64."""
    n = len(rows) if isinstance(rows, (list, tuple)) else 0
    check_count(n, "matrix rows")  # before numpy reads a long list
    square = n and all(isinstance(row, (list, tuple)) and len(row) == n for row in rows)
    types = square and set(map(type, chain.from_iterable(rows)))
    if types and integer_types(types):
        items, shape = lambda: chain.from_iterable(rows), (n, n)
    else:
        try:
            table = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
        except ValueError:  # rows that numpy cannot stack
            raise ChdError(f"{name} must be square, got rows of unequal shapes") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ChdError(f"{name} must be square, got shape {table.shape}")
        check_count(table.shape[0], "matrix rows")
        if table.dtype.kind in "iu":
            return table
        types = set(map(type, table.flat))
        if not integer_types(types):
            raise ChdError(f"{entries} must be integers")
        items, shape = lambda: table.flat, table.shape
    # fromiter may cast a numpy integer unsafely, so one past int64 could wrap
    ints = items if types == {int} else lambda: map(int, items())
    try:
        return np.fromiter(ints(), np.int64, math.prod(shape)).reshape(shape)
    except OverflowError:
        return np.fromiter(ints(), object, math.prod(shape)).reshape(shape)


def check_group_order(moduli) -> None:
    """Refuse a product of cyclic groups with more than MAX_VERTICES
    elements, multiplying the moduli one at a time so that a long iterable
    of factors is never read to its end: the count refused may be a
    partial product."""
    order = 1
    for m in moduli:
        order *= m
        check_count(order, "group elements")


class WeightedGraph:
    """Simple undirected graph with nonnegative rational edge weights."""

    __slots__ = ("n", "matrix", "scale")

    def __init__(self, matrix, scale: int = 1) -> None:
        """Weights matrix / scale, from a copy of a square integer table."""
        mat = integer_table(matrix, "weight matrix", "weights")
        n = mat.shape[0]
        if not all_integers((scale,)) or scale < 1:
            raise ChdError(f"scale must be a positive integer, got {scale!r}")
        loops = np.flatnonzero(np.diagonal(mat))
        if loops.size:
            raise SimplicityError(f"vertex {loops[0]} carries a loop")
        asym = mat != mat.T
        if asym.any():
            u, v = np.argwhere(np.triu(asym))[0].tolist()
            raise SimplicityError(f"weight matrix is not symmetric at ({u}, {v})")
        neg = mat < 0
        if neg.any():
            u, v = np.argwhere(np.triu(neg))[0].tolist()
            raise SimplicityError(f"negative weight on edge ({u}, {v})")
        if scale != 1:
            common = math.gcd(scale, int(np.gcd.reduce(mat, axis=None)))
            mat, scale = mat // common, scale // common
        mat = mat.astype(exact_dtype(n * _maxabs(mat)))
        mat.setflags(write=False)
        self.n = n
        self.matrix = mat
        self.scale = int(scale)

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        """The graph on n vertices with these edges, each [u, v] (weight 1)
        or [u, v, weight]; a pair given twice, in either orientation, is
        refused whatever its weights.  The list is checked in one bulk pass;
        if it fails, a binary search finds its shortest failing prefix, and
        the fault of that prefix's last edge, the first offender, is raised."""
        check_count(n)
        edges = list(edges)
        try:
            us, vs, keys, weights = _edge_columns(edges, n)
        except ChdError:
            end = bisect_left(range(len(edges)), True, key=lambda i: _fails(edges[: i + 1], n))
            _edge_columns(edges[: end + 1], n)
            raise
        scale = math.lcm(1, *(w.denominator for w in weights.values()))
        ints = {k: w.numerator * (scale // w.denominator) for k, w in weights.items()}
        mat = np.zeros((n, n), dtype=exact_dtype(n * max(map(abs, ints.values()), default=0)))
        mat[us, vs] = mat[vs, us] = [ints[k] for k in keys]
        return cls(mat, scale)

    # -- matrices -------------------------------------------------------

    def degrees(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(d), self.scale) for d in self.matrix.sum(axis=1))

    def integer_matrix(self, target: str = "laplacian") -> tuple[np.ndarray, int]:
        """Exact integer scaling of the Laplacian or adjacency matrix.

        Returns (matrix, scale) with matrix == scale * target entrywise.
        """
        if target == "adjacency":
            return self.matrix, self.scale
        if target != "laplacian":
            raise ChdError(f"unknown target {target!r}; expected 'laplacian' or 'adjacency'")
        return np.diag(self.matrix.sum(axis=1)) - self.matrix, self.scale

    def laplacian_float(self) -> np.ndarray:
        a = (self.matrix.astype(object) / self.scale).astype(float)
        return np.diag(a.sum(axis=1)) - a

    # -- structure ------------------------------------------------------

    def edges(self):
        us, vs = np.nonzero(np.triu(self.matrix))
        for u, v, w in zip(us.tolist(), vs.tolist(), self.matrix[us, vs].tolist()):
            yield u, v, Fraction(w, self.scale)

    def is_unweighted(self) -> bool:
        return self.scale == 1 and _maxabs(self.matrix) <= 1

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in np.flatnonzero(self.matrix[u]).tolist():
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "edges": [[u, v, str(w)] for u, v, w in self.edges()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeightedGraph":
        if not isinstance(data, dict):
            raise ChdError("graph JSON must be an object with fields 'n' and 'edges'")
        for field in ("n", "edges"):
            if field not in data:
                raise ChdError(f"graph JSON is missing the field {field!r}")
        if not isinstance(data["edges"], list):
            raise ChdError("the graph JSON field 'edges' must be a list")
        return cls.from_edges(data["n"], data["edges"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        # the dtype is a function of the values, so equal graphs hash equally
        m = self.matrix
        key = tuple(m.flat) if m.dtype == object else m.tobytes()
        return hash((self.n, self.scale, key))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={sum(1 for _ in self.edges())})"


class AbelianGroup:
    """Direct product of cyclic groups Z_m1 x ... x Z_mk.

    Its elements are kept only as ``digits``, a read-only n x k int64 view
    (its transpose is C-contiguous) of mixed-radix digits in the row order
    of ``character_table``; ``elements()`` and ``neg()`` build tuples.
    """

    __slots__ = ("moduli", "digits")

    def __init__(self, moduli) -> None:
        moduli = tuple(moduli)
        if not (moduli and all_integers(moduli)) or any(m < 1 for m in moduli):
            raise ChdError(f"moduli must be positive integers, got {moduli}")
        check_group_order(moduli)
        self.moduli = tuple(map(int, moduli))
        self.digits = np.indices(self.moduli, dtype=np.int64).reshape(len(moduli), -1).T
        self.digits.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.digits)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.digits.tolist()))

    def normalise_all(self, els) -> np.ndarray:
        """The elements as rows of an int64 array, each entry reduced mod
        its modulus; a float or bool entry is refused, not truncated."""
        els = list(els)
        for wrong in (el for el in els if not isinstance(el, Iterable)):
            raise ChdError(f"element {wrong!r} is not a sequence of exponents")
        els = [tuple(el) for el in els]
        wrong = next((el for el in els if len(el) != len(self.moduli)), None)
        if wrong is not None:
            raise ChdError(f"element {wrong} has wrong arity for moduli {self.moduli}")
        if not all_integers(chain.from_iterable(els)):
            wrong = next(el for el in els if not all_integers(el))
            raise ChdError(f"element {wrong} has an entry that is not an integer")
        try:
            rows = np.array(els, dtype=np.int64)
        except OverflowError:  # reduced in Python integers
            rows = np.array(els, dtype=object)
        rows = rows.reshape(len(els), len(self.moduli)) % self.moduli
        return rows.astype(np.int64, copy=False)

    def neg(self, el) -> tuple[int, ...]:
        return tuple((-self.normalise_all([el])[0] % self.moduli).tolist())


def connection_set(group: AbelianGroup, connection) -> np.ndarray:
    """The reduced connection set as sorted rows of ``group.digits``, checked
    to avoid the identity (no loops) and to be closed under negation."""
    conn = group.normalise_all(connection)
    present = np.zeros(group.order, dtype=bool)
    present[np.ravel_multi_index(conn.T, group.moduli)] = True
    if present[0]:
        raise SimplicityError("connection set contains the identity (loops)")
    closed = present[np.ravel_multi_index((-conn % group.moduli).T, group.moduli)]
    if not closed.all():
        first = conn[np.argmin(closed)]
        raise SimplicityError(f"connection set is not closed under negation at {tuple(first.tolist())}")
    return group.digits[present]


def cayley(group: AbelianGroup, connection) -> WeightedGraph:
    """Unit-weight Cayley graph: u ~ v iff v - u lies in the connection set,
    added to ``group.digits`` a block of ``blocks`` at a time."""
    conn = connection_set(group, connection)
    n = group.order
    mat = np.zeros((n, n), dtype=np.int8)  # WeightedGraph copies it to int64
    for block in blocks(len(conn), n):
        sums = group.digits.T[:, :, None] + conn[block].T[:, None, :]
        mat[np.arange(n)[:, None], np.ravel_multi_index(sums, group.moduli, mode="wrap")] = 1
    return WeightedGraph(mat)


def complement(g: WeightedGraph) -> WeightedGraph:
    """Edge-set complement; defined for unweighted graphs only."""
    if not g.is_unweighted():
        raise ChdError("complement is only defined for unweighted graphs")
    return WeightedGraph(1 - np.eye(g.n, dtype=np.int64) - g.matrix)


def graph_union(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Disjoint union; vertices of g1 come first."""
    check_count(g1.n + g2.n)
    scale = math.lcm(g1.scale, g2.scale)
    k1, k2 = scale // g1.scale, scale // g2.scale
    largest = max(k1 * _maxabs(g1.matrix), k2 * _maxabs(g2.matrix))
    dtype = exact_dtype((g1.n + g2.n) * largest)
    mat = np.zeros((g1.n + g2.n,) * 2, dtype=dtype)
    mat[: g1.n, : g1.n] = g1.matrix.astype(dtype) * k1
    mat[g1.n :, g1.n :] = g2.matrix.astype(dtype) * k2
    return WeightedGraph(mat, scale)


def graph_join(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Union plus all unit-weight cross edges; both inputs must be unweighted."""
    if not (g1.is_unweighted() and g2.is_unweighted()):
        raise ChdError("join is only defined for unweighted graphs")
    check_count(g1.n + g2.n)
    return complement(graph_union(complement(g1), complement(g2)))


def merge(g1: WeightedGraph, g2: WeightedGraph, w1, w2) -> WeightedGraph:
    """Two-layer graph with within-layer copies of w1*G1 and cross-layer
    copies of w2*G2.

    Vertex (layer, v) is numbered layer * n + v.  With unit weights and
    disjoint edge sets this is the double cover of G1 + G2's edge union;
    with G1 empty it is the bipartite double cover of G2.
    """
    if g1.n != g2.n:
        raise ChdError(f"merge needs equal orders, got {g1.n} and {g2.n}")
    w1, w2 = _as_fraction(w1), _as_fraction(w2)
    if w1 <= 0 or w2 <= 0:
        raise ChdError("merge weights must be positive")
    return weighted_tensor_sum([(w1, [2, g1]), (w2, [complete(2), g2])])


def product(g1: WeightedGraph, g2: WeightedGraph, kind: str) -> WeightedGraph:
    """Direct (A1 (x) A2) or Cartesian (A1 (x) I + I (x) A2) product.

    Vertex (u1, u2) is numbered u1 * n2 + u2.
    """
    if kind == "direct":
        return weighted_tensor_sum([(1, [g1, g2])])
    if kind == "cartesian":
        return weighted_tensor_sum([(1, [g1, g2.n]), (1, [g1.n, g2])])
    raise ChdError(f"unknown product {kind!r}; expected 'direct' or 'cartesian'")


def neps(graphs, basis) -> WeightedGraph:
    """Sum of Kronecker products A(G_1)^b1 (x) ... (x) A(G_d)^bd over a basis
    of 0/1 tuples (exponent 0 means identity; an all-zero tuple is a loop).
    """
    graphs = list(graphs)
    basis = [tuple(beta) for beta in basis]
    d = len(graphs)
    if not basis:
        raise ChdError("basis must be nonempty")
    for beta in basis:
        if len(beta) != d:
            raise ChdError(f"basis tuple {beta} has wrong arity {len(beta)} != {d}")
        if not all_integers(beta) or any(b not in (0, 1) for b in beta):
            raise ChdError(f"basis tuple {beta} is not 0/1")
    factors = ([g if b else g.n for g, b in zip(graphs, beta)] for beta in basis)
    return weighted_tensor_sum((1, f) for f in factors)


def weighted_tensor_sum(terms) -> WeightedGraph:
    """Weighted sum of Kronecker products of adjacency matrices.

    Each term is (weight, factors) where a factor is a WeightedGraph or an
    int standing for an identity block of that size.  The summed matrix must
    be a valid simple-graph adjacency matrix (symmetric, zero diagonal,
    nonnegative); otherwise a SimplicityError is raised.
    """
    terms = list(terms)
    if not terms:
        raise ChdError("need at least one term")
    sizes = None
    parts = []
    for weight, factors in terms:
        weight = _as_fraction(weight)
        dims = tuple(f.n if isinstance(f, WeightedGraph) else f for f in factors)
        if not all_integers(dims):
            raise ChdError(f"factor sizes must be integers, got {dims}")
        if sizes is None:
            sizes = dims
            for size in (*dims, math.prod(dims)):  # before any factor is built
                check_count(size)
        elif dims != sizes:
            raise ChdError(f"inconsistent factor sizes {dims} vs {sizes}")
        mats = [
            f.matrix if isinstance(f, WeightedGraph) else np.eye(f, dtype=np.int64)
            for f in factors
        ]
        den = weight.denominator * math.prod(
            f.scale for f in factors if isinstance(f, WeightedGraph)
        )
        parts.append((weight.numerator, den, mats))
    scale = math.lcm(*(den for _, den, _ in parts))
    # every entry of the sum is bounded by the sum of the terms' bounds
    bound = sum(
        abs(num) * (scale // den) * math.prod(_maxabs(m) for m in mats)
        for num, den, mats in parts
    )
    dtype = exact_dtype(bound)
    total = np.zeros((1, 1), dtype=dtype)
    for num, den, mats in parts:
        term = np.full((1, 1), num * (scale // den), dtype=dtype)
        for m in mats:
            term = np.kron(term, m.astype(dtype))
        total = total + term
    return WeightedGraph(total, scale)


# -- named families -----------------------------------------------------


def complete(n: int) -> WeightedGraph:
    _check_size(n)
    check_count(n)
    return complete_multipartite((1,) * n)


def empty_graph(n: int) -> WeightedGraph:
    _check_size(n)
    return complete_multipartite((n,))


def cycle(r: int) -> WeightedGraph:
    _check_size(r)
    if r < 3:
        raise ChdError(f"cycle needs at least 3 vertices, got {r}")
    return cayley(AbelianGroup((r,)), [(1,), (r - 1,)])


def hypercube(d: int) -> WeightedGraph:
    _check_size(d)
    check_group_order(repeat(2, d))
    return cayley(AbelianGroup((2,) * d), np.eye(d, dtype=np.int64))


def cocktail_party(n: int) -> WeightedGraph:
    """Complement of n disjoint edges, as a Cayley graph on Z_{2n}."""
    _check_size(n)
    return cayley(AbelianGroup((2 * n,)), [(c,) for c in range(1, 2 * n) if c != n])


def complete_bipartite(a: int, b: int) -> WeightedGraph:
    return complete_multipartite((a, b))


def complete_multipartite(parts) -> WeightedGraph:
    parts = tuple(parts)
    if not (parts and all_integers(parts)) or any(p < 1 for p in parts):
        raise ChdError(f"part sizes must be positive integers, got {parts}")
    check_count(sum(parts))
    block = np.repeat(np.arange(len(parts)), parts)
    mat = (block[:, None] != block[None, :]).astype(np.int64)
    return WeightedGraph(mat)


def _check_size(n: int) -> None:
    if not all_integers((n,)) or n < 1:
        raise ChdError(f"size must be an integer of at least 1, got {n!r}")


_FAMILIES = {
    "complete": lambda args: complete(args[0]),
    "cycle": lambda args: cycle(args[0]),
    "hypercube": lambda args: hypercube(args[0]),
    "cocktail": lambda args: cocktail_party(args[0]),
    "complete-bipartite": lambda args: complete_bipartite(args[0], args[1]),
    "complete-multipartite": complete_multipartite,
    "empty": lambda args: empty_graph(args[0]),
}


def named(family: str, *args) -> WeightedGraph:
    """Dispatch a standard family by name; used by the command-line front
    end, so a size may also be given as a string of digits."""
    key = family.replace("_", "-")
    if key not in _FAMILIES:
        raise ChdError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    try:
        return _FAMILIES[key]([int(a) if isinstance(a, str) else a for a in args])
    except (IndexError, ValueError):
        raise ChdError(f"family {family!r} needs integer sizes, got {list(args)}") from None
