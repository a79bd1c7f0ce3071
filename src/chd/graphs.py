"""Weighted simple graphs and the constructions used throughout the package.

A graph is stored as one integer numpy matrix and one integer ``scale``:
the weight of edge (u, v) is ``matrix[u, v] / scale``, where ``scale`` is
the lcm of the weight denominators, so the stored form is canonical.  The
matrix is int64 when n times its largest entry stays below 2**62, which
keeps every row sum and Laplacian entry exact, and an array of Python
integers otherwise.  Fractions appear only at the boundary: ``from_edges``,
JSON, ``edges()``, ``weight()`` and ``degrees()``.  Vertices of
product-style constructions are numbered in row-major mixed-radix order so
that they line up with the rows of tensor-product Hadamard matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iter_product, repeat

import numpy as np

from .cyclotomic import exact_dtype
from .errors import ChdError, ScaleError, SimplicityError

__all__ = [
    "WeightedGraph",
    "AbelianGroup",
    "cayley",
    "complement",
    "combine",
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


def _maxabs(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _check_order(n) -> None:
    if not _is_int(n) or n < 0:
        raise ChdError(f"the vertex count must be a nonnegative integer, got {n!r}")
    if n > MAX_VERTICES:
        raise ScaleError(f"graphs are capped at {MAX_VERTICES} vertices, got {n}")


def check_group_order(moduli) -> None:
    """Refuse a product of cyclic groups with more than MAX_VERTICES
    elements before anything is built, multiplying the moduli one at a time
    so that a long iterable of factors is never read to its end."""
    order = 1
    for m in moduli:
        order *= m
        if order > MAX_VERTICES:
            raise ScaleError(
                f"groups are capped at {MAX_VERTICES} elements, as graphs are at "
                f"{MAX_VERTICES} vertices"
            )


class WeightedGraph:
    """Simple undirected graph with nonnegative rational edge weights."""

    __slots__ = ("n", "matrix", "scale")

    def __init__(self, rows) -> None:
        rows = [[_as_fraction(w) for w in row] for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ChdError("weight matrix must be square")
        scale = math.lcm(1, *(w.denominator for row in rows for w in row))
        ints = [[w.numerator * (scale // w.denominator) for w in row] for row in rows]
        self._store(np.array(ints, dtype=object).reshape(n, n), scale)

    @classmethod
    def _from_matrix(cls, matrix: np.ndarray, scale: int = 1) -> "WeightedGraph":
        """The graph with weights matrix / scale, from a square integer array."""
        g = cls.__new__(cls)
        g._store(matrix, scale)
        return g

    def _store(self, mat: np.ndarray, scale: int) -> None:
        n = mat.shape[0]
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ChdError("weight matrix must be square")
        _check_order(n)
        loops = np.flatnonzero(np.diagonal(mat))
        if loops.size:
            raise SimplicityError(f"vertex {loops[0]} carries a loop")
        asym = np.argwhere(np.triu(mat != mat.T))
        if asym.size:
            u, v = asym[0].tolist()
            raise SimplicityError(f"weight matrix is not symmetric at ({u}, {v})")
        neg = np.argwhere(np.triu(mat < 0))
        if neg.size:
            u, v = neg[0].tolist()
            raise SimplicityError(f"negative weight on edge ({u}, {v})")
        if scale != 1:
            common = math.gcd(scale, *np.unique(mat).tolist())
            mat, scale = mat // common, scale // common
        mat = mat.astype(exact_dtype(n * _maxabs(mat)))
        mat.setflags(write=False)
        self.n = n
        self.matrix = mat
        self.scale = int(scale)

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        _check_order(n)
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
            if weights.get((u, v), 0) != 0:
                raise SimplicityError(f"duplicate edge ({u}, {v})")
            weights[u, v] = weights[v, u] = weight
        scale = math.lcm(1, *(w.denominator for w in weights.values()))
        ints = [w.numerator * (scale // w.denominator) for w in weights.values()]
        mat = np.zeros((n, n), dtype=exact_dtype(n * max(map(abs, ints), default=0)))
        if weights:
            mat[tuple(np.array(list(weights)).T)] = ints
        return cls._from_matrix(mat, scale)

    # -- matrices -------------------------------------------------------

    def weight(self, u: int, v: int) -> Fraction:
        return Fraction(int(self.matrix[u, v]), self.scale)

    def degree(self, u: int) -> Fraction:
        return Fraction(int(self.matrix[u].sum()), self.scale)

    def degrees(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(d), self.scale) for d in self.matrix.sum(axis=1))

    def integer_matrix(self, target: str = "laplacian") -> tuple[np.ndarray, int]:
        """Exact integer scaling of the Laplacian or adjacency matrix.

        Returns (matrix, scale) with matrix == scale * target entrywise.
        """
        if target != "laplacian":
            return self.matrix, self.scale
        return np.diag(self.matrix.sum(axis=1)) - self.matrix, self.scale

    def adjacency_float(self) -> np.ndarray:
        return (self.matrix.astype(object) / self.scale).astype(float)

    def laplacian_float(self) -> np.ndarray:
        a = self.adjacency_float()
        return np.diag(a.sum(axis=1)) - a

    # -- structure ------------------------------------------------------

    def edges(self):
        us, vs = np.nonzero(np.triu(self.matrix))
        for u, v, w in zip(us.tolist(), vs.tolist(), self.matrix[us, vs].tolist()):
            yield u, v, Fraction(w, self.scale)

    def is_unweighted(self) -> bool:
        return self.scale == 1 and _maxabs(self.matrix) <= 1

    def neighbors(self, u: int):
        return np.flatnonzero(self.matrix[u]).tolist()

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
                for v in self.neighbors(u):
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

    Elements are exponent tuples; ``index`` ranks them in row-major order,
    matching the row order of ``character_table`` with the same moduli.
    """

    __slots__ = ("moduli", "_elements", "_index")

    def __init__(self, moduli) -> None:
        moduli = tuple(int(m) for m in moduli)
        if not moduli or any(m < 1 for m in moduli):
            raise ChdError(f"moduli must be positive integers, got {moduli}")
        check_group_order(moduli)
        self.moduli = moduli
        self._elements = tuple(iter_product(*(range(m) for m in moduli)))
        self._index = {el: i for i, el in enumerate(self._elements)}

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return self._elements

    def normalise(self, el) -> tuple[int, ...]:
        el = tuple(int(x) for x in el)
        if len(el) != len(self.moduli):
            raise ChdError(f"element {el} has wrong arity for moduli {self.moduli}")
        return tuple(x % m for x, m in zip(el, self.moduli))

    def index(self, el) -> int:
        return self._index[self.normalise(el)]

    def neg(self, el) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(self.normalise(el), self.moduli))

    def sub(self, a, b) -> tuple[int, ...]:
        a, b = self.normalise(a), self.normalise(b)
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def element_order(self, el) -> int:
        el = self.normalise(el)
        out = 1
        for x, m in zip(el, self.moduli):
            if x:
                out = math.lcm(out, m // math.gcd(x, m))
        return out


def connection_set(group: AbelianGroup, connection) -> set[tuple[int, ...]]:
    """The normalised connection set, checked to avoid the identity (no
    loops) and to be closed under negation (undirected edges)."""
    conn = {group.normalise(c) for c in connection}
    if group.identity in conn:
        raise SimplicityError("connection set contains the identity (loops)")
    for c in conn:
        if group.neg(c) not in conn:
            raise SimplicityError(
                f"connection set is not closed under negation at {c}"
            )
    return conn


def cayley(group: AbelianGroup, connection) -> WeightedGraph:
    """Unit-weight Cayley graph: u ~ v iff u - v lies in the connection set."""
    conn = connection_set(group, connection)
    n = group.order
    els = np.array(group.elements(), dtype=np.int64).reshape(n, -1)
    mat = np.zeros((n, n), dtype=np.int64)
    for c in conn:
        targets = np.ravel_multi_index(((els + c) % group.moduli).T, group.moduli)
        mat[np.arange(n), targets] = 1
    return WeightedGraph._from_matrix(mat)


def complement(g: WeightedGraph) -> WeightedGraph:
    """Edge-set complement; defined for unweighted graphs only."""
    if not g.is_unweighted():
        raise ChdError("complement is only defined for unweighted graphs")
    return WeightedGraph._from_matrix(1 - np.eye(g.n, dtype=np.int64) - g.matrix)


def graph_union(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Disjoint union; vertices of g1 come first."""
    scale = math.lcm(g1.scale, g2.scale)
    k1, k2 = scale // g1.scale, scale // g2.scale
    largest = max(k1 * _maxabs(g1.matrix), k2 * _maxabs(g2.matrix))
    dtype = exact_dtype((g1.n + g2.n) * largest)
    mat = np.zeros((g1.n + g2.n,) * 2, dtype=dtype)
    mat[: g1.n, : g1.n] = g1.matrix.astype(dtype) * k1
    mat[g1.n :, g1.n :] = g2.matrix.astype(dtype) * k2
    return WeightedGraph._from_matrix(mat, scale)


def graph_join(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Union plus all unit-weight cross edges; both inputs must be unweighted."""
    if not (g1.is_unweighted() and g2.is_unweighted()):
        raise ChdError("join is only defined for unweighted graphs")
    cross = np.ones((g1.n, g2.n), dtype=np.int64)
    mat = np.block([[g1.matrix, cross], [cross.T, g2.matrix]])
    return WeightedGraph._from_matrix(mat)


def combine(g1: WeightedGraph, g2: WeightedGraph, kind: str) -> WeightedGraph:
    if kind == "union":
        return graph_union(g1, g2)
    if kind == "join":
        return graph_join(g1, g2)
    raise ChdError(f"unknown combination {kind!r}; expected 'union' or 'join'")


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
    of 0/1 tuples (the all-zero tuple is excluded; exponent 0 means identity).
    """
    graphs = list(graphs)
    basis = [tuple(int(b) for b in beta) for beta in basis]
    d = len(graphs)
    if not basis:
        raise ChdError("basis must be nonempty")
    for beta in basis:
        if len(beta) != d:
            raise ChdError(f"basis tuple {beta} has wrong arity {len(beta)} != {d}")
        if any(b not in (0, 1) for b in beta):
            raise ChdError(f"basis tuple {beta} is not 0/1")
        if not any(beta):
            raise SimplicityError("the all-zero basis tuple would add a diagonal term")
    terms = []
    for beta in basis:
        factors = [g if b else g.n for g, b in zip(graphs, beta)]
        terms.append((Fraction(1), factors))
    return weighted_tensor_sum(terms)


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
        dims = tuple(f.n if isinstance(f, WeightedGraph) else int(f) for f in factors)
        if sizes is None:
            sizes = dims
        elif dims != sizes:
            raise ChdError(f"inconsistent factor sizes {dims} vs {sizes}")
        mats = [
            f.matrix if isinstance(f, WeightedGraph) else np.eye(int(f), dtype=np.int64)
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
    if np.diagonal(total).any():
        raise SimplicityError("summed matrix has a nonzero diagonal entry")
    if (total < 0).any():
        raise SimplicityError("summed matrix has a negative weight")
    return WeightedGraph._from_matrix(total, scale)


# -- named families -----------------------------------------------------


def complete(n: int) -> WeightedGraph:
    _check_size(n)
    _check_order(n)
    return complete_multipartite((1,) * n)


def empty_graph(n: int) -> WeightedGraph:
    _check_size(n)
    _check_order(n)
    return WeightedGraph._from_matrix(np.zeros((n, n), dtype=np.int64))


def cycle(r: int) -> WeightedGraph:
    _check_size(r)
    if r < 3:
        raise ChdError(f"cycle needs at least 3 vertices, got {r}")
    group = AbelianGroup((r,))
    return cayley(group, [(1,), (r - 1,)])


def hypercube(d: int) -> WeightedGraph:
    _check_size(d)
    check_group_order(repeat(2, d))
    group = AbelianGroup((2,) * d)
    units = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    return cayley(group, units)


def cocktail_party(n: int) -> WeightedGraph:
    """Complement of n disjoint edges, as a Cayley graph on Z_{2n}."""
    _check_size(n)
    group = AbelianGroup((2 * n,))
    conn = [(c,) for c in range(1, 2 * n) if c != n]
    return cayley(group, conn)


def complete_bipartite(a: int, b: int) -> WeightedGraph:
    return complete_multipartite((a, b))


def complete_multipartite(parts) -> WeightedGraph:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ChdError(f"part sizes must be positive, got {parts}")
    _check_order(sum(parts))
    block = np.repeat(np.arange(len(parts)), parts)
    mat = (block[:, None] != block[None, :]).astype(np.int64)
    return WeightedGraph._from_matrix(mat)


def _check_size(n: int) -> None:
    if n < 1:
        raise ChdError(f"size must be at least 1, got {n}")


_FAMILIES = {
    "complete": lambda args: complete(int(args[0])),
    "cycle": lambda args: cycle(int(args[0])),
    "hypercube": lambda args: hypercube(int(args[0])),
    "cocktail": lambda args: cocktail_party(int(args[0])),
    "complete-bipartite": lambda args: complete_bipartite(int(args[0]), int(args[1])),
    "complete-multipartite": lambda args: complete_multipartite(
        [int(a) for a in args]
    ),
    "empty": lambda args: empty_graph(int(args[0])),
}


def named(family: str, *args) -> WeightedGraph:
    """Dispatch a standard family by name; used by the command-line front end."""
    key = family.replace("_", "-")
    if key not in _FAMILIES:
        raise ChdError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    try:
        return _FAMILIES[key](args)
    except IndexError:
        raise ChdError(f"family {family!r} is missing size arguments") from None
