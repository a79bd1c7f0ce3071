"""Complex Hadamard matrices stored exactly as root-of-unity exponent tables.

A matrix of order n with entries that are r-th roots of unity is kept as an
n x n integer table ``exps`` with entry ``H[j, k] = z**exps[j, k]``,
``z = exp(2*pi*i/r)``.  All structural checks (orthogonality, dephasing,
products) run on the exponents, so they are exact; complex views are derived
on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .cyclotomic import check_order, reduce
from .errors import ChdError, PreconditionError
from .graphs import check_group_order

__all__ = [
    "ButsonMatrix",
    "HadamardClass",
    "verify",
    "dephase",
    "character_table",
    "tensor",
    "double",
    "classify",
    "conference_lift",
    "monomial_transform",
    "paley_conference",
    "sylvester_hadamard",
    "instance_library",
]


class ButsonMatrix:
    """Square matrix of r-th roots of unity, stored as exponents mod r."""

    __slots__ = ("exps", "r", "_verified")

    def __init__(self, exps, r: int) -> None:
        r = check_order(r)
        integral = isinstance(exps, np.ndarray) and exps.dtype.kind in "iu"
        arr = exps if integral else np.array(exps, dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ChdError(f"exponent table must be square, got shape {arr.shape}")
        # a float or bool exponent is rejected, not truncated
        if not integral and not all(
            issubclass(t, (int, np.integer)) and t is not bool
            for t in set(map(type, arr.flat))
        ):
            raise ChdError("exponents must be integers")
        arr = (arr % r).astype(np.int64)
        arr.setflags(write=False)
        self.exps = arr
        self.r = r
        self._verified: bool | None = None

    @property
    def n(self) -> int:
        return int(self.exps.shape[0])

    def to_complex(self) -> np.ndarray:
        return np.exp(2j * math.pi * self.exps / self.r)

    def column(self, k: int) -> np.ndarray:
        return self.exps[:, k]

    def is_dephased(self) -> bool:
        return not self.exps[0].any() and not self.exps[:, 0].any()

    def promoted(self, r_new: int) -> "ButsonMatrix":
        """The same matrix viewed in a larger ring (r_new must be a multiple of r)."""
        if r_new % self.r:
            raise ChdError(f"{r_new} is not a multiple of root order {self.r}")
        return ButsonMatrix(self.exps * (r_new // self.r), r_new)

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "exps": self.exps.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "ButsonMatrix":
        if not isinstance(data, dict):
            raise ChdError("hadamard JSON must be an object with fields 'n', 'r' and 'exps'")
        for field in ("n", "r", "exps"):
            if field not in data:
                raise ChdError(f"hadamard JSON is missing the field {field!r}")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ChdError(f"the hadamard field 'n' must be an integer, got {n!r}")
        h = cls(data["exps"], data["r"])
        if h.n != n:
            raise ChdError(f"field 'n' is {n} but the exponent table has order {h.n}")
        return h

    def __eq__(self, other) -> bool:
        if not isinstance(other, ButsonMatrix):
            return NotImplemented
        return self.r == other.r and np.array_equal(self.exps, other.exps)

    def __hash__(self) -> int:
        return hash((self.r, self.exps.tobytes()))

    def __repr__(self) -> str:
        return f"ButsonMatrix(n={self.n}, r={self.r})"


def verify(h: ButsonMatrix) -> bool:
    """True iff the rows are exactly orthogonal, i.e. H H* = n I in the ring.

    Never raises on a non-Hadamard exponent table; it just returns False.
    """
    if h._verified is not None:
        return h._verified
    n, r = h.n, h.r
    ok = True
    # row i against every later row k: the counts of exps[i] - exps[k] mod r
    # are the coefficients of <h_i, h_k>, which must reduce to zero
    for i in range(n - 1):
        diff = (h.exps[i] - h.exps[i + 1 :]) % r
        offsets = r * np.arange(n - 1 - i)[:, None]
        counts = np.bincount((diff + offsets).ravel(), minlength=(n - 1 - i) * r)
        if reduce(counts.reshape(n - 1 - i, r), r).any():
            ok = False
            break
    h._verified = ok
    return ok


def _require_verified(h: ButsonMatrix, what: str) -> None:
    if not verify(h):
        raise PreconditionError(f"{what} requires a verified complex Hadamard matrix")


def dephase(h: ButsonMatrix) -> ButsonMatrix:
    """Equivalent matrix whose first row and first column are all ones.

    Columns are rescaled by the inverses of the first row, then rows by the
    inverses of the (new) first column.  Idempotent on dephased input.
    """
    _require_verified(h, "dephase")
    exps = (h.exps - h.exps[0][None, :]) % h.r
    exps = (exps - exps[:, 0][:, None]) % h.r
    out = ButsonMatrix(exps, h.r)
    out._verified = True
    return out


def character_table(moduli) -> ButsonMatrix:
    """Character table of the abelian group Z_m1 x ... x Z_mk.

    Rows index group elements and columns index characters, both in
    row-major (mixed-radix) order, so the table lines up with the vertex
    numbering used by Cayley-graph constructions.  The result is dephased
    and verified.
    """
    moduli = tuple(int(m) for m in moduli)
    if not moduli or any(m < 1 for m in moduli):
        raise ChdError(f"moduli must be positive integers, got {moduli}")
    check_group_order(moduli)
    r = math.lcm(*moduli)
    elements = np.array(list(iter_product(*(range(m) for m in moduli))), dtype=np.int64)
    weights = np.array([r // m for m in moduli], dtype=np.int64)
    exps = (elements * weights[None, :]) @ elements.T % r
    return ButsonMatrix(exps, r)


def tensor(h1: ButsonMatrix, h2: ButsonMatrix) -> ButsonMatrix:
    """Kronecker product, promoted to the lcm of the two root orders.

    Row/column indices are row-major pairs (i1, i2) -> i1 * n2 + i2.
    """
    _require_verified(h1, "tensor")
    _require_verified(h2, "tensor")
    r = math.lcm(h1.r, h2.r)
    a = h1.exps * (r // h1.r)
    b = h2.exps * (r // h2.r)
    n = h1.n * h2.n
    exps = (a[:, None, :, None] + b[None, :, None, :]).reshape(n, n) % r
    return ButsonMatrix(exps, r)


def double(h: ButsonMatrix) -> ButsonMatrix:
    """The order-doubling [[H, H], [H, -H]], i.e. tensor([[1,1],[1,-1]], H)."""
    return tensor(character_table((2,)), h)


@dataclass(frozen=True)
class HadamardClass:
    kind: str  # "real", "turyn" or "butson"
    root_order: int

    def __str__(self) -> str:
        if self.kind == "butson":
            return f"butson({self.root_order})"
        return self.kind


def classify(h: ButsonMatrix) -> HadamardClass:
    """Entry classification: real (+-1), turyn (+-1, +-i) or butson(r').

    r' is the smallest root order containing every entry.
    """
    _require_verified(h, "classify")
    r = h.r
    r_min = 1
    for e in np.unique(h.exps):
        e = int(e)
        order = r // math.gcd(e, r) if e else 1
        r_min = math.lcm(r_min, order)
    if r_min <= 2:
        return HadamardClass("real", r_min)
    if r_min == 4:
        return HadamardClass("turyn", 4)
    return HadamardClass("butson", r_min)


def conference_lift(c) -> ButsonMatrix:
    """Dephased Turyn matrix built from a symmetric conference matrix C.

    C must be symmetric with zero diagonal, +-1 off the diagonal and
    C^T C = (n-1) I; the lift encodes I + iC over the fourth roots of unity
    and dephases it.
    """
    c = np.array(c, dtype=np.int64)
    n = c.shape[0]
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise PreconditionError("conference matrix must be square")
    if np.diag(c).any():
        raise PreconditionError("conference matrix must have zero diagonal")
    off = c[~np.eye(n, dtype=bool)]
    if not np.all(np.abs(off) == 1):
        raise PreconditionError("conference matrix entries must be +-1 off the diagonal")
    if not np.array_equal(c, c.T):
        raise PreconditionError("only symmetric conference matrices are supported")
    if not np.array_equal(c.T @ c, (n - 1) * np.eye(n, dtype=np.int64)):
        raise PreconditionError("matrix does not satisfy C^T C = (n-1) I")
    exps = np.where(c == 1, 1, np.where(c == -1, 3, 0))
    lifted = ButsonMatrix(exps, 4)
    if not verify(lifted):
        raise PreconditionError("lifted matrix failed the Hadamard check")
    return dephase(lifted)


def paley_conference(q: int) -> np.ndarray:
    """Symmetric conference matrix of order q + 1 from quadratic residues mod q.

    q must be a prime with q = 1 (mod 4).
    """
    if q < 5 or any(q % p == 0 for p in range(2, int(q**0.5) + 1)) or q % 4 != 1:
        raise ChdError(f"need a prime q = 1 (mod 4), got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    chi = [0] * q
    for a in range(1, q):
        chi[a] = 1 if a in residues else -1
    n = q + 1
    c = np.zeros((n, n), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = 1
    for i in range(q):
        for j in range(q):
            if i != j:
                c[1 + i, 1 + j] = chi[(j - i) % q]
    return c


def monomial_transform(
    h: ButsonMatrix,
    row_perm,
    col_perm,
    row_phases,
    col_phases,
) -> ButsonMatrix:
    """Apply M H N for monomial M, N given by permutations and phase exponents.

    Output row u, column v is ``z**row_phases[u] * H[row_perm[u], col_perm[v]]
    * z**col_phases[v]``.
    """
    _require_verified(h, "monomial_transform")
    n, r = h.n, h.r
    row_perm = list(row_perm)
    col_perm = list(col_perm)
    row_phases = list(row_phases)
    col_phases = list(col_phases)
    for name, seq in (
        ("row_perm", row_perm),
        ("col_perm", col_perm),
        ("row_phases", row_phases),
        ("col_phases", col_phases),
    ):
        if len(seq) != n:
            raise ChdError(f"{name} has length {len(seq)}, expected {n}")
    for name, perm in (("row_perm", row_perm), ("col_perm", col_perm)):
        if sorted(perm) != list(range(n)):
            raise ChdError(f"{name} is not a permutation of 0..{n - 1}")
    exps = h.exps[np.ix_(row_perm, col_perm)]
    exps = exps + np.array(row_phases, dtype=np.int64)[:, None]
    exps = exps + np.array(col_phases, dtype=np.int64)[None, :]
    out = ButsonMatrix(exps % r, r)
    out._verified = True
    return out


def sylvester_hadamard(order: int) -> ButsonMatrix:
    """Real Hadamard matrix of power-of-two order as a tensor power of
    [[1, 1], [1, -1]]."""
    if order < 1 or order & (order - 1):
        raise ChdError(f"order must be a power of two, got {order}")
    h = character_table((1,))
    while h.n < order:
        h = double(h)
    return h


def instance_library() -> dict[int, list[tuple[str, ButsonMatrix]]]:
    """Built-in verified matrices at orders 2, 4, 6 and 8.

    The real and Turyn entries (Sylvester matrices, the character tables of
    Z_4 and Z_4 x Z_2, and the lift of the Paley conference matrix of order
    6) are the matrices the small-graph catalogue reads its graphs off; the
    character tables of Z_6 and Z_8 are Butson examples, which it skips.
    """
    f2 = sylvester_hadamard(2)
    t4 = character_table((4,))
    lib = {
        2: [("sylvester-2", f2)],
        4: [("sylvester-4", sylvester_hadamard(4)), ("z4-characters", t4)],
        6: [
            ("conference-6", conference_lift(paley_conference(5))),
            ("z6-characters", character_table((6,))),
        ],
        8: [
            ("sylvester-8", sylvester_hadamard(8)),
            ("z4xz2-characters", character_table((4, 2))),
            ("z8-characters", character_table((8,))),
        ],
    }
    return lib
