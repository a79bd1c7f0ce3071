"""Complex Hadamard matrices stored exactly as root-of-unity exponent tables.

A matrix of order n with entries that are r-th roots of unity is kept as an
n x n integer table ``exps`` with entry ``H[j, k] = z**exps[j, k]``,
``z = exp(2*pi*i/r)``.  All structural checks (orthogonality, dephasing,
products) run on the exponents, so they are exact; complex views are derived
on demand.  Orthogonality is decided by evaluating H at a split prime
(``cyclotomic.vanishes``).  A table is read by ``graphs.integer_table``, as
weight and conference matrices are; ``tensor`` and ``character_rows`` check
its order and root order before building it.  ``character_rows``
multiplies by a group's digit array, ``AbelianGroup.digits``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .cyclotomic import all_integers, check_order, prime_factors, vanishes
from .errors import ChdError, PreconditionError
from .graphs import AbelianGroup, blocks, check_count, integer_table

__all__ = [
    "ButsonMatrix",
    "HadamardClass",
    "verify",
    "dephase",
    "character_rows",
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

    def __init__(self, exps, r: int, _fresh: bool = False) -> None:
        r = check_order(r)
        table = integer_table(exps)
        if not table.size:
            raise ChdError("a Hadamard matrix needs at least one row")
        if table.dtype == object or not 0 <= table.min() <= table.max() < r:
            table = table % r
        arr = table.astype(np.int64, copy=table is exps and not _fresh)  # copies a caller's array
        arr.setflags(write=False)
        self.exps = arr
        self.r = r
        self._verified: bool | None = None

    @property
    def n(self) -> int:
        return int(self.exps.shape[0])

    def to_complex(self) -> np.ndarray:
        """The complex entries, read from a table of the r roots of unity."""
        return np.exp(2j * math.pi * np.arange(self.r) / self.r)[self.exps]

    def is_dephased(self) -> bool:
        return not self.exps[0].any() and not self.exps[:, 0].any()

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
        if not all_integers((n,)):
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

    By ``cyclotomic.vanishes``: an entry of H H* - n I has at most 2n
    terms, so one split prime p decides every order up to the 4096 cap,
    and the test is H(g) H(g**-1)^T = n I (mod p), exact in float64 as
    n (p-1)**2 < 2**53.  The rows of a character table, of a tensor of
    tables and of ``double`` of a table are closed under e -> k e mod r, so
    g alone decides them.  Row and column phases scale an entry of H H*
    by a power of z, so closure is judged on the dephased rows: a monomial
    transform of such a table is closed too.  Beside the blocks of
    ``graphs.blocks`` it holds H(g) and, for r > 2, H(g**-1), 128 MiB each
    at n = 4096.

    Never raises on a non-Hadamard exponent table; it just returns False.
    """
    if h._verified is None:
        h._verified = vanishes(lambda p, powers: _gram_residues(h, powers), h.exps, h.r, 2 * h.n)
    return h._verified


def _gram_residues(h: ButsonMatrix, powers: np.ndarray):
    """Blocks of rows of H(g) H(g**-1)^T - n I, with powers[e] = g**e mod p
    for e in 0..r, so that powers[::-1][e] = g**(r - e) = g**-e."""
    n = h.n
    left = powers.take(h.exps)
    right = left if h.r <= 2 else powers[::-1].take(h.exps)
    for block in blocks(n, n):
        # for r <= 2, g = g**-1 and the product is symmetric, so the columns
        # from the block's first row on suffice
        first = block.start if h.r <= 2 else 0
        gram = left[block] @ right[first:].T
        rows = np.arange(len(gram))
        gram[rows, rows + block.start - first] -= n
        yield gram


def _require_verified(h: ButsonMatrix, caller: str) -> None:
    if not verify(h):
        raise PreconditionError(f"{caller} requires a verified Hadamard matrix")


def _require_dephased(h: ButsonMatrix, caller: str) -> None:
    _require_verified(h, caller)
    if not h.is_dephased():
        raise PreconditionError(f"{caller} requires a dephased matrix; dephase first")


def dephase(h: ButsonMatrix) -> ButsonMatrix:
    """Equivalent matrix whose first row and first column are all ones.

    Columns are rescaled by the inverses of the first row, then rows by the
    inverses of the (new) first column.  Idempotent on dephased input.
    """
    _require_verified(h, "dephase")
    exps = (h.exps - h.exps[0][None, :]) % h.r
    exps = (exps - exps[:, 0][:, None]) % h.r
    out = ButsonMatrix(exps, h.r, _fresh=True)
    out._verified = True
    return out


def character_rows(group: AbelianGroup, elements) -> tuple[np.ndarray, int]:
    """Rows of the character table of the group for these elements, with
    the root order r = lcm(moduli): entry [i, j] of the rows is the
    exponent of chi_j(elements[i]) mod r, the characters in the group's
    row-major order."""
    r = check_order(math.lcm(*group.moduli))  # before the table is built
    weights = np.array([r // m for m in group.moduli], dtype=np.int64)
    table = (np.asarray(elements, dtype=np.int64) * weights) @ group.digits.T
    return np.remainder(table, r, out=table), r


def character_table(moduli) -> ButsonMatrix:
    """Character table of the abelian group Z_m1 x ... x Z_mk.

    Rows index group elements and columns index characters, both in the
    row-major (mixed-radix) order of ``AbelianGroup``, so the table lines
    up with the vertex numbering of Cayley graphs.  The result is dephased
    and Hadamard; ``verify`` decides and records that on its first call.
    """
    group = AbelianGroup(moduli)
    return ButsonMatrix(*character_rows(group, group.digits), _fresh=True)


def tensor(h1: ButsonMatrix, h2: ButsonMatrix) -> ButsonMatrix:
    """Kronecker product, over the lcm of the two root orders.

    Row/column indices are row-major pairs (i1, i2) -> i1 * n2 + i2.
    """
    n = h1.n * h2.n
    check_count(n, "matrix rows")
    r = check_order(math.lcm(h1.r, h2.r))
    _require_verified(h1, "tensor")
    _require_verified(h2, "tensor")
    a = h1.exps * (r // h1.r)
    b = h2.exps * (r // h2.r)
    exps = (a[:, None, :, None] + b[None, :, None, :]).reshape(n, n) % r
    return ButsonMatrix(exps, r, _fresh=True)


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

    r' is the smallest root order containing every entry: the order of the
    group that the z**e generate, r / gcd(r, every e).
    """
    _require_verified(h, "classify")
    r_min = h.r // int(np.gcd.reduce(h.exps.ravel(), initial=h.r))
    if r_min <= 2:
        return HadamardClass("real", r_min)
    if r_min == 4:
        return HadamardClass("turyn", 4)
    return HadamardClass("butson", r_min)


def conference_lift(c) -> ButsonMatrix:
    """Dephased Turyn matrix built from a symmetric conference matrix C.

    C must be symmetric with zero diagonal, +-1 off the diagonal and
    C^T C = (n-1) I; the lift encodes I + iC over the fourth roots of unity
    and dephases it.  For such a C, (I + iC)(I + iC)* = I + C^T C, so
    ``verify`` of the lift decides C^T C = (n-1) I exactly.
    """
    c = integer_table(c, "conference matrix", "conference matrix entries")
    n = c.shape[0]
    if np.diag(c).any():
        raise PreconditionError("conference matrix must have zero diagonal")
    if not np.all(np.abs(c[~np.eye(n, dtype=bool)]) == 1):
        raise PreconditionError("conference matrix entries must be +-1 off the diagonal")
    if not np.array_equal(c, c.T):
        raise PreconditionError("only symmetric conference matrices are supported")
    lifted = ButsonMatrix(np.where(c == 1, 1, np.where(c == -1, 3, 0)), 4, _fresh=True)
    if not verify(lifted):
        raise PreconditionError("matrix does not satisfy C^T C = (n-1) I")
    return dephase(lifted)


def paley_conference(q: int) -> np.ndarray:
    """Symmetric conference matrix of order q + 1 from quadratic residues mod q.

    q must be a prime with q = 1 (mod 4), and q + 1 within the matrix cap.
    """
    if not all_integers([q]) or q < 5 or q % 4 != 1:
        raise ChdError(f"need a prime q = 1 (mod 4), got {q}")
    check_count(q + 1, "matrix rows")
    if prime_factors(q) != [q]:
        raise ChdError(f"need a prime q = 1 (mod 4), got {q}")
    chi = np.full(q, -1, dtype=np.int64)
    chi[0] = 0
    chi[np.arange(1, q) ** 2 % q] = 1
    c = np.ones((q + 1, q + 1), dtype=np.int64)
    c[0, 0] = 0
    i = np.arange(q)
    c[1:, 1:] = chi[(i[None, :] - i[:, None]) % q]
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
        if not all_integers(seq):
            raise ChdError(f"{name} has an entry that is not an integer")
    for name, perm in (("row_perm", row_perm), ("col_perm", col_perm)):
        if sorted(perm) != list(range(n)):
            raise ChdError(f"{name} is not a permutation of 0..{n - 1}")
    exps = h.exps[np.ix_(row_perm, col_perm)]
    # phases reduced mod r first, so that no sum leaves int64
    exps = exps + np.array([p % r for p in row_phases], dtype=np.int64)[:, None]
    exps = exps + np.array([p % r for p in col_phases], dtype=np.int64)[None, :]
    out = ButsonMatrix(exps % r, r, _fresh=True)
    out._verified = True
    return out


def sylvester_hadamard(order: int) -> ButsonMatrix:
    """Real Hadamard matrix of power-of-two order 2**k: the character table
    of Z_2^k, which is the k-th tensor power of [[1, 1], [1, -1]], as
    ``tensor`` stacks each new factor as the leading row-major digit."""
    check_count(order, "matrix rows")
    if order < 1 or order & (order - 1):
        raise ChdError(f"order must be a power of two, got {order}")
    return character_table((2,) * (int(order).bit_length() - 1) or (1,))


@lru_cache(maxsize=None)
def instance_library() -> Mapping[int, tuple[tuple[str, ButsonMatrix], ...]]:
    """Built-in verified matrices at orders 2, 4, 6 and 8, built once: every
    call returns the same read-only mapping of tuples, so the same matrices.

    The real and Turyn entries (Sylvester matrices, the character tables of
    Z_4 and Z_4 x Z_2, and the lift of the Paley conference matrix of order
    6) are the matrices the small-graph catalogue reads its graphs off; the
    character tables of Z_6 and Z_8 are Butson examples, which it skips.
    """
    return MappingProxyType({
        2: (("sylvester-2", sylvester_hadamard(2)),),
        4: (("sylvester-4", sylvester_hadamard(4)), ("z4-characters", character_table((4,)))),
        6: (
            ("conference-6", conference_lift(paley_conference(5))),
            ("z6-characters", character_table((6,))),
        ),
        8: (
            ("sylvester-8", sylvester_hadamard(8)),
            ("z4xz2-characters", character_table((4, 2))),
            ("z8-characters", character_table((8,))),
        ),
    })
