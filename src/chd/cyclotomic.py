"""Exact values in the ring of integer combinations of roots of unity.

A value is a coefficient vector ``(a_0, ..., a_{r-1})`` of Z[x]/(x**r - 1),
standing for ``sum_j a_j * z**j`` with ``z = exp(2*pi*i/r)``.  Many vectors
stand for one value, so :class:`CyclotomicInt` holds one with no arithmetic
of its own, and is compared, hashed and tested for rationality by its
reduction modulo the r-th cyclotomic polynomial.  Coefficients are Python
integers, so no precision is ever lost.

Reduction is linear, so it is one table per root order: row e of
``reduction_table(r)`` holds the coordinates of ``z**e`` in the basis
``1, z, ..., z**(phi(r)-1)``, and :func:`reduce` applies it to any batch of
coefficient vectors.  Every exact equality in the package goes through that
one product.  It runs as a float64 (BLAS) product when a bound proves that
no partial sum can reach 2**53, where float64 holds every integer exactly,
in int64 when the bound stays below 2**62, and on Python integers
otherwise.  Root orders are capped at ``MAX_ORDER``; a table takes
8 r phi(r) bytes, at most 8.3 MB (r = 1021).

A family of values is decided to be 0 without reduction, by
:func:`vanishes`: evaluated at a prime p = 1 (mod r), which splits
completely in Z[z], as one float64 product of residues below p.

>>> CyclotomicInt(5, (1, 1, 1, 1, 1)) == CyclotomicInt(5, (0, 0, 0, 0, 0))
True
>>> CyclotomicInt(4, (0, 1, 0, 0)) == CyclotomicInt(8, (0, 0, 1, 0, 0, 0, 0, 0))
False
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ChdError, InternalCheckError, ScaleError

MAX_ORDER = 1024
INT64_BOUND = 1 << 62
FLOAT64_BOUND = 1 << 53


def check_order(r) -> int:
    """r as an int, if it is a root order in 1..MAX_ORDER."""
    if not all_integers((r,)) or r < 1:
        raise ChdError(f"root order must be a positive integer, got {r!r}")
    if r > MAX_ORDER:
        raise ScaleError(f"root order {r} exceeds the cap of {MAX_ORDER}")
    return int(r)


def all_integers(items) -> bool:
    """Whether every item is an integer, checked once per distinct type: a
    float or bool is refused, not truncated."""
    return integer_types(set(map(type, items)))


def integer_types(types) -> bool:
    """Whether every type in ``types`` is an integer type other than bool."""
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in types)


def exact_dtype(bound: int):
    """The dtype for exact integer work whose values stay below ``bound`` in
    absolute value: int64 if bound < 2**62, else ``object`` (Python ints)."""
    return np.int64 if bound < INT64_BOUND else object


def prime_factors(r: int) -> list[int]:
    """The distinct prime factors of r in increasing order; r is prime iff
    this is [r].

    >>> prime_factors(360)
    [2, 3, 5]
    >>> prime_factors(1021)
    [1021]
    """
    out, p = [], 2
    while p * p <= r:
        if r % p == 0:
            out.append(p)
            while r % p == 0:
                r //= p
        p += 1
    return out + ([r] if r > 1 else [])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients of the r-th cyclotomic polynomial, constant term first.

    For r > 1 it is the Moebius product of (1 - x**d)**mu(r/d) over the
    divisors d of r, expanded as a power series cut at degree phi(r).

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    r = check_order(r)
    if r == 1:
        return (-1, 1)
    primes = prime_factors(r)
    m = r
    for p in primes:
        m = m // p * (p - 1)
    poly = [1] + [0] * m
    for mask in range(1 << len(primes)):
        q = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        d = r // q  # mu(r/d) = (-1)**(number of primes in q)
        if bin(mask).count("1") % 2 == 0:
            for i in range(m, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, m + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


# a table takes up to 8.3 MB, so the cache keeps the sixteen most recent
@lru_cache(maxsize=16)
def reduction_table(r: int) -> np.ndarray:
    """R_r: the r x phi(r) int64 matrix whose row e is z**e reduced modulo
    the r-th cyclotomic polynomial.

    >>> reduction_table(4).tolist()  # 1, i, -1, -i in the basis 1, i
    [[1, 0], [0, 1], [-1, 0], [0, -1]]
    """
    phi = np.array(cyclotomic_polynomial(r)[:-1], dtype=np.int64)
    m = len(phi)
    table = np.zeros((r, m), dtype=np.int64)
    row = np.zeros(m, dtype=np.int64)
    row[0] = 1
    for e in range(r):
        table[e] = row
        top = row[-1]
        row = np.concatenate(([0], row[:-1])) - top * phi
    # each row is at most (1 + max|phi|) <= 4 times the previous one (phi's
    # coefficients are at most 3 in size up to MAX_ORDER), so a table below
    # 2**40 proves that no step wrapped around
    if np.abs(table).max() >= 1 << 40:
        raise InternalCheckError(f"reduction table of order {r} outgrew int64")
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _table_max(r: int) -> int:
    return int(np.abs(reduction_table(r)).max())


def product_dtype(weights: np.ndarray, r: int):
    """The dtype in which :func:`reduce` multiplies these weights by R_r.

    bound = row length x max|weights| x max|R_r| bounds every term and every
    partial sum, whatever the order of summation.  Below 2**53, where
    float64 holds every such integer exactly, it is float64 (BLAS); below
    2**62 int64; past that Python ints (``object``).
    """
    largest = max(int(weights.max(initial=0)), -int(weights.min(initial=0)))
    bound = weights.shape[-1] * largest * _table_max(r)
    return np.float64 if bound < FLOAT64_BOUND else exact_dtype(bound)


def reduce(weights: np.ndarray, r: int, exps=None) -> np.ndarray:
    """Reduced coordinates of ``sum_s weights[..., s] * z**exps[s]``: the
    product ``weights @ R_r[exps % r]``, with exps defaulting to 0..r-1.

    exps may be an s x b block of exponent columns; the result then has
    shape ``weights.shape[:-1] + (b, phi(r))``, one product for all b.  The
    product runs in :func:`product_dtype`, and a float64 result is cast back
    to int64.  Weights already in that dtype are not copied.

    >>> reduce(np.array([2, -1, 0, 0, -1]), 5).tolist()  # 2 - z - z**4
    [3, 0, 1, 1]
    >>> reduce(np.array([1, 1]), 4, np.array([[1], [3]])).tolist()  # i + -i
    [[0, 0]]
    """
    dtype = product_dtype(weights, r)
    table = reduction_table(r).astype(dtype)
    if exps is not None:
        table = np.take(table, exps, axis=0, mode="wrap")
    out = weights.astype(dtype, copy=False) @ table.reshape(table.shape[0], -1)
    if dtype is np.float64:
        out = out.astype(np.int64)
    return out.reshape(weights.shape[:-1] + table.shape[1:])


@lru_cache(maxsize=None)
def split_prime(r: int, i: int = 0) -> tuple[int, int]:
    """(p, g): the (i+1)-th largest prime p = 1 (mod r) with
    4097 (p-1)**2 < 2**53, and the least g = x**((p-1)/r) of order exactly
    r mod p.  p splits completely in Z[z] (L. Washington, Introduction to
    Cyclotomic Fields, Thm 2.13): z -> g**k, one map for each unit k mod r,
    are the phi(r) maps of Z[z] onto F_p.

    >>> p, g = split_prime(4)
    >>> p % 4, pow(g, 2, p) == p - 1, 4097 * (p - 1) ** 2 < 2**53
    (1, True, True)
    """
    r = check_order(r)
    p = split_prime(r, i - 1)[0] if i else math.isqrt((FLOAT64_BOUND - 1) // 4097) + 2
    p -= (p - 1) % r or r  # the largest p' < p with p' = 1 (mod r)
    while prime_factors(p) != [p]:
        if p <= r:
            raise ScaleError(f"no further prime = 1 (mod {r}) for an exact test")
        p -= r
    orders = [r // q for q in prime_factors(r)]
    roots = (pow(x, (p - 1) // r, p) for x in range(2, p))
    return p, next(g for g in roots if all(pow(g, d, p) != 1 for d in orders))


@lru_cache(maxsize=None)
def _units(r: int) -> tuple[int, ...]:
    """The units mod r, 1 first."""
    return (1 % r,) + tuple(k for k in range(2, r) if math.gcd(k, r) == 1)


def _row_set(exps: np.ndarray) -> set[bytes]:
    """The rows of a uint16 table, as a set of bytes."""
    rows = np.ascontiguousarray(exps)
    return set(rows.view(np.dtype((np.void, 2 * rows.shape[1]))).ravel().tolist())


def unit_cosets(exps: np.ndarray, r: int) -> list[int]:
    """Units k mod r, 1 first, one from each coset k S of the group S of
    units under which the rows of the dephased table, as a set, are closed
    (e -> k e mod r maps every row to a row).  The dephased table is exps
    less each row's entry in column 0 and each column's entry in row 0.

    Units are tested in increasing order, skipping each that the tests so
    far decide: one in the group they span, or in a coset of it already
    known to lie outside S.  A table closed under every unit is tested on
    a generating set, one closed under none on every unit.

    >>> unit_cosets(np.array([[0, 0], [0, 1], [0, 2], [0, 3]]), 8)  # none but 1
    [1, 3, 5, 7]
    >>> unit_cosets(np.array([[0, 1], [0, 3], [0, 5], [0, 7]]), 8)  # all
    [1]
    >>> unit_cosets(np.array([[0, 1], [0, 5], [0, 2], [0, 6]]), 8)  # S = {1, 5}
    [1, 3]
    """
    units = _units(r)
    group, outside = {units[0]}, set()

    def image(k: int) -> set[bytes]:
        # entry x in -2r..2r-1 is read as x + 2r when negative, and
        # (x + 2r) k = x k (mod r)
        return _row_set((np.arange(2 * r) * k % r).astype(np.uint16)[table])

    if len(units) > 1:
        table = exps - exps[:, :1] - (exps[:1] - exps[:1, :1])  # dephased
        rows = image(1)
    for k in units[1:]:
        if k in group or k in outside:
            continue
        if image(k) == rows:
            # the group spanned with k is the union of the cosets k**j group
            grown, x = set(group), k
            while x not in group:
                grown.update(x * s % r for s in group)
                x = x * k % r
            group = grown
            outside = {x * s % r for x in outside for s in group}
        else:
            outside.update(k * s % r for s in group)
    cosets, covered = [], set()
    for k in units:
        if k not in covered:
            cosets.append(k)
            covered.update(k * s % r for s in group)
    return cosets


@lru_cache(maxsize=None)
def _powers(r: int, i: int) -> np.ndarray:
    """g**e mod p for e in 0..r in float64, (p, g) = split_prime(r, i)."""
    p, g = split_prime(r, i)
    return np.array([pow(g, e, p) for e in range(r + 1)], dtype=np.float64)


def vanishes(residues, exps: np.ndarray, r: int, bound: int) -> bool:
    """Whether every x of a finite family in Z[z] is exactly 0.

    ``bound`` bounds ||coeffs(x)||_1, so every reduced coordinate of x is
    at most bound max|R_r| in size (max|R_r| <= 5 for r <= MAX_ORDER,
    reached at r = 935).  ``residues(p, powers)``, with powers[e] = g**e
    mod p for e in 0..r, yields float64 blocks of integers below 2**53 in
    size, congruent mod p to the values x(g).

    x is 0 iff x(g**k) = 0 (mod p) for every unit k mod r and every p of a
    set of primes from :func:`split_prime` whose product P exceeds twice
    bound max|R_r|: x then lies in every prime of Z[z] above p, so p
    divides x, and every reduced coordinate is a multiple of P smaller
    than P.  Row i of ``exps`` indexes elements of the family (the rows of
    H index those of H H*, the columns of H those of M H), which
    z -> z**k maps to powers of z times the elements indexed by any row
    that is k times row i once the table is dephased (:func:`unit_cosets`).
    So if those rows are closed under e -> k e for every k of a group S of
    units, the family is closed up to such powers under z -> z**k, k in S,
    and one unit of each coset of S stands for the whole coset: g alone
    when S holds every unit.  The cosets are tried in turn, up to the first
    nonzero.  A block x is tested as x == p rint(x / p), exact below 2**53.

    >>> exps = np.array([[0, 1, 2]])  # 1 + z + z**2
    >>> vanishes(lambda p, powers: [powers[exps].sum(axis=1)], exps, 3, 3)
    True
    >>> vanishes(lambda p, powers: [powers[exps].sum(axis=1)], exps, 4, 3)
    False
    """
    primes, product = [], 1
    while product <= 2 * bound * _table_max(r):
        primes.append(split_prime(r, len(primes))[0])
        product *= primes[-1]

    def zero_at(k: int) -> bool:  # up to the first nonzero
        return all(
            (x == p * np.rint(x / p)).all()
            for i, p in enumerate(primes)
            for x in residues(p, _powers(r, i)[np.arange(r + 1) * k % r])
        )

    return zero_at(1 % r) and all(map(zero_at, unit_cosets(exps, r)[1:]))


class CyclotomicInt:
    """An exact integer combination of the r-th roots of unity, equal to a
    value of the same order with the same reduced coordinates; values of
    different orders are never equal."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        order = check_order(order)
        coeffs = tuple(coeffs)
        if len(coeffs) != order:
            raise ChdError(
                f"coefficient vector has length {len(coeffs)}, expected {order}"
            )
        types = set(map(type, coeffs))
        if not integer_types(types):
            raise ChdError("coefficients must be integers")
        self.order = order
        self.coeffs = coeffs if types == {int} else tuple(map(int, coeffs))

    def reduced(self) -> tuple[int, ...]:
        """Canonical coordinates in the basis 1, z, ..., z**(phi(r)-1)."""
        return tuple(reduce(np.array(self.coeffs, dtype=object), self.order).tolist())

    def as_rational(self):
        """The value as a Fraction if it is rational, else None.

        Rationality is decided by reducing modulo the r-th cyclotomic
        polynomial: the value is rational iff every non-constant coordinate
        of the reduced form vanishes.

        >>> CyclotomicInt(5, (1, 1, 1, 1, 1)).as_rational()
        Fraction(0, 1)
        >>> CyclotomicInt(3, (0, 1, 0)).as_rational() is None
        True
        """
        rem = self.reduced()
        if any(rem[1:]):
            return None
        return Fraction(rem[0])

    def to_complex(self) -> complex:
        """Floating-point value; the cross-check oracle for the exact layer."""
        r = self.order
        return sum(
            a * cmath.exp(2j * math.pi * j / r)
            for j, a in enumerate(self.coeffs)
            if a
        ) or complex(0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.order == other.order and self.reduced() == other.reduced()

    def __hash__(self) -> int:
        return hash((self.order, self.reduced()))

    def __repr__(self) -> str:
        terms = []
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if j == 0:
                terms.append(f"{a}")
            else:
                terms.append(f"{a}*z{j}" if a != 1 else f"z{j}")
        body = " + ".join(terms) if terms else "0"
        return f"CyclotomicInt(r={self.order}: {body})"
