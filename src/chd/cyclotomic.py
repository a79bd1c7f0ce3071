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
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 1:
        raise ChdError(f"root order must be a positive integer, got {r!r}")
    if r > MAX_ORDER:
        raise ScaleError(f"root order {r} exceeds the cap of {MAX_ORDER}")
    return int(r)


def all_integers(items) -> bool:
    """Whether every item is an integer, checked once per distinct type: a
    float or bool is refused, not truncated."""
    return all(
        issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, items))
    )


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
        if not all_integers(coeffs):
            raise ChdError("coefficients must be integers")
        self.order = order
        self.coeffs = tuple(map(int, coeffs))

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
