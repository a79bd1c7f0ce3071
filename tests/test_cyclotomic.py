"""The value type ``CyclotomicInt`` and the one ring kernel ``reduce``.

Ring arithmetic on coefficient vectors comes from ``oracles``; the tests
check that ``reduce`` (through ``CyclotomicInt`` equality) is a ring map
from Z[x]/(x**r - 1) onto Z[z], z = exp(2*pi*i/r)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chd import ChdError, CyclotomicInt, graphs
from chd.cyclotomic import MAX_ORDER, cyclotomic_polynomial, reduce, split_prime

add, mul, conj = oracles.ring_add, oracles.ring_multiply, oracles.ring_conjugate


def unit(r, k=1):
    """The coefficient vector of z**k in the order-r ring."""
    out = [0] * r
    out[k % r] = 1
    return out


def zeta(r, k=1):
    return CyclotomicInt(r, unit(r, k))


def value(x):
    return CyclotomicInt(len(x), x)


def lift(x):
    """Another representative of x: its reduced coordinates, padded to r."""
    rem = list(value(x).reduced())
    return rem + [0] * (len(x) - len(rem))


class TestCyclotomicPolynomials:
    def test_small_table(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_euler_phi(self):
        for r in range(1, 30):
            phi = sum(1 for k in range(1, r + 1) if math.gcd(k, r) == 1)
            assert len(cyclotomic_polynomial(r)) - 1 == phi

    def test_product_over_divisors_is_x_r_minus_1(self):
        # independent reconstruction: multiply Phi_d over all d | r
        for r in (6, 10, 12):
            prod = [1]
            for d in range(1, r + 1):
                if r % d == 0:
                    phi = cyclotomic_polynomial(d)
                    new = [0] * (len(prod) + len(phi) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi):
                            new[i + j] += a * b
                    prod = new
            assert prod == [-1] + [0] * (r - 1) + [1]


class TestRootOfUnity:
    def test_basis_vector(self):
        # z**2 = -1 at r = 4
        assert reduce(np.array(unit(4, 2)), 4).tolist() == [-1, 0]
        assert zeta(4, 2) == CyclotomicInt(4, (-1, 0, 0, 0))

    def test_order_one(self):
        assert zeta(1, 0).reduced() == (1,)

    def test_exponent_reduced_mod_r(self):
        # reduce takes exponents mod r: z**6 = z**2 = -1 at r = 4
        assert reduce(np.array([1]), 4, np.array([[6]])).tolist() == [[-1, 0]]

    def test_zero_order_rejected(self):
        with pytest.raises(ChdError):
            CyclotomicInt(0, ())


class TestConstructor:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [1.6, 0, 0, True],
            [1, 0, 0, True],
            [1.0, 0, 0, 0],
            ["1", 0, 0, 0],
            [None, 0, 0, 0],
            *([1, 2, np.int64(3), bad] for bad in (True, 1.0, "1", np.float64(1))),
        ],
    )
    def test_non_integer_coefficients_rejected(self, coeffs):
        # refused, not truncated to an integer or read as 1
        with pytest.raises(ChdError, match="coefficients must be integers"):
            CyclotomicInt(4, coeffs)

    def test_numpy_integers_are_stored_as_python_integers(self):
        x = CyclotomicInt(3, np.array([1, -2, 0]))
        assert [type(c) for c in x.coeffs] == [int] * 3
        assert repr(x) == "CyclotomicInt(r=3: 1 + -2*z1)"
        # only a vector of Python ints alone is kept as given
        for coeffs in ([np.int64(1), -2, 0], [1, np.int8(-2), 0], [1, -2, np.uint64(0)]):
            x = CyclotomicInt(3, coeffs)
            assert [type(c) for c in x.coeffs] == [int] * 3 and x.coeffs == (1, -2, 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ChdError, match="expected 4"):
            CyclotomicInt(4, (1, 2, 3))


class TestArithmetic:
    def test_i_times_minus_i(self):
        assert value(mul(unit(4, 1), unit(4, 3))) == zeta(4, 0)

    def test_i_plus_minus_i_is_zero(self):
        s = add(unit(4, 1), unit(4, 3))
        assert s == [0, 1, 0, 1]
        assert not any(value(s).reduced())

    def test_golden_product_order5(self):
        # (1 + z)(1 + z^4) = 1 + z + z^4 + z^5 = 2 + z + z^4, expanded by hand
        x = add(unit(5, 0), unit(5, 1))
        y = add(unit(5, 0), unit(5, 4))
        assert mul(x, y) == [2, 1, 0, 0, 1]
        assert value(mul(x, y)) == CyclotomicInt(5, (2, 1, 0, 0, 1))
        # float oracle
        assert abs(value(mul(x, y)).to_complex() - value(x).to_complex() * value(y).to_complex()) < 1e-12

    def test_different_orders_are_unequal(self):
        # i at r = 4 and at r = 8: no embedding between rings, and no error
        assert zeta(4, 1) != zeta(8, 2)
        assert CyclotomicInt(1, (1,)) != CyclotomicInt(2, (1, 0))

    def test_equal_values_compare_and_hash_equal(self):
        full, zero = CyclotomicInt(5, (1, 1, 1, 1, 1)), CyclotomicInt(5, (0,) * 5)
        assert full.coeffs != zero.coeffs
        assert full == zero and hash(full) == hash(zero)
        assert len({full, zero}) == 1


class TestConjugate:
    def test_conj_i(self):
        assert value(conj(unit(4, 1))) == zeta(4, 3)

    def test_rational_self_conjugate(self):
        x = [5] + [0] * 6
        assert value(conj(x)) == value(x)

    def test_involution_on_random_values(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            r = rng.randint(1, 12)
            x = [rng.randint(-9, 9) for _ in range(r)]
            assert value(conj(conj(x))) == value(x)


class TestAsRational:
    def test_full_root_sum_vanishes(self):
        s = CyclotomicInt(5, (1, 1, 1, 1, 1))
        assert s.as_rational() == 0

    def test_power_of_two_folding(self):
        # a0 + a1 z + a1 z^5 over r=8 collapses to a0 since z^5 = -z
        for a0, a1 in [(3, 2), (0, 7), (-4, -4)]:
            x = CyclotomicInt(8, (a0, a1, 0, 0, 0, a1, 0, 0))
            assert x.as_rational() == Fraction(a0)

    def test_primitive_root_is_irrational(self):
        assert zeta(3).as_rational() is None

    def test_prime_order_equal_tail_is_rational(self):
        # for prime r, equal coefficients on z..z^{r-1} force rationality
        for r in (3, 5, 7, 11):
            x = CyclotomicInt(r, (4,) + (2,) * (r - 1))
            assert x.as_rational() == 4 - 2

    def test_power_of_two_half_shift_pattern(self):
        # r = 2^m with a_j = a_{r/2+j} for j >= 1 is always rational
        import random

        rng = random.Random(3)
        for r in (4, 8, 16):
            for _ in range(20):
                half = [rng.randint(-5, 5) for _ in range(r // 2)]
                coeffs = [rng.randint(-5, 5)] + half[1:] + [rng.randint(-5, 5)] + half[1:]
                x = CyclotomicInt(r, coeffs)
                assert x.as_rational() is not None


class TestToComplex:
    def test_i(self):
        assert abs(zeta(4).to_complex() - 1j) < 1e-12

    def test_one_plus_minus_one(self):
        x = value(add(unit(2, 0), unit(2, 1)))
        assert abs(x.to_complex()) < 1e-12

    def test_agrees_with_as_rational(self):
        import random

        rng = random.Random(11)
        for _ in range(200):
            r = rng.randint(1, 12)
            x = CyclotomicInt(r, [rng.randint(-9, 9) for _ in range(r)])
            rat = x.as_rational()
            if rat is not None:
                assert abs(x.to_complex() - float(rat)) < 1e-9


small_order = st.integers(min_value=1, max_value=10)


@st.composite
def cyclo_values(draw, order=None):
    r = order if order is not None else draw(small_order)
    return draw(st.lists(st.integers(-50, 50), min_size=r, max_size=r))


@st.composite
def cyclo_triples(draw):
    r = draw(small_order)
    return tuple(draw(cyclo_values(order=r)) for _ in range(3))


class TestRingLaws:
    # each law compares two different representatives, one side carrying
    # a factor replaced by its reduced lift, so it holds only if reduce is
    # a ring map
    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_associativity_and_distributivity(self, triple):
        x, y, z = triple
        assert value(mul(lift(mul(x, y)), z)) == value(mul(x, lift(mul(y, z))))
        assert value(mul(x, lift(add(y, z)))) == value(add(lift(mul(x, y)), mul(x, z)))
        assert value(add(lift(add(x, y)), z)) == value(add(x, lift(add(y, z))))

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_commutativity_and_neg(self, triple):
        x, y, _ = triple
        neg_y = [-b for b in y]
        assert value(add(x, y)) == value(add(lift(y), lift(x)))
        assert value(mul(x, y)) == value(mul(lift(y), lift(x)))
        assert value(add(lift(add(x, neg_y)), y)) == value(x)

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_to_complex_is_a_homomorphism(self, triple):
        x, y, _ = triple
        vx, vy = value(x), value(y)
        scale = 1 + max(1, *(abs(c) for c in x), *(abs(c) for c in y))
        assert abs(value(add(x, y)).to_complex() - (vx.to_complex() + vy.to_complex())) < 1e-9 * scale
        assert abs(value(mul(x, y)).to_complex() - vx.to_complex() * vy.to_complex()) < 1e-7 * scale * scale

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_conjugation_is_a_ring_map(self, triple):
        x, y, _ = triple
        assert value(conj(lift(mul(x, y)))) == value(mul(conj(x), conj(lift(y))))
        assert value(conj(lift(add(x, y)))) == value(add(conj(lift(x)), conj(y)))


def test_caps_keep_the_exactness_bounds():
    # verify and certify are exact in float64 only while
    # (MAX_VERTICES + 1) (p - 1)**2 < 2**53 for their split primes p, and
    # exponent rows are compared as uint16 only while MAX_ORDER < 2**16
    for r in (1, 2, 3, 4, 128, 935, 1021, 1024):
        assert (graphs.MAX_VERTICES + 1) * (split_prime(r)[0] - 1) ** 2 < 2**53
    assert MAX_ORDER < 2**16
