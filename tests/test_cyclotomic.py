import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chd import ChdError, CyclotomicInt, OrderMismatchError, root_of_unity
from chd.cyclotomic import cyclotomic_polynomial


def zeta(r, k=1):
    return root_of_unity(r, k)


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
        assert zeta(4, 2).coeffs == (0, 0, 1, 0)

    def test_order_one(self):
        assert root_of_unity(1, 0).coeffs == (1,)

    def test_exponent_reduced_mod_r(self):
        assert root_of_unity(4, 6).coeffs == (0, 0, 1, 0)

    def test_zero_order_rejected(self):
        with pytest.raises(ChdError):
            root_of_unity(0, 0)


class TestArithmetic:
    def test_i_times_minus_i(self):
        assert zeta(4, 1) * zeta(4, 3) == CyclotomicInt.integer(4, 1)

    def test_i_plus_minus_i_is_zero(self):
        s = zeta(4, 1) + zeta(4, 3)
        assert s.coeffs == (0, 1, 0, 1)
        assert s.is_zero()

    def test_golden_product_order5(self):
        # (1 + z)(1 + z^4) = 1 + z + z^4 + z^5 = 2 + z + z^4, expanded by hand
        x = CyclotomicInt.integer(5, 1) + zeta(5, 1)
        y = CyclotomicInt.integer(5, 1) + zeta(5, 4)
        expected = CyclotomicInt(5, (2, 1, 0, 0, 1))
        assert x * y == expected
        # float oracle
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-12

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            zeta(4) * zeta(5)
        with pytest.raises(OrderMismatchError):
            zeta(4) + zeta(8)


class TestConjugate:
    def test_conj_i(self):
        assert zeta(4, 1).conjugate() == zeta(4, 3)

    def test_rational_self_conjugate(self):
        x = CyclotomicInt.integer(7, 5)
        assert x.conjugate() == x

    def test_involution_on_random_values(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            r = rng.randint(1, 12)
            x = CyclotomicInt(r, [rng.randint(-9, 9) for _ in range(r)])
            assert x.conjugate().conjugate() == x


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
        x = CyclotomicInt.integer(2, 1) + zeta(2, 1)
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
    coeffs = draw(
        st.lists(st.integers(-50, 50), min_size=r, max_size=r)
    )
    return CyclotomicInt(r, coeffs)


@st.composite
def cyclo_triples(draw):
    r = draw(small_order)
    return tuple(draw(cyclo_values(order=r)) for _ in range(3))


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_associativity_and_distributivity(self, triple):
        x, y, z = triple
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_commutativity_and_neg(self, triple):
        x, y, _ = triple
        assert x + y == y + x
        assert x * y == y * x
        assert (x - y) + y == x

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_to_complex_is_a_homomorphism(self, triple):
        x, y, _ = triple
        scale = 1 + max(1, *(abs(c) for c in x.coeffs), *(abs(c) for c in y.coeffs))
        assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-9 * scale
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-7 * scale * scale

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_conjugation_is_a_ring_map(self, triple):
        x, y, _ = triple
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
