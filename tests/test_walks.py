import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chd import (
    AbelianGroup,
    ButsonMatrix,
    ChdError,
    ExactnessError,
    PreconditionError,
    RationalAngle,
    adjacency_walk_relation,
    bipartition_from_column,
    catalogue,
    cayley,
    cayley_fr_conditions,
    certify,
    character_table,
    check_fr,
    check_pst,
    cocktail_party,
    complement,
    complete,
    cycle,
    double,
    double_cover_fr,
    empty_graph,
    evolve,
    find_fr,
    hypercube,
    merge,
    monomial_transform,
    p_partition_from_column,
    strongly_cospectral,
    sylvester_hadamard,
)


def pi_over(n):
    return RationalAngle.of_pi(1, n)


class TestRationalAngle:
    def test_canonical_form(self):
        a = RationalAngle(-1, 6)
        assert (a.num, a.den) == (5, 6)
        assert RationalAngle(7, 3) == RationalAngle(1, 3)

    def test_canonical_form_agrees_with_fraction(self):
        # 81 numerators by 50 denominators of either sign, as Python and as
        # numpy integers; the parts are Python ints, so JSON takes them
        for num in range(-40, 41):
            for den in [d for d in range(-25, 26) if d]:
                f = Fraction(num, den) % 1
                for a in (RationalAngle(num, den), RationalAngle(np.int64(num), np.int32(den))):
                    assert (a.num, a.den) == (f.numerator, f.denominator)
                    assert type(a.num) is int and type(a.den) is int

    def test_pi_constructor(self):
        assert RationalAngle.of_pi(1, 2) == RationalAngle.of_turn(1, 4)

    def test_times_and_mod_pi(self):
        a = RationalAngle.of_turn(1, 6)
        assert a.times(6) == RationalAngle(0, 1)
        assert a.times(3).equals_mod_pi(RationalAngle(0, 1))
        assert RationalAngle.of_pi(-1, 3).equals_mod_pi(RationalAngle.of_pi(2, 3))

    def test_signed_window(self):
        # -pi/3 and 2pi/3 share the representative -1/6 of a turn
        assert RationalAngle.of_pi(-1, 3).signed_turns_mod_half() == Fraction(-1, 6)
        assert RationalAngle.of_turn(1, 3).signed_turns_mod_half() == Fraction(-1, 6)
        # pi/2 maps to the closed endpoint +1/4
        assert RationalAngle.of_pi(1, 2).signed_turns_mod_half() == Fraction(1, 4)


class TestEvolve:
    def test_time_zero_is_identity(self, q3, f8, q3_spectrum):
        u = evolve(q3, f8, q3_spectrum, 0.0)
        assert np.max(np.abs(u - np.eye(8))) < 1e-12

    def test_k2_transfer_at_pi_over_2(self):
        g = complete(2)
        h = sylvester_hadamard(2)
        spec = certify(g, h)
        u = evolve(g, h, spec, math.pi / 2)
        assert abs(abs(u[1, 0]) - 1) < 1e-12

    def test_k2_closed_form(self):
        # L = [[1,-1],[-1,1]]: exp(-itL) = e^{-it} [[cos t, i sin t],[i sin t, cos t]]
        g = complete(2)
        h = sylvester_hadamard(2)
        spec = certify(g, h)
        for t in (0.3, 1.1, 2.9):
            u = evolve(g, h, spec, t)
            want = cmath.exp(-1j * t) * np.array(
                [
                    [math.cos(t), 1j * math.sin(t)],
                    [1j * math.sin(t), math.cos(t)],
                ]
            )
            assert np.max(np.abs(u - want)) < 1e-12

    def test_cocktail_revival_structure(self):
        n = 3
        g = cocktail_party(n)
        h = character_table((2 * n,))
        spec = certify(g, h)
        u = evolve(g, h, spec, math.pi / n)
        col = u[:, 0]
        # all amplitude sits on vertices 0 and n
        for v in range(2 * n):
            if v not in (0, n):
                assert abs(col[v]) < 1e-9
        assert abs(abs(col[0]) ** 2 + abs(col[n]) ** 2 - 1) < 1e-9

    def test_unitarity_and_group_law(self, q3, f8, q3_spectrum):
        rng = random.Random(1)
        for _ in range(20):
            t1 = rng.uniform(0, 2 * math.pi)
            t2 = rng.uniform(0, 2 * math.pi)
            u1 = evolve(q3, f8, q3_spectrum, t1)
            u2 = evolve(q3, f8, q3_spectrum, t2)
            u12 = evolve(q3, f8, q3_spectrum, t1 + t2)
            assert np.max(np.abs(u1 @ u1.conj().T - np.eye(8))) < 1e-9
            assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


class TestStronglyCospectral:
    def test_diagonal_pair(self, f8):
        assert strongly_cospectral(f8, 3, 3) == (1,) * 8

    def test_cube_antipodal(self, f8):
        sigma = strongly_cospectral(f8, 0, 7)
        assert sigma is not None
        for j in range(8):
            parity = bin(j).count("1") % 2
            assert sigma[j] == (1 if parity == 0 else -1)

    def test_odd_root_order_has_no_pairs(self):
        h = character_table((3,))
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert strongly_cospectral(h, a, b) is None

    def test_cocktail_antipodal_only(self):
        h = character_table((6,))
        pairs = [
            (a, b)
            for a in range(6)
            for b in range(a + 1, 6)
            if strongly_cospectral(h, a, b) is not None
        ]
        assert pairs == [(0, 3), (1, 4), (2, 5)]


class TestArgumentChecks:
    """Each entry point refuses a float or bool where an integer belongs,
    with a ChdError, rather than truncating it, reading it as a numpy mask
    or ending in a bare exception."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda q3, f8, s: strongly_cospectral(f8, 1.0, 7),  # ended in IndexError
            lambda q3, f8, s: strongly_cospectral(f8, True, 7),  # a numpy mask: None
            lambda q3, f8, s: check_fr(q3, f8, s, 1.0, 7, pi_over(2), pi_over(2)),
            lambda q3, f8, s: check_pst(q3, f8, s, 0, 7.0, pi_over(2)),
            lambda q3, f8, s: bipartition_from_column(q3, f8, s, 1.0),
            lambda q3, f8, s: bipartition_from_column(q3, f8, s, True),
            lambda q3, f8, s: p_partition_from_column(q3, f8, s, 1, 2.0),
            lambda q3, f8, s: catalogue(8.0),
            lambda q3, f8, s: RationalAngle(1.5, 4),
            lambda q3, f8, s: RationalAngle(True, 4),  # was taken as 1/4
        ],
        ids=[
            "cospectral-float", "cospectral-bool", "check-fr", "check-pst", "bipartition-float",
            "bipartition-bool", "p-partition", "catalogue", "angle-float", "angle-bool",
        ],
    )
    def test_refused(self, q3, f8, q3_spectrum, call):
        with pytest.raises(ChdError):
            call(q3, f8, q3_spectrum)

    @pytest.mark.parametrize(
        "t", [True, "1", 1j, None, math.inf, math.nan, 1e308, 10**400, Fraction(10**400, 3)]
    )
    @pytest.mark.parametrize("walk", [evolve, adjacency_walk_relation])
    def test_walk_time_must_be_a_finite_real(self, k4, f4, k4_spectrum, walk, t):
        # True was taken as 1, a string or complex ended in a TypeError,
        # 1e308 times the eigenvalue 4 overflowed every phase into NaN, and
        # an integer or Fraction past the float range ended in OverflowError
        with pytest.raises(ChdError, match="^walk time must be"):
            walk(k4, f4, k4_spectrum, t)

    def test_walk_time_may_be_any_real(self, k4, f4, k4_spectrum):
        u = evolve(k4, f4, k4_spectrum, 0.5)
        for t in (Fraction(1, 2), np.float32(0.5)):
            assert np.allclose(evolve(k4, f4, k4_spectrum, t), u)
        assert np.allclose(evolve(k4, f4, k4_spectrum, 1), evolve(k4, f4, k4_spectrum, 1.0))

    @pytest.mark.parametrize(
        "name, call",
        [
            ("tau", lambda q3, f8, s: check_pst(q3, f8, s, 0, 7, Fraction(1, 4))),
            ("tau", lambda q3, f8, s: check_fr(q3, f8, s, 0, 7, (1, 4), pi_over(2))),
            ("gamma", lambda q3, f8, s: check_fr(q3, f8, s, 0, 7, pi_over(2), 0.25)),
            ("tau", lambda q3, f8, s: cayley_fr_conditions(
                AbelianGroup((2, 2, 2)), [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (0, 0, 0), (1, 1, 1), 0.25
            )),
            ("tau", lambda q3, f8, s: double_cover_fr(
                complement(q3), q3, f8, (certify(complement(q3), f8), s), Fraction(1, 4)
            )),
        ],
        ids=["check-pst", "check-fr-tau", "check-fr-gamma", "cayley", "double-cover"],
    )
    def test_revival_angle_must_be_a_rational_angle(self, q3, f8, q3_spectrum, name, call):
        # each read .num or .times off the argument and ended in an AttributeError
        with pytest.raises(ChdError, match=f"^{name} must be a RationalAngle, got "):
            call(q3, f8, q3_spectrum)

    @pytest.mark.parametrize("caller", ["certify", "strongly_cospectral", "find_fr"])
    def test_one_wording_for_the_matrix_precondition(self, q3, f8, q3_spectrum, caller):
        call = {
            "certify": lambda h: certify(q3, h),
            "strongly_cospectral": lambda h: strongly_cospectral(h, 0, 7),
            "find_fr": lambda h: find_fr(q3, h, q3_spectrum),
        }[caller]
        skew = monomial_transform(f8, range(8), range(8), [1] + [0] * 7, [0] * 8)
        with pytest.raises(PreconditionError, match=f"^{caller} requires a dephased matrix; dephase first$"):
            call(skew)
        flat = ButsonMatrix([[0] * 8] * 8, 2)
        with pytest.raises(PreconditionError, match=f"^{caller} requires a verified Hadamard matrix$"):
            call(flat)


class TestCheckFr:
    def test_cocktail_true_phase(self):
        # at time pi/n the revival phase is +pi/n (verified against the
        # unitary itself in TestFindFr/cross-validation)
        for n in range(3, 7):
            g = cocktail_party(n)
            h = character_table((2 * n,))
            spec = certify(g, h)
            assert check_fr(g, h, spec, 0, n, pi_over(n), pi_over(n))
            assert not check_fr(g, h, spec, 0, n, pi_over(n), RationalAngle.of_pi(-1, n))

    def test_double_cover_of_kn(self):
        for n in range(3, 7):
            g = merge(empty_graph(n), complete(n), 1, 1)
            h = double(character_table((n,)))
            spec = certify(g, h)
            tau = RationalAngle.of_turn(1, n)
            gamma = RationalAngle.of_turn(1, n)
            assert check_fr(g, h, spec, 0, n, tau, gamma)

    def test_tau_zero_is_never_fr(self, q3, f8, q3_spectrum):
        zero = RationalAngle(0, 1)
        for gamma in (pi_over(2), pi_over(3)):
            assert not check_fr(q3, f8, q3_spectrum, 0, 7, zero, gamma)

    def test_relabel_symmetry(self, q3, f8, q3_spectrum):
        tau, gamma = pi_over(2), pi_over(2)
        assert check_fr(q3, f8, q3_spectrum, 0, 7, tau, gamma) == check_fr(
            q3, f8, q3_spectrum, 7, 0, tau, gamma
        )

    def test_irrational_spectrum_rejected(self):
        g = cycle(5)
        h = character_table((5,))
        spec = certify(g, h)
        with pytest.raises(ExactnessError):
            check_fr(g, h, spec, 0, 1, pi_over(2), pi_over(2))


class TestCheckPst:
    def test_k2(self):
        g = complete(2)
        h = sylvester_hadamard(2)
        spec = certify(g, h)
        assert check_pst(g, h, spec, 0, 1, pi_over(2))

    def test_cube_antipodal(self, q3, f8, q3_spectrum):
        assert check_pst(q3, f8, q3_spectrum, 0, 7, pi_over(2))
        assert not check_pst(q3, f8, q3_spectrum, 0, 3, pi_over(2))

    def test_double_cover_of_cube(self, q3, f8):
        g1 = complement(q3)
        g = merge(g1, q3, 1, 1)
        h = double(f8)
        spec = certify(g, h)
        assert check_pst(g, h, spec, 0, 8, pi_over(2))

    def test_pst_symmetry_and_periodicity(self, q3, f8, q3_spectrum):
        assert check_pst(q3, f8, q3_spectrum, 7, 0, pi_over(2))
        u = evolve(q3, f8, q3_spectrum, math.pi)
        phase = u[0, 0]
        assert abs(abs(phase) - 1) < 1e-9
        assert np.max(np.abs(u[:, 0] - phase * np.eye(8)[:, 0])) < 1e-9


class TestFindFr:
    def test_cocktail_certificates(self):
        for n in (3, 4):
            g = cocktail_party(n)
            h = character_table((2 * n,))
            spec = certify(g, h)
            certs = find_fr(g, h, spec)
            assert certs, "expected revival certificates"
            hits = [
                c
                for c in certs
                if (c.a, c.b) == (0, n) and c.tau == pi_over(n)
            ]
            assert len(hits) == 1
            assert hits[0].gamma.equals_mod_pi(pi_over(n))
            # every certificate satisfies the exact checker too
            for c in certs:
                assert check_fr(g, h, spec, c.a, c.b, c.tau, c.gamma)

    def test_k3_empty(self):
        g = complete(3)
        h = character_table((3,))
        spec = certify(g, h)
        assert find_fr(g, h, spec) == []

    def test_cube_pst_certificate(self, q3, f8, q3_spectrum):
        certs = find_fr(q3, f8, q3_spectrum)
        pst = [
            c
            for c in certs
            if (c.a, c.b) == (0, 7) and c.tau == pi_over(2) and c.is_pst
        ]
        assert len(pst) == 1
        assert pst[0].gamma_signed() == Fraction(1, 4)
        # only antipodal pairs admit revival on the cube
        assert {(c.a, c.b) for c in certs} == {(0, 7), (1, 6), (2, 5), (3, 4)}

    def test_alpha_beta_identities(self):
        g = cocktail_party(3)
        h = character_table((6,))
        spec = certify(g, h)
        for c in find_fr(g, h, spec):
            assert abs(c.alpha + c.beta - 1) < 1e-12
            g_signed = 2 * math.pi * float(c.gamma_signed())
            assert abs((c.alpha - c.beta) - cmath.exp(2j * g_signed)) < 1e-12
            assert abs(c.beta) > 1e-12
            assert abs(abs(c.alpha) ** 2 + abs(c.beta) ** 2 - 1) < 1e-12

    def test_emitted_pairs_are_strongly_cospectral_with_integer_spectrum(self):
        g = cocktail_party(4)
        h = character_table((8,))
        spec = certify(g, h)
        for c in find_fr(g, h, spec):
            assert strongly_cospectral(h, c.a, c.b) is not None
        assert spec.integers()

    def test_deterministic_order(self):
        g = cocktail_party(3)
        h = character_table((6,))
        spec = certify(g, h)
        once = [(c.a, c.b, c.tau.den, c.tau.num) for c in find_fr(g, h, spec)]
        again = [(c.a, c.b, c.tau.den, c.tau.num) for c in find_fr(g, h, spec)]
        assert once == again
        assert once == sorted(once)


class TestMismatchedOrders:
    """The graph, the matrix and the spectrum must have one order; zip would
    otherwise stop at the shortest and decide on a part of the spectrum."""

    @pytest.fixture
    def k2_spectrum(self):
        return certify(complete(2), sylvester_hadamard(2))

    def test_check_pst_with_a_smaller_spectrum(self, q3, f8, k2_spectrum):
        # Q3 has no PST between neighbours; the first two columns alone say yes
        with pytest.raises(ChdError, match="orders must agree"):
            check_pst(q3, f8, k2_spectrum, 0, 1, pi_over(2))

    def test_find_fr_with_a_smaller_spectrum(self, q3, f8, k2_spectrum):
        with pytest.raises(ChdError, match="orders must agree"):
            find_fr(q3, f8, k2_spectrum)

    def test_find_fr_with_a_smaller_graph(self, f8, q3_spectrum):
        with pytest.raises(ChdError, match="orders must agree"):
            find_fr(complete(2), f8, q3_spectrum)

    def test_double_cover_with_a_larger_matrix(self, f8):
        # the layers and spectra agree, but H is not theirs; tau = 1/3 of a
        # turn passes no congruence, so no check on the built cover runs
        g1, g2, h = empty_graph(4), complete(4), character_table((4,))
        spectra = (certify(g1, h), certify(g2, h))
        with pytest.raises(ChdError, match="orders must agree"):
            double_cover_fr(g1, g2, f8, spectra, RationalAngle.of_turn(1, 3))


class TestCayleyFrConditions:
    def test_cube_order_two_difference(self):
        group = AbelianGroup((2, 2, 2))
        conn = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert cayley_fr_conditions(group, conn, (0, 0, 0), (1, 1, 1), pi_over(2))

    def test_z6_order_three_difference_fails(self):
        group = AbelianGroup((6,))
        conn = [(c,) for c in range(1, 6) if c != 3]
        assert not cayley_fr_conditions(group, conn, (0,), (2,), pi_over(3))

    def test_cocktail_agrees_with_check_fr(self):
        for n in (3, 5):
            group = AbelianGroup((2 * n,))
            conn = [(c,) for c in range(1, 2 * n) if c != n]
            got = cayley_fr_conditions(group, conn, (0,), (n,), pi_over(n))
            g = cocktail_party(n)
            h = character_table((2 * n,))
            spec = certify(g, h)
            want = check_fr(g, h, spec, 0, n, pi_over(n), pi_over(n))
            assert got == want


class TestDoubleCoverFr:
    def test_kn_example(self):
        for n in (3, 4, 5, 6):
            g1, g2 = empty_graph(n), complete(n)
            h = character_table((n,))
            s1, s2 = certify(g1, h), certify(g2, h)
            tau = RationalAngle.of_turn(1, n)
            gamma = double_cover_fr(g1, g2, h, (s1, s2), tau)
            assert gamma is not None
            assert gamma.equals_mod_pi(RationalAngle.of_turn(1, n))
            # cross-check against the direct test on the built cover
            cover = merge(g1, g2, 1, 1)
            hh = double(h)
            spec = certify(cover, hh)
            assert check_fr(cover, hh, spec, 0, n, tau, gamma)

    def test_cube_double_cover_pst(self, q3, f8):
        g1 = complement(q3)
        s1, s2 = certify(g1, f8), certify(q3, f8)
        gamma = double_cover_fr(g1, q3, f8, (s1, s2), pi_over(2))
        assert gamma is not None
        assert gamma.signed_turns_mod_half() == Fraction(1, 4)  # pst

    def test_congruence_failure_returns_none(self, q3, f8):
        g1 = complement(q3)
        s1, s2 = certify(g1, f8), certify(q3, f8)
        assert double_cover_fr(g1, q3, f8, (s1, s2), RationalAngle.of_turn(1, 3)) is None


class TestAdjacencyWalkRelation:
    def test_time_zero(self, k4, f4, k4_spectrum):
        assert adjacency_walk_relation(k4, f4, k4_spectrum, 0.0)

    def test_k4_at_pi_over_3(self, k4, f4, k4_spectrum):
        assert adjacency_walk_relation(k4, f4, k4_spectrum, math.pi / 3)

    def test_cube_random_times(self, q3, f8, q3_spectrum):
        rng = random.Random(3)
        for _ in range(100):
            t = rng.uniform(0, 2 * math.pi)
            assert adjacency_walk_relation(q3, f8, q3_spectrum, t)

    @pytest.mark.parametrize("order", [2, 4])
    def test_order_mismatch_rejected(self, k4, order):
        # the matrix of order 2 matched the spectrum, and that of order 4
        # the graph; neither may pass
        k2_spectrum = certify(complete(2), sylvester_hadamard(2))
        with pytest.raises(ChdError, match="orders must agree"):
            adjacency_walk_relation(k4, sylvester_hadamard(order), k2_spectrum, 0.3)
