"""Differential tests: the table-driven reduction, verify and certify
against the loop kernels kept in ``oracles``."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chd import (
    AbelianGroup,
    ButsonMatrix,
    ChdError,
    CyclotomicInt,
    ScaleError,
    WeightedGraph,
    cayley,
    certify,
    character_table,
    double,
    merge,
    root_of_unity,
    verify,
)
from chd.cyclotomic import MAX_ORDER, cyclotomic_polynomial, reduce, reduction_table

ORDERS = range(1, 211)


class TestReductionTable:
    def test_phi_matches_recursive_division(self):
        for r in ORDERS:
            assert cyclotomic_polynomial(r) == oracles.cyclotomic_polynomial(r)

    def test_every_row_is_the_long_division_remainder(self):
        for r in range(1, 65):
            table = reduction_table(r).tolist()
            for e in range(r):
                unit = [0] * r
                unit[e] = 1
                assert tuple(table[e]) == oracles.reduce(unit, r)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**32))
    def test_table_reduces_like_long_division(self, seed):
        # reduction is linear, so a random vector per order checks the table
        rng = random.Random(seed)
        for r in ORDERS:
            coeffs = [rng.randint(-(10**6), 10**6) for _ in range(r)]
            got = reduce(np.array(coeffs, dtype=np.int64), r)
            assert tuple(got.tolist()) == oracles.reduce(coeffs, r)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 210), st.data())
    def test_rows_match_long_division(self, r, data):
        e = data.draw(st.integers(0, r - 1))
        unit = [0] * r
        unit[e] = 1
        assert tuple(reduction_table(r)[e].tolist()) == oracles.reduce(unit, r)

    def test_huge_coefficients_take_the_exact_path(self):
        rng = random.Random(3)
        for r in (5, 12, 64, 210):
            coeffs = [rng.randint(-(2**70), 2**70) for _ in range(r)]
            x = CyclotomicInt(r, coeffs)
            assert x.reduced() == oracles.reduce(coeffs, r)

    def test_root_order_cap(self):
        assert reduction_table(MAX_ORDER).shape == (MAX_ORDER, MAX_ORDER // 2)
        for make in (
            lambda: cyclotomic_polynomial(MAX_ORDER + 1),
            lambda: root_of_unity(MAX_ORDER + 1, 1),
            lambda: CyclotomicInt.zero(60000),
            lambda: ButsonMatrix([[0]], MAX_ORDER + 1),
        ):
            with pytest.raises(ScaleError):
                make()

    @pytest.mark.parametrize("r", [0, -3, 2.0, True, "4"])
    def test_bad_root_order_rejected(self, r):
        with pytest.raises(ChdError):
            ButsonMatrix([[0]], r)


def _connection(draw, group):
    orbits = []
    for el in group.elements()[1:]:
        orbit = frozenset({el, group.neg(el)})
        if orbit not in orbits:
            orbits.append(orbit)
    chosen = draw(st.lists(st.sampled_from(orbits), unique=True, max_size=6))
    return [el for orbit in chosen for el in orbit]


@st.composite
def cayley_pairs(draw):
    """A Cayley graph over Z_r^d (r <= 8, d <= 3, at most 64 vertices) and
    its character table."""
    r = draw(st.integers(2, 8))
    d = draw(st.integers(1, 3))
    if r**d > 64:
        d = 2 if r * r <= 64 else 1
    moduli = (r,) * d
    group = AbelianGroup(moduli)
    return cayley(group, _connection(draw, group)), character_table(moduli), group


def _same_certificate(g, h, target="laplacian"):
    new = certify(g, h, target)
    old = oracles.certify(g, h, target)
    if old is None:
        assert new is None
        return None
    assert new is not None
    assert [(e.cyclo.coeffs, e.scale, e.rational) for e in new.entries] == old
    return new


class TestCertifyAgainstLoop:
    @settings(max_examples=25, deadline=None)
    @given(cayley_pairs(), st.sampled_from(["laplacian", "adjacency"]))
    def test_cayley_graphs(self, pair, target):
        g, h, _ = pair
        assert _same_certificate(g, h, target) is not None

    @settings(max_examples=25, deadline=None)
    @given(cayley_pairs(), st.randoms(use_true_random=False))
    def test_relabelings(self, pair, rng):
        g, h, _ = pair
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = WeightedGraph.from_edges(
            g.n, [(perm[u], perm[v], w) for u, v, w in g.edges()]
        )
        _same_certificate(relabeled, h)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([(2, 2), (4,), (2, 4), (4, 4), (3, 3)]),
        st.data(),
        st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=9),
        st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=9),
    )
    def test_rational_merges(self, moduli, data, w1, w2):
        group = AbelianGroup(moduli)
        g1 = cayley(group, _connection(data.draw, group))
        g2 = cayley(group, _connection(data.draw, group))
        g = merge(g1, g2, w1, w2)
        assert _same_certificate(g, double(character_table(moduli))) is not None

    @pytest.mark.parametrize("bits", [41, 61])
    def test_int64_and_object_paths(self, bits):
        # at 2**41 the weights stay int64; at 2**61 n * max exceeds 2**62,
        # so storage and reduction switch to Python integers
        z44 = AbelianGroup((4, 4))
        g = merge(
            cayley(z44, [(1, 0), (3, 0), (0, 1), (0, 3)]),
            cayley(z44, [(1, 1), (3, 3), (2, 0)]),
            Fraction(2**bits + 1, 5),
            Fraction(2**bits - 1, 7),
        )
        assert g.scale == 35
        assert max(g.matrix.flat) > 2**bits
        assert g.matrix.dtype == (np.int64 if bits == 41 else object)
        spec = _same_certificate(g, double(character_table((4, 4))))
        assert spec is not None
        assert WeightedGraph.from_json(g.to_json()) == g
        assert hash(WeightedGraph.from_json(g.to_json())) == hash(g)


@st.composite
def corrupted_tables(draw):
    moduli = draw(
        st.sampled_from([(2, 2, 2), (4,), (6,), (3, 3), (8,), (2, 4), (5,), (12,)])
    )
    h = character_table(moduli)
    exps = h.exps.copy()
    i = draw(st.integers(1, h.n - 1))
    j = draw(st.integers(1, h.n - 1))
    kind = draw(st.sampled_from(["none", "entry", "row"]))
    if kind == "entry":
        exps[i, j] = (exps[i, j] + draw(st.integers(1, h.r - 1))) % h.r
    elif kind == "row" and i != j:
        # still orthogonal to row 0, but rows i and j now agree
        exps[j] = exps[i]
    return exps, h.r


class TestVerifyAgainstPairwise:
    @settings(max_examples=60, deadline=None)
    @given(corrupted_tables())
    def test_corruptions(self, table):
        exps, r = table
        assert verify(ButsonMatrix(exps, r)) == oracles.verify(exps.tolist(), r)


class TestExponentValidation:
    @pytest.mark.parametrize("bad", [1.6, True, "1", np.True_, np.float64(1.0)])
    def test_non_integer_exponents_rejected(self, bad):
        with pytest.raises(ChdError):
            ButsonMatrix([[0, 0], [0, bad]], 2)

    def test_numpy_integers_accepted(self):
        h = ButsonMatrix([[np.int32(0), 0], [0, np.int64(3)]], 2)
        assert h.exps.tolist() == [[0, 0], [0, 1]]
        assert verify(h)

    def test_ragged_table_rejected(self):
        with pytest.raises(ChdError):
            ButsonMatrix([[0, 0], [0]], 2)


class TestWeightValidation:
    @pytest.mark.parametrize("weight", [True, 1.0, None])
    def test_non_rational_weight_rejected(self, weight):
        with pytest.raises(ChdError):
            WeightedGraph.from_edges(2, [(0, 1, weight)])

    def test_storage_is_canonical(self):
        a = WeightedGraph.from_edges(3, [(0, 1, "2/4"), (1, 2, 1)])
        b = WeightedGraph([[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 1], [0, 1, 0]])
        assert a == b and hash(a) == hash(b)
        assert a.scale == 2 and a.matrix.tolist() == [[0, 1, 0], [1, 0, 2], [0, 2, 0]]
        assert [w for _, _, w in a.edges()] == [Fraction(1, 2), Fraction(1)]
