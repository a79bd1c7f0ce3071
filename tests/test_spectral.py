import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chd import (
    ChdError,
    ExactnessError,
    PreconditionError,
    ScaleError,
    WeightedGraph,
    certify,
    character_table,
    cheeger,
    cheeger_inequality_audit,
    complete,
    complete_bipartite,
    cycle,
    exact_rational_spectrum,
    graph_union,
    hypercube,
    min_edge_density,
    sylvester_hadamard,
    tightness_check,
)
from chd import spectral
from chd.spectral import cheeger_value_of


def naive_cheeger(g):
    """Independent oracle: full enumeration of all nonempty proper subsets."""
    best = None
    total = sum(g.degrees(), Fraction(0))
    for size in range(1, g.n):
        for subset in combinations(range(g.n), size):
            sset = set(subset)
            cut = Fraction(0)
            for u, v, w in g.edges():
                if (u in sset) != (v in sset):
                    cut += w
            vol = sum((g.degree(u) for u in subset), Fraction(0))
            denom = min(vol, total - vol)
            if denom == 0:
                continue
            val = cut / denom
            if best is None or val < best:
                best = val
    return best


def naive_min_density(g):
    best = None
    for size in range(1, g.n):
        for subset in combinations(range(g.n), size):
            sset = set(subset)
            cut = Fraction(0)
            for u, v, w in g.edges():
                if (u in sset) != (v in sset):
                    cut += w
            val = Fraction(g.n) * cut / (size * (g.n - size))
            if best is None or val < best:
                best = val
    return best


class TestCheeger:
    def test_single_edge(self):
        h, report = cheeger(complete(2))
        assert h == 1
        assert report.cut_weight == 1

    def test_cycle4(self):
        h, _ = cheeger(cycle(4))
        assert h == Fraction(1, 2)

    def test_cube(self):
        h, report = cheeger(hypercube(3))
        assert h == Fraction(1, 3)
        assert len(report.subset) == 4  # a coordinate half-cube

    def test_disconnected(self):
        g = graph_union(complete(3), complete(3))
        h, report = cheeger(g)
        assert h == 0
        assert report.cut_weight == 0
        assert set(report.subset) == {0, 1, 2}

    def test_matches_naive_oracle_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(12):
            n = rng.randint(3, 7)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                        rows[u][v] = rows[v][u] = w
            g = WeightedGraph(rows)
            if not g.is_connected():
                continue
            h, report = cheeger(g)
            assert h == naive_cheeger(g)
            assert cheeger_value_of(g, report.subset) == h

    def test_scale_guard(self):
        g = WeightedGraph([[Fraction(0)] * 25 for _ in range(25)])
        with pytest.raises(ScaleError):
            cheeger(g)

    @pytest.mark.parametrize("bits", [54, 57])
    def test_cut_overflow_raises(self, bits):
        # K_20 stores these weights in int64, but n * sum(deg) passes 2**62
        g = WeightedGraph.from_edges(
            20, [(u, v, 2**bits) for u in range(20) for v in range(u + 1, 20)]
        )
        assert g.matrix.dtype == np.int64
        for fn in (cheeger, min_edge_density):
            with pytest.raises(ScaleError):
                fn(g)


class TestMinEdgeDensity:
    def test_complete_graph_is_constant_n(self):
        for n in (3, 5, 8):
            val, _ = min_edge_density(complete(n))
            assert val == n

    def test_cube(self):
        val, _ = min_edge_density(hypercube(3))
        assert val == 2  # equals the second Laplacian eigenvalue

    def test_star(self):
        val, _ = min_edge_density(complete_bipartite(1, 3))
        assert val == Fraction(4, 3)
        # the hypothesis of the tightness result fails here, and indeed the
        # minimum density exceeds the algebraic connectivity 1
        assert val > 1

    def test_matches_naive_oracle(self):
        rng = random.Random(5)
        for _ in range(8):
            n = rng.randint(3, 7)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            g = WeightedGraph.from_edges(n, edges)
            val, _ = min_edge_density(g)
            assert val == naive_min_density(g)


class TestTightness:
    def test_cubes(self):
        for d in (2, 3, 4):
            g = hypercube(d)
            h = sylvester_hadamard(2**d)
            spec = certify(g, h)
            assert tightness_check(g, h, spec)

    def test_k4(self, k4, f4, k4_spectrum):
        assert tightness_check(k4, f4, k4_spectrum)
        h, _ = cheeger(k4)
        assert h == Fraction(2, 3)  # gamma_2 / 2 = (4/3)/2

    def test_precondition_rejected_for_butson_matrix(self):
        g = complete(3)
        h = character_table((3,))
        spec = certify(g, h)
        with pytest.raises(PreconditionError):
            tightness_check(g, h, spec)

    def test_density_equals_lambda2_for_tight_graphs(self):
        for g, h in [
            (hypercube(3), sylvester_hadamard(8)),
            (complete(4), sylvester_hadamard(4)),
            (complete_bipartite(4, 4), sylvester_hadamard(8)),
        ]:
            spec = certify(g, h)
            assert spec is not None
            val, _ = min_edge_density(g)
            assert val == spec.second_smallest()


class TestCheegerInequality:
    def test_cycle4(self):
        g = cycle(4)
        spec = certify(g, character_table((4,)))
        audit = cheeger_inequality_audit(g, spec)
        assert audit["h"] == Fraction(1, 2)
        assert audit["gamma2"] == 1
        assert audit["lower_ok"] and audit["upper_ok"]

    def test_q4(self):
        g = hypercube(4)
        spec = certify(g, sylvester_hadamard(16))
        audit = cheeger_inequality_audit(g, spec)
        assert audit["h"] == Fraction(1, 4)
        assert audit["gamma2"] == Fraction(1, 2)
        assert audit["lower_ok"] and audit["upper_ok"]

    def test_without_certificate_uses_char_poly(self):
        g = complete(5)
        audit = cheeger_inequality_audit(g)
        assert audit["gamma2"] == Fraction(5, 4)
        assert audit["lower_ok"] and audit["upper_ok"]

    @pytest.mark.parametrize("d", [5, 6])
    def test_cap_checked_before_the_spectrum(self, d, monkeypatch):
        def refuse(g):
            raise AssertionError(f"spectrum computed for n={g.n}")

        monkeypatch.setattr(spectral, "exact_rational_spectrum", refuse)
        with pytest.raises(ScaleError):
            cheeger_inequality_audit(hypercube(d))


class TestExactSpectrum:
    def test_complete(self):
        assert exact_rational_spectrum(complete(4)) == [0, 4, 4, 4]

    def test_cube(self):
        assert exact_rational_spectrum(hypercube(3)) == [0, 2, 2, 2, 4, 4, 4, 6]

    def test_irrational_rejected(self):
        with pytest.raises(ChdError):
            exact_rational_spectrum(cycle(5))

    def test_rational_weights(self):
        g = WeightedGraph.from_edges(2, [(0, 1, "1/3")])
        assert exact_rational_spectrum(g) == [0, Fraction(2, 3)]

    def test_cycle_5_is_not_rational(self):
        with pytest.raises(ExactnessError):
            exact_rational_spectrum(cycle(5))

    def test_heavy_edge(self):
        # the spectrum no longer costs one trial root per integer below it
        g = WeightedGraph.from_edges(2, [(0, 1, 10**6)])
        assert exact_rational_spectrum(g) == [0, 2 * 10**6]

    def test_rounding_bound(self):
        # n times the largest absolute row sum must stay below 2**40
        g = WeightedGraph.from_edges(2, [(0, 1, 2**37)])
        assert exact_rational_spectrum(g) == [0, 2**38]
        with pytest.raises(ScaleError):
            exact_rational_spectrum(WeightedGraph.from_edges(2, [(0, 1, 2**38)]))


class TestDensityBoundsConnectivity:
    def test_lambda2_below_min_density_on_random_graphs(self):
        # the minimum edge density upper-bounds the algebraic connectivity
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(3, 7)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.7
            ]
            g = WeightedGraph.from_edges(n, edges)
            density, _ = min_edge_density(g)
            lam2 = sorted(np.linalg.eigvalsh(g.laplacian_float()))[1]
            assert lam2 <= float(density) + 1e-9
