import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chd import (
    AbelianGroup,
    ChdError,
    ExactnessError,
    PreconditionError,
    ScaleError,
    WeightedGraph,
    bipartition_from_column,
    catalogue,
    cayley,
    certify,
    character_table,
    cheeger,
    cheeger_inequality_audit,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    exact_rational_spectrum,
    graph_union,
    hypercube,
    min_edge_density,
    regularity_check,
    sylvester_hadamard,
    tightness_check,
)
from chd import spectral
from chd.spectral import cheeger_value_of


def naive_cheeger(g):
    """Independent oracle: full enumeration of all nonempty proper subsets."""
    best = None
    degs = g.degrees()
    total = sum(degs, Fraction(0))
    for size in range(1, g.n):
        for subset in combinations(range(g.n), size):
            sset = set(subset)
            cut = Fraction(0)
            for u, v, w in g.edges():
                if (u in sset) != (v in sset):
                    cut += w
            vol = sum((degs[u] for u in subset), Fraction(0))
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
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                        edges.append((u, v, w))
            g = WeightedGraph.from_edges(n, edges)
            if not g.is_connected():
                continue
            h, report = cheeger(g)
            assert h == naive_cheeger(g)
            assert cheeger_value_of(g, report.subset) == h

    @pytest.mark.parametrize("subset", [[-1], [7]])
    def test_ratio_of_a_subset_outside_the_vertices_is_refused(self, k4, subset):
        with pytest.raises(ChdError):
            cheeger_value_of(k4, subset)

    def test_ratio_of_a_zero_volume_side_is_zero(self):
        g = graph_union(complete(2), empty_graph(2))
        assert cheeger_value_of(g, [2]) == 0

    def test_scale_guard(self):
        g = WeightedGraph.from_edges(25, [])
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


def _tight_by_search(g, h, spec):
    """Tightness as first defined: the Cheeger constant found by the cut
    search is gamma_2 / 2, and the plus cell of the first lambda_2 column,
    its ratio taken from the edge list, reaches it."""
    lam2, d = spec.second_smallest(), regularity_check(g)
    value, _ = cheeger(g)
    k = next(k for k, e in enumerate(spec.entries) if k and e.rational == lam2)
    plus = set(bipartition_from_column(g, h, spec, k).cells[0])
    cut = sum(w for u, v, w in g.edges() if (u in plus) != (v in plus))
    return value == lam2 / d / 2 and cut / (d * min(len(plus), g.n - len(plus))) == value


@st.composite
def connected_cayley(draw):
    """A connected Cayley graph over Z_2^4, Z_4^2 or Z_4 x Z_2^2 and its
    character table."""
    moduli = draw(st.sampled_from([(2, 2, 2, 2), (4, 4), (4, 2, 2)]))
    group = AbelianGroup(moduli)
    orbits = sorted({tuple(sorted({el, group.neg(el)})) for el in group.elements()[1:]})
    chosen = draw(st.lists(st.sampled_from(orbits), min_size=2, unique=True))
    g = cayley(group, [el for orbit in chosen for el in orbit])
    assume(g.is_connected())
    return g, character_table(moduli)


class TestTightness:
    def test_agrees_with_the_cut_search_on_the_order_8_catalogue(self):
        for entry in catalogue(8):
            g, h = entry.graph, entry.hadamard
            if g.is_connected():
                spec = certify(g, h)
                assert tightness_check(g, h, spec) == _tight_by_search(g, h, spec)

    @settings(max_examples=200, deadline=None)
    @given(connected_cayley())
    def test_agrees_with_the_cut_search_on_cayley_graphs(self, pair):
        g, h = pair
        spec = certify(g, h)
        assert tightness_check(g, h, spec) == _tight_by_search(g, h, spec)

    @pytest.mark.parametrize("d", [4, 6])
    def test_cubes_without_a_cut_search(self, monkeypatch, d):
        # Q6 has 64 vertices, past the cut search's cap
        def no_search(*args):
            raise AssertionError("tightness_check searched the cuts")

        monkeypatch.setattr(spectral, "_cut_tables", no_search)
        g, h = hypercube(d), sylvester_hadamard(2**d)
        assert tightness_check(g, h, certify(g, h))

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

    def test_one_vertex(self):
        g, h = complete(1), character_table((1,))
        with pytest.raises(PreconditionError, match="no second eigenvalue"):
            tightness_check(g, h, certify(g, h))

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

    @pytest.mark.parametrize(
        "other",
        [
            certify(complete(8), sylvester_hadamard(8)),  # the right order
            certify(complete(4), sylvester_hadamard(4)),
            certify(hypercube(3), sylvester_hadamard(8), "adjacency"),
        ],
        ids=["K8", "K4", "Q3-adjacency"],
    )
    def test_refuses_a_spectrum_of_another_graph(self, other):
        # with K8's spectrum, gamma_2 would be 8/3 and the lower bound
        # would be reported to fail
        with pytest.raises(PreconditionError, match="not the Laplacian spectrum"):
            cheeger_inequality_audit(hypercube(3), other)

    def test_rational_weights_scale_the_supplied_spectrum(self):
        g = WeightedGraph.from_edges(4, [(0, 1, "1/2"), (1, 2, "1/2"), (2, 3, "1/2"), (0, 3, "1/2")])
        spec = certify(g, character_table((4,)))
        assert cheeger_inequality_audit(g, spec)["gamma2"] == 1
        assert cheeger_inequality_audit(g) == cheeger_inequality_audit(g, spec)

    def test_one_vertex(self):
        g, h = complete(1), character_table((1,))
        for spec in (None, certify(g, h)):
            with pytest.raises(PreconditionError, match="two vertices"):
                cheeger_inequality_audit(g, spec)

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

    def test_capped_before_the_eigensolver(self, monkeypatch):
        # the power sums would take 12 s on Q7: past 24 vertices none is formed
        def refuse(m):
            raise AssertionError(f"eigvalsh ran on n={len(m)}")

        monkeypatch.setattr(spectral.np.linalg, "eigvalsh", refuse)
        with pytest.raises(ScaleError, match="capped at 24 vertices"):
            exact_rational_spectrum(hypercube(5))

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


def _traced_peak(search, g) -> int:
    tracemalloc.start()
    try:
        search(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCutSearchMemory:
    """The cut search holds a few blocks of its tables at a time, not the
    2**(n-1)-entry tables themselves (2**19 entries of each on C20)."""

    @pytest.mark.parametrize("search", [cheeger, min_edge_density])
    def test_traced_peak_on_c20(self, search):
        assert _traced_peak(search, cycle(20)) < 4 * 2**20

    @pytest.mark.parametrize("search", [cheeger, min_edge_density])
    def test_traced_peak_on_c24(self, search):
        # the 24-vertex cap, where README promises under 5 MiB traced
        assert _traced_peak(search, cycle(24)) < 5 * 2**20

    @pytest.mark.parametrize("search", [cheeger, min_edge_density])
    def test_traced_peak_on_a_relabelled_c24(self, search):
        perm = random.Random(5).sample(range(24), 24)
        g = WeightedGraph.from_edges(24, [(perm[u], perm[(u + 1) % 24]) for u in range(24)])
        assert _traced_peak(search, g) < 5 * 2**20

    def test_traced_peak_on_the_empty_24_vertex_graph(self):
        # every subset ties at density 0
        assert _traced_peak(min_edge_density, WeightedGraph.from_edges(24, [])) < 5 * 2**20
