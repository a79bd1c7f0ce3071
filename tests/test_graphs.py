import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chd import (
    AbelianGroup,
    ChdError,
    RationalAngle,
    ScaleError,
    SimplicityError,
    WeightedGraph,
    cayley,
    cayley_fr_conditions,
    character_table,
    cocktail_party,
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_join,
    graph_union,
    hypercube,
    merge,
    named,
    neps,
    product,
    weighted_tensor_sum,
)


from chd import graphs
from chd.graphs import connection_set


def laplacian_spectrum(g):
    return sorted(round(float(x), 9) for x in np.linalg.eigvalsh(g.laplacian_float()))


class TestWeightedGraphInvariants:
    def test_symmetry_and_zero_diagonal_enforced(self):
        with pytest.raises(SimplicityError):
            WeightedGraph([[1, 0], [0, 0]])
        with pytest.raises(SimplicityError):
            WeightedGraph([[0, 1], [0, 0]])
        with pytest.raises(SimplicityError):
            WeightedGraph([[0, -1], [-1, 0]])

    def test_laplacian_rows_sum_to_zero(self):
        for g in (complete(5), cycle(6), hypercube(3), cocktail_party(3)):
            lap, _ = g.integer_matrix("laplacian")
            assert not lap.sum(axis=1).any()

    def test_rational_weights_round_trip(self):
        g = WeightedGraph.from_edges(3, [(0, 1, "2/3"), (1, 2, "1/6")])
        data = g.to_json()
        assert WeightedGraph.from_json(data) == g
        mat, scale = g.integer_matrix("adjacency")
        assert scale == 6
        assert mat[0][1] == 4 and mat[1][2] == 1

    def test_unknown_target_refused(self):
        with pytest.raises(ChdError, match="^unknown target 'lapalcian'"):
            complete(2).integer_matrix("lapalcian")

    def test_first_fault_in_list_order(self):
        # the loop comes before the malformed item, so it is the one named
        with pytest.raises(SimplicityError, match=r"^loop at vertex 1$"):
            WeightedGraph.from_edges(3, [[0, 1], [1, 1], [5]])


class TestConstructor:
    """WeightedGraph(matrix, scale) takes a square integer array and a
    positive integer scale, and keeps a copy of the array."""

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((2, 2)),
            np.zeros((2, 2), dtype=bool),
            np.array([[0, Fraction(1)], [Fraction(1), 0]]),
            np.array([[0, True], [True, 0]], dtype=object),
            np.zeros((2, 3), dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            [[0, 1], [1]],
            [np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)],
        ],
        ids=[
            "float", "bool", "fraction", "object-bool", "not-square", "one-axis", "ragged",
            "ragged-blocks",
        ],
    )
    def test_refuses_a_matrix_that_is_not_square_and_integer(self, matrix):
        with pytest.raises(ChdError):
            WeightedGraph(matrix)

    @pytest.mark.parametrize("scale", [0, -1, True, 1.5])
    def test_refuses_a_scale_that_is_not_a_positive_integer(self, scale):
        with pytest.raises(ChdError, match="^scale must be a positive integer"):
            WeightedGraph(np.zeros((2, 2), dtype=np.int64), scale)

    @pytest.mark.parametrize(
        "g",
        [
            complete(4),
            cycle(5),
            WeightedGraph.from_edges(0, []),
            WeightedGraph.from_edges(3, [(0, 1, "2/3"), (1, 2, "1/6")]),
            WeightedGraph.from_edges(3, [(0, 1, "2/3"), (1, 2, 2**70)]),  # object
        ],
    )
    def test_rebuilds_a_graph_from_its_matrix_and_scale(self, g):
        assert WeightedGraph(g.matrix, g.scale) == g

    def test_a_later_write_to_the_callers_array_does_not_reach_the_graph(self):
        a = np.array([[0, 2], [2, 0]])
        g = WeightedGraph(a, 3)
        a[0, 1] = a[1, 0] = 5
        assert g.matrix.tolist() == [[0, 2], [2, 0]] and g.scale == 3


class TestCayley:
    def test_hypercube_is_cubelike(self, q3):
        group = AbelianGroup((2, 2, 2))
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert cayley(group, units) == q3

    def test_complete_graph(self):
        group = AbelianGroup((5,))
        g = cayley(group, [(c,) for c in range(1, 5)])
        assert g == complete(5)

    def test_cocktail_party_connection(self):
        n = 3
        group = AbelianGroup((2 * n,))
        conn = [(c,) for c in range(1, 2 * n) if c != n]
        assert cayley(group, conn) == cocktail_party(n)

    def test_loop_rejected(self):
        with pytest.raises(SimplicityError):
            cayley(AbelianGroup((4,)), [(0,), (1,), (3,)])

    def test_asymmetric_connection_rejected(self):
        with pytest.raises(SimplicityError):
            cayley(AbelianGroup((5,)), [(1,)])

    @pytest.mark.parametrize(
        "conn", [[(1.6,), (3,)], [(1.6,), (3.2,)], [(True,), (3,)], [(1,), ("3",)], [(np.float64(1),), (3,)]]
    )
    def test_non_integer_elements_refused(self, conn):
        group = AbelianGroup((4,))
        with pytest.raises(ChdError, match="not an integer"):
            connection_set(group, conn)
        with pytest.raises(ChdError, match="not an integer"):
            cayley(group, conn)

    def test_an_element_that_is_not_a_sequence_is_named(self):
        # tuple(el) on an int ended in a bare TypeError
        group = AbelianGroup((4,))
        with pytest.raises(ChdError, match="^element 1 is not a sequence of exponents$"):
            cayley(group, [1, 3])
        with pytest.raises(ChdError, match="^element 0 is not a sequence of exponents$"):
            cayley_fr_conditions(group, [(1,), (3,)], 0, 2, RationalAngle(1, 4))

    def test_connection_set_messages(self):
        group = AbelianGroup((4, 2))
        # the reduced elements, as sorted rows of group.digits
        assert connection_set(group, [(5, 1), (-1, 3), (np.int64(2), 0)]).tolist() == [[1, 1], [2, 0], [3, 1]]
        assert connection_set(group, [(2**70 + 1, 0), (3, 0)]).tolist() == [[1, 0], [3, 0]]
        with pytest.raises(ChdError, match=r"element \(1, 0, 0\) has wrong arity for moduli \(4, 2\)"):
            connection_set(group, [(1, 0), (1, 0, 0)])
        with pytest.raises(SimplicityError, match=r"the identity \(loops\)"):
            connection_set(group, [(1, 0), (3, 0), (4, 2)])
        with pytest.raises(SimplicityError, match=r"not closed under negation at \(1, 1\)"):
            connection_set(group, [(2, 0), (1, 1), (1, 0), (3, 0)])
        assert group.neg((1, 1)) == (3, 1) and group.normalise_all([(-1, 3)]).tolist() == [[3, 1]]

    def test_cocktail_party_builds_in_blocks(self):
        # the connection elements are added in blocks of graphs.blocks: all
        # 2046 at once would take 76 MiB traced, against 44 MiB in blocks
        tracemalloc.start()
        try:
            g = cocktail_party(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 2048 and peak < 56 * 2**20

    def test_constant_degree(self):
        group = AbelianGroup((3, 3))
        conn = [(1, 0), (2, 0), (0, 1), (0, 2)]
        g = cayley(group, conn)
        assert set(g.degrees()) == {Fraction(len(conn))}


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete(5)) == empty_graph(5)

    def test_involution(self, q3):
        assert complement(complement(q3)) == q3

    def test_cocktail_party_spectrum(self):
        # complement of n disjoint edges; eigensolve oracle
        for n in (3, 4):
            g = complete(2)
            for _ in range(n - 1):
                g = graph_union(g, complete(2))
            spec = laplacian_spectrum(complement(g))
            want = [0.0] + [float(2 * n - 2)] * n + [float(2 * n)] * (n - 1)
            assert spec == sorted(want)
            assert complement(g) == cocktail_party(n) or sorted(spec) == sorted(
                laplacian_spectrum(cocktail_party(n))
            )

    def test_weighted_rejected(self):
        g = WeightedGraph.from_edges(2, [(0, 1, "1/2")])
        with pytest.raises(ChdError):
            complement(g)


class TestCombine:
    def test_union_spectrum(self):
        g = graph_union(complete(2), complete(2))
        assert laplacian_spectrum(g) == [0.0, 0.0, 2.0, 2.0]

    def test_join_of_empties_is_complete_bipartite(self):
        assert graph_join(empty_graph(3), empty_graph(3)) == complete_bipartite(3, 3)

    def test_join_spectrum_even(self):
        g2 = graph_union(complete(2), complete(2))
        j = graph_join(g2, g2)
        spec = laplacian_spectrum(j)
        assert spec == [0.0, 4.0, 4.0, 6.0, 6.0, 6.0, 6.0, 8.0]

    def test_bad_kind(self):
        # the command line builds union and join itself and sends any other
        # kind to named(), which refuses it
        with pytest.raises(ChdError, match="unknown family 'smash'"):
            named("smash", 2)


class TestMerge:
    def test_two_copies(self, q3):
        g = merge(q3, empty_graph(8), 1, 1)
        assert g == graph_union(q3, q3)

    def test_bipartite_double_cover_of_k3_is_c6(self):
        g = merge(empty_graph(3), complete(3), 1, 1)
        assert sorted(laplacian_spectrum(g)) == sorted(laplacian_spectrum(cycle(6)))
        assert set(g.degrees()) == {Fraction(2)}
        assert g.is_connected()

    def test_double_cover_of_k_n(self):
        n = 4
        g = merge(empty_graph(n), complete(n), 1, 1)
        # bipartite double cover of K_n: n-1 regular bipartite on 2n vertices
        assert set(g.degrees()) == {Fraction(n - 1)}
        for u in range(n):
            assert g.matrix[u, n + u] == 0  # no edge to the mirrored vertex

    def test_order_mismatch(self):
        with pytest.raises(ChdError):
            merge(complete(2), complete(3), 1, 1)

    def test_weights_applied(self):
        g = merge(complete(2), complete(2), "1/2", "1/3")
        assert g.scale == 6 and (g.matrix[0, 1], g.matrix[0, 3]) == (3, 2)

    def test_scaled_graph_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, about 1 MB resident;
        # the common factor of a scaled matrix is taken without it
        code = (
            "import sys, chd\n"
            "chd.merge(chd.complete(4), chd.cycle(4), '1/2', 1)\n"
            "print('numpy.ma' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.strip() == "False"


class TestProducts:
    def test_k2_cartesian_k2_is_c4(self):
        g = product(complete(2), complete(2), "cartesian")
        # C_4 in the product labeling: 00-01-11-10-00
        assert sorted(laplacian_spectrum(g)) == [0.0, 2.0, 2.0, 4.0]
        assert set(g.degrees()) == {Fraction(2)}

    def test_k2_box_k6_is_7_regular(self):
        g = product(complete(2), complete(6), "cartesian")
        assert g.n == 12
        assert set(g.degrees()) == {Fraction(6)}

    def test_direct_k2_k2(self):
        g = product(complete(2), complete(2), "direct")
        assert laplacian_spectrum(g) == [0.0, 0.0, 2.0, 2.0]

    def test_c4_box_k2_is_cube(self, q3):
        g = product(complete_bipartite(2, 2), complete(2), "cartesian")
        assert sorted(laplacian_spectrum(g)) == sorted(laplacian_spectrum(q3))


class TestNeps:
    def test_cartesian_as_neps(self):
        g1, g2 = cycle(3), complete(2)
        assert neps([g1, g2], [(1, 0), (0, 1)]) == product(g1, g2, "cartesian")

    def test_direct_as_neps(self):
        g1, g2 = cycle(4), complete(3)
        assert neps([g1, g2], [(1, 1)]) == product(g1, g2, "direct")

    def test_cube_as_neps(self, q3):
        k2 = complete(2)
        g = neps([k2, k2, k2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert g == q3

    def test_all_zero_tuple_rejected(self):
        with pytest.raises(SimplicityError):
            neps([complete(2), complete(2)], [(0, 0)])


class TestWeightedTensorSum:
    def test_single_term(self, q3):
        assert weighted_tensor_sum([(1, [q3])]) == q3

    def test_merge_identity(self):
        g1, g2 = cycle(4), complete_bipartite(2, 2)
        w1, w2 = Fraction(2), Fraction(1, 3)
        direct = merge(g1, g2, w1, w2)
        k2_adj = complete(2)  # adjacency [[0,1],[1,0]]
        via_sum = weighted_tensor_sum([(w1, [2, g1]), (w2, [k2_adj, g2])])
        assert via_sum == direct

    def test_neps_as_tensor_sum(self):
        k2 = complete(2)
        g = weighted_tensor_sum(
            [(1, [k2, 2, 2]), (1, [2, k2, 2]), (1, [2, 2, k2])]
        )
        assert g == neps([k2, k2, k2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_negative_total_rejected(self):
        k2 = complete(2)
        with pytest.raises(SimplicityError):
            weighted_tensor_sum([(-1, [k2])])

    def test_diagonal_rejected(self):
        with pytest.raises(SimplicityError):
            weighted_tensor_sum([(1, [2, 2])])


class TestCapBeforeBuilding:
    """Products, merges, NEPS, unions and joins refuse a result past the
    vertex cap before they allocate any of it."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(graphs, "MAX_VERTICES", 16)
        for name in ("kron", "eye", "zeros", "ones", "block"):
            monkeypatch.setattr(np, name, refuse)

    @pytest.mark.parametrize("build", [
        lambda: product(complete(4), complete(5), "direct"),
        lambda: product(complete(4), complete(5), "cartesian"),
        lambda: merge(complete(9), complete(9), 1, 1),
        lambda: neps([complete(3), complete(3), complete(2)], [(1, 0, 0), (0, 1, 1)]),
        lambda: weighted_tensor_sum([(1, [complete(2), 100])]),
        lambda: weighted_tensor_sum([(1, [0, 100])]),
        lambda: graph_union(complete(9), complete(8)),
        lambda: graph_join(complete(9), complete(8)),
    ])
    def test_refused_before_any_matrix(self, build):
        with pytest.raises(ScaleError):
            build()


class TestNamedFamilies:
    def test_cycle_as_cayley(self):
        assert cycle(4) == cayley(AbelianGroup((4,)), [(1,), (3,)])

    def test_complete_spectrum(self):
        assert laplacian_spectrum(complete(4)) == [0.0, 4.0, 4.0, 4.0]

    def test_cycle_spectrum_formula(self):
        import math

        for r in (3, 5, 8):
            want = sorted(2 - 2 * math.cos(2 * math.pi * k / r) for k in range(r))
            got = laplacian_spectrum(cycle(r))
            assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))

    def test_multipartite(self):
        g = complete_multipartite((2, 2, 2))
        assert g == complement(
            graph_union(graph_union(complete(2), complete(2)), complete(2))
        )

    def test_dispatcher(self):
        assert named("complete", 4) == complete(4)
        assert named("complete-bipartite", 2, 3) == complete_bipartite(2, 3)
        with pytest.raises(ChdError):
            named("petersen", 10)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AbelianGroup((4.7, True)),
            lambda: AbelianGroup((np.float64(4),)),
            lambda: character_table((4.5,)),
            lambda: complete_multipartite((2.9, 2)),
            lambda: complete_bipartite(2, True),
            lambda: neps([complete(2)], [(1.2,)]),
            lambda: neps([complete(2)], [(True,)]),
            lambda: hypercube(2.5),
            lambda: cocktail_party(2.0),
            lambda: weighted_tensor_sum([(1, [complete(2), 2.5])]),
            lambda: named("complete", 4.5),
        ],
        ids=[
            "group", "group-float64", "character-table", "multipartite", "bipartite-bool",
            "neps", "neps-bool", "hypercube", "cocktail", "tensor-sum", "named",
        ],
    )
    def test_non_integer_sizes_refused(self, build):
        # a float or bool size is refused, not truncated
        with pytest.raises(ChdError):
            build()

    def test_numpy_integer_sizes_accepted(self):
        assert AbelianGroup((np.int64(4), 2)).moduli == (4, 2)
        assert complete_multipartite((np.int64(2), 2)) == complete_bipartite(2, 2)
        assert hypercube(np.int64(2)) == hypercube(2)
        assert named("complete-multipartite", "2", np.int64(2)) == complete_bipartite(2, 2)

    def test_vertex_transitive_degree(self):
        for g, d in [
            (hypercube(4), 4),
            (cocktail_party(4), 6),
            (cycle(7), 2),
        ]:
            assert set(g.degrees()) == {Fraction(d)}
