import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from chd import (
    AbelianGroup,
    ButsonMatrix,
    ChdError,
    CyclotomicInt,
    InternalCheckError,
    PreconditionError,
    ScaleError,
    WeightedGraph,
    bipartition_from_column,
    catalogue,
    cayley,
    certify,
    character_table,
    classify,
    cocktail_party,
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    dephase,
    double,
    empty_graph,
    graph_join,
    graph_union,
    hypercube,
    instance_library,
    merge,
    odd_union_obstruction,
    p_partition_from_column,
    product,
    regularity_check,
    sylvester_hadamard,
    tensor,
    theorem_checks,
)
from chd import diagonalise
from chd.cli import main
from chd.diagonalise import EigenvalueEntry, SpectrumAssignment, _graph_masks, _laplacians_of
from oracles import _dephased_at, enumerate_regular_graphs


class TestCertify:
    def test_complete_graph_under_any_table(self):
        for n, moduli in [(4, (4,)), (5, (5,)), (6, (6,)), (8, (2, 2, 2))]:
            g = complete(n)
            spec = certify(g, character_table(moduli))
            assert spec is not None
            values = sorted(e.rational for e in spec.entries)
            assert values == [0] + [n] * (n - 1)

    def test_cycle_spectrum_formula(self):
        for r in (3, 5, 8, 12):
            g = cycle(r)
            spec = certify(g, character_table((r,)))
            assert spec is not None
            for j, entry in enumerate(spec.entries):
                want = 2 - 2 * math.cos(2 * math.pi * j / r)
                assert abs(entry.to_complex() - want) < 1e-9

    def test_irrational_entries_print_their_ring_value(self):
        # the strings that CatalogueEntry.to_json prints
        spec = certify(cycle(5), character_table((5,)))
        assert [str(e) for e in spec.entries] == [
            "0",
            "(CyclotomicInt(r=5: 2 + -1*z1 + -1*z4))/1",
            "(CyclotomicInt(r=5: 2 + -1*z2 + -1*z3))/1",
            "(CyclotomicInt(r=5: 2 + -1*z2 + -1*z3))/1",
            "(CyclotomicInt(r=5: 2 + -1*z1 + -1*z4))/1",
        ]

    def test_cube_spectrum_binomial(self, q3, f8, q3_spectrum):
        values = sorted(int(e.rational) for e in q3_spectrum.entries)
        want = sorted(2 * bin(j).count("1") for j in range(8))
        assert values == want

    def test_non_diagonalisable_returns_none(self, f4):
        path = complete_bipartite(1, 2)  # not regular
        pad = graph_union(path, empty_graph(1))
        assert certify(pad, f4) is None

    def test_order_mismatch(self, f4):
        with pytest.raises(ChdError):
            certify(complete(6), f4)

    def test_non_dephased_rejected(self, t4):
        from chd import monomial_transform

        skew = monomial_transform(t4, range(4), range(4), [1, 0, 0, 0], [0] * 4)
        with pytest.raises(PreconditionError):
            certify(complete(4), skew)

    def test_lambda1_is_zero_and_trace_identity(self, q3, q3_spectrum):
        assert q3_spectrum.entries[0].rational == 0
        d = regularity_check(q3)
        total = sum(e.rational for e in q3_spectrum.entries)
        assert total == q3.n * d

    def test_adjacency_relation(self, q3, f8, q3_spectrum):
        adj = certify(q3, f8, "adjacency")
        assert adj is not None
        d = regularity_check(q3)
        for lap_e, adj_e in zip(q3_spectrum.entries, adj.entries):
            assert adj_e.rational == d - lap_e.rational

    def test_rational_weights(self):
        g = merge(complete(2), complete(2), Fraction(1, 2), Fraction(1, 3))
        spec = certify(g, sylvester_hadamard(4))
        assert spec is not None
        assert all(e.rational is not None for e in spec.entries)
        assert spec.entries[0].rational == 0


class TestSpectrumAssignment:
    @staticmethod
    def _hand_built(values, index):
        """A spectrum of integer entries, one per value, and a column index."""
        entries = tuple(EigenvalueEntry(CyclotomicInt(1, (q,)), 1, Fraction(q)) for q in values)
        return SpectrumAssignment(entries, tuple(index), "laplacian")

    @pytest.mark.parametrize(
        "make, moduli, distinct",
        [(lambda: hypercube(8), (2,) * 8, 9), (lambda: cycle(128), (128,), 65), (lambda: cycle(5), (5,), 3)],
    )
    def test_certify_builds_one_entry_per_distinct_row(self, monkeypatch, make, moduli, distinct):
        # Q8: one row per degree 0..8; C128: z**j and z**-j give one row
        made, entry = [], diagonalise.EigenvalueEntry
        monkeypatch.setattr(diagonalise, "EigenvalueEntry", lambda *a: made.append(a) or entry(*a))
        spec = certify(make(), character_table(moduli))
        assert len(made) == len(spec.values) == distinct
        assert spec.n == len(spec.entries) == math.prod(moduli)

    def test_repeated_odd_eigenvalues_are_named_per_column(self):
        spec = self._hand_built([0, 3, 1], [0, 1, 2, 1])
        checks = theorem_checks(complete(4), sylvester_hadamard(4), spec).checks
        assert [c.detail for c in checks[:2]] == ["violations: ['3', '1', '3']"] * 2
        spec = self._hand_built([0, 5, 3], [0, 1, 2, 2, 1])
        check = theorem_checks(complete(5), character_table((5,)), spec).checks[2]
        assert check.detail == (
            "violations: ['3 not divisible by 5', '3 has multiplicity 2 < 4', "
            "'5 has multiplicity 2 < 4']"
        )

    def test_values_expand_through_the_index(self):
        spec = self._hand_built([0, 4, 2, 2], [0, 1, 2, 3, 1])
        assert spec.entries == tuple(spec.values[i] for i in (0, 1, 2, 3, 1))
        assert spec.rationals() == [0, 4, 2, 2, 4]
        assert [e.rational for e in spec.values] == [0, 4, 2, 2]
        assert spec.second_smallest() == 2  # two entries of one value
        assert self._hand_built([0, 4], [0, 1, 0]).second_smallest() == 0
        assert self._hand_built([0, 4], [0, 1, 1]).second_smallest() == 4

    @pytest.mark.parametrize(
        "index, target, message",
        [
            ((0, -1, 1), "laplacian", "index entries"),  # read values[-1]
            ((0, 99, 1), "laplacian", "index entries"),  # ended in IndexError
            ((0, 1.0, 1), "laplacian", "index entries"),
            ((0, True, 1), "laplacian", "index entries"),
            ((0, 1, 1), "foo", "unknown target"),
        ],
        ids=["negative", "past-the-end", "float", "bool", "target"],
    )
    def test_malformed_fields_refused(self, index, target, message):
        values = self._hand_built([0, 2], [0, 1]).values
        with pytest.raises(ChdError, match=message):
            SpectrumAssignment(values, index, target)

    def test_one_vertex_has_no_second_eigenvalue(self):
        spec = certify(complete(1), character_table((1,)))
        assert spec.rationals() == [0]
        with pytest.raises(PreconditionError, match="no second eigenvalue"):
            spec.second_smallest()


class TestRegularity:
    def test_path_not_regular(self):
        assert regularity_check(complete_bipartite(1, 2)) is None

    def test_k4(self):
        assert regularity_check(complete(4)) == 3

    def test_certified_implies_regular(self):
        rng = random.Random(2)
        group = AbelianGroup((2, 2, 2))
        elements = [e for e in group.elements() if e != group.identity]
        h = sylvester_hadamard(8)
        for _ in range(20):
            conn = [e for e in elements if rng.random() < 0.5]
            g = cayley(group, conn)
            if certify(g, h) is not None:
                assert regularity_check(g) is not None


class TestBipartition:
    def test_k4_quotient(self, k4, f4, k4_spectrum):
        part = bipartition_from_column(k4, f4, k4_spectrum, 1)
        lam = k4_spectrum.entries[1].rational
        assert lam == 4
        assert part.quotient == ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
        assert all(len(c) == 2 for c in part.cells)

    def test_cube_coordinate_cut(self, q3, f8, q3_spectrum):
        k = next(
            j for j, e in enumerate(q3_spectrum.entries) if j > 0 and e.rational == 2
        )
        part = bipartition_from_column(q3, f8, q3_spectrum, k)
        assert part.quotient == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))

    def test_cocktail_imaginary_column(self, t4):
        g = cocktail_party(2)  # this is C_4
        spec = certify(g, t4)
        part = bipartition_from_column(g, t4, spec, 1)
        assert spec.entries[1].rational == 2
        assert part.quotient == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
        assert all(len(c) == 2 for c in part.cells)

    def test_unsupported_column_rejected(self):
        g = complete(3)
        h = character_table((3,))
        spec = certify(g, h)
        with pytest.raises(PreconditionError):
            bipartition_from_column(g, h, spec, 1)

    def test_two_cell_p_partition_is_the_bipartition(self, q3, f8, q3_spectrum):
        for k in range(1, 8):
            part = bipartition_from_column(q3, f8, q3_spectrum, k)
            assert part.cells == p_partition_from_column(q3, f8, q3_spectrum, k, 2).cells

    @pytest.mark.parametrize("k", [0, -1, 8])
    def test_column_out_of_range_rejected(self, q3, f8, q3_spectrum, k):
        with pytest.raises(PreconditionError, match="column 0 is all ones"):
            bipartition_from_column(q3, f8, q3_spectrum, k)
        with pytest.raises(PreconditionError, match="column 0 is all ones"):
            p_partition_from_column(q3, f8, q3_spectrum, k, 2)

    def test_order_mismatch_rejected(self, k4, f8, q3_spectrum):
        with pytest.raises(ChdError, match="order mismatch"):
            bipartition_from_column(k4, f8, q3_spectrum, 1)

    def test_smaller_spectrum_rejected(self, q3, f8):
        # column 3 lies past the two entries of K_2's spectrum
        k2_spectrum = certify(complete(2), sylvester_hadamard(2))
        with pytest.raises(ChdError, match="orders must agree"):
            bipartition_from_column(q3, f8, k2_spectrum, 3)

    def test_quotient_rows_sum_to_degree(self, q3, f8, q3_spectrum):
        d = regularity_check(q3)
        for k in range(1, 8):
            part = bipartition_from_column(q3, f8, q3_spectrum, k)
            for row in part.quotient:
                assert sum(row) == d

    def test_real_columns_give_distinct_partitions_with_four_cell_refinement(
        self, q3, f8, q3_spectrum
    ):
        partitions = [
            frozenset(
                frozenset(c) for c in bipartition_from_column(q3, f8, q3_spectrum, k).cells
            )
            for k in range(1, 8)
        ]
        assert len(set(partitions)) == 7
        for i in range(len(partitions)):
            for j in range(i + 1, len(partitions)):
                cells_i = [set(c) for c in partitions[i]]
                cells_j = [set(c) for c in partitions[j]]
                refinement = [
                    a & b for a in cells_i for b in cells_j if a & b
                ]
                assert len(refinement) == 4
                assert len({len(c) for c in refinement}) == 1


class TestPPartition:
    def test_k3_singletons(self):
        g = complete(3)
        h = character_table((3,))
        spec = certify(g, h)
        part = p_partition_from_column(g, h, spec, 1, 3)
        assert [len(c) for c in part.cells] == [1, 1, 1]
        for i in range(3):
            for j in range(3):
                assert part.quotient[i][j] == (0 if i == j else 1)

    def test_k9_three_cells(self):
        g = complete(9)
        h = character_table((3, 3))
        spec = certify(g, h)
        part = p_partition_from_column(g, h, spec, 1, 3)
        assert [len(c) for c in part.cells] == [3, 3, 3]
        for i in range(3):
            for j in range(3):
                assert part.quotient[i][j] == (2 if i == j else 3)

    def test_c5_error_path(self):
        g = cycle(5)
        h = character_table((5,))
        spec = certify(g, h)
        with pytest.raises(PreconditionError):
            p_partition_from_column(g, h, spec, 1, 5)

    def test_order_mismatch_rejected(self, q3, f8, k4_spectrum):
        with pytest.raises(ChdError, match="orders must agree"):
            p_partition_from_column(q3, f8, k4_spectrum, 3, 2)
        with pytest.raises(ChdError, match="orders must agree"):
            p_partition_from_column(complete(4), f8, k4_spectrum, 1, 2)

    def test_non_prime_rejected(self):
        g = complete(4)
        h = character_table((4,))
        spec = certify(g, h)
        with pytest.raises(PreconditionError):
            p_partition_from_column(g, h, spec, 1, 4)


class TestTheoremChecks:
    def test_cubelike_sweep_all_even(self, f8):
        group = AbelianGroup((2, 2, 2))
        elements = [e for e in group.elements() if e != group.identity]
        for bits in range(1 << 7):
            conn = [e for i, e in enumerate(elements) if bits >> i & 1]
            g = cayley(group, conn)
            spec = certify(g, f8)
            assert spec is not None
            assert all(
                e.is_integer and int(e.rational) % 2 == 0 for e in spec.entries
            )

    def test_k5_divisibility(self):
        g = complete(5)
        h = character_table((5,))
        spec = certify(g, h)
        report = theorem_checks(g, h, spec)
        by_name = {c.name: c for c in report.checks}
        check = by_name["prime-divisibility-and-multiplicity"]
        assert check.applicable and check.passed
        values = [e.rational for e in spec.entries]
        assert values.count(5) == 4

    def test_c4_even_integers(self, t4):
        g = cayley(AbelianGroup((4,)), [(1,), (3,)])
        spec = certify(g, t4)
        assert sorted(int(e.rational) for e in spec.entries) == [0, 2, 2, 4]
        checks = theorem_checks(g, t4, spec).checks
        assert all(c.passed for c in checks if c.applicable)

    def test_order_mismatch_rejected(self, k4, f4):
        k2_spectrum = certify(complete(2), sylvester_hadamard(2))
        with pytest.raises(ChdError, match="orders must agree"):
            theorem_checks(k4, f4, k2_spectrum)

    def test_rational_weights_are_out_of_scope(self):
        # weights 1/2 and 3/2 give odd integer eigenvalues under a Turyn
        # matrix; the theorems speak only of integer weights
        z44 = AbelianGroup((4, 4))
        g = merge(
            cayley(z44, [(1, 0), (3, 0), (0, 1), (0, 3)]),
            cayley(z44, [(1, 1), (3, 3), (2, 0)]),
            Fraction(1, 2),
            Fraction(3, 2),
        )
        h = double(character_table((4, 4)))
        spec = certify(g, h)
        assert spec is not None
        assert any(e.is_integer and int(e.rational) % 2 for e in spec.entries)
        checks = theorem_checks(g, h, spec).checks
        assert [c.applicable for c in checks] == [False] * 3
        assert all(c.passed is None for c in checks)

    def test_adjacency_spectrum_is_out_of_scope(self):
        # odd degree: the adjacency spectrum has odd eigenvalues
        z88 = AbelianGroup((8, 8))
        g = cayley(z88, [(1, 0), (7, 0), (0, 1), (0, 7), (4, 4)])
        h = character_table((8, 8))
        spec = certify(g, h, "adjacency")
        assert spec is not None and spec.target == "adjacency"
        assert any(e.is_integer and int(e.rational) % 2 for e in spec.entries)
        checks = theorem_checks(g, h, spec).checks
        assert [c.applicable for c in checks] == [False] * 3
        checks = theorem_checks(g, h, certify(g, h)).checks
        assert all(c.passed for c in checks if c.applicable)

    def test_complement_certifies_with_shifted_spectrum(self, q3, f8, q3_spectrum):
        comp = complement(q3)
        spec = certify(comp, f8)
        assert spec is not None
        n = q3.n
        for j in range(1, n):
            assert spec.entries[j].rational == n - q3_spectrum.entries[j].rational
        assert spec.entries[0].rational == 0


class TestConstructionClosure:
    def test_merge_closure_under_double(self, t4):
        # merge works for any pair certified by one matrix: the blocks are
        # simultaneously diagonalised and the 2x2 layer pattern is handled
        # by the doubling factor
        g1 = cayley(AbelianGroup((4,)), [(1,), (3,)])  # C_4
        g2 = cayley(AbelianGroup((4,)), [(2,)])  # 2K_2
        dh = double(t4)
        assert certify(merge(g1, g2, Fraction(2), Fraction(1, 2)), dh) is not None

    def test_union_join_closure_for_matching_spectra(self, t4):
        # union and join need the per-column eigenvalues of the two summands
        # to agree; same-graph unions are the canonical case
        g1 = cayley(AbelianGroup((4,)), [(1,), (3,)])  # C_4
        dh = double(t4)
        assert certify(graph_union(g1, g1), dh) is not None
        assert certify(graph_join(g1, g1), dh) is not None

    def test_union_of_mismatched_spectra_is_not_diagonalisable(self, t4):
        # both summands certify under t4, but their degrees differ, so the
        # union is not regular and cannot be diagonalised by anything
        g1 = cayley(AbelianGroup((4,)), [(1,), (3,)])  # C_4, degree 2
        g2 = cayley(AbelianGroup((4,)), [(2,)])  # 2K_2, degree 1
        assert certify(g1, t4) is not None and certify(g2, t4) is not None
        u = graph_union(g1, g2)
        assert regularity_check(u) is None
        assert certify(u, double(t4)) is None

    def test_products_under_tensor(self, t4, f2):
        g1 = cayley(AbelianGroup((4,)), [(1,), (3,)])
        g2 = complete(2)
        th = tensor(t4, f2)
        assert certify(product(g1, g2, "direct"), th) is not None
        assert certify(product(g1, g2, "cartesian"), th) is not None

    def test_k2_box_k6_under_turyn(self, h6, f2):
        g = product(complete(2), complete(6), "cartesian")
        th = tensor(f2, h6)
        assert classify(th).kind == "turyn"
        spec = certify(g, th)
        assert spec is not None
        assert all(e.is_integer and int(e.rational) % 2 == 0 for e in spec.entries)

    def test_h_sandwich_eigenvector_split(self, h6):
        # restrictions of a Turyn column to its real and imaginary supports
        # are each zero or exact eigenvectors
        g = complete(6)
        spec = certify(g, h6)
        lap, _ = g.integer_matrix("laplacian")  # complete(6) has scale 1
        r = h6.r
        for k in range(1, 6):
            lam = spec.entries[k].rational
            col = [int(h6.exps[u, k]) for u in range(6)]
            real_part = [
                {0: 1, 2: -1}.get(e, 0) for e in col
            ]
            imag_part = [
                {1: 1, 3: -1}.get(e, 0) for e in col
            ]
            for vec in (real_part, imag_part):
                if not any(vec):
                    continue
                image = [
                    sum(lap[u][v] * vec[v] for v in range(6)) for u in range(6)
                ]
                assert image == [lam * x for x in vec]


class TestOddUnion:
    def test_three_k2(self):
        g = graph_union(graph_union(complete(2), complete(2)), complete(2))
        assert odd_union_obstruction(g)

    def test_two_k2(self):
        assert not odd_union_obstruction(graph_union(complete(2), complete(2)))

    def test_two_k4(self):
        assert not odd_union_obstruction(graph_union(complete(4), complete(4)))

    def test_unequal_orders(self):
        g = graph_union(graph_union(complete(2), complete(2)), complete(4))
        assert not odd_union_obstruction(g)

    def test_obstructed_graph_fails_certification(self, h6):
        g = graph_union(graph_union(complete(2), complete(2)), complete(2))
        for _, h in instance_library()[6]:
            assert certify(g, h) is None


class TestEnumeration:
    def test_counts_on_six_vertices(self):
        # labeled regular graph counts: perfect matchings, 2-regular, cubic
        by_degree = {}
        for g in enumerate_regular_graphs(6):
            d = int(regularity_check(g))
            by_degree[d] = by_degree.get(d, 0) + 1
        assert by_degree[0] == 1
        assert by_degree[1] == 15
        assert by_degree[2] == 70
        assert by_degree[3] == 70
        assert by_degree[4] == 15
        assert by_degree[5] == 1

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            list(enumerate_regular_graphs(11))


@pytest.fixture(scope="module")
def full():
    return catalogue(8)


class TestCatalogue:
    def test_order_2_and_4(self, full):
        names = {(e.order, e.name) for e in full}
        assert {(2, "K_2"), (2, "K_2^c")} <= names
        assert {(4, "K_4"), (4, "C_4"), (4, "K_2+K_2"), (4, "K_4^c")} <= names
        assert sum(1 for e in full if e.order == 2) == 2
        assert sum(1 for e in full if e.order == 4) == 4

    def test_order_6(self, full):
        entries = [e for e in full if e.order == 6]
        assert {e.name for e in entries} == {"K_6", "K_6^c"}

    def test_order_8_contents(self, full):
        # the nine classically listed graphs plus 4K_2, which passes every
        # filter (1-regular, spectrum {0^4, 2^4}, certified by sylvester-8)
        names = {e.name for e in full if e.order == 8}
        assert names == {
            "K_8",
            "K_{2,2,2,2}",
            "(C_4+C_4)^c",
            "(K_{2,2}[]K_2)^c",
            "K_{4,4}",
            "K_4+K_4",
            "K_{2,2}[]K_2",
            "C_4+C_4",
            "K_8^c",
            "4K_2",
        }

    def test_every_witness_certifies(self, full):
        for entry in full:
            assert classify(entry.hadamard).kind in ("real", "turyn")
            spec = certify(entry.graph, entry.hadamard)
            assert spec is not None
            assert all(
                e.is_integer and int(e.rational) % 2 == 0 for e in spec.entries
            )

    def test_sorted_and_deterministic(self, full):
        keys = [(e.order, e.degree, e.name) for e in full]
        assert keys == sorted(keys)
        again = catalogue(8)
        assert [(e.order, e.degree, e.name) for e in again] == keys

    def test_max_n_guard(self):
        with pytest.raises(ScaleError):
            catalogue(10)
        with pytest.raises(ScaleError):
            catalogue(7)

    def test_smaller_cutoffs_nest(self, full):
        small = catalogue(4)
        assert [(e.order, e.name) for e in small] == [
            (e.order, e.name) for e in full if e.order <= 4
        ]

    def test_entries_in_order(self, full):
        # (order, degree, name, sorted eigenvalues) of every entry, as the
        # labelled-enumeration catalogue listed them
        assert [
            (e.order, e.degree, e.name, e.to_json()["eigenvalues"]) for e in full
        ] == [
            (n, d, name, sorted(str(x) for x in spectrum))
            for n, d, name, spectrum in CATALOGUE_8
        ]
        for max_n in (2, 4, 6):
            assert [e.to_json() for e in catalogue(max_n)] == [
                e.to_json() for e in full if e.order <= max_n
            ]

    def test_classes_match_the_enumeration_oracle(self, full):
        for n in (2, 4, 6, 8):
            found = [_graph_masks(e.graph) for e in full if e.order == n]
            expected = oracles.catalogue_classes(n)
            assert len(found) == len(expected)
            for masks in expected:
                assert [_same_class(masks, m) for m in found].count(True) == 1

    def test_closed_under_complement(self, full):
        for entry in full:
            comp = _graph_masks(complement(entry.graph))
            assert any(
                _same_class(comp, _graph_masks(e.graph))
                for e in full
                if e.order == entry.order
            ), entry.name

    def test_cli_output_is_pinned(self, capsys):
        assert main(["catalogue", "--max-n", "8"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "51bd64f0c19feec48da46f5481d569a9f9fefb060e3634a34745c567572683ff"

    def test_isomorphism_tests_only_for_new_labellings(self, monkeypatch):
        # each of the 6 real or Turyn library matrices is read once; its 176
        # labelled candidates at orders 2-8 (160 at order 8) hold 140
        # distinct labellings; only those meet the isomorphism test, and only
        # the 18 representatives are named
        calls = []
        test = diagonalise._isomorphic_masks
        monkeypatch.setattr(
            diagonalise, "_isomorphic_masks", lambda a, b: calls.append(1) or test(a, b)
        )
        reads = []
        scan = diagonalise._laplacians_of
        monkeypatch.setattr(
            diagonalise, "_laplacians_of", lambda h: reads.append(1) or scan(h)
        )
        assert len(catalogue(8)) == 18
        assert len(calls) == 142
        assert len(reads) == 6

    def test_no_float_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the catalogue called a float eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert len(catalogue(8)) == 18


def _same_class(a, b) -> bool:
    """Isomorphism of two neighbour-mask tuples, decided by the oracle."""
    return oracles._isomorphic(a, oracles._walk_colours(a), b, oracles._walk_colours(b))


CATALOGUE_8 = [
    (2, 0, "K_2^c", [0, 0]),
    (2, 1, "K_2", [0, 2]),
    (4, 0, "K_4^c", [0, 0, 0, 0]),
    (4, 1, "K_2+K_2", [0, 0, 2, 2]),
    (4, 2, "C_4", [0, 2, 2, 4]),
    (4, 3, "K_4", [0, 4, 4, 4]),
    (6, 0, "K_6^c", [0] * 6),
    (6, 5, "K_6", [0] + [6] * 5),
    (8, 0, "K_8^c", [0] * 8),
    (8, 1, "4K_2", [0] * 4 + [2] * 4),
    (8, 2, "C_4+C_4", [0, 0, 2, 2, 2, 2, 4, 4]),
    (8, 3, "K_4+K_4", [0, 0] + [4] * 6),
    (8, 3, "K_{2,2}[]K_2", [0, 2, 2, 2, 4, 4, 4, 6]),
    (8, 4, "(K_{2,2}[]K_2)^c", [0, 2, 4, 4, 4, 6, 6, 6]),
    (8, 4, "K_{4,4}", [0] + [4] * 6 + [8]),
    (8, 5, "(C_4+C_4)^c", [0, 4, 4, 6, 6, 6, 6, 8]),
    (8, 6, "K_{2,2,2,2}", [0, 6, 6, 6, 6, 8, 8, 8]),
    (8, 7, "K_8", [0] + [8] * 7),
]


class TestLaplaciansOf:
    """The batched scan returns exactly the labelled graphs that a matrix
    dephased at one column diagonalises."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_against_certify_on_every_regular_graph(self, n):
        regular = list(enumerate_regular_graphs(n))
        for name, h in instance_library()[n]:
            if classify(h).kind not in ("real", "turyn"):
                continue
            for j in range(n):
                hj = _dephased_at(h, j)
                assert hj.is_dephased()
                lam, adj = _laplacians_of(hj)
                found = {a.tobytes() for a in adj.astype(np.int64)}
                assert len(found) == len(adj), f"{name} column {j} repeats a graph"
                expected = set()
                for g in regular:
                    spectrum = certify(g, hj)
                    if spectrum is not None:
                        expected.add(g.matrix.astype(np.int64).tobytes())
                assert found == expected, f"{name} column {j}"
                for values, a in zip(lam, adj):
                    g = WeightedGraph(a)
                    assert certify(g, hj).integers() == values.tolist()

    def test_library_matrices_need_one_column(self):
        # the catalogue reads each real or Turyn library matrix as built:
        # it must be dephased, and dephasing it at any column must give the
        # same labelled graphs
        def labelled(h):
            return {a.tobytes() for a in _laplacians_of(h)[1].astype(np.int64)}

        for n, matrices in instance_library().items():
            for name, h in matrices:
                if classify(h).kind not in ("real", "turyn"):
                    continue
                assert h.is_dephased(), name
                graphs = labelled(h)
                for j in range(n):
                    assert labelled(_dephased_at(h, j)) == graphs, f"{name} column {j}"

    def test_non_integral_laplacians_are_dropped(self):
        # a Paley type-I matrix of order 12 (q = 11): every neighbour set
        # gives integer eigenvalues, but only 24 of the 2048 give an integer
        # Laplacian, and those are the empty graph, 2K_6, K_{6,6} and K_12
        q = 11
        squares = {x * x % q for x in range(1, q)}
        c = np.zeros((12, 12), dtype=np.int64)
        c[0, 1:], c[1:, 0] = 1, -1
        for i in range(q):
            for j in range(q):
                if i != j:
                    c[1 + i, 1 + j] = 1 if (j - i) % q in squares else -1
        h = ButsonMatrix(np.where(np.eye(12, dtype=np.int64) + c == 1, 0, 1), 2)
        for j in (0, 5):
            hj = _dephased_at(h, j)
            lam, adj = _laplacians_of(hj)
            assert len(adj) == 24
            for values, a in zip(lam, adj):
                assert certify(WeightedGraph(a), hj).integers() == values.tolist()
            assert {tuple(sorted(v)) for v in lam.tolist()} == {
                (0,) * 12,
                (0, 0) + (6,) * 10,
                (0,) + (6,) * 10 + (12,),
                (0,) + (12,) * 11,
            }

    def test_dephasing_at_a_column_multiplies_rows_by_its_conjugate(self):
        # for a Turyn matrix the row phases include +-i
        h = dict(instance_library()[8])["z4xz2-characters"]
        r = h.r
        for j in range(8):
            hj = _dephased_at(h, j)
            rows = (h.exps - h.exps[:, [j]]) % r
            columns = {tuple((c - c[0]) % r) for c in rows.T}
            assert {tuple(c) for c in hj.exps.T} == columns
            assert not hj.exps[:, 0].any()


class TestAdjacencyLaplacianEquivalence:
    def test_both_succeed_or_both_fail(self, t4, f4):
        probes = [
            cayley(AbelianGroup((4,)), [(1,), (3,)]),
            cayley(AbelianGroup((4,)), [(2,)]),
            complete(4),
            cocktail_party(2),
        ]
        for g in probes:
            for h in (t4, f4):
                lap = certify(g, h, "laplacian")
                adj = certify(g, h, "adjacency")
                assert (lap is None) == (adj is None)
                if lap is not None:
                    d = regularity_check(g)
                    for le, ae in zip(lap.entries, adj.entries):
                        assert ae.rational == d - le.rational
