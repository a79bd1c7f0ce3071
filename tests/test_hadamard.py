import random
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from chd import (
    AbelianGroup,
    ButsonMatrix,
    ChdError,
    PreconditionError,
    ScaleError,
    character_table,
    classify,
    conference_lift,
    dephase,
    double,
    instance_library,
    monomial_transform,
    paley_conference,
    sylvester_hadamard,
    tensor,
    verify,
)
from chd import graphs
from chd.graphs import MAX_VERTICES
from chd.hadamard import character_rows


class TestVerify:
    def test_z4_character_table(self, t4):
        assert verify(t4)
        # it is exactly [[1,1,1,1],[1,i,-1,-i],[1,-1,1,-1],[1,-i,-1,i]]
        assert t4.exps.tolist() == [
            [0, 0, 0, 0],
            [0, 1, 2, 3],
            [0, 2, 0, 2],
            [0, 3, 2, 1],
        ]

    def test_all_ones_is_not_hadamard(self):
        h = ButsonMatrix([[0, 0], [0, 0]], 2)
        assert not verify(h)

    def test_sylvester_cube(self, f8):
        assert verify(f8)

    def test_orders_past_the_cap_refused(self):
        # before the table is read or built
        with pytest.raises(ScaleError):
            ButsonMatrix([[0]] * (MAX_VERTICES + 1), 2)
        with pytest.raises(ScaleError):
            ButsonMatrix(np.zeros((MAX_VERTICES + 1,) * 2, dtype=np.int64), 2)
        with pytest.raises(ScaleError):
            tensor(character_table((64,)), character_table((128,)))
        # the order is checked before H is verified or doubled
        with pytest.raises(ScaleError):
            double(ButsonMatrix(np.zeros((MAX_VERTICES // 2 + 1,) * 2, dtype=np.int64), 2))

    def test_order_zero_refused(self):
        # by either path, so no later call meets an empty first row
        for exps in ([], np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.uint8)):
            with pytest.raises(ChdError):
                ButsonMatrix(exps, 2)

    def test_float_oracle(self, t4, h6):
        for h in (t4, h6):
            m = h.to_complex()
            assert np.max(np.abs(m @ m.conj().T - h.n * np.eye(h.n))) < 1e-9

    def test_to_complex_equals_one_exp_per_entry(self, t4, h6, f8):
        # the root table holds exactly the values of the entrywise formula
        rng = np.random.default_rng(0)
        tables = [ButsonMatrix(rng.integers(0, r, (9, 9)), r) for r in range(1, 65)]
        tables += [t4, h6, f8, double(t4), character_table((2, 8)), character_table((4, 4, 4))]
        tables += [h for entries in instance_library().values() for _, h in entries]
        for h in tables:
            assert np.array_equal(h.to_complex(), np.exp(2j * np.pi * h.exps / h.r))


class TestDephase:
    def test_idempotent(self, f8, t4, h6):
        for h in (f8, t4, h6):
            d = dephase(h)
            assert d.is_dephased()
            assert dephase(d) == d

    def test_global_phase_removed(self):
        # first row multiplied by i: dephasing restores all-ones row
        h = ButsonMatrix([[1, 1], [0, 2]], 4)
        assert verify(h)
        d = dephase(h)
        assert d.is_dephased()
        assert d.exps.tolist() == [[0, 0], [0, 2]]

    def test_conference_dephase_structure(self, h6):
        # second row: one 1, one -1 and four entries +-i
        row = h6.exps[1].tolist()
        assert row[0] == 0
        assert sorted(row[1:]).count(2) == 1
        assert sum(1 for e in row[1:] if e in (1, 3)) == 4
        # the -1 sits in the diagonal position of the lifted form
        assert row[1] == 2

    def test_unverified_input_rejected(self):
        h = ButsonMatrix([[0, 0], [0, 0]], 2)
        with pytest.raises(PreconditionError):
            dephase(h)


class TestCharacterTable:
    def test_z2(self, f2):
        assert f2.exps.tolist() == [[0, 0], [0, 1]]
        assert f2.r == 2

    def test_z2_square_is_tensor(self, f2, f4):
        assert character_table((2, 2)) == tensor(f2, f2) == f4

    def test_product_group_is_tensor_of_tables(self, t4):
        assert character_table((4, 4)) == tensor(t4, t4)

    def test_verified_and_dephased(self):
        for moduli in [(3,), (6,), (2, 3), (4, 2), (5,)]:
            h = character_table(moduli)
            assert verify(h)
            assert h.is_dephased()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.data())
    def test_rows_of_some_elements_are_rows_of_the_table(self, moduli, data):
        group = AbelianGroup(moduli)
        picks = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=5))
        rows, r = character_rows(group, [group.elements()[i] for i in picks])
        table = character_table(moduli)
        assert r == table.r and np.array_equal(rows, table.exps[picks])


class TestTableStorage:
    def test_character_table_peak_is_about_its_table(self):
        # the matmul result is reduced in place and kept without a copy
        tracemalloc.start()
        try:
            h = character_table((2,) * 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.exps.nbytes == 8 << 20
        assert peak <= 1.25 * h.exps.nbytes

    @pytest.mark.parametrize(
        "build",
        [
            lambda tables: character_table((64, 63)),
            lambda tables: tensor(*tables),
        ],
        ids=["character-table", "tensor"],
    )
    def test_root_order_cap_checked_before_the_table_is_built(self, build):
        # the 4032 x 4032 table of Z_64 x Z_63 took 124 MB before its refusal
        tables = character_table((64,)), character_table((63,))
        assert all(map(verify, tables))
        tracemalloc.start()
        try:
            with pytest.raises(ScaleError, match=r"^root order 4032 exceeds the cap of 1024$"):
                build(tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("exps", [np.array([[0, 0], [0, 1]]), np.array([[0, 0], [0, 3]])])
    def test_a_callers_array_is_never_aliased(self, exps):
        # in range and kept as given, or reduced mod r
        h = ButsonMatrix(exps, 2)
        exps[1, 1] = 0
        assert h.exps.tolist() == [[0, 0], [0, 1]]
        assert not h.exps.flags.writeable


class TestTensorAndDouble:
    def test_identity_factor(self, t4):
        one = character_table((1,))
        assert tensor(t4, one) == t4
        assert tensor(one, t4) == t4

    def test_sylvester4_matches_real_hadamard(self, f4):
        signs = np.where(f4.exps == 0, 1, -1)
        want = np.array(
            [
                [1, 1, 1, 1],
                [1, -1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ]
        )
        assert np.array_equal(signs, want)

    def test_double_of_trivial(self, f2):
        assert double(character_table((1,))) == f2

    def test_double_doubles_order_and_root(self, t4):
        d = double(t4)
        assert d.n == 8
        assert d.r == 4  # lcm(2, 4)
        assert verify(d)

    def test_double_of_f2_is_real_hadamard(self, f2, f4):
        d = double(f2)
        assert verify(d)
        assert d == f4

    def test_mixed_roots_promote_to_lcm(self):
        h = tensor(character_table((2,)), character_table((3,)))
        assert h.r == 6
        assert verify(h)


class TestSylvester:
    def test_character_table_of_z2k_is_the_doubled_matrix(self):
        for k in range(13):
            h, want = sylvester_hadamard(2**k), oracles.sylvester_hadamard(2**k)
            assert (h.r, h.exps.dtype) == (want.r, want.exps.dtype)
            assert np.array_equal(h.exps, want.exps)

    def test_orders_that_are_not_integers_refused(self):
        for order in (4.0, True, 2.5, "4"):
            with pytest.raises(ChdError):
                sylvester_hadamard(order)
        assert sylvester_hadamard(np.int64(8)) == sylvester_hadamard(8)

    def test_orders_that_are_not_powers_of_two_refused(self):
        for order in (0, -4, 6, 12):
            with pytest.raises(ChdError):
                sylvester_hadamard(order)
        with pytest.raises(ScaleError):
            sylvester_hadamard(2 * MAX_VERTICES)


class TestClassify:
    def test_real(self, f2):
        assert classify(f2).kind == "real"

    def test_turyn(self, t4):
        assert classify(t4).kind == "turyn"

    def test_butson(self):
        c = classify(character_table((3,)))
        assert (c.kind, c.root_order) == ("butson", 3)

    def test_minimal_root_order_detected(self):
        # F2 written over the fourth roots of unity still classifies as real
        f2 = sylvester_hadamard(2)
        assert classify(ButsonMatrix(f2.exps * 2, 4)).kind == "real"

    def test_equals_lcm_oracle_on_library_transforms_and_tensors(self, t4, h6):
        rng = random.Random(20)
        tables = [h for entries in instance_library().values() for _, h in entries]
        tables += [character_table((1,)), ButsonMatrix(t4.exps * 3, 12), ButsonMatrix(h6.exps * 2, 8)]
        tables += [tensor(a, b) for a in tables[:8] for b in (t4, h6, character_table((3,)))]
        for h in tables[:8] + [character_table((6,)), ButsonMatrix(t4.exps * 2, 8)]:
            n = h.n
            for phases in ([0] * n, [rng.randrange(h.r) for _ in range(n)], [h.r // 2] * n):
                tables.append(monomial_transform(h, rng.sample(range(n), n), range(n), phases, [0] * n))
        for h in tables:
            c = classify(h)
            assert type(c.root_order) is int
            assert c.root_order == oracles.classify_root_order(h)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=3), st.integers(1, 8), st.data())
    def test_equals_lcm_oracle_on_drawn_tables(self, moduli, scale, data):
        t = character_table(moduli)
        assume(t.r * scale <= 64 and t.n <= 64)
        h = ButsonMatrix(t.exps * scale, t.r * scale)
        n = h.n
        phases = st.lists(st.integers(0, h.r - 1), min_size=n, max_size=n)
        perm = st.permutations(range(n))
        h = monomial_transform(h, data.draw(perm), data.draw(perm), data.draw(phases), data.draw(phases))
        assert classify(h).root_order == oracles.classify_root_order(h)


class TestConferenceLift:
    def test_order_2(self):
        h = conference_lift([[0, 1], [1, 0]])
        assert verify(h)
        assert h.exps.tolist() == [[0, 0], [0, 2]]

    def test_order_6_from_quadratic_residues(self, h6):
        assert verify(h6)
        assert classify(h6).kind == "turyn"
        assert h6.n == 6

    @pytest.mark.parametrize(
        "c, message",
        [
            ([[0, 1], [1]], r"^conference matrix must be square, got shape \(2,\)$"),
            ([[0, 1.0], [1.0, 0]], "^conference matrix entries must be integers$"),
        ],
        ids=["ragged", "float"],
    )
    def test_malformed_table_refused_as_any_table(self, c, message):
        with pytest.raises(ChdError, match=message) as err:
            conference_lift(c)
        assert type(err.value) is ChdError

    def test_a_uint64_entry_past_int64_is_not_read_as_minus_one(self):
        # as int64, 2**64 - 1 would be -1 and [[0, -1], [-1, 0]] a conference matrix
        big = np.uint64(2**64 - 1)
        with pytest.raises(PreconditionError, match="must be \\+-1 off the diagonal"):
            conference_lift([np.array([0, big], np.uint64), np.array([big, 0], np.uint64)])

    def test_non_conference_rejected(self):
        bad = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        with pytest.raises(PreconditionError, match=r"C\^T C"):
            conference_lift(bad)

    def test_lift_forms_no_matrix_product(self):
        # verify of the lift decides C^T C = (n-1) I, so C itself is never multiplied
        class NoProduct(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("conference_lift multiplied C")

            __rmatmul__ = __matmul__

        c = paley_conference(13)
        assert conference_lift(c.view(NoProduct)) == conference_lift(c)

    def test_paley_matrix_is_symmetric_conference(self):
        for q in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113):
            c = paley_conference(q)
            assert np.array_equal(c, c.T)
            assert np.array_equal(c.T @ c, q * np.eye(q + 1, dtype=np.int64))
            # the core is the quadratic character of j - i, by Euler's criterion
            legendre = [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)]
            assert all(c[1 + i, 1 + j] == legendre[(j - i) % q] for i in range(q) for j in range(q))
            assert c[0, 1:].tolist() == c[1:, 0].tolist() == [1] * q and c[0, 0] == 0

    def test_paley_orders_refused(self):
        for q in (5.0, True, 3, 7, 9, 21, -3):
            with pytest.raises(ChdError):
                paley_conference(q)
        assert np.array_equal(paley_conference(np.int64(13)), paley_conference(13))

    def test_paley_cap_checked_before_building(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_VERTICES", 4)
        with pytest.raises(ScaleError):
            paley_conference(5)


class TestMonomialTransform:
    def test_identity(self, t4):
        n = t4.n
        same = monomial_transform(t4, range(n), range(n), [0] * n, [0] * n)
        assert same == t4

    def test_row_swap_preserves_verify(self, f8):
        n = f8.n
        perm = [1, 0] + list(range(2, n))
        out = monomial_transform(f8, perm, range(n), [0] * n, [0] * n)
        assert verify(out)

    def test_random_transforms_verify_and_redephase(self, t4, f8, h6):
        rng = random.Random(5)
        for h in (t4, f8, h6):
            n = h.n
            for _ in range(10):
                rp = list(range(n))
                cp = list(range(n))
                rng.shuffle(rp)
                rng.shuffle(cp)
                rph = [rng.randrange(h.r) for _ in range(n)]
                cph = [rng.randrange(h.r) for _ in range(n)]
                out = monomial_transform(h, rp, cp, rph, cph)
                assert verify(out)
                re = dephase(out)
                assert re.is_dephased()
                assert verify(re)

    def test_length_mismatch_rejected(self, t4):
        with pytest.raises(ChdError):
            monomial_transform(t4, [0, 1], range(4), [0] * 4, [0] * 4)

    def test_entries_that_are_not_integers_refused(self, t4):
        # a float phase was truncated and True taken as phase 1; a float
        # permutation entry ended in a bare IndexError
        ident, zeros = [0, 1, 2, 3], [0] * 4
        for bad in ([0.5, 0, 0, 0], [1.7, 0, 0, 0], [True, 0, 0, 0]):
            for args in ((ident, ident, bad, zeros), (ident, ident, zeros, bad)):
                with pytest.raises(ChdError):
                    monomial_transform(t4, *args)
        for bad in ([0.0, 1, 2, 3], [0, True, 2, 3]):
            for args in ((bad, ident, zeros, zeros), (ident, bad, zeros, zeros)):
                with pytest.raises(ChdError):
                    monomial_transform(t4, *args)

    def test_phases_taken_mod_r(self):
        # 2**62 + 2**62 used to wrap in int64; 2**70 overflowed it
        t3 = character_table((3,))
        for big in (2**62, 2**70, np.int64(2**62)):
            want = monomial_transform(t3, range(3), range(3), [int(big) % 3] * 3, [int(big) % 3] * 3)
            assert monomial_transform(t3, range(3), range(3), [big] * 3, [big] * 3) == want


class TestStructureTheorems:
    def test_real_orders_in_library(self):
        # a verified all +-1 matrix exists only at n = 2 or n = 0 mod 4
        for order in (2, 4, 8):
            h = sylvester_hadamard(order)
            assert classify(h).kind == "real"
            assert order == 2 or order % 4 == 0

    def test_library_is_built_once_and_read_only(self):
        # one mapping, so the same matrix objects on every call
        lib = instance_library()
        assert instance_library() is lib and isinstance(lib, MappingProxyType)
        for items in lib.values():
            assert type(items) is tuple and all(type(item) is tuple for item in items)
        with pytest.raises(TypeError):
            lib[2] = ()
        with pytest.raises(AttributeError):
            lib[2].append(("x", sylvester_hadamard(2)))

    def test_turyn_implies_even_order(self):
        lib = instance_library()
        for n, items in lib.items():
            for _, h in items:
                assert verify(h)
                if classify(h).kind in ("real", "turyn"):
                    assert n % 2 == 0

    def test_no_real_order_6(self):
        # exhaustive search over +-1 second rows shows no order-6 real
        # Hadamard can extend the all-ones row: any two +-1 rows of odd
        # overlap parity fail orthogonality; quick spot check via verify
        rng = random.Random(1)
        for _ in range(200):
            exps = np.zeros((6, 6), dtype=int)
            exps[1:, :] = rng.getrandbits(1)
            for i in range(1, 6):
                for j in range(6):
                    exps[i, j] = rng.getrandbits(1)
            h = ButsonMatrix(exps, 2)
            assert not verify(h)
