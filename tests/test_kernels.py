"""Differential tests: the bulk graph and exponent-table loaders, the
table-driven reduction, verify and certify with their split-prime zero
test, the split cut tables, the integer characteristic polynomial,
rational spectrum extraction and revival search against the loop kernels
kept in ``oracles``, and the four revival entry points against each
other."""

import itertools
import math
import random
from collections import Counter
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
    ExactnessError,
    InternalCheckError,
    RationalAngle,
    ScaleError,
    SimplicityError,
    WeightedGraph,
    cayley,
    cayley_fr_conditions,
    certify,
    character_table,
    check_fr,
    cheeger,
    cocktail_party,
    complement,
    complete,
    complete_multipartite,
    cycle,
    double,
    double_cover_fr,
    exact_rational_spectrum,
    find_fr,
    hypercube,
    instance_library,
    merge,
    min_edge_density,
    neps,
    product,
    strongly_cospectral,
    verify,
    walks,
)
from chd import cyclotomic, graphs, hadamard, spectral
from chd.cyclotomic import (
    FLOAT64_BOUND,
    INT64_BOUND,
    MAX_ORDER,
    cyclotomic_polynomial,
    product_dtype,
    reduce,
    reduction_table,
)
from chd.diagonalise import _laplacians_of
from chd.spectral import _cut_tables, _is_spectrum, cheeger_value_of

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

    @pytest.mark.parametrize("r", [2, 5, 12])
    @pytest.mark.parametrize("below", [True, False])
    def test_either_side_of_the_float64_bound(self, r, below):
        # the largest entry m puts r * m (R_r's entries are 0 or +-1 here)
        # just below 2**53, a float64 product, or just above, int64; a row
        # of +-m and -+(m - 1) sums to an odd number near 2**53, which
        # float64 would round
        m = (FLOAT64_BOUND - 1) // r if below else FLOAT64_BOUND // r + 1
        rng = random.Random(r)
        rows = [[m if k % 2 else 1 - m for k in range(r)], [1 - m if k % 2 else m for k in range(r)]]
        rows += [[rng.randint(-m, m) for _ in range(r)] for _ in range(20)]
        weights = np.array(rows, dtype=np.int64)
        assert product_dtype(weights, r) is (np.float64 if below else np.int64)
        got = reduce(weights, r)
        assert [tuple(x) for x in got.tolist()] == [oracles.reduce(row, r) for row in rows]

    def test_root_order_cap(self):
        assert reduction_table(MAX_ORDER).shape == (MAX_ORDER, MAX_ORDER // 2)
        for make in (
            lambda: cyclotomic_polynomial(MAX_ORDER + 1),
            lambda: CyclotomicInt(MAX_ORDER + 1, [0, 1] + [0] * (MAX_ORDER - 1)),
            lambda: CyclotomicInt(60000, (0,) * 60000),
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

    @pytest.mark.parametrize("bits", [41, 49, 61])
    def test_int64_and_object_paths(self, bits):
        # a reduction of the Laplacian has the bound n * max|L|: below
        # 2**53 at 2**41 (float64), below 2**62 at 2**49 (int64); at 2**61
        # n * max exceeds 2**62, so storage and reduction use Python ints;
        # certify reduces L mod each split prime, as its row sums pass p
        z44 = AbelianGroup((4, 4))
        g = merge(
            cayley(z44, [(1, 0), (3, 0), (0, 1), (0, 3)]),
            cayley(z44, [(1, 1), (3, 3), (2, 0)]),
            Fraction(2**bits + 1, 5),
            Fraction(2**bits - 1, 7),
        )
        assert g.scale == 35
        assert max(g.matrix.flat) > 2**bits
        assert g.matrix.dtype == (np.int64 if bits < 61 else object)
        tier = [np.float64, np.int64, object][[41, 49, 61].index(bits)]
        assert product_dtype(g.integer_matrix("laplacian")[0], 4) is tier
        spec = _same_certificate(g, double(character_table((4, 4))))
        assert spec is not None
        assert WeightedGraph.from_json(g.to_json()) == g
        assert hash(WeightedGraph.from_json(g.to_json())) == hash(g)


def _shuffled_columns(rng, h):
    """h with columns 1.. in a random order; it stays dephased."""
    cols = [0] + rng.sample(range(1, h.n), h.n - 1)
    return ButsonMatrix(h.exps[:, cols], h.r)


def _symmetric_connection(rng, group, pairs, involutions=0):
    els = group.elements()[1:]
    twos = sorted({min(el, group.neg(el)) for el in els if el != group.neg(el)})
    conn = {el for x in rng.sample(twos, pairs) for el in (x, group.neg(x))}
    return sorted(conn | set(rng.sample([el for el in els if el == group.neg(el)], involutions)))


def _ladder_pairs(rng):
    """The graph, matrix and target families of the certify-ladder benchmark."""
    ct = character_table
    pairs = [(hypercube(d), ct((2,) * d), "laplacian") for d in (5, 6, 7, 8)]
    pairs += [(cycle(n), ct((n,)), "laplacian") for n in (32, 64, 128)]
    for moduli in ((3,) * 4, (4,) * 3, (5,) * 3, (6, 6)):
        group = AbelianGroup(moduli)
        pairs.append((cayley(group, _symmetric_connection(rng, group, 4)), ct(moduli), "laplacian"))
    c8 = cycle(8)
    basis = rng.choice([[(1, 0), (0, 1)], [(1, 1)], [(1, 0), (1, 1)]])
    pairs.append((neps([c8, c8], basis), hadamard.tensor(ct((8,)), ct((8,))), "laplacian"))
    z44, z88 = AbelianGroup((4, 4)), AbelianGroup((8, 8))
    g1, g2 = (cayley(z44, _symmetric_connection(rng, z44, 3)) for _ in range(2))
    pairs.append((merge(g1, g2, Fraction(5, 2), Fraction(1, 4)), double(ct((4, 4))), "laplacian"))
    pairs.append((cayley(z88, _symmetric_connection(rng, z88, 4, 1)), ct((8, 8)), "adjacency"))
    return pairs


def _library_pairs():
    """Every library table with the graphs it diagonalises with integer
    eigenvalues, under both targets, and K_n."""
    for tables in instance_library().values():
        for _, h in tables:
            adjs = _laplacians_of(h)[1]
            for g in [complete(h.n)] + [WeightedGraph(adj) for adj in adjs]:
                yield g, h, "laplacian"
                yield g, h, "adjacency"


class TestEntriesAgainstColumns:
    """certify builds one entry per distinct coefficient row; expanded
    through the index, each column's entry is the one built from that
    column alone."""

    @staticmethod
    def _same_entries(g, h, target):
        spec = certify(g, h, target)
        assert spec is not None
        got = [(e.cyclo.coeffs, e.scale, e.rational) for e in spec.entries]
        assert got == oracles.column_entries(g, h, target)
        rows = [e.cyclo.coeffs for e in spec.values]
        assert len(set(rows)) == len(rows)  # one entry per distinct row
        assert spec.index[0] == 0 and max(spec.index) == len(rows) - 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_library_tables_with_shuffled_columns(self, seed):
        rng = random.Random(seed)
        for g, h, target in _library_pairs():
            self._same_entries(g, _shuffled_columns(rng, h), target)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_certify_ladder_families_with_shuffled_columns(self, seed):
        rng = random.Random(seed)
        for g, h, target in _ladder_pairs(rng):
            self._same_entries(g, _shuffled_columns(rng, h), target)


def _corrupt_last_column(h):
    """h with one entry of its last column moved, marked verified so that
    certify runs on it: every other column is still an eigenvector."""
    exps = h.exps.copy()
    exps[-1, -1] = (exps[-1, -1] + 1) % h.r
    bad = ButsonMatrix(exps, h.r)
    bad._verified = True
    return bad


class TestBlocks:
    """certify and verify give the same answers in blocks of 1 and 3 as in
    one block, and a fault in the last block is caught."""

    PAIRS = [
        (hypercube(5), character_table((2,) * 5)),
        (cycle(16), character_table((16,))),
        (cayley(AbelianGroup((3, 3)), [(1, 0), (2, 0), (1, 1), (2, 2)]), character_table((3, 3))),
    ]

    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_certify(self, monkeypatch, cols, pair):
        g, h = self.PAIRS[pair]
        monkeypatch.setattr(graphs, "BLOCK", cols * g.n)
        assert _same_certificate(g, h) is not None
        for target in ("laplacian", "adjacency"):
            bad = _corrupt_last_column(h)
            assert oracles.certify(g, bad, target) is None
            assert certify(g, bad, target) is None

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("moduli", [(2,) * 5, (3, 3), (4, 2), (5,), (12,)])
    def test_verify(self, monkeypatch, rows, moduli):
        h = character_table(moduli)
        monkeypatch.setattr(graphs, "BLOCK", rows * h.n)
        assert verify(ButsonMatrix(h.exps, h.r))
        for i, j in ((h.n - 1, h.n - 1), (h.n - 2, h.n - 1), (0, h.n - 1), (h.n - 1, None)):
            exps = h.exps.copy()
            if j is None:
                # the last row becomes z times the one before: only that pair
                # fails, and at r = 4 only in the coordinate of i (n z**-1)
                exps[i] = exps[i - 1] + 1
            else:
                exps[i, j] += 1
            assert not oracles.verify((exps % h.r).tolist(), h.r)
            assert not verify(ButsonMatrix(exps, h.r))


@st.composite
def large_cayley_pairs(draw):
    """A Cayley graph of 64 to 256 vertices and its character table."""
    moduli = draw(
        st.sampled_from(
            [(2,) * 8, (4,) * 4, (2,) * 6, (8, 8), (3,) * 5, (16, 16), (32, 8), (64, 4), (256,), (100,)]
        )
    )
    group = AbelianGroup(moduli)
    return cayley(group, _connection(draw, group)), character_table(moduli)


class TestCertifyAgainstEigensolver:
    """Past the loop oracle's reach: the certified spectrum of a Cayley graph
    is the float eigensolver's, eigenvalue by eigenvalue."""

    @settings(max_examples=20, deadline=None)
    @given(large_cayley_pairs())
    def test_cayley_graphs(self, pair):
        g, h = pair
        spec = certify(g, h)
        assert spec is not None
        got = np.sort(np.array([e.to_complex() for e in spec.entries]))
        assert np.abs(got.imag).max() < 1e-9
        want = np.linalg.eigvalsh(g.laplacian_float())
        assert np.allclose(np.sort(got.real), want, atol=1e-8)


@st.composite
def corrupted_tables(draw):
    moduli = draw(
        # phi(r) <= 4 and past it, the last three of each at n >= 64
        st.sampled_from([
            (2, 2, 2), (4,), (6,), (3, 3), (8,), (2, 4), (5,), (12,), (2,) * 6, (4, 4, 4), (8, 8),
            (7,), (16,), (9,), (16, 4), (7, 7, 2), (32, 2),
        ])
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


def _sieve(limit: int) -> np.ndarray:
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = False
    return is_prime


def _cosets(exps, r):
    return len(cyclotomic.unit_cosets(exps, r))


def _not_closed(h):
    """h is dephased and neither its rows nor its columns are closed under
    e -> k e for every unit k, so the zero test takes more than g."""
    assert h.is_dephased() and _cosets(h.exps, h.r) > 1 and _cosets(h.exps.T, h.r) > 1
    return h


def _closed_once_dephased(h):
    """h's rows are not closed under every unit as they stand, but those of
    its dephased form are, so verify evaluates at g alone."""
    rows = {tuple(e) for e in h.exps.tolist()}
    units = [k for k in range(2, h.r) if math.gcd(k, h.r) == 1]
    assert any({tuple(e) for e in (k * h.exps % h.r).tolist()} != rows for k in units)
    assert _cosets(h.exps, h.r) == 1
    return h


def _split_prime_tables():
    """(name, matrix, graph it diagonalises): closed character tables at
    root orders with one, two and three prime factors, tables that are not
    closed: the conference-6 lift and tensors with it, one of which is
    closed under half the units, and monomial transforms with random
    phases, which are closed once dephased."""
    rng = random.Random(14)
    h6 = hadamard.conference_lift(hadamard.paley_conference(5))
    out = [
        (str(m), character_table(m), cayley(AbelianGroup(m), [(1,) + (0,) * (len(m) - 1), (-1,) + (0,) * (len(m) - 1)]))
        for m in [(9,), (16,), (12,), (4, 6), (30,), (2, 3, 5)]
    ]
    out.append(("conference-6", _not_closed(h6), complete(6)))
    for m in (4, 8):
        out.append((f"conference-6 x Z{m}", _not_closed(hadamard.tensor(h6, character_table((m,)))),
                    graphs.product(complete(6), cycle(m), "cartesian")))
    for m in [(12,), (3, 3), (8,)]:
        t = character_table(m)
        n = t.n
        phases = [[rng.randrange(t.r) for _ in range(n)] for _ in range(2)]
        out.append((f"monomial {m}", _closed_once_dephased(hadamard.monomial_transform(
            t, rng.sample(range(n), n), rng.sample(range(n), n), *phases)), None))
    return out


SPLIT_PRIME_TABLES = _split_prime_tables()


class TestSplitPrimeZeroTest:
    """verify and certify decide by evaluation at split primes; every
    decision is the long-division oracle's."""

    @pytest.mark.parametrize("case", range(len(SPLIT_PRIME_TABLES)), ids=[c[0] for c in SPLIT_PRIME_TABLES])
    def test_tables_against_oracles(self, case):
        _, h, g = SPLIT_PRIME_TABLES[case]
        assert oracles.verify(h.exps.tolist(), h.r)
        assert verify(ButsonMatrix(h.exps, h.r))
        if g is not None:
            for target in ("laplacian", "adjacency"):
                assert _same_certificate(g, h, target) is not None
                assert _same_certificate(g, _corrupt_last_column(h), target) is None

    @pytest.mark.parametrize("case", range(len(SPLIT_PRIME_TABLES)), ids=[c[0] for c in SPLIT_PRIME_TABLES])
    def test_every_one_entry_corruption_rejected(self, case):
        # moving one entry of row i changes <h_i, h_k> by a nonzero amount
        # for every k != i, so no such table is Hadamard
        _, h, _ = SPLIT_PRIME_TABLES[case]
        exps = h.exps.copy()
        for i in range(h.n):
            for j in range(h.n):
                for shift in range(1, h.r):
                    exps[i, j] = (h.exps[i, j] + shift) % h.r
                    assert not verify(ButsonMatrix(exps, h.r)), (i, j, shift)
                exps[i, j] = h.exps[i, j]

    def test_corruptions_against_the_oracle_where_it_is_cheap(self):
        rng = random.Random(5)
        for name, h, _ in SPLIT_PRIME_TABLES[:4] + SPLIT_PRIME_TABLES[6:8] + SPLIT_PRIME_TABLES[9:]:
            for _ in range(5):
                exps = h.exps.copy()
                i, j = rng.randrange(h.n), rng.randrange(h.n)
                exps[i, j] = (exps[i, j] + rng.randrange(1, h.r)) % h.r
                assert verify(ButsonMatrix(exps, h.r)) == oracles.verify(exps.tolist(), h.r) is False, name

    @pytest.mark.parametrize("r", [64, 105])
    def test_one_embedding_alone_is_not_enough(self, r):
        # two 0/1 vectors with equal sums of g**e mod p (a birthday
        # collision among 4000) differ by a nonzero x with x(g) = 0 mod p;
        # only the other embeddings show that x is not 0
        p, g = cyclotomic.split_prime(r)
        rng = np.random.default_rng(r)
        values = np.array([pow(g, e, p) for e in range(r)], dtype=np.int64)
        subsets = rng.integers(0, 2, size=(4000, r))
        sums = subsets @ values % p
        order = np.argsort(sums, kind="stable")
        i = next(i for i in range(len(order) - 1) if sums[order[i]] == sums[order[i + 1]])
        x = subsets[order[i]] - subsets[order[i + 1]]
        assert any(oracles.reduce(x.tolist(), r))

        def residues(p, powers):
            yield np.array([x @ powers[:r]])

        bound = int(np.abs(x).sum())
        # rows [0, ..., 0] and [0, 1, ..., r-1] are not closed under
        # e -> k e, so every unit is tried; a single row [0] is, and g
        # alone is taken
        assert not cyclotomic.vanishes(residues, np.arange(r) * np.arange(2)[:, None], r, bound)
        assert cyclotomic.vanishes(residues, np.zeros((1, 1), dtype=np.int64), r, bound)

    def test_huge_weights_take_further_primes(self, monkeypatch):
        # W is about 2**74, so the product of primes must pass 20 W: four
        # primes of about 2**20.5
        used = []
        split_prime = cyclotomic.split_prime
        monkeypatch.setattr(cyclotomic, "split_prime", lambda r, i=0: used.append(i) or split_prime(r, i))
        z44 = AbelianGroup((4, 4))
        g = merge(
            cayley(z44, [(1, 0), (3, 0), (0, 1), (0, 3)]),
            cayley(z44, [(1, 1), (3, 3), (2, 0)]),
            Fraction(2**70 + 1, 5),
            Fraction(2**70 - 1, 7),
        )
        assert g.matrix.dtype == object
        h = double(character_table((4, 4)))
        assert _same_certificate(g, h) is not None
        assert max(used) >= 3
        assert _same_certificate(g, _corrupt_last_column(h)) is None

    def test_split_primes(self):
        limit = math.isqrt((FLOAT64_BOUND - 1) // 4097) + 1
        is_prime = _sieve(limit)
        for r in range(1, MAX_ORDER + 1):
            p, g = cyclotomic.split_prime(r)
            assert is_prime[p] and p % r == 1 % r and 4097 * (p - 1) ** 2 < FLOAT64_BOUND
            assert not is_prime[p + r : limit + 1 : r].any()  # the largest such prime
            powers = [1]
            while len(powers) == 1 or powers[-1] != 1:
                powers.append(powers[-1] * g % p)
            assert len(powers) - 1 == r  # the order of g is exactly r
        for r in (1, 2, 7, 128, 1021):
            ps = [cyclotomic.split_prime(r, i)[0] for i in range(4)]
            assert ps == sorted(ps, reverse=True) and len(set(ps)) == 4
            assert all(is_prime[q] and q % r == 1 % r for q in ps)

    @pytest.mark.parametrize("r", [1, 2, 8, 15, 16, 24, 63, 105, 128, 1021])
    def test_unit_cosets_against_the_stabiliser(self, r):
        # rows: the orbit of random rows under the group spanned by random
        # units, so the stabiliser S is that group or larger; it is found by
        # trying every unit, and unit_cosets must give one unit per coset
        units = [k for k in range(r) if math.gcd(k, r) == 1] or [0]
        rng = random.Random(r)
        for trial in range(6):
            span = {1 % r, *rng.sample(units, min(trial, len(units)))}
            while not (grown := {a * b % r for a in span for b in span}) <= span:
                span |= grown
            # a zero row and a zero column, so that the table is dephased
            seeds = np.array([[0] * 5] + [[0] + [rng.randrange(r) for _ in range(4)] for _ in range(2)])
            exps = np.unique(np.concatenate([k * seeds % r for k in span]), axis=0)
            rows = {tuple(e) for e in exps.tolist()}
            stab = {k for k in units if {tuple(e) for e in (k * exps % r).tolist()} == rows}
            cosets = cyclotomic.unit_cosets(exps, r)
            assert cosets[0] == 1 % r and span <= stab
            assert sorted(k * s % r for k in cosets for s in stab) == units


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
        b = WeightedGraph(np.array([[0, 2, 0], [2, 0, 4], [0, 4, 0]]), 4)
        assert a == b and hash(a) == hash(b)
        assert a.scale == 2 and a.matrix.tolist() == [[0, 1, 0], [1, 0, 2], [0, 2, 0]]
        assert [w for _, _, w in a.edges()] == [Fraction(1, 2), Fraction(1)]


def _outcome(load, *args):
    """What a loader makes of its input: the stored arrays, or the type and
    text of what it raised."""
    try:
        out = load(*args)
    except Exception as err:
        return type(err), str(err)
    if isinstance(out, WeightedGraph):
        return out.matrix.dtype, out.matrix.tolist(), out.scale
    return out.dtype, out.tolist()


_HUGE = [2**70, -(2**70)]
# mostly well-formed edges, so that accepted lists, repeats and each
# malformed kind all turn up; an item is malformed about one time in eight
_pairs = st.sampled_from([(u, v) for u in range(6) for v in range(6) if u != v])
_odd_vertices = st.sampled_from(
    [-1, 5, np.int64(5), np.int64(-1), *_HUGE, True, False, 0.0, 1.5, "1", None]
)
_good_weights = st.one_of(
    st.integers(0, 3),
    st.integers(0, 3).map(np.int64),
    st.fractions(min_value=0, max_value=3, max_denominator=6),
    st.fractions(min_value=0, max_value=3, max_denominator=6).map(str),
)
_odd_weights = st.sampled_from(
    ["-1", " 2/4 ", "1/0", "abc", "1.5", True, False, 1.0, None, [1], {"w": 1}, 2**70]
)
_odd_items = st.sampled_from([5, "01", None, [0], [0, 1, "1", 2], {"u": 0, "v": 1}, ()])


@st.composite
def _edge(draw):
    u, v = draw(_pairs)
    kind = draw(st.sampled_from(["pair", "weighted"] * 7 + ["vertex", "weight", "item", "loop"]))
    if kind == "vertex":
        u = draw(_odd_vertices)
    elif kind == "loop":
        v = u
    elif kind == "item":
        return draw(_odd_items)
    if kind == "pair":
        return [u, v] if draw(st.booleans()) else (u, v)
    weight = draw(_odd_weights if kind == "weight" else _good_weights)
    return [u, v, weight]


_edges = st.lists(_edge(), max_size=6)
# the container an edge list comes in; a generator is made afresh per load
_containers = st.sampled_from([list, tuple, iter])

_entries = st.one_of(
    st.integers(-3, 9),
    st.integers(-3, 9).map(np.int64),
    st.integers(0, 9).map(np.int32),
    st.sampled_from([*_HUGE, 2**63 - 1, -(2**63), 2**63, True, False, 1.0, 1.6,
                     np.float64(1.0), np.True_, "1", None, [1]]),
)


@st.composite
def exponent_tables(draw):
    """Square tables of lists or tuples, with ragged, empty, deeper and
    non-list tables among them."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["lists"] * 6 + ["tuples", "ragged", "deep", "other"]))
    if kind == "tuples":
        return tuple(map(tuple, rows))
    if kind == "ragged":
        return rows[:-1] + [rows[-1] + draw(st.lists(_entries, min_size=1, max_size=2))]
    if kind == "deep":
        return [[[e] for e in row] for row in rows]
    if kind == "other":
        return draw(st.sampled_from(
            [[], [[]], [[], []], 5, "ab", None, {"exps": rows}, rows[0], np.ones((n, n))]
        ))
    return rows


class TestLoadersAgainstLoop:
    """The bulk loaders accept exactly what the per-edge and object-array
    loaders accept and store the same arrays; otherwise they raise the same
    exception with the same text."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([6, 6, 6, 0, 4, 5]), _edges, _containers)
    def test_edge_lists(self, n, edges, container):
        new = _outcome(lambda: WeightedGraph.from_edges(n, container(edges)))
        assert new == _outcome(lambda: oracles.graph_from_edges(n, container(edges)))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, []),
            (3, [(np.int64(0), np.int64(1)), (1, np.int64(2), "1/3")]),
            (3, [[0, 1], [1, 2], [2**70, 0]]),
            (3, [[0, 1], [-(2**70), 0]]),
            (2, [[0, 1, True]]),
            (3, [[0, 1, 1], [1, 2, True]]),
            (3, [[0, 1, np.int64(1)], [1, 2, "1"], [0, 2, Fraction(1)]]),
            (2, [[0, 1, 1.0]]),
            (2, [[0, 1, [1]]]),
            (2, [[0, 1, {"w": 1}]]),
            (3, [[0, 1, "abc"], [True, 2]]),
            (3, [[0, 1, "1/2"], [1, 2, "1/3"], [0, 2, 2]]),
            (3, [[0, 1, "0"], [0, 1, "1"]]),
            (3, [[0, 1, "1"], [1, 0, "0"]]),
            (3, [[0, 1], [1, 0], [5, 5]]),
            (3, [[0, 1], [2, 2], [1, 0]]),
            (3, [[0, 1, "-1"], [1, 2]]),
            (3, [[0, 1, 2**70], [1, 2, 1]]),
        ],
    )
    @pytest.mark.parametrize("container", [list, tuple, iter])
    def test_edge_list_examples(self, n, edges, container):
        new = _outcome(lambda: WeightedGraph.from_edges(n, container(edges)))
        assert new == _outcome(lambda: oracles.graph_from_edges(n, container(edges)))

    @settings(max_examples=400, deadline=None)
    @given(exponent_tables(), st.integers(1, 12))
    def test_exponent_tables(self, exps, r):
        new = _outcome(lambda: ButsonMatrix(exps, r).exps)
        assert new == _outcome(oracles.exponent_table, exps, r)

    @pytest.mark.parametrize(
        "exps",
        [
            [[0, 2**70], [-(2**70), 3]],
            [[0, 2**63], [1, 0]],
            [[np.int64(1), np.int32(2)], [0, 3]],
            [[0, True], [0, 0]],
            [[0, 1.0], [0, 0]],
            [[0, 0], [0]],
            [np.array([0, 0]), np.array([0, 1])],
            [[[0], [1]], [[0], [1]]],
            [],
            [[]],
            "ab",
            5,
        ],
    )
    def test_exponent_table_examples(self, exps):
        assert _outcome(lambda: ButsonMatrix(exps, 4).exps) == _outcome(
            oracles.exponent_table, exps, 4
        )

    @pytest.mark.parametrize(
        "exps",
        [
            [np.array([0, 2**64 - 1], np.uint64), np.array([0, 1], np.uint64)],
            np.array([[0, np.uint64(2**64 - 1)], [0, np.uint64(1)]], dtype=object),
            [[0, np.uint64(2**64 - 1)], [0, 1]],
        ],
        ids=["uint64-rows", "uint64-objects", "uint64-in-a-list"],
    )
    def test_a_uint64_exponent_past_int64_is_read_exactly(self, exps):
        # 2**64 - 1 is 0 mod 3; the same bits read as int64 are -1, or 2 mod 3
        assert _outcome(lambda: ButsonMatrix(exps, 3).exps) == _outcome(
            oracles.exponent_table, exps, 3
        )


@pytest.mark.parametrize(
    "table, accepted",
    [
        ([[0, 1], [1, 0]], True),
        ([[0, True], [1, 0]], False),
        (
            np.array([[np.int64(0), np.int64(1)], [np.int64(1), np.int64(0)]], dtype=object),
            True,
        ),
        ([np.array([0, 1]), np.array([1, 0])], True),
    ],
    ids=["lists", "mixed-bool-row", "object-array-of-int64", "int64-rows"],
)
def test_one_verdict_per_table_from_every_reader(table, accepted):
    """Exponent tables, weight matrices and conference matrices are read
    by one rule: each spelling of [[0, 1], [1, 0]] is accepted by all three
    constructors, or refused by all three as not integers."""
    outcomes = [
        _outcome(lambda: ButsonMatrix(table, 2).exps),
        _outcome(lambda: WeightedGraph(table).matrix),
        _outcome(lambda: hadamard.conference_lift(table).exps),
    ]
    if accepted:
        assert outcomes == [
            (np.int64, [[0, 1], [1, 0]]), (np.int64, [[0, 1], [1, 0]]), (np.int64, [[0, 0], [0, 2]])
        ]
    else:
        assert outcomes == [
            (ChdError, "exponents must be integers"),
            (ChdError, "weights must be integers"),
            (ChdError, "conference matrix entries must be integers"),
        ]


class TestRepeatedPair:
    @pytest.mark.parametrize(
        "edges, text",
        [
            ([[0, 1, "0"], [0, 1, "1"]], "duplicate edge (0, 1)"),
            ([[0, 1, "1"], [0, 1, "0"]], "duplicate edge (0, 1)"),
            ([[0, 1, "0"], [1, 0, "0"]], "duplicate edge (1, 0)"),
            ([[0, 2], [0, 1], [2, 0, "1/2"], [1, 0]], "duplicate edge (2, 0)"),
        ],
    )
    def test_refused_whatever_the_weights(self, edges, text):
        with pytest.raises(SimplicityError) as err:
            WeightedGraph.from_edges(3, edges)
        assert str(err.value) == text

    def test_first_fault_in_file_order(self):
        # the repeat comes before the malformed edge, so it is the one named
        with pytest.raises(SimplicityError, match=r"duplicate edge \(1, 0\)"):
            WeightedGraph.from_edges(3, [[0, 1], [1, 0], [0, 1, "abc"]])
        with pytest.raises(ChdError, match="cannot interpret 'abc'"):
            WeightedGraph.from_edges(3, [[0, 1], [0, 2, "abc"], [1, 0]])


@st.composite
def cut_graphs(draw):
    """Graphs on 2-12 vertices with integer or rational weights; when
    ``split`` falls inside, no edge crosses it and the graph is disconnected."""
    n = draw(st.integers(2, 12))
    split = draw(st.integers(1, 2 * n))
    den = st.integers(1, 4) if draw(st.booleans()) else st.just(1)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u < split) == (v < split) and draw(st.booleans()):
                edges.append((u, v, Fraction(draw(st.integers(1, 9)), draw(den))))
    return WeightedGraph.from_edges(n, edges)


@st.composite
def sparse_graphs(draw):
    """Randomly relabelled cycles, paths, trees and disjoint unions of them
    on at most 14 vertices, the sparse graphs whose boundary patterns the
    cut tables multiply; weights 1 or drawn from 1-9."""
    pieces, n, edges = draw(st.integers(1, 3)), 0, []
    for _ in range(pieces):
        kind, size = draw(st.sampled_from(["cycle", "path", "tree"])), draw(st.integers(2, 6))
        if kind == "tree":
            edges += [(n + v, n + draw(st.integers(0, v - 1))) for v in range(1, size)]
        else:
            edges += [(n + v, n + v + 1) for v in range(size - 1)]
            if kind == "cycle" and size > 2:
                edges.append((n, n + size - 1))
        n += size
    perm = draw(st.permutations(range(n)))
    weight = st.integers(1, 9) if draw(st.booleans()) else st.just(1)
    return WeightedGraph.from_edges(n, [(perm[u], perm[v], draw(weight)) for u, v in edges])


def _mask(subset) -> int:
    return sum(1 << u for u in subset)


def _same_minimum(g, kind):
    value, report = (cheeger if kind == "cheeger" else min_edge_density)(g)
    assert (value, _mask(report.subset)) == oracles.cut_minimum(g, kind)


def _tables(g):
    """The cut, volume and size tables rebuilt from ``_cut_tables``, keyed
    by volume and by size, which must give the same cuts.  Along the way
    each table's columns are checked to be sorted by key, ascending in mask
    within a key, with a run starting exactly where the key changes; its
    ``groups`` to be the least q_hi, the key and the least high mask at that
    q_hi of the rows of one pattern and one key; and its run minima to be
    the least cut of each run over the rows of each group, in chunks that
    cover the groups in order, each of at most half of ``graphs.BLOCK``
    entries or of one run per group, over patterns that fill half a block:
    one pattern more would pass it, unless the chunk is the last."""
    cut, keys = [], {}
    for key in ("volume", "size"):
        t = _cut_tables(g, key)
        rows, width = len(t.q_hi), len(t.lo_masks)
        lo = t.key_lo.tolist()
        assert sorted(zip(lo, t.lo_masks.tolist())) == list(zip(lo, t.lo_masks.tolist()))
        assert t.starts.tolist() == [j for j in range(width) if j == 0 or lo[j] != lo[j - 1]]
        ends = [*t.starts[1:].tolist(), width]
        masks = t.hi_masks[:, None] | t.lo_masks
        assert sorted(masks.ravel().tolist()) == list(range(rows * width))
        pats = np.arange(rows) >> t.shift
        sorted_cuts = (t.q_hi[:, None] + t.left[pats] @ t.right).astype(np.int64)
        key_table = t.key_hi[:, None] + t.key_lo
        q, group_keys, group_masks = t.groups()
        members = []  # the rows of each group, pattern by pattern
        for p in range(len(t.left)):
            own = np.flatnonzero(pats == p)
            assert sorted(group_keys[p].tolist()) == sorted(set(t.key_hi[own].tolist()))
            for c, v in enumerate(group_keys[p].tolist()):
                hs = own[t.key_hi[own] == v]
                members.append(hs)
                assert q[p, c] == t.q_hi[hs].min()
                assert group_masks[p, c] == t.hi_masks[hs[t.q_hi[hs] == q[p, c]]].min()
        groups, runs, half = q.shape[1], len(t.starts), graphs.BLOCK // 2
        chunks = []  # each chunk's patterns and the group slices it was yielded in
        for pats_, cs, minima in t.run_minima(q):
            assert minima.dtype == t.left.dtype
            assert minima.size <= max(half, runs)
            if not chunks or chunks[-1][0] != pats_:
                chunks.append((pats_, []))
            chunks[-1][1].append(cs)
            minima = minima.reshape(pats_.stop - pats_.start, cs.stop - cs.start, runs)
            for p in range(pats_.start, pats_.stop):
                for c in range(cs.start, cs.stop):
                    want = [sorted_cuts[members[p * groups + c], a:b].min() for a, b in zip(t.starts, ends)]
                    assert minima[p - pats_.start, c - cs.start].tolist() == want
        assert [c.start for c, _ in chunks] == [0] + [c.stop for c, _ in chunks[:-1]]
        assert chunks[-1][0].stop == len(q) and q.size == len(members)
        for pats_, css in chunks:
            assert [c.start for c in css] == [0] + [c.stop for c in css[:-1]] and css[-1].stop == groups
            assert pats_.stop == len(q) or (pats_.stop - pats_.start + 1) * groups * runs > half
        table = np.zeros(rows * width, dtype=np.int64)
        table[masks] = sorted_cuts
        cut.append(table.tolist())
        by_mask = np.zeros(rows * width, dtype=np.int64)
        by_mask[masks] = key_table
        keys[key] = by_mask.tolist()
    assert cut[0] == cut[1]
    return cut[0], keys["volume"], keys["size"], t.total, g.scale


class TestCutTablesAgainstLoop:
    @settings(max_examples=40, deadline=None)
    @given(cut_graphs(), st.sampled_from([1, 8, 128, 1 << 15]))
    def test_tables(self, g, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BLOCK", block)
            assert _tables(g) == oracles.subset_tables(g)

    @pytest.mark.parametrize("block", [64, 128, 512])
    @pytest.mark.parametrize(
        "g",
        [complete(12), cycle(12), WeightedGraph.from_edges(11, [(3, 7), (7, 0), (0, 9), (9, 4), (4, 10),
                                                            (10, 1), (1, 6), (6, 2), (2, 8), (8, 5), (5, 3)])],
        ids=["K12", "C12", "C11-relabelled"],
    )
    def test_chunks_fill_half_a_block(self, monkeypatch, g, block):
        # blocks that hold several patterns' run minima but fewer products,
        # so a chunk of one product, or one pattern short, is caught
        monkeypatch.setattr(graphs, "BLOCK", block)
        assert _tables(g) == oracles.subset_tables(g)

    @settings(max_examples=40, deadline=None)
    @given(cut_graphs(), st.sampled_from([1, 2, 8, 1 << 15]))
    def test_min_edge_density(self, g, block):
        # blocks of one row each, or of a few rows, against one pass
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BLOCK", block)
            _same_minimum(g, "density")

    @settings(max_examples=40, deadline=None)
    @given(cut_graphs(), st.sampled_from([1, 2, 8, 1 << 15]))
    def test_cheeger(self, g, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BLOCK", block)
            if g.is_connected():
                _same_minimum(g, "cheeger")
            else:
                value, report = cheeger(g)
                assert value == 0 and report.cut_weight == 0
                assert list(report.subset) == g.components()[0]

    @settings(max_examples=60, deadline=None)
    @given(sparse_graphs(), st.sampled_from([2, 64, 1 << 15]))
    def test_relabelled_sparse_graphs(self, g, block):
        # the high block is a breadth-first ball, whatever the labels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BLOCK", block)
            _same_minimum(g, "density")
            if g.is_connected():
                _same_minimum(g, "cheeger")

    def test_a_relabelled_cycle_has_two_boundary_vertices(self):
        perm = random.Random(24).sample(range(24), 24)
        g = WeightedGraph.from_edges(24, [(perm[u], perm[(u + 1) % 24]) for u in range(24)])
        for key in ("volume", "size"):
            t = _cut_tables(g, key)
            assert t.left.shape == (4, 3) and t.shift == 10

    def test_every_subset_of_the_empty_24_vertex_graph_ties(self):
        # 2**23 subsets at density 0; the witness pass stops after one group
        value, report = min_edge_density(WeightedGraph.from_edges(24, []))
        assert value == 0 and report.subset == (0,)

    @pytest.mark.parametrize("block", [1, 16, 1 << 15])
    @pytest.mark.parametrize(
        "g",
        [complete(7), complete(12), cycle(9), cycle(12), WeightedGraph.from_edges(11, [])],
        ids=["K7", "K12", "C9", "C12", "empty-11"],
    )
    def test_ties_break_to_the_smallest_mask(self, monkeypatch, g, block):
        # every subset of K_n has density n, and of the empty graph 0
        monkeypatch.setattr(graphs, "BLOCK", block)
        _same_minimum(g, "density")
        if g.is_connected():
            _same_minimum(g, "cheeger")

    @pytest.mark.parametrize("block", [1, 8, 1 << 15])
    def test_distinct_low_volumes_make_one_mask_runs(self, monkeypatch, block):
        # the search from vertex 8 meets the path 7-6-5-4 first, so the low
        # vertices are 0-3, of degrees 1, 2, 4 and 8, and each low subset
        # has a volume of its own
        monkeypatch.setattr(graphs, "BLOCK", block)
        edges = [(u, 4, 1 << u) for u in range(4)] + [(u, u + 1, 16) for u in range(4, 8)]
        g = WeightedGraph.from_edges(9, edges)
        t = _cut_tables(g, "volume")
        assert t.lo_masks.max() < 16 and len(t.starts) == len(t.lo_masks) == 16
        assert _tables(g) == oracles.subset_tables(g)
        _same_minimum(g, "cheeger")
        _same_minimum(g, "density")

    @pytest.mark.parametrize(
        "g, kind, runs_in_a_row",
        [
            (complete(8), "density", True),  # every subset of K8 ties
            (cycle(12), "cheeger", False),
            (cycle(12), "density", False),
        ],
        ids=["K8-density", "C12-cheeger", "C12-density"],
    )
    def test_minimum_in_several_runs_rows_and_blocks(self, monkeypatch, g, kind, runs_in_a_row):
        k = (g.n - 1) // 2
        monkeypatch.setattr(graphs, "BLOCK", 2 << k)  # two high rows a block
        cut, vol, size, total, scale = oracles.subset_tables(g)
        value, _ = oracles.cut_minimum(g, kind)
        if kind == "cheeger":
            winners = [m for m in range(1, len(cut)) if value * min(vol[m], total - vol[m]) == cut[m]]
        else:
            winners = [
                m for m in range(1, len(cut)) if value * size[m] * (g.n - size[m]) * scale == g.n * cut[m]
            ]
        key = vol if kind == "cheeger" else size
        runs = {(m >> k, key[m % (1 << k)]) for m in winners}
        assert len({m >> k + 1 for m in winners}) > 1  # blocks, so rows and runs
        assert (len(runs) > len({m >> k for m in winners})) is runs_in_a_row
        _same_minimum(g, kind)

    def test_smallest_mask_in_a_later_run(self):
        # in the first row at the minimum, low masks 1 (vertex 0, degree 4)
        # and 2 (vertex 1, degree 2) both reach it: the run of volume 2
        # comes first, the smallest mask, 21, lies in the run of volume 4
        edges = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (3, 5)]
        g = WeightedGraph.from_edges(6, edges)
        value, report = cheeger(g)
        assert (value, _mask(report.subset)) == oracles.cut_minimum(g, "cheeger")
        assert _mask(report.subset) == 21 and cheeger_value_of(g, (1, 2, 4)) == value

    def test_tie_on_the_int64_path(self):
        # C8 with weight 2**50: n * sum(deg) = 2**57, and every arc of four
        # vertices is a minimising subset
        g = WeightedGraph.from_edges(8, [(u, (u + 1) % 8, 2**50) for u in range(8)])
        assert _cut_tables(g, "volume").left.dtype == np.int64
        cut, vol, _, total, _ = oracles.subset_tables(g)
        assert sum(4 * c == min(v, total - v) for c, v in zip(cut, vol)) > 1
        _same_minimum(g, "cheeger")
        _same_minimum(g, "density")

    @pytest.mark.parametrize("below", [True, False])
    def test_either_side_of_the_float64_bound(self, monkeypatch, below):
        # odd weights with n * sum(deg) just below 2**53; above it, weights
        # a * 2**50 + 1, a odd, whose cuts are 2 mod 4 and some past 2**54,
        # where float64 would round them
        monkeypatch.setattr(graphs, "BLOCK", 4)
        n = 7
        unit = FLOAT64_BOUND // (n * 14 * 17) if below else 2**50
        rng = random.Random(n)
        edges = [(u, (u + 1) % n, (2 * rng.randint(1, 9) - 1) * unit | 1) for u in range(n)]
        g = WeightedGraph.from_edges(n, edges)
        total = 2 * sum(w for _, _, w in edges)
        assert (n * total < FLOAT64_BOUND) is below
        assert below or total > FLOAT64_BOUND
        assert _tables(g) == oracles.subset_tables(g)
        _same_minimum(g, "cheeger")
        _same_minimum(g, "density")

    def test_largest_accepted_weights(self):
        # n * sum(deg) and n**2 * scale each one step below 2**62
        rng = random.Random(3)
        n = 12
        edges = [(u, v, rng.randint(1, 1000)) for u in range(n) for v in range(u + 1, n)]
        unit = (INT64_BOUND - 1) // (2 * n * sum(w for _, _, w in edges))
        den = (INT64_BOUND - 1) // (n * n)
        for g in (
            WeightedGraph.from_edges(n, [(u, v, w * unit) for u, v, w in edges]),
            WeightedGraph.from_edges(n, [(u, v, Fraction(w, den)) for u, v, w in edges]),
        ):
            mat, scale = g.integer_matrix("adjacency")
            total = int(mat.sum())
            assert n * total < INT64_BOUND and n * n * scale < INT64_BOUND
            assert max(n * total, n * n * scale) > INT64_BOUND // 2
            _same_minimum(g, "cheeger")
            _same_minimum(g, "density")

    @pytest.mark.parametrize(
        "g",
        [
            # n * sum(deg) = 4 * 2 * 2**59 = 2**62, while storage stays int64
            WeightedGraph.from_edges(4, [(0, 1, 2**59 - 2), (1, 2, 1), (2, 3, 1)]),
            # n**2 * scale = 16 * 2**58 = 2**62
            WeightedGraph.from_edges(4, [(0, 1, Fraction(1, 2**58)), (1, 2, 1)]),
        ],
        ids=["degree-sum", "scale"],
    )
    def test_past_the_bound_is_rejected(self, g):
        with pytest.raises(ScaleError):
            min_edge_density(g)


@st.composite
def integral_connections(draw):
    """A group Z_r^d (r in {2, 3, 4, 6, 8}, at most 64 elements) and a
    connection set closed under multiplication by the units mod r, so that
    the Cayley graph's spectrum is integral."""
    r = draw(st.sampled_from([2, 3, 4, 6, 8]))
    d = draw(st.integers(1, {2: 6, 3: 3, 4: 3, 6: 2, 8: 2}[r]))
    group = AbelianGroup((r,) * d)
    units = [k for k in range(1, r) if math.gcd(k, r) == 1]
    picks = draw(st.lists(st.sampled_from(group.elements()[1:]), max_size=4))
    return group, sorted({tuple(k * x % r for x in el) for el in picks for k in units})


@st.composite
def integral_cayley(draw):
    """An integral Cayley graph and its character table."""
    group, conn = draw(integral_connections())
    return cayley(group, conn), character_table(group.moduli)


def _same_revivals(g, h):
    spec = certify(g, h)
    got = [c.to_json() for c in find_fr(g, h, spec)]
    assert got == [c.to_json() for c in oracles.find_fr(g, h, spec)]
    return got


def _odd_weight_cube():
    """Q6 with edge weights 1, 3, ..., 11 by direction: 35 distinct
    eigenvalues, each twice a sum of distinct odd weights."""
    g = None
    for w in range(1, 12, 2):
        k2 = WeightedGraph.from_edges(2, [[0, 1, w]])
        g = k2 if g is None else product(g, k2, "cartesian")
    return g, character_table((2,) * 6)


class TestFindFrAgainstLoop:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_hypercubes(self, d):
        assert len(_same_revivals(hypercube(d), character_table((2,) * d))) == 2**d

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cocktail_parties(self, n):
        assert _same_revivals(cocktail_party(n), character_table((2, n)))
        assert _same_revivals(cocktail_party(n), character_table((2 * n,)))

    def test_odd_root_order_gives_nothing(self):
        group = AbelianGroup((3, 3))
        g = cayley(group, [(1, 0), (2, 0), (0, 1), (0, 2)])
        assert _same_revivals(g, character_table((3, 3))) == []

    def test_odd_root_order_z5_gives_nothing(self):
        assert _same_revivals(complete(5), character_table((5,))) == []

    def test_merged_covers_under_a_doubled_table(self):
        # double(H) is dephased but, with its rows in [H, H; H, -H] order,
        # not the character table that character_table builds
        cp, h = cocktail_party(4), double(character_table((2, 4)))
        assert len(_same_revivals(merge(cp, complement(cp), 1, 1), h)) == 16
        assert _same_revivals(merge(complement(cp), cp, 1, 1), h) == []

    def test_more_eigenvalues_than_one_key_digit(self):
        g, h = _odd_weight_cube()
        assert len(set(certify(g, h).integers())) == 35 > walks._DIGIT_CLASSES
        assert len(_same_revivals(g, h)) == 64  # PST between antipodes

    @pytest.mark.parametrize("case", ["CP8", "Cay(Z4^3)", "odd-weight Q6"])
    def test_small_blocks(self, case, monkeypatch):
        g, h = {
            "CP8": lambda: (cocktail_party(8), character_table((2, 8))),
            "Cay(Z4^3)": lambda: (
                cayley(AbelianGroup((4, 4, 4)), [(1, 0, 0), (3, 0, 0), (2, 2, 0), (0, 1, 1), (0, 3, 3)]),
                character_table((4, 4, 4)),
            ),
            "odd-weight Q6": _odd_weight_cube,
        }[case]()
        # pair keys in blocks of two rows (one row with two key digits) and
        # certificates checked two at a time
        monkeypatch.setattr(graphs, "BLOCK", 2 * g.n)
        assert len(_same_revivals(g, h)) > 4

    @settings(max_examples=40, deadline=None)
    @given(integral_cayley())
    def test_cayley_graphs(self, pair):
        g, h = pair
        got = _same_revivals(g, h)
        if h.r % 2:
            assert got == []


# every time 2pi s/q with q <= 16, each once
_TAUS = sorted({RationalAngle(s, q) for q in range(1, 17) for s in range(q)}, key=repr)


def _forced_phase(lam, sigma, tau):
    """The gamma that the first minus-eigenvalue mu forces, -2 gamma = tau mu
    (pi/2 when there is no minus-eigenvalue)."""
    mu = next((l for s, l in zip(sigma or (), lam) if s == -1), None)
    return RationalAngle.of_pi(1, 2) if mu is None else RationalAngle(-mu * tau.num, 2 * tau.den)


class TestRevivalEntryPointsAgree:
    """cayley_fr_conditions, check_fr, find_fr and double_cover_fr read sigma
    and lambda in different ways and must decide revival alike."""

    @settings(max_examples=12, deadline=None)
    @given(integral_connections())
    def test_cayley_graphs(self, data):
        group, conn = data
        g, h = cayley(group, conn), character_table(group.moduli)
        spec = certify(g, h)
        lam, els = spec.integers(), group.elements()
        found = {(c.b, c.tau): c.gamma for c in find_fr(g, h, spec) if c.a == 0}
        for b in range(group.order):
            sigma = strongly_cospectral(h, 0, b)
            plus_nonzero = any(l for s, l in zip(sigma or (), lam) if s == 1)
            for tau in _TAUS:
                gamma = _forced_phase(lam, sigma, tau)
                revives = cayley_fr_conditions(group, conn, els[0], els[b], tau)
                assert revives == check_fr(g, h, spec, 0, b, tau, gamma)
                # pairs whose plus-eigenvalues are all 0 lie past find_fr's
                # completeness boundary
                if revives and plus_nonzero:
                    assert found[b, tau].equals_mod_pi(gamma)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_double_covers(self, n):
        h, cp = character_table((2 * n,)), cocktail_party(n)
        hh = double(h)
        for g1, g2 in ((cp, complement(cp)), (complement(cp), cp)):
            cover = merge(g1, g2, 1, 1)
            spec = certify(cover, hh)
            lam, sigma = spec.integers(), strongly_cospectral(hh, 0, g1.n)
            spectra = certify(g1, h), certify(g2, h)
            for tau in _TAUS:
                gamma = double_cover_fr(g1, g2, h, spectra, tau)
                forced = _forced_phase(lam, sigma, tau)
                assert (gamma is not None) == check_fr(cover, hh, spec, 0, g1.n, tau, forced)
                assert gamma is None or gamma.equals_mod_pi(forced)


def _shifted(gamma):
    """gamma plus an eighth of a turn: a phase the walk does not have."""
    return RationalAngle(8 * gamma.num + gamma.den, 8 * gamma.den)


def _wrong_phase_is_named(args, certs, target, monkeypatch):
    """find_fr, in blocks of four certificates, with the gamma of
    certificate ``target`` shifted, names that certificate when it fails."""
    made, certificate = [], walks.FRCertificate

    def make(a, b, tau, gamma, sigma):
        made.append(a)
        if len(made) == target + 1:
            gamma = _shifted(gamma)
        return certificate(a, b, tau, gamma, sigma)

    monkeypatch.setattr(graphs, "BLOCK", 4 * args[0].n)
    monkeypatch.setattr(walks, "FRCertificate", make)
    with pytest.raises(InternalCheckError) as err:
        find_fr(*args)
    bad = certs[target]
    assert f"a={bad.a}, b={bad.b}, tau={bad.tau!r}" in str(err.value)
    assert repr(_shifted(bad.gamma)) in str(err.value)


class TestRevivalCrossValidation:
    """The float check covers every certificate, not only the first of each
    tau block."""

    @pytest.fixture
    def q5(self):
        g, h = hypercube(5), character_table((2,) * 5)
        return g, h, certify(g, h)

    def test_wrong_phase_from_half_of_is_caught(self, q5, monkeypatch):
        # all certificates that share tau share their pair key and phase
        # (sigma_j = +1 exactly where tau * lambda_j = 0), so the one call per
        # (key, tau) corrupts every certificate at that tau; here the second,
        # at 3/4
        certs = find_fr(*q5)
        half_of, calls = walks._half_of, []

        def corrupt_second(angle):
            calls.append(angle)
            gamma = half_of(angle)
            return _shifted(gamma) if len(calls) == 2 else gamma

        monkeypatch.setattr(walks, "_half_of", corrupt_second)
        with pytest.raises(InternalCheckError) as err:
            find_fr(*q5)
        first = next(c for c in certs if c.tau == RationalAngle(3, 4))
        assert f"a={first.a}, b={first.b}, tau={first.tau!r}" in str(err.value)

    def test_wrong_phase_in_the_middle_of_a_block_is_caught(self, q5, monkeypatch):
        certs = find_fr(*q5)
        batch = [i for i, c in enumerate(certs) if c.tau == certs[0].tau]
        assert len(batch) == 16
        target = batch[5]  # taus alternate; blocks of 4: the third place of the third block
        _wrong_phase_is_named(q5, certs, target, monkeypatch)

    def test_wrong_phase_in_a_block_of_several_taus_is_caught(self, monkeypatch):
        g, h = cocktail_party(8), character_table((2, 8))
        args = g, h, certify(g, h)
        certs = find_fr(*args)
        target = 6  # blocks of 4: the third place of the second block
        assert len({c.tau for c in certs[4:8]}) == 4
        _wrong_phase_is_named(args, certs, target, monkeypatch)

    def test_blocks_of_four_give_the_same_list(self, q5, monkeypatch):
        certs = find_fr(*q5)
        monkeypatch.setattr(graphs, "BLOCK", 4 * q5[0].n)
        assert find_fr(*q5) == certs


def _laplacian(g):
    return g.integer_matrix("laplacian")[0].tolist()


@st.composite
def small_weighted_graphs(draw):
    n = draw(st.integers(1, 7))
    edges = [
        (u, v, draw(st.integers(1, 5)))
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    return WeightedGraph.from_edges(n, edges)


class TestRationalSpectrumAgainstScan:
    @pytest.mark.parametrize(
        "g",
        [
            complete(2),
            complete(6),
            hypercube(2),
            hypercube(4),
            cocktail_party(4),
            complete_multipartite((2, 3, 4)),
            complete_multipartite((4, 4, 4)),
            cycle(4),
            cycle(6),
            WeightedGraph.from_edges(3, [(0, 1, 7), (1, 2, 7), (0, 2, 7)]),
        ],
        ids=["K2", "K6", "Q2", "Q4", "CP4", "K234", "K444", "C4", "C6", "7K3"],
    )
    def test_integral_spectra(self, g):
        want = oracles.rational_spectrum(_laplacian(g))
        assert want is not None
        assert exact_rational_spectrum(g) == want

    @settings(max_examples=60, deadline=None)
    @given(small_weighted_graphs())
    def test_random_weighted_graphs(self, g):
        want = oracles.rational_spectrum(_laplacian(g))
        if want is None:
            with pytest.raises(ExactnessError):
                exact_rational_spectrum(g)
        else:
            assert exact_rational_spectrum(g) == want

    def test_partly_rational_spectrum_is_rejected(self):
        # C_8 has the rational eigenvalues 0, 2, 4 beside 2 -+ sqrt(2)
        assert oracles.rational_spectrum(_laplacian(cycle(8))) is None
        with pytest.raises(ExactnessError):
            exact_rational_spectrum(cycle(8))


def _check_is_spectrum(mat, want):
    """_is_spectrum accepts the exact spectrum want of mat and refuses it
    with one root moved by -+1, or with two multiplicities swapped."""
    assert _is_spectrum(mat, want)
    for k in {0, len(want) - 1}:
        for step in (-1, 1):
            moved = list(want)
            moved[k] += step
            assert not _is_spectrum(mat, moved)
    counts = Counter(want)
    for a, b in itertools.combinations(counts, 2):
        if counts[a] != counts[b]:
            assert not _is_spectrum(mat, [b if v == a else a if v == b else v for v in want])
            break


class TestIsSpectrumAgainstFractions:
    """The power-sum test against the roots of the characteristic
    polynomial computed in Fractions (``oracles.rational_spectrum``)."""

    @settings(max_examples=60, deadline=None)
    @given(small_weighted_graphs())
    def test_integer_matrices(self, g):
        mat = g.integer_matrix("laplacian")[0]
        want = oracles.rational_spectrum(mat.tolist())
        if want is None:
            rounded = [int(x) for x in np.rint(np.linalg.eigvalsh(mat.astype(float)))]
            assert not _is_spectrum(mat, rounded)
        else:
            _check_is_spectrum(mat, want)

    def test_k444_laplacian(self):
        mat = complete_multipartite((4, 4, 4)).integer_matrix("laplacian")[0]
        want = oracles.rational_spectrum(mat.tolist())
        assert want == [0] + [8] * 9 + [12] * 2
        _check_is_spectrum(mat, want)

    def test_only_the_last_power_sum_differs(self):
        # 0, 3, 3 and 1, 1, 4 share the sums of their first and second
        # powers; only k = n = 3 tells them apart
        mat = complete(3).integer_matrix("laplacian")[0]
        assert _is_spectrum(mat, [0, 3, 3])
        assert not _is_spectrum(mat, [1, 1, 4])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_answers_across_the_int64_bound(self, monkeypatch, n):
        # the Laplacian of K_n with weight w: R = 2 (n - 1) w, and the
        # spectrum is 0 and n w, n - 1 times
        def bound(w):
            return n * (2 * (n - 1) * w) ** n

        lo, hi = 1, 2**62  # bound(lo) < 2**62 <= bound(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if bound(mid) < INT64_BOUND else (lo, mid)
        dtypes = {}  # n R**k -> the dtype of M**k
        monkeypatch.setattr(
            spectral, "exact_dtype", lambda b: dtypes.setdefault(b, cyclotomic.exact_dtype(b))
        )
        for w in (lo, hi):
            _check_is_spectrum(w * (n * np.eye(n, dtype=np.int64) - 1), [0] + [n * w] * (n - 1))
        # below the bound every power is int64; past it M**1 still is, and
        # only the powers past n R**k >= 2**62 run on Python integers
        r_lo, r_hi = 2 * (n - 1) * lo, 2 * (n - 1) * hi
        assert [dtypes[n * r_lo**k] for k in range(1, n + 1)] == [np.int64] * n
        assert (dtypes[n * r_hi], dtypes[n * r_hi**n]) == (np.int64, object)
