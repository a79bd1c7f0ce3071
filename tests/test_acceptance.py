"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Two conventions fix the pinned values:

* criterion 1 pins ten isomorphism classes at order 8.  They are the ten
  orbits of connection sets in Z_2^3 under GL(3,2); the list is closed under
  complement and includes 4K_2 = Cay(Z_2^3, {e_1}), the complement of
  K_{2,2,2,2}, with spectrum {0^4, 2^4} and certified by Sylvester-8.
* the walk is exp(-i t L) throughout (see ``chd.walks``).  Under it the
  cocktail-party revival of criterion 6(a) at tau = pi/n has phase
  gamma = +pi/n; the conjugate walk exp(+i t L) has gamma = -pi/n.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from chd import (
    AbelianGroup,
    CyclotomicInt,
    RationalAngle,
    catalogue,
    cayley,
    certify,
    character_table,
    cheeger,
    cocktail_party,
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    double,
    empty_graph,
    evolve,
    find_fr,
    graph_union,
    hypercube,
    instance_library,
    merge,
    min_edge_density,
    odd_union_obstruction,
    regularity_check,
    sylvester_hadamard,
    tightness_check,
)
from chd.cyclotomic import cyclotomic_polynomial
from oracles import enumerate_regular_graphs


def _report(num: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {detail}")


EXPECTED_CATALOGUE = {
    2: {"K_2", "K_2^c"},
    4: {"K_4", "C_4", "K_2+K_2", "K_4^c"},
    6: {"K_6", "K_6^c"},
    8: {
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
    },
}


def test_criterion_1_catalogue_reproduction():
    t0 = time.time()
    entries = catalogue(8)
    elapsed = time.time() - t0
    by_order = {}
    for e in entries:
        by_order.setdefault(e.order, set()).add(e.name)
    certified = all(certify(e.graph, e.hadamard) is not None for e in entries)
    counts = {n: len(names) for n, names in by_order.items()}
    counts_ok = counts == {2: 2, 4: 4, 6: 2, 8: 10}
    exact_ok = by_order == EXPECTED_CATALOGUE
    ok = certified and counts_ok and exact_ok and elapsed < 60
    extra = {
        n: sorted(by_order.get(n, set()) - EXPECTED_CATALOGUE[n])
        for n in EXPECTED_CATALOGUE
    }
    missing = {
        n: sorted(EXPECTED_CATALOGUE[n] - by_order.get(n, set()))
        for n in EXPECTED_CATALOGUE
    }
    _report(
        "1",
        ok,
        f"catalogue counts {sorted(counts.items())} in {elapsed:.1f}s; "
        f"extra: {extra}; missing: {missing}",
    )
    assert certified, "some catalogue witness failed certification"
    assert elapsed < 60, f"catalogue took {elapsed:.1f}s"
    assert not any(missing.values()), f"pinned entries missing: {missing}"
    assert counts_ok, f"catalogue counts {sorted(counts.items())}"
    assert exact_ok, f"catalogue finds classes beyond the pinned list: {extra}"


def test_criterion_2_cubelike_sweep():
    t0 = time.time()
    group = AbelianGroup((2, 2, 2))
    elements = [e for e in group.elements() if e != group.identity]
    h = sylvester_hadamard(8)
    all_even = True
    for bits in range(1 << 7):
        conn = [e for i, e in enumerate(elements) if bits >> i & 1]
        spec = certify(cayley(group, conn), h)
        assert spec is not None, f"connection set {conn} failed to certify"
        if not all(e.is_integer and int(e.rational) % 2 == 0 for e in spec.entries):
            all_even = False
    elapsed = time.time() - t0
    ok = all_even and elapsed < 5
    _report("2", ok, f"128 cubelike graphs certified, all even, in {elapsed:.1f}s")
    assert all_even
    assert elapsed < 5, f"sweep took {elapsed:.1f}s"


def test_criterion_3_butson_divisibility():
    t0 = time.time()
    rng = random.Random(20260808)
    cases = []
    for moduli in ((5,), (5, 5)):
        group = AbelianGroup(moduli)
        table = character_table(moduli)
        nonzero = [e for e in group.elements() if e != group.identity]
        orbits = []
        seen = set()
        for el in nonzero:
            if el in seen:
                continue
            orbit = {el, group.neg(el)}
            seen |= orbit
            orbits.append(sorted(orbit))
        cases.append((group, table, orbits))
    checked = 0
    for _ in range(200):
        group, table, orbits = cases[rng.randrange(2)]
        chosen = [o for o in orbits if rng.random() < 0.5]
        if not chosen:
            chosen = [orbits[rng.randrange(len(orbits))]]
        conn = [el for o in chosen for el in o]
        g = cayley(group, conn)
        spec = certify(g, table)
        assert spec is not None
        ints = [int(e.rational) for e in spec.entries if e.is_integer]
        for lam in {v for v in ints if v != 0}:
            assert lam % 5 == 0, f"eigenvalue {lam} not divisible by 5"
            assert ints.count(lam) >= 4, f"eigenvalue {lam} multiplicity < 4"
        checked += 1
    elapsed = time.time() - t0
    ok = checked == 200 and elapsed < 30
    _report("3", ok, f"{checked} random Cayley graphs over Z_5 and Z_5^2 in {elapsed:.1f}s")
    assert ok


def test_criterion_4_cycle_spectra():
    t0 = time.time()
    rational_values = (0.0, 1.0, 2.0, 3.0, 4.0)
    for r in range(3, 13):
        g = cycle(r)
        spec = certify(g, character_table((r,)))
        assert spec is not None, f"C_{r} failed to certify"
        for j, entry in enumerate(spec.entries):
            want = 2 - 2 * math.cos(2 * math.pi * j / r)
            got = entry.to_complex()
            assert abs(got.imag) < 1e-9
            assert abs(got.real - want) < 1e-9
            should_be_rational = any(abs(want - v) < 1e-9 for v in rational_values)
            assert entry.is_rational == should_be_rational, (
                f"C_{r}, column {j}: rationality flag {entry.is_rational} "
                f"but eigenvalue is {want}"
            )
    elapsed = time.time() - t0
    ok = elapsed < 5
    _report("4", ok, f"cycle spectra r=3..12 exact and float-matched in {elapsed:.1f}s")
    assert ok


def test_criterion_5_cheeger_tightness():
    t0 = time.time()
    suite = [
        (hypercube(2), sylvester_hadamard(4)),
        (hypercube(3), sylvester_hadamard(8)),
        (hypercube(4), sylvester_hadamard(16)),
        (complete(4), sylvester_hadamard(4)),
        (complete(8), sylvester_hadamard(8)),
        (complete_bipartite(4, 4), sylvester_hadamard(8)),
    ]
    for entry in catalogue(8):
        if entry.graph.is_connected():
            suite.append((entry.graph, entry.hadamard))
    all_tight = True
    for g, h in suite:
        spec = certify(g, h)
        assert spec is not None
        if not tightness_check(g, h, spec):
            all_tight = False
        density, _ = min_edge_density(g)
        assert density == spec.second_smallest(), (
            f"min density {density} != lambda_2 {spec.second_smallest()}"
        )
    elapsed = time.time() - t0
    ok = all_tight and elapsed < 60
    _report(
        "5",
        ok,
        f"tightness and density equality on {len(suite)} graphs in {elapsed:.1f}s",
    )
    assert all_tight
    assert elapsed < 60


def _fr_pair(gamma: float) -> tuple[complex, complex]:
    """(alpha, beta) = (cos(g) e^{ig}, -i sin(g) e^{ig}) for phase g."""
    return (
        math.cos(gamma) * cmath.exp(1j * gamma),
        -1j * math.sin(gamma) * cmath.exp(1j * gamma),
    )


def test_criterion_6a_cocktail_party_revival():
    # Under exp(-itL), at t = pi/n the walk sends e_0 to
    # (1+w)/2 e_0 + (1-w)/2 e_n with w = e^{2 pi i/n}, which is the pair of
    # phase +pi/n.  Its complex conjugate, the exp(+itL) walk, has phase -pi/n.
    t0 = time.time()
    found = {}
    worst = 0.0
    for n in range(3, 7):
        g = cocktail_party(n)
        h = character_table((2 * n,))
        spec = certify(g, h)
        certs = find_fr(g, h, spec)  # each is evolve-validated to 1e-9
        hits = [
            c
            for c in certs
            if (c.a, c.b) == (0, n) and c.tau == RationalAngle.of_pi(1, n)
        ]
        assert len(hits) == 1, f"no unique certificate at tau=pi/{n}"
        found[n] = hits[0]
        column = evolve(g, h, spec, math.pi / n)[:, 0]
        for walk, col, gamma, shown in (
            ("exp(-itL)", column, math.pi / n, f"+pi/{n}"),
            ("exp(+itL)", column.conj(), -math.pi / n, f"-pi/{n}"),
        ):
            alpha, beta = _fr_pair(gamma)
            target = np.zeros(2 * n, dtype=complex)
            target[0], target[n] = alpha, beta
            residual = float(np.max(np.abs(col - target)))
            assert residual <= 1e-9, (
                f"n={n}: the {walk} column at t=pi/{n} is not the "
                f"gamma={shown} pair (residual {residual:.1e})"
            )
            worst = max(worst, residual)
    elapsed = time.time() - t0
    pinned_ok = all(
        found[n].gamma.equals_mod_pi(RationalAngle.of_pi(1, n)) for n in found
    )
    actual = {n: str(found[n].gamma_signed()) for n in found}
    ok = pinned_ok and elapsed < 30
    _report(
        "6a",
        ok,
        f"cocktail revival at tau=pi/n for n=3..6, gamma (in turns) {actual}, "
        f"unitary residual {worst:.1e}, in {elapsed:.1f}s",
    )
    assert pinned_ok, (
        f"certificate phases (signed turns) {actual} are not +pi/n, the phase "
        "of the exp(-itL) walk at tau=pi/n"
    )
    assert elapsed < 30, f"revival search took {elapsed:.1f}s"


def test_criterion_6b_double_cover_of_kn():
    t0 = time.time()
    for n in range(3, 7):
        g = merge(empty_graph(n), complete(n), 1, 1)
        h = double(character_table((n,)))
        spec = certify(g, h)
        certs = find_fr(g, h, spec)
        hits = [
            c
            for c in certs
            if (c.a, c.b) == (0, n) and c.tau == RationalAngle.of_turn(1, n)
        ]
        assert len(hits) == 1, f"no unique certificate at tau=2pi/{n}"
        assert hits[0].gamma.equals_mod_pi(RationalAngle.of_turn(1, n)), (
            f"n={n}: gamma {hits[0].gamma.display()} != 2pi/{n} (mod pi)"
        )
    elapsed = time.time() - t0
    ok = elapsed < 30
    _report(
        "6b",
        ok,
        f"bipartite double covers of K_n: tau=2pi/n, gamma=2pi/n (mod pi), "
        f"in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6c_cube_double_cover_pst():
    t0 = time.time()
    q3 = hypercube(3)
    g = merge(complement(q3), q3, 1, 1)
    h = double(sylvester_hadamard(8))
    spec = certify(g, h)
    certs = find_fr(g, h, spec)
    hits = [
        c
        for c in certs
        if (c.a, c.b) == (0, 8)
        and c.tau == RationalAngle.of_pi(1, 2)
        and c.is_pst
    ]
    elapsed = time.time() - t0
    ok = len(hits) == 1 and elapsed < 30
    _report("6c", ok, f"double cover of the 3-cube: PST at pi/2 in {elapsed:.1f}s")
    assert len(hits) == 1
    assert elapsed < 30


def test_criterion_7_unitarity_and_group_law():
    t0 = time.time()
    q3 = hypercube(3)
    walks_suite = [
        (complete(2), sylvester_hadamard(2)),
        (complete(4), sylvester_hadamard(4)),
        (cycle(4), character_table((4,))),
        (complete(6), instance_library()[6][0][1]),
        (q3, sylvester_hadamard(8)),
        (cocktail_party(3), character_table((6,))),
        (cycle(5), character_table((5,))),
        (complete_bipartite(4, 4), sylvester_hadamard(8)),
        (merge(empty_graph(3), complete(3), 1, 1), double(character_table((3,)))),
        (merge(complement(q3), q3, 1, 1), double(sylvester_hadamard(8))),
    ]
    rng = random.Random(99)
    worst_unitary = 0.0
    worst_group = 0.0
    for g, h in walks_suite:
        spec = certify(g, h)
        assert spec is not None
        eye = np.eye(g.n)
        for _ in range(100):
            t1 = rng.uniform(0, 2 * math.pi)
            t2 = rng.uniform(0, 2 * math.pi)
            u1 = evolve(g, h, spec, t1)
            worst_unitary = max(
                worst_unitary, float(np.max(np.abs(u1 @ u1.conj().T - eye)))
            )
            u2 = evolve(g, h, spec, t2)
            u12 = evolve(g, h, spec, t1 + t2)
            worst_group = max(
                worst_group, float(np.max(np.abs(u1 @ u2 - u12)))
            )
    elapsed = time.time() - t0
    ok = worst_unitary <= 1e-9 and worst_group <= 1e-9
    _report(
        "7",
        ok,
        f"10 graphs x 100 times: unitarity residual {worst_unitary:.1e}, "
        f"group-law residual {worst_group:.1e}, in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_odd_union_obstruction():
    t0 = time.time()
    three_k2 = graph_union(graph_union(complete(2), complete(2)), complete(2))
    k222 = complete_multipartite((2, 2, 2))
    lib6 = instance_library()[6]
    for g in (three_k2, k222):
        for name, h in lib6:
            assert certify(g, h) is None, f"{name} unexpectedly certified"
    flagged = odd_union_obstruction(three_k2)
    not_flagged = not odd_union_obstruction(k222)
    elapsed = time.time() - t0
    ok = flagged and not_flagged and elapsed < 5
    _report(
        "8",
        ok,
        f"3K_2 and K_2,2,2 rejected by all order-6 library matrices; "
        f"obstruction flags 3K_2, in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_conference_matrix_scan():
    t0 = time.time()
    conf = dict(instance_library()[6])["conference-6"]
    connected_certified = []
    scanned = 0
    for g in enumerate_regular_graphs(6):
        scanned += 1
        if certify(g, conf) is not None and g.is_connected():
            connected_certified.append(g)
    elapsed = time.time() - t0
    is_all_k6 = all(g == complete(6) for g in connected_certified)
    ok = bool(connected_certified) and is_all_k6 and elapsed < 10
    _report(
        "9",
        ok,
        f"scanned {scanned} labeled regular graphs on 6 vertices in "
        f"{elapsed:.1f}s; connected certified: K_6 only "
        f"({len(connected_certified)} labeling(s))",
    )
    assert ok


def test_criterion_10_cyclotomic_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(4242)
    disagreements = 0
    for trial in range(10_000):
        r = rng.randint(2, 16)
        if trial % 10 < 7:
            coeffs = [rng.randint(-9, 9) for _ in range(r)]
        else:
            # rational by construction: integer plus a multiple of Phi_r
            phi = cyclotomic_polynomial(r)
            coeffs = [0] * r
            coeffs[0] = rng.randint(-9, 9)
            shift = rng.randrange(max(1, r - len(phi) + 1))
            mult = rng.randint(-3, 3)
            for i, c in enumerate(phi):
                coeffs[shift + i] += mult * c
        x = CyclotomicInt(r, coeffs)
        rat = x.as_rational()
        z = x.to_complex()
        float_integer = abs(z.imag) < 1e-9 and abs(z.real - round(z.real)) < 1e-9
        if (rat is not None) != float_integer:
            disagreements += 1
        elif rat is not None and abs(float(rat) - z.real) > 1e-9:
            disagreements += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and elapsed < 10
    _report(
        "10",
        ok,
        f"10^4 random values across r=2..16, {disagreements} disagreements, "
        f"in {elapsed:.1f}s",
    )
    assert ok
