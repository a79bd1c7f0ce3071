"""The benchmark's checks must reject wrong outputs.

    python3 -m pytest benchmark/test_checks.py

Each test feeds a correct output, which must pass, and a deliberately wrong
one, which must raise ``CheckError``.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def cycle(n):
    return {"n": n, "edges": [[u, (u + 1) % n, "1"] for u in range(n)]}


def cocktail_party(n):
    """CP(n) on Z_2n: every pair adjacent except v and v + n."""
    return {"n": 2 * n, "edges": [[u, v, "1"] for u in range(2 * n) for v in range(u + 1, 2 * n) if v - u != n]}


def cyclic_table(n):
    return checks.complex_matrix([[j * k for k in range(n)] for j in range(n)], n)


def test_spectrum_check_rejects_a_wrong_spectrum():
    n = 8
    lap = checks.laplacian(checks.adjacency(cycle(n)))
    hc = cyclic_table(n)
    values = [2 - 2 * math.cos(2 * math.pi * j / n) for j in range(n)]
    checks.check_spectrum(lap, hc, values)
    checks.check_cycle_spectrum(n, values)
    off = list(values)
    off[3] += 1e-6
    with pytest.raises(CheckError):
        checks.check_spectrum(lap, hc, off)
    swapped = list(values)
    swapped[0], swapped[1] = swapped[1], swapped[0]  # same multiset, wrong columns
    with pytest.raises(CheckError):
        checks.check_spectrum(lap, hc, swapped)
    with pytest.raises(CheckError):
        checks.check_cycle_spectrum(n, off)


def test_even_spectrum_check_rejects_an_odd_eigenvalue():
    checks.check_even_integers([0, 2, 4.0 + 1e-12])
    with pytest.raises(CheckError):
        checks.check_even_integers([0, 2, 3])


def test_hadamard_check_rejects_a_corrupted_matrix():
    exps = [[j * k for k in range(4)] for j in range(4)]
    checks.check_hadamard(checks.complex_matrix(exps, 4))
    exps[2][3] = (exps[2][3] + 1) % 4
    with pytest.raises(CheckError):
        checks.check_hadamard(checks.complex_matrix(exps, 4))


def test_revival_check_rejects_a_wrong_certificate():
    n = 4
    walk = checks.Walk(checks.laplacian(checks.adjacency(cocktail_party(n))))
    tau = gamma = Fraction(1, 2 * n)  # revival at pi/n with phase +pi/n
    checks.check_revival(walk, 0, n, tau, gamma)
    checks.check_revival(walk, 0, n, tau, gamma + Fraction(1, 2))  # same phase mod pi
    with pytest.raises(CheckError):
        checks.check_revival(walk, 0, n, tau, -gamma)  # the conjugate walk's phase
    with pytest.raises(CheckError):
        checks.check_revival(walk, 0, n, 2 * tau, gamma)
    with pytest.raises(CheckError):
        checks.check_revival(walk, 0, 1, tau, gamma)


def test_cut_values_and_their_check():
    a = checks.adjacency(cycle(6))
    h, density = checks.brute_cuts(a, chunk_bits=2)
    assert h == pytest.approx(1 / 3) and density == pytest.approx(8 / 6)
    checks.check_value("1/3", h, "cheeger")
    with pytest.raises(CheckError):
        checks.check_value("1/2", h, "cheeger")


def test_catalogue_check_rejects_isomorphic_entries_and_a_missing_complement():
    k2 = {"n": 2, "edges": [[0, 1, "1"]]}
    e2 = {"n": 2, "edges": []}
    f2 = {"n": 2, "r": 2, "exps": [[0, 0], [0, 1]], "name": "sylvester-2"}
    k2_entry = {"order": 2, "name": "K_2", "graph": k2, "hadamard": f2, "eigenvalues": ["0", "2"]}
    e2_entry = {"order": 2, "name": "K_2^c", "graph": e2, "hadamard": f2, "eigenvalues": ["0", "0"]}
    checks.check_catalogue([k2_entry, e2_entry])
    with pytest.raises(CheckError):
        checks.check_catalogue([k2_entry])
    relabelled = dict(k2_entry, name="K_2 again", graph={"n": 2, "edges": [[1, 0, "1"]]})
    with pytest.raises(CheckError):
        checks.check_catalogue([k2_entry, e2_entry, relabelled])
    with pytest.raises(CheckError):
        checks.check_catalogue([dict(k2_entry, eigenvalues=["0", "1"]), e2_entry])


def test_cli_checks_reject_bad_output():
    assert checks.cli_output(0, '{"hadamard": true}') == {"hadamard": True}
    with pytest.raises(CheckError):
        checks.cli_output(0, '{"amplitudes": [[NaN, 0.0]]}')
    with pytest.raises(CheckError):
        checks.cli_output(0, '{"certificates": [')
    with pytest.raises(CheckError):
        checks.cli_output(1, "{}")
    checks.cli_rejection(1, '{"error": "index out of range", "type": "ChdError"}')
    with pytest.raises(CheckError):
        checks.cli_rejection(0, '{"error": "x"}')
    with pytest.raises(CheckError):
        checks.cli_rejection(1, "Traceback (most recent call last):\nIndexError: index 5")
    with pytest.raises(CheckError):
        checks.cli_rejection(1, '["no error field"]')


def test_reference_eigenvalue_from_ring_coefficients():
    # 2 - w - w^-1 at r = 8 is 2 - 2 cos(pi / 4)
    value = checks.eigenvalue(8, [2, -1, 0, 0, 0, 0, 0, -1])
    assert value == pytest.approx(2 - 2 * math.cos(math.pi / 4))
    assert np.isclose(checks.eigenvalue(4, [6, 0, 0, 0], 3), 2)
