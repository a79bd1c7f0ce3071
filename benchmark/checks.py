"""Output checks computed apart from chd.

Every expected value here comes from numpy eigensolvers, float unitaries
built from ``eigh`` of the Laplacian, closed forms, chunked numpy brute
force or networkx.  Nothing here calls into chd, and nothing compares with a
stored copy of an earlier output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- matrices from the JSON forms -----------------------------------------


def adjacency(graph_json: dict) -> np.ndarray:
    """Float adjacency matrix of ``{"n": .., "edges": [[u, v, "p/q"], ..]}``."""
    n = graph_json["n"]
    a = np.zeros((n, n))
    for edge in graph_json["edges"]:
        u, v = edge[0], edge[1]
        w = float(Fraction(edge[2])) if len(edge) > 2 else 1.0
        a[u, v] = a[v, u] = w
    return a


def laplacian(a: np.ndarray) -> np.ndarray:
    return np.diag(a.sum(axis=1)) - a


def complex_matrix(exps, r: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.asarray(exps, dtype=float) / r)


def eigenvalue(order: int, coeffs, scale: int = 1) -> complex:
    """Value of sum_k coeffs[k] * exp(2 pi i k / order) / scale."""
    return sum(c * cmath.exp(2j * math.pi * k / order) for k, c in enumerate(coeffs)) / scale


# -- Hadamard matrices and spectra ----------------------------------------


def _hadamard_residual(hc: np.ndarray) -> float:
    """max |H H* - n I| / n in floats."""
    n = hc.shape[0]
    return float(np.max(np.abs(hc @ hc.conj().T - n * np.eye(n)))) / n


def is_hadamard(hc: np.ndarray) -> bool:
    return _hadamard_residual(hc) <= TOL


def check_hadamard(hc: np.ndarray) -> None:
    err = _hadamard_residual(hc)
    require(err <= TOL, f"H H* differs from n I by {err:.2e} n")


def diagonalises(m: np.ndarray, hc: np.ndarray) -> bool:
    """True iff every column of hc is an eigenvector of m (H* M H diagonal)."""
    d = hc.conj().T @ m @ hc
    off = d - np.diag(np.diag(d))
    return bool(np.max(np.abs(off)) <= 1e-7 * max(1.0, np.max(np.abs(m))) * m.shape[0])


def check_spectrum(m: np.ndarray, hc: np.ndarray, values) -> None:
    """values[j] is the certified eigenvalue of column j of hc for matrix m:
    M h_j = values[j] h_j column by column, and the sorted values equal
    numpy.linalg.eigvalsh(M), both to 1e-9 relative to the largest one."""
    values = np.asarray(values, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(values))) if len(values) else 1.0)
    require(np.max(np.abs(values.imag)) <= TOL * scale, "a certified eigenvalue is not real")
    resid = np.max(np.abs(m @ hc - hc * values[None, :]))
    require(resid <= TOL * scale * m.shape[0], f"M H - H diag(lambda) has residual {resid:.2e}")
    ref = np.linalg.eigvalsh(m)
    err = np.max(np.abs(np.sort(values.real) - ref))
    require(err <= TOL * scale, f"certified spectrum differs from eigvalsh by {err:.2e}")


def check_cycle_spectrum(n: int, values) -> None:
    expected = np.sort([2 - 2 * math.cos(2 * math.pi * j / n) for j in range(n)])
    err = np.max(np.abs(np.sort(np.real(values)) - expected))
    require(err <= TOL * 4, f"C_{n} spectrum differs from 2 - 2cos(2 pi j/n) by {err:.2e}")


def even_integers(values) -> bool:
    return all(abs(v - 2 * round(v.real / 2)) <= TOL * max(1.0, abs(v)) for v in values)


def minimal_root_order(exps, r: int) -> int:
    return r // math.gcd(r, *(int(e) for row in exps for e in row))


def check_even_integers(values) -> None:
    require(even_integers(values), "a certified eigenvalue is not an even integer")


def theorem_truths(values, r_min: int) -> dict:
    """What each of chd's theorem checks should conclude about a spectrum,
    keyed by check name; r_min is the matrix's minimal root order."""
    ints = [round(v.real) for v in values if abs(v - round(v.real)) <= TOL * max(1.0, abs(v))]
    return {
        "even-spectrum-real-turyn": len(ints) == len(values) and all(k % 2 == 0 for k in ints),
        "power-of-two-even-integers": all(k % 2 == 0 for k in ints),
        "prime-divisibility-and-multiplicity": all(
            k % r_min == 0 and ints.count(k) >= r_min - 1 for k in set(ints) - {0}
        ),
    }


# -- walks ----------------------------------------------------------------


class Walk:
    """exp(-i t L) from ``eigh`` of a float Laplacian (never from H)."""

    def __init__(self, lap: np.ndarray) -> None:
        self.lam, self.vec = np.linalg.eigh(lap)

    def column(self, t: float, a: int) -> np.ndarray:
        return self.vec @ (np.exp(-1j * t * self.lam) * self.vec[a, :])

    def revives(self, a: int, b: int, t: float) -> bool:
        """Fractional revival from a to b with a nonzero b amplitude."""
        col = self.column(t, a)
        mass = abs(col[a]) ** 2 + abs(col[b]) ** 2
        return mass >= 1 - 1e-9 and abs(col[b]) > 1e-9


def revival_pair(gamma_turns: Fraction) -> tuple[complex, complex]:
    """(alpha, beta) = ((1 + e^{2ig}) / 2, (1 - e^{2ig}) / 2) for g = 2 pi gamma."""
    z = cmath.exp(4j * math.pi * float(gamma_turns))
    return (1 + z) / 2, (1 - z) / 2


def check_revival(walk: Walk, a: int, b: int, tau_turns: Fraction, gamma_turns: Fraction) -> None:
    """Column a of exp(-i tau L) is alpha e_a + beta e_b with beta != 0."""
    alpha, beta = revival_pair(gamma_turns)
    target = np.zeros(len(walk.lam), dtype=complex)
    target[a], target[b] = alpha, beta
    err = np.max(np.abs(walk.column(2 * math.pi * float(tau_turns), a) - target))
    require(err <= TOL, f"revival {a}->{b} at tau={tau_turns} turns, gamma={gamma_turns}: residual {err:.2e}")
    require(abs(beta) > TOL, f"revival {a}->{b} has beta = 0")


def same_mod_half(x: Fraction, y: Fraction) -> bool:
    return (x - y) % Fraction(1, 2) == 0


# -- cuts -----------------------------------------------------------------


def brute_cuts(a: np.ndarray, chunk_bits: int = 16):
    """(min Cheeger ratio, min edge density) over all proper subsets, by
    chunked numpy enumeration of the subsets avoiding the last vertex."""
    n = a.shape[0]
    deg = a.sum(axis=1)
    total = deg.sum()
    w = np.triu(a)
    edges = [(u, v, w[u, v]) for u, v in zip(*np.nonzero(w))]
    best_h = best_d = math.inf
    count = 1 << (n - 1)
    step = 1 << min(chunk_bits, n - 1)
    for start in range(0, count, step):
        masks = np.arange(start, min(count, start + step), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n - 1)) & 1).astype(float)
        bits = np.concatenate([bits, np.zeros((len(masks), 1))], axis=1)
        cut = np.zeros(len(masks))
        for u, v, wt in edges:
            cut += wt * np.abs(bits[:, u] - bits[:, v])
        size = bits.sum(axis=1)
        vol = bits @ deg
        ok = size > 0
        best_h = min(best_h, np.min(cut[ok] / np.minimum(vol[ok], total - vol[ok])))
        best_d = min(best_d, np.min(n * cut[ok] / (size[ok] * (n - size[ok]))))
    return float(best_h), float(best_d)


def check_value(got, expected: float, what: str) -> None:
    got = float(Fraction(got))
    require(abs(got - expected) <= TOL * max(1.0, abs(expected)), f"{what} is {got}, expected {expected}")


# -- catalogue ------------------------------------------------------------


def check_catalogue(entries: list[dict]) -> None:
    """Entries (as JSON) are pairwise non-isomorphic within each order, the
    list is closed under complement, every witness diagonalises its graph in
    floats and every certified eigenvalue is an even integer."""
    import networkx as nx

    graphs = []
    for e in entries:
        a = adjacency(e["graph"])
        h = e["hadamard"]
        hc = complex_matrix(h["exps"], h["r"])
        check_hadamard(hc)
        lap = laplacian(a)
        require(diagonalises(lap, hc), f"witness {h.get('name')} does not diagonalise {e['name']}")
        vals = np.linalg.eigvalsh(lap)
        check_even_integers(vals)
        require(
            sorted(Fraction(x) for x in e["eigenvalues"]) == sorted(Fraction(round(v)) for v in vals),
            f"catalogue eigenvalues of {e['name']} differ from eigvalsh",
        )
        graphs.append(nx.from_numpy_array(a))
    for i, j in combinations(range(len(entries)), 2):
        if entries[i]["order"] == entries[j]["order"]:
            require(
                not nx.is_isomorphic(graphs[i], graphs[j]),
                f"catalogue entries {entries[i]['name']} and {entries[j]['name']} are isomorphic",
            )
    for i, g in enumerate(graphs):
        comp = nx.complement(g)
        require(
            any(
                entries[j]["order"] == entries[i]["order"] and nx.is_isomorphic(comp, graphs[j])
                for j in range(len(graphs))
            ),
            f"the complement of {entries[i]['name']} is missing",
        )


# -- the command line -----------------------------------------------------


def _no_constant(name: str):
    raise CheckError(f"stdout holds {name}, which is not JSON")


def cli_output(code: int, stdout: str):
    """Parsed stdout of a command that exited 0 (NaN and Infinity refused)."""
    require(code == 0, f"exit code {code}")
    try:
        return json.loads(stdout, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def cli_rejection(code: int, stderr: str) -> dict:
    """The JSON error object of a command that must reject its input: exit
    code 1 and a JSON object with an "error" field on stderr."""
    require(code == 1, f"exit code {code}, expected 1")
    try:
        err = json.loads(stderr)
    except json.JSONDecodeError:
        raise CheckError(f"stderr is not JSON: {stderr.strip()[-200:]!r}") from None
    require(isinstance(err, dict) and "error" in err, f"stderr {err!r} has no error field")
    return err
