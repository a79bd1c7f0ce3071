"""Continuous-time Laplacian quantum walks with exact revival certification.

The walk operator exp(-i t L) is evaluated in floating point through the
spectral decomposition supplied by an exact certificate.  Fractional-revival
and perfect-state-transfer checks, by contrast, are pure congruence
arithmetic on integer eigenvalues and exact rational multiples of 2*pi;
floats only ever appear in the final cross-validation of a certificate.

One rule decides revival (Chan, Coutinho, Tamon, Vinet and Zhan, 2019).  For
strongly cospectral a and b, H[a, j] = sigma_j H[b, j], with eigenvalues
lambda_j, the walk sends e_a to alpha e_a + beta e_b, beta != 0, at time tau
iff tau * lambda_j = 0 (mod 2pi) wherever sigma_j = +1 and
-tau * lambda_j = 2 gamma (mod 2pi), one value and not 0, wherever
sigma_j = -1.  ``_revival_phase`` decides it on integers; the revival entry
points differ only in where sigma and lambda come from and which tau they try.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import all_integers, reduce
from .diagonalise import SpectrumAssignment, _require_orders, certify, regularity_check
from .errors import ChdError, ExactnessError, InternalCheckError, PreconditionError
from .graphs import AbelianGroup, WeightedGraph, blocks, connection_set, merge
from .hadamard import ButsonMatrix, _require_dephased, character_rows, double

__all__ = [
    "RationalAngle",
    "FRCertificate",
    "evolve",
    "strongly_cospectral",
    "check_fr",
    "check_pst",
    "find_fr",
    "cayley_fr_conditions",
    "double_cover_fr",
    "adjacency_walk_relation",
]

class RationalAngle:
    """An angle that is an exact rational multiple of 2*pi.

    Stored canonically as num/den of a full turn with 0 <= num < den and
    gcd(num, den) = 1, so equality is equality modulo 2*pi.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        if not all_integers((num, den)):
            raise ChdError(f"angle parts must be integers, got {num!r}/{den!r}")
        if den == 0:
            raise ChdError("angle denominator must be nonzero")
        g = math.gcd(num, den) * (1 if den > 0 else -1)
        self.num = int(num // g % (den // g))
        self.den = int(den // g)

    @classmethod
    def of_turn(cls, num: int, den: int) -> "RationalAngle":
        """The angle 2*pi * num/den."""
        return cls(num, den)

    @classmethod
    def of_pi(cls, num: int, den: int) -> "RationalAngle":
        """The angle pi * num/den."""
        return cls(num, 2 * den)

    def turns(self) -> Fraction:
        return Fraction(self.num, self.den)

    def times(self, k: int) -> "RationalAngle":
        return RationalAngle(self.num * k, self.den)

    def equals_mod_pi(self, other: "RationalAngle") -> bool:
        return self.times(2) == other.times(2)

    def signed_turns_mod_half(self) -> Fraction:
        """Representative of the angle modulo pi in the window (-1/4, 1/4]
        of a full turn, i.e. in (-pi/2, pi/2] as a real angle."""
        f = self.turns() % Fraction(1, 2)
        if f > Fraction(1, 4):
            f -= Fraction(1, 2)
        return f

    def to_float(self) -> float:
        return 2.0 * math.pi * self.num / self.den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalAngle({self.num}/{self.den} of 2pi)"

    def display(self) -> str:
        return f"{self.num}/{self.den} of 2pi"


@dataclass(frozen=True)
class FRCertificate:
    """Witness that the walk sends e_a to alpha e_a + beta e_b at time tau.

    gamma parametrises the pair as alpha = cos(g) e^{ig},
    beta = -i sin(g) e^{ig} with g the representative of gamma in
    (-pi/2, pi/2]; consequently alpha + beta = 1 and
    alpha - beta = e^{2ig} identically, and beta != 0 iff gamma is not a
    multiple of pi.
    """

    a: int
    b: int
    tau: RationalAngle
    gamma: RationalAngle
    sign_pattern: tuple[int, ...]

    def gamma_signed(self) -> Fraction:
        return self.gamma.signed_turns_mod_half()

    @property
    def alpha(self) -> complex:
        g = 2.0 * math.pi * float(self.gamma_signed())
        return math.cos(g) * cmath.exp(1j * g)

    @property
    def beta(self) -> complex:
        g = 2.0 * math.pi * float(self.gamma_signed())
        return -1j * math.sin(g) * cmath.exp(1j * g)

    @property
    def is_pst(self) -> bool:
        return self.gamma_signed() == Fraction(1, 4)

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "tau": {"num": self.tau.num, "den": self.tau.den, "unit": "2pi"},
            "tau_str": self.tau.display(),
            "gamma": {"num": self.gamma.num, "den": self.gamma.den, "unit": "2pi"},
            "gamma_str": self.gamma.display(),
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
            "pst": self.is_pst,
            "sign_pattern": list(self.sign_pattern),
        }


def _unitary(hc: np.ndarray, lam: np.ndarray, t: float) -> np.ndarray:
    """The float walk unitary U(t) = (1/n) H diag(exp(-i t lam)) H*, hc = H.

    It is formed here as (H diag(phases)) H*, the form of ``evolve`` and
    ``adjacency_walk_relation``.  ``_cross_validate`` forms only columns,
    U(t) e_a = H (phases * conj(H[a]))^T / n: the same sums in the other
    association, which differ by about 1e-16 and need no n x n
    H diag(phases).
    """
    if isinstance(t, bool) or not isinstance(t, numbers.Real):
        raise ChdError(f"walk time must be a real number, got {t!r}")
    try:
        finite = math.isfinite(float(t) * float(np.abs(lam).max(initial=0)))
    except OverflowError:  # an integer or Fraction past the float range
        finite = False
    if not finite:
        raise ChdError(f"walk time must be finite, as must t * lambda, got {t}")
    phases = np.exp(-1j * t * lam)
    return (hc * phases[None, :]) @ hc.conj().T / len(hc)


def evolve(
    g: WeightedGraph,
    h: ButsonMatrix,
    spectrum: SpectrumAssignment,
    t: float,
) -> np.ndarray:
    """The walk unitary exp(-i t M) computed spectrally as
    (1/n) H exp(-i t Lambda) H*."""
    _require_orders(g, h, spectrum)
    return _unitary(h.to_complex(), np.array(spectrum.floats()), t)


def _half_turn_residues(exps: np.ndarray, r: int) -> np.ndarray:
    """Exponent rows mod a half turn (r/2; r if r is odd): rows a and b are
    strongly cospectral, each difference 0 or r/2 mod r, iff these agree."""
    return exps % (r // 2 if r % 2 == 0 else r)


def _signs(row_a: np.ndarray, row_b: np.ndarray) -> tuple[int, ...]:
    """+1 where two exponent rows agree, -1 where they differ."""
    return tuple(np.where(row_a == row_b, 1, -1).tolist())


def _sign_pattern(row_a: np.ndarray, row_b: np.ndarray, r: int) -> tuple[int, ...] | None:
    """+1 where two exponent rows agree, -1 where they differ by a half
    turn, and None if they differ otherwise anywhere."""
    if not np.array_equal(_half_turn_residues(row_a, r), _half_turn_residues(row_b, r)):
        return None
    return _signs(row_a, row_b)


def strongly_cospectral(h: ButsonMatrix, a: int, b: int) -> tuple[int, ...] | None:
    """Sign pattern sigma with H[a, j] = sigma_j H[b, j] if one exists,
    decided exactly on the exponents (a half turn needs even root order)."""
    _require_dephased(h, "strongly_cospectral")
    for vertex in (a, b):
        if not (all_integers((vertex,)) and 0 <= vertex < h.n):
            raise ChdError(f"a vertex must be an integer in 0..{h.n - 1}, got {vertex!r}")
    return _sign_pattern(h.exps[a], h.exps[b], h.r)


def _split(sigma, lam) -> tuple[set[int], set[int]]:
    """Distinct plus- and minus-eigenvalues of a sign pattern (none without one)."""
    pairs = list(zip(sigma or (), lam))
    return {l for s, l in pairs if s == 1}, {l for s, l in pairs if s == -1}


def _revival_phase(plus, minus, s: int, q: int) -> RationalAngle | None:
    """2 gamma for revival at tau = 2pi s/q, or None if there is none: every
    s * l for l in plus is 0 mod q, and every -s * l for l in minus is one
    nonzero residue mod q (so the minus set is not empty)."""
    phases = {-l * s % q for l in minus}
    if len(phases) != 1 or 0 in phases or any(l * s % q for l in plus):
        return None
    return RationalAngle(phases.pop(), q)


def _require_angles(**angles) -> None:
    for name, angle in angles.items():
        if not isinstance(angle, RationalAngle):
            raise ChdError(f"{name} must be a RationalAngle, got {angle!r}")


def check_fr(
    g: WeightedGraph,
    h: ButsonMatrix,
    spectrum: SpectrumAssignment,
    a: int,
    b: int,
    tau: RationalAngle,
    gamma: RationalAngle,
) -> bool:
    """Exact test of fractional revival from a to b at time tau with phase
    gamma (mod pi); sigma is read off rows a and b of H, lambda off the
    certified spectrum, which must be integral."""
    _require_angles(tau=tau, gamma=gamma)
    _require_orders(g, h, spectrum)
    lam = spectrum.integers()
    two = _revival_phase(*_split(strongly_cospectral(h, a, b), lam), tau.num, tau.den)
    return two is not None and two == gamma.times(2)


def check_pst(
    g: WeightedGraph,
    h: ButsonMatrix,
    spectrum: SpectrumAssignment,
    a: int,
    b: int,
    tau: RationalAngle,
) -> bool:
    """Perfect state transfer is fractional revival with gamma = pi/2."""
    return check_fr(g, h, spectrum, a, b, tau, RationalAngle.of_pi(1, 2))


def find_fr(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment
) -> list[FRCertificate]:
    """All fractional-revival certificates over strongly cospectral pairs,
    in (a, b, q, s) order; sigma is read off the rows of H, lambda off the
    certified spectrum, which must be integral.

    For a pair with plus-eigenvalues P and minus-eigenvalues M, every valid
    time is tau = 2*pi*s/q with q dividing gcd(P \\ {0}), and those are the
    candidates tried.  When P = {0} the denominators are capped at the
    divisors of 2*lcm(M), which still captures every perfect-state-transfer
    time: this is the search's completeness boundary.

    The (tau, gamma) list depends on P and M alone, so pairs are keyed by
    them (``_pair_keys``) and each distinct key is decided once (Q7: 3 keys
    for 8128 pairs).  Sigma and the certificates are built only for pairs
    whose key revives, and each certificate is checked to 1e-9 against its
    float walk column (``_cross_validate``).
    """
    _require_orders(g, h, spectrum)
    lam = spectrum.integers()
    _require_dephased(h, "find_fr")
    classes: dict[int, int] = {}  # one per distinct integer eigenvalue
    cls = [classes.setdefault(int(e.rational), len(classes)) for e in spectrum.values]
    out, times, rows = _revivals(h.exps, h.r, lam, np.take(cls, spectrum.index))
    _cross_validate(h.to_complex(), np.array(lam, dtype=float), out, times, rows)
    return out


def _revivals(exps: np.ndarray, r: int, lam: list[int], cls: np.ndarray):
    """The certificates of ``find_fr`` in order, decided key by key over
    the blocks of ``_pair_keys``; pairs with one sign pattern share sigma.
    Also returns ``times``, the (tau, gamma) of every decided key in turn,
    and the entry of ``times`` that each certificate carries."""
    decided: dict[tuple, range] = {}  # key -> its entries of times, from one pair
    sigmas: dict[bytes, tuple] = {}  # minus columns -> sigma
    certs, times, rows = [], [], []
    for a, b, keys in _pair_keys(exps, r, cls):
        found, which = [], np.full(len(a), -1)  # a pair's entry in found
        for key in map(tuple, _distinct_rows(keys).tolist()):
            if not decided.get(key, True):
                continue
            hit = np.flatnonzero((keys == key).all(axis=1))
            if key not in decided:
                start, first = len(times), _signs(exps[a[hit[0]]], exps[b[hit[0]]])
                times += _revival_times(*_split(first, lam))
                decided[key] = range(start, len(times))
            if decided[key]:
                which[hit] = len(found)
                found.append(decided[key])
        revive = which >= 0
        for x, y, k in zip(a[revive].tolist(), b[revive].tolist(), which[revive].tolist()):
            minus = (exps[x] != exps[y]).tobytes()
            if minus not in sigmas:
                sigmas[minus] = _signs(exps[x], exps[y])
            certs += [FRCertificate(x, y, *times[t], sigmas[minus]) for t in found[k]]
            rows += found[k]
    return certs, times, rows


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, sorted.  Not ``np.unique``, whose
    first call imports ``numpy.ma`` and so adds about 0.5 MB to the
    resident set of each ``chd fr-search`` process."""
    rows = np.sort(keys, axis=0) if keys.shape[1] == 1 else keys[np.lexsort(keys.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new]


# eigenvalue classes per key digit: a digit is a balanced-ternary number of
# at most (3**34 - 1) / 2 < 2**53 in size, so float64 holds it exactly
_DIGIT_CLASSES = 34


def _pair_keys(exps: np.ndarray, r: int, cls: np.ndarray):
    """Blocks of the strongly cospectral pairs a < b in (a, b) order, as
    (a, b, keys): a pair's key says, for each distinct eigenvalue (class
    cls[j] of column j, 0, 1, ...), whether its columns carry only +1, both
    signs or only -1 in sigma, so it fixes the plus- and minus-eigenvalue
    sets and nothing more.

    Rows with equal ``_half_turn_residues`` differ at column j exactly when
    their half bits differ, so with S = (-1)^[exps >= r/2] (all +1 for odd
    r) a pair has (|e| - (S_e S_e^T)[a, b]) / 2 minus columns among the
    columns e of one eigenvalue.  The Gram products S_e S_e^T run in
    float64, exactly: every entry and partial sum is at most n <= 4096
    < 2**53 in size.  They run over row blocks of ``graphs.blocks``, and
    each block's keys take ``_DIGIT_CLASSES`` eigenvalues per float digit.
    """
    n = len(exps)
    half = r // 2 if r % 2 == 0 else r
    index: dict[bytes, int] = {}  # residue row -> class
    residues = _half_turn_residues(exps, r).astype(np.uint16)  # r <= 1024
    same = np.array([index.setdefault(row.tobytes(), len(index)) for row in residues])
    order = np.argsort(cls, kind="stable")
    signs = np.where((exps >= half)[:, order], -1.0, 1.0)
    ends = np.searchsorted(cls[order], np.arange(cls.max() + 2)).tolist()
    bounds = list(zip(ends, ends[1:]))  # the columns of each eigenvalue
    digits = [bounds[i : i + _DIGIT_CLASSES] for i in range(0, len(bounds), _DIGIT_CLASSES)]
    for rows in blocks(n, n * len(digits)):
        lo = rows.start
        pairs = np.triu(same[rows, None] == same[None, lo:], 1)  # b > a
        a, b = np.nonzero(pairs)
        if not a.size:
            continue
        keys = np.empty((a.size, len(digits)))
        code, gram = np.empty(pairs.shape), np.empty(pairs.shape)
        for i, digit in enumerate(digits):
            code.fill(0)
            for s0, s1 in digit:
                np.matmul(signs[rows, s0:s1], signs[lo:, s0:s1].T, out=gram)
                code *= 3
                code += gram < s1 - s0  # some -1
                code -= gram > s0 - s1  # some +1
            keys[:, i] = code[pairs]
        a += lo
        b += lo
        yield a, b, keys


def _revival_times(plus: set[int], minus: set[int]) -> list:
    """(tau, gamma) for every time at which a pair with these plus- and
    minus-eigenvalues revives, in (q, s) order."""
    top = math.gcd(*plus) if plus - {0} else 2 * math.lcm(*minus)
    return [
        (RationalAngle.of_turn(s, q), _half_of(two))
        for q in range(1, top + 1) if top % q == 0
        for s in range(1, q)
        if math.gcd(s, q) == 1 and (two := _revival_phase(plus, minus, s, q)) is not None
    ]


def _half_of(angle: RationalAngle) -> RationalAngle:
    """A gamma with 2*gamma equal to the angle mod 2pi (any choice mod pi)."""
    return RationalAngle(angle.num, 2 * angle.den)


def _cross_validate(hc: np.ndarray, lam: np.ndarray, certs: list, times: list, rows: list) -> None:
    """Check each certificate's column U(tau) e_a of ``_unitary`` against
    alpha e_a + beta e_b to 1e-9, raising on the first that fails: one
    product per ``graphs.blocks`` block of certificates, whatever their
    taus.  Certificate i carries entry rows[i] of ``times``, whose phase
    row and (alpha, beta) are formed once; one that does not fails first."""
    n = len(hc)
    for stray in (c for c, t in zip(certs, rows) if (c.tau, c.gamma) != times[t]):
        raise InternalCheckError(f"certificate {stray} is not the (tau, gamma) of its pair key")
    # rows exp(+i tau Lambda): each vector exp(-i tau Lambda) * conj(H[a]) is
    # formed in place as the conjugate of its row times H[a]
    conj_phases = np.exp(1j * np.array([tau.to_float() for tau, _ in times])[:, None] * lam)
    some = dict(zip(rows, certs))  # a certificate of each entry, as all carry it
    weights = np.array([(some[t].alpha, some[t].beta) for t in range(len(times))])
    rows = np.array(rows, dtype=np.intp)
    for block in blocks(len(certs), n):
        part = certs[block]
        a, cols = [c.a for c in part], np.arange(len(part))
        alpha, beta = weights[rows[block]].T
        vec = conj_phases[rows[block]]
        vec *= hc[a]
        err = hc @ np.conjugate(vec, out=vec).T
        err /= n
        err[a, cols] -= alpha
        err[[c.b for c in part], cols] -= beta
        residual = np.abs(err).max(axis=0)
        for i in np.flatnonzero(~(residual <= 1e-9))[:1]:  # the first failure; NaN fails
            raise InternalCheckError(
                f"certificate {part[i]} failed float validation (residual {residual[i]:.2e})"
            )


def cayley_fr_conditions(
    group: AbelianGroup, connection, a, b, tau: RationalAngle
) -> bool:
    """Fractional-revival test for a Cayley graph straight from the group
    data: lambda_j is the character sum over the connection set (an
    irrational one rules revival out) and sigma is read off the character
    rows of a and b."""
    _require_angles(tau=tau)
    conn = list(connection_set(group, connection))
    rows, r = character_rows(group, [group.identity, *conn, *group.normalise_all([a, b]).tolist()])
    # lambda_j = |C| chi_j(0) - sum_{c in C} chi_j(c)
    weights = np.array([len(conn)] + [-1] * len(conn), dtype=np.int64)
    rem = reduce(weights, r, rows[: len(conn) + 1])
    if rem[:, 1:].any():
        return False  # irrational eigenvalue: no revival is possible
    sigma = _sign_pattern(rows[-2], rows[-1], r)
    return _revival_phase(*_split(sigma, rem[:, 0].tolist()), tau.num, tau.den) is not None


def double_cover_fr(
    g1: WeightedGraph,
    g2: WeightedGraph,
    h: ButsonMatrix,
    spectra: tuple[SpectrumAssignment, SpectrumAssignment],
    tau: RationalAngle,
) -> RationalAngle | None:
    """Revival phase -d2 * tau (mod pi) from vertex 0 to its copy n in the
    two-layer cover of G1 and a d2-regular G2 at time tau, or None.

    Both graphs must be certified by the same dephased matrix H.  Under
    [H, H; H, -H], sigma is +1 on the columns [H; H] with eigenvalues
    lambda_j + mu_j and -1 on [H; -H] with lambda_j + 2 d2 - mu_j.  A found
    phase is re-checked through ``check_fr`` on the built cover."""
    _require_angles(tau=tau)
    spec1, spec2 = spectra
    _require_orders(g1, h, spec1)
    _require_orders(g2, h, spec2)
    lam, mu = spec1.integers(), spec2.integers()
    d2 = regularity_check(g2)
    if d2 is None or d2.denominator != 1:
        raise ExactnessError("second layer must be regular with integer degree")
    d2 = int(d2)
    plus = {l + m for l, m in zip(lam, mu)}
    minus = {l + 2 * d2 - m for l, m in zip(lam, mu)}
    gamma = tau.times(-d2)
    if _revival_phase(plus, minus, tau.num, tau.den) != gamma.times(2):
        return None
    cover = merge(g1, g2, 1, 1)
    doubled = double(h)
    cover_spec = certify(cover, doubled)
    if cover_spec is None or not check_fr(
        cover, doubled, cover_spec, 0, g1.n, tau, gamma
    ):
        raise InternalCheckError(
            "congruences accepted a phase the direct cover test rejects"
        )
    return gamma


def adjacency_walk_relation(
    g: WeightedGraph,
    h: ButsonMatrix,
    spectrum: SpectrumAssignment,
    t: float,
) -> bool:
    """Float check that exp(-i t A) equals exp(-i d t) * conj(exp(-i t L))
    for a d-regular graph, both sides computed spectrally, to 1e-9."""
    _require_orders(g, h, spectrum)
    d = regularity_check(g)
    if d is None:
        raise PreconditionError("the relation needs a regular graph")
    if spectrum.target != "laplacian":
        raise ChdError("supply the laplacian spectrum")
    hc, lam = h.to_complex(), np.array(spectrum.floats())
    ua = _unitary(hc, float(d) - lam, t)
    rhs = cmath.exp(-1j * float(d) * t) * np.conj(_unitary(hc, lam, t))
    return bool(np.max(np.abs(ua - rhs)) <= 1e-9)
