"""Continuous-time Laplacian quantum walks with exact revival certification.

The walk operator exp(-i t L) is evaluated in floating point through the
spectral decomposition supplied by an exact certificate.  Fractional-revival
and perfect-state-transfer checks, by contrast, are pure congruence
arithmetic on integer eigenvalues and exact rational multiples of 2*pi;
floats only ever appear in the final cross-validation of a certificate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import reduce
from .diagonalise import SpectrumAssignment, certify, regularity_check
from .errors import ChdError, ExactnessError, InternalCheckError, PreconditionError
from .graphs import AbelianGroup, WeightedGraph, connection_set, merge
from .hadamard import ButsonMatrix, character_table, double, verify

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

_BLOCK = 256  # certificates per cross-validation product (n x 256 complex values)


class RationalAngle:
    """An angle that is an exact rational multiple of 2*pi.

    Stored canonically as num/den of a full turn with 0 <= num < den and
    gcd(num, den) = 1, so equality is equality modulo 2*pi.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        if den == 0:
            raise ChdError("angle denominator must be nonzero")
        f = Fraction(num, den) % 1
        self.num = f.numerator
        self.den = f.denominator

    @classmethod
    def of_turn(cls, num: int, den: int) -> "RationalAngle":
        """The angle 2*pi * num/den."""
        return cls(num, den)

    @classmethod
    def of_pi(cls, num: int, den: int) -> "RationalAngle":
        """The angle pi * num/den."""
        return cls(num, 2 * den)

    @classmethod
    def zero(cls) -> "RationalAngle":
        return cls(0, 1)

    def turns(self) -> Fraction:
        return Fraction(self.num, self.den)

    def times(self, k: int) -> "RationalAngle":
        return RationalAngle(self.num * k, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def is_zero_mod_pi(self) -> bool:
        return self.times(2).is_zero()

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


def _unitary(h: ButsonMatrix, lam: np.ndarray, t: float) -> np.ndarray:
    """(1/n) H diag(exp(-i t lam)) H*, the walk unitary in floats."""
    if not math.isfinite(t):
        raise ChdError(f"walk time must be finite, got {t}")
    hc = h.to_complex()
    phases = np.exp(-1j * t * lam)
    return (hc * phases[None, :]) @ hc.conj().T / h.n


def evolve(
    g: WeightedGraph,
    h: ButsonMatrix,
    spectrum: SpectrumAssignment,
    t: float,
) -> np.ndarray:
    """The walk unitary exp(-i t M) computed spectrally as
    (1/n) H exp(-i t Lambda) H*."""
    if g.n != h.n or spectrum.n != g.n:
        raise ChdError("graph, matrix and spectrum orders must agree")
    return _unitary(h, np.array(spectrum.floats()), t)


def _half_turn_residues(exps: np.ndarray, r: int) -> np.ndarray:
    """Exponent rows mod a half turn (r/2; r if r is odd): rows a and b are
    strongly cospectral, each difference 0 or r/2 mod r, iff these agree."""
    return exps % (r // 2 if r % 2 == 0 else r)


def _require_dephased(h: ButsonMatrix, caller: str) -> None:
    if not verify(h):
        raise PreconditionError(f"{caller} needs a verified matrix")
    if not h.is_dephased():
        raise PreconditionError(f"{caller} needs a dephased matrix")


def strongly_cospectral(h: ButsonMatrix, a: int, b: int) -> tuple[int, ...] | None:
    """Sign pattern sigma with H[a, j] = sigma_j H[b, j] if one exists.

    Decided exactly on the exponents: +1 where they agree, -1 where they
    differ by a half turn (possible only for even root order), else None.
    """
    _require_dephased(h, "strongly_cospectral")
    for vertex in (a, b):
        if not 0 <= vertex < h.n:
            raise ChdError(f"vertex {vertex} is out of range for n={h.n}")
    rows = h.exps[[a, b]]
    if not np.array_equal(*_half_turn_residues(rows, h.r)):
        return None
    return tuple(np.where(rows[0] == rows[1], 1, -1).tolist())


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
    gamma: plus-columns need tau * lambda_j = 0 (mod 2pi), minus-columns
    need -tau * lambda_j = 2 gamma (mod 2pi), the minus set must be
    nonempty and gamma must not be a multiple of pi (beta != 0)."""
    lam = spectrum.integers()
    sigma = strongly_cospectral(h, a, b)
    if sigma is None or all(s == 1 for s in sigma) or gamma.is_zero_mod_pi():
        return False
    two_gamma = gamma.times(2)
    return all(
        tau.times(l).is_zero() if s == 1 else tau.times(-l) == two_gamma
        for s, l in zip(sigma, lam)
    )


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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def find_fr(
    g: WeightedGraph, h: ButsonMatrix, spectrum: SpectrumAssignment
) -> list[FRCertificate]:
    """All fractional-revival certificates over strongly cospectral pairs,
    in (a, b, q, s) order.

    For a pair with plus-eigenvalues P and minus-eigenvalues M, every valid
    time is tau = 2*pi*s/q with q dividing gcd(P \\ {0}); when P = {0} the
    denominators are capped at the divisors of 2*lcm(M), which still captures
    every perfect-state-transfer time (a documented completeness boundary).
    A candidate is kept when all of M is one residue class mod q and the
    resulting phase is not a multiple of pi.

    Pairs are rows equal modulo a half turn.  The (tau, gamma) list depends
    on the sign pattern alone and is computed once per pattern (Q7: 127 for
    8128 pairs).  Each certificate is checked against the float walk to 1e-9
    in blocks of 256 sharing tau (n x 256 complex arrays, 16 MiB at n = 4096).
    """
    lam = spectrum.integers()
    _require_dephased(h, "find_fr")
    residues = _half_turn_residues(h.exps, h.r).astype(np.uint16)  # r <= 1024
    classes: dict[bytes, list[int]] = {}
    for v, row in enumerate(residues):
        classes.setdefault(row.tobytes(), []).append(v)
    times: dict[bytes, tuple] = {}  # minus-column mask -> (sigma, [(tau, gamma)])
    out: list[FRCertificate] = []
    for a, row in enumerate(residues):
        peers = classes[row.tobytes()]
        later = peers[peers.index(a) + 1 :]
        for b, minus in zip(later, h.exps[later] != h.exps[a]):
            if (key := minus.tobytes()) not in times:
                times[key] = _revival_times(minus, lam)
            sigma, found = times[key]
            if found:
                out.extend(FRCertificate(a, b, tau, gamma, sigma) for tau, gamma in found)
    _cross_validate(h.to_complex(), np.array(spectrum.floats()), out)
    return out


def _revival_times(minus_cols: np.ndarray, lam: list[int]) -> tuple:
    """A mask's sign pattern (None if it never revives) and (tau, gamma) list."""
    signs = np.where(minus_cols, -1, 1).tolist()
    minus = sorted({l for s, l in zip(signs, lam) if s == -1})
    if not minus or 0 in minus:
        return None, []
    plus_nonzero = sorted({l for s, l in zip(signs, lam) if s == 1 and l != 0})
    qs = _divisors(math.gcd(*plus_nonzero) if plus_nonzero else 2 * math.lcm(*minus))
    found, mu = [], minus[0]
    for q in qs:
        for s in range(1, q):
            if math.gcd(s, q) != 1:
                continue
            tau = RationalAngle.of_turn(s, q)
            if any((l - mu) * s % q for l in minus):
                continue
            gamma2 = tau.times(-mu)  # = 2*gamma mod 2pi
            if gamma2.is_zero():
                continue  # beta would vanish
            found.append((tau, _half_of(gamma2)))
    return (tuple(signs) if found else None), found


def _half_of(angle: RationalAngle) -> RationalAngle:
    """A gamma with 2*gamma equal to the angle mod 2pi (any choice mod pi)."""
    return RationalAngle(angle.num, 2 * angle.den)


def _cross_validate(hc: np.ndarray, lam: np.ndarray, certs: list[FRCertificate]) -> None:
    # column a of U(tau) = (1/n) H diag(phases) H* for each certificate
    n, residual = len(hc), np.zeros(len(certs))
    by_tau, weights = {}, {}  # tau -> certificate indices, gamma -> (alpha, beta)
    for i, cert in enumerate(certs):
        by_tau.setdefault(cert.tau, []).append(i)
        if cert.gamma not in weights:
            weights[cert.gamma] = cert.alpha, cert.beta
    for tau, idx in by_tau.items():
        phases = np.exp(-1j * tau.to_float() * lam)[:, None] / n
        for block in (idx[k : k + _BLOCK] for k in range(0, len(idx), _BLOCK)):
            a, cols = [certs[i].a for i in block], np.arange(len(block))
            alpha, beta = np.array([weights[certs[i].gamma] for i in block]).T
            err = hc @ (phases * hc[a].conj().T)
            err[a, cols] -= alpha
            err[[certs[i].b for i in block], cols] -= beta
            residual[block] = np.abs(err).max(axis=0)
    for i in np.flatnonzero(~(residual <= 1e-9))[:1]:  # the first failure; NaN fails
        raise InternalCheckError(
            f"certificate {certs[i]} failed float validation (residual {residual[i]:.2e})"
        )


def cayley_fr_conditions(
    group: AbelianGroup, connection, a, b, tau: RationalAngle
) -> bool:
    """Fractional-revival test for a Cayley graph straight from the group
    data: integer spectrum, difference of order two, and the single-phase
    congruence on each character class."""
    conn_idx = [group.index(c) for c in connection_set(group, connection)]
    table = character_table(group.moduli)
    table_exps, r = table.exps, table.r
    # lambda_j = |C| - sum_{c in C} chi_j(c), one coefficient row per j
    coeffs = np.zeros((group.order, r), dtype=np.int64)
    coeffs[:, 0] = len(conn_idx)
    np.add.at(coeffs, (np.arange(group.order)[:, None], table_exps[conn_idx].T), -1)
    rem = reduce(coeffs, r)
    if rem[:, 1:].any():
        return False  # irrational eigenvalue: no revival is possible
    lam = rem[:, 0].tolist()
    diff = group.sub(group.normalise(a), group.normalise(b))
    if group.element_order(diff) != 2:
        return False
    # chi_j(a-b) = +-1 is forced by the order-two difference
    row = table_exps[group.index(diff)]
    if _half_turn_residues(row, r).any():
        return False
    sigma = np.where(row == 0, 1, -1).tolist()
    minus = sorted({l for s, l in zip(sigma, lam) if s == -1})
    if not minus or 0 in minus:
        return False
    if any(s_ == 1 and not tau.times(l).is_zero() for s_, l in zip(sigma, lam)):
        return False
    mu = minus[0]
    return all(tau.times(l - mu).is_zero() for l in minus) and not tau.times(mu).is_zero()


def double_cover_fr(
    g1: WeightedGraph,
    g2: WeightedGraph,
    h: ButsonMatrix,
    spectra: tuple[SpectrumAssignment, SpectrumAssignment],
    tau: RationalAngle,
) -> RationalAngle | None:
    """Revival phase for the two-layer cover of G1 and G2 at time tau.

    Both graphs must be certified by the same dephased matrix; the phase is
    -d2 * tau (mod pi) and exists iff tau * (lambda_j + mu_j) and
    tau * (lambda_j - mu_j) vanish mod 2pi for every column, and it is not a
    multiple of pi (otherwise the revival degenerates).  A found phase is
    re-checked through the direct revival test on the built cover."""
    spec1, spec2 = spectra
    if g1.n != g2.n or spec1.n != g1.n or spec2.n != g2.n:
        raise ChdError("double cover needs equal orders and matching spectra")
    lam, mu = spec1.integers(), spec2.integers()
    d2 = regularity_check(g2)
    if d2 is None or d2.denominator != 1:
        raise ExactnessError("second layer must be regular with integer degree")
    if not all(tau.times(l + m).is_zero() and tau.times(l - m).is_zero()
               for l, m in zip(lam, mu)):
        return None
    gamma = tau.times(-int(d2))
    if gamma.is_zero_mod_pi():
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
    d = regularity_check(g)
    if d is None:
        raise PreconditionError("the relation needs a regular graph")
    if spectrum.target != "laplacian":
        raise ChdError("supply the laplacian spectrum")
    lam = np.array(spectrum.floats())
    ua = _unitary(h, float(d) - lam, t)
    rhs = cmath.exp(-1j * float(d) * t) * np.conj(_unitary(h, lam, t))
    return bool(np.max(np.abs(ua - rhs)) <= 1e-9)
