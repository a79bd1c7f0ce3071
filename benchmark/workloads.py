"""The four workloads: their seeded inputs, their jobs and the checks of
each job's output.

A workload's set-up function takes the seed, the span recorder and a
scratch directory, and returns a ``Workload``: the jobs of one pass, each a
``run`` (timed, calls chd) and a ``check`` (untimed, raises ``CheckError``),
plus a ``probe``, the command-line round trip that gives ``cli_ms_p50`` on a
workload that otherwise runs in process.  Expected values are computed by
``checks`` lazily, once per run, and compared with every pass's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product as iter_product
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
from checks import CheckError, require

import chd.cli
from chd import diagonalise, graphs, hadamard, spectral, walks
from chd.graphs import AbelianGroup, WeightedGraph
from chd.hadamard import ButsonMatrix, character_table
from chd.walks import RationalAngle

ROOT = Path(__file__).resolve().parent.parent


class OperationFailed(Exception):
    """The program did not complete an operation (as opposed to completing
    it with a wrong result, which a check reports)."""


@dataclass
class Job:
    name: str
    run: Callable  # (recorder) -> output
    check: Callable  # (output) -> None, raises CheckError


@dataclass
class Workload:
    jobs: list[Job]
    probe: Job | None = None  # a CLI job run after the timed phase
    cli: bool = False  # every job is a CLI round trip
    check_setup: Callable | None = None  # checks of outputs made during set-up


# -- shared helpers --------------------------------------------------------


def connection(rng: random.Random, group: AbelianGroup, pairs: int, involutions: int = 0) -> list:
    """A seeded connection set of fixed size: `pairs` pairs {x, -x} with
    x != -x, plus `involutions` elements with x = -x.  The size, and so the
    degree and the cost of the graph, does not depend on the seed."""
    els = group.elements()[1:]
    twos = sorted({min(el, group.neg(el)) for el in els if el != group.neg(el)})
    conn = {el for x in rng.sample(twos, pairs) for el in (x, group.neg(x))}
    conn.update(rng.sample([el for el in els if el == group.neg(el)], involutions))
    return sorted(conn)


def relabel(rng: random.Random, g: WeightedGraph) -> WeightedGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return WeightedGraph.from_edges(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges()])


def permute_columns(rng: random.Random, h: ButsonMatrix) -> ButsonMatrix:
    """The same matrix with columns 1.. shuffled; it stays dephased."""
    cols = list(range(1, h.n))
    rng.shuffle(cols)
    return ButsonMatrix(h.exps[:, [0] + cols], h.r)


def float_matrix(graph_json: dict, target: str = "laplacian") -> np.ndarray:
    a = checks.adjacency(graph_json)
    return checks.laplacian(a) if target == "laplacian" else a


def hc_of(h: ButsonMatrix) -> np.ndarray:
    return checks.complex_matrix(h.exps.tolist(), h.r)


def spectrum_values(spec) -> list[complex]:
    return [checks.eigenvalue(e.cyclo.order, e.cyclo.coeffs, e.scale) for e in spec.entries]


def cayley_adjacency(moduli, conn) -> np.ndarray:
    """Cayley graph adjacency built apart from chd, in row-major order."""
    els = list(iter_product(*(range(m) for m in moduli)))
    index = {el: i for i, el in enumerate(els)}
    a = np.zeros((len(els), len(els)))
    for i, el in enumerate(els):
        for c in conn:
            a[i, index[tuple((x + y) % m for x, y, m in zip(el, c, moduli))]] = 1.0
    return a


def turns(angle: RationalAngle) -> Fraction:
    return Fraction(angle.num, angle.den)


def angle(turns: Fraction) -> RationalAngle:
    return RationalAngle(turns.numerator, turns.denominator)


def label(moduli) -> str:
    return "Z" + "x".join(str(m) for m in moduli)


# -- certify-ladder ----------------------------------------------------------


def _certify_job(name, g, h, target, cycle_n=None) -> Job:
    gj, hj = g.to_json(), h.to_json()
    m = float_matrix(gj, target)
    hc = hc_of(h)
    integer_weights = all(Fraction(w).denominator == 1 for _, _, w in gj["edges"])
    # the paper's theorems speak of the Laplacian of an integer-weighted graph
    paper = target == "laplacian" and integer_weights
    even = paper and 4 % h.r == 0
    r_min = checks.minimal_root_order(hj["exps"], h.r)

    def run(rec):
        g2 = rec.call(WeightedGraph.from_json, gj)
        h2 = rec.call(ButsonMatrix.from_json, hj)  # fresh, so verify runs
        ok = rec.call(hadamard.verify, h2)
        rec.add("hadamard.verify.rejected", not ok)
        spec = rec.call(diagonalise.certify, g2, h2, target)
        rec.add("diagonalise.certify.rejected", spec is None)
        rec.add("diagonalise.certify.columns", 0 if spec is None else g2.n)
        report = rec.call(diagonalise.theorem_checks, g2, h2, spec) if spec else None
        return ok, spec, report

    hadamard_checked = cache(lambda: checks.check_hadamard(hc))

    def check(out):
        ok, spec, report = out
        require(ok, f"{name}: verify rejected a Hadamard matrix")
        hadamard_checked()
        require(spec is not None, f"{name}: certify rejected a diagonalising matrix")
        values = spectrum_values(spec)
        checks.check_spectrum(m, hc, values)
        if cycle_n:
            checks.check_cycle_spectrum(cycle_n, values)
        if even:
            checks.check_even_integers(values)
        # every verdict must state the spectrum truly; where the paper's
        # theorems hold, every one must pass
        truth = checks.theorem_truths(values, r_min)
        for c in report.checks:
            if c.applicable:
                require(c.passed == truth[c.name], f"{name}: verdict {c} is false of the spectrum")
                require(c.passed or not paper, f"{name}: theorem check {c.name} failed: {c.detail}")

    return Job(name, run, check)


def certify_ladder(seed: int, rec, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ct = character_table
    pairs = []
    for d in (5, 6, 7, 8):
        pairs.append((f"Q{d}", graphs.hypercube(d), ct((2,) * d), "laplacian", None))
    for n in (32, 64, 128):
        pairs.append((f"C{n}", graphs.cycle(n), ct((n,)), "laplacian", n))
    for moduli in ((3,) * 4, (4,) * 3, (5,) * 3, (6, 6)):
        group = AbelianGroup(moduli)
        g = graphs.cayley(group, connection(rng, group, 4))
        pairs.append((f"Cay({label(moduli)})", g, ct(moduli), "laplacian", None))
    basis = rng.choice([[(1, 0), (0, 1)], [(1, 1)], [(1, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)]])
    c8 = graphs.cycle(8)
    pairs.append(("NEPS(C8,C8)", graphs.neps([c8, c8], basis), hadamard.tensor(ct((8,)), ct((8,))), "laplacian", None))
    z44 = AbelianGroup((4, 4))
    w1, w2 = rng.choice([(Fraction(1, 2), Fraction(3, 2)), (Fraction(2, 3), Fraction(1, 3)), (Fraction(5, 2), Fraction(1, 4))])
    merged = graphs.merge(graphs.cayley(z44, connection(rng, z44, 3)), graphs.cayley(z44, connection(rng, z44, 3)), w1, w2)
    pairs.append(("merge(Z4x4)", merged, hadamard.double(ct((4, 4))), "laplacian", None))
    z88 = AbelianGroup((8, 8))
    # odd degree: the adjacency spectrum has odd eigenvalues
    pairs.append(("adjacency Cay(Z8x8)", graphs.cayley(z88, connection(rng, z88, 4, 1)), ct((8, 8)), "adjacency", None))
    jobs = [_certify_job(name, g, permute_columns(rng, h), target, n) for name, g, h, target, n in pairs]
    probe = _cli_file_probe(workdir, "certify", graphs.hypercube(5), ct((2,) * 5))
    return Workload(jobs, probe)


# -- revival-search ----------------------------------------------------------


@dataclass(eq=False)  # hashed by identity, for the cached cover walks
class Certified:
    g: WeightedGraph
    h: ButsonMatrix
    spec: object

    @cached_property
    def walk(self) -> checks.Walk:
        """exp(-itL) from eigh, built once per graph and run."""
        return checks.Walk(float_matrix(self.g.to_json()))


def _find_fr_job(name, c: Certified, expect) -> Job:
    def run(rec):
        certs = rec.call(walks.find_fr, c.g, c.h, c.spec)
        rec.add("walks.find_fr.certificates", len(certs))
        return certs

    def check(certs):
        for cert in certs:
            checks.check_revival(c.walk, cert.a, cert.b, turns(cert.tau), turns(cert.gamma))
        if expect is None:  # a seeded Cayley graph need not revive
            return
        a, b, tau, gamma = expect
        require(
            any(x.a == a and x.b == b and turns(x.tau) == tau and checks.same_mod_half(turns(x.gamma), gamma) for x in certs),
            f"{name}: no certificate {a}->{b} at tau={tau} with gamma={gamma}",
        )

    return Job(f"find_fr {name}", run, check)


def revival_search(seed: int, rec, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ct = character_table
    cases = {f"Q{d}": (graphs.hypercube(d), ct((2,) * d)) for d in (4, 5, 6, 7)}
    for n in (4, 6, 8, 12, 16):
        cases[f"CP{n}"] = (graphs.cocktail_party(n), ct((2, n)))
    z444 = AbelianGroup((4, 4, 4))
    cay_conn = connection(rng, z444, 5)
    cases["Cay(Z4x4x4)"] = (graphs.cayley(z444, cay_conn), ct((4, 4, 4)))
    for n in (4, 8):
        cases[f"CP{n}^c"] = (graphs.complement(graphs.cocktail_party(n)), ct((2, n)))
    cert = {}
    for name, (g, h) in cases.items():
        rec.call(hadamard.verify, h)
        cert[name] = Certified(g, h, rec.call(diagonalise.certify, g, h))

    jobs = []
    for d in (4, 5, 6, 7):
        jobs.append(_find_fr_job(f"Q{d}", cert[f"Q{d}"], (0, 2**d - 1, Fraction(1, 4), Fraction(1, 4))))
    for n in (4, 6, 8, 12, 16):
        jobs.append(_find_fr_job(f"CP{n}", cert[f"CP{n}"], (0, n, Fraction(1, 2 * n), Fraction(1, 2 * n))))
    jobs.append(_find_fr_job("Cay(Z4x4x4)", cert["Cay(Z4x4x4)"], None))

    # check_pst: antipodes at pi/2, a neighbour, and a seeded pair and time
    pst_queries = []
    for d in (4, 5, 6, 7):
        n = 2**d
        for b, tau in ((n - 1, Fraction(1, 4)), (1, Fraction(1, 4)), (rng.randrange(1, n), rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))):
            pst_queries.append((f"Q{d}", 0, b, tau))

    def pst_run(rec):
        return [rec.call(walks.check_pst, cert[nm].g, cert[nm].h, cert[nm].spec, a, b, angle(tau))
                for nm, a, b, tau in pst_queries]

    def pst_check(results):
        for (nm, a, b, tau), got in zip(pst_queries, results):
            col = cert[nm].walk.column(2 * math.pi * float(tau), a)
            require(got == (abs(col[b]) >= 1 - 1e-9), f"check_pst {nm} {a}->{b} at {tau} turns returned {got}")
        require(all(results[0::3]), "no PST between antipodes of Q_d at pi/2")

    jobs.append(Job("check_pst", pst_run, pst_check))

    # cayley_fr_conditions straight from the group data
    moduli = (4, 4, 4)
    els = list(iter_product(*(range(m) for m in moduli)))
    cay_walk = cache(lambda: checks.Walk(checks.laplacian(cayley_adjacency(moduli, cay_conn))))
    fr_queries = [(b, tau) for b in ((2, 0, 0), (0, 2, 2), (2, 2, 2), (1, 0, 0), rng.choice(els[1:]))
                  for tau in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))]

    def cfr_run(rec):
        return [rec.call(walks.cayley_fr_conditions, z444, cay_conn, (0, 0, 0), b, angle(tau))
                for b, tau in fr_queries]

    def cfr_check(results):
        for (b, tau), got in zip(fr_queries, results):
            want = cay_walk().revives(0, els.index(b), 2 * math.pi * float(tau))
            require(got == want, f"cayley_fr_conditions 0->{b} at {tau} turns returned {got}, walk says {want}")

    jobs.append(Job("cayley_fr_conditions", cfr_run, cfr_check))

    # double covers of CP(n) and its complement; the cover is built apart
    # from chd's merge, as [[A1, A2], [A2, A1]]
    dc_taus = [Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(1, 3)]
    dc_cases = [(cert[f"CP{n}"], cert[f"CP{n}^c"]) for n in (4, 8)]

    @cache
    def cover_walk(c1, c2):
        a1, a2 = checks.adjacency(c1.g.to_json()), checks.adjacency(c2.g.to_json())
        return checks.Walk(checks.laplacian(np.block([[a1, a2], [a2, a1]])))

    def dc_run(rec):
        return [rec.call(walks.double_cover_fr, c1.g, c2.g, c1.h, (c1.spec, c2.spec), angle(t))
                for c1, c2 in dc_cases for t in dc_taus]

    def dc_check(results):
        it = iter(results)
        for c1, c2 in dc_cases:
            walk = cover_walk(c1, c2)
            for t in dc_taus:
                gamma = next(it)
                if gamma is None:
                    require(not walk.revives(0, c1.g.n, 2 * math.pi * float(t)), f"double_cover_fr missed a revival at {t}")
                else:
                    checks.check_revival(walk, 0, c1.g.n, t, turns(gamma))
        require(any(r is not None for r in results), "double_cover_fr found no revival")

    jobs.append(Job("double_cover_fr", dc_run, dc_check))

    # walk amplitudes, as `chd walk` computes them
    for nm in ("Q6", "Q7", "CP16", "Cay(Z4x4x4)"):
        c = cert[nm]
        t = round(rng.uniform(0.1, 3.0), 4)
        src = rng.randrange(c.g.n)

        def ev_run(rec, c=c, t=t, src=src):
            return rec.call(walks.evolve, c.g, c.h, c.spec, t)[:, src].copy()

        def ev_check(col, c=c, t=t, src=src):
            err = np.max(np.abs(col - c.walk.column(t, src)))
            require(err <= checks.TOL, f"evolve column differs from eigh by {err:.2e}")

        jobs.append(Job(f"evolve {nm}", ev_run, ev_check))

    def check_setup():
        for name, c in cert.items():
            require(c.spec is not None, f"set-up: certify rejected {name}")
            checks.check_spectrum(float_matrix(c.g.to_json()), hc_of(c.h), spectrum_values(c.spec))

    probe = _cli_file_probe(workdir, "fr-search", graphs.cocktail_party(4), ct((2, 4)))
    return Workload(jobs, probe, check_setup=check_setup)


# -- exhaustive-search -------------------------------------------------------

ORDER_16 = ((16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2))


def _scan_job(moduli, samples, tables) -> Job:
    expected = cache(lambda: [
        (checks.diagonalises(m, hc), m, hc) for m in (float_matrix(g.to_json()) for g in samples) for hc in (hc_of(h) for h in tables)
    ])

    def run(rec):
        out = []
        for g in samples:
            for h in tables:
                spec = rec.call(diagonalise.certify, g, h)
                rec.add("diagonalise.certify.rejected", spec is None)
                rec.add("diagonalise.certify.columns", 0 if spec is None else g.n)
                out.append(spec)
        return out

    def check(specs):
        for spec, (accept, m, hc) in zip(specs, expected()):
            require((spec is not None) == accept, f"scan {label(moduli)}: certify returned {spec is not None}, floats say {accept}")
            if spec is not None:
                checks.check_spectrum(m, hc, spectrum_values(spec))

    return Job(f"scan {label(moduli)}", run, check)


def _cut_job(kind, name, g, expected) -> Job:
    fn = spectral.cheeger if kind == "cheeger" else spectral.min_edge_density
    a = checks.adjacency(g.to_json())
    want = cache(lambda: expected if expected is not None else checks.brute_cuts(a)[kind != "cheeger"])

    def run(rec):
        rec.add("spectral.subsets", 2 ** (g.n - 1))
        return rec.call(fn, g)

    def check(out):
        value, witness = out
        checks.check_value(value, want(), f"{kind} of {name}")
        s = np.zeros(g.n)
        s[list(witness.subset)] = 1
        cut = float(s @ a @ (1 - s))
        if kind == "cheeger":
            vol = a.sum(axis=1)
            got = cut / min(s @ vol, (1 - s) @ vol)
        else:
            k = len(witness.subset)
            got = g.n * cut / (k * (g.n - k))
        checks.check_value(value, got, f"{kind} witness of {name}")

    return Job(f"{kind.replace('_', ' ')} {name}", run, check)


def _audit_job(name, g) -> Job:
    a = checks.adjacency(g.to_json())
    d = a.sum(axis=1)[0]

    @cache
    def want():
        return np.linalg.eigvalsh(checks.laplacian(a))[1] / d, checks.brute_cuts(a)[0]

    def run(rec):
        rec.add("spectral.subsets", 2 ** (g.n - 1))
        return rec.call(spectral.cheeger_inequality_audit, g)

    def check(out):
        gamma2, h = want()
        checks.check_value(out["gamma2"], gamma2, f"audit gamma2 of {name}")
        checks.check_value(out["h"], h, f"audit h of {name}")
        require(out["lower_ok"] and out["upper_ok"], f"audit of {name}: Cheeger inequality reported false")
        require(gamma2 / 2 <= h + 1e-12 and h * h <= 2 * gamma2 + 1e-12, f"audit of {name}: floats break the inequality")

    return Job(f"audit {name}", run, check)


def exhaustive_search(seed: int, rec, workdir: Path) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for max_n in (2, 4, 6, 8):
        def cat_run(rec, max_n=max_n):
            entries = rec.call(diagonalise.catalogue, max_n)
            rec.add("diagonalise.catalogue.entries", len(entries))
            return entries

        def cat_check(entries, max_n=max_n):
            require({e.order for e in entries} == set(range(2, max_n + 1, 2)), f"catalogue({max_n}) misses an order")
            checks.check_catalogue([e.to_json() for e in entries])

        jobs.append(Job(f"catalogue({max_n})", cat_run, cat_check))

    tables = [character_table(m) for m in ORDER_16] + [hadamard.sylvester_hadamard(16)]
    for h in tables:
        rec.call(hadamard.verify, h)
    for moduli in ORDER_16:
        group = AbelianGroup(moduli)
        if moduli == (2, 2, 2, 2):  # every element is its own negative
            sizes = [(0, 2 + j) for j in range(4)]
        else:
            sizes = [(1 + j, j % 2) for j in range(4)]
        samples = [graphs.cayley(group, connection(rng, group, *size)) for size in sizes]
        jobs.append(_scan_job(moduli, samples, tables))

    corrupt = []
    for moduli in ((16,), (4, 4), (2,) * 5, (6, 6), (3, 3, 3)):
        base = character_table(moduli)
        for _ in range(6):
            exps = base.exps.copy()
            i, j = rng.randrange(base.n), rng.randrange(base.n)
            exps[i, j] = (exps[i, j] + rng.randrange(1, base.r)) % base.r
            corrupt.append((exps, base.r))

    def verify_run(rec):
        out = []
        for exps, r in corrupt:
            ok = rec.call(hadamard.verify, ButsonMatrix(exps, r))
            rec.add("hadamard.verify.rejected", not ok)
            out.append(ok)
        return out

    @cache
    def corrupt_floats():
        for exps, r in corrupt:
            require(not checks.is_hadamard(checks.complex_matrix(exps, r)), "a corruption is still Hadamard in floats")

    def verify_check(results):
        corrupt_floats()
        require(not any(results), "verify accepted a corrupted exponent table")

    jobs.append(Job("verify corruptions", verify_run, verify_check))

    for n in (18, 20, 22):
        c = relabel(rng, graphs.cycle(n))
        jobs.append(_cut_job("cheeger", f"C{n}", c, 1 / (n // 2)))
        jobs.append(_cut_job("min_edge_density", f"C{n}", c, 8 / n))
    jobs.append(_cut_job("cheeger", "Q4", relabel(rng, graphs.hypercube(4)), 1 / 4))
    for n, kind in ((18, "cheeger"), (20, "min_edge_density")):
        g = _random_connected(rng, n)
        jobs.append(_cut_job(kind, f"G({n}, 0.3)", g, None))

    for name, g in (("CP6", graphs.cocktail_party(6)), ("K4,4,4", graphs.complete_multipartite((4, 4, 4))),
                    ("K6,6", graphs.complete_bipartite(6, 6)),
                    ("C4xK3", graphs.product(graphs.cycle(4), graphs.complete(3), "cartesian"))):
        jobs.append(_audit_job(name, relabel(rng, g)))
    probe = Job("catalogue probe", _cli_run(workdir, ["catalogue", "--max-n", "6"]),
                lambda out: checks.check_catalogue(_results(checks.cli_output(out[0], out[1]))))
    return Workload(jobs, probe)


def _random_connected(rng: random.Random, n: int) -> WeightedGraph:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = WeightedGraph.from_edges(n, edges)
        if g.is_connected():
            return g


# -- cli-roundtrip -----------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Runs chd.cli as __main__, as `python -m chd.cli` does, and at exit appends
# the process's peak resident set to CHILD_RSS.  The parent cannot learn it:
# a child's ru_maxrss also counts the parent's pages it held before exec,
# while VmHWM belongs to the memory map that exec made.
CHILD_RSS = "child_peak_kb.txt"
CLI_MAIN = """\
import atexit, runpy

def _peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(%r, "a") as out:
        out.write(kb + "\\n")

atexit.register(_peak)
runpy.run_module("chd.cli", run_name="__main__", alter_sys=True)
"""


def cli_peak_kb(workdir: Path) -> int:
    """The largest peak resident set of the CLI children run in workdir."""
    return max(int(kb) for kb in (workdir / CHILD_RSS).read_text().split())


def _cli_run(workdir: Path, argv: list[str]):
    env = cli_env()
    main = CLI_MAIN % str(workdir / CHILD_RSS)

    def run(rec):
        full = [sys.executable, "-c", main] + (["--report"] if rec.enabled else []) + argv
        start = perf_counter()
        proc = subprocess.run(full, cwd=workdir, env=env, capture_output=True, text=True, timeout=170)
        ms = 1000 * (perf_counter() - start)
        rec.add(f"cli.{argv[0]}.ms", ms)
        rec.add("cli.stdout_bytes", len(proc.stdout.encode()))
        if rec.enabled and proc.returncode == 0:
            rec.add(f"cli.{argv[0]}.report_ms", json.loads(proc.stdout)["timing_ms"])
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _results(payload):
    """The payload of a plain run or of a ``--report`` envelope."""
    if isinstance(payload, dict) and "timing_ms" in payload and "results" in payload:
        return payload["results"]
    return payload


def _normal(workdir, argv, check_payload) -> Job:
    run_cli = _cli_run(workdir, argv)

    def run(rec):
        code, out, err = run_cli(rec)
        if code != 0:
            raise OperationFailed(f"exit {code}: {err.strip()[-300:]}")
        return code, out, err

    return Job(" ".join(argv), run, lambda out: check_payload(_results(checks.cli_output(out[0], out[1]))))


def _malformed(workdir, argv) -> Job:
    """A command on malformed input: it must exit 1 with a JSON error."""
    run_cli = _cli_run(workdir, argv)

    def run(rec):
        code, out, err = run_cli(rec)
        try:
            checks.cli_rejection(code, err)
        except CheckError as exc:
            raise OperationFailed(f"malformed input not rejected: {exc}") from None
        return code, out, err

    return Job("malformed: " + " ".join(argv), run, lambda out: None)


def _write_cli(workdir: Path, name: str, argv: list[str]) -> None:
    """Write a file with the CLI's own generator, in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = chd.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"input generation failed: {argv}")
    (workdir / name).write_text(buf.getvalue())


def _cli_file_probe(workdir: Path, command: str, g: WeightedGraph, h: ButsonMatrix) -> Job:
    (workdir / "probe_graph.json").write_text(json.dumps(g.to_json()))
    (workdir / "probe_h.json").write_text(json.dumps(h.to_json()))
    files = (workdir / "probe_graph.json", workdir / "probe_h.json")
    check = {"certify": _check_certify, "fr-search": _check_fr_search}[command](*files)
    return _normal(workdir, [command, "--graph", "probe_graph.json", "--hadamard", "probe_h.json"], check)


def _load(path: Path):
    return json.loads(path.read_text())


def _graph_and_h(graph_path: Path, h_path: Path):
    h = _load(h_path)
    return _load(graph_path), checks.complex_matrix(h["exps"], h["r"])


def _check_certify(graph_path, h_path):
    def check(p):
        gj, hc = _graph_and_h(graph_path, h_path)
        require(p["diagonalisable"], "certify: not diagonalisable")
        values = [float(Fraction(e)) if isinstance(e, str) else checks.eigenvalue(e["order"], e["coeffs"], e["scale"])
                  for e in p["eigenvalues"]]
        checks.check_spectrum(float_matrix(gj), hc, values)
        require(all(c["passed"] for c in p["theorem_checks"] if c["applicable"]), "certify: a theorem check failed")
    return check


def _check_fr_search(graph_path, h_path):
    def check(p):
        gj, _ = _graph_and_h(graph_path, h_path)
        walk = checks.Walk(float_matrix(gj))
        certs = p["certificates"]
        require(certs, "fr-search: no certificate")
        for c in certs:
            tau = Fraction(c["tau"]["num"], c["tau"]["den"])
            gamma = Fraction(c["gamma"]["num"], c["gamma"]["den"])
            checks.check_revival(walk, c["a"], c["b"], tau, gamma)
            alpha, beta = checks.revival_pair(gamma)
            require(abs(complex(*c["alpha"]) - alpha) <= 1e-9 and abs(complex(*c["beta"]) - beta) <= 1e-9,
                    "fr-search: printed alpha/beta disagree with gamma")
        n = gj["n"] // 2
        require(any(c["a"] == 0 and c["b"] == n and Fraction(c["tau"]["num"], c["tau"]["den"]) == Fraction(1, 2 * n)
                    and checks.same_mod_half(Fraction(c["gamma"]["num"], c["gamma"]["den"]), Fraction(1, 2 * n))
                    for c in certs), "fr-search: no revival 0 -> n at pi/n with phase +pi/n")
    return check


def _check_graph(expected_adjacency):
    def check(p):
        a = checks.adjacency(p)
        require(a.shape == expected_adjacency.shape and np.array_equal(a, expected_adjacency), "graph make: wrong graph")
    return check


def _check_hadamard_payload(n):
    def check(p):
        require(p["n"] == n, f"expected order {n}, got {p['n']}")
        checks.check_hadamard(checks.complex_matrix(p["exps"], p["r"]))
    return check


def _check_verify(h_path):
    def check(p):
        h = _load(h_path)
        require(p["hadamard"] is checks.is_hadamard(checks.complex_matrix(h["exps"], h["r"])), "verify: wrong verdict")
    return check


def _check_cheeger(graph_path, with_gamma):
    def check(p):
        a = checks.adjacency(_load(graph_path))
        h, _ = checks.brute_cuts(a)
        checks.check_value(p["h"], h, "cheeger h")
        sub = p["witness"]["subset"]
        checks.check_value(p["witness"]["cheeger_value"], h, "cheeger witness")
        require(0 < len(sub) < a.shape[0], "cheeger witness is not a proper subset")
        if with_gamma:
            gamma2 = np.linalg.eigvalsh(checks.laplacian(a))[1] / a.sum(axis=1)[0]
            checks.check_value(p["gamma2"], gamma2, "cheeger gamma2")
    return check


def _check_density(graph_path):
    def check(p):
        _, dens = checks.brute_cuts(checks.adjacency(_load(graph_path)))
        checks.check_value(p["min_density"], dens, "min density")
    return check


def _check_walk(graph_path, t, src):
    def check(p):
        walk = checks.Walk(float_matrix(_load(graph_path)))
        amp = np.array([complex(x, y) for x, y in p["amplitudes"]])
        err = np.max(np.abs(amp - walk.column(t, src)))
        require(err <= checks.TOL, f"walk amplitudes differ from eigh by {err:.2e}")
    return check


def _check_pst(graph_path, a, b, tau):
    def check(p):
        col = checks.Walk(float_matrix(_load(graph_path))).column(2 * math.pi * float(tau), a)
        require(p["pst"] == (abs(col[b]) >= 1 - 1e-9), f"pst-check {a}->{b} returned {p['pst']}")
    return check


def _check_theorems(graph_path, prime):
    def check(p):
        require(all(c["passed"] for c in p["theorem_checks"] if c["applicable"]), "theorems: a check failed")
        vals = np.linalg.eigvalsh(float_matrix(_load(graph_path)))
        if prime is None:
            checks.check_even_integers(vals)
            return
        ints = [round(v) for v in vals]
        require(np.max(np.abs(vals - ints)) <= 1e-9 * max(1.0, np.max(np.abs(vals))), "spectrum is not integral")
        for lam in set(ints) - {0}:
            require(lam % prime == 0 and ints.count(lam) >= prime - 1, f"eigenvalue {lam} breaks divisibility by {prime}")
    return check


def cli_roundtrip(seed: int, rec, workdir: Path) -> Workload:
    rng = random.Random(seed)
    w = workdir
    gens = {
        "k4.json": ["graph", "make", "complete", "4"],
        "h4.json": ["hadamard", "character-table", "--moduli", "2,2"],
        "k2.json": ["graph", "make", "complete", "2"],
        "f2.json": ["hadamard", "character-table", "--moduli", "2"],
        "q6.json": ["graph", "make", "cayley", "--moduli", "2,2,2,2,2,2", "--connection",
                    ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))],
        "h64.json": ["hadamard", "character-table", "--moduli", "2,2,2,2,2,2"],
        "q4.json": ["graph", "make", "hypercube", "4"],
        "h16.json": ["hadamard", "character-table", "--moduli", "2,2,2,2"],
        "cocktail3.json": ["graph", "make", "cocktail", "3"],
        "z6.json": ["hadamard", "character-table", "--moduli", "2,3"],
        "cp8.json": ["graph", "make", "cocktail", "8"],
        "z2x8.json": ["hadamard", "character-table", "--moduli", "2,8"],
        "h32.json": ["hadamard", "character-table", "--moduli", "32"],
        "z5x5.json": ["hadamard", "character-table", "--moduli", "5,5"],
    }
    z55 = AbelianGroup((5, 5))
    # a union of punctured lines, so the spectrum is integral
    z55_conn = sorted({tuple(k * x % 5 for x in el) for el in rng.sample(z55.elements()[1:], 2) for k in range(1, 5)})
    gens["cay55.json"] = ["graph", "make", "cayley", "--moduli", "5,5", "--connection",
                          ";".join(",".join(map(str, c)) for c in z55_conn)]
    for name, argv in gens.items():
        _write_cli(w, name, argv)
    c18 = relabel(rng, graphs.cycle(18))
    (w / "c18.json").write_text(json.dumps(c18.to_json()))
    (w / "bad_exponent.json").write_text(json.dumps({"n": 2, "r": 2, "exps": [[0, 0], [0, 1.6]]}))
    (w / "bad_weight.json").write_text('{"n": 2, "edges": [[0, 1, true]]}')

    t_walk = round(rng.uniform(0.1, 3.0), 4)
    src = rng.randrange(64)
    q3_conn = "1,0,0;0,1,0;0,0,1"
    J = lambda argv, check: _normal(w, argv, check)  # noqa: E731
    jobs = [
        J(["graph", "make", "complete", "4"], _check_graph(np.ones((4, 4)) - np.eye(4))),
        J(["graph", "make", "cayley", "--moduli", "2,2,2", "--connection", q3_conn],
          _check_graph(cayley_adjacency((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))),
        J(["hadamard", "character-table", "--moduli", "2,2"], _check_hadamard_payload(4)),
        J(["hadamard", "verify", "--in", "h4.json"], _check_verify(w / "h4.json")),
        J(["hadamard", "verify", "--in", "h32.json"], _check_verify(w / "h32.json")),
        J(["hadamard", "conference-lift", "--order", "6"], _check_hadamard_payload(6)),
        J(["certify", "--graph", "k4.json", "--hadamard", "h4.json"], _check_certify(w / "k4.json", w / "h4.json")),
        J(["certify", "--graph", "q6.json", "--hadamard", "h64.json"], _check_certify(w / "q6.json", w / "h64.json")),
        J(["catalogue", "--max-n", "8"], checks.check_catalogue),
        J(["cheeger", "--graph", "k4.json", "--hadamard", "h4.json"], _check_cheeger(w / "k4.json", True)),
        J(["cheeger", "--graph", "q4.json", "--hadamard", "h16.json"], _check_cheeger(w / "q4.json", True)),
        J(["density", "--graph", "k4.json"], _check_density(w / "k4.json")),
        J(["density", "--graph", "c18.json"], _check_density(w / "c18.json")),
        J(["walk", "--graph", "k4.json", "--hadamard", "h4.json", "--t", "0.7853", "--from", "0"],
          _check_walk(w / "k4.json", 0.7853, 0)),
        J(["walk", "--graph", "q6.json", "--hadamard", "h64.json", "--t", str(t_walk), "--from", str(src)],
          _check_walk(w / "q6.json", t_walk, src)),
        J(["fr-search", "--graph", "cocktail3.json", "--hadamard", "z6.json"], _check_fr_search(w / "cocktail3.json", w / "z6.json")),
        J(["fr-search", "--graph", "cp8.json", "--hadamard", "z2x8.json"], _check_fr_search(w / "cp8.json", w / "z2x8.json")),
        J(["pst-check", "--graph", "k2.json", "--hadamard", "f2.json", "--from", "0", "--to", "1", "--tau", "1/4"],
          _check_pst(w / "k2.json", 0, 1, Fraction(1, 4))),
        J(["pst-check", "--graph", "q6.json", "--hadamard", "h64.json", "--from", "0", "--to", "63", "--tau", "1/4"],
          _check_pst(w / "q6.json", 0, 63, Fraction(1, 4))),
        J(["theorems", "--graph", "k4.json", "--hadamard", "h4.json"], _check_theorems(w / "k4.json", None)),
        J(["theorems", "--graph", "cay55.json", "--hadamard", "z5x5.json"], _check_theorems(w / "cay55.json", 5)),
        # four malformed inputs that the program does not reject today
        _malformed(w, ["walk", "--graph", "k2.json", "--hadamard", "f2.json", "--t", "0.5", "--from", "5"]),
        _malformed(w, ["pst-check", "--graph", "k2.json", "--hadamard", "f2.json", "--from", "0", "--to", "7", "--tau", "1/4"]),
        _malformed(w, ["hadamard", "verify", "--in", "bad_exponent.json"]),
        _malformed(w, ["certify", "--graph", "bad_weight.json", "--hadamard", "f2.json"]),
    ]
    return Workload(jobs, cli=True)


WORKLOADS = {
    "certify-ladder": certify_ladder,
    "revival-search": revival_search,
    "exhaustive-search": exhaustive_search,
    "cli-roundtrip": cli_roundtrip,
}
