"""Command-line front end: JSON in, JSON (or text tables) out.

Exit codes: 0 on success, 1 on domain errors (bad data, failed
preconditions, malformed input files), 2 on usage errors.  Output is
deterministic for identical inputs and flags; the optional ``--report``
envelope adds input digests and a timing field (the timing field is the one
part excluded from byte-for-byte comparisons).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import diagonalise, graphs, hadamard, spectral, walks
from .errors import ChdError
from .walks import RationalAngle


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ChdError(f"no such file: {path}") from None
    except OSError as exc:
        raise ChdError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ChdError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ChdError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None


def _load_graph(path: str) -> graphs.WeightedGraph:
    return graphs.WeightedGraph.from_json(_load_json(path))


def _load_hadamard(path: str) -> hadamard.ButsonMatrix:
    return hadamard.ButsonMatrix.from_json(_load_json(path))


def _angle(text: str) -> RationalAngle:
    """Parse 'p/q' (of a full turn 2*pi) into an exact angle."""
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ChdError(f"cannot parse angle {text!r}; expected p/q of 2pi") from None
    return RationalAngle(f.numerator, f.denominator)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# which commands are pure exact arithmetic vs float-bearing output
_FLOAT_COMMANDS = {"walk"}
_MIXED_COMMANDS = {"fr-search"}  # exact certificates, float cross-validation


def _emit(payload, args, input_paths) -> None:
    if args.report:
        command = args.command
        payload = {
            "command": args.command_echo,
            "inputs": {p: _digest(p) for p in input_paths},
            "seed": args.seed,
            "mode": {
                "exact": command not in _FLOAT_COMMANDS,
                "float_cross_check": command in _MIXED_COMMANDS
                or command in _FLOAT_COMMANDS,
            },
            "results": payload,
            "timing_ms": round(1000 * (time.perf_counter() - args.t0), 3),
        }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_text(payload)


def _print_text(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _print_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _print_text(value, indent + "  ")
                print()
            else:
                print(f"{indent}- {value}")
    else:
        print(f"{indent}{payload}")


def _eigenvalue_json(entry) -> object:
    if entry.rational is not None:
        return str(entry.rational)
    val = entry.to_complex()
    return {
        "order": entry.cyclo.order,
        "coeffs": list(entry.cyclo.coeffs),
        "scale": entry.scale,
        "approx": [val.real, val.imag],
    }


# -- subcommands ----------------------------------------------------------


def _cmd_hadamard(args) -> dict:
    action = args.action
    if action == "character-table":
        moduli = [int(m) for m in args.moduli.split(",")]
        return hadamard.character_table(moduli).to_json()
    if action == "conference-lift":
        if args.infile:
            data = _load_json(args.infile)
            if "c" not in data:
                raise ChdError("conference JSON needs a field 'c'")
            return hadamard.conference_lift(data["c"]).to_json()
        return hadamard.conference_lift(
            hadamard.paley_conference(int(args.order) - 1)
        ).to_json()
    h = _load_hadamard(args.infile)
    if action == "verify":
        return {"hadamard": hadamard.verify(h), "n": h.n, "r": h.r}
    if action == "dephase":
        return hadamard.dephase(h).to_json()
    if action == "classify":
        cls = hadamard.classify(h)
        return {"kind": cls.kind, "root_order": cls.root_order}
    if action == "tensor":
        h2 = _load_hadamard(args.infile2)
        return hadamard.tensor(h, h2).to_json()
    raise ChdError(f"unknown hadamard action {action!r}")


def _cmd_graph_make(args) -> dict:
    kind = args.kind
    if kind == "cayley":
        moduli = [int(m) for m in args.moduli.split(",")]
        group = graphs.AbelianGroup(moduli)
        conn = []
        for item in args.connection.split(";"):
            item = item.strip()
            if item:
                conn.append(tuple(int(x) for x in item.split(",")))
        return graphs.cayley(group, conn).to_json()
    if kind in ("complement",):
        return graphs.complement(_load_graph(args.infile)).to_json()
    if kind in ("union", "join"):
        g1, g2 = _load_graph(args.infile), _load_graph(args.infile2)
        return graphs.combine(g1, g2, kind).to_json()
    if kind == "merge":
        g1, g2 = _load_graph(args.infile), _load_graph(args.infile2)
        return graphs.merge(g1, g2, Fraction(args.w1), Fraction(args.w2)).to_json()
    if kind == "product":
        g1, g2 = _load_graph(args.infile), _load_graph(args.infile2)
        return graphs.product(g1, g2, args.product_kind).to_json()
    return graphs.named(kind, *args.sizes).to_json()


def _cmd_certify(args) -> dict:
    g = _load_graph(args.graph)
    h = _load_hadamard(args.hadamard)
    target = "adjacency" if args.adjacency else "laplacian"
    spectrum = diagonalise.certify(g, h, target)
    payload: dict = {"diagonalisable": spectrum is not None, "target": target}
    if spectrum is not None:
        payload["eigenvalues"] = [_eigenvalue_json(e) for e in spectrum.entries]
        payload["theorem_checks"] = diagonalise.theorem_checks(
            g, h, spectrum
        ).to_json()
    return payload


def _cmd_catalogue(args) -> list:
    return [entry.to_json() for entry in diagonalise.catalogue(args.max_n)]


def _cmd_cheeger(args) -> dict:
    g = _load_graph(args.graph)
    h_val, witness = spectral.cheeger(g)
    payload = {"h": str(h_val), "witness": witness.to_json()}
    if args.hadamard:
        h = _load_hadamard(args.hadamard)
        spectrum = diagonalise.certify(g, h)
        if spectrum is None:
            raise ChdError("the supplied matrix does not diagonalise the graph")
        d = diagonalise.regularity_check(g)
        gamma2 = spectrum.second_smallest() / d
        payload["gamma2"] = str(gamma2)
        payload["tight"] = spectral.tightness_check(g, h, spectrum)
    return payload


def _cmd_density(args) -> dict:
    g = _load_graph(args.graph)
    value, witness = spectral.min_edge_density(g)
    return {"min_density": str(value), "witness": witness.to_json()}


def _cmd_walk(args) -> dict:
    g = _load_graph(args.graph)
    h = _load_hadamard(args.hadamard)
    spectrum = diagonalise.certify(g, h)
    if spectrum is None:
        raise ChdError("the supplied matrix does not diagonalise the graph")
    if not 0 <= args.source < g.n:
        raise ChdError(f"vertex {args.source} is out of range for n={g.n}")
    u = walks.evolve(g, h, spectrum, args.t)
    vec = u[:, args.source]
    return {
        "t": args.t,
        "from": args.source,
        "amplitudes": [[z.real, z.imag] for z in vec],
    }


def _cmd_fr_search(args) -> dict:
    g = _load_graph(args.graph)
    h = _load_hadamard(args.hadamard)
    if not h.is_dephased():
        h = hadamard.dephase(h)
    spectrum = diagonalise.certify(g, h)
    if spectrum is None:
        raise ChdError("the supplied matrix does not diagonalise the graph")
    certs = walks.find_fr(g, h, spectrum)
    return {"certificates": [c.to_json() for c in certs]}


def _cmd_pst_check(args) -> dict:
    g = _load_graph(args.graph)
    h = _load_hadamard(args.hadamard)
    if not h.is_dephased():
        h = hadamard.dephase(h)
    spectrum = diagonalise.certify(g, h)
    if spectrum is None:
        raise ChdError("the supplied matrix does not diagonalise the graph")
    tau = _angle(args.tau)
    ok = walks.check_pst(g, h, spectrum, args.source, args.target, tau)
    return {
        "pst": ok,
        "from": args.source,
        "to": args.target,
        "tau": {"num": tau.num, "den": tau.den, "unit": "2pi"},
    }


def _cmd_theorems(args) -> dict:
    g = _load_graph(args.graph)
    h = _load_hadamard(args.hadamard)
    spectrum = diagonalise.certify(g, h)
    if spectrum is None:
        raise ChdError("the supplied matrix does not diagonalise the graph")
    return {"theorem_checks": diagonalise.theorem_checks(g, h, spectrum).to_json()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chd",
        description="Exact toolkit for Hadamard-diagonalisable graphs "
        "and their quantum walks.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--report", action="store_true", help="wrap output in a run report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hadamard", help="build and inspect exact Hadamard matrices")
    p.add_argument(
        "action",
        choices=(
            "verify",
            "dephase",
            "classify",
            "tensor",
            "character-table",
            "conference-lift",
        ),
    )
    p.add_argument("--in", dest="infile")
    p.add_argument("--in2", dest="infile2")
    p.add_argument("--moduli", help="comma-separated cyclic orders, e.g. 4,2")
    p.add_argument("--order", type=int, default=6, help="order for conference-lift")
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("graph", help="build graphs")
    graph_sub = p.add_subparsers(dest="graph_command", required=True)
    gm = graph_sub.add_parser("make")
    gm.add_argument(
        "kind",
        help="family (complete, cycle, hypercube, cocktail, complete-bipartite, "
        "complete-multipartite, empty) or construction (cayley, complement, "
        "union, join, merge, product)",
    )
    gm.add_argument("sizes", nargs="*", help="sizes for named families")
    gm.add_argument("--moduli")
    gm.add_argument(
        "--connection",
        help="semicolon-separated elements, each comma-separated, e.g. '1;3'",
    )
    gm.add_argument("--in", dest="infile")
    gm.add_argument("--in2", dest="infile2")
    gm.add_argument("--w1", default="1")
    gm.add_argument("--w2", default="1")
    gm.add_argument(
        "--kind", dest="product_kind", choices=("direct", "cartesian"), default="cartesian"
    )
    gm.set_defaults(func=_cmd_graph_make)

    p = sub.add_parser("certify", help="exact diagonalisation certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--hadamard", required=True)
    p.add_argument("--adjacency", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("catalogue", help="small-graph catalogue with witnesses")
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    p.set_defaults(func=_cmd_catalogue)

    p = sub.add_parser("cheeger", help="exact Cheeger constant")
    p.add_argument("--graph", required=True)
    p.add_argument("--hadamard")
    p.set_defaults(func=_cmd_cheeger)

    p = sub.add_parser("density", help="exact minimum edge density")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("walk", help="walk amplitudes at a given time")
    p.add_argument("--graph", required=True)
    p.add_argument("--hadamard", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--from", dest="source", type=int, required=True)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("fr-search", help="search fractional-revival certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--hadamard", required=True)
    p.set_defaults(func=_cmd_fr_search)

    p = sub.add_parser("pst-check", help="exact perfect-state-transfer test")
    p.add_argument("--graph", required=True)
    p.add_argument("--hadamard", required=True)
    p.add_argument("--from", dest="source", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--tau", required=True, help="time as p/q of 2pi")
    p.set_defaults(func=_cmd_pst_check)

    p = sub.add_parser("theorems", help="spectral consequence report")
    p.add_argument("--graph", required=True)
    p.add_argument("--hadamard", required=True)
    p.set_defaults(func=_cmd_theorems)

    return parser


def _input_paths(args) -> list[str]:
    paths = []
    for attr in ("infile", "infile2", "graph", "hadamard"):
        value = getattr(args, attr, None)
        if value:
            paths.append(value)
    return paths


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.t0 = time.perf_counter()
    args.command_echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        payload = args.func(args)
        _emit(payload, args, _input_paths(args))
        return 0
    except ChdError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
