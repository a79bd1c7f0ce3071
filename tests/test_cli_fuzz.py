"""Fuzzing of the command line: whatever the graph and Hadamard files hold,
``certify``, ``density`` and ``hadamard verify`` exit 0 with JSON on stdout
or 1 with the CLI's JSON error on stderr, and never raise; whatever the
arguments of ``graph make``, ``hadamard``, ``walk``, ``fr-search``,
``pst-check``, ``cheeger`` and ``catalogue``, the run also may end in
argparse's usage error, exit 2, and nothing else."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chd.cli import main

# small vertex counts keep density's subset search cheap; the large ones
# hit the caps
_counts = st.one_of(st.integers(-2, 6), st.sampled_from([25, 5000, 10**30]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _counts,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["1/2", "3", "-1", "1/0", "nan", "1e400", "0x10"]),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)
_edge = st.one_of(st.lists(st.one_of(st.integers(-1, 6), _scalars), max_size=4), _json)
_graph = st.one_of(
    _json,
    st.fixed_dictionaries(
        {"n": st.one_of(st.integers(0, 6), _scalars), "edges": st.one_of(st.lists(_edge, max_size=6), _json)}
    ),
)
_row = st.lists(st.one_of(st.integers(-3, 9), _scalars), max_size=5)
_hadamard = st.one_of(
    _json,
    st.fixed_dictionaries(
        {
            "n": st.one_of(st.integers(0, 5), _scalars),
            "r": st.one_of(st.integers(-1, 9), _scalars),
            "exps": st.one_of(st.lists(_row, max_size=5), _json),
        }
    ),
)
_text = st.one_of(
    _json.map(json.dumps),
    st.text(max_size=40),
    st.sampled_from(["", "{", '{"n": 2, "edges": [[0, 1]]', "NaN", "[1, 2]"]),
)


def _file(directory: Path, name: str, content) -> str:
    path = directory / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _check(argv, usage_error=False) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert usage_error and exc.code == 2
            code = 2
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: ")
    elif code == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert set(error) == {"error", "type"}


_fuzz = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_fuzz
@given(
    graph=st.one_of(_graph, _text, st.binary(max_size=30)),
    hadamard=st.one_of(_hadamard, _text, st.binary(max_size=30)),
)
def test_certify_and_density_survive_any_file(graph, hadamard):
    with tempfile.TemporaryDirectory() as tmp:
        g = _file(Path(tmp), "g.json", graph)
        h = _file(Path(tmp), "h.json", hadamard)
        _check(["certify", "--graph", g, "--hadamard", h])
        _check(["density", "--graph", g])


@_fuzz
@given(hadamard=st.one_of(_hadamard, _text, st.binary(max_size=30)))
def test_hadamard_verify_survives_any_file(hadamard):
    with tempfile.TemporaryDirectory() as tmp:
        _check(["hadamard", "verify", "--in", _file(Path(tmp), "h.json", hadamard)])


# numeric tokens stay at most 64 and moduli at most 6, so that no run builds
# a graph or table near the 4096-vertex cap; three draws in four are numbers
_number = st.one_of(st.integers(-2, 9), st.sampled_from([16, 32, 64])).map(str)
_junk = st.sampled_from(["", "abc", "2.5", "1/2", "1/0", "-0", " 3", "1e3", "0x10", "٣"])
_token = st.one_of(_number, _number, _number, _junk)
_modulus = st.integers(1, 6).map(str)
_moduli = st.lists(
    st.one_of(_modulus, _modulus, _modulus, st.integers(-1, 0).map(str), _junk),
    min_size=1,
    max_size=3,
).map(",".join)
_connection = st.lists(_moduli, max_size=3).map(";".join)
_kinds = st.sampled_from([
    "complete", "cycle", "hypercube", "cocktail", "complete-bipartite",
    "complete-multipartite", "empty", "cayley", "complement", "union", "join",
    "merge", "product", "nonesuch",
])
_actions = st.sampled_from([
    "verify", "dephase", "classify", "tensor", "character-table", "conference-lift",
    "nonesuch",
])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files by name: a graph, a matrix, a conference matrix, broken
    JSON, and a path that does not exist."""
    directory = tmp_path_factory.mktemp("argv")
    files = {
        name: _file(directory, f"{name}.json", content)
        for name, content in (
            ("k2", {"n": 2, "edges": [[0, 1]]}),
            ("f2", {"n": 2, "r": 2, "exps": [[0, 0], [0, 1]]}),
            ("c4", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}),
            ("z4", {"n": 4, "r": 4, "exps": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]}),
            ("conference", {"c": [[0, 1], [1, 0]]}),
            ("broken", "{"),
        )
    }
    files["missing"] = str(directory / "missing.json")
    return files


def _options(draw, inputs, values, files):
    """Each option given seven times in eight; each file option, given as
    (option, usual input), names that input three times in four."""
    given = st.sampled_from([True] * 7 + [False])
    argv = []
    for option, strategy in values:
        if draw(given):
            argv += [option, draw(strategy)]
    for option, usual in files:
        if draw(given):
            name = draw(st.sampled_from([usual] * 3 + sorted(inputs)))
            argv += [option, inputs[name]]
    return argv


def _report(draw):
    return ["--report"] if draw(st.booleans()) else []


@_fuzz
@given(data=st.data())
def test_graph_make_survives_any_arguments(inputs, data):
    draw = data.draw
    argv = [*_report(draw), "graph", "make", draw(_kinds), *draw(st.lists(_token, max_size=3))]
    argv += _options(draw, inputs, [
        ("--moduli", _moduli),
        ("--connection", _connection),
        ("--w1", _token),
        ("--w2", _token),
        ("--kind", st.sampled_from(["direct", "cartesian", "tensor"])),
    ], [("--in", "k2"), ("--in2", "k2")])
    _check(argv, usage_error=True)


@_fuzz
@given(data=st.data())
def test_hadamard_survives_any_arguments(inputs, data):
    draw = data.draw
    argv = [*_report(draw), "hadamard", draw(_actions)]
    argv += _options(
        draw, inputs, [("--moduli", _moduli), ("--order", _token)], [("--in", "f2"), ("--in2", "f2")]
    )
    _check(argv, usage_error=True)


_times = st.one_of(_token, st.sampled_from(["0.7853", "-0.5", "1e-3", "nan", "inf", "-1e400"]))
_vertex = st.one_of(st.integers(0, 3).map(str), _token)
_angles = st.one_of(_token, st.sampled_from(["1/4", "-1/4", "3/8", "1/0", "0.25", "nan"]))
# each command's value options and file options, with the usual input
_ANALYSIS = {
    "walk": ([("--t", _times), ("--from", _vertex)], [("--graph", "c4"), ("--hadamard", "z4")]),
    "fr-search": ([], [("--graph", "c4"), ("--hadamard", "z4")]),
    "pst-check": (
        [("--from", _vertex), ("--to", _vertex), ("--tau", _angles)],
        [("--graph", "k2"), ("--hadamard", "f2")],
    ),
    "cheeger": ([], [("--graph", "c4"), ("--hadamard", "z4")]),
    "catalogue": ([("--max-n", _token)], []),
}


@_fuzz
@given(data=st.data())
def test_analysis_commands_survive_any_arguments(inputs, data):
    draw = data.draw
    command = draw(st.sampled_from(sorted(_ANALYSIS)))
    argv = [*_report(draw), command, *_options(draw, inputs, *_ANALYSIS[command])]
    _check(argv, usage_error=True)
