"""Fuzzing of the command-line loaders: whatever the graph and Hadamard
files hold, ``certify``, ``density`` and ``hadamard verify`` exit 0 with
JSON on stdout or 1 with the CLI's JSON error on stderr, and never raise."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

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


def _check(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 0:
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
