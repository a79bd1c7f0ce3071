import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chd.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv, expect=0):
        code = main(list(argv))
        out = capsys.readouterr()
        assert code == expect, f"exit {code}: {out.err or out.out}"
        return out.out

    return _run


@pytest.fixture
def k4_file(tmp_path, run):
    path = tmp_path / "k4.json"
    path.write_text(run("graph", "make", "complete", "4"))
    return str(path)


@pytest.fixture
def h4_file(tmp_path, run):
    path = tmp_path / "h4.json"
    path.write_text(run("hadamard", "character-table", "--moduli", "2,2"))
    return str(path)


class TestHadamardCommands:
    def test_character_table_round_trip(self, run):
        out = json.loads(run("hadamard", "character-table", "--moduli", "4"))
        assert out["n"] == 4 and out["r"] == 4
        assert out["exps"][1] == [0, 1, 2, 3]

    def test_verify(self, run, h4_file):
        out = json.loads(run("hadamard", "verify", "--in", h4_file))
        assert out == {"hadamard": True, "n": 4, "r": 2}

    def test_classify(self, run, h4_file):
        out = json.loads(run("hadamard", "classify", "--in", h4_file))
        assert out == {"kind": "real", "root_order": 2}

    def test_tensor(self, run, tmp_path, h4_file):
        h2 = tmp_path / "h2.json"
        h2.write_text(run("hadamard", "character-table", "--moduli", "2"))
        out = json.loads(
            run("hadamard", "tensor", "--in", str(h2), "--in2", str(h2))
        )
        assert out["n"] == 4

    def test_conference_lift_builtin(self, run):
        out = json.loads(run("hadamard", "conference-lift", "--order", "6"))
        assert out["n"] == 6 and out["r"] == 4

    def test_dephase(self, run, tmp_path):
        raw = {"n": 2, "r": 4, "exps": [[1, 1], [0, 2]]}
        path = tmp_path / "h.json"
        path.write_text(json.dumps(raw))
        out = json.loads(run("hadamard", "dephase", "--in", str(path)))
        assert out["exps"] == [[0, 0], [0, 2]]


class TestGraphCommands:
    def test_make_named(self, run):
        out = json.loads(run("graph", "make", "cocktail", "3"))
        assert out["n"] == 6
        assert len(out["edges"]) == 12

    def test_make_cayley(self, run):
        out = json.loads(
            run(
                "graph",
                "make",
                "cayley",
                "--moduli",
                "2,2,2",
                "--connection",
                "1,0,0;0,1,0;0,0,1",
            )
        )
        assert out["n"] == 8 and len(out["edges"]) == 12

    def test_round_trip(self, run, tmp_path, k4_file):
        out = json.loads(run("graph", "make", "complement", "--in", k4_file))
        assert out == {"n": 4, "edges": []}

    def test_product(self, run, tmp_path):
        k2 = tmp_path / "k2.json"
        k2.write_text(run("graph", "make", "complete", "2"))
        out = json.loads(
            run(
                "graph",
                "make",
                "product",
                "--in",
                str(k2),
                "--in2",
                str(k2),
                "--kind",
                "cartesian",
            )
        )
        assert out["n"] == 4 and len(out["edges"]) == 4


class TestCertifyCommand:
    def test_k4(self, run, k4_file, h4_file):
        out = json.loads(run("certify", "--graph", k4_file, "--hadamard", h4_file))
        assert out["diagonalisable"] is True
        assert out["eigenvalues"] == ["0", "4", "4", "4"]
        names = [c["name"] for c in out["theorem_checks"]]
        assert "even-spectrum-real-turyn" in names

    def test_failure_is_reported_not_raised(self, run, tmp_path, h4_file):
        path = tmp_path / "p3.json"
        path.write_text(
            json.dumps({"n": 4, "edges": [[0, 1, "1"], [1, 2, "1"]]})
        )
        out = json.loads(run("certify", "--graph", str(path), "--hadamard", h4_file))
        assert out["diagonalisable"] is False


class TestAnalysisCommands:
    def test_catalogue(self, run):
        out = json.loads(run("catalogue", "--max-n", "4"))
        assert [e["name"] for e in out] == [
            "K_2^c",
            "K_2",
            "K_4^c",
            "K_2+K_2",
            "C_4",
            "K_4",
        ]
        for e in out:
            assert set(e) == {
                "order",
                "degree",
                "name",
                "graph",
                "hadamard",
                "eigenvalues",
            }

    def test_cheeger_with_matrix(self, run, k4_file, h4_file):
        out = json.loads(
            run("cheeger", "--graph", k4_file, "--hadamard", h4_file)
        )
        assert out["h"] == "2/3"
        assert out["gamma2"] == "4/3"
        assert out["tight"] is True

    def test_density(self, run, k4_file):
        out = json.loads(run("density", "--graph", k4_file))
        assert out["min_density"] == "4"

    def test_walk(self, run, k4_file, h4_file):
        out = json.loads(
            run(
                "walk",
                "--graph",
                k4_file,
                "--hadamard",
                h4_file,
                "--t",
                "0.0",
                "--from",
                "2",
            )
        )
        amps = out["amplitudes"]
        assert amps[2] == [1.0, 0.0]

    def test_fr_search(self, run, tmp_path):
        g = tmp_path / "c3.json"
        g.write_text(run("graph", "make", "cocktail", "3"))
        h = tmp_path / "z6.json"
        h.write_text(run("hadamard", "character-table", "--moduli", "6"))
        out = json.loads(run("fr-search", "--graph", str(g), "--hadamard", str(h)))
        taus = {c["tau_str"] for c in out["certificates"]}
        assert "1/6 of 2pi" in taus

    def test_pst_check(self, run, tmp_path):
        g = tmp_path / "k2.json"
        g.write_text(run("graph", "make", "complete", "2"))
        h = tmp_path / "f2.json"
        h.write_text(run("hadamard", "character-table", "--moduli", "2"))
        out = json.loads(
            run(
                "pst-check",
                "--graph",
                str(g),
                "--hadamard",
                str(h),
                "--from",
                "0",
                "--to",
                "1",
                "--tau",
                "1/4",
            )
        )
        assert out["pst"] is True

    def test_theorems(self, run, k4_file, h4_file):
        out = json.loads(run("theorems", "--graph", k4_file, "--hadamard", h4_file))
        checks = {c["name"]: c for c in out["theorem_checks"]}
        assert checks["even-spectrum-real-turyn"]["passed"] is True


class TestCliContract:
    def test_deterministic_output(self, run, k4_file, h4_file):
        a = run("certify", "--graph", k4_file, "--hadamard", h4_file)
        b = run("certify", "--graph", k4_file, "--hadamard", h4_file)
        assert a == b

    def test_report_envelope(self, run, k4_file, h4_file):
        out = json.loads(
            run("--report", "certify", "--graph", k4_file, "--hadamard", h4_file)
        )
        assert set(out) == {"command", "inputs", "seed", "mode", "results", "timing_ms"}
        assert len(out["inputs"]) == 2
        assert out["mode"]["exact"] is True

    def test_seeded_reports_identical_modulo_timing(self, run, k4_file, h4_file):
        outs = []
        for _ in range(2):
            data = json.loads(
                run(
                    "--seed",
                    "7",
                    "--report",
                    "certify",
                    "--graph",
                    k4_file,
                    "--hadamard",
                    h4_file,
                )
            )
            data.pop("timing_ms")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_domain_error_exit_1(self, run, h4_file):
        assert main(["certify", "--graph", "/no/such.json", "--hadamard", h4_file]) == 1

    def test_malformed_json_exit_1(self, run, tmp_path, h4_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["certify", "--graph", str(bad), "--hadamard", h4_file]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_schema_violation_names_field(self, run, tmp_path, h4_file, capsys):
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"n": 4}))
        assert (
            main(["certify", "--graph", str(incomplete), "--hadamard", h4_file]) == 1
        )
        assert "edges" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify"])  # missing required arguments
        assert exc.value.code == 2

    def test_text_format(self, run, k4_file, h4_file):
        out = run(
            "--format", "text", "certify", "--graph", k4_file, "--hadamard", h4_file
        )
        assert "diagonalisable: True" in out


class TestMalformedInput:
    """Malformed input exits 1 with a JSON error, never a traceback, a
    silent coercion or non-JSON output."""

    @pytest.fixture
    def files(self, tmp_path, run):
        made = {}
        for name, argv in (
            ("k2", ("graph", "make", "complete", "2")),
            ("f2", ("hadamard", "character-table", "--moduli", "2")),
        ):
            made[name] = tmp_path / f"{name}.json"
            made[name].write_text(run(*argv))
        for name, text in (
            ("float_exponent", '{"n": 2, "r": 2, "exps": [[0, 0], [0, 1.6]]}'),
            ("bool_exponent", '{"n": 2, "r": 2, "exps": [[0, 0], [0, true]]}'),
            ("bool_weight", '{"n": 2, "edges": [[0, 1, true]]}'),
            ("big_order", '{"n": 1, "r": 1025, "exps": [[0]]}'),
            ("float_vertex", '{"n": 2, "edges": [[0.5, 1, "1"]]}'),
            ("four_item_edge", '{"n": 3, "edges": [[0, 1, "1", 2]]}'),
            ("bare_edge", '{"n": 2, "edges": [5]}'),
            ("zero_denominator", '{"n": 2, "edges": [[0, 1, "1/0"]]}'),
            ("word_weight", '{"n": 2, "edges": [[0, 1, "abc"]]}'),
            ("string_n", '{"n": "2", "edges": [[0, 1]]}'),
            ("huge_n", '{"n": 100000, "edges": []}'),
            ("hadamard_scalar", "5"),
            ("float_order", '{"n": 2.0, "r": 2, "exps": [[0, 0], [0, 1]]}'),
            ("string_order", '{"n": "2", "r": 2, "exps": [[0, 0], [0, 1]]}'),
            # K_20 with weight 2**57: int64 storage, but the cut tables overflow
            ("heavy_k20", json.dumps({
                "n": 20,
                "edges": [[u, v, str(2**57)] for u in range(20) for v in range(u + 1, 20)],
            })),
        ):
            made[name] = tmp_path / f"{name}.json"
            made[name].write_text(text)
        made["not_utf8"] = tmp_path / "not_utf8.json"
        made["not_utf8"].write_bytes(b'{"n": 2, "edges": [[0, 1, "\xff"]]}')
        made["directory"] = tmp_path / "directory.json"
        made["directory"].mkdir()
        return {name: str(path) for name, path in made.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ("hadamard", "verify", "--in", "{float_exponent}"),
            ("hadamard", "verify", "--in", "{bool_exponent}"),
            ("hadamard", "verify", "--in", "{big_order}"),
            ("certify", "--graph", "{bool_weight}", "--hadamard", "{f2}"),
            ("walk", "--graph", "{k2}", "--hadamard", "{f2}", "--t", "0.5",
             "--from", "5"),
            ("walk", "--graph", "{k2}", "--hadamard", "{f2}", "--t", "inf",
             "--from", "0"),
            ("walk", "--graph", "{k2}", "--hadamard", "{f2}", "--t", "nan",
             "--from", "0"),
            ("pst-check", "--graph", "{k2}", "--hadamard", "{f2}",
             "--from", "0", "--to", "7", "--tau", "1/4"),
            ("pst-check", "--graph", "{k2}", "--hadamard", "{f2}",
             "--from", "-1", "--to", "0", "--tau", "1/4"),
            ("density", "--graph", "{float_vertex}"),
            ("density", "--graph", "{four_item_edge}"),
            ("density", "--graph", "{bare_edge}"),
            ("density", "--graph", "{zero_denominator}"),
            ("density", "--graph", "{word_weight}"),
            ("density", "--graph", "{string_n}"),
            ("density", "--graph", "{huge_n}"),
            ("cheeger", "--graph", "{heavy_k20}"),
            ("hadamard", "verify", "--in", "{hadamard_scalar}"),
            ("hadamard", "verify", "--in", "{float_order}"),
            ("hadamard", "verify", "--in", "{string_order}"),
            ("density", "--graph", "{directory}"),
            ("density", "--graph", "{not_utf8}"),
            ("hadamard", "verify", "--in", "{not_utf8}"),
        ],
        ids=[
            "float-exponent",
            "bool-exponent",
            "root-order-cap",
            "bool-weight",
            "walk-from-out-of-range",
            "walk-infinite-time",
            "walk-nan-time",
            "pst-to-out-of-range",
            "pst-from-negative",
            "float-vertex",
            "four-item-edge",
            "bare-edge",
            "zero-denominator-weight",
            "word-weight",
            "string-vertex-count",
            "vertex-count-cap",
            "cheeger-cut-overflow",
            "hadamard-not-an-object",
            "hadamard-float-order",
            "hadamard-string-order",
            "graph-is-a-directory",
            "graph-not-utf8",
            "hadamard-not-utf8",
        ],
    )
    def test_rejected_with_json_error(self, files, capsys, argv):
        code = main([a.format(**files) for a in argv])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert "error" in json.loads(out.err)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("hadamard_scalar", "must be an object"),
            ("float_order", "'n' must be an integer"),
            ("string_order", "'n' must be an integer"),
        ],
    )
    def test_hadamard_json_error_names_the_fault(self, files, capsys, name, message):
        assert main(["hadamard", "verify", "--in", files[name]]) == 1
        assert message in json.loads(capsys.readouterr().err)["error"]


class TestSizeCaps:
    """Oversized groups and graphs are refused before anything is built.
    Each command runs in a child limited to 1 GiB of address space, so an
    allocation made before the check fails in the child alone."""

    CHILD = (
        "import sys, time\n"
        "from chd.cli import main\n"
        "t = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t)\n"
        "sys.exit(code)\n"
    )

    @staticmethod
    def _limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "make", "hypercube", "30"),
            ("hadamard", "character-table", "--moduli", ",".join(["2"] * 30)),
            ("graph", "make", "complete", str(10**9)),
            ("graph", "make", "empty", str(10**9)),
            ("graph", "make", "complete-multipartite", str(10**9), "1"),
            ("graph", "make", "cayley", "--moduli", "4096,4096", "--connection", "1,0"),
        ],
        ids=["hypercube-30", "characters-z2^30", "complete", "empty", "multipartite", "cayley"],
    )
    def test_refused_quickly(self, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=self._limit,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr[-500:]
        assert json.loads(proc.stderr)["type"] == "ScaleError"
        assert float(proc.stdout) < 1.0
