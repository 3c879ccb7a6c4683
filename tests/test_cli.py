"""Command-line surface: report formats, exit codes, golden text."""

import json
import subprocess
import sys

import pytest

from conftest import CORPUS_DIR
from singlocus import cli
from singlocus.cli import main
from singlocus.errors import InvariantError


@pytest.fixture
def arr_dir():
    return CORPUS_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_RADICAL_SEVEN = """\
        0    1    2
--------------------
 0:     1    -    -
 1:     -    -    -
 2:     -    -    -
 3:     -    -    -
 4:     -    6    5
--------------------
Tot:    1    6    5"""


class TestIdealCommands:
    def test_radical_betti_golden(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "radical", "--betti",
                               str(arr_dir / "seven_planes.arr"))
        assert code == 0
        assert GOLDEN_RADICAL_SEVEN in out

    def test_jacobian_summary(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "jacobian",
                               str(arr_dir / "four_planes_point.arr"))
        assert code == 0
        assert "Hilbert polynomial: 6t - 1" in out
        assert "saturated: True" in out
        assert "unmixed (saturation equals top part): False" in out

    def test_top_hilbert(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "top", "--hilbert",
                               str(arr_dir / "pencil_three.arr"))
        assert code == 0
        assert "degree: 4" in out
        assert "regularity index:" in out
        assert "Cohen-Macaulay" not in out

    def test_jacobian_betti_skips_saturation(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "jacobian", "--betti",
                               str(arr_dir / "four_planes_point.arr"))
        assert code == 0
        assert "Tot:" in out
        assert "saturated" not in out and "unmixed" not in out

    def test_selector_commands(self, capsys, arr_dir):
        path = str(arr_dir / "seven_planes.arr")
        code, out, _ = run_cli(capsys, "hilbert", path, "--ideal", "radical")
        assert code == 0 and "15t - 25" in out
        code, out, _ = run_cli(capsys, "cm", path, "--ideal", "radical")
        assert code == 0 and "Cohen-Macaulay: True" in out
        code, out, _ = run_cli(capsys, "rao", path, "--ideal", "top")
        assert code == 0 and "ACM" in out
        code, out, _ = run_cli(capsys, "betti", path, "--ideal", "saturation")
        assert code == 0 and "Tot:" in out

    def test_symbolic(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "symbolic", "--rule", "2", "--cm",
                               str(arr_dir / "star_pencil.arr"))
        assert code == 0
        assert "Cohen-Macaulay: True" in out


class TestJsonReports:
    def test_schema_and_roundtrip(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "hilbert", "--json",
                               str(arr_dir / "seven_planes.arr"),
                               "--ideal", "jacobian")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["field"] == "p:32003"
        assert payload["seed"] == 0
        assert payload["artifact"]["hilbert"]["hilbert_polynomial"] == "24t - 64"
        assert json.loads(json.dumps(payload)) == payload

    def test_field_flag_echo(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "lattice", "--json", "--field", "q",
                               str(arr_dir / "star_four.arr"))
        assert code == 0
        payload = json.loads(out)
        assert payload["field"] == "q"
        assert payload["artifact"]["counts"] == {"2": 6}

    def test_betti_json(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "betti", "--json",
                               str(arr_dir / "seven_planes.arr"),
                               "--ideal", "radical")
        payload = json.loads(out)
        assert payload["artifact"]["betti"]["total"] == [1, 6, 5]


class TestLattice:
    def test_summary(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "lattice",
                               str(arr_dir / "fifteen_planes.arr"))
        assert code == 0
        assert "55 flats" in out
        assert "multiplicity 3: 25 flats" in out
        assert "multiplicity 2: 30 flats" in out

    def test_isomorphism(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "lattice",
                               str(arr_dir / "same_lattice_a.arr"),
                               str(arr_dir / "same_lattice_b.arr"))
        assert code == 0
        assert "isomorphic: True" in out


class TestGraphCommands:
    def test_hypothesis(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "hypothesis",
                               str(arr_dir / "seven_planes.arr"))
        assert code == 0
        assert "holds: False" in out
        assert "plane 1 (x)" in out

    def test_triangles(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "triangles",
                               str(arr_dir / "dodecahedron.graph"))
        assert code == 0
        assert "no two 3-cycles share an edge: True" in out

    def test_graphic_emits_arr(self, capsys, arr_dir, tmp_path):
        out_path = tmp_path / "octa.arr"
        code, out, _ = run_cli(capsys, "graphic",
                               str(arr_dir / "octahedron.graph"),
                               "-o", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("vars: x1 x2 x3 x4 x5 x6")
        assert "x1 - x2" in text

    def test_section_pipeline(self, capsys, arr_dir, tmp_path):
        octa_arr = tmp_path / "octa.arr"
        run_cli(capsys, "graphic", str(arr_dir / "octahedron.graph"),
                "-o", str(octa_arr))
        cut = tmp_path / "cut.arr"
        code, out, _ = run_cli(capsys, "section", str(octa_arr), "--seed", "11",
                               "-o", str(cut))
        assert code == 0
        text = cut.read_text()
        assert text.startswith("vars: x1 x2 x3 x4\n")
        # result parses and has the octahedron flat counts
        code, out, _ = run_cli(capsys, "lattice", str(cut))
        assert code == 0
        assert "multiplicity 3: 8 flats" in out
        assert "multiplicity 2: 42 flats" in out


class TestLiaisonCommands:
    def test_liaison_add_verify(self, capsys, arr_dir, tmp_path):
        first = tmp_path / "a.arr"
        second = tmp_path / "b.arr"
        first.write_text("vars: x y z w\nx\ny\nx + y\n")
        second.write_text("vars: x y z w\nz\nw\nz + w\n")
        code, out, _ = run_cli(capsys, "liaison-add", str(first), str(second),
                               "--ideal", "top", "--verify")
        assert code == 0
        assert "degree 17" in out
        assert "Hilbert additivity: True" in out

    def test_liaison_add_hypothesis_violation(self, capsys, arr_dir):
        code, _, err = run_cli(capsys, "liaison-add",
                               str(arr_dir / "pencil_three.arr"),
                               str(arr_dir / "star_four.arr"))
        assert code == 1
        assert "hypotheses" in err

    def test_bdl_with_form(self, capsys, arr_dir):
        code, out, _ = run_cli(capsys, "bdl", str(arr_dir / "star_four.arr"),
                               "--ideal", "radical", "--form", "x + y + z + w",
                               "--verify")
        assert code == 0
        assert "Hilbert additivity: True" in out

    def test_construct_lr_verify(self, capsys):
        code, out, _ = run_cli(capsys, "construct-lr-radical", "--r", "1",
                               "--verify", "--seed", "3")
        assert code == 0
        assert "verification: ok" in out


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "/nonexistent/path.arr")
        assert code == 1

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.arr"
        bad.write_text("vars: x y\nx\n2x\n")
        code, _, err = run_cli(capsys, "lattice", str(bad))
        assert code == 1
        assert "line 3" in err

    def test_bad_field(self, capsys, arr_dir):
        code, _, err = run_cli(capsys, "lattice", "--field", "zzz",
                               str(arr_dir / "star_four.arr"))
        assert code == 1

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_small_prime_is_refused(self, capsys, arr_dir, as_json):
        """A characteristic at most the number of planes is an error, not a
        silent switch to Q."""
        argv = ["hilbert", "--field", "p:5", str(arr_dir / "seven_planes.arr")]
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 1
        assert "too small for degree 7; use QQ" in err
        assert "Hilbert polynomial" not in out
        if as_json:
            payload = json.loads(out)
            assert payload["field"] == "p:5"
            assert payload["artifact"] == {}

    def test_symbolic_rule_violation(self, capsys, arr_dir):
        code, _, err = run_cli(capsys, "symbolic", "--uniform", "2",
                               str(arr_dir / "star_four.arr"))
        assert code == 1
        assert "override" in err

    def test_symbolic_negative_exponent(self, capsys, arr_dir):
        code, out, err = run_cli(capsys, "symbolic", "--uniform", "-1",
                                 "--override", "--hilbert",
                                 str(arr_dir / "nine_planes.arr"))
        assert code == 1
        assert "negative exponent -1" in err
        assert "Hilbert polynomial" not in out

    def test_usage_error_exit_code(self, capsys, arr_dir):
        code, _, err = run_cli(capsys, "hilbert", "--order", "lex",
                               str(arr_dir / "seven_planes.arr"))
        assert code == 1
        assert "unrecognized arguments" in err

    def test_invariant_failure_exit_code(self, capsys, arr_dir, monkeypatch):
        def broken(arr):
            raise InvariantError("planted failure")
        monkeypatch.setattr(cli, "radical_comb", broken)
        code, out, err = run_cli(capsys, "radical", "--json",
                                 str(arr_dir / "seven_planes.arr"))
        assert code == 3
        assert "planted failure" in err
        assert json.loads(out)["command"][0] == "radical"  # report still emitted

    def test_corpus_single_entry(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--entry", "emb_point")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "singlocus.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "corpus" in proc.stdout
