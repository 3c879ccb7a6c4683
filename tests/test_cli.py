"""Command-line surface: report formats, exit codes, golden text."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

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
        assert payload["seed"] is None  # hilbert makes no random choice
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

    def test_ranks_are_compared(self, capsys, arr_dir):
        """Four general planes (rank 4, four triple points) and four
        planes through one point (rank 3) share their six double lines,
        but not their lattices."""
        pair = (str(arr_dir / "star_four.arr"),
                str(arr_dir / "four_planes_point.arr"))
        code, out, _ = run_cli(capsys, "lattice", *pair)
        assert code == 0
        assert "incidence lattices isomorphic: False" in out
        code, out, _ = run_cli(capsys, "lattice", "--json", *pair)
        assert code == 0
        assert json.loads(out)["artifact"]["isomorphic"] is False


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

    def test_dodecahedron_section_pipeline(self, capsys, arr_dir, tmp_path):
        """`section` reads the 20-variable file that `graphic` writes."""
        dodeca = tmp_path / "dodeca.arr"
        code, _, _ = run_cli(capsys, "graphic",
                             str(arr_dir / "dodecahedron.graph"),
                             "-o", str(dodeca))
        assert code == 0
        cut = tmp_path / "cut.arr"
        code, _, err = run_cli(capsys, "section", str(dodeca), "-o", str(cut))
        assert code == 0, err
        lines = cut.read_text().splitlines()
        assert lines[0] == "vars: x1 x2 x3 x4" and len(lines) == 31
        code, out, _ = run_cli(capsys, "lattice", "--json", str(cut))
        assert code == 0
        assert json.loads(out)["artifact"]["counts"] == {"2": 435}

    @pytest.mark.parametrize("command, graph",
                             [("graphic", "octahedron.graph"),
                              ("triangles", "dodecahedron.graph")])
    def test_graph_commands_take_no_field(self, capsys, arr_dir, command,
                                          graph):
        """A graph's output does not depend on a field: no --field, and
        the report's field is null."""
        path = str(arr_dir / graph)
        code, _, err = run_cli(capsys, command, "--field", "p:7", path)
        assert code == 1
        assert "unrecognized arguments: --field" in err
        code, out, _ = run_cli(capsys, command, "--json", path)
        assert code == 0
        assert json.loads(out)["field"] is None


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

    def test_bdl_form_excludes_seed(self, capsys, arr_dir):
        """A given form leaves nothing for a seed to choose."""
        code, out, err = run_cli(capsys, "bdl", str(arr_dir / "star_four.arr"),
                                 "--form", "x + y + z + w", "--seed", "3")
        assert code == 1
        assert "--seed: not allowed with argument --form" in err
        assert out == ""

    def test_construct_lr_verify(self, capsys):
        code, out, _ = run_cli(capsys, "construct-lr-radical", "--r", "1",
                               "--verify", "--seed", "3")
        assert code == 0
        assert "verification: ok" in out

    def test_construct_lr_seed_echo(self, capsys):
        code, out, _ = run_cli(capsys, "construct-lr", "--r", "1",
                               "--seed", "3", "--json")
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_construct_lr_deep_alone_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "construct-lr", "--r", "1", "--deep",
                               "--json")
        assert code == 0
        verify = json.loads(out)["artifact"]["verify"]
        assert verify["ok"] and verify["hilbert_additivity_ok"]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "/nonexistent/path.arr")
        assert code == 1

    def test_directory_path(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "lattice", str(tmp_path))
        assert code == 1 and not out
        assert err.startswith("error: ") and "Is a directory" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.arr"
        bad.write_bytes("vars: x y\n# \xe9\nx\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "lattice", str(bad), "--json")
        assert code == 1 and not out
        assert err.startswith("error: ") and "utf-8" in err
        assert str(bad) in err

    def test_second_file_not_utf8_is_named(self, capsys, tmp_path):
        good = tmp_path / "good.arr"
        good.write_text("vars: x y z\nx\ny\nz\n")
        bad = tmp_path / "bad.arr"
        bad.write_bytes("vars: x y z\n# \xe9\nx\ny\nz\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "lattice", str(good), str(bad))
        assert code == 1 and not out
        assert err.startswith("error: ") and "bad.arr" in err
        assert "good.arr" not in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.arr"
        bad.write_text("vars: x y\nx\n2x\n")
        code, _, err = run_cli(capsys, "lattice", str(bad))
        assert code == 1
        assert "line 3" in err

    def test_form_vanishing_mod_p_names_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.arr"
        bad.write_text("vars: x y z\nx\n7y\ny\n")
        code, _, err = run_cli(capsys, "lattice", "--field", "p:7", str(bad))
        assert code == 1
        assert err == "error: line 3: '7y' is the zero form\n"

    @pytest.mark.parametrize("form, field", [("0x", "p:32003"), ("7x", "p:7")])
    def test_link_form_vanishing_is_named(self, capsys, arr_dir, form, field):
        code, _, err = run_cli(capsys, "bdl", "--form", form, "--field", field,
                               str(arr_dir / "star_four.arr"))
        assert code == 1
        assert err == f"error: '{form}' is the zero form\n"

    def test_negative_vertex_count(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertices: -3\n")
        code, out, err = run_cli(capsys, "triangles", str(bad))
        assert code == 1 and not out
        assert err == "error: line 1: negative vertex count -3\n"
        bad.write_text("vertices: 0\n")
        code, out, _ = run_cli(capsys, "triangles", str(bad))
        assert code == 0
        assert "no two 3-cycles share an edge: True" in out

    def test_too_many_variables(self, capsys, arr_dir, tmp_path):
        """The commands that build an ideal refuse a file wider than 8
        variables and point to `sing section`; the lattice commands read
        it."""
        wide = tmp_path / "dodeca.arr"
        run_cli(capsys, "graphic", str(arr_dir / "dodecahedron.graph"),
                "-o", str(wide))
        path = str(wide)
        for argv in (["top", path], ["radical", "--json", path],
                     ["symbolic", path], ["hilbert", "--ideal", "jacobian", path],
                     ["bdl", path], ["liaison-add", path, path]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert "at most 8" in err and "sing section" in err, argv
            assert "Hilbert" not in out
        for argv in (["lattice", path], ["hypothesis", path]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)

    @pytest.mark.parametrize("field, code, message", [
        ("p:7", 1, "error: field characteristic 7 is too small for degree 12"),
        ("p:13", 2, "internal limit: no generic section found")],
        ids=["p7", "p13"])
    def test_corpus_graphic_small_prime(self, capsys, field, code, message):
        """At p <= 12 the graphic entry names the field, as `sing section`
        does, before it sections the octahedron's 12 planes; p = 13 is a
        legal field, where the section's reseed cap is the real failure."""
        got, out, err = run_cli(capsys, "corpus", "--entry", "graphic",
                                "--field", field)
        assert got == code
        assert err.startswith(message)

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

    @pytest.mark.parametrize("argv", [["--entry", "bogus"],
                                      ["--quick", "--entry", "emb_point"]],
                             ids=["unknown", "with-quick"])
    def test_corpus_entry_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "corpus", *argv)
        assert code == 1
        assert "usage:" in err and "Traceback" not in err
        assert "PASS" not in out

    def test_seed_only_where_it_is_read(self, capsys, arr_dir):
        code, _, err = run_cli(capsys, "jacobian", "--seed", "3",
                               str(arr_dir / "seven_planes.arr"))
        assert code == 1
        assert "unrecognized arguments: --seed" in err


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line tool", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sing ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    """Every `sing` line of the README parses, and every line but the one
    naming placeholder files runs in a fresh directory and exits 0."""
    commands = _readme_commands()
    assert len(commands) > 10
    (tmp_path / "src" / "singlocus").mkdir(parents=True)
    (tmp_path / "src" / "singlocus" / "arrangements").symlink_to(
        str(CORPUS_DIR), target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)
        if argv[0] == "liaison-add":  # a.arr and b.arr are placeholders
            continue
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "singlocus.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "corpus" in proc.stdout
