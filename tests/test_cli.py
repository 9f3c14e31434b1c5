"""Tests for the command-line interface: output shapes, JSON variants and
exit codes."""

import json
import os
import subprocess
import sys

import pytest

import schurq
from schurq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "main1", "--m", "4", "--n", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS main1 m=4 n=2")
        assert "1 checks, 1 passed, 0 failed" in out

    def test_family_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "core-states", "--max-m", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 3

    def test_all_families(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all",
                               "--max-m", "1", "--max-n", "1")
        assert code == 0
        assert "0 failed" in out.splitlines()[-1]

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "main1", "--m", "2", "--n", "1",
                               "--json", "-")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["name"] == "main1"
        assert payload[0]["passed"] is True
        assert set(payload[0]) == {"name", "params", "passed", "lhs_rendering",
                                   "rhs_rendering", "elapsed_ms"}

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "trapezoid", "--m", "2",
                               "--n", "1", "--json", str(target))
        assert code == 0
        assert "report written to" in out
        payload = json.loads(target.read_text())
        assert payload[0]["name"] == "trapezoid"

    def test_unwritable_report_path_exits_2_before_any_check(self, capsys, tmp_path,
                                                             monkeypatch):
        from schurq import verify

        def no_check(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "check_main1", no_check)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "main1", "--m", "2", "--n", "1",
                                 "--json", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write report %s: " % target)

    def test_usage_error_keeps_an_existing_report(self, capsys, tmp_path):
        # core-states --m 0 is rejected by the check itself, after the path
        # was checked; the report there stays byte for byte
        target = tmp_path / "x.json"
        old = b'[{"name": "an earlier report"}]\n'
        target.write_bytes(old)
        code, out, err = run_cli(capsys, "verify", "core-states", "--m", "0",
                                 "--json", str(target))
        assert code == 2 and out == ""
        assert "needs m >= 1" in err
        assert target.read_bytes() == old

    def test_usage_error_leaves_no_new_report(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "verify", "core-states", "--m", "0",
                               "--json", str(target))
        assert code == 2 and "needs m >= 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_report_through_a_dangling_symlink(self, capsys, tmp_path):
        # the probe creates and removes the file the link names, so a usage
        # error leaves the link dangling, and a run writes through it
        link, target = tmp_path / "link.json", tmp_path / "target.json"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "verify", "core-states", "--m", "0",
                             "--json", str(link))
        assert code == 2
        assert link.is_symlink() and not target.exists()
        code, _, _ = run_cli(capsys, "verify", "core-states", "--m", "1",
                             "--json", str(link))
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())[0]["name"] == "core-states"

    def test_report_replaces_a_longer_one(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("x" * 100000)
        code, _, _ = run_cli(capsys, "verify", "core-states", "--m", "1",
                             "--json", str(target))
        assert code == 0
        assert json.loads(target.read_text())[0]["name"] == "core-states"

    def test_directory_as_report_path_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "core-states", "--m", "1",
                                 "--json", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write report %s: " % tmp_path)

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "main1", "--m", "2", "--n", "3")
        assert code == 2
        assert "needs n <= m" in err

    def test_partial_point_params_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "f-power", "--i", "0", "--m", "2")
        assert code == 2
        assert "needs --i, --m and --n" in err

    def test_negative_m_named(self, capsys):
        code, _, err = run_cli(capsys, "verify", "main1", "--m", "-1", "--n", "0")
        assert code == 2
        assert "m and n must be non-negative" in err

    @pytest.mark.parametrize("m, n", [("-1", "0"), ("3", "-1")])
    def test_negative_trapezoid_named(self, capsys, m, n):
        code, out, err = run_cli(capsys, "verify", "trapezoid", "--m", m, "--n", n)
        assert code == 2 and out == ""
        assert "m and n must be non-negative" in err

    def test_params_the_family_does_not_take(self, capsys):
        code, out, err = run_cli(capsys, "verify", "symfunc-props", "--m", "3")
        assert code == 2 and out == ""
        assert "symfunc-props takes no --i/--m/--n" in err
        code, _, err = run_cli(capsys, "verify", "core-states", "--m", "2", "--n", "1")
        assert code == 2
        assert "core-states takes no --i/--n" in err

    @pytest.mark.parametrize("argv, text", [
        (["main1", "--m", "3"], "main1 needs both --m and --n"),
        (["trapezoid", "--i", "1"], "trapezoid takes no --i"),
        (["all", "--m", "1"], "all takes no --i/--m/--n"),
    ])
    def test_point_messages_from_the_family_table(self, capsys, argv, text):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == "error: %s\n" % text

    def test_single_point_and_grid_call_the_module_check(self, capsys, monkeypatch):
        # the family table looks a check up in schurq.verify when it runs, so
        # a check replaced there sees both a single point and a grid
        import schurq.verify
        original = schurq.verify.check_core_states
        calls = []

        def check_core_states(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(schurq.verify, "check_core_states", check_core_states)
        assert run_cli(capsys, "verify", "core-states", "--m", "2")[0] == 0
        assert run_cli(capsys, "verify", "core-states", "--max-m", "3")[0] == 0
        assert calls == [2, 1, 2, 3]


class TestEnumerateCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--core", "-2",
                               "--color", "0", "--nodes", "2")
        assert code == 0
        assert out.splitlines() == ["7,2", "6,3", "6,2,1", "5,4", "5,3,1"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--core", "3",
                               "--color", "1", "--nodes", "2", "--json")
        assert code == 0
        assert json.loads(out) == [[8, 5, 1], [8, 4, 2], [7, 5, 2]]

    def test_empty_family(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--core", "0",
                               "--color", "1", "--nodes", "1")
        assert code == 0
        assert out.strip() == ""


class TestQuotientCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "11,9,8,4,3,2,1")
        assert code == 0
        assert out.splitlines() == ["q0: 3,1", "q1: 3,3,2"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "11,9,8,4,3,2,1", "--json")
        assert json.loads(out) == {"q0": [3, 1], "q1": [3, 3, 2]}

    def test_explicit_padding(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "11,9,8,4,3,2,1", "--k", "5")
        assert code == 0
        assert out.splitlines() == ["q0: 3,1", "q1: 3,3,2"]

    def test_empty_components_render_as_dash(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "4,1")
        assert code == 0
        assert out.splitlines() == ["q0: -", "q1: -"]

    def test_invalid_partition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "quotient", "4,4")
        assert code == 2 and "error" in err


class TestPolynomialCommands:
    def test_schur(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "2,1")
        assert code == 0
        assert out.strip() == "1/3*t1^3 - t3"

    def test_schur_subst_u(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "1", "--subst", "u")
        assert code == 0
        assert out.strip() == "t1 - s1"

    def test_schur_subst_2t2(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "1", "--subst", "2t2")
        assert code == 0
        assert out.strip() == "2*t2"

    def test_schur_specialize(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "2,1", "--spec-z", "2")
        assert code == 0
        assert out.strip() == "z1^2*z2 + z1*z2^2"

    def test_schur_json(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "2,1", "--json")
        assert json.loads(out) == {"text": "1/3*t1^3 - t3"}

    def test_schur_rejects_non_partition(self, capsys):
        code, _, err = run_cli(capsys, "schur", "1,2")
        assert code == 2

    def test_qfun(self, capsys):
        code, out, _ = run_cli(capsys, "qfun", "2,1")
        assert code == 0
        assert out.strip() == "1/6*s1^3 - 2*s3"

    def test_qfun_negative_part_named(self, capsys):
        code, out, err = run_cli(capsys, "qfun", "-1")
        assert code == 2 and out == ""
        assert "Q-function index parts must be non-negative: (-1,)" in err
        assert "strict" not in err

    def test_qfun_subst(self, capsys):
        code, out, _ = run_cli(capsys, "qfun", "1", "--subst", "u")
        assert code == 0
        assert out.strip() == "t1 - s1"

    def test_empty_partition(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "-")
        assert code == 0
        assert out.strip() == "1"


class TestFockCommands:
    def test_apply_f_core_state(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "apply-f", "--i", "1",
                               "--n", "1", "--state", "c:1")
        assert code == 0
        assert out.strip() == "2 * |2,0>"

    def test_apply_f_json(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "apply-f", "--i", "1",
                               "--n", "1", "--state", "c:1", "--json")
        assert code == 0
        assert json.loads(out) == [{"coeff": "2", "word": [2, 0]}]

    def test_apply_f_json_reads_terms_once(self, capsys, monkeypatch):
        # `terms` decodes every word, so a read per term is quadratic
        from schurq.fock import FockVector
        terms, reads = FockVector.terms, []

        def counted(vec):
            reads.append(vec)
            return terms.fget(vec)

        monkeypatch.setattr(FockVector, "terms", property(counted))
        code, out, _ = run_cli(capsys, "fock", "apply-f", "--i", "0",
                               "--n", "2", "--state", "c:-2", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"coeff": "1", "word": [7, 2]}, {"coeff": "2", "word": [6, 3]},
            {"coeff": "2", "word": [6, 2, 1, 0]}, {"coeff": "1", "word": [5, 4]},
            {"coeff": "2", "word": [5, 3, 1, 0]}]
        assert len(reads) == 1

    def test_apply_f_partition_state(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "apply-f", "--i", "0",
                               "--n", "0", "--state", "5,2")
        assert code == 0
        assert out.strip() == "1 * |5,2>"

    def test_phi_text(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "phi", "--state", "7,2")
        assert code == 0
        assert out.strip() == "(0, 0): 1/6*t1^3 + t1*t2 + t3"

    def test_phi_core(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "phi", "--state", "c:-7")
        assert code == 0
        assert out.strip() == "(1, -7): (0+1/2*r2)"

    def test_phi_json(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "phi", "--state", "7,2", "--json")
        assert json.loads(out) == [{"sigma": 0, "charge": 0,
                                    "poly": "1/6*t1^3 + t1*t2 + t3"}]

    @pytest.mark.parametrize("state, sector, poly", [
        # one factor in each of t and s
        ("5,3,1", (0, 0), "1/4*t1^2*s1 - 1/2*t2*s1"),
        # sqrt(2) coefficients
        ("9,4", (1, 1), "(0+1/12*r2)*t1*s1^3 + (0+1/2*r2)*t1*s3"),
    ], ids=["mixed", "sqrt2"])
    def test_phi_pins(self, capsys, state, sector, poly):
        code, out, _ = run_cli(capsys, "fock", "phi", "--state", state)
        assert code == 0
        assert out == "(%d, %d): %s\n" % (sector + (poly,))
        code, out, _ = run_cli(capsys, "fock", "phi", "--state", state, "--json")
        assert code == 0
        assert json.loads(out) == [{"sigma": sector[0], "charge": sector[1],
                                    "poly": poly}]

    def test_vacuum_state(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "phi", "--state", "-")
        assert code == 0
        assert out.strip() == "(0, 0): 1"

    def test_bad_state_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "fock", "phi", "--state", "1,2")
        assert code == 2

    @pytest.mark.parametrize("argv, text", [
        (("fock", "phi", "--state", "c:x"), "'c:x'"),
        (("fock", "phi", "--state", "2,x"), "'2,x'"),
        (("quotient", "a"), "'a'"),
    ])
    def test_unparsable_argument_is_named(self, capsys, argv, text):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "cannot parse" in err and text in err
        assert "invalid literal" not in err


class TestParserBehavior:
    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestClosedPipe:
    """A reader that closes stdout early ends the command quietly with exit
    141 (128 + SIGPIPE), not with a traceback and the exit code of a failed
    check.  Both outputs are larger than a pipe holds, so the command is
    still writing when the reader goes."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--core", "-10", "--color", "0", "--nodes", "10"],
        ["verify", "all", "--json", "-"]])
    def test_reader_closing_after_one_line(self, argv):
        src = os.path.dirname(os.path.dirname(schurq.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "schurq.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.strip()
        assert err == b""  # no traceback, no message
