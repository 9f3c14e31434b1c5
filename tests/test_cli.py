"""Tests for the command-line interface: output shapes, JSON variants and
exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import schurq
from schurq.cli import build_parser, main

_SRC = os.path.dirname(os.path.dirname(schurq.__file__))


def _cli_env(**extra):
    """The environment of a `python -m schurq.cli` child that imports the
    package under test."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_times(text):
    """The text with every check time, which differs from run to run, as 0."""
    text = re.sub(r"\(\d+ ms\)", "(0 ms)", text)
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


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

    def test_deep_core(self, capsys):
        # 1,200 core rows once exceeded the recursion limit of the enumerator
        code, out, err = run_cli(capsys, "enumerate", "--core", "-1200",
                                 "--color", "0", "--nodes", "0")
        assert (code, err) == (0, "")
        assert out == ",".join(str(3 * k - 1) for k in range(1200, 0, -1)) + "\n"


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

    # sha256 of the stdout of `schur LAM --spec-z N` and of the same with
    # --json, for the shapes and variable counts whose output is neither 0
    # (more rows than variables) nor 1 (the empty shape)
    SPEC_Z_PINS = {
        ("1", 1): ("ae6c381493f88da4351218c39be5287541c9f9d4312a941e431eb4371bc515b7",
                   "7e53ce556f03a6dee0219dc60dd780e0769a2dbb3e98dd53a90a548ec0979752"),
        ("1", 2): ("090b2f16faacf8d383d5d240b2374fdfd23f4ae43462cdd92adde3729ec77f05",
                   "06ec8b73b07879c5f0416ebcc3b7f3fd32f8f24f8b6bc6e4b7b992a613918f11"),
        ("1", 3): ("08e36d2a48284a5ed63fd6f15441c3c0b7cf7871fa38ce43f7bcb4bf225c4b75",
                   "a8deff04d43a990f41b5b0cf3e439cfe926744f74ea0e0867bee07f5564e94b6"),
        ("1", 4): ("42229ef2deff0bc1516a697b9ad9ed6fb12196441d3bd9a72aa95b8939ef7c53",
                   "c84d203231ad68112bec467c5ef0dd2ac22174e0f8a71558382394c55322bf57"),
        ("2,1", 2): ("c91c3790930102c989065c7bb03248826382125c05944756d374d63f1cc40b2b",
                     "2f54edb654bbca1cef31879e5ded74eff52c9b784145832d7391855920821386"),
        ("2,1", 3): ("3513887ad29e0fb0abf86a0cb75f9427a2621d798ccc4961ee5ba8860b4459a9",
                     "c76e116d5249d831375fd79924784ba617999dde48e98e25ad048f9477ede775"),
        ("2,1", 4): ("00ce9da34ce2e357b8a1ff8e54051401f8bbd25b4f60e4a8a2660ad12f5caa82",
                     "6511d0efd77b50cbec06350b1d2e00b1579c7d9cf5634e916ee73493e3049965"),
        ("3,1,1", 3): ("d0f8134d013b82b2d4031c398b0af4d194ebcce47e337eabc20bb385a8c5db67",
                       "60a962690a6e2ee1b79850b90a3fa45bd1cd2f802bb329e4adc22c1c7ff9c830"),
        ("3,1,1", 4): ("3c405b8c8677c7f9a5d98342237fca2d5cce218cc27c0820b76371217ccf5195",
                       "4fa177bf69e06fac26b4b15f30e55a520d6b263295174903ab2df017fd6ef7eb"),
        ("4,2", 2): ("ba065df788f0587a611bb1dcadd2e1677e6625b2b5fcb2f37bd4f36d5d0c3c6e",
                     "fb72789f20664a73f7ff48b7432ce1af65e310ad3a45ce9f0545c66ac746060c"),
        ("4,2", 3): ("17b9fe3ee33138428cc12cf0b4b4bd386e252a7e41db10ec3702b6b97ae3aa71",
                     "ede28ac3eeb60f80d797fa93b656d4abc316dba7e99f5b977e7ca9513b45494f"),
        ("4,2", 4): ("26d60b8d42925c9e25ed952c69c124a81143fdd48655614e9f2b175686de78ad",
                     "f6dbc10233f58bc11296dfb74f183f91e0ca9cc989f795ec24a8c08276909237"),
        ("2,2,2,1", 4): ("9a9ae5dc09be0cd7c1b21b93826947705a459b283394d7ec0364bf1a5baf01ca",
                         "c768d80de170238e12d4f67fbb442723f4bd3caeae8d967b6d83b0bfe811a9fa"),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", ["-", "1", "2,1", "3,1,1", "4,2", "2,2,2,1"])
    def test_schur_spec_z_pins(self, capsys, lam, n):
        outs = []
        for extra in ([], ["--json"]):
            code, out, err = run_cli(capsys, "schur", lam, "--spec-z", str(n), *extra)
            assert code == 0 and err == ""
            outs.append(out)
        rows = 0 if lam == "-" else len(lam.split(","))
        if lam == "-":
            assert outs == ["1\n", '{"text": "1"}\n']
        elif rows > n:
            assert outs == ["0\n", '{"text": "0"}\n']
        else:
            assert tuple(hashlib.sha256(out.encode()).hexdigest()
                         for out in outs) == self.SPEC_Z_PINS[lam, n]

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


class TestPartitionTextPins:
    """Exit code, stdout and stderr of the commands that read or write
    partition text through partitions.parse_parts and format_parts.
    parse_parts ignores the blanks around its text, for every command, so
    " - " is the empty partition to schur as it is to quotient."""

    @pytest.mark.parametrize("argv, want", [
        (("schur", "-"), (0, "1\n", "")),
        (("qfun", "3,1", "--subst", "u"), (0, (
            "1/12*t1^4 - 1/3*t1^3*s1 + 1/2*t1^2*s1^2 - t1*t3 - 1/3*t1*s1^3"
            " + t1*s3 + t3*s1 + 1/12*s1^4 - s1*s3\n"), "")),
        (("quotient", " 5,4,2 "), (0, "q0: -\nq1: 3\n", "")),
        (("enumerate", "--core", "2", "--color", "1", "--nodes", "1"),
         (0, "5,1\n4,2\n", "")),
        (("schur", "2,x"), (2, "", "error: cannot parse partition '2,x'\n")),
        (("schur", " - "), (0, "1\n", "")),
    ], ids=["schur-empty", "qfun-subst-u", "quotient-stripped", "enumerate",
            "schur-unparsable", "schur-unstripped"])
    def test_pins(self, capsys, argv, want):
        assert run_cli(capsys, *argv) == want


class TestBadPointPins:
    """Each verify family's bad points through the CLI: exit 2, nothing on
    stdout and the family rule's text on stderr."""

    @pytest.mark.parametrize("argv, err", [
        (("main1", "--m", "-1", "--n", "0"), "m and n must be non-negative"),
        (("main1", "--m", "2", "--n", "3"), "needs n <= m"),
        (("main2", "--m", "0", "--n", "-1"), "m and n must be non-negative"),
        (("trapezoid", "--m", "-1", "--n", "0"), "m and n must be non-negative"),
        (("trapezoid", "--m", "0", "--n", "2"), "needs m - n + 1 >= 0"),
        (("f-power", "--i", "0", "--m", "-1", "--n", "0"),
         "m and n must be non-negative"),
        (("core-states", "--m", "0"), "needs m >= 1"),
        (("phi-consistency", "--i", "1", "--m", "2", "--n", "-1"),
         "m and n must be non-negative"),
    ], ids=["main1-negative", "main1-n-above-m", "main2-negative",
            "trapezoid-negative", "trapezoid-short", "f-power-negative",
            "core-states-zero", "phi-consistency-negative"])
    def test_pins(self, capsys, argv, err):
        assert run_cli(capsys, "verify", *argv) == (2, "", "error: %s\n" % err)


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
        # `terms` decodes every word and builds every coefficient as a
        # Fraction; the JSON reads word_texts(), the text form's source,
        # and never `terms`
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
        assert len(reads) == 0

    def test_apply_f_json_coefficients_match_text(self, capsys):
        # F0^7/7! on the core c_-7: 750 words with sqrt(2) coefficients
        argv = ("fock", "apply-f", "--i", "0", "--n", "7", "--state", "c:-7")
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 750
        assert any("r2" in line for line in lines)
        assert ["%s * |%s>" % (t["coeff"], ",".join(map(str, t["word"])))
                for t in json.loads(out)] == lines

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


class TestParserReuse:
    """main builds its parser once per process; each later call must behave
    as the same command does in a fresh process."""

    SEQUENCE = [
        ["verify", "core-states", "--max-m", "2"],
        ["verify", "all", "--json", "-"],
        ["enumerate", "--core", "-3", "--color", "0", "--nodes", "3", "--json"],
        ["fock", "apply-f", "--i", "2", "--n", "1", "--state", "-"],
        ["verify", "core-states", "--m", "0"],
        ["--help"],
        ["verify", "core-states", "--max-m", "2"],
    ]

    @staticmethod
    def _in_process(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, _without_times(captured.out), captured.err

    @staticmethod
    def _fresh_process(argv):
        proc = subprocess.run([sys.executable, "-m", "schurq.cli", *argv],
                              capture_output=True, text=True,
                              env=_cli_env(COLUMNS="80"), timeout=120)
        return proc.returncode, _without_times(proc.stdout), proc.stderr

    def test_later_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at this width
        got = [self._in_process(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in got] == [0, 0, 0, 2, 2, 0, 0]
        assert got[-1] == got[0]
        for argv, result in zip(self.SEQUENCE, got):
            assert result == self._fresh_process(argv), argv

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_report_file_equals_json_stdout(self, capsys, tmp_path):
        argv = ["verify", "trapezoid", "--max-m", "2", "--max-n", "2", "--json"]
        target = tmp_path / "report.json"
        assert run_cli(capsys, *argv, str(target))[0] == 0
        code, out, _ = run_cli(capsys, *argv, "-")
        assert code == 0 and out.endswith("]\n")
        assert _without_times(target.read_text()) == _without_times(out[:-1])


def test_import_loads_no_dataclasses_or_inspect():
    # the modules that importing schurq.cli adds, in a fresh interpreter that
    # reads no environment variable and no user site directory
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "before = set(sys.modules)\n"
              "import schurq.cli\n"
              "print(schurq.cli.__file__)\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-E", "-s", "-c", script, _SRC],
                         capture_output=True, text=True, check=True).stdout
    where, loaded = out.splitlines()
    assert where == os.path.join(_SRC, "schurq", "cli.py")
    loaded = set(loaded.split())
    assert {"schurq.cli", "schurq.partitions", "schurq.verify"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


class TestClosedPipe:
    """A reader that closes stdout early ends the command quietly with exit
    141 (128 + SIGPIPE), not with a traceback and the exit code of a failed
    check.  Both outputs are larger than a pipe holds, so the command is
    still writing when the reader goes."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--core", "-10", "--color", "0", "--nodes", "10"],
        ["verify", "all", "--json", "-"]])
    def test_reader_closing_after_one_line(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "schurq.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_cli_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.strip()
        assert err == b""  # no traceback, no message
