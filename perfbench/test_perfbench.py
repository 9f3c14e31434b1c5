"""Self-test of the benchmark's correctness gate and layout.

Usage: python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end tests copy the checkout into a temporary directory, perturb
the copy (a pinned digest, or the program itself), and run one short pass
of the cheapest workload there.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import BOUNDARIES  # noqa: E402

WORKLOAD = "boson-image"
CHECK = "phi-consistency i=0 m=5 n=5"


def copy_checkout(dest, with_src=True):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    shutil.copytree(os.path.join(ROOT, "perfbench"), dest / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=ignore)
    return dest


def bench(root, workload=WORKLOAD):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def outcome(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def sample_for(workload, expected, passed=True):
    """A pass that reproduces every pinned digest (no CLI calls)."""
    checks = run.WORKLOADS[workload]
    names = {"polynomial": ["main2 m=5 n=5", "trapezoid m=5 n=5", "main1 m=6 n=3"],
             "fock-operators": ["f-power i=0 m=7 n=7", "f-power i=1 m=8 n=8"],
             "boson-image": [CHECK]}[workload]
    results = [[name, passed] + expected["checks"][name] for name in names]
    calls = [{"first": k, "results": [k]} for k in range(len(checks))]
    return checks, {"results": results, "calls": calls}


@pytest.fixture(scope="module")
def expected():
    with open(run.EXPECTED) as fh:
        return json.load(fh)


def test_score_counts_fail_digest_and_missing(expected):
    checks, sample = sample_for("polynomial", expected)
    assert run.score(checks, sample, expected) == (3, 0)
    sample["results"][1][1] = False
    assert run.score(checks, sample, expected) == (3, 1)
    sample["results"][2][3] = "0" * 64
    assert run.score(checks, sample, expected) == (3, 2)
    sample["calls"] = sample["calls"][:2]
    sample["results"] = sample["results"][:2]
    assert run.score(checks, sample, expected) == (3, 2)


def test_score_fails_a_whole_cli_call(expected):
    family = "core-states"
    report_sha, stdout_sha, count = expected["reports"][family]
    names = ["core-states m=%d" % m for m in range(1, count + 1)]
    results = [[name, True] + expected["checks"][name] for name in names]
    checks = [["cli", ["verify", family]]]
    call = {"first": 0, "results": list(range(count)), "rc": 0,
            "report_sha": report_sha, "stdout_sha": stdout_sha}
    sample = {"results": results, "calls": [call]}
    assert run.score(checks, sample, expected) == (count, 0)
    call["stdout_sha"] = "0" * 64
    assert run.score(checks, sample, expected) == (count, count)
    call["stdout_sha"], call["rc"] = stdout_sha, 1
    assert run.score(checks, sample, expected) == (count, count)


def test_metric_names_match_the_tracer():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    layer_names = {m["name"] for m in declared["per_layer"]}
    for boundary in BOUNDARIES:
        assert boundary + ".calls" in layer_names
        assert boundary + ".self_s" in layer_names
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_seed_orders_checks_and_is_reproducible():
    orders = {json.dumps(run.generate_checks("grid", seed)) for seed in range(8)}
    assert len(orders) > 1
    assert run.generate_checks("grid", 3) == run.generate_checks("grid", 3)
    assert sorted(map(json.dumps, run.generate_checks("grid", 3))) == \
        sorted(map(json.dumps, run.WORKLOADS["grid"]))


def test_unperturbed_run_passes(tmp_path):
    root = copy_checkout(tmp_path)
    proc = bench(root)
    assert proc.returncode == 0, proc.stderr
    describe, result = outcome(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert describe["failed_share"] == 0
    assert not (root / run.WORK).exists()


def test_perturbed_digest_is_caught(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    pins = json.loads(path.read_text())
    pins["checks"][CHECK][1] = "0" * 64
    path.write_text(json.dumps(pins))
    proc = bench(root)
    assert proc.returncode != 0
    describe, result = outcome(proc)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    assert describe["failed_share"] > 0


def test_forced_fail_is_caught(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "src" / "schurq" / "fock.py"
    source = path.read_text()
    flip = "sign = -1 if (st.f + st.g + (st.h if eps else 0)) % 2 else 1"
    assert flip in source
    path.write_text(source.replace(
        flip, "sign = 1 if (st.f + st.g + (st.h if eps else 0)) % 2 else -1"))
    proc = bench(root)
    assert proc.returncode != 0
    describe, result = outcome(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert describe["failed_share"] > 0


def test_without_sources_fails_without_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = bench(root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
