"""Benchmark for schurq: time-to-verdict of exact identity checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A schurq user runs a check and waits for its PASS/FAIL verdict, so the
benchmark measures that wait.  One invocation runs one workload; each
pass of the workload runs cold in a fresh Python child (``child.py``),
because schurq's caches are process-global and a CLI user pays for them on
every invocation.  Passes repeat, one after another (a closed loop with one
client), until the next one would overrun ``--seconds``; every timing is the
median over passes.  The seed fixes the order of the checks within the
workload; the child only receives the generated check list.

Workloads (fixed grid points):

* ``grid``: ``schurq verify <family> --max-m 4 --max-n 4 --json <file>``
  through ``schurq.cli.main``, once for each of the seven families, in
  seeded order.  Together these are the 167 checks of ``verify all`` at
  4x4 (which has a fixed order), plus CLI rendering and JSON.  Many grid
  points share shapes, so caching shows here; so does per-call overhead.
* ``polynomial``: ``check_main2(5,5)``, ``check_trapezoid(5,5)``,
  ``check_main1(6,3)``.  The symbolic kernel does the work: Jacobi-Trudi
  determinants, the four substitutions, SparsePoly and Sqrt2Rational
  arithmetic; no Fock calls.
* ``fock-operators``: ``check_f_power(0,7,7)``, ``check_f_power(1,8,8)``.
  Pure Fock algebra (mode operators, vector sums, sqrt(2) scalars in F0)
  and no SparsePoly call: the bypass workload for kernel changes.
* ``boson-image``: ``check_phi_consistency(0,5,5)``.  The only workload
  where the boson image (straightening, normal-word images, closed form)
  does real work.  It has one check, so the seed cannot reorder it.

End-to-end metrics (``--trace 0``): ``wall_s``, from the first check call
to the last verdict, less the reference slices between calls (below);
``check_p90_ms``, the 90th percentile of single-check
latency within a pass; ``setup_s``, the time to import ``schurq.cli``
(measured in extra import-only children as well); ``peak_rss_mb``, the
child's maximum RSS.  Checks whose verdict is not PASS, or whose renderings
differ from the digests pinned in ``expected.json``, count as failed; the
failed share is ``failed / attempted``, and any failure makes the exit code 1.

Times are reported at reference speed.  On a shared host the speed of one
core drifts by up to 1.8x for minutes at a time, more than any averaging
within a run can remove.  So each child also times fixed pure-Python work
that never touches schurq (``child.reference_s``) before the first call,
after the last, and between calls once a second of workload has run since
the last slice.  Every reported time is the median of its raw values times
the speed factor ``REFERENCE_S`` / (median reference time of the run).  The
raw values, the reference times and the factor are in the description line.

Per-layer metrics (``--trace 1``): alternating untraced and traced passes.
The traced pass wraps the public names of every layer (see ``tracer.py``)
and reports ``calls`` and ``self_s`` per boundary, size and sharing
counters, and the tracing overhead (traced minus untraced ``wall_s``).

Predicted effects (which layer should move which metric, on which workload):
``symfunc.poly_det``, ``exactalg.poly_mul`` and ``exactalg.scalar_mul``
move ``wall_s`` on polynomial and boson-image and nothing on fock-operators;
``symfunc.subst`` and ``exactalg.substitute`` move polynomial only;
``fock.beta_apply``, ``fock.vector_add`` and ``exactalg.scalar_*`` move
fock-operators; ``fock.normal_word_image``, ``fock.phi_closed_form`` and
``fock.boson_add`` move boson-image; ``exactalg.render``, ``verify.check``
and ``cli.main`` move ``check_p90_ms`` and ``wall_s`` on grid;
``partitions.*`` and ``fock.to_normal_words`` move nothing at these sizes.

Before the final line run.py prints one JSON line describing the run
(versions, platform, nproc, commit, workload, seed, check order, sample
counts, per-pass values).  The final line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = ".perfbench_work"  # relative to ROOT, so CLI output is the same in every checkout

FAMILIES = ("main1", "main2", "trapezoid", "f-power", "core-states",
            "phi-consistency", "symfunc-props")

WORKLOADS = {
    "grid": [["cli", ["verify", family, "--max-m", "4", "--max-n", "4",
                      "--json", "%s/report-%s.json" % (WORK, family)]]
             for family in FAMILIES],
    "polynomial": [["check_main2", [5, 5]], ["check_trapezoid", [5, 5]],
                   ["check_main1", [6, 3]]],
    "fock-operators": [["check_f_power", [0, 7, 7]], ["check_f_power", [1, 8, 8]]],
    "boson-image": [["check_phi_consistency", [0, 5, 5]]],
}

SETUP_CHILDREN_PER_PASS = 2
# The reference work (child.reference_s) takes about this long on a quiet
# core of the machine the benchmark was tuned on (2.1 GHz Xeon vCPU, Python
# 3.11); reported times are scaled to that speed.
REFERENCE_S = 0.25
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def generate_checks(workload, seed):
    checks = [list(c) for c in WORKLOADS[workload]]
    random.Random(seed).shuffle(checks)
    return checks


def run_child(arg, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, "-E", "-s", CHILD, arg], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("pass exited with %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def score(checks, sample, expected):
    """(attempted, failed) for one pass.  A check fails when its verdict is
    not PASS or a rendering digest differs from the pin; for a CLI call, a
    non-zero exit or a changed report or stdout fails all its checks.  A
    check that is missing or extra counts as attempted and failed."""
    attempted = failed = 0
    results = sample["results"]
    for (kind, args), call in zip(checks, sample["calls"]):
        got = call["results"]
        if kind == "cli":
            family = args[1]
            report_sha, stdout_sha, want = expected["reports"][family]
            call_ok = (call["rc"] == 0 and call["report_sha"] == report_sha
                       and call["stdout_sha"] == stdout_sha)
        else:
            want, call_ok = 1, True
        bad = 0
        for index in got:
            name, passed, lhs_sha, rhs_sha = results[index]
            if not (call_ok and passed and expected["checks"].get(name) == [lhs_sha, rhs_sha]):
                bad += 1
        count = max(len(got), want)
        attempted += count
        failed += min(count, bad + abs(len(got) - want))
    for kind, args in checks[len(sample["calls"]):]:
        want = expected["reports"][args[1]][2] if kind == "cli" else 1
        attempted += want
        failed += want
    return attempted, failed


def raw_wall(sample):
    return sum(call["seconds"] for call in sample["calls"])


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_passes(specs, seconds, start, setup_children):
    """Run passes until the next one would overrun `seconds`, always at
    least one.  A pass runs the child specs back to back, then
    `setup_children` import-only children, so set-up samples spread over
    the whole run.  Returns [(child samples, set-up samples)] per pass."""
    deadline = start + seconds
    hard_deadline = start + RUN_LIMIT_S
    passes, durations = [], []
    while True:
        t0 = time.monotonic()
        samples = [run_child(json.dumps(s), hard_deadline) for s in specs]
        setup = [run_child("--setup-only", hard_deadline)["setup_s"]
                 for _ in range(setup_children)]
        passes.append((samples, setup))
        durations.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(durations) > deadline:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "schurq", "__init__.py")):
        print("error: no schurq sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(EXPECTED) as fh:
        expected = json.load(fh)

    start = time.monotonic()
    checks = generate_checks(args.workload, args.seed)
    spec = {"checks": checks, "trace": False}
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    try:
        if args.trace:
            passes = timed_passes([spec, dict(spec, trace=True)],
                                  args.seconds, start, 0)
        else:
            passes = timed_passes([spec], args.seconds, start,
                                  SETUP_CHILDREN_PER_PASS)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK), ignore_errors=True)

    attempted = failed = 0
    for samples, _ in passes:
        for sample in samples:
            a, f = score(checks, sample, expected)
            attempted += a
            failed += f

    untraced = [samples[0] for samples, _ in passes]
    references = [r for samples, _ in passes for s in samples for r in s["reference_s"]]
    speed = REFERENCE_S / statistics.median(references)
    values = {
        "wall_s": [raw_wall(s) for s in untraced],
        "check_p90_ms": [p90(s["check_ms"]) for s in untraced],
        "setup_s": [s["setup_s"] for s in untraced] + [x for _, setup in passes for x in setup],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
    }
    if args.trace:
        traced = [samples[1] for samples, _ in passes]
        for key in traced[0]["trace"]:
            values[key] = [s["trace"][key] for s in traced]
        values["trace.wall_s"] = [raw_wall(s) for s in traced]
        values["trace.overhead_s"] = [statistics.median(values["trace.wall_s"])
                                      - statistics.median(values["wall_s"])]
        metric_list = declared["per_layer"]
    else:
        metric_list = declared["end_to_end"]

    metrics = {m["name"]: {"value": statistics.median(values[m["name"]])
                           * (speed if m["unit"] in ("s", "ms") else 1),
                           "unit": m["unit"]} for m in metric_list}
    describe = {
        "benchmark": "schurq perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "schurq_version": untraced[0]["version"],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "check_order": checks,
        "samples": len(passes),
        "setup_samples": len(values["setup_s"]),
        "failed_share": failed / attempted,
        "reference_s": references,
        "speed_factor": speed,
        "raw_values": values,
    }
    print(json.dumps(describe))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
