"""One cold pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec as JSON>'
       python3 perfbench/child.py --setup-only

The spec holds the ordered check list run.py generated from its seed;
this process only executes it.  It imports schurq from the checkout's
``src`` directory (timing the import as set-up), runs the calls, and prints
one JSON object: set-up time, the time of each call, per-check latencies,
peak RSS, the reference times taken before, between and after the calls, a
sha256 digest of every rendering, and, when tracing, the per-boundary trace.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

_start = time.perf_counter()
import schurq.cli  # noqa: E402  (the import is the timed set-up)
SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from tracer import Tracer, replace_everywhere  # noqa: E402

# a reference slice runs after any call that brings the workload time since
# the last slice to this many seconds, and after the last call
REFERENCE_EVERY_S = 1.0
_MS_SUFFIX = re.compile(r" \(\d+ ms\)$", re.M)
_VARIABLE = re.compile(r"([tsz])(\d+)(?:\^(\d+))?")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_id(result):
    params = " ".join("%s=%s" % (k, v) for k, v in result.params.items())
    return ("%s %s" % (result.name, params)).strip()


def rendering_size(text):
    """(terms, max weighted degree) of a rendered side of a check: one term
    per signed monomial of each polynomial line, one per Fock ket."""
    terms = 0
    weight = 0
    for line in text.split("\n"):
        body = line.split(" -> ", 1)[-1].split(": ", 1)[-1].strip()
        if body in ("", "0"):
            continue
        chunks = re.split(r" [+-] ", body)
        terms += len(chunks)
        for chunk in chunks:
            degree = sum((1 if fam == "z" else int(idx)) * int(exp or 1)
                         for fam, idx, exp in _VARIABLE.findall(chunk))
            weight = max(weight, degree)
    return terms, weight


def reference_s(n=90000):
    """Seconds taken by fixed work that never touches schurq: exact rational
    sums held in a dict keyed by tuples, the same kind of work as schurq's
    kernel.  It measures how fast the machine runs Python right now.  The
    collector is off, so the size of the workload's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        terms = {}
        for i in range(1, n):
            key = (i % 17, i % 5, i % 3)
            terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 7 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def install_check_timer(latencies, results):
    """Time every call into verify's check_* functions that returns one
    CheckResult, and keep the results in call order."""
    clock = time.perf_counter

    def make(fn):
        def timed(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            if isinstance(out, schurq.verify.CheckResult):
                latencies.append(elapsed * 1000.0)
                results.append(out)
            return out
        return timed

    for name in list(vars(schurq.verify)):
        if name.startswith("check_"):
            replace_everywhere("schurq.verify", name, make)


def main():
    spec = json.loads(sys.argv[1])
    if not schurq.__file__.startswith(os.path.join(_ROOT, "src", "")):
        raise SystemExit("schurq was imported from %s, not from the checkout"
                         % schurq.__file__)
    latencies, results = [], []
    install_check_timer(latencies, results)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    calls = []
    references = [reference_s()]
    since_reference = 0.0
    for index, (kind, args) in enumerate(spec["checks"]):
        call = {"first": len(results)}
        start = time.perf_counter()
        if kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                call["rc"] = schurq.cli.main(list(args))
            call["stdout"], call["report"] = out.getvalue(), args[-1]
        else:
            getattr(schurq.verify, kind)(*args)
        call["seconds"] = time.perf_counter() - start
        calls.append(call)
        since_reference += call["seconds"]
        if since_reference >= REFERENCE_EVERY_S or index == len(spec["checks"]) - 1:
            references.append(reference_s())
            since_reference = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for index, call in enumerate(calls):
        last = calls[index + 1]["first"] if index + 1 < len(calls) else len(results)
        call["results"] = list(range(call["first"], last))
        if "report" in call:
            with open(call.pop("report")) as fh:
                payload = json.load(fh)
            for entry in payload:
                entry.pop("elapsed_ms")
            call["report_sha"] = sha(json.dumps(payload, sort_keys=True))
            call["stdout_sha"] = sha(_MS_SUFFIX.sub("", call.pop("stdout")))
    sample = {
        "setup_s": SETUP_S,
        "check_ms": latencies,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": references,
        "version": schurq.__version__,
        "results": [[check_id(r), r.passed, sha(r.lhs_rendering), sha(r.rhs_rendering)]
                    for r in results],
        "calls": calls,
    }
    if tracer is not None:
        trace = tracer.summary()
        lhs = [rendering_size(r.lhs_rendering) for r in results]
        rhs = [rendering_size(r.rhs_rendering) for r in results]
        trace["verify.lhs_terms"] = sum(t for t, _ in lhs)
        trace["verify.rhs_terms"] = sum(t for t, _ in rhs)
        trace["verify.max_weight"] = max(w for _, w in lhs + rhs) if results else 0
        sample["trace"] = trace
    print(json.dumps(sample))


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "--setup-only":
        print(json.dumps({"setup_s": SETUP_S}))
    else:
        main()
