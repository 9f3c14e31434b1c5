"""Write expected.json: the sha256 digests of every check's renderings and,
for the grid workload, of each family's JSON report (elapsed_ms removed)
and stdout (the "(N ms)" suffixes removed).

Usage: python3 perfbench/pin.py

Run it only on a commit whose outputs are known good; it refuses to pin a
check whose verdict is not PASS or a CLI call that exits non-zero.
"""

import json
import os
import shutil
import sys
import time

from run import EXPECTED, ROOT, WORK, WORKLOADS, run_child


def main():
    checks, reports = {}, {}
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    try:
        samples = {workload: run_child(json.dumps({"checks": spec, "trace": False}),
                                       time.monotonic() + 600)
                   for workload, spec in WORKLOADS.items()}
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK), ignore_errors=True)
    for workload, spec in WORKLOADS.items():
        sample = samples[workload]
        for name, passed, lhs_sha, rhs_sha in sample["results"]:
            if not passed:
                sys.exit("refusing to pin: %s does not pass" % name)
            checks[name] = [lhs_sha, rhs_sha]
        for (kind, args), call in zip(spec, sample["calls"]):
            if kind == "cli":
                if call["rc"] != 0:
                    sys.exit("refusing to pin: %s exited %d" % (" ".join(args), call["rc"]))
                reports[args[1]] = [call["report_sha"], call["stdout_sha"],
                                    len(call["results"])]
    with open(EXPECTED, "w") as fh:
        json.dump({"checks": checks, "reports": reports}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("pinned %d checks and %d reports" % (len(checks), len(reports)))


if __name__ == "__main__":
    main()
