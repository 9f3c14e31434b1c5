"""Command-line interface.

Partitions are written as comma-separated parts (``11,9,8,4,3,2,1``) with
``-`` for the empty partition.  Fock states are either a partition in that
form or ``c:M`` for the core state indexed by the integer M.  Exit codes:
0 on success, 1 when a verification check fails, 2 on usage errors, 141
(128 + SIGPIPE) when the reader of stdout closes it early.

``main`` builds its argument parser on its first call and reuses it for
every later call in the process; ``build_parser`` returns a fresh one.
"""

import argparse
import json
import os
import sys
from functools import cache

from .partitions import (StrictPartition, bar_core, bar_quotient, format_parts,
                         parse_parts)
from .symfunc import (power_sum_specialize, schur, schur_q, subst_2t2,
                      subst_odd, subst_q_u, subst_u)
from .fock import FockVector, f_power_normalized, phi
from .verify import FAMILIES, FAMILY_TABLE, SuiteConfig, _members, run_suite

_SUBST = {"2t2": subst_2t2, "u": subst_u, "odd": subst_odd}


def _parse_state(text):
    if text.startswith("c:"):
        try:
            m = int(text[2:])
        except ValueError:
            raise ValueError("cannot parse core state %r" % text) from None
        return FockVector.basis(bar_core(m))
    return FockVector.basis(StrictPartition.from_string(text))


def _fock_json(vec):
    return [{"coeff": text, "word": list(word)} for word, text in vec.word_texts()]


def _boson_json(image):
    return [{"sigma": sigma, "charge": charge, "poly": text}
            for (sigma, charge), text in image.sector_texts()]


def _report_error(path, exc):
    return ValueError("cannot write report %s: %s" % (path, exc.strerror or exc))


def _probe_report(path):
    """Check before any check runs that the report path can be written,
    changing nothing there: the file it names (through any symlink) is
    opened for appending, which truncates nothing, and removed if the probe
    created it, so a usage error raised by a check leaves the path as it
    was."""
    target = os.path.realpath(path)
    existed = os.path.exists(target)
    try:
        with open(target, "a"):
            pass
    except OSError as exc:
        raise _report_error(path, exc) from None
    if not existed:
        os.remove(target)


def _cmd_verify(args):
    # "all" takes no point parameters; a family takes all of its own or none
    taken = FAMILY_TABLE[args.family].params if args.family in FAMILY_TABLE else ""
    foreign = [k for k in "imn" if k not in taken]
    if any(getattr(args, k) is not None for k in foreign):
        raise ValueError("%s takes no %s" % (
            args.family, "/".join("--" + k for k in foreign)))
    point = [getattr(args, k) for k in taken]
    if taken and None not in point:
        run = lambda: FAMILY_TABLE[args.family].run(*point)
    elif any(x is not None for x in point):
        flags = ["--" + k for k in taken]
        raise ValueError("%s needs %s%s and %s" % (
            args.family, "both " if len(flags) == 2 else "",
            ", ".join(flags[:-1]), flags[-1]))
    else:
        families = FAMILIES if args.family == "all" else (args.family,)
        config = SuiteConfig(max_m=args.max_m, max_n=args.max_n, families=families)
        run = lambda: run_suite(config)
    if args.json not in (None, "-"):
        _probe_report(args.json)
    results = run()
    payload = [r.as_dict() for r in results]
    if args.json == "-":
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            params = " ".join("%s=%s" % (k, v) for k, v in r.params.items())
            print("%s %s %s (%d ms)" % ("PASS" if r.passed else "FAIL",
                                        r.name, params, r.elapsed_ms))
            if not r.passed:
                print("  lhs: %s" % r.lhs_rendering.replace("\n", "\n       "))
                print("  rhs: %s" % r.rhs_rendering.replace("\n", "\n       "))
        n_pass = sum(1 for r in results if r.passed)
        print("%d checks, %d passed, %d failed" % (len(results), n_pass,
                                                   len(results) - n_pass))
        if args.json:
            try:
                with open(args.json, "w") as report:
                    json.dump(payload, report, indent=2)
            except OSError as exc:
                raise _report_error(args.json, exc) from None
            print("report written to %s" % args.json)
    return 0 if all(r.passed for r in results) else 1


def _show(args, text, payload):
    """Print payload() as JSON under --json, else text() unless it is
    empty; only the form printed is built."""
    if args.json:
        print(json.dumps(payload()))
    else:
        out = text()
        if out:
            print(out)
    return 0


def _cmd_enumerate(args):
    # --core is the signed index of the core, which is m for color 1, -m for 0
    members = _members(args.color, args.core if args.color else -args.core,
                       args.nodes)
    return _show(args, lambda: "\n".join(map(str, members)),
                 lambda: [list(p) for p in members])


def _cmd_quotient(args):
    quot = bar_quotient(StrictPartition.from_string(args.partition), k=args.k)
    return _show(args, lambda: "q0: %s\nq1: %s" % (format_parts(quot.q0),
                                                   format_parts(quot.q1)),
                 lambda: {"q0": list(quot.q0), "q1": list(quot.q1)})


def _cmd_schur(args):
    p = schur(parse_parts(args.partition))
    if args.subst:
        p = _SUBST[args.subst](p)
    if args.spec_z is not None:
        p = power_sum_specialize(p, args.spec_z)
    return _show(args, lambda: str(p), lambda: {"text": str(p)})


def _cmd_qfun(args):
    p = schur_q(parse_parts(args.partition))
    if args.subst:
        p = subst_q_u(p)
    return _show(args, lambda: str(p), lambda: {"text": str(p)})


def _cmd_fock_apply_f(args):
    vec = f_power_normalized(args.i, args.n, _parse_state(args.state))
    return _show(args, lambda: str(vec), lambda: _fock_json(vec))


def _cmd_fock_phi(args):
    image = phi(_parse_state(args.state))
    return _show(args, lambda: str(image), lambda: _boson_json(image))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurq",
        description="Exact checks and calculators for strict-partition "
                    "combinatorics, Schur-type polynomials and the neutral "
                    "fermion Fock space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("family", choices=FAMILIES + ("all",))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--i", type=int, default=None, choices=(0, 1))
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the JSON report to PATH ('-' for stdout)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate", help="list added-node partition families")
    p.add_argument("--core", type=int, required=True,
                   help="integer index of the core partition")
    p.add_argument("--color", type=int, required=True, choices=(0, 1))
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("quotient", help="three-bar quotient of a strict partition")
    p.add_argument("partition")
    p.add_argument("--k", type=int, default=None,
                   help="padding parameter (defaults to the minimal value)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("schur", help="Schur polynomial in the t-variables")
    p.add_argument("partition")
    p.add_argument("--subst", choices=sorted(_SUBST), default=None,
                   help="2t2: t_j -> 2*t_(2j); u: odd t_j -> t_j - s_j; "
                        "odd: even t_j -> 0 then u")
    p.add_argument("--spec-z", type=int, default=None, metavar="N",
                   help="specialize to N z-variables via power sums")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("qfun", help="Schur Q-polynomial in the s-variables")
    p.add_argument("partition")
    p.add_argument("--subst", choices=("u",), default=None,
                   help="u: s_j -> t_j - s_j")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_qfun)

    p = sub.add_parser("fock", help="Fock space computations")
    fsub = p.add_subparsers(dest="fock_command", required=True)

    q = fsub.add_parser("apply-f", help="apply a divided power of a lowering operator")
    q.add_argument("--i", type=int, required=True, choices=(0, 1))
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--state", required=True,
                   help="partition ('11,8,5,2' or '-') or core state 'c:M'")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_fock_apply_f)

    q = fsub.add_parser("phi", help="boson image of a state")
    q.add_argument("--state", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_fock_phi)

    return parser


_shared_parser = cache(build_parser)  # built on the first call to main


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the final
        # flush at exit has nowhere to fail, and exit as if killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
