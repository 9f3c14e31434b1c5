"""Verification engine: the strict-partition identities as exact checks.

Each check builds its two sides independently -- combinatorial sums of
Schur / Q-polynomials on one side, a closed form or a Fock-space computation
on the other -- and compares them term by term.  No numeric tolerance is
involved anywhere; a check passes only on literal equality.

`FAMILY_TABLE` states each verify family once: the point parameters a single
check takes, its rule (which points it admits, and the problem with any
other), and how to run one point.  A check reads its point through `_point`,
which raises the rule's text; `run_suite` visits the points of
{0,1} x 0..max_m x 0..max_n, projected on the family's parameters, that the
rule admits.  `FAMILIES`, `run_suite` and the CLI's verify dispatch,
including its parameter errors, all derive from the table.
"""

import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import chain, product

from .exactalg import (S, SparsePoly, _sqrt2_pow_parts, _sum_of_products,
                       svar, tvar, zvar)
from .partitions import (_as_int, _check, _mn_problem, bar_core, bar_quotient,
                         color_core as _core, delta0, delta1, enumerate_added)
from .symfunc import (bialternant_eval, pfaffian, poly_det,
                      power_sum_specialize, qq_pair, schur, schur_q,
                      schur_sum, subst_2t2, subst_q_u, subst_u)
from .fock import (FockVector, _closed_form_problem, _operator_problem,
                   core_state_image, f_power_normalized, phi, phi_closed_form)


class _Record:
    """A mutable record over its __slots__: equal to a record of the same
    class with equal fields, unhashable, and shown with its fields in
    order."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._values())))

    def __reduce__(self):
        # the default reduce refuses slots under pickle protocols 0 and 1
        return type(self), self._values()


class CheckResult(_Record):
    __slots__ = ("name", "params", "passed", "lhs_rendering", "rhs_rendering",
                 "elapsed_ms")

    def __init__(self, name, params, passed, lhs_rendering, rhs_rendering,
                 elapsed_ms):
        self.name = name
        self.params = params
        self.passed = passed
        self.lhs_rendering = lhs_rendering
        self.rhs_rendering = rhs_rendering
        self.elapsed_ms = elapsed_ms

    def as_dict(self):
        """The fields in declaration order, with params copied."""
        return {"name": self.name, "params": dict(self.params),
                "passed": self.passed, "lhs_rendering": self.lhs_rendering,
                "rhs_rendering": self.rhs_rendering,
                "elapsed_ms": self.elapsed_ms}


def _result(name, params, lhs, rhs, t0, passed=None):
    """The CheckResult of two sides.  A passing check renders its left side
    only and reuses the text for the right: equal canonical values render
    identically, and `passed` given by a caller must mean the same."""
    if passed is None:
        passed = lhs == rhs
    lhs_text = str(lhs)
    return CheckResult(name, params, passed, lhs_text,
                       lhs_text if passed else str(rhs),
                       int(round((time.perf_counter() - t0) * 1000)))


def _point(name, *point):
    """The point of family `name` as ints, read through _as_int in its
    parameters' (i, m, n) order; a point that its rule does not admit is a
    ValueError with the rule's text."""
    family = FAMILY_TABLE[name]
    point = tuple(map(_as_int, point, family.params))
    _check(family.rule(*point))
    return point


def _members(i, m, n):
    """The n-fold color-i addition family over _core(i, m), highest member
    first: the order of the checks' renderings and of `schurq enumerate`."""
    return sorted(enumerate_added(_core(i, m), i, n), reverse=True)


def check_main1(m, n):
    """Signed sum of quotient Schur functions over color-1 additions equals
    the doubled-variable rectangle Schur function."""
    m, n = _point("main1", m, n)
    t0 = time.perf_counter()
    lhs = schur_sum((delta1(mu, n), bar_quotient(mu).q1)
                    for mu in _members(1, m, n))
    rhs = subst_2t2(schur((n,) * (m - n)))
    return _result("main1", {"m": m, "n": n}, lhs, rhs, t0)


def check_main2(m, n):
    """Signed Q*S sum over color-0 additions equals the empty-Q subsum with
    odd t-variables shifted by the s-variables."""
    m, n = _point("main2", m, n)
    t0 = time.perf_counter()
    # the members by q0: L_nu is the signed sum of S_q1 over those with q0 = nu
    groups = {}
    for mu in _members(0, m, n):
        quot = bar_quotient(mu)
        groups.setdefault(quot.q0, []).append((delta0(mu, m), quot.q1))
    sums = {nu: schur_sum(pairs) for nu, pairs in groups.items()}
    lhs = _sum_of_products((1, schur_q(nu), total) for nu, total in sums.items())
    # subst_u is linear: substitute the signed sum once
    return _result("main2", {"m": m, "n": n}, lhs,
                   subst_u(sums.get((), SparsePoly.zero())), t0)


def check_trapezoid(m, n):
    """The trapezoidal Q-function equals the signed Schur sum over empty-Q
    color-0 additions, both read in u = t - s.

    subst_odd sends h_j(t) to subst_q_u(q_j(s)); both are ring maps, so it
    sends S_kappa(t) to subst_q_u(S_kappa[q](s)), and subst_q_u is injective
    on s-polynomials.  So the verdict is the literal identity of
    s-polynomials Q_trap(s) = sum c S_kappa[q](s), the right side expanded
    by schur_sum in the family S; subst_q_u runs only to render the sides in
    u, the right one only on a FAIL."""
    m, n = _point("trapezoid", m, n)
    t0 = time.perf_counter()
    trapezoid = tuple(p for p in range(m, m - n, -1) if p > 0)
    q_trap = schur_q(trapezoid)
    sign = -1 if ((m + 1) * (m + 2 * n) // 2) % 2 else 1
    pairs = []
    for mu in _members(0, m, n):
        quot = bar_quotient(mu)
        if not quot.q0:
            pairs.append((sign * delta0(mu, m), quot.q1))
    rhs = schur_sum(pairs, S)
    passed = q_trap == rhs
    # equal sides have one reading in u
    lhs = subst_q_u(q_trap)
    return _result("trapezoid", {"m": m, "n": n}, lhs,
                   lhs if passed else subst_q_u(rhs), t0, passed)


def _f_power_terms(core, i, m, n):
    """The expected side of check_f_power as FockVector._of_parts pairs:
    each member of the n-fold color-i addition family over the core, as its
    padded word, with coefficient 2^n for F1 and sqrt2^(a - m mod 2) for
    F0, where a counts the padded parts = 0 (mod 3), the pad included.  One
    pass over each member's padded parts gives its bitset and a."""
    coeffs = {}  # a - m mod 2 -> the int parts of its coefficient
    for lam in enumerate_added(core, i, n):
        bits, k = 0, -(m % 2)
        for p in lam.even_padded():
            bits |= 1 << p
            if not p % 3:
                k += 1
        if k not in coeffs:
            coeffs[k] = _sqrt2_pow_parts(k) if i == 0 else (2 ** n, 0, 1)
        yield bits, coeffs[k]


def check_f_power(i, m, n):
    """Iterated lowering operator on a core state against its combinatorial
    expansion over added-node families."""
    i, m, n = _point("f-power", i, m, n)
    t0 = time.perf_counter()
    core = _core(i, m)
    lhs = f_power_normalized(i, n, FockVector.basis(core))
    rhs = FockVector._of_parts(_f_power_terms(core, i, m, n))
    return _result("f-power", {"i": i, "m": m, "n": n}, lhs, rhs, t0)


def _states_result(name, params, states, t0):
    """The CheckResult of a state-by-state comparison of boson images over
    (label, left, right) triples: one line "label -> image" per state on
    each side.  The verdict compares labels, which render with no
    polynomial built; a state's right image renders only where it differs
    from its left."""
    lhs_lines, rhs_lines = [], []
    passed = True
    for label, left, right in states:
        line = "%s -> %s" % (label, left)
        lhs_lines.append(line)
        if left != right:
            passed = False
            line = "%s -> %s" % (label, right)
        rhs_lines.append(line)
    return _result(name, params, "\n".join(lhs_lines), "\n".join(rhs_lines),
                   t0, passed)


def check_core_states(m):
    """Boson image of the two core states indexed by +-m against the stated
    sign and sqrt(2)-power."""
    (m,) = _point("core-states", m)
    t0 = time.perf_counter()
    return _states_result("core-states", {"m": m}, (
        ("core %+d" % k, phi(FockVector.basis(bar_core(k))), core_state_image(k))
        for k in (m, -m)), t0)


def check_phi_consistency(i, m, n):
    """Fermionic straightening against the closed-form boson image, state by
    state over a whole added-node family."""
    i, m, n = _point("phi-consistency", i, m, n)
    t0 = time.perf_counter()
    return _states_result("phi-consistency", {"i": i, "m": m, "n": n}, (
        (lam, phi(FockVector.basis(lam)), phi_closed_form(lam, i, m, n))
        for lam in _members(i, m, n)), t0)


# ---------------------------------------------------------------------------
# symmetric-function property checks
# ---------------------------------------------------------------------------

def _partitions_of(n, max_part=None):
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def _strict_partitions_of(n):
    """The partitions of n with distinct parts, in _partitions_of's order."""
    return (lam for lam in _partitions_of(n) if len(set(lam)) == len(lam))


# the fixed bounds of the property checks, each reported in its params
_SEED = 20260815
_HOMOGENEITY_MAX_WEIGHT = 10
_ANTISYMMETRY_MAX_INDEX = 8
_PFAFFIAN_TRIALS = 6
_BIALTERNANT_MAX_WEIGHT = 6
_BIALTERNANT_LENGTH = 3
_BIALTERNANT_POINTS = 5


def _violations(name, params, violated, t0, unit="cases"):
    """The CheckResult of a property check, given one boolean per case, true
    where the case violates the property."""
    violated = list(violated)
    bad, cases = sum(violated), len(violated)
    return _result(name, params, "%d violations in %d %s" % (bad, cases, unit),
                   "0 violations in %d %s" % (cases, unit), t0, bad == 0)


def check_symfunc_homogeneity():
    """Every S and Q polynomial is homogeneous of its index weight."""
    t0 = time.perf_counter()
    violated = (p.is_zero() or not p.is_homogeneous() or p.weighted_degree() != w
                for w in range(_HOMOGENEITY_MAX_WEIGHT + 1)
                for p in chain(map(schur, _partitions_of(w)),
                               map(schur_q, _strict_partitions_of(w))))
    return _violations("symfunc-props:homogeneity",
                       {"max_weight": _HOMOGENEITY_MAX_WEIGHT}, violated, t0)


def check_symfunc_antisymmetry():
    """The pair function changes sign under index swap and vanishes on the
    diagonal."""
    t0 = time.perf_counter()
    violated = (not (qq_pair(m, n) + qq_pair(n, m)).is_zero()
                for m in range(_ANTISYMMETRY_MAX_INDEX + 1) for n in range(m + 1))
    return _violations("symfunc-props:antisymmetry",
                       {"max_index": _ANTISYMMETRY_MAX_INDEX}, violated, t0)


def check_symfunc_pfaffian_det():
    """Squared Pfaffian equals the determinant for random skew matrices."""
    t0 = time.perf_counter()
    rng = random.Random(_SEED)
    gens = [SparsePoly.constant(1), SparsePoly.variable(tvar(1)),
            SparsePoly.variable(tvar(2)), SparsePoly.variable(svar(1)),
            SparsePoly.variable(svar(3))]
    violated = []
    for trial in range(_PFAFFIAN_TRIALS):
        d = rng.choice((2, 4, 6))
        rows = [[SparsePoly.zero()] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                entry = SparsePoly.constant(rng.randint(-3, 3)) * rng.choice(gens)
                rows[i][j] = entry
                rows[j][i] = -entry
        violated.append(not (pfaffian(rows) ** 2 - poly_det(rows)).is_zero())
    return _violations("symfunc-props:pfaffian-det",
                       {"trials": _PFAFFIAN_TRIALS, "seed": _SEED}, violated, t0,
                       "trials")


def check_symfunc_bialternant():
    """Determinantal Schur polynomials specialize to the ratio of alternants
    at random rational points."""
    t0 = time.perf_counter()
    rng = random.Random(_SEED)
    zpoints = []
    while len(zpoints) < _BIALTERNANT_POINTS:
        zs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(_BIALTERNANT_LENGTH)]
        if 0 not in zs and len(set(zs)) == _BIALTERNANT_LENGTH:
            zpoints.append(zs)
    points = [{zvar(k + 1): z for k, z in enumerate(zs)} for zs in zpoints]
    violated = []
    for w in range(_BIALTERNANT_MAX_WEIGHT + 1):
        for lam in _partitions_of(w):
            if len(lam) > _BIALTERNANT_LENGTH:
                continue
            specialized = power_sum_specialize(schur(lam), _BIALTERNANT_LENGTH)
            violated.extend(specialized.evaluate(point) != bialternant_eval(lam, zs)
                            for zs, point in zip(zpoints, points))
    return _violations("symfunc-props:bialternant",
                       {"max_weight": _BIALTERNANT_MAX_WEIGHT,
                        "max_length": _BIALTERNANT_LENGTH,
                        "points": _BIALTERNANT_POINTS, "seed": _SEED},
                       violated, t0)


def check_symfunc_props():
    return [check_symfunc_homogeneity(), check_symfunc_antisymmetry(),
            check_symfunc_pfaffian_det(), check_symfunc_bialternant()]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

# a family's point parameters (a subset of "imn", in that order), its rule:
# point -> the problem with it, or None where the family admits it, and its
# run: point -> results.  The rules that a family shares with the functions
# it calls have one home there: the signs of m and n (partitions), the
# index of F_i and the closed form's point (fock)
Family = namedtuple("Family", "params rule run")

# Each run names its check_* when it is called, so the lookup goes through
# this module's globals: a check replaced there (a timer, a test's perturbed
# check) sees every call that a suite or a single point makes.
FAMILY_TABLE = {
    "main1": Family("mn", lambda m, n: _mn_problem(m, n) or
                    ("needs n <= m" if n > m else None),
                    lambda m, n: [check_main1(m, n)]),
    "main2": Family("mn", _mn_problem, lambda m, n: [check_main2(m, n)]),
    "trapezoid": Family("mn", lambda m, n: _mn_problem(m, n) or
                        ("needs m - n + 1 >= 0" if m - n + 1 < 0 else None),
                        lambda m, n: [check_trapezoid(m, n)]),
    "f-power": Family("imn", lambda i, m, n: _operator_problem(i) or
                      _mn_problem(m, n),
                      lambda i, m, n: [check_f_power(i, m, n)]),
    "core-states": Family("m", lambda m: "needs m >= 1" if m < 1 else None,
                          lambda m: [check_core_states(m)]),
    "phi-consistency": Family("imn", _closed_form_problem,
                              lambda i, m, n: [check_phi_consistency(i, m, n)]),
    "symfunc-props": Family("", lambda: None, lambda: check_symfunc_props()),
}
FAMILIES = tuple(FAMILY_TABLE)


class SuiteConfig(_Record):
    __slots__ = ("max_m", "max_n", "families")

    def __init__(self, max_m=4, max_n=4, families=FAMILIES):
        max_m, max_n = _as_int(max_m, "max_m"), _as_int(max_n, "max_n")
        if max_m < 0 or max_n < 0:
            raise ValueError("grid bounds must be non-negative")
        if isinstance(families, str):
            raise TypeError("families must be a sequence of family names, not the "
                            "string %r" % families)
        unknown = set(families) - set(FAMILIES)
        if unknown:
            raise ValueError("unknown families: %s" % ", ".join(sorted(unknown)))
        self.max_m = max_m
        self.max_n = max_n
        self.families = families


def run_suite(cfg):
    """Run the selected families over the configured grid, in a fixed order."""
    ranges = {"i": range(2), "m": range(cfg.max_m + 1), "n": range(cfg.max_n + 1)}
    results = []
    for name in cfg.families:
        family = FAMILY_TABLE[name]
        for point in product(*(ranges[k] for k in family.params)):
            if family.rule(*point) is None:
                results.extend(family.run(*point))
    return results
