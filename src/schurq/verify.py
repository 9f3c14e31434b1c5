"""Verification engine: the strict-partition identities as exact checks.

Each check builds its two sides independently -- combinatorial sums of
Schur / Q-polynomials on one side, a closed form or a Fock-space computation
on the other -- and compares them term by term.  No numeric tolerance is
involved anywhere; a check passes only on literal equality.

`FAMILY_TABLE` states each verify family once: the point parameters a single
check takes, the points `run_suite` visits for bounds (max_m, max_n), and how
to run one point.  `FAMILIES`, `run_suite` and the CLI's verify dispatch,
including its parameter errors, all derive from it.
"""

import random
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .exactalg import (S, SparsePoly, _sqrt2_pow_parts, _sum_of_products,
                       svar, tvar, zvar)
from .partitions import (bar_core, bar_quotient, delta0, delta1,
                         enumerate_added, residue_split)
from .symfunc import (bialternant_eval, pfaffian, poly_det,
                      power_sum_specialize, qq_pair, schur, schur_q,
                      schur_sum, subst_2t2, subst_q_u, subst_u)
from .fock import (FockVector, core_state_image, f_power_normalized, phi,
                   phi_closed_form)

@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool
    lhs_rendering: str
    rhs_rendering: str
    elapsed_ms: int

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


def _sorted_added(core, i, n):
    return sorted(enumerate_added(core, i, n), key=lambda p: p.parts, reverse=True)


def check_main1(m, n):
    """Signed sum of quotient Schur functions over color-1 additions equals
    the doubled-variable rectangle Schur function."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if n > m:
        raise ValueError("needs n <= m")
    t0 = time.perf_counter()
    lhs = schur_sum((delta1(mu, n), bar_quotient(mu).q1)
                    for mu in _sorted_added(bar_core(m), 1, n))
    rhs = subst_2t2(schur((n,) * (m - n)))
    return _result("main1", {"m": m, "n": n}, lhs, rhs, t0)


def check_main2(m, n):
    """Signed Q*S sum over color-0 additions equals the empty-Q subsum with
    odd t-variables shifted by the s-variables."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    t0 = time.perf_counter()
    # the members by q0: L_nu is the signed sum of S_q1 over those with q0 = nu
    groups = {}
    for mu in _sorted_added(bar_core(-m), 0, n):
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
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if m - n + 1 < 0:
        raise ValueError("needs m - n + 1 >= 0")
    t0 = time.perf_counter()
    trapezoid = tuple(p for p in range(m, m - n, -1) if p > 0)
    q_trap = schur_q(trapezoid)
    sign = -1 if ((m + 1) * (m + 2 * n) // 2) % 2 else 1
    pairs = []
    for mu in _sorted_added(bar_core(-m), 0, n):
        quot = bar_quotient(mu)
        if not quot.q0:
            pairs.append((sign * delta0(mu, m), quot.q1))
    rhs = schur_sum(pairs, S)
    passed = q_trap == rhs
    # equal sides have one reading in u
    lhs = subst_q_u(q_trap)
    return _result("trapezoid", {"m": m, "n": n}, lhs,
                   lhs if passed else subst_q_u(rhs), t0, passed)


def check_f_power(i, m, n):
    """Iterated lowering operator on a core state against its combinatorial
    expansion over added-node families."""
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    t0 = time.perf_counter()
    core = bar_core(m if i == 1 else -m)
    lhs = f_power_normalized(i, n, FockVector.basis(core))
    # members are validated strict partitions: their words need no re-check
    rhs = FockVector._of_parts(
        (sum(1 << p for p in lam.even_padded()),
         (2 ** n, 0, 1) if i == 1
         else _sqrt2_pow_parts(len(residue_split(lam).p0) - m % 2))
        for lam in _sorted_added(core, i, n))
    return _result("f-power", {"i": i, "m": m, "n": n}, lhs, rhs, t0)


def check_core_states(m):
    """Boson image of the two core states indexed by +-m against the stated
    sign and sqrt(2)-power, compared and rendered as labels."""
    if m < 1:
        raise ValueError("needs m >= 1")
    t0 = time.perf_counter()
    lhs_pos, lhs_neg = phi(FockVector.basis(bar_core(m))), phi(FockVector.basis(bar_core(-m)))
    rhs_pos, rhs_neg = core_state_image(m), core_state_image(-m)
    lhs = "core +%d -> %s\ncore -%d -> %s" % (m, lhs_pos, m, lhs_neg)
    rhs = "core +%d -> %s\ncore -%d -> %s" % (m, rhs_pos, m, rhs_neg)
    passed = lhs_pos == rhs_pos and lhs_neg == rhs_neg
    return _result("core-states", {"m": m}, lhs, rhs, t0, passed)


def check_phi_consistency(i, m, n):
    """Fermionic straightening against the closed-form boson image, state by
    state over a whole added-node family."""
    if i not in (0, 1):
        raise ValueError("color must be 0 or 1")
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    t0 = time.perf_counter()
    core = bar_core(m if i == 1 else -m)
    lhs_lines, rhs_lines = [], []
    passed = True
    for lam in _sorted_added(core, i, n):
        # the verdict compares labels, which render with no polynomial
        # built; only a failing state renders its right side on its own
        left = phi(FockVector.basis(lam))
        right = phi_closed_form(lam, i, m, n)
        line = "%s -> %s" % (lam, left)
        lhs_lines.append(line)
        if left != right:
            passed = False
            line = "%s -> %s" % (lam, right)
        rhs_lines.append(line)
    return _result("phi-consistency", {"i": i, "m": m, "n": n},
                   "\n".join(lhs_lines), "\n".join(rhs_lines), t0, passed)


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


def _violations(name, params, bad, cases, t0, unit="cases"):
    """The CheckResult of a property check: bad violations in its cases."""
    return _result(name, params, "%d violations in %d %s" % (bad, cases, unit),
                   "0 violations in %d %s" % (cases, unit), t0, bad == 0)


def check_symfunc_homogeneity():
    """Every S and Q polynomial is homogeneous of its index weight."""
    t0 = time.perf_counter()
    bad = 0
    cases = 0
    for w in range(_HOMOGENEITY_MAX_WEIGHT + 1):
        for p in chain(map(schur, _partitions_of(w)),
                       map(schur_q, _strict_partitions_of(w))):
            cases += 1
            if p.is_zero() or not p.is_homogeneous() or p.weighted_degree() != w:
                bad += 1
    return _violations("symfunc-props:homogeneity",
                       {"max_weight": _HOMOGENEITY_MAX_WEIGHT}, bad, cases, t0)


def check_symfunc_antisymmetry():
    """The pair function changes sign under index swap and vanishes on the
    diagonal."""
    t0 = time.perf_counter()
    bad = 0
    cases = 0
    for m in range(_ANTISYMMETRY_MAX_INDEX + 1):
        for n in range(m + 1):
            cases += 1
            if not (qq_pair(m, n) + qq_pair(n, m)).is_zero():
                bad += 1
    return _violations("symfunc-props:antisymmetry",
                       {"max_index": _ANTISYMMETRY_MAX_INDEX}, bad, cases, t0)


def check_symfunc_pfaffian_det():
    """Squared Pfaffian equals the determinant for random skew matrices."""
    t0 = time.perf_counter()
    rng = random.Random(_SEED)
    gens = [SparsePoly.constant(1), SparsePoly.variable(tvar(1)),
            SparsePoly.variable(tvar(2)), SparsePoly.variable(svar(1)),
            SparsePoly.variable(svar(3))]
    bad = 0
    for trial in range(_PFAFFIAN_TRIALS):
        d = rng.choice((2, 4, 6))
        rows = [[SparsePoly.zero()] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                entry = SparsePoly.constant(rng.randint(-3, 3)) * rng.choice(gens)
                rows[i][j] = entry
                rows[j][i] = -entry
        if not (pfaffian(rows) ** 2 - poly_det(rows)).is_zero():
            bad += 1
    return _violations("symfunc-props:pfaffian-det",
                       {"trials": _PFAFFIAN_TRIALS, "seed": _SEED},
                       bad, _PFAFFIAN_TRIALS, t0, "trials")


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
    bad = 0
    cases = 0
    for w in range(_BIALTERNANT_MAX_WEIGHT + 1):
        for lam in _partitions_of(w):
            if len(lam) > _BIALTERNANT_LENGTH:
                continue
            specialized = power_sum_specialize(schur(lam), _BIALTERNANT_LENGTH)
            for zs, point in zip(zpoints, points):
                cases += 1
                if specialized.evaluate(point) != bialternant_eval(lam, zs):
                    bad += 1
    return _violations("symfunc-props:bialternant",
                       {"max_weight": _BIALTERNANT_MAX_WEIGHT,
                        "max_length": _BIALTERNANT_LENGTH,
                        "points": _BIALTERNANT_POINTS, "seed": _SEED},
                       bad, cases, t0)


def check_symfunc_props():
    return [check_symfunc_homogeneity(), check_symfunc_antisymmetry(),
            check_symfunc_pfaffian_det(), check_symfunc_bialternant()]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _mn(max_m, max_n):
    return [(m, n) for m in range(max_m + 1) for n in range(max_n + 1)]


def _imn(max_m, max_n):
    return [(i,) + point for i in (0, 1) for point in _mn(max_m, max_n)]


# a family's point parameters (a subset of "imn", in that order), its grid:
# (max_m, max_n) -> its points in suite order, and its run: point -> results
Family = namedtuple("Family", "params grid run")

# Each run names its check_* when it is called, so the lookup goes through
# this module's globals: a check replaced there (a timer, a test's perturbed
# check) sees every call that a suite or a single point makes.
FAMILY_TABLE = {
    "main1": Family("mn", lambda *bounds: [(m, n) for m, n in _mn(*bounds) if n <= m],
                    lambda m, n: [check_main1(m, n)]),
    "main2": Family("mn", _mn, lambda m, n: [check_main2(m, n)]),
    "trapezoid": Family("mn", lambda *bounds: [(m, n) for m, n in _mn(*bounds)
                                               if m - n + 1 >= 0],
                        lambda m, n: [check_trapezoid(m, n)]),
    "f-power": Family("imn", _imn, lambda i, m, n: [check_f_power(i, m, n)]),
    "core-states": Family("m", lambda max_m, _: [(m,) for m in range(1, max_m + 1)],
                          lambda m: [check_core_states(m)]),
    "phi-consistency": Family("imn", _imn,
                              lambda i, m, n: [check_phi_consistency(i, m, n)]),
    "symfunc-props": Family("", lambda *bounds: [()], lambda: check_symfunc_props()),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass
class SuiteConfig:
    max_m: int = 4
    max_n: int = 4
    families: tuple = FAMILIES

    def __post_init__(self):
        if self.max_m < 0 or self.max_n < 0:
            raise ValueError("grid bounds must be non-negative")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError("unknown families: %s" % ", ".join(sorted(unknown)))


def run_suite(cfg):
    """Run the selected families over the configured grid, in a fixed order."""
    results = []
    for name in cfg.families:
        family = FAMILY_TABLE[name]
        for point in family.grid(cfg.max_m, cfg.max_n):
            results.extend(family.run(*point))
    return results
