"""Tests for the verification engine: individual checks, the suite runner,
and report structure."""

import hashlib

import pytest

from schurq.exactalg import (SparsePoly, Sqrt2Rational, T, _linear_sum,
                             _sqrt2_pow_parts, svar, zvar)
from schurq.fock import FockVector, phi, phi_closed_form
from schurq.partitions import (StrictPartition, bar_core, bar_quotient, delta0,
                               delta1, enumerate_added, residue_split)
from schurq.symfunc import schur, schur_q, schur_sum, subst_odd, subst_q_u, subst_u
from schurq.verify import (FAMILY_TABLE, CheckResult, SuiteConfig, _core,
                           _f_power_terms, _members, check_core_states, check_f_power,
                           check_main1, check_main2, check_phi_consistency,
                           check_symfunc_antisymmetry,
                           check_symfunc_bialternant,
                           check_symfunc_homogeneity,
                           check_symfunc_pfaffian_det, check_symfunc_props,
                           check_trapezoid, run_suite)

P = StrictPartition.from_string


def _render_sectors(sectors):
    """Reference: the text of a {sector: polynomial} mapping, one line
    "(sigma, charge): polynomial" per sector in sector order, or "0"."""
    return "\n".join("(%d, %d): %s" % (sigma, charge, poly)
                     for (sigma, charge), poly in sorted(sectors.items())) or "0"


def _trapezoid_ts(m, n):
    """The trapezoid check read in (t, s): the Schur sum over h(t) through
    subst_odd, Q_trap through subst_q_u, compared in u.  The reference for
    the s-polynomial verdict; delta0 is looked up in schurq.verify at call
    time, so a perturbation there reaches both."""
    import schurq.verify
    lhs = subst_q_u(schur_q(tuple(p for p in range(m, m - n, -1) if p > 0)))
    sign = -1 if ((m + 1) * (m + 2 * n) // 2) % 2 else 1
    rhs = subst_odd(schur_sum((sign * schurq.verify.delta0(mu, m), bar_quotient(mu).q1)
                              for mu in enumerate_added(bar_core(-m), 0, n)
                              if not bar_quotient(mu).q0))
    return lhs == rhs, str(lhs), str(rhs)


def _texts(res):
    return res.passed, res.lhs_rendering, res.rhs_rendering


class TestMainIdentity1:
    def test_headline_case(self):
        res = check_main1(4, 2)
        assert res.passed
        assert res.params == {"m": 4, "n": 2}
        assert res.lhs_rendering == res.rhs_rendering
        assert res.lhs_rendering == "4/3*t2^4 - 4*t2*t6 + 4*t4^2"

    def test_six_term_sign_pattern(self):
        # the (4,2) case sums six quotient Schur terms with these signs
        frozen = {(2, 2, 2, 2): 1, (3, 2, 2, 1): -1, (3, 3, 1, 1): 1,
                  (4, 2, 2): 1, (4, 3, 1): -1, (4, 4): 1}
        got = {}
        for mu in enumerate_added(bar_core(4), 1, 2):
            got[bar_quotient(mu).q1] = delta1(mu, 2)
        assert got == frozen

    def test_degenerate_corners(self):
        assert check_main1(0, 0).passed
        assert check_main1(3, 0).passed
        assert check_main1(3, 3).passed

    def test_rejects_inverted_parameters(self):
        with pytest.raises(ValueError):
            check_main1(2, 3)

    def test_grid(self):
        for m in range(5):
            for n in range(m + 1):
                assert check_main1(m, n).passed


class TestMainIdentity2:
    def test_headline_case(self):
        res = check_main2(2, 2)
        assert res.passed
        # five members, two of which have an empty first quotient component
        members = enumerate_added(bar_core(-2), 0, 2)
        empties = [mu for mu in members if not bar_quotient(mu).q0]
        assert len(members) == 5 and len(empties) == 2

    def test_rhs_is_u_shifted(self):
        # the surviving right-hand terms are Schur polynomials in the
        # shifted alphabet
        res = check_main2(2, 2)
        want = subst_u(schur((3,))) - subst_u(schur((2, 1)))
        assert res.rhs_rendering == str(want)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_main2(-1, 0)

    def test_grid(self):
        for m in range(4):
            for n in range(4):
                assert check_main2(m, n).passed


class TestTrapezoid:
    def test_small_grid(self):
        for m in range(4):
            for n in range(4):
                if m - n + 1 >= 0:
                    assert check_trapezoid(m, n).passed

    def test_rejects_short_trapezoid(self):
        with pytest.raises(ValueError):
            check_trapezoid(1, 3)

    def test_boundary_shape(self):
        # m - n + 1 = 0 drops the zero row and still balances
        assert check_trapezoid(3, 4).passed

    def test_s_verdict_matches_the_ts_path(self):
        for m in range(7):
            for n in range(7):
                if m - n + 1 >= 0:
                    assert _texts(check_trapezoid(m, n)) == _trapezoid_ts(m, n), (m, n)

    def test_passing_check_substitutes_once(self, monkeypatch):
        # the verdict compares s-polynomials: subst_odd never runs, and
        # subst_q_u only renders the left side, which a pass reuses
        import sys
        import schurq.symfunc
        calls = {"subst_odd": 0, "subst_q_u": 0}
        for name in calls:
            original = getattr(schurq.symfunc, name)

            def counted(p, name=name, original=original):
                calls[name] += 1
                return original(p)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "schurq" and \
                        getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert check_trapezoid(5, 5).passed
        assert calls == {"subst_odd": 0, "subst_q_u": 1}


class TestFPower:
    def test_validation(self):
        with pytest.raises(ValueError):
            check_f_power(2, 1, 1)
        with pytest.raises(ValueError):
            check_f_power(0, -1, 0)

    def test_grid(self):
        for i in (0, 1):
            for m in range(3):
                for n in range(3):
                    assert check_f_power(i, m, n).passed

    def test_rendering_shows_vectors(self):
        res = check_f_power(1, 1, 1)
        assert "|" in res.lhs_rendering  # kets rendered


class TestCoreStates:
    def test_values(self):
        for m in (1, 2, 3, 4):
            assert check_core_states(m).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            check_core_states(0)

    def test_builds_no_product_polynomial(self, monkeypatch):
        # core-state images compare and render as labels
        import schurq.fock

        def refuse(*args, **kwargs):
            raise AssertionError("a product polynomial was built")

        monkeypatch.setattr(schurq.fock, "_sum_of_products", refuse)
        for m in range(1, 5):
            assert check_core_states(m).passed


class TestPhiConsistency:
    def test_grid(self):
        for i in (0, 1):
            for m in range(3):
                for n in range(3):
                    assert check_phi_consistency(i, m, n).passed

    def test_deeper_color1_point(self):
        assert StrictPartition((11, 8, 4, 2)) in \
            enumerate_added(bar_core(4), 1, 3)
        assert check_phi_consistency(1, 4, 3).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            check_phi_consistency(3, 1, 1)


@pytest.mark.parametrize("call, args, message", [
    (check_main1, (2.0, 1), "m must be an int, not 2.0"),
    (check_main1, (2, "1"), "n must be an int, not '1'"),
    (check_main2, (2.0, 1), "m must be an int, not 2.0"),
    (check_trapezoid, (2.0, 1), "m must be an int, not 2.0"),
    (check_f_power, (0, 2.0, 2), "m must be an int, not 2.0"),
    (check_f_power, (0.0, 2, 2), "i must be an int, not 0.0"),
    (check_f_power, (1, 2, 2.5), "n must be an int, not 2.5"),
    (check_core_states, (2.0,), "m must be an int, not 2.0"),
    (check_phi_consistency, (0, 2.0, 1), "m must be an int, not 2.0"),
    (check_phi_consistency, (True, 1, 1.0), "n must be an int, not 1.0"),
    (phi_closed_form, (P("6,2,1"), 0, 2.0, 2), "m must be an int, not 2.0"),
    (phi_closed_form, (P("6,2,1"), 0, 2, None), "n must be an int, not None"),
])
def test_a_non_int_parameter_is_named_as_passed(call, args, message):
    # i, m and n are read as ints before any arithmetic, so the message
    # names the value the caller passed, not one derived from it
    with pytest.raises(TypeError) as info:
        call(*args)
    assert str(info.value) == message


class TestSymfuncProps:
    def test_all_four_pass(self):
        results = check_symfunc_props()
        assert len(results) == 4
        names = [r.name for r in results]
        assert names == ["symfunc-props:homogeneity",
                         "symfunc-props:antisymmetry",
                         "symfunc-props:pfaffian-det",
                         "symfunc-props:bialternant"]
        assert all(r.passed for r in results)

    def test_params_are_reported(self):
        results = check_symfunc_props()
        assert results[0].params["max_weight"] == 10
        assert results[3].params["points"] == 5


class TestSuite:
    def test_default_config_all_pass(self):
        results = run_suite(SuiteConfig())
        assert results and all(r.passed for r in results)
        assert all(isinstance(r, CheckResult) for r in results)

    def test_empty_family_selection(self):
        assert run_suite(SuiteConfig(families=())) == []

    def test_family_subset(self):
        results = run_suite(SuiteConfig(max_m=2, max_n=2,
                                        families=("core-states",)))
        assert [r.params["m"] for r in results] == [1, 2]

    def test_deterministic_ordering(self):
        cfg = SuiteConfig(max_m=2, max_n=1,
                          families=("main1", "trapezoid", "core-states"))
        first = run_suite(cfg)
        second = run_suite(cfg)
        assert [(r.name, tuple(sorted(r.params.items()))) for r in first] == \
               [(r.name, tuple(sorted(r.params.items()))) for r in second]
        assert [r.lhs_rendering for r in first] == [r.lhs_rendering for r in second]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(families=("main1", "bogus"))

    def test_a_bare_string_of_families_is_rejected(self):
        # a string would be read letter by letter as family names
        with pytest.raises(TypeError, match="a sequence of family names, not the "
                                            "string 'main1'"):
            SuiteConfig(families="main1")
        for families in (["main1"], ("main1",)):
            cfg = SuiteConfig(max_m=1, max_n=1, families=families)
            assert [r.params for r in run_suite(cfg)] == [{"m": 0, "n": 0},
                                                          {"m": 1, "n": 0},
                                                          {"m": 1, "n": 1}]

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(max_m=-1)

    @pytest.mark.parametrize("bound, value, error, message", [
        ("max_m", 2.5, TypeError, "max_m must be an int, not 2.5"),
        ("max_n", "3", TypeError, "max_n must be an int, not '3'"),
        ("max_n", -2, ValueError, "grid bounds must be non-negative"),
    ], ids=["float", "string", "negative"])
    def test_a_bad_bound_fails_when_the_config_is_built(self, bound, value, error,
                                                        message):
        with pytest.raises(error) as info:
            SuiteConfig(**{bound: value})
        assert str(info.value) == message

    def test_result_serialization(self):
        res = check_main1(1, 1)
        payload = res.as_dict()
        assert payload["name"] == "main1"
        assert payload["params"] == {"m": 1, "n": 1}
        assert payload["passed"] is True
        assert isinstance(payload["elapsed_ms"], int)
        assert set(payload) == {"name", "params", "passed", "lhs_rendering",
                                "rhs_rendering", "elapsed_ms"}

    def test_result_dict_has_the_fields_in_order(self):
        # the fields in declaration order, as the JSON report has always
        # listed them, and params is a copy
        fields = ("name", "params", "passed", "lhs_rendering", "rhs_rendering",
                  "elapsed_ms")
        for res in run_suite(SuiteConfig(max_m=2, max_n=2)):
            payload = res.as_dict()
            assert list(payload.items()) == [(f, getattr(res, f)) for f in fields]
            assert payload["params"] is not res.params


def _nested_loop_suite(cfg):
    """The suite as per-family nested loops, the form run_suite had before
    the family table: the reference for its order and parameters."""
    results = []
    for family in cfg.families:
        if family == "main1":
            for m in range(cfg.max_m + 1):
                for n in range(min(m, cfg.max_n) + 1):
                    results.append(check_main1(m, n))
        elif family == "main2":
            for m in range(cfg.max_m + 1):
                for n in range(cfg.max_n + 1):
                    results.append(check_main2(m, n))
        elif family == "trapezoid":
            for m in range(cfg.max_m + 1):
                for n in range(cfg.max_n + 1):
                    if m - n + 1 >= 0:
                        results.append(check_trapezoid(m, n))
        elif family == "f-power":
            for i in (0, 1):
                for m in range(cfg.max_m + 1):
                    for n in range(cfg.max_n + 1):
                        results.append(check_f_power(i, m, n))
        elif family == "core-states":
            for m in range(1, cfg.max_m + 1):
                results.append(check_core_states(m))
        elif family == "phi-consistency":
            for i in (0, 1):
                for m in range(cfg.max_m + 1):
                    for n in range(cfg.max_n + 1):
                        results.append(check_phi_consistency(i, m, n))
        elif family == "symfunc-props":
            results.extend(check_symfunc_props())
    return results


def _mn(max_m, max_n):
    return [(m, n) for m in range(max_m + 1) for n in range(max_n + 1)]


def _imn(max_m, max_n):
    return [(i,) + point for i in (0, 1) for point in _mn(max_m, max_n)]


# each family's grid as FAMILY_TABLE stated it before the point rules:
# (max_m, max_n) -> its points in suite order
_GRIDS = {
    "main1": lambda *bounds: [(m, n) for m, n in _mn(*bounds) if n <= m],
    "main2": _mn,
    "trapezoid": lambda *bounds: [(m, n) for m, n in _mn(*bounds) if m - n + 1 >= 0],
    "f-power": _imn,
    "core-states": lambda max_m, _: [(m,) for m in range(1, max_m + 1)],
    "phi-consistency": _imn,
    "symfunc-props": lambda *bounds: [()],
}


class TestFamilyTable:
    @pytest.mark.parametrize("max_m, max_n", [(0, 0), (3, 1), (2, 4), (4, 4)])
    def test_suite_order_matches_nested_loops(self, max_m, max_n):
        cfg = SuiteConfig(max_m=max_m, max_n=max_n)
        got = [(r.name, r.params) for r in run_suite(cfg)]
        assert got == [(r.name, r.params) for r in _nested_loop_suite(cfg)]

    def test_rule_points_match_the_former_grids(self, monkeypatch):
        # each run returns its point instead of checking it, so run_suite
        # lists the points that the family's rule admits
        assert set(_GRIDS) == set(FAMILY_TABLE)
        for name, family in FAMILY_TABLE.items():
            monkeypatch.setitem(FAMILY_TABLE, name,
                                family._replace(run=lambda *point: [point]))
        for name, grid in _GRIDS.items():
            for max_m in range(8):
                for max_n in range(8):
                    cfg = SuiteConfig(max_m=max_m, max_n=max_n, families=(name,))
                    assert run_suite(cfg) == grid(max_m, max_n), (name, max_m, max_n)

    @pytest.mark.parametrize("call, args, message", [
        (check_main1, (-1, 5), "m and n must be non-negative"),
        (check_main1, (2, 3), "needs n <= m"),
        (check_main2, (0, -1), "m and n must be non-negative"),
        (check_trapezoid, (-1, 0), "m and n must be non-negative"),
        (check_trapezoid, (0, 2), "needs m - n + 1 >= 0"),
        (check_f_power, (2, -1, 0), "operator index must be 0 or 1"),
        (check_f_power, (0, -1, 0), "m and n must be non-negative"),
        (check_core_states, (0,), "needs m >= 1"),
        (check_phi_consistency, (2, 0, 0), "color must be 0 or 1"),
        (check_phi_consistency, (1, 0, -1), "m and n must be non-negative"),
    ])
    def test_a_bad_point_names_its_first_problem(self, call, args, message):
        with pytest.raises(ValueError) as info:
            call(*args)
        assert str(info.value) == message


class TestFastPathsAgainstSlowPaths:
    def test_substituting_once_matches_substituting_each_member(self):
        # the right sides of main2 and trapezoid against one substitution
        # per member
        for m in range(5):
            for n in range(5):
                members = enumerate_added(bar_core(-m), 0, n)
                empty = [mu for mu in members if not bar_quotient(mu).q0]
                want = _linear_sum((delta0(mu, m), subst_u(schur(bar_quotient(mu).q1)))
                                   for mu in empty)
                assert check_main2(m, n).rhs_rendering == str(want)
                if m - n + 1 >= 0:
                    sign = -1 if ((m + 1) * (m + 2 * n) // 2) % 2 else 1
                    want = _linear_sum((sign * delta0(mu, m),
                                        subst_odd(schur(bar_quotient(mu).q1)))
                                       for mu in empty)
                    assert check_trapezoid(m, n).rhs_rendering == str(want)

    def test_members_sort_as_their_parts(self):
        # a member is the tuple of its parts, so _members sorts with no key
        for m in range(-8, 9):
            for i in (0, 1):
                for n in range(7):
                    want = sorted(enumerate_added(_core(i, m), i, n),
                                  key=lambda p: p.parts, reverse=True)
                    assert [p.parts for p in _members(i, m, n)] == [
                        p.parts for p in want], (i, m, n)

    def test_f_power_expected_side_matches_the_residue_split(self):
        # each member's word and its sqrt(2) power counted in one pass over
        # its parts, against the residue split of every member
        for i in (0, 1):
            for m in range(8):
                core = bar_core(m if i == 1 else -m)
                for n in range(8):
                    want = FockVector._of_parts(
                        (sum(1 << p for p in lam.even_padded()),
                         (2 ** n, 0, 1) if i == 1
                         else _sqrt2_pow_parts(len(residue_split(lam).p0) - m % 2))
                        for lam in sorted(enumerate_added(core, i, n), reverse=True))
                    assert FockVector._of_parts(_f_power_terms(core, i, m, n)) == want

    def test_render_once_matches_rendering_both_sides(self, monkeypatch):
        # every check of the default grid, against a run that renders both
        # sides of every check, phi-consistency state by state
        import schurq.verify
        from schurq.verify import CheckResult as Result

        def render_both(name, params, lhs, rhs, t0, passed=None):
            return Result(name, params, lhs == rhs if passed is None else passed,
                          str(lhs), str(rhs), 0)

        def phi_both(i, m, n):
            members = sorted(enumerate_added(bar_core(m if i == 1 else -m), i, n),
                             key=lambda p: p.parts, reverse=True)
            pairs = [(lam, phi(FockVector.basis(lam)).expand(),
                      phi_closed_form(lam, i, m, n).expand()) for lam in members]
            return Result("phi-consistency", {"i": i, "m": m, "n": n},
                          all(left == right for _, left, right in pairs),
                          "\n".join("%s -> %s" % (lam, _render_sectors(left))
                                    for lam, left, _ in pairs),
                          "\n".join("%s -> %s" % (lam, _render_sectors(right))
                                    for lam, _, right in pairs),
                          0)

        def reports():
            out = [r.as_dict() for r in run_suite(SuiteConfig())]
            for entry in out:
                entry.pop("elapsed_ms")
            return out

        fast = reports()
        monkeypatch.setattr(schurq.verify, "_result", render_both)
        monkeypatch.setattr(schurq.verify, "check_phi_consistency", phi_both)
        assert reports() == fast


class TestCrossChecks:
    def test_main2_specializes_to_plain_schur_sum(self):
        # killing the s-variables turns the shifted alphabet back into t
        from schurq.exactalg import svar
        for m in range(3):
            for n in range(3):
                res = check_main2(m, n)
                wipe = {svar(j): SparsePoly.zero() for j in range(1, 30, 2)}
                lhs = SparsePoly.zero()
                rhs = SparsePoly.zero()
                for mu in enumerate_added(bar_core(-m), 0, n):
                    quot = bar_quotient(mu)
                    from schurq.partitions import delta0
                    from schurq.symfunc import schur_q
                    sign = SparsePoly.constant(delta0(mu, m))
                    lhs = lhs + (sign * schur_q(quot.q0) *
                                 schur(quot.q1)).substitute(wipe)
                    if not quot.q0:
                        rhs = rhs + sign * schur(quot.q1)
                assert lhs == rhs

    def test_delta0_of_negative_cores(self):
        # the bare negative core keeps sign (-1)^binom(m+1,2) at matching
        # parity
        from schurq.partitions import delta0
        for m in range(5):
            want = (-1) ** ((m + 1) * m // 2)
            assert delta0(bar_core(-m), m) == want


class TestLargePointPins:
    # sha256 digests of both renderings at two points larger than any the
    # perfbench pins reach: a renderer change must keep these bytes
    @pytest.mark.parametrize("check, args, digest", [
        (check_main2, (6, 6),
         "9690df00c4107a04e2bb05798f342f338284f7bf69c9350b63658f08f1654adb"),
        (check_phi_consistency, (0, 6, 6),
         "b2c8a293d7d46f728029e441d4d9b0497bfa9d651706ad66bdd8b686478d08e3"),
    ], ids=["main2", "phi-consistency"])
    def test_renderings(self, check, args, digest):
        res = check(*args)
        assert res.passed
        for text in (res.lhs_rendering, res.rhs_rendering):
            assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestNegativeControls:
    """Each check must be able to fail: a perturbed ingredient gives FAIL and
    CLI exit 1, also when the Schur and Q caches are already warm."""

    @staticmethod
    def _assert_fails(capsys, check, argv):
        from schurq.cli import main
        res = check()
        assert res.passed is False
        # a failing check renders its right side on its own
        assert res.lhs_rendering != res.rhs_rendering
        assert main(["verify"] + argv) == 1
        assert "FAIL" in capsys.readouterr().out
        return res

    def test_flipped_delta0_sign_fails_main2(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.delta0
        flipped = P("6,2,1")

        def delta0(mu, m):
            sign = original(mu, m)
            return -sign if mu == flipped else sign

        assert check_main2(2, 2).passed
        monkeypatch.setattr(schurq.verify, "delta0", delta0)
        self._assert_fails(capsys, lambda: check_main2(2, 2),
                           ["main2", "--m", "2", "--n", "2"])

    def test_dropped_member_fails_main1(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.enumerate_added

        def enumerate_added(core, i, n):
            return sorted(original(core, i, n), key=lambda p: p.parts)[1:]

        assert check_main1(4, 2).passed
        monkeypatch.setattr(schurq.verify, "enumerate_added", enumerate_added)
        self._assert_fails(capsys, lambda: check_main1(4, 2),
                           ["main1", "--m", "4", "--n", "2"])

    def test_swapped_quotient_fails_phi_consistency(self, monkeypatch, capsys):
        import schurq.fock
        from schurq.partitions import BarQuotient
        original = schurq.fock.bar_quotient

        def bar_quotient(lam, k=None):
            quot = original(lam, k)
            return BarQuotient(q0=quot.q1, q1=quot.q0)

        assert check_phi_consistency(1, 4, 2).passed
        monkeypatch.setattr(schurq.fock, "bar_quotient", bar_quotient)
        self._assert_fails(capsys, lambda: check_phi_consistency(1, 4, 2),
                           ["phi-consistency", "--i", "1", "--m", "4", "--n", "2"])

    def test_perturbed_f_coefficient_fails_f_power(self, monkeypatch, capsys):
        import schurq.fock
        original = schurq.fock.f_apply

        def f_apply(i, vec):
            out = original(i, vec)
            terms = dict(out.terms)
            top = max(terms)
            terms[top] = terms[top] * 2
            return schurq.fock.FockVector(terms)

        assert check_f_power(1, 2, 2).passed
        monkeypatch.setattr(schurq.fock, "f_apply", f_apply)
        self._assert_fails(capsys, lambda: check_f_power(1, 2, 2),
                           ["f-power", "--i", "1", "--m", "2", "--n", "2"])

    def test_flipped_delta1_sign_fails_main1(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.delta1
        flipped = P("11,8,4,1")

        def delta1(mu, n):
            sign = original(mu, n)
            return -sign if mu == flipped else sign

        assert flipped in enumerate_added(bar_core(4), 1, 2)
        assert check_main1(4, 2).passed
        monkeypatch.setattr(schurq.verify, "delta1", delta1)
        self._assert_fails(capsys, lambda: check_main1(4, 2),
                           ["main1", "--m", "4", "--n", "2"])

    @pytest.mark.parametrize("skipped", [0, 2])
    def test_f0_node_mask_missing_a_residue_fails_f_power(self, monkeypatch,
                                                          capsys, skipped):
        # F0 sums the parts p = 0 and p = 2 (mod 3); drop one class
        import schurq.fock
        original = schurq.fock.color

        def color(j):
            return 1 if (j - 1) % 3 == skipped else original(j)

        assert check_f_power(0, 2, 2).passed
        monkeypatch.setattr(schurq.fock, "color", color)
        self._assert_fails(capsys, lambda: check_f_power(0, 2, 2),
                           ["f-power", "--i", "0", "--m", "2", "--n", "2"])

    def test_f0_scalar_two_instead_of_sqrt2_fails_f_power(self, monkeypatch, capsys):
        import schurq.fock
        assert check_f_power(0, 2, 2).passed
        monkeypatch.setattr(schurq.fock, "SQRT2", Sqrt2Rational(2))
        self._assert_fails(capsys, lambda: check_f_power(0, 2, 2),
                           ["f-power", "--i", "0", "--m", "2", "--n", "2"])

    def test_flipped_delta0_sign_fails_trapezoid(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.delta0
        flipped = P("5,4")

        def delta0(mu, m):
            sign = original(mu, m)
            return -sign if mu == flipped else sign

        assert not bar_quotient(flipped).q0
        assert check_trapezoid(2, 2).passed
        monkeypatch.setattr(schurq.verify, "delta0", delta0)
        self._assert_fails(capsys, lambda: check_trapezoid(2, 2),
                           ["trapezoid", "--m", "2", "--n", "2"])

    def test_flipped_delta0_fail_texts_match_the_ts_path(self, monkeypatch):
        # a failing trapezoid prints the same two sides as the (t, s) path
        import schurq.verify
        original = schurq.verify.delta0
        flipped = {P("5,4"), P("13,8,7,2")}

        def delta0(mu, m):
            sign = original(mu, m)
            return -sign if mu in flipped else sign

        monkeypatch.setattr(schurq.verify, "delta0", delta0)
        for m, n in ((2, 2), (4, 4)):
            res = check_trapezoid(m, n)
            assert not res.passed
            assert _texts(res) == _trapezoid_ts(m, n)

    def test_perturbed_core_state_image_fails_core_states(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.core_state_image

        def core_state_image(m):
            image = original(m)
            return image.scale(-1) if m == -2 else image

        assert check_core_states(2).passed
        monkeypatch.setattr(schurq.verify, "core_state_image", core_state_image)
        self._assert_fails(capsys, lambda: check_core_states(2),
                           ["core-states", "--m", "2"])

    def test_perturbed_minus_image_shows_only_its_line(self, monkeypatch):
        # with only the -m image perturbed, the right side renders the +m
        # line as the left does and only the -m line differs
        import schurq.verify
        original = schurq.verify.core_state_image

        def core_state_image(m):
            image = original(m)
            return image.scale(-1) if m == -2 else image

        monkeypatch.setattr(schurq.verify, "core_state_image", core_state_image)
        res = check_core_states(2)
        assert not res.passed
        lhs, rhs = res.lhs_rendering.split("\n"), res.rhs_rendering.split("\n")
        assert [line.split(" -> ")[0] for line in rhs] == ["core +2", "core -2"]
        assert rhs[0] == lhs[0]
        assert rhs[1] != lhs[1]
        assert rhs[1] == "core -2 -> %s" % core_state_image(-2)

    def test_dropped_normal_word_fails_phi_consistency(self, monkeypatch, capsys):
        import schurq.fock
        original = schurq.fock.to_normal_words
        dropped = P("6,2,1").even_padded()

        def to_normal_words(word):
            words = original(word)
            return words[1:] if tuple(word) == dropped else words

        assert check_phi_consistency(0, 2, 2).passed
        monkeypatch.setattr(schurq.fock, "to_normal_words", to_normal_words)
        res = self._assert_fails(capsys, lambda: check_phi_consistency(0, 2, 2),
                                 ["phi-consistency", "--i", "0", "--m", "2", "--n", "2"])
        right = phi_closed_form(P("6,2,1"), 0, 2, 2)
        assert "6,2,1 -> 0\n" in res.lhs_rendering
        assert "6,2,1 -> %s\n" % right in res.rhs_rendering

    def test_basis_without_the_even_pad_fails_phi_consistency(self, monkeypatch, capsys):
        # an odd-length member without its trailing 0 is another word, so
        # its straightened image leaves the closed form
        import schurq.fock
        assert check_phi_consistency(0, 2, 2).passed
        monkeypatch.setattr(schurq.fock.FockVector, "basis",
                            staticmethod(lambda lam: FockVector({lam.parts: 1})))
        res = self._assert_fails(capsys, lambda: check_phi_consistency(0, 2, 2),
                                 ["phi-consistency", "--i", "0", "--m", "2", "--n", "2"])
        assert "6,2,1 -> %s\n" % phi_closed_form(P("6,2,1"), 0, 2, 2) in res.rhs_rendering
        assert "6,2,1 -> %s\n" % phi(FockVector({(6, 2, 1): 1})) in res.lhs_rendering

    def test_flipped_closed_form_sign_fails_phi_consistency(self, monkeypatch, capsys):
        # an odd change of the statistic f flips the closed-form sign of one
        # state, for either color
        import schurq.fock
        original = schurq.fock.stats
        flipped = P("6,2,1")

        def stats(lam):
            st = original(lam)
            return st._replace(f=st.f + 1) if lam == flipped else st

        assert check_phi_consistency(0, 2, 2).passed
        monkeypatch.setattr(schurq.fock, "stats", stats)
        self._assert_fails(capsys, lambda: check_phi_consistency(0, 2, 2),
                           ["phi-consistency", "--i", "0", "--m", "2", "--n", "2"])

    def test_wrong_weight_term_fails_homogeneity(self, monkeypatch, capsys):
        import schurq.verify
        from schurq.exactalg import tvar
        original = schurq.verify.schur

        def schur(lam):
            got = original(lam)
            return got + SparsePoly.variable(tvar(1)) if tuple(lam) == (2, 1) else got

        assert check_symfunc_homogeneity().passed
        monkeypatch.setattr(schurq.verify, "schur", schur)
        res = self._assert_fails(capsys, check_symfunc_homogeneity,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:homogeneity"

    def test_symmetric_pair_fails_antisymmetry(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.qq_pair

        def qq_pair(m, n):
            return original(2, 1) if (m, n) == (1, 2) else original(m, n)

        assert check_symfunc_antisymmetry().passed
        monkeypatch.setattr(schurq.verify, "qq_pair", qq_pair)
        res = self._assert_fails(capsys, check_symfunc_antisymmetry,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:antisymmetry"

    def test_doubled_pfaffian_fails_pfaffian_det(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.pfaffian
        assert check_symfunc_pfaffian_det().passed
        monkeypatch.setattr(schurq.verify, "pfaffian",
                            lambda rows: original(rows) * SparsePoly.constant(2))
        res = self._assert_fails(capsys, check_symfunc_pfaffian_det,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:pfaffian-det"

    def test_omega_without_sign_fails_bialternant(self, monkeypatch, capsys,
                                                   cold_symfunc):
        # S_lam for a tall lam is omega(S_lam'); without the sign on the even
        # t it is S_lam' itself, and cold Schur functions must show it
        assert check_symfunc_bialternant().passed
        cold_symfunc()
        monkeypatch.setattr(SparsePoly, "flip", lambda self, variables: self)
        res = self._assert_fails(capsys, check_symfunc_bialternant,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:bialternant"

    def test_dropped_vertical_strip_fails_bialternant_and_main1(self, monkeypatch,
                                                                capsys, cold_symfunc):
        # a first-row minor of the Jacobi-Trudi determinant missing one S_rho
        # of its dual Pieri sum; cold Schur functions must show it
        import schurq.symfunc
        original = schurq.symfunc._vertical_strips

        def _vertical_strips(lam, k):
            shapes = original(lam, k)
            return shapes[:-1] if len(shapes) > 1 else shapes

        assert check_symfunc_bialternant().passed
        assert check_main1(4, 2).passed
        monkeypatch.setattr(schurq.symfunc, "_vertical_strips", _vertical_strips)
        cold_symfunc()
        res = self._assert_fails(capsys, check_symfunc_bialternant,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:bialternant"
        cold_symfunc()
        self._assert_fails(capsys, lambda: check_main1(4, 2),
                           ["main1", "--m", "4", "--n", "2"])

    def test_dropped_vertical_strip_fails_trapezoid(self, monkeypatch, capsys,
                                                    cold_symfunc):
        # the same perturbation in the q(s) family of the first-row engine,
        # which builds the right side of the trapezoid
        import schurq.symfunc
        original = schurq.symfunc._vertical_strips

        def _vertical_strips(lam, k):
            shapes = original(lam, k)
            return shapes[:-1] if len(shapes) > 1 else shapes

        assert check_trapezoid(3, 3).passed
        monkeypatch.setattr(schurq.symfunc, "_vertical_strips", _vertical_strips)
        cold_symfunc()
        self._assert_fails(capsys, lambda: check_trapezoid(3, 3),
                           ["trapezoid", "--m", "3", "--n", "3"])

    @pytest.mark.parametrize("family, args", [
        ("main1", (4, 2)), ("main2", (3, 3)), ("trapezoid", (3, 3))])
    def test_unsigned_bucketed_tails_fail(self, monkeypatch, capsys, cold_symfunc,
                                          family, args):
        # the first-row combination sums each bucket of tails S_rho with
        # the signs (-1)^k c; summed without their signs, cold Schur
        # functions must show it
        import schurq.symfunc
        original = schurq.symfunc._linear_sum
        check = {"main1": check_main1, "main2": check_main2,
                 "trapezoid": check_trapezoid}[family]
        assert check(*args).passed
        monkeypatch.setattr(schurq.symfunc, "_linear_sum",
                            lambda pairs: original((abs(c), p) for c, p in pairs))
        cold_symfunc()
        self._assert_fails(capsys, lambda: check(*args),
                           [family, "--m", str(args[0]), "--n", str(args[1])])

    def test_plus_shift_fails_main2(self, monkeypatch, capsys):
        # odd t_j -> t_j + s_j in place of t_j - s_j, through the kernel
        import schurq.verify

        def subst_u(p):
            return p.substitute({v: SparsePoly.variable(v) + SparsePoly.variable(svar(v[1]))
                                 for v in p.variables() if v[0] == T and v[1] % 2})

        assert check_main2(3, 3).passed
        monkeypatch.setattr(schurq.verify, "subst_u", subst_u)
        self._assert_fails(capsys, lambda: check_main2(3, 3),
                           ["main2", "--m", "3", "--n", "3"])

    def test_reflected_z1_fails_bialternant(self, monkeypatch, capsys):
        # the power-sum image read at -z1: odd-degree Schur functions change
        import schurq.verify
        original = schurq.verify.power_sum_specialize
        assert check_symfunc_bialternant().passed
        monkeypatch.setattr(schurq.verify, "power_sum_specialize",
                            lambda p, n: original(p, n).flip([zvar(1)]))
        res = self._assert_fails(capsys, check_symfunc_bialternant,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:bialternant"

    def test_perturbed_bialternant_fails(self, monkeypatch, capsys):
        import schurq.verify
        original = schurq.verify.bialternant_eval

        def bialternant_eval(lam, zs):
            value = original(lam, zs)
            return value + 1 if tuple(lam) == (2, 1) else value

        assert check_symfunc_bialternant().passed
        monkeypatch.setattr(schurq.verify, "bialternant_eval", bialternant_eval)
        res = self._assert_fails(capsys, check_symfunc_bialternant,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:bialternant"

    def test_perturbed_rational_evaluate_fails_bialternant(self, monkeypatch, capsys):
        # the check reads every value on the rational path of evaluate (no
        # sqrt(2) part, rational coordinates); one shape's value read there
        # one off must show
        from schurq.symfunc import power_sum_specialize
        original = SparsePoly.evaluate
        target = power_sum_specialize(schur((2, 1)), 3)
        paths = []

        def evaluate(self, point):
            value = original(self, point)
            rational = not self._root and not any(
                Sqrt2Rational._promote(z).b for z in point.values())
            paths.append(rational)
            return value + 1 if rational and self == target else value

        assert check_symfunc_bialternant().passed
        monkeypatch.setattr(SparsePoly, "evaluate", evaluate)
        res = self._assert_fails(capsys, check_symfunc_bialternant,
                                 ["symfunc-props"])
        assert res.name == "symfunc-props:bialternant"
        assert paths and all(paths)
