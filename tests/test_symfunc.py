"""Tests for generator polynomials, Schur and Q polynomials, Pfaffians,
substitutions and numeric specializations.

The generator sequences are cross-checked against a truncated exponential
series computed here from scratch, independently of the production
recurrences.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq import symfunc
from schurq.exactalg import (SQRT2, S, T, Z, SparsePoly, Sqrt2Rational,
                             _linear_sum, _sum_of_products, _unpack, svar,
                             tvar, zvar)
from schurq.partitions import bar_core, bar_quotient, delta0, enumerate_added
from schurq.symfunc import (_vertical_strips, bialternant_eval, h_poly,
                            pfaffian, poly_det, power_sum_specialize, q_poly,
                            qq_pair, schur, schur_q, schur_sum, subst_2t2,
                            subst_odd, subst_q_u, subst_u)
from schurq.verify import (_partitions_of, _strict_partitions_of, check_main1,
                           check_main2, check_trapezoid)


def _series_mul(f, g, order):
    out = [SparsePoly.zero() for _ in range(order + 1)]
    for i, fi in enumerate(f):
        if fi.is_zero():
            continue
        for j, gj in enumerate(g):
            if i + j > order:
                break
            out[i + j] = out[i + j] + fi * gj
    return out


def _series_exp(g, order):
    """exp of a series with zero constant term, truncated at `order`."""
    assert g[0].is_zero()
    out = [SparsePoly.constant(1)] + [SparsePoly.zero()] * order
    power = out[:]
    for j in range(1, order + 1):
        power = _series_mul(power, g, order)
        inv = SparsePoly.constant(Fraction(1, factorial(j)))
        for d in range(order + 1):
            out[d] = out[d] + inv * power[d]
    return out


ORDER = 8


def _h_series(order=ORDER):
    g = [SparsePoly.zero()] + [SparsePoly.variable(tvar(k))
                               for k in range(1, order + 1)]
    return _series_exp(g, order)


def _q_series(order=ORDER):
    g = [SparsePoly.zero()]
    for k in range(1, order + 1):
        g.append(SparsePoly.variable(svar(k)) if k % 2 else SparsePoly.zero())
    return _series_exp(g, order)


class TestGenerators:
    def test_h_against_series_expansion(self):
        series = _h_series()
        for n in range(ORDER + 1):
            assert h_poly(n) == series[n]

    def test_q_against_series_expansion(self):
        series = _q_series()
        for n in range(ORDER + 1):
            assert q_poly(n) == series[n]

    def test_small_values(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        s1 = SparsePoly.variable(svar(1))
        assert h_poly(0) == SparsePoly.constant(1)
        assert h_poly(1) == t1
        assert str(h_poly(2)) == "1/2*t1^2 + t2"
        assert q_poly(1) == s1
        assert str(q_poly(2)) == "1/2*s1^2"
        assert str(q_poly(3)) == "1/6*s1^3 + s3"

    def test_negative_index_is_zero(self):
        assert h_poly(-1).is_zero()
        assert q_poly(-3).is_zero()

    @pytest.mark.parametrize("gen", [h_poly, q_poly])
    def test_float_index_is_rejected_cold_and_warm(self, gen, cold_symfunc):
        # the memo keys on the type too, so 3.0 never finds the entry of 3
        with pytest.raises(TypeError):
            gen(3.0)
        gen(3)
        with pytest.raises(TypeError):
            gen(3.0)

    def test_memo_returns_the_same_object(self):
        assert h_poly(9) is h_poly(9)

    @pytest.mark.parametrize("name, n, calls", [("h_poly", 6, 22), ("q_poly", 7, 17)])
    def test_cold_recursion_goes_through_the_module_global(
            self, name, n, calls, cold_symfunc, monkeypatch):
        # the shared Newton body reads the smaller generators through the
        # module global at call time, so a wrapper there (the tracer's
        # symfunc.generators boundary) sees the first call and then one
        # call per k for each weight m = 1..n built: m of them for h_m,
        # 1 + 21 for h_6, and the (m + 1) // 2 odd k for q_m, 1 + 16 for q_7
        original = getattr(symfunc, name)
        seen = []

        def counting(m):
            seen.append(m)
            return original(m)

        monkeypatch.setattr(symfunc, name, counting)
        assert counting(n) == original(n)
        assert len(seen) == calls
        assert set(seen) == set(range(n + 1))

    def test_homogeneity(self):
        for n in range(1, 9):
            assert h_poly(n).is_homogeneous()
            assert h_poly(n).weighted_degree() == n
            assert q_poly(n).is_homogeneous()
            assert q_poly(n).weighted_degree() == n

    def test_q_uses_odd_variables_only(self):
        for n in range(1, 9):
            assert all(v[1] % 2 == 1 for v in q_poly(n).variables())


class TestDetAndPfaffian:
    def test_det_small(self):
        one = SparsePoly.constant(1)
        t1 = SparsePoly.variable(tvar(1))
        assert poly_det([[one]]) == one
        assert poly_det([[one, t1], [t1, one]]) == one - t1 ** 2
        with pytest.raises(ValueError):
            poly_det([[one, t1]])

    def test_pfaffian_2x2(self):
        z = SparsePoly.zero()
        a = SparsePoly.variable(tvar(1))
        assert pfaffian([[z, a], [-a, z]]) == a

    def test_pfaffian_4x4(self):
        z = SparsePoly.zero()
        names = [SparsePoly.variable(tvar(j)) for j in range(1, 7)]
        a, b, c, d, e, f = names
        rows = [[z, a, b, c], [-a, z, d, e], [-b, -d, z, f], [-c, -e, -f, z]]
        assert pfaffian(rows) == a * f - b * e + c * d

    def test_pfaffian_validation(self):
        z = SparsePoly.zero()
        a = SparsePoly.variable(tvar(1))
        with pytest.raises(ValueError):
            pfaffian([[z, a, a], [-a, z, a], [-a, -a, z]])  # odd size
        with pytest.raises(ValueError):
            pfaffian([[z, a], [a, z]])  # not skew-symmetric

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**12 - 1))
    def test_pfaffian_squares_to_determinant(self, bits):
        gens = [SparsePoly.constant(1), SparsePoly.variable(tvar(1)),
                SparsePoly.variable(svar(1)), SparsePoly.variable(tvar(2))]
        d = 4
        entries = [gens[(bits >> (2 * k)) & 3] for k in range(6)]
        rows = [[SparsePoly.zero()] * d for _ in range(d)]
        pos = 0
        for i in range(d):
            for j in range(i + 1, d):
                rows[i][j] = entries[pos]
                rows[j][i] = -entries[pos]
                pos += 1
        assert pfaffian(rows) ** 2 == poly_det(rows)


class TestSchur:
    def test_row_cases_are_generators(self):
        for n in range(7):
            assert schur((n,)) == h_poly(n)

    def test_small_frozen_values(self):
        assert str(schur((2, 1))) == "1/3*t1^3 - t3"
        assert str(schur((1, 1))) == "1/2*t1^2 - t2"
        assert str(schur((2, 2))) == "1/12*t1^4 - t1*t3 + t2^2"

    def test_empty_and_zero_padding(self):
        assert schur(()) == SparsePoly.constant(1)
        assert schur((0, 0)) == SparsePoly.constant(1)
        assert schur((3, 1, 0)) == schur((3, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            schur((1, 2))
        with pytest.raises(ValueError):
            schur((2, -1))

    def test_float_part_is_rejected_not_truncated(self):
        with pytest.raises(TypeError, match=r"2\.5 in \(2\.5, 1\)"):
            schur((2.5, 1))

    def test_string_partition_is_rejected(self):
        # iterating "21" gives the strings "2" and "1", not the parts 2, 1
        with pytest.raises(TypeError, match="'2' in '21'"):
            schur("21")

    def test_int_like_parts_are_accepted(self):
        assert schur([3, True, 0]) is schur((3, 1))

    def test_sum_rejects_a_float_part_by_name(self):
        with pytest.raises(TypeError, match=r"2\.5 in \(2\.5, 1\)"):
            schur_sum([(1, (3,)), (1, (2.5, 1))])

    def test_sum_rejects_a_non_partition(self):
        with pytest.raises(ValueError, match=r"not a partition: \(1, 2\)"):
            schur_sum([(1, (3,)), (1, (1, 2))])
        with pytest.raises(ValueError, match="not a partition"):
            schur_sum([(1, (2, -1))])

    def test_sum_rejects_a_float_coefficient(self):
        with pytest.raises(TypeError):
            schur_sum([(0.5, (2, 1))])

    def test_pieri_rule(self):
        # s_1 * s_lambda sums the one-box extensions
        s = schur
        assert s((1,)) * s((1,)) == s((2,)) + s((1, 1))
        assert s((1,)) * s((2, 1)) == s((3, 1)) + s((2, 2)) + s((2, 1, 1))
        assert s((1,)) * s((2, 2)) == s((3, 2)) + s((2, 2, 1))

    def test_omega_involution(self):
        # negating even-index generators transposes the shape
        def omega(p):
            mapping = {tvar(j): SparsePoly.constant(-1) * SparsePoly.variable(tvar(j))
                       for j in range(2, 12, 2)}
            return p.substitute(mapping)
        assert omega(schur((3,))) == schur((1, 1, 1))
        assert omega(schur((2, 1))) == schur((2, 1))
        assert omega(schur((3, 1))) == schur((2, 1, 1))
        assert omega(schur((2, 2))) == schur((2, 2))

    def test_homogeneous_of_weight(self):
        for lam in ((3, 2), (4, 2, 1), (5,), (2, 2, 2)):
            p = schur(lam)
            assert p.is_homogeneous()
            assert p.weighted_degree() == sum(lam)


def _strips_by_definition(lam, k):
    """Every rho with rho_i in {lam_i - 1, lam_i}, rho a partition and
    |lam/rho| = k, zero-stripped: the vertical k-strips from the definition."""
    out = []
    for drops in product((0, 1), repeat=len(lam)):
        rho = [p - d for p, d in zip(lam, drops)]
        if sum(drops) == k and all(a >= b for a, b in zip(rho, rho[1:])):
            out.append(tuple(p for p in rho if p))
    return out


class TestVerticalStrips:
    def test_table_against_the_definition(self):
        # every partition of weight <= 12, every k from 0 to len + 1; the
        # entries are tuples, because the table is shared
        for w in range(13):
            for lam in _partitions_of(w):
                for k in range(len(lam) + 2):
                    got = _vertical_strips(lam, k)
                    assert isinstance(got, tuple)
                    assert Counter(got) == Counter(_strips_by_definition(lam, k)), \
                        (lam, k)


class TestSchurQ:
    def test_single_rows(self):
        assert schur_q(()) == q_poly(0) == SparsePoly.constant(1)
        for n in range(1, 7):
            assert schur_q((n,)) == q_poly(n)

    def test_pair_value(self):
        assert str(schur_q((2, 1))) == "1/6*s1^3 - 2*s3"
        assert str(schur_q((3, 1))) == "1/12*s1^4 - s1*s3"

    def test_pair_is_qq(self):
        for m in range(1, 6):
            for n in range(m):
                want = qq_pair(m, n)
                got = schur_q((m, n) if n else (m,))
                assert got == want

    def test_antisymmetry(self):
        for m in range(6):
            for n in range(6):
                assert qq_pair(m, n) == -qq_pair(n, m)
        assert qq_pair(3, 3).is_zero()

    def test_boundary(self):
        for m in range(1, 7):
            assert qq_pair(m, 0) == q_poly(m)
        with pytest.raises(ValueError):
            qq_pair(-1, 0)

    def test_float_index_is_rejected_cold_and_warm(self, cold_symfunc):
        with pytest.raises(TypeError):
            qq_pair(3.0, 1)
        qq_pair(3, 1)
        with pytest.raises(TypeError):
            qq_pair(3.0, 1)

    def test_memo_returns_the_same_object(self):
        assert qq_pair(5, 2) is qq_pair(5, 2)
        assert qq_pair(2, 5) is qq_pair(2, 5)
        assert qq_pair(2, 5) == -qq_pair(5, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            schur_q((2, 2))
        with pytest.raises(ValueError):
            schur_q((1, 2))

    def test_float_part_is_rejected_not_truncated(self):
        with pytest.raises(TypeError, match=r"3\.9 in \(3\.9, 1\)"):
            schur_q((3.9, 1))

    def test_empty(self):
        assert schur_q(()) == SparsePoly.constant(1)
        assert schur_q((3, 1, 0)) == schur_q((3, 1))

    def test_three_rows(self):
        got = schur_q((3, 2, 1))
        assert got.is_homogeneous() and got.weighted_degree() == 6
        # direct Pfaffian of the padded 4x4 comparison matrix
        rows = [[qq_pair(m, n) for n in (3, 2, 1, 0)] for m in (3, 2, 1, 0)]
        assert got == pfaffian(rows)


class TestSubstitutions:
    def test_doubling(self):
        t = lambda j: SparsePoly.variable(tvar(j))
        assert subst_2t2(t(1)) == SparsePoly.constant(2) * t(2)
        assert subst_2t2(t(3)) == SparsePoly.constant(2) * t(6)
        assert subst_2t2(t(1) ** 2) == SparsePoly.constant(4) * t(2) ** 2
        with pytest.raises(ValueError):
            subst_2t2(SparsePoly.variable(svar(1)))

    def test_u_shift(self):
        t = lambda j: SparsePoly.variable(tvar(j))
        s = lambda j: SparsePoly.variable(svar(j))
        assert subst_u(t(1)) == t(1) - s(1)
        assert subst_u(t(2)) == t(2)
        assert subst_u(t(3)) == t(3) - s(3)

    def test_odd_restriction(self):
        t = lambda j: SparsePoly.variable(tvar(j))
        s = lambda j: SparsePoly.variable(svar(j))
        assert subst_odd(t(2)).is_zero()
        assert subst_odd(t(1)) == t(1) - s(1)
        assert subst_odd(t(1) * t(2)).is_zero()

    def test_q_shift(self):
        t = lambda j: SparsePoly.variable(tvar(j))
        s = lambda j: SparsePoly.variable(svar(j))
        assert subst_q_u(s(1)) == t(1) - s(1)
        assert subst_q_u(s(3) ** 2) == (t(3) - s(3)) ** 2

    def test_substitutions_commute_with_ring_ops(self):
        p = schur((2, 1))
        q = schur((1, 1))
        for f in (subst_2t2, subst_u, subst_odd):
            assert f(p * q) == f(p) * f(q)
            assert f(p + q) == f(p) + f(q)

    def test_u_shift_collapses_to_identity_without_s(self):
        # sending every odd s variable to zero undoes the u-shift
        kill_s = {svar(j): 0 for j in range(1, 13, 2)}
        for shape in ((), (1,), (3,), (2, 1), (3, 2), (2, 2, 1)):
            p = schur(shape)
            assert subst_u(p).substitute(kill_s) == p


class TestSpecialization:
    def test_power_sum_specialize_h2(self):
        z1 = SparsePoly.variable(zvar(1))
        z2 = SparsePoly.variable(zvar(2))
        got = power_sum_specialize(h_poly(2), 2)
        assert got == z1 ** 2 + z1 * z2 + z2 ** 2

    def test_rejects_s_variables(self):
        with pytest.raises(ValueError):
            power_sum_specialize(q_poly(2), 2)

    def test_schur_specializes_to_monomial_sum(self):
        got = power_sum_specialize(schur((2, 1)), 2)
        z1 = SparsePoly.variable(zvar(1))
        z2 = SparsePoly.variable(zvar(2))
        assert got == z1 ** 2 * z2 + z1 * z2 ** 2

    def test_too_long_partition_vanishes(self):
        assert power_sum_specialize(schur((1, 1, 1)), 2).is_zero()

    @pytest.mark.parametrize("n_vars", [2.0, 2.5, "2"])
    def test_rejects_a_non_int_variable_count(self, n_vars):
        # named as every check names i, m and n, not as a float range or a
        # str comparison
        with pytest.raises(TypeError, match=r"n_vars must be an int, not %s$"
                           % re.escape(repr(n_vars))):
            power_sum_specialize(schur((1,)), n_vars)

    @pytest.mark.parametrize("n_vars", [0, -1])
    def test_rejects_no_variables(self, n_vars):
        with pytest.raises(ValueError, match="need at least one z variable"):
            power_sum_specialize(schur((1,)), n_vars)


class TestBialternant:
    def test_hand_value(self):
        assert bialternant_eval((2, 1), [Fraction(1), Fraction(2)]) == Sqrt2Rational(6)

    def test_empty_partition(self):
        assert bialternant_eval((), [Fraction(1), Fraction(3)]) == Sqrt2Rational(1)

    def test_long_partition_vanishes(self):
        assert bialternant_eval((1, 1, 1), [Fraction(1), Fraction(2)]) == Sqrt2Rational(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bialternant_eval((2, 1), [Fraction(1), Fraction(1)])
        with pytest.raises(ValueError):
            bialternant_eval((2, 1), [Fraction(0), Fraction(1)])

    def test_takes_a_rational_sqrt2rational_coordinate(self):
        # as SparsePoly.evaluate takes it at the same point
        zs = [Sqrt2Rational(1), Sqrt2Rational(Fraction(-1, 3)), 2]
        point = {zvar(i + 1): z for i, z in enumerate(zs)}
        got = bialternant_eval((2, 1), zs)
        assert got == power_sum_specialize(schur((2, 1)), 3).evaluate(point)
        assert bialternant_eval((1,), [Sqrt2Rational(1), 2]) == Sqrt2Rational(3)

    def test_rejects_an_irrational_coordinate(self):
        with pytest.raises(ValueError, match=r"^z coordinates in zs must be rational, "
                                             r"not \(1\+1\*r2\)$"):
            bialternant_eval((1,), [2, Sqrt2Rational(1, 1)])

    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_refuses_a_float_coordinate(self, z):
        with pytest.raises(TypeError, match="not float %s$" % re.escape(repr(z))):
            bialternant_eval((1,), [z, 3])

    def test_takes_a_string_coordinate(self):
        assert bialternant_eval((2,), ["1/2", "-3"]) == bialternant_eval(
            (2,), [Fraction(1, 2), -3])

    def test_rejects_a_float_coordinate(self):
        # 0.1 is not the rational it prints as; exact coordinates still work
        with pytest.raises(TypeError, match=r"not float 0\.1"):
            bialternant_eval((1,), [0.1, 2])
        assert bialternant_eval((1,), [1, "1/2", Fraction(2)]) == Sqrt2Rational(Fraction(7, 2))

    @pytest.mark.parametrize("lam, error, message", [
        ((2, -1), ValueError, r"not a partition: \(2, -1\)"),
        ((1, 3), ValueError, r"not a partition: \(1, 3\)"),
        ((2.5,), TypeError, r"parts must be ints, not 2\.5"),
    ], ids=["negative-part", "increasing", "non-int-part"])
    def test_rejects_a_non_partition(self, lam, error, message):
        # checked as schur checks its shape, not read as some other one
        with pytest.raises(error, match=message):
            bialternant_eval(lam, [1, 2, 3])

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                    max_size=3).map(lambda xs: tuple(sorted(xs, reverse=True))),
           st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                    min_size=3, max_size=3, unique=True))
    def test_matches_determinant_formula(self, lam, zs):
        if 0 in zs:
            zs = [z + 7 for z in zs]
        if len(set(zs)) < 3:
            return
        point = {zvar(k + 1): Sqrt2Rational(zs[k]) for k in range(3)}
        specialized = power_sum_specialize(schur(lam), 3)
        assert specialized.evaluate(point) == bialternant_eval(lam, zs)

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=4).map(
               lambda xs: tuple(sorted(xs, reverse=True))),
           st.one_of(
               st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7)
                        .filter(bool), max_size=4, unique=True),
               # numerators over one shared denominator, most of them
               # negative; some of the fractions reduce and some do not
               st.builds(lambda d, nums: [Fraction(a, d) for a in nums],
                         st.integers(min_value=2, max_value=9),
                         st.lists(st.integers(min_value=-20, max_value=6).filter(bool),
                                  max_size=4, unique=True))))
    def test_matches_fraction_determinants(self, lam, zs):
        # the int determinants of the row-scaled alternants against the
        # Leibniz formula on the Fraction entries
        def det(rows):
            total = Fraction(0)
            for perm in permutations(range(len(rows))):
                inversions = sum(a > b for a, b in combinations(perm, 2))
                term = Fraction((-1) ** inversions)
                for i, j in enumerate(perm):
                    term *= rows[i][j]
                total += term
            return total

        n = len(zs)
        parts = [p for p in lam if p]
        if len(parts) > n:
            assert bialternant_eval(lam, zs) == 0
            return
        exps = [(parts[j] if j < len(parts) else 0) + n - 1 - j for j in range(n)]
        want = (det([[z ** e for e in exps] for z in zs])
                / det([[z ** (n - 1 - j) for j in range(n)] for z in zs]))
        assert bialternant_eval(lam, zs) == Sqrt2Rational(want)


# ---------------------------------------------------------------------------
# differential tests: memoized and reused-power paths against slow references
# ---------------------------------------------------------------------------

def _schur_ref(lam, family=T):
    """The Jacobi-Trudi determinant of lam over h_n(t), or over q_n(s) for
    the family S."""
    gen = h_poly if family == T else q_poly
    d = len(lam)
    return poly_det([[gen(lam[i] + j - i) for j in range(d)] for i in range(d)])


_REFS = {}


def _schur_sum_ref(pairs, family=T):
    """sum(c * S_lam) as a sum of Jacobi-Trudi determinants, each built once
    per family and test session."""
    terms = []
    for c, lam in pairs:
        key = (family, tuple(p for p in lam if p))
        if key not in _REFS:
            _REFS[key] = _schur_ref(key[1], family)
        terms.append((c, _REFS[key]))
    return _linear_sum(terms)


def _assert_memo_is_true():
    """Every entry of each family's Schur memo against its determinant."""
    import schurq.symfunc
    for family, memo in schurq.symfunc._SCHURS.items():
        for lam, got in memo.items():
            assert got == _schur_sum_ref([(1, lam)], family), (family, lam)


def _seeded_pairs(rng, shapes):
    """A signed combination of up to six of the shapes, some repeated with
    trailing zeros."""
    pairs = [(rng.randint(-3, 3), rng.choice(shapes))
             for _ in range(rng.randint(1, 6))]
    return pairs + [(c, lam + (0,) * rng.randint(0, 2))
                    for c, lam in pairs if rng.random() < 0.3]


def _pair_ref(m, n):
    if m == n:
        return SparsePoly.zero()
    if m < n:
        return -_pair_ref(n, m)
    acc = q_poly(m) * q_poly(n)
    for i in range(1, n + 1):
        term = SparsePoly.constant(2 * (-1) ** i) * q_poly(m + i) * q_poly(n - i)
        acc = acc + term
    return acc


def _schur_q_ref(lam):
    # expanded by this module's _pf_unmemoized: pfaffian shares its
    # first-row expansion with schur_q
    parts = lam + (0,) if len(lam) % 2 else lam
    rows = [[_pair_ref(a, b) for b in parts] for a in parts]
    return _pf_unmemoized(rows, tuple(range(len(parts))))


def _naive_substitute(p, mapping):
    """Term-by-term substitution, every power built afresh."""
    out = SparsePoly.zero()
    for mono, coeff in p.terms.items():
        term = SparsePoly.constant(coeff)
        for v, e in mono:
            term = term * mapping.get(v, SparsePoly.variable(v)) ** e
        out = out + term
    return out


def _substitute_on_polys(p, mapping):
    """Reference: substitution in SparsePoly arithmetic, each power
    image**e built once per call and shared by every monomial that contains
    it, the images of the monomials summed in one pass."""
    powers = {}

    def image(m):
        out = SparsePoly.constant(1)
        for v, e in _unpack(m):
            if (v, e) not in powers:
                base = mapping.get(v, SparsePoly.variable(v))
                powers[v, e] = SparsePoly._promote(base) ** e
            out = out * powers[v, e]
        return out

    pairs = [(c, image(m)) for m, c in p._num.items()]
    pairs += [(c, SparsePoly.constant(SQRT2) * image(m)) for m, c in p._root.items()]
    return _linear_sum(pairs) * SparsePoly.constant(Fraction(1, p._den))


def _t(j):
    return SparsePoly.variable(tvar(j))


def _s(j):
    return SparsePoly.variable(svar(j))


def _int_det_laplace(rows):
    """Reference: Laplace expansion along successive rows, memoized over
    the active column set."""
    d = len(rows)
    memo = {}

    def minor(row, colmask):
        if row == d:
            return 1
        got = memo.get(colmask)
        if got is None:
            got = 0
            sign = 1
            for col in range(d):
                bit = 1 << col
                if colmask & bit:
                    got += sign * rows[row][col] * minor(row + 1, colmask & ~bit)
                    sign = -sign
            memo[colmask] = got
        return got

    return minor(0, (1 << d) - 1)


def _power_sum_specialize_ref(p, n_vars):
    """Reference: t_j -> (z_1^j + ... + z_N^j)/j through a mapping whose
    images are built afresh on every call."""
    return p.substitute({v: SparsePoly({((zvar(i), v[1]),): Fraction(1, v[1])
                                        for i in range(1, n_vars + 1)})
                         for v in p.variables()})


class TestIntDetAgainstLaplace:
    @staticmethod
    def _matrices(rng, d):
        """Seeded int matrices of size d: dense ones, sparse ones whose
        zero pivots need a row swap, and singular ones."""
        dense = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        sparse = [[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(d)]
                  for _ in range(d)]
        yield dense
        yield sparse
        if d:
            # a zero first pivot with a nonzero entry lower in its column
            swapped = [row[:] for row in dense]
            swapped[0][0] = 0
            swapped[-1][0] = swapped[-1][0] or 5
            yield swapped
            # singular: a zero column
            yield [[0] + row[1:] for row in dense]
        if d > 1:
            # singular: a row repeated as a multiple of another
            repeated = [row[:] for row in dense]
            repeated[-1] = [-3 * x for x in repeated[0]]
            yield repeated

    def test_seeded_matrices(self):
        rng = random.Random(2026)
        seen = Counter()
        for d in range(8):
            for _ in range(12):
                for rows in self._matrices(rng, d):
                    want = _int_det_laplace(rows)
                    copy = [row[:] for row in rows]
                    assert symfunc._int_det(rows) == want, rows
                    assert rows == copy  # the argument is not touched
                    seen["zero" if not want else "nonzero"] += 1
                    if d and not rows[0][0]:
                        seen["zero pivot"] += 1
        assert min(seen.values()) > 50, seen


def _poly_det_by_column_mask(rows):
    """Reference: the column-mask poly_det that the per-call cache over the
    columns left replaced, a Laplace expansion along successive rows
    memoized over the active column set as a bitmask."""
    d = len(rows)
    memo = {}

    def minor(row, colmask):
        if row == d:
            return SparsePoly.constant(1)
        got = memo.get(colmask)
        if got is not None:
            return got
        terms = []
        sign = 1
        for col in range(d):
            bit = 1 << col
            if not colmask & bit:
                continue
            entry = rows[row][col]
            if not entry.is_zero():
                terms.append((sign, entry, minor(row + 1, colmask & ~bit)))
            sign = -sign
        memo[colmask] = acc = _sum_of_products(terms)
        return acc

    return minor(0, (1 << d) - 1)


class TestPolyDetAgainstColumnMask:
    def test_seeded_poly_matrices(self):
        rng = random.Random(2027)
        gens = [SparsePoly.constant(1), _t(1), _t(2), _s(1), _s(3),
                _t(1) * _s(1) + SparsePoly.constant(Fraction(1, 2))]
        seen = Counter()
        for d in range(7):
            for _ in range(8):
                # about half the entries are zero, so rows skip columns
                rows = [[SparsePoly.constant(rng.randint(-3, 3)) * rng.choice(gens)
                         if rng.random() < 0.5 else SparsePoly.zero()
                         for _ in range(d)] for _ in range(d)]
                want = _poly_det_by_column_mask(rows)
                assert poly_det(rows) == want, rows
                seen["zero" if want.is_zero() else "nonzero"] += 1
        assert seen["zero"] and seen["nonzero"] > 20, seen

    def test_int_matrices_against_int_det(self):
        rng = random.Random(2028)
        for d in range(7):
            for _ in range(4):
                for rows in TestIntDetAgainstLaplace._matrices(rng, d):
                    polys = [[SparsePoly.constant(x) for x in row] for row in rows]
                    assert poly_det(polys) == symfunc._int_det(rows), rows


class TestPowerSumMemo:
    def test_against_fresh_images_cold_and_warm(self):
        shapes = [lam for w in range(9) for lam in _partitions_of(w)]
        symfunc._power_sum_image.cache_clear()
        for _ in ("cold", "warm"):
            for n_vars in range(1, 5):
                for lam in shapes:
                    p = schur(lam)
                    assert power_sum_specialize(p, n_vars) == \
                        _power_sum_specialize_ref(p, n_vars), (lam, n_vars)
        assert symfunc._power_sum_image.cache_info().currsize == 8 * 4


def _power_sum_map(n_vars, max_index):
    return {tvar(j): SparsePoly.constant(Fraction(1, j)) *
            sum((SparsePoly.variable(zvar(i)) ** j for i in range(1, n_vars + 1)),
                SparsePoly.zero())
            for j in range(1, max_index + 1)}


@pytest.fixture
def schur_11_checked_afterwards():
    """Checks S_11 once the fixtures a test requests after this one are torn
    down."""
    yield
    assert schur((1, 1)) == _schur_ref((1, 1))


class TestMemoAgainstFreshComputation:
    def test_perturbed_schur_does_not_outlive_cold_symfunc(
            self, schur_11_checked_afterwards, cold_symfunc, monkeypatch):
        # omega without its sign builds S_11 as S_2; after cold_symfunc and
        # monkeypatch are torn down, S_11 must be the true one again
        monkeypatch.setattr(SparsePoly, "flip", lambda self, variables: self)
        assert schur((1, 1)) == schur((2,)) != _schur_ref((1, 1))

    def test_schur(self):
        for w in range(9):
            for lam in _partitions_of(w):
                got = schur(lam)
                assert got == _schur_ref(lam)
                assert schur(lam + (0,)) is got

    def test_schur_cold_through_weight_10(self, cold_symfunc):
        # a tall shape is built as omega of its conjugate: every shape,
        # from an empty cache, against the plain Jacobi-Trudi determinant
        shapes = [lam for w in range(11) for lam in _partitions_of(w)]
        assert sum(len(lam) > lam[0] for lam in shapes[1:]) == 60
        for lam in shapes:
            got = schur(lam)
            assert got == _schur_ref(lam), lam
            assert schur(lam + (0,)) is got

    def test_schur_cold_on_the_polynomial_workload_shapes(self, cold_symfunc,
                                                          monkeypatch):
        # every signed sum that main2(5,5), trapezoid(5,5) and main1(6,3)
        # expand, and every shape they build one by one (the tails of the
        # first-row expansions and main1's rectangle), in its variable
        # family, rebuilt from an empty memo against sums of plain
        # Jacobi-Trudi determinants
        import schurq.symfunc
        import schurq.verify
        built, sums = set(), []
        memo = schurq.symfunc._schur

        def _schur(lam, family):
            built.add((lam, family))
            return memo(lam, family)

        def recorded_schur_sum(pairs, family=T):
            pairs = list(pairs)
            sums.append((pairs, family))
            return schur_sum(pairs, family)

        monkeypatch.setattr(schurq.symfunc, "_schur", _schur)
        monkeypatch.setattr(schurq.verify, "schur_sum", recorded_schur_sum)
        for check, args in ((check_main2, (5, 5)), (check_trapezoid, (5, 5)),
                            (check_main1, (6, 3))):
            assert check(*args).passed
        # main2's 32 q0 groups and main1's sums over h(t), trapezoid's over
        # q(s): 126 members, the largest of weight 18; only tails are built
        # one by one
        assert len(sums) == 34 and sum(len(pairs) for pairs, _ in sums) == 126
        assert [family for _, family in sums].count(S) == 1
        assert max(sum(lam) for pairs, _ in sums for _, lam in pairs) == 18
        shapes = sorted(built, key=lambda key: sum(key[0]), reverse=True)
        assert sum(shapes[0][0]) == 12 and len(shapes) >= 81
        assert {family for _, family in shapes} == {S, T}
        cold_symfunc()
        for pairs, family in sums:
            assert schur_sum(pairs, family) == _schur_sum_ref(pairs, family), pairs
        cold_symfunc()
        for lam, family in shapes:
            got = schur(lam) if family == T else schur_sum([(1, lam)], S)
            assert got == _schur_ref(lam, family), (lam, family)

    @pytest.mark.parametrize("built_share", [0, 0.5])
    def test_schur_sum_on_seeded_combinations(self, cold_symfunc, built_share):
        # signed sums of up to six shapes of weight <= 12, tall and wide,
        # some repeated with trailing zeros; from a cold memo, or one that
        # holds a seeded share of the summands (and so of their tails)
        rng = random.Random(20261019)
        shapes = [lam for w in range(13) for lam in _partitions_of(w)]
        for _ in range(40):
            cold_symfunc()
            pairs = _seeded_pairs(rng, shapes)
            for _, lam in pairs:
                if rng.random() < built_share:
                    schur(lam)
            assert schur_sum(pairs) == _schur_sum_ref(pairs), pairs
            _assert_memo_is_true()

    def test_schur_sum_edge_cases(self, cold_symfunc):
        assert schur_sum([]) == SparsePoly.zero()
        assert schur_sum([(3, ())]) == SparsePoly.constant(3)
        assert schur_sum([(2, (0, 0)), (-2, ())]) == SparsePoly.zero()
        # repeated shapes add up, with and without trailing zeros
        assert schur_sum([(1, (2, 1)), (1, (2, 1, 0)), (-3, [2, 1])]) == -schur((2, 1))
        # the members cancel, and so do the bucketed tails: (3,1) and (2,2)
        # share the tail S_1 at h_3 with opposite signs
        assert schur_sum([(1, (3, 2)), (-1, (3, 2, 0))]) == SparsePoly.zero()
        for pairs in ([(1, (3, 1)), (1, (2, 2))], [(1, (3, 1)), (-1, (2, 2))]):
            cold_symfunc()
            assert schur_sum(pairs) == _schur_sum_ref(pairs)
        _assert_memo_is_true()

    @pytest.mark.parametrize("warm", [False, True])
    def test_schur_sum_mixes_tall_and_wide(self, cold_symfunc, warm):
        # tall shapes go through omega as one group, a shape next to its
        # conjugate included
        pairs = [(1, (3, 1)), (2, (1, 1, 1, 1)), (-1, (2, 1, 1, 1)),
                 (1, (2, 2, 1, 1, 1)), (3, (4,)), (-2, (2, 1, 1)),
                 (1, (5, 2, 1)), (1, (3, 2, 1, 1, 1))]
        if warm:
            for _, lam in pairs[::2]:
                schur(lam)
        assert schur_sum(pairs) == _schur_sum_ref(pairs)
        _assert_memo_is_true()

    def test_schur_q(self):
        for w in range(9):
            for lam in _strict_partitions_of(w):
                got = schur_q(lam)
                assert got == _schur_q_ref(lam)
                assert schur_q(lam + (0,)) is got

    def test_qq_pair(self):
        for w in range(9):
            for lam in _strict_partitions_of(w):
                if 1 <= len(lam) <= 2:
                    m, n = (lam + (0, 0))[:2]
                    assert qq_pair(m, n) == _pair_ref(m, n)
                    assert qq_pair(n, m) == _pair_ref(n, m)
                    assert qq_pair(m, n) is qq_pair(m, n)

    def test_caller_cannot_change_a_cached_value(self):
        first = schur((2, 1))
        with pytest.raises(TypeError):
            first.terms[()] = Fraction(1)
        with pytest.raises(AttributeError):
            first.terms = {}
        for derived in (first + 1, -first, first * 2,
                        first.substitute({tvar(1): _t(2)})):
            assert derived is not first
        assert str(schur((2, 1))) == "1/3*t1^3 - t3"


def _conjugate(lam):
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0] if lam else 0))


class TestSchurSumOverQ:
    """schur_sum in the family S, S_lam[q](s): the Jacobi-Trudi determinant
    over q_n(s), whose reading through subst_q_u is subst_odd of S_lam(t)."""

    @pytest.mark.parametrize("built_share", [0, 0.5])
    def test_seeded_combinations_against_subst_odd(self, cold_symfunc, built_share):
        # signed sums of up to six shapes of weight <= 10, tall and wide,
        # some repeated with trailing zeros; from a cold memo, or one that
        # holds a seeded share of the summands in the family S
        rng = random.Random(20261020)
        shapes = [lam for w in range(11) for lam in _partitions_of(w)]
        for _ in range(30):
            cold_symfunc()
            pairs = _seeded_pairs(rng, shapes)
            for _, lam in pairs:
                if rng.random() < built_share:
                    schur_sum([(1, lam)], S)
            got = schur_sum(pairs, S)
            assert subst_q_u(got) == subst_odd(schur_sum(pairs)), pairs
            assert got == _schur_sum_ref(pairs, S), pairs
            _assert_memo_is_true()

    def test_conjugate_shapes_agree(self, cold_symfunc):
        # omega fixes every q_n, so S_lam'[q] = S_lam[q]: once from a cold
        # memo, once from the memo the first pass filled
        shapes = [lam for w in range(11) for lam in _partitions_of(w)]
        for _ in range(2):
            for lam in shapes:
                assert schur_sum([(1, lam)], S) == \
                    schur_sum([(1, _conjugate(lam))], S), lam
        _assert_memo_is_true()

    def test_families_keep_separate_memos(self, cold_symfunc):
        import schurq.symfunc
        t_sum = schur_sum([(1, (2, 1))])
        s_sum = schur_sum([(1, (2, 1))], S)
        assert {v[0] for v in t_sum.variables()} == {T}
        assert {v[0] for v in s_sum.variables()} == {S}
        assert schurq.symfunc._SCHURS[T][(2, 1)] is t_sum
        assert schurq.symfunc._SCHURS[S][(2, 1)] is s_sum
        assert schur((2, 1)) is t_sum

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match="family"):
            schur_sum([(1, (1,))], Z)


def _pf_unmemoized(rows, active):
    """First-row Pfaffian expansion over a tuple of active indices, with
    no memo."""
    if not active:
        return SparsePoly.constant(1)
    first, rest = active[0], active[1:]
    acc = SparsePoly.zero()
    for pos, j in enumerate(rest):
        if not rows[first][j].is_zero():
            term = rows[first][j] * _pf_unmemoized(rows, rest[:pos] + rest[pos + 1:])
            acc = acc + (term if pos % 2 == 0 else -term)
    return acc


class TestPfaffianMemo:
    def test_random_skew_matrices(self):
        gens = [SparsePoly.zero(), SparsePoly.constant(1), _t(1), _t(2),
                _s(1), _s(3), _t(1) - _s(1)]
        rng = random.Random(7)
        for d in (2, 4, 6, 8):
            for _ in range(12):
                rows = [[SparsePoly.zero()] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i + 1, d):
                        entry = SparsePoly.constant(rng.randint(-3, 3)) * rng.choice(gens)
                        rows[i][j], rows[j][i] = entry, -entry
                assert pfaffian(rows) == _pf_unmemoized(rows, tuple(range(d)))

    def test_every_schur_q_through_weight_10(self):
        for w in range(11):
            for lam in _strict_partitions_of(w):
                parts = lam + (0,) if len(lam) % 2 else lam
                rows = [[qq_pair(a, b) for b in parts] for a in parts]
                assert schur_q(lam) == _pf_unmemoized(rows, tuple(range(len(parts))))

    def test_every_schur_q_cold_through_weight_10(self, cold_symfunc):
        # largest first from an empty cache, so each first-row expansion
        # builds its sub-Pfaffians itself
        for w in range(10, -1, -1):
            for lam in _strict_partitions_of(w):
                parts = lam + (0,) if len(lam) % 2 else lam
                rows = [[qq_pair(a, b) for b in parts] for a in parts]
                assert schur_q(lam) == _pf_unmemoized(rows, tuple(range(len(parts)))), lam


def _substitute_2t2(p):
    """Reference: t_j -> 2 t_{2j} as a relabelling of the terms,
    t^mu -> 2^(sum of exponents) t^(2 mu), which maps no two monomials to
    the same one."""
    return SparsePoly({tuple((tvar(2 * j), e) for (_, j), e in mono):
                       c * 2 ** sum(e for _, e in mono)
                       for mono, c in p.terms.items()})


def _substitute_odd(p):
    """Reference: the even t set to zero through substitute, then the shift."""
    return subst_u(p.substitute({v: SparsePoly.zero() for v in p.variables()
                                 if v[0] == T and v[1] % 2 == 0}))


_ts_atoms = [_t(1), _t(2), _t(3), _t(4), _s(1), _s(3)]
_ts_polys = st.lists(
    st.builds(lambda c, a, b: SparsePoly.constant(c) * a * b,
              st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=6),
                        st.builds(Sqrt2Rational, st.integers(-3, 3), st.integers(-3, 3))),
              st.sampled_from(_ts_atoms), st.sampled_from(_ts_atoms + [_t(1) ** 3])),
    max_size=5).map(lambda ts: sum(ts, SparsePoly.zero()))


class TestSubstitutionAgainstNaive:
    def test_t_substitutions_on_schur(self):
        doubling = {tvar(j): SparsePoly.constant(2) * _t(2 * j) for j in range(1, 7)}
        shift = {tvar(j): _t(j) - _s(j) for j in range(1, 7, 2)}
        odd = {tvar(j): SparsePoly.zero() for j in range(2, 7, 2)}
        odd.update(shift)
        power_sums = [_power_sum_map(n_vars, 6) for n_vars in (1, 2, 3)]
        for w in range(7):
            for lam in _partitions_of(w):
                p = schur(lam)
                assert subst_2t2(p) == _naive_substitute(p, doubling)
                assert subst_u(p) == _naive_substitute(p, shift)
                assert subst_odd(p) == _naive_substitute(p, odd)
                for n_vars, mapping in enumerate(power_sums, 1):
                    assert power_sum_specialize(p, n_vars) == \
                        _naive_substitute(p, mapping)

    def test_relabel_and_filter_on_schur_through_weight_8(self):
        for w in range(9):
            for lam in _partitions_of(w):
                p = schur(lam)
                assert subst_2t2(p) == _substitute_2t2(p)
                assert subst_odd(p) == _substitute_odd(p)

    @settings(max_examples=80, deadline=None)
    @given(_ts_polys)
    def test_relabel_and_filter_on_random_polynomials(self, p):
        assert subst_odd(p) == _substitute_odd(p)
        t_part = p.vanish([svar(1), svar(3)])
        assert subst_2t2(t_part) == _substitute_2t2(t_part)
        if t_part != p:
            with pytest.raises(ValueError):
                subst_2t2(p)

    def test_q_shift_on_schur_q(self):
        shift = {svar(j): _t(j) - _s(j) for j in range(1, 7, 2)}
        for w in range(7):
            for lam in _strict_partitions_of(w):
                p = schur_q(lam)
                assert subst_q_u(p) == _naive_substitute(p, shift)


class TestSubstituteAtRealSizes:
    """The int-numerator kernel against the SparsePoly-arithmetic reference
    on the polynomials the checks substitute."""

    @staticmethod
    def _empty_q_sum(m, n):
        return _linear_sum((delta0(mu, m), schur(bar_quotient(mu).q1))
                           for mu in enumerate_added(bar_core(-m), 0, n)
                           if not bar_quotient(mu).q0)

    @staticmethod
    def _odd_shift(p):
        return {v: _t(v[1]) - _s(v[1]) for v in p.variables()
                if v[0] == T and v[1] % 2}

    @pytest.mark.parametrize("m, n", [(5, 5), (6, 6)])
    def test_main2_right_side(self, m, n):
        p = self._empty_q_sum(m, n)
        assert subst_u(p) == _substitute_on_polys(p, self._odd_shift(p))

    @pytest.mark.parametrize("m, n", [(5, 5), (6, 6)])
    def test_trapezoid_left_side(self, m, n):
        p = schur_q(tuple(range(m, m - n, -1)))
        shift = {v: _t(v[1]) - _s(v[1]) for v in p.variables()}
        assert subst_q_u(p) == _substitute_on_polys(p, shift)

    def test_trapezoid_right_side(self):
        p = self._empty_q_sum(5, 5)
        odd = p.vanish(v for v in p.variables() if v[0] == T and v[1] % 2 == 0)
        assert subst_odd(p) == _substitute_on_polys(odd, self._odd_shift(odd))

    def test_power_sums_on_bialternant_shapes(self):
        for n_vars in (1, 2, 3):
            mapping = _power_sum_map(n_vars, 6)
            for w in range(7):
                for lam in _partitions_of(w):
                    if len(lam) <= 3:
                        p = schur(lam)
                        assert power_sum_specialize(p, n_vars) == \
                            _substitute_on_polys(p, mapping), (lam, n_vars)


class TestSympyOracle:
    """S_lam and Q_lam in finitely many variables x, computed by sympy from
    their classical definitions, against the t- and s-polynomials read
    through t_k = p_k/k and s_k = 2 p_k/k (p_k the power sums).  With 5
    variables p_1..p_5 are algebraically independent, and with 3 so are
    p_1, p_3, p_5, so equality up to weight 5 is equality of polynomials."""

    @staticmethod
    def _read(p, ring_, gens):
        power = lambda k: sum((x ** k for x in gens), ring_.zero)
        out = ring_.zero
        for mono, coeff in p.terms.items():
            term = ring_(coeff.numerator) / coeff.denominator
            for (family, k), e in mono:
                scale = Fraction(1, k) if family == T else Fraction(2, k)
                term *= (power(k) * ring_(scale.numerator) / scale.denominator) ** e
            out += term
        return out

    def test_schur_is_the_bialternant(self):
        sympy = pytest.importorskip("sympy")
        from itertools import permutations
        from sympy.combinatorics import Permutation
        from sympy.polys.rings import ring
        n_vars = 5
        ring_, *xs = ring(["x%d" % i for i in range(1, n_vars + 1)], sympy.QQ)

        def alternant(exps):
            total = ring_.zero
            for perm in permutations(range(n_vars)):
                term = ring_(Permutation(list(perm)).signature())
                for i, e in enumerate(exps):
                    term *= xs[perm[i]] ** e
                total += term
            return total

        vandermonde = alternant(range(n_vars - 1, -1, -1))
        for w in range(6):
            for lam in _partitions_of(w):
                padded = lam + (0,) * (n_vars - len(lam))
                want = alternant([padded[j] + n_vars - 1 - j
                                  for j in range(n_vars)]).exquo(vandermonde)
                assert self._read(schur(lam), ring_, xs) == want

    def test_schur_q_is_the_symmetrized_product(self):
        # Q_lam = 2^l sum over w in S_N/S_(N-l) of
        # w(x^lam prod_{i<=l, i<j} (x_i + x_j)/(x_i - x_j))
        sympy = pytest.importorskip("sympy")
        from itertools import permutations
        from sympy.polys.fields import field
        n_vars = 3
        field_, *xs = field(["x%d" % i for i in range(1, n_vars + 1)], sympy.QQ)
        for w in range(6):
            for lam in _strict_partitions_of(w):
                total = field_.zero
                for head in permutations(range(n_vars), len(lam)):
                    order = list(head) + [j for j in range(n_vars) if j not in head]
                    ys = [xs[k] for k in order]
                    term = field_.one
                    for i, part in enumerate(lam):
                        term *= ys[i] ** part
                        for j in range(i + 1, n_vars):
                            term *= (ys[i] + ys[j]) / (ys[i] - ys[j])
                    total += term
                want = total * 2 ** len(lam)
                assert want.denom == 1
                got = self._read(schur_q(lam), field_.ring, [x.numer for x in xs])
                assert got == want.numer
