"""Tests for the exact scalar ring Q(sqrt2) and the sparse polynomial ring."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurq.exactalg
from schurq.exactalg import (ONE, SQRT2, ZERO, Z, SparsePoly, Sqrt2Rational,
                             _LIMIT, _linear_sum, _pack,
                             _render_product, _sqrt2_pow_parts,
                             _sum_of_products, _unpack, svar, tvar, var_name,
                             zvar)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.builds(Sqrt2Rational, fractions, fractions)


def random_polys():
    coeff = st.one_of(st.integers(min_value=-6, max_value=6), scalars)
    atom = st.sampled_from([SparsePoly.variable(tvar(1)),
                            SparsePoly.variable(tvar(2)),
                            SparsePoly.variable(tvar(3)),
                            SparsePoly.variable(svar(1)),
                            SparsePoly.variable(svar(3)),
                            SparsePoly.variable(zvar(1))])
    term = st.builds(lambda c, a, e: SparsePoly.constant(c) * a ** e,
                     coeff, atom, st.integers(min_value=0, max_value=3))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum(ts, SparsePoly.zero()))


polys = random_polys()


# ---------------------------------------------------------------------------
# scalar ring
# ---------------------------------------------------------------------------

class TestSqrt2Rational:
    def test_construction_and_equality(self):
        assert Sqrt2Rational(3) == Sqrt2Rational(3, 0) == 3
        assert Sqrt2Rational(Fraction(1, 2)) == Fraction(1, 2)
        assert Sqrt2Rational(1, 1) != Sqrt2Rational(1, -1)
        assert ZERO.is_zero() and not ONE.is_zero() and not SQRT2.is_zero()

    def test_float_components_rejected(self):
        # a float such as 0.1 is not the rational it looks like
        with pytest.raises(TypeError):
            Sqrt2Rational(0.1)
        with pytest.raises(TypeError):
            Sqrt2Rational(1, 0.5)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.a = Fraction(2)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == 2
        assert SQRT2 ** 2 == Sqrt2Rational(2)
        assert SQRT2 ** 3 == Sqrt2Rational(0, 2)

    def test_sqrt2_pow_negative(self):
        assert Sqrt2Rational.sqrt2_pow(-1) == Sqrt2Rational(0, Fraction(1, 2))
        assert Sqrt2Rational.sqrt2_pow(-2) == Fraction(1, 2)
        assert Sqrt2Rational.sqrt2_pow(0) == 1
        for k in range(-6, 7):
            assert Sqrt2Rational.sqrt2_pow(k) * Sqrt2Rational.sqrt2_pow(-k) == 1

    def test_sqrt2_pow_parts(self):
        for k in range(-9, 10):
            for c in (1, -3, Fraction(5, 4), Fraction(-1, 6)):
                p, q, d = _sqrt2_pow_parts(k, c)
                assert d > 0
                assert Sqrt2Rational(Fraction(p, d), Fraction(q, d)) == \
                    c * Sqrt2Rational.sqrt2_pow(k)

    def test_inverse(self):
        x = Sqrt2Rational(3, 2)  # 3 + 2*sqrt2, norm 1
        assert x.inv() == Sqrt2Rational(3, -2)
        assert x * x.inv() == 1
        with pytest.raises(ZeroDivisionError):
            ZERO.inv()

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            "x" - SQRT2

    def test_rational_scalar_hashes_as_its_fraction(self):
        assert hash(Sqrt2Rational(3)) == hash(3)
        assert hash(Sqrt2Rational(Fraction(-1, 2))) == hash(Fraction(-1, 2))
        assert len({Sqrt2Rational(3), 3}) == 1
        assert len({Sqrt2Rational(3), Sqrt2Rational(3, 1)}) == 2

    def test_scalar_helpers(self):
        assert SQRT2 * SQRT2 == 2
        assert SQRT2.inv() == Sqrt2Rational(0, Fraction(1, 2))

    def test_division(self):
        assert (ONE + SQRT2) / (ONE + SQRT2) == 1
        assert SQRT2 / 2 == Sqrt2Rational(0, Fraction(1, 2))

    def test_mixed_arithmetic_with_ints_and_fractions(self):
        assert 1 + SQRT2 == Sqrt2Rational(1, 1)
        assert Fraction(1, 2) * SQRT2 == Sqrt2Rational(0, Fraction(1, 2))
        assert 2 - SQRT2 == Sqrt2Rational(2, -1)

    def test_rendering(self):
        assert str(Sqrt2Rational(5)) == "5"
        assert str(Sqrt2Rational(Fraction(-1, 3))) == "-1/3"
        assert str(Sqrt2Rational(1, 1)) == "(1+1*r2)"
        assert str(Sqrt2Rational(0, -2)) == "(0-2*r2)"
        assert str(Sqrt2Rational(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4*r2)"

    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO

    @given(scalars)
    def test_inverse_roundtrip(self, x):
        if not x.is_zero():
            assert x * x.inv() == ONE
            assert (x.inv()).inv() == x

    @given(scalars)
    def test_irrationality_split(self, x):
        # a + b*sqrt2 = 0 only when a = b = 0, so equality is componentwise
        if x == ZERO:
            assert x.a == 0 and x.b == 0


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------

class TestVariables:
    def test_families(self):
        assert var_name(tvar(3)) == "t3"
        assert var_name(svar(5)) == "s5"
        assert var_name(zvar(2)) == "z2"

    def test_index_validation(self):
        with pytest.raises(ValueError):
            tvar(0)
        with pytest.raises(ValueError):
            svar(2)  # s-variables carry odd indices only
        with pytest.raises(ValueError):
            zvar(-1)

    # variables of no family, or with an index that tvar, svar or zvar
    # rejects: packing one is a ValueError that names it, whether or not
    # any slot exists, and no slot table grows
    MALFORMED = [(3, 1), ("t", 1), (0, 0), (0, -1), (1, 2), (2, 0), (0, 2.0),
                 (True, 1), 5]
    NAMES = ["(3, 1)", "('t', 1)", "t0", "t-1", "s2", "z0", "t2.0", "(True, 1)", "5"]
    REJECT = ("from schurq.exactalg import SparsePoly, _NAMES, _SLOTS, _VARS, _WEIGHTS\n"
              "sizes = [len(table) for table in (_SLOTS, _VARS, _WEIGHTS, _NAMES)]\n"
              "errors = []\n"
              "for v in MALFORMED:\n"
              "    try:\n"
              "        SparsePoly.variable(v)\n"
              "    except ValueError as exc:\n"
              "        errors.append(str(exc))\n"
              "assert sizes == [len(table) for table in (_SLOTS, _VARS, _WEIGHTS, _NAMES)]\n")

    def _errors(self):
        scope = {"MALFORMED": self.MALFORMED}
        exec(self.REJECT, scope)
        return scope["sizes"], scope["errors"]

    def test_malformed_variables_rejected_warm(self):
        SparsePoly.variable(tvar(2))  # (0, 2.0) is an equal key with a slot
        sizes, errors = self._errors()
        assert sizes[0] > 0
        assert len(errors) == len(self.NAMES)
        for error, name in zip(errors, self.NAMES):
            assert error.startswith(name + " is not a variable")

    def test_malformed_variables_rejected_cold(self):
        # a fresh process, before any slot exists: the same errors
        script = "MALFORMED = %r\n%sassert sizes == [0] * 4\nprint(repr(errors))\n" % (
            self.MALFORMED, self.REJECT)
        src = os.path.dirname(os.path.dirname(schurq.exactalg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(self._errors()[1])

    def test_svar_odd_only(self):
        assert var_name(svar(1)) == "s1"
        assert var_name(svar(7)) == "s7"


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

class TestSparsePoly:
    def test_zero_and_constant(self):
        assert SparsePoly.zero().is_zero()
        assert SparsePoly.constant(0).is_zero()
        assert SparsePoly.constant(3) == SparsePoly.constant(3)
        assert str(SparsePoly.zero()) == "0"
        assert str(SparsePoly.constant(Fraction(-2, 3))) == "-2/3"

    def test_rendering_contract(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        s1, s3 = SparsePoly.variable(svar(1)), SparsePoly.variable(svar(3))
        half = SparsePoly.constant(Fraction(1, 2))
        sixth = SparsePoly.constant(Fraction(1, 6))
        assert str(half * t1 ** 2 + t2) == "1/2*t1^2 + t2"
        assert str(sixth * s1 ** 3 - SparsePoly.constant(2) * s3) == "1/6*s1^3 - 2*s3"
        assert str(SparsePoly.constant(Sqrt2Rational(1, 1)) * s1) == "(1+1*r2)*s1"
        assert str(t1 - t1) == "0"
        assert str(-t1) == "-t1"
        assert str(t2 - t1 ** 2) == "-t1^2 + t2"  # higher degree first

    def test_unit_coefficient_omitted(self):
        t1 = SparsePoly.variable(tvar(1))
        assert str(t1) == "t1"
        assert str(SparsePoly.constant(-1) * t1) == "-t1"
        assert str(SparsePoly.constant(SQRT2) * t1) == "(0+1*r2)*t1"

    def test_rational_coefficients_are_canonical(self):
        t1 = SparsePoly.variable(tvar(1))
        forms = [SparsePoly.constant(c) * t1
                 for c in (3, Fraction(3), Sqrt2Rational(3, 0))]
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(p) for p in forms}) == 1
        assert all(type(c) is Fraction for p in forms for c in p.terms.values())

    def test_sqrt2_coefficients_survive_and_cancel(self):
        s1 = SparsePoly.variable(svar(1))
        half_root = SparsePoly.constant(SQRT2 / 2) * s1
        assert str(half_root) == "(0+1/2*r2)*s1"
        assert str(half_root * half_root) == "1/2*s1^2"
        assert (half_root - half_root).is_zero()
        assert (half_root + s1 - half_root) == s1
        assert SparsePoly({((svar(1), 1),): Sqrt2Rational(0, 0)}).is_zero()

    def test_immutable(self):
        p = SparsePoly.variable(tvar(1))
        for name in ("terms", "_terms", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, {})
        with pytest.raises(TypeError):
            p.terms[()] = Fraction(1)
        assert str(p) == "t1"

    def test_unsupported_operand_raises_type_error(self):
        t1 = SparsePoly.variable(tvar(1))
        with pytest.raises(TypeError):
            "x" - t1
        with pytest.raises(TypeError):
            t1 + "x"

    def test_constant_hashes_as_its_coefficient(self):
        assert hash(SparsePoly.constant(3)) == hash(3)
        assert len({SparsePoly.constant(3), 3}) == 1
        assert hash(SparsePoly.constant(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert hash(SparsePoly.constant(SQRT2)) == hash(SQRT2)
        assert hash(SparsePoly.zero()) == hash(0)

    def test_exponent_past_the_slot_raises(self):
        top = SparsePoly({((tvar(1), _LIMIT - 1),): 1})
        assert str(top) == "t1^%d" % (_LIMIT - 1)
        with pytest.raises(OverflowError):
            SparsePoly({((tvar(1), _LIMIT),): 1})
        with pytest.raises(ValueError):
            SparsePoly({((tvar(1), -1),): 1})

    def test_product_overflow_raises_and_never_carries(self):
        half = SparsePoly({((svar(1), _LIMIT // 2),): 1})
        with pytest.raises(OverflowError):
            half * half
        top = SparsePoly({((svar(1), _LIMIT - 1),): 1})
        with pytest.raises(OverflowError):
            top * (SparsePoly.variable(svar(1)) + SparsePoly.variable(svar(3)))
        # a full slot next to an empty one: the neighbour stays empty
        assert (top * SparsePoly.variable(svar(3))).variables() == {svar(1), svar(3)}

    def test_weighted_degree(self):
        t1, t3 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(3))
        s5 = SparsePoly.variable(svar(5))
        z2 = SparsePoly.variable(zvar(2))
        assert (t1 ** 3).weighted_degree() == 3
        assert t3.weighted_degree() == 3
        assert (t3 * s5).weighted_degree() == 8
        assert (z2 ** 4).weighted_degree() == 4  # z-variables weigh their exponent
        assert SparsePoly.zero().weighted_degree() is None
        assert SparsePoly.constant(7).weighted_degree() == 0

    def test_is_homogeneous(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        assert (t1 ** 2 + t2).is_homogeneous()
        assert not (t1 + t2).is_homogeneous()
        assert SparsePoly.zero().is_homogeneous()

    def test_degree_with_cleared_memo(self):
        # the degree is read from the memoized sort key, so a cold memo must
        # rebuild it, for a monomial first seen here and for one seen before
        t1, t3 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(3))
        z2 = SparsePoly.variable(zvar(2))
        str(t3 * z2)
        schurq.exactalg._mono_text.cache_clear()
        assert (t3 * z2 ** 3).weighted_degree() == 6
        assert (t3 * z2).weighted_degree() == 4
        assert (t1 ** 3 + t3).is_homogeneous()
        assert not (t1 ** 3 + t3 * z2).is_homogeneous()
        assert SparsePoly.constant(7).weighted_degree() == 0

    def test_pow(self):
        t1 = SparsePoly.variable(tvar(1))
        assert (t1 + 1) ** 0 == SparsePoly.constant(1)
        assert (t1 + 1) ** 2 == t1 ** 2 + SparsePoly.constant(2) * t1 + 1
        with pytest.raises(ValueError):
            (t1 + 1) ** -1

    def test_substitute(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        s1 = SparsePoly.variable(svar(1))
        p = t1 ** 2 + t2
        q = p.substitute({tvar(1): t1 - s1})
        assert q == (t1 - s1) ** 2 + t2
        # untouched variables pass through
        assert p.substitute({svar(1): SparsePoly.zero()}) == p

    def test_substitute_overflow_raises_and_never_carries(self):
        t1, t2, t3 = (SparsePoly.variable(tvar(j)) for j in (1, 2, 3))
        # t1**4 -> t1**80000 passes the slot inside the power table; a
        # carry would leave t1^14464*t2^2
        with pytest.raises(OverflowError):
            (t1 ** 4 * t2).substitute({tvar(1): t1 ** 20000})
        # the pass-through t3 overflows in the first of two products, which
        # the second would carry out of the slot
        with pytest.raises(OverflowError):
            (t1 * t2 * t3 ** 20000).substitute({tvar(1): t3 ** 20000,
                                                tvar(2): t3 ** 30000})
        # ... and in the last product, straight into the sum
        with pytest.raises(OverflowError):
            (t1 * t3 ** 20000).substitute({tvar(1): t3 ** 20000})

    def test_substitution_is_simultaneous(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        assert (t1 ** 2 * t2).substitute({tvar(1): t2, tvar(2): t1}) == t1 * t2 ** 2

    def test_substitute_image_with_a_pass_through_variable(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        got = (t1 ** 2 * t2 ** 3).substitute({tvar(1): t1 + t2})
        assert got == t2 ** 5 + SparsePoly.constant(2) * t1 * t2 ** 4 + t1 ** 2 * t2 ** 3

    def test_substitute_edge_cases(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        s3 = SparsePoly.variable(svar(3))
        p = SparsePoly.constant(Fraction(2, 3)) * t1 * t2 - t2 ** 2
        # a mapped variable absent from p, slotted or never used anywhere
        assert p.substitute({svar(3): t1, tvar(9871): t2}) == p
        assert tvar(9871) not in schurq.exactalg._SLOTS
        assert SparsePoly.zero().substitute({tvar(1): s3}) == SparsePoly.zero()
        for c in (Fraction(-3, 4), Sqrt2Rational(1, Fraction(-1, 2))):
            assert SparsePoly.constant(c).substitute({tvar(1): s3}) == \
                SparsePoly.constant(c)
        # scalar images, zero among them
        assert p.substitute({tvar(1): Fraction(1, 2)}) == \
            SparsePoly.constant(Fraction(1, 3)) * t2 - t2 ** 2
        assert p.substitute({tvar(1): 0}) == -t2 ** 2
        assert p.substitute({tvar(2): SparsePoly.zero()}).is_zero()

    def test_substitute_sqrt2_coefficients_and_images(self):
        t1, t2, s1 = (SparsePoly.variable(v) for v in (tvar(1), tvar(2), svar(1)))
        r2 = SparsePoly.constant(SQRT2)
        p = (r2 * t1 ** 2 * s1 + SparsePoly.constant(Fraction(1, 3)) * t1 * s1 ** 2
             - SparsePoly.constant(Sqrt2Rational(Fraction(1, 2), 5)) * t1 ** 3 * t2 + s1)
        mapping = {tvar(1): r2 * t1 - SparsePoly.constant(Fraction(1, 2)) * s1,
                   svar(1): SparsePoly.constant(Sqrt2Rational(1, 1) / 3) * t2}
        got = p.substitute(mapping)
        want = _ref_substitute(dict(p.terms), {v: dict(image.terms)
                                               for v, image in mapping.items()})
        assert dict(got.terms) == want
        assert any(isinstance(c, Sqrt2Rational) for c in want.values())

    def test_evaluate(self):
        t1, t2 = SparsePoly.variable(tvar(1)), SparsePoly.variable(tvar(2))
        p = SparsePoly.constant(Fraction(1, 2)) * t1 ** 2 + t2
        val = p.evaluate({tvar(1): Sqrt2Rational(0, 1), tvar(2): Sqrt2Rational(3)})
        assert val == Sqrt2Rational(4)  # (sqrt2)^2/2 + 3
        with pytest.raises(ValueError):
            p.evaluate({tvar(1): ONE})  # t2 missing

    def test_operators_and_methods(self):
        t1 = SparsePoly.variable(tvar(1))
        assert t1 + t1 == SparsePoly.constant(2) * t1
        assert t1 * t1 == t1 ** 2
        assert t1.substitute({tvar(1): t1 + 1}) == t1 + 1
        assert t1.evaluate({tvar(1): SQRT2}) == SQRT2
        assert t1.weighted_degree() == 1

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == SparsePoly.zero()
        assert p * SparsePoly.zero() == SparsePoly.zero()

    @settings(max_examples=60)
    @given(polys, polys)
    def test_evaluation_is_a_homomorphism(self, p, q):
        point = {v: Sqrt2Rational(i + 2, 1) for i, v in
                 enumerate(sorted(p.variables() | q.variables()))}
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    @settings(max_examples=40)
    @given(polys)
    def test_substitution_then_evaluation(self, p):
        # substituting t1 -> t1 - s1 then evaluating equals evaluating the
        # original at the shifted point
        t1, s1 = tvar(1), svar(1)
        shifted = p.substitute({t1: SparsePoly.variable(t1) - SparsePoly.variable(s1)})
        point = {v: Sqrt2Rational(3, -1) for v in p.variables() | {t1, s1}}
        moved = dict(point)
        moved[t1] = point[t1] - point[s1]
        assert shifted.evaluate(point) == p.evaluate(moved)

    @settings(max_examples=40)
    @given(polys)
    def test_str_round_trip_stability(self, p):
        # rendering is deterministic and equality-respecting
        assert str(p) == str(p + SparsePoly.zero())


# ---------------------------------------------------------------------------
# differential test: the packed-int kernel against tuple monomials and
# Fraction / Sqrt2Rational coefficients
# ---------------------------------------------------------------------------

def _ref_clean(terms):
    """Drop zeros; a coefficient is a Fraction unless its sqrt2 part is
    nonzero."""
    out = {}
    for mono, coeff in terms.items():
        coeff = Sqrt2Rational(0) + coeff
        if not coeff.is_zero():
            out[mono] = coeff if coeff.b else coeff.a
    return out


def _ref_add(p, q, sign=1):
    out = dict(p)
    for mono, coeff in q.items():
        out[mono] = out.get(mono, 0) + sign * coeff
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return _ref_clean(out)


def _ref_substitute(p, mapping):
    out = {}
    for mono, coeff in p.items():
        term = {(): coeff}
        for v, e in mono:
            for _ in range(e):
                term = _ref_mul(term, mapping.get(v, {((v, 1),): Fraction(1)}))
        out = _ref_add(out, term)
    return out


def _ref_str(p):
    def degree(mono):
        return sum(e if fam == Z else idx * e for (fam, idx), e in mono)

    chunks = []
    for mono, coeff in sorted(p.items(), key=lambda kv: (
            -degree(kv[0]), tuple((v, -e) for v, e in kv[0]))):
        mono_str = "*".join(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e)
                            for v, e in mono)
        negative = isinstance(coeff, Fraction) and coeff < 0
        mag = abs(coeff) if isinstance(coeff, Fraction) else coeff
        if mono_str and mag == 1:
            body = mono_str
        else:
            body = "%s*%s" % (mag, mono_str) if mono_str else str(mag)
        sep = ("-" if negative else "") if not chunks else (" - " if negative else " + ")
        chunks.append(sep + body)
    return "".join(chunks) or "0"


_VARS = [tvar(1), tvar(2), tvar(3), svar(1), svar(3), zvar(1)]
monomials = st.dictionaries(st.sampled_from(_VARS), st.integers(1, 3),
                            max_size=3).map(lambda d: tuple(sorted(d.items())))
term_dicts = st.dictionaries(
    monomials, st.one_of(st.integers(min_value=-6, max_value=6), scalars),
    max_size=5)
point_values = st.one_of(st.integers(min_value=-6, max_value=6), fractions, scalars)


# variables slotted in this order the first time a test needs them: z and s
# before t, and each family against its index order; no other test uses them
_LATE_VARS = [zvar(1202), svar(1203), zvar(1201), tvar(1202), svar(1201),
              tvar(1201)]


def _slot_late_vars():
    for v in _LATE_VARS:
        SparsePoly.variable(v)
    slots = schurq.exactalg._SLOTS
    assert [slots[v] for v in _LATE_VARS] == sorted(slots[v] for v in _LATE_VARS)


def _mono_text_ref(m):
    """The sort key and the text of a packed monomial, read through _unpack:
    (-deg, fam1, idx1, -e1, ...) over the variables in order, and the
    variable names joined by '*'."""
    key, deg, parts = [0], 0, []
    for v, e in _unpack(m):
        deg += e if v[0] == Z else v[1] * e
        key += (v[0], v[1], -e)
        parts.append(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e))
    key[0] = -deg
    return tuple(key), "*".join(parts)


def _ref_evaluate(p, point):
    """Term-by-term evaluation in Sqrt2Rational arithmetic."""
    total = ZERO
    for mono, coeff in p.terms.items():
        val = Sqrt2Rational._promote(coeff)
        for v, e in mono:
            if v not in point:
                raise ValueError("no value assigned to %s" % var_name(v))
            val = val * (Sqrt2Rational._promote(point[v]) ** e)
        total = total + val
    return total


class TestAgainstReferenceKernel:
    # no deadline: the reference substitution of cubes of 5-term images can
    # take longer than Hypothesis' default 200 ms on a loaded host
    @settings(max_examples=80, deadline=None)
    @given(term_dicts, term_dicts, term_dicts, term_dicts)
    def test_operations_match(self, a, b, image_t, image_s):
        p, q = SparsePoly(a), SparsePoly(b)
        ref_p, ref_q = _ref_clean(a), _ref_clean(b)
        assert dict(p.terms) == ref_p
        results = [(p * q, _ref_mul(ref_p, ref_q)),
                   (p + q, _ref_add(ref_p, ref_q)),
                   (p - q, _ref_add(ref_p, ref_q, -1)),
                   (p.substitute({tvar(1): SparsePoly(image_t),
                                  svar(1): SparsePoly(image_s)}),
                    _ref_substitute(ref_p, {tvar(1): _ref_clean(image_t),
                                            svar(1): _ref_clean(image_s)}))]
        for got, want in results:
            assert dict(got.terms) == want
            assert str(got) == _ref_str(want)
            rebuilt = SparsePoly(want)
            assert rebuilt == got and hash(rebuilt) == hash(got)
        assert hash(p * q) == hash(q * p)
        assert hash((p + q) - q) == hash(p)

    @settings(max_examples=80)
    @given(term_dicts)
    def test_memoized_rendering_matches(self, a):
        # the per-monomial text memo, cold and warm, against the reference
        p = SparsePoly(a)
        want = _ref_str(_ref_clean(a))
        schurq.exactalg._mono_text.cache_clear()
        assert str(p) == want
        assert str(p) == want
        assert str(SparsePoly(a)) == want

    @settings(max_examples=80)
    @given(st.lists(st.dictionaries(st.sampled_from(_VARS + _LATE_VARS),
                                    st.integers(1, 12), min_size=0, max_size=5),
                    min_size=1, max_size=8))
    def test_monomial_text_from_family_parts(self, monos):
        # _mono_text and its per-family part memo, both cleared, then cold
        # and warm, against the reference read through _unpack; _LATE_VARS
        # got their slots with z and s before t, and against index order
        # within each family
        _slot_late_vars()
        packed = [_pack(tuple(sorted(d.items()))) for d in monos]
        want = [_mono_text_ref(m) for m in packed]
        schurq.exactalg._mono_text.cache_clear()
        schurq.exactalg._family_part.cache_clear()
        assert [schurq.exactalg._mono_text(m) for m in packed] == want
        assert [schurq.exactalg._mono_text(m) for m in packed] == want
        # a cold monomial memo over warm parts
        schurq.exactalg._mono_text.cache_clear()
        assert [schurq.exactalg._mono_text(m) for m in packed] == want

    def test_rendering_ignores_slot_order(self):
        # a t-variable slotted after s1 and z1 must still sort before them:
        # a key read from slot offsets would put s1^(k+1) first
        t1, s1, z1 = (SparsePoly.variable(v) for v in (tvar(1), svar(1), zvar(1)))
        str(s1 * z1 + s1 ** 2 + t1 * z1)
        slots = schurq.exactalg._SLOTS
        k = next(j for j in range(50, 1000) if tvar(j) not in slots)
        tk = SparsePoly.variable(tvar(k))
        assert slots[tvar(k)] > max(slots[svar(1)], slots[zvar(1)])
        mixed = [tk * s1 + s1 ** (k + 1) + s1 * z1 ** k + t1 ** k * s1,
                 SparsePoly.constant(Fraction(-2, 3)) * tk * z1 ** 2 - z1 ** (k + 2)
                 + t1 * s1 * tk,
                 tk + s1 ** k - t1 ** k + z1 ** k + SparsePoly.constant(SQRT2) * tk * z1]
        wants = [_ref_str(dict(p.terms)) for p in mixed]
        assert wants[0].startswith("t1^%d*s1 + t%d*s1 + s1^%d" % (k, k, k + 1))
        # a cleared memo, then one that holds the monomials rendered before
        # tk had a slot; each renders cold, then warm
        for before in ([], [s1 * z1 + s1 ** 2 + t1 * z1]):
            schurq.exactalg._mono_text.cache_clear()
            for p in before:
                str(p)
            assert [str(p) for p in mixed] == wants
            assert [str(p) for p in mixed] == wants
            assert [p.weighted_degree() for p in mixed] == [k + 1, k + 2, k + 1]
        schurq.exactalg._mono_text.cache_clear()
        assert [p.weighted_degree() for p in mixed] == [k + 1, k + 2, k + 1]

    @settings(max_examples=80)
    @given(term_dicts, st.sets(st.sampled_from(_VARS)))
    def test_vanish_is_substitution_by_zero(self, a, gone):
        p = SparsePoly(a)
        want = _ref_substitute(_ref_clean(a), {v: {} for v in gone})
        assert dict(p.vanish(gone).terms) == want
        assert p.vanish(gone) == p.substitute({v: 0 for v in gone})

    @settings(max_examples=80)
    @given(term_dicts, st.sets(st.sampled_from(_VARS)))
    def test_flip_is_substitution_by_negation(self, a, flipped):
        p = SparsePoly(a)
        negate = {v: {((v, 1),): Fraction(-1)} for v in flipped}
        assert dict(p.flip(flipped).terms) == _ref_substitute(_ref_clean(a), negate)
        assert p.flip(flipped) == p.substitute(
            {v: -SparsePoly.variable(v) for v in flipped})
        assert p.flip(flipped).flip(flipped) == p

    @settings(max_examples=80)
    @given(term_dicts, st.fixed_dictionaries({v: point_values for v in _VARS}))
    def test_evaluate_matches_reference(self, a, point):
        # every variable of _VARS has a value, so most points have extras
        p = SparsePoly(a)
        got = p.evaluate(point)
        assert isinstance(got, Sqrt2Rational)
        assert got == _ref_evaluate(p, point)

    def test_evaluate_edge_cases(self):
        point = {tvar(1): Fraction(-2, 3), svar(3): Sqrt2Rational(1, -1)}
        for p in (SparsePoly.zero(), SparsePoly.constant(Sqrt2Rational(Fraction(1, 2), 3)),
                  SparsePoly.variable(tvar(1)) ** 3 - 1):
            got = p.evaluate(point)
            assert isinstance(got, Sqrt2Rational) and got == _ref_evaluate(p, point)
        # a variable whose slot sits above the slots of _VARS, which the
        # polynomial leaves unused but for t1
        high = zvar(97)
        p = SparsePoly({((high, 3),): 2, ((tvar(1), 1), (high, 1)): Fraction(1, 5)})
        slots = schurq.exactalg._SLOTS
        assert all(slots[high] > slots[v] for v in _VARS)
        point[high] = SQRT2
        assert p.evaluate(point) == _ref_evaluate(p, point)
        # a missing variable is named
        with pytest.raises(ValueError, match="no value assigned to s3"):
            (SparsePoly.variable(tvar(1)) * SparsePoly.variable(svar(3))).evaluate(
                {tvar(1): 1})


class TestRenderingAtRealSizes:
    """The memoized renderer against the reference on the polynomials the
    checks build, far larger than the hypothesis strategies reach."""

    @staticmethod
    def _assert_renders(polys):
        wants = [_ref_str(dict(p.terms)) for p in polys]
        schurq.exactalg._mono_text.cache_clear()
        assert [str(p) for p in polys] == wants  # cold memo
        assert [str(p) for p in polys] == wants  # warm memo

    def test_schur_functions(self):
        from schurq.symfunc import schur, schur_q, subst_u
        from schurq.verify import _partitions_of, _strict_partitions_of
        self._assert_renders([schur(lam) for w in range(13) for lam in _partitions_of(w)])
        self._assert_renders([schur_q(lam) for w in range(13)
                              for lam in _strict_partitions_of(w)])
        self._assert_renders([subst_u(schur(lam)) for w in range(9)
                              for lam in _partitions_of(w)])

    def test_sectors_of_the_closed_form(self):
        # phi-consistency (0,4,4) lands in the even sector (0, 0); m = 3
        # lands in the odd sector, whose coefficients carry sqrt(2)
        from schurq.fock import phi_closed_form
        from schurq.partitions import bar_core, enumerate_added
        polys = [poly for m in (4, 3) for lam in enumerate_added(bar_core(-m), 0, 4)
                 for poly in phi_closed_form(lam, 0, m, 4).expand().values()]
        assert any(poly._root for poly in polys)
        self._assert_renders(polys)


# ---------------------------------------------------------------------------
# differential test: the fused sum of products against one product per term
# ---------------------------------------------------------------------------

weights = st.integers(min_value=-5, max_value=5)
triples = st.lists(st.tuples(weights, polys, polys), max_size=5)


class TestSumOfProducts:
    @settings(max_examples=80)
    @given(triples, st.integers(min_value=1, max_value=6))
    def test_matches_one_product_per_term(self, ts, den):
        got = _sum_of_products(ts, den)
        want = (_linear_sum((w, a * b) for w, a, b in ts)
                * SparsePoly.constant(Fraction(1, den)))
        assert got == want and str(got) == str(want)
        ref = {}
        for w, a, b in ts:
            ref = _ref_add(ref, _ref_mul(_ref_clean({(): Fraction(w, den)}),
                                         _ref_mul(dict(a.terms), dict(b.terms))))
        assert dict(got.terms) == ref

    def test_edge_cases(self):
        t1, s1 = SparsePoly.variable(tvar(1)), SparsePoly.variable(svar(1))
        root = SparsePoly.constant(Sqrt2Rational(Fraction(1, 3), Fraction(-1, 2))) * s1
        zero = SparsePoly.zero()
        assert _sum_of_products([]) == zero
        assert _sum_of_products([], 7) == zero
        assert _sum_of_products([(3, zero, root), (-2, t1, zero)]) == zero
        assert _sum_of_products([(0, t1, root)]) == zero
        # negative weights, sqrt2 cross terms and a cancelling pair
        got = _sum_of_products([(-2, root, root), (1, t1, root),
                                (-1, root, t1), (5, t1, t1)], 3)
        assert got == (SparsePoly.constant(-2) * root * root
                       + SparsePoly.constant(5) * t1 * t1) * SparsePoly.constant(Fraction(1, 3))
        summed = _linear_sum([(-2, root * root), (1, t1 * root),
                              (-1, root * t1), (5, t1 * t1)])
        assert got == summed * SparsePoly.constant(Fraction(1, 3))


# ---------------------------------------------------------------------------
# differential test: the product renderer against the built product
# ---------------------------------------------------------------------------

class TestRenderProduct:
    """_render_product(w, a, b) renders w*a*b from the two factors' sorted
    terms, for homogeneous rational a in t and b in s."""

    # (p, q, d) for (p + q*sqrt2)/d: signs, fractions, pure and mixed
    # sqrt(2) parts, and parts not in lowest terms
    SCALARS = [(1, 0, 1), (-1, 0, 1), (3, 0, 4), (-5, 0, 6), (0, 1, 1),
               (0, -1, 2), (2, -3, 5), (-1, 1, 3), (6, 4, 4), (4, 0, 2)]

    def test_against_built_product(self):
        from schurq.symfunc import schur, schur_q
        lefts = [schur(lam) for lam in [(), (1,), (2, 1), (3, 1, 1), (2, 2), (4,)]]
        rights = [schur_q(nu) for nu in [(), (1,), (2, 1), (3, 1), (5,)]]
        for memo in ("cold", "warm"):
            if memo == "cold":
                schurq.exactalg._mono_text.cache_clear()
            for p, q, d in self.SCALARS:
                w = SparsePoly.constant(Sqrt2Rational(Fraction(p, d), Fraction(q, d)))
                for a in lefts:
                    for b in rights:
                        assert _render_product((p, q, d), a, b) == str(w * a * b)

    def test_constant_factors_join_with_no_star(self):
        from schurq.symfunc import schur, schur_q
        one = schur(())
        assert _render_product((1, 0, 2), one, schur_q(())) == "1/2"
        assert _render_product((-1, 0, 1), one, schur_q(())) == "-1"
        assert _render_product((0, 1, 2), one, schur_q(())) == "(0+1/2*r2)"
        assert _render_product((1, 0, 1), schur((2, 1)), schur_q(())) == "1/3*t1^3 - t3"
        assert _render_product((0, 1, 1), one, schur_q((1,))) == "(0+1*r2)*s1"
        assert _render_product((-2, 0, 1), schur((1,)), schur_q((1,))) == "-2*t1*s1"
