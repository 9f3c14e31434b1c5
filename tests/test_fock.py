"""Tests for the neutral-fermion Fock space: mode operators, lowering
operators, normal ordering, and the boson image."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq.exactalg import ONE, SQRT2, SparsePoly, Sqrt2Rational
from schurq.partitions import (StrictPartition, bar_core, bar_quotient, color,
                               enumerate_added, stats)
from schurq.symfunc import schur, schur_q
from schurq.fock import (BosonElement, FockVector, NormalWord, _label,
                         beta_apply, core_state_image, f_apply,
                         f_power_normalized, normal_word_image, phi,
                         phi_closed_form, single_node_action, to_normal_words)

P = StrictPartition.from_string

words = st.lists(st.integers(min_value=0, max_value=10), min_size=0,
                 max_size=5, unique=True).map(
    lambda xs: tuple(sorted(xs, reverse=True)))

strict_parts = st.lists(st.integers(min_value=1, max_value=12), min_size=0,
                        max_size=5, unique=True).map(
    lambda xs: StrictPartition(tuple(sorted(xs, reverse=True))))


fock_coeffs = st.sampled_from([ONE, -ONE, Sqrt2Rational(Fraction(1, 2)),
                               Sqrt2Rational(Fraction(-1, 2)), SQRT2, -SQRT2,
                               ONE + SQRT2])

fock_vectors = st.dictionaries(words, fock_coeffs, max_size=4).map(FockVector)

# words drawn with and without the trailing zero mode
padded_words = st.tuples(words, st.booleans()).map(
    lambda wb: tuple(x for x in wb[0] if x) + ((0,) if wb[1] else ()))

padded_vectors = st.dictionaries(padded_words, fock_coeffs, max_size=4).map(FockVector)


def _mode_sum_f_apply(i, vec):
    """F_i as its defining mode sum, cut at |m| <= top // 3 + 2 where top is
    the largest mode in vec: every mode term beyond the cut kills vec."""
    top = max((w[0] for w in vec.terms if w), default=0)
    reach = top // 3 + 2
    out = FockVector.zero()
    for m in range(-reach, reach + 1):
        if i == 0:
            term = beta_apply(3 * m, beta_apply(-3 * m + 1, vec))
            scalar = Sqrt2Rational(0, -1 if m % 2 == 0 else 1)  # sqrt2 * (-1)^(m+1)
        else:
            term = beta_apply(3 * m - 1, beta_apply(-3 * m + 2, vec))
            scalar = Sqrt2Rational(-1 if m % 2 else 1)
        out = out + term.scale(scalar)
    return out


def _ref_beta_word(n, word):
    """Reference: b_n on one tuple word by recursion over its modes; dict
    word -> Fraction coefficient."""
    if not word:
        return {} if n < 0 else {(n,): Fraction(1)}
    head, rest = word[0], word[1:]
    if n > head:
        return {(n,) + word: Fraction(1)}
    if n == head:
        # b_n b_n = (1/2) (-1)^n delta_{2n,0}: only the zero mode survives
        return {rest: Fraction(1, 2)} if n == 0 else {}
    out = {}
    if n == -head:
        out[rest] = Fraction(-1) if head % 2 else Fraction(1)
    for w, c in _ref_beta_word(n, rest).items():
        out[(head,) + w] = -c  # b_head on w (all modes below head) prepends it
    return out


def _ref_beta(n, terms):
    """Reference: b_n on a dict tuple word -> scalar, in Sqrt2Rational and
    Fraction arithmetic."""
    out = {}
    for word, coeff in terms.items():
        for w, c in _ref_beta_word(n, word).items():
            out[w] = out.get(w, 0) + coeff * c
    return out


def _ref_node(p, terms):
    """Reference: the single-node action (-1)^p b_{p+1} b_{-p}."""
    return {w: c * (-1) ** p for w, c in _ref_beta(p + 1, _ref_beta(-p, terms)).items()}


def _ref_f(i, terms):
    """Reference: F_i as the colour-masked sum of the reference node actions."""
    out = {}
    for p in {0}.union(*terms):
        if color(p + 1) == i:
            for w, c in _ref_node(p, terms).items():
                out[w] = out.get(w, 0) + c
    scalar = SQRT2 if i == 0 else 2
    return {w: c * scalar for w, c in out.items()}


def _assert_matches(vec, ref_terms):
    """vec has exactly the nonzero terms of the reference dict."""
    assert dict(vec.terms) == {w: c for w, c in ref_terms.items() if c != 0}


def _vec(*pairs):
    out = FockVector.zero()
    for coeff, word in pairs:
        out = out + FockVector({word: Sqrt2Rational(coeff)})
    return out


class TestFockVector:
    def test_basis_uses_padded_word(self):
        assert FockVector.basis(P("7,4,1")) == FockVector({(7, 4, 1, 0): 1})
        assert FockVector.basis(P("4,1")) == FockVector({(4, 1): 1})
        assert FockVector.basis(P("-")) == FockVector({(): 1})

    def test_trailing_zero_matters(self):
        assert FockVector({(1, 0): 1}) != FockVector({(1,): 1})

    def test_word_validation(self):
        with pytest.raises(ValueError):
            FockVector({(1, 2): 1})
        with pytest.raises(ValueError):
            FockVector({(2, 2): 1})
        with pytest.raises(ValueError):
            FockVector({(-1,): 1})

        class Int(int):
            pass

        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        # int-like modes are read as ints, from a tuple or a list
        v = FockVector({(3, 0): 5})
        for word in ((3, False), (Int(3), 0), (Index(3), Index(0)), [3, 0]):
            assert v.coefficient(word) == 5
        assert FockVector({(True, False): 1}) == FockVector({(1, 0): 1})
        assert v.coefficient([0, 3]) == 0  # not a word
        # the sign is checked before order
        with pytest.raises(ValueError, match="non-negative mode indices"):
            FockVector({(-1, 3): 1})

    def test_float_mode_is_rejected_not_truncated(self):
        with pytest.raises(TypeError, match=r"2\.7 in \(2\.7, 0\)"):
            FockVector({(2.7, 0): 1})

    def test_word_validation_survives_packing(self):
        # a word is packed into a bitset only after validation, so a
        # repeated mode is never merged into one bit
        with pytest.raises(ValueError, match="strictly decreasing"):
            FockVector({(3, 3): 1})
        with pytest.raises(ValueError, match="strictly decreasing"):
            FockVector({(2, 3): 1})
        with pytest.raises(ValueError, match="non-negative mode indices"):
            FockVector({(-1,): 1})
        v = FockVector({(3, 0): 1, (3,): 2})
        assert dict(v.terms) == {(3, 0): 1, (3,): 2}
        assert FockVector({(3, 0): 1}) != FockVector({(3,): 1})
        assert v.coefficient((3, 3)) == 0 and v.coefficient((0, 3)) == 0

    def test_vector_space_ops(self):
        v = _vec((1, (2, 0)), (2, (3, 1)))
        w = _vec((-1, (2, 0)))
        assert (v + w).coefficient((2, 0)).is_zero()
        assert (v - v).is_zero()
        assert v.scale(Fraction(1, 2)).coefficient((3, 1)) == 1

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            FockVector.zero() + 1
        with pytest.raises(TypeError):
            FockVector.zero() - SparsePoly.zero()

    def test_immutable(self):
        v = FockVector({(2, 0): 1})
        with pytest.raises(AttributeError):
            v.terms = {}
        with pytest.raises(AttributeError):
            v._terms = {}
        with pytest.raises(TypeError):
            v.terms[(2, 0)] = Fraction(2)
        assert v == FockVector({(2, 0): 1})

    def test_coefficient_rule(self):
        # rational coefficients are stored as Fractions, as in SparsePoly
        w = (4, 1)
        assert FockVector({w: Sqrt2Rational(3, 0)}) == FockVector({w: 3})
        assert type(FockVector({w: Sqrt2Rational(3, 0)}).terms[w]) is Fraction
        assert FockVector({w: SQRT2}).terms[w] == SQRT2
        mixed = FockVector({w: ONE + SQRT2}) + FockVector({w: -SQRT2})
        assert mixed.terms[w] == 1 and type(mixed.terms[w]) is Fraction
        gone = FockVector({w: SQRT2}) + FockVector({w: -SQRT2})
        assert gone.is_zero() and w not in gone.terms

    def test_coefficient_is_a_scalar(self):
        v = FockVector({(4, 1): 3})
        assert v.coefficient((4, 1)) == Sqrt2Rational(3)
        assert isinstance(v.coefficient((4, 1)), Sqrt2Rational)
        assert v.coefficient((5, 1)) == Sqrt2Rational(0)
        assert isinstance(v.coefficient((5, 1)), Sqrt2Rational)

    def test_float_scalar_rejected(self):
        with pytest.raises(TypeError):
            FockVector({(2, 0): 1}).scale(0.1)
        with pytest.raises(TypeError):
            FockVector.zero().scale(0.1)

    def test_rendering(self):
        v = FockVector({(3, 0): SQRT2})
        assert str(v) == "(0+1*r2) * |3,0>"
        assert str(FockVector({(): 1})) == "1 * |vac>"
        assert str(FockVector.zero()) == "0"
        two = _vec((2, (2, 0)), (1, (5, 1)))
        assert str(two) == "1 * |5,1>\n2 * |2,0>"  # descending word order


class TestBetaAction:
    def test_create_from_vacuum(self):
        assert beta_apply(3, FockVector({(): 1})) == FockVector({(3,): 1})
        assert beta_apply(0, FockVector({(): 1})) == FockVector({(0,): 1})

    def test_annihilate_vacuum(self):
        assert beta_apply(-2, FockVector({(): 1})).is_zero()

    def test_zero_mode_squares_to_half(self):
        v = beta_apply(0, beta_apply(0, FockVector({(): 1})))
        assert v == FockVector({(): 1}).scale(Fraction(1, 2))

    def test_zero_mode_on_padded_word(self):
        # beta_0 |1,0> = -1/2 |1>: the zero mode anticommutes past beta_1
        # before contracting
        got = beta_apply(0, FockVector({(1, 0): 1}))
        assert got == FockVector({(1,): 1}).scale(Fraction(-1, 2))

    def test_contraction_sign(self):
        # beta_{-1} |1,0> = (-1)^1 |0>
        got = beta_apply(-1, FockVector({(1, 0): 1}))
        assert got == FockVector({(0,): 1}).scale(-1)

    def test_reordering_sign(self):
        # beta_0 beta_1 |vac> = -beta_1 beta_0 |vac>
        got = beta_apply(0, FockVector({(1,): 1}))
        assert got == FockVector({(1, 0): 1}).scale(-1)

    @settings(max_examples=60)
    @given(st.integers(min_value=-6, max_value=6),
           st.integers(min_value=-6, max_value=6), words)
    def test_anticommutation_relation(self, m, n, word):
        v = FockVector({word: 1})
        lhs = beta_apply(m, beta_apply(n, v)) + beta_apply(n, beta_apply(m, v))
        rhs = v.scale(Fraction(-1) ** m) if m + n == 0 else FockVector.zero()
        assert lhs == rhs

    @settings(max_examples=30)
    @given(st.integers(min_value=-6, max_value=6), words, words)
    def test_linearity(self, n, w1, w2):
        v1, v2 = FockVector({w1: 1}), FockVector({w2: 1})
        assert beta_apply(n, v1 + v2) == beta_apply(n, v1) + beta_apply(n, v2)


class TestLoweringOperators:
    def test_single_node_validation(self):
        with pytest.raises(ValueError):
            single_node_action(-1, FockVector({(): 1}))

    def test_f_apply_validation(self):
        with pytest.raises(ValueError):
            f_apply(2, FockVector({(): 1}))

    def test_f1_on_first_core(self):
        got = f_apply(1, FockVector.basis(bar_core(1)))
        assert got == FockVector({(2, 0): 1}).scale(2)

    def test_f0_on_vacuum(self):
        got = f_apply(0, FockVector.basis(bar_core(0)))
        assert got == FockVector({(1, 0): 1}).scale(SQRT2)

    def test_f1_kills_vacuum(self):
        assert f_apply(1, FockVector.basis(bar_core(0))).is_zero()

    def test_divided_powers(self):
        v = FockVector.basis(bar_core(-2))
        twice = f_apply(0, f_apply(0, v)).scale(Fraction(1, 2))
        assert f_power_normalized(0, 2, v) == twice
        assert f_power_normalized(0, 0, v) == v
        with pytest.raises(ValueError):
            f_power_normalized(0, -1, v)

    def test_divided_power_coefficient(self):
        # the padded word (10,6,2,0) has two entries divisible by three and
        # one trailing zero, so its coefficient in the cube image is
        # sqrt2^(2 - 1)
        out = f_power_normalized(0, 3, FockVector.basis(bar_core(-3)))
        assert out.coefficient((10, 6, 2, 0)) == SQRT2

    def test_node_sum_matches_mode_sum_along_chains(self):
        # every vector on the f-power chains of the cores for m, n <= 5, with
        # both operators applied
        for i in (0, 1):
            for m in range(6):
                vec = FockVector.basis(bar_core(m if i == 1 else -m))
                for _ in range(6):
                    for j in (0, 1):
                        assert f_apply(j, vec) == _mode_sum_f_apply(j, vec)
                    vec = f_apply(i, vec)

    @settings(max_examples=60, deadline=None)
    @given(fock_vectors, st.sampled_from((0, 1)))
    def test_node_sum_matches_mode_sum(self, vec, i):
        assert f_apply(i, vec) == _mode_sum_f_apply(i, vec)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=8), min_size=0,
                    max_size=4, unique=True).map(
               lambda xs: StrictPartition(tuple(sorted(xs, reverse=True)))),
           st.sampled_from((0, 1)))
    def test_f_moves_along_one_node_additions(self, lam, i):
        # every word in the image is the padded word of a one-node color-i
        # extension of the starting partition
        targets = {mu.even_padded() for mu in enumerate_added(lam, i, 1)}
        out = f_apply(i, FockVector.basis(lam))
        assert set(out.terms) <= targets


class TestAgainstTupleReference:
    """The bitset kernel against the recursive tuple-word mode operators."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=-9, max_value=9), padded_vectors)
    def test_beta_apply(self, n, vec):
        _assert_matches(beta_apply(n, vec), _ref_beta(n, dict(vec.terms)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=11), padded_vectors)
    def test_single_node_action(self, p, vec):
        _assert_matches(single_node_action(p, vec), _ref_node(p, dict(vec.terms)))

    def test_f_power_normalized_chains(self):
        for i in (0, 1):
            for m in range(6):
                vec = FockVector.basis(bar_core(m if i == 1 else -m))
                ref = dict(vec.terms)
                for n in range(6):
                    _assert_matches(f_power_normalized(i, n, vec),
                                    {w: c * Fraction(1, factorial(n))
                                     for w, c in ref.items()})
                    ref = _ref_f(i, ref)


class TestNormalWords:
    def test_deep_golden_word(self):
        got = to_normal_words(P("20,18,16,12,8,7,2"))
        assert len(got) == 1
        nw = got[0]
        assert nw.coeff == Fraction(1)
        assert nw.phis == (6, 4, 0)
        assert nw.psis == (5, 2, -2, -4, -5, -6)
        assert nw.charge == -7

    def test_accepts_word_or_partition(self):
        assert to_normal_words((4, 1)) == to_normal_words(P("4,1"))

    def test_vacuum(self):
        got = to_normal_words(())
        assert got == (NormalWord(Fraction(1), (), (), 0),)

    def test_pure_charge_states(self):
        # even-length staircase cores straighten to pure charge vacua
        for m in (2, 4):
            got = to_normal_words(bar_core(m))
            assert len(got) == 1
            assert got[0].phis == () and got[0].psis == ()
            assert got[0].charge == m
            assert got[0].coeff == Fraction(1)

    def test_odd_cores_carry_the_pad_mode(self):
        # odd-length cores pad with a zero column, leaving one phi_0 and a
        # sign from moving it into place
        for m in (1, 3):
            got = to_normal_words(bar_core(m))
            assert len(got) == 1
            assert got[0].phis == (0,) and got[0].psis == ()
            assert got[0].charge == m
            assert got[0].coeff == Fraction(-1)

    @settings(max_examples=50, deadline=None)
    @given(strict_parts)
    def test_basis_words_have_single_unit_survivor(self, lam):
        got = to_normal_words(lam)
        assert len(got) == 1
        assert abs(got[0].coeff) == 1

    @settings(max_examples=50, deadline=None)
    @given(strict_parts)
    def test_normal_word_invariants(self, lam):
        (nw,) = to_normal_words(lam)
        assert all(nw.phis[i] > nw.phis[i + 1] for i in range(len(nw.phis) - 1))
        assert all(x >= 0 for x in nw.phis)
        assert all(nw.psis[i] > nw.psis[i + 1] for i in range(len(nw.psis) - 1))
        assert all(x > nw.charge for x in nw.psis)


# ---------------------------------------------------------------------------
# the one-pass normal form against the general straightener it replaced
# ---------------------------------------------------------------------------

_PHI, _PSI, _PSISTAR = 0, 1, 2


def _rename(word):
    """Mod-3 renaming of the modes; returns (sign, letters)."""
    sign = 1
    letters = []
    for c in word:
        r = c % 3
        if r == 0:
            letters.append((_PHI, c // 3))
        elif r == 1:
            letters.append((_PSI, (c - 1) // 3))
        else:
            letters.append((_PSISTAR, -((c + 1) // 3)))
            if c % 2:
                sign = -sign
    return sign, letters


def _straighten(coeff, letters, charge):
    """Normal-order a phi/psi/psistar letter sequence acting on |0,charge>.

    Each psistar (rightmost first) walks to the right, anticommuting past
    unrelated letters and splitting into a contraction term at every psi of
    equal index, until it annihilates against the reference state.  The
    remaining letters are bubble-sorted into a decreasing phi block followed
    by a decreasing psi block, with equal neighbours contracted (phi_0^2 =
    1/2) or killed, and the trailing psi's are absorbed into the charge.
    """
    results = []
    stack = [(coeff, tuple(letters), charge)]
    while stack:
        c, seq, q = stack.pop()
        star = max((k for k, (t, _) in enumerate(seq) if t == _PSISTAR), default=None)
        if star is not None:
            idx = seq[star][1]
            work = list(seq)
            p = star
            while p < len(work) - 1:
                kind, j = work[p + 1]
                if kind == _PSI and j == idx:
                    stack.append((c, tuple(work[:p] + work[p + 2:]), q))
                work[p], work[p + 1] = work[p + 1], work[p]
                c = -c
                p += 1
            # the walker reached the reference state |0,q>
            if idx < q:
                raise ValueError("psistar_%d does not annihilate |0,%d>" % (idx, q))
            continue
        dead = False
        work = list(seq)
        changed = True
        while changed and not dead:
            changed = False
            for p in range(len(work) - 1):
                (t1, i1), (t2, i2) = work[p], work[p + 1]
                if t1 == t2 and i1 == i2:
                    if t1 == _PHI and i1 == 0:
                        c = c * Fraction(1, 2)
                        del work[p:p + 2]
                    else:
                        dead = True
                    changed = True
                    break
                if (t1, -i1) > (t2, -i2):
                    work[p], work[p + 1] = work[p + 1], work[p]
                    c = -c
                    changed = True
                    break
        if dead:
            continue
        phis = tuple(i for t, i in work if t == _PHI)
        psis = [i for t, i in work if t == _PSI]
        while psis:
            if psis[-1] == q:
                psis.pop()
                q += 1
            elif psis[-1] < q:
                dead = True
                break
            else:
                break
        if dead:
            continue
        if phis and phis[-1] < 0:
            raise ValueError("negative phi index has no normal form")
        results.append(NormalWord(c, phis, tuple(psis), q))
    return _merge_normal(results)


def _merge_normal(words):
    acc = {}
    for nw in words:
        key = (nw.phis, nw.psis, nw.charge)
        acc[key] = acc.get(key, Fraction(0)) + nw.coeff
    return tuple(NormalWord(c, *key[:2], charge=key[2])
                 for key, c in sorted(acc.items()) if c != 0)


def _ref_to_normal_words(word):
    """Reference: a word renamed mod 3 and straightened by the general Wick
    engine above, which walks every psistar with a contraction branch at
    each psi, then sorts with contractions and merges equal normal words."""
    sign, letters = _rename(word)
    m_ref = 1 if not word else max(1, -(-(word[0] + 1) // 3))
    letters += [(_PSI, -j) for j in range(1, m_ref + 1)]
    return _straighten(Fraction(sign), letters, -m_ref)


class TestOnePassAgainstStraightener:
    def test_every_word_with_modes_up_to_12(self):
        count = 0
        for bits in range(1 << 13):
            word = tuple(p for p in range(12, -1, -1) if bits >> p & 1)
            assert to_normal_words(word) == _ref_to_normal_words(word), word
            count += 1
        assert count == 8192

    def test_coefficient_is_a_unit_int(self):
        for lam in (P("20,18,16,12,8,7,2"), bar_core(3), bar_core(-4)):
            (nw,) = to_normal_words(lam)
            assert type(nw.coeff) is int and nw.coeff in (1, -1)


def _image(sector, nu, kappa, c, k):
    """The boson image of one label: c * sqrt(2)^k * Q_nu * S_kappa."""
    return BosonElement._of_parts([_label(sector, nu, kappa, c, k)])


def _render_sectors(sectors):
    """Reference: the text of a {sector: polynomial} mapping, one line
    "(sigma, charge): polynomial" per sector in sector order, or "0"."""
    return "\n".join("(%d, %d): %s" % (sigma, charge, poly)
                     for (sigma, charge), poly in sorted(sectors.items())) or "0"


class TestBosonElement:
    def test_component_access(self):
        elt = _image((0, 1), (), (), 2, 0)
        assert elt.expand()[(0, 1)] == SparsePoly.constant(2)
        assert (1, 1) not in elt.expand()

    def test_arithmetic(self):
        a = _image((0, 1), (), (), 1, 0)
        b = _image((0, 1), (), (), -1, 0)
        assert (a + b).is_zero()
        assert (a + a.scale(-1)).is_zero()
        assert a.scale(3).expand()[(0, 1)] == SparsePoly.constant(3)

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            BosonElement._of([]) - 1
        with pytest.raises(TypeError):
            BosonElement._of([]) + FockVector.zero()

    def test_immutable(self):
        elt = _image((0, 1), (), (), 2, 0)
        with pytest.raises(AttributeError):
            elt._num = {}
        with pytest.raises(TypeError):
            elt.expand()[(0, 1)] = SparsePoly.constant(3)
        assert elt.expand()[(0, 1)] == SparsePoly.constant(2)

    def test_rendering(self):
        elt = _image((1, -7), (), (), 1, -1)
        assert str(elt) == "(1, -7): (0+1/2*r2)"
        assert str(BosonElement._of([])) == "0"


@pytest.mark.parametrize("cls", [BosonElement, FockVector, SparsePoly])
def test_empty_constructor_gives_the_zero_value(cls):
    zero = cls()
    assert zero == cls._of([])
    assert zero.is_zero()
    assert str(zero) == "0"


class TestBosonImage:
    def test_image_of_vacuum(self):
        assert phi(FockVector({(): 1})).expand() == {
            (0, 0): SparsePoly.constant(1)}

    def test_image_of_single_box(self):
        got = phi(FockVector.basis(P("1"))).expand()
        want = {(1, 1): SparsePoly.constant(Sqrt2Rational(0, Fraction(-1, 2)))}
        assert got == want

    def test_image_matches_pair_product(self):
        # |7,2> carries the empty Q part and the single-row S part of weight 3
        got = phi(FockVector.basis(P("7,2"))).expand()
        assert got == {(0, 0): schur((3,))}

    def test_normal_word_image_factors(self):
        (nw,) = to_normal_words(P("20,18,16,12,8,7,2"))
        ((key, poly),) = BosonElement._of_parts([normal_word_image(nw)]).expand().items()
        assert key == (1, -1)
        scalar = SparsePoly.constant(Sqrt2Rational.sqrt2_pow(-3))
        assert poly == scalar * schur_q((6, 4)) * schur((7, 5, 2, 1, 1, 1))

    def test_linearity(self):
        v = FockVector.basis(P("5,2"))
        w = FockVector.basis(P("4,1"))
        assert phi(v + w) == phi(v) + phi(w)
        assert phi(v.scale(SQRT2)) == phi(v).scale(SQRT2)

    @settings(max_examples=40, deadline=None)
    @given(strict_parts)
    def test_basis_image_is_single_sector(self, lam):
        got = phi(FockVector.basis(lam))
        assert len(got.expand()) == 1

    def test_core_state_images(self):
        assert core_state_image(0).expand() == {(0, 0): SparsePoly.constant(1)}
        assert core_state_image(2).expand()[(0, 2)] == SparsePoly.constant(1)
        assert core_state_image(-2).expand()[(0, -2)] == SparsePoly.constant(-1)
        odd = core_state_image(3).expand()[(1, 3)]
        assert odd == SparsePoly.constant(Sqrt2Rational(0, Fraction(-1, 2)))

    def test_phi_matches_core_state_formula(self):
        for m in range(-4, 5):
            assert phi(FockVector.basis(bar_core(m))) == core_state_image(m)


class TestClosedForm:
    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            phi_closed_form(P("6,2"), 0, 2, 2)  # only one node added
        with pytest.raises(ValueError):
            phi_closed_form(P("5,2"), 0, 2, 2)  # the bare core, no nodes
        with pytest.raises(ValueError):
            phi_closed_form(P("6,2,1"), 1, 2, 2)  # nodes of the wrong color

    def test_rejects_bad_color(self):
        with pytest.raises(ValueError):
            phi_closed_form(P("6,2,1"), 2, 2, 2)

    def test_color0_family_example(self):
        lam = P("6,2,1")
        got = phi_closed_form(lam, 0, 2, 2)
        assert got == phi(FockVector.basis(lam))

    def test_color1_family_example(self):
        lam = P("8,4,2")
        got = phi_closed_form(lam, 1, 3, 2)
        assert got == phi(FockVector.basis(lam))

    def test_deep_color0_state(self):
        # six color-0 nodes on a seven-row core; exercises the straightening
        # engine on a genuinely large word
        lam = P("20,18,16,12,8,7,2")
        assert phi_closed_form(lam, 0, 7, 6) == phi(FockVector.basis(lam))

    def test_grid_agreement(self):
        for i in (0, 1):
            for m in range(3):
                for n in range(3):
                    core = bar_core(m if i == 1 else -m)
                    for lam in enumerate_added(core, i, n):
                        assert phi_closed_form(lam, i, m, n) == \
                            phi(FockVector.basis(lam))

    def test_sector_keys(self):
        # color-1 additions land at charge m - 2n, color-0 at n - m
        lam = P("8,4,2")
        assert set(phi_closed_form(lam, 1, 3, 2).expand()) == {(1, -1)}
        mu = P("6,2,1")
        assert set(phi_closed_form(mu, 0, 2, 2).expand()) == {(0, 0)}


# ---------------------------------------------------------------------------
# differential tests: the label path against the per-word polynomial path
# ---------------------------------------------------------------------------

def _ref_normal_word_image(nw):
    """Reference: the image of a normal word as a polynomial product."""
    a, r, q = len(nw.phis), len(nw.psis), nw.charge
    s_index = tuple(nw.psis[j] - q - (r - 1 - j) for j in range(r))
    poly = schur_q(tuple(p for p in nw.phis if p > 0)) * schur(s_index)
    scalar = Sqrt2Rational(nw.coeff) * Sqrt2Rational.sqrt2_pow(-a)
    return (a % 2, q + r), SparsePoly.constant(scalar) * poly


def _ref_phi(vec):
    """Reference: phi as a sum of scaled normal-word polynomials, per
    sector, with the sectors that cancel dropped."""
    out = {}
    for word, coeff in vec.terms.items():
        for nw in to_normal_words(word):
            key, poly = _ref_normal_word_image(nw)
            out[key] = out.get(key, SparsePoly.zero()) + SparsePoly.constant(coeff) * poly
    return {key: poly for key, poly in out.items() if not poly.is_zero()}


def _ref_phi_closed_form(lam, i, m, n):
    """Reference: the closed form as a polynomial (membership is checked by
    the production path)."""
    st_, quot, eps = stats(lam), bar_quotient(lam), m % 2
    if i == 1:
        sign = -1 if (st_.f + m) % 2 else 1
        scalar = Sqrt2Rational(sign) * Sqrt2Rational.sqrt2_pow(-eps)
        return {(eps, m - 2 * n): SparsePoly.constant(scalar) * schur(quot.q1)}
    sign = -1 if (st_.f + st_.g + (st_.h if eps else 0)) % 2 else 1
    scalar = Sqrt2Rational(sign) * Sqrt2Rational.sqrt2_pow(-st_.a)
    poly = SparsePoly.constant(scalar) * schur_q(quot.q0) * schur(quot.q1)
    return {((n + m) % 2, n - m): poly}


class TestLabelsAgainstPolynomials:
    @pytest.mark.parametrize("i, m, n", [(i, m, n) for i in (0, 1) for m in range(5)
                                         for n in range(5)] + [(0, 5, 5)])
    def test_added_families(self, i, m, n):
        for lam in enumerate_added(bar_core(m if i == 1 else -m), i, n):
            vec = FockVector.basis(lam)
            want_left = _ref_phi(vec)
            want_right = _ref_phi_closed_form(lam, i, m, n)
            assert phi(vec).expand() == want_left
            assert phi_closed_form(lam, i, m, n).expand() == want_right
            assert (phi(vec) == phi_closed_form(lam, i, m, n)) == \
                (want_left == want_right)
            for nw in to_normal_words(lam):
                image = BosonElement._of_parts([normal_word_image(nw)]).expand()
                assert image == dict([_ref_normal_word_image(nw)])

    @settings(max_examples=60, deadline=None)
    @given(padded_vectors)
    def test_vectors_with_sqrt2_coefficients(self, vec):
        assert phi(vec).expand() == _ref_phi(vec)

    def test_core_states(self):
        for m in range(-6, 7):
            k, eps = abs(m), abs(m) % 2
            exponent = k if m >= 0 else k * (k - 1) // 2 + k
            scalar = Sqrt2Rational((-1) ** exponent) * Sqrt2Rational.sqrt2_pow(-eps)
            assert core_state_image(m).expand() == {(eps, m): SparsePoly.constant(scalar)}

    def test_labels_are_canonical(self):
        # zeros are stripped, so a phi_0 moves the sector and the sqrt(2)
        # power but not the Q index; cancelling words leave no label
        (nw,) = to_normal_words(bar_core(3))
        assert nw.phis == (0,)
        labels = phi(FockVector.basis(bar_core(3)))
        assert set(labels._keys()) == {((1, 3), (), ())}
        vec = FockVector.basis(P("5,2"))
        assert phi(vec - vec) == BosonElement._of([])
        assert not phi(vec - vec).expand()


def _phi_families():
    """(i, m, n, core) of every phi-consistency family with i in {0, 1} and
    m, n <= 5."""
    return [(i, m, n, bar_core(m if i == 1 else -m))
            for i in (0, 1) for m in range(6) for n in range(6)]


class TestLabelRendering:
    """Boson images render sector by sector from the factors S_kappa(t) and
    Q_nu(s), with no product polynomial built; the reference is the
    rendering of the expanded sector polynomials."""

    @staticmethod
    def _assert_renders(labels):
        for lab in labels:
            sectors = lab.expand()
            assert str(lab) == _render_sectors(sectors)
            assert lab.sector_texts() == [(key, str(poly)) for key, poly
                                          in sorted(sectors.items())]

    def test_phi_consistency_families(self):
        labels = [lab for i, m, n, core in _phi_families()
                  for lam in enumerate_added(core, i, n)
                  for lab in (phi(FockVector.basis(lam)),
                              phi_closed_form(lam, i, m, n))]
        assert len(labels) == 994
        assert sum(1 for lab in labels if lab._root) == 480
        self._assert_renders(labels)

    def test_multi_label_sectors_expand(self):
        labels = [phi(f_power_normalized(i, n, FockVector.basis(core)))
                  for i, m, n, core in _phi_families()]
        # more labels than sectors: some sector has several
        assert any(len(lab._keys()) > len({key[0] for key in lab._keys()}) for lab in labels)
        self._assert_renders(labels)

    def test_zero_image(self):
        vec = FockVector.basis(P("5,2"))
        for zero in (phi(FockVector.zero()), phi(vec - vec)):
            assert str(zero) == _render_sectors(zero.expand()) == "0"
            assert zero.sector_texts() == []

    def test_empty_factors(self):
        # kappa = () or nu = () is the constant factor 1, joined with no "*"
        cases = [(_image((0, 0), (), (2, 1), 1, 0), "(0, 0): 1/3*t1^3 - t3"),
                 (_image((1, 1), (1,), (), -1, -1), "(1, 1): (0-1/2*r2)*s1"),
                 (_image((1, -7), (0,), (0,), 1, -1), "(1, -7): (0+1/2*r2)"),
                 (_image((0, 2), (), (), -3, 2), "(0, 2): -6")]
        for lab, text in cases:
            assert str(lab) == _render_sectors(lab.expand()) == text
        self._assert_renders([lab for lab, _ in cases])

    def test_rendering_builds_no_polynomial(self, monkeypatch):
        import schurq.fock

        def refuse(*args, **kwargs):
            raise AssertionError("a product polynomial was built")

        want = [_render_sectors(phi(FockVector.basis(lam)).expand())
                for lam in enumerate_added(bar_core(-3), 0, 3)]
        monkeypatch.setattr(schurq.fock, "_sum_of_products", refuse)
        assert [str(phi(FockVector.basis(lam)))
                for lam in enumerate_added(bar_core(-3), 0, 3)] == want
