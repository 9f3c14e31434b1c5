"""Neutral-fermion Fock space and its boson image.

The fermion algebra has generators b_n (n in Z) with

    b_m b_n + b_n b_m = (-1)^m delta_{m+n,0}

acting on a vacuum killed by every b_n with n < 0 (so b_0^2 = 1/2).  States
are linear combinations of *words*: strictly decreasing tuples of
non-negative mode indices, applied left to right to the vacuum.  A trailing
zero is significant -- (3, 0) and (3,) are different states, and the basis
vector of a strict partition uses the even-padded part list as its word.

A FockVector is stored as a SparsePoly is: integer numerators over one
shared denominator, with a second numerator dict for the sqrt(2) part, and
each word kept as a bitset w with bit p set when mode p is present (bitsets
order as their words do).  On a bitset each mode operator is one bit move;
with c the number of modes above the moved one:

    b_n, n > 0      set bit n (zero if it is set), sign (-1)^c
    b_{-p}, p > 0   clear bit p (zero if it is clear), sign (-1)^(p+c)
    b_0             toggle bit 0, sign (-1)^c, weight 1/2 when it clears it

The two lowering operators of the rank-two twisted affine algebra act as
quadratic expressions in the modes:

    F0 = sqrt(2) * sum_m (-1)^(m+1) b_{3m} b_{-3m+1}
    F1 =           sum_m (-1)^m     b_{3m-1} b_{-3m+2}

Each mode term is one single-node action A_p = (-1)^p b_{p+1} b_{-p}, so
F0 = sqrt(2) * sum A_p over p = 0, 2 (mod 3) and F1 = 2 * sum A_p over
p = 1 (mod 3), with p over 0 and the parts of the words.  On bitsets A_p
moves a part p with p + 1 free to p + 1, w -> w + 2^p, with weight 1 (1/2
for p = 0), and A_0 also sends a word without the parts 1 and 0 to w | 3
with weight 1; the signs cancel.  So F_i is one pass of bit moves over the
words, in integer arithmetic.

Words map to charged-boson components by splitting the modes mod 3 into a
neutral family (phi_j = b_{3j}), a charged family (psi_k = b_{3k+1}) and its
dual (psistar_k = (-1)^(3k+1) b_{-3k-1}), rewriting the vacuum against a
charge-(-M) reference state, and normal ordering.  A word repeats no mode,
so every word has exactly one normal word, with coefficient +-1: a psistar
survives only by contracting with its reference psi, and the phi's and the
psi's are each already decreasing, so one pass over the word finds the
normal word and its sign (to_normal_words).  A normal word
phi_{j1}..phi_{ja} psi_{i1}..psi_{ir} |0,q> with coefficient c reads
off as one label ((a mod 2, q + r), nu, kappa) with scalar c * sqrt(2)^(-a),
standing for Q_nu(s) * S_kappa(t): nu is the phi indices and kappa the psi
indices re-based at the charge, zeros stripped.  The closed form on added-
node families gives one label per state.  The products Q_nu * S_kappa (nu
strict, kappa a partition) are linearly independent, so the label
combination is the boson image (BosonElement, stored as a FockVector is):
images add, scale and compare as labels, and the polynomial of each sector
is built only on request, by one expansion (BosonElement.expand).  Images
also render with no expansion: a sector of one label is printed from the
sorted terms of its two factors (BosonElement.sector_texts).
"""

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import factorial
from types import MappingProxyType

from .exactalg import (SQRT2, ZERO, Sqrt2Rational, _IntCombination,
                       _render_product, _scalar_str, _sqrt2_pow_parts,
                       _sum_of_products)
from .partitions import (StrictPartition, _as_int, as_int_parts, bar_quotient,
                         color, color_core, is_added_member, stats)
from .symfunc import schur, schur_q


def _check_word(word):
    word = as_int_parts(word)
    if word and min(word) < 0:
        raise ValueError("word entries must be non-negative mode indices")
    if not all(map(operator.gt, word, word[1:])):
        raise ValueError("word entries must be strictly decreasing")
    return word


def _word_bits(word):
    """A word as a bitset: bit p is set when mode p is present."""
    return sum(1 << p for p in _check_word(word))


def _bits_word(bits):
    """The word of a bitset: its set bits, highest first, each peeled off
    as the top bit."""
    word = []
    while bits:
        top = bits.bit_length() - 1
        word.append(top)
        bits ^= 1 << top
    return tuple(word)


class FockVector(_IntCombination):
    """Immutable linear combination of words, stored as a polynomial is (see
    exactalg._IntCombination) with each word as its bitset.  Bitsets order
    as their words do.  `terms` maps each word to its coefficient."""

    __slots__ = ()

    _encode = staticmethod(_word_bits)
    _decode = staticmethod(_bits_word)

    @staticmethod
    def basis(lam):
        """The state of a strict partition: its even-padded parts as a word,
        whose bitset is built with no word check, since those parts are
        strictly decreasing and non-negative by construction."""
        bits = sum(map((1).__lshift__, lam.even_padded()))
        return FockVector._make(1, {bits: 1}, {})

    def coefficient(self, word):
        try:
            bits = _word_bits(word)
        except ValueError:
            return ZERO  # not a word, so no term carries it
        return Sqrt2Rational._promote(self._coeff(bits))

    def word_texts(self):
        """(word, coefficient text) of each term, highest word first, with
        each distinct coefficient formatted once: the text form and the
        CLI's JSON both read it (the twin of BosonElement.sector_texts)."""
        text = cache(lambda p, q: _scalar_str(p, q, self._den))
        for bits in sorted(self._keys(), reverse=True):
            yield _bits_word(bits), text(self._num.get(bits, 0), self._root.get(bits, 0))

    def __str__(self):
        """One line "coefficient * |word>" per word (word_texts; |vac> for
        the empty word), or "0"."""
        return "\n".join("%s * |%s>" % (text, ",".join(map(str, word)) or "vac")
                         for word, text in self.word_texts()) or "0"

    def __repr__(self):
        return "FockVector(%r)" % (dict(sorted(self.terms.items(), reverse=True)),)


def beta_apply(n, vec):
    """The mode operator b_n applied to a vector: one bit move per word, with
    c the number of modes above |n| in the word.  b_n (n > 0) adds mode n
    with sign (-1)^c; b_{-p} removes mode p with sign (-1)^(p+c); b_0 toggles
    mode 0 with sign (-1)^c and weight 1/2 when it removes it (b_0^2 = 1/2).
    A word that has mode n > 0, or lacks mode -n < 0, is killed."""
    p = abs(n)
    bit = 1 << p
    extra = p if n < 0 else 0
    num, root = {}, {}
    for part, out in ((vec._num, num), (vec._root, root)):
        for w, c in part.items():
            if (n > 0 and w & bit) or (n < 0 and not w & bit):
                continue
            if n == 0 and not w & 1:
                c *= 2  # weight 1 over the doubled denominator
            out[w ^ bit] = -c if ((w >> (p + 1)).bit_count() + extra) % 2 else c
    return FockVector._make(2 * vec._den if n == 0 else vec._den, num, root)


def _node_sum(vec, nodes):
    """The sum of the single-node actions A_p over the bits p of `nodes`:
    A_p moves a part p to p + 1 when p + 1 is free (w -> w + 2^p, weight 1,
    or 1/2 for p = 0, whose mode contracts), and A_0 also adds the parts 1
    and 0 to a word that has neither (w -> w | 3, weight 1)."""
    num, root = {}, {}
    for part, out in ((vec._num, num), (vec._root, root)):
        get = out.get
        for w, c in part.items():
            moves = w & ~(w >> 1) & nodes
            while moves:
                low = moves & -moves
                moves ^= low
                out[w + low] = get(w + low, 0) + (c if low == 1 else 2 * c)
            if nodes & 1 and not w & 3:
                out[w | 3] = get(w | 3, 0) + 2 * c
    return FockVector._make(2 * vec._den, num, root)


def _operator_index(i):
    """The index i of F_i as an int, read through _as_int: 0 or 1."""
    i = _as_int(i, "i")
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    return i


def f_apply(i, vec):
    """One application of F0 or F1: the single-node actions of the p with
    color(p + 1) == i, summed (the m and 1-m mode terms of F1 coincide,
    hence its factor 2; b_{-p} kills a word without the part p > 0)."""
    i = _operator_index(i)
    top = max(vec._keys(), default=0).bit_length()
    nodes = sum(1 << p for p in range(max(top, 1)) if color(p + 1) == i)
    return _node_sum(vec, nodes).scale(SQRT2 if i == 0 else 2)


def f_power_normalized(i, n, vec):
    """F_i^n / n! applied to a vector: n calls of the module-global f_apply
    (which tests and the tracer replace), then one scale."""
    i, n = _operator_index(i), _as_int(n, "n")
    if n < 0:
        raise ValueError("power must be non-negative")
    for _ in range(n):
        vec = f_apply(i, vec)
    return vec.scale(Fraction(1, factorial(n)))


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

class NormalWord(namedtuple("NormalWord", "coeff phis psis charge")):
    """A straightened word phi_{j1}..phi_{ja} psi_{i1}..psi_{ir} |0,charge>
    with strictly decreasing indices, the j's >= 0 and the i's > charge, and
    coefficient the int 1 or -1."""

    __slots__ = ()


def to_normal_words(word):
    """Express a word (or the padded word of a strict partition) as a
    combination of normal words on |0,-M> where M = max(1, ceil((word_max
    + 1)/3)).  The combination is always one normal word with coefficient
    +-1, returned as a one-element tuple, because normal ordering is exact
    in one pass over the word.

    Each mode c is renamed by its residue mod 3: c = 3j gives phi_j, c = 3j+1
    gives psi_j, and c = 3k-1 gives (-1)^c psistar_{-k}, with k <= M.  The
    reference psi_{-1}..psi_{-M} follow the word.  Then:

    - each psistar_{-k} walks right, and the part of the walk that passes
      every letter annihilates |0,-M> (k <= M), so only its contraction with
      psi_{-k} survives, with sign (-1)^(letters passed).  Those letters are
      the ones after it in the word and psi_{-1}..psi_{-(k-1)}, less two for
      each psistar after it in the word: that one is smaller (the word
      decreases) and has already taken one word letter and one reference
      psi with it;
    - no letter repeats, so the sort into a phi block and a psi block never
      contracts or kills a pair, and the phi's and the psi's are each
      already decreasing: the sort only moves each phi left past the psi's
      before it in the word;
    - trailing psi_q on |0,q> are absorbed, raising the charge by one each.
    """
    if isinstance(word, StrictPartition):
        word = word.even_padded()
    word = _check_word(word)
    m_ref = 1 if not word else max(1, -(-(word[0] + 1) // 3))
    odd, phis, psis, contracted = 0, [], [], set()
    for pos, c in enumerate(word):
        if c % 3 == 0:
            phis.append(c // 3)
            odd += len(psis)
        elif c % 3 == 1:
            psis.append((c - 1) // 3)
        else:
            k = (c + 1) // 3
            contracted.add(k)
            odd += c + (len(word) - 1 - pos) + k - 1
    psis += [-j for j in range(1, m_ref + 1) if j not in contracted]
    charge = -m_ref
    while psis and psis[-1] == charge:
        psis.pop()
        charge += 1
    return (NormalWord(-1 if odd % 2 else 1, tuple(phis), tuple(psis), charge),)


# ---------------------------------------------------------------------------
# boson image
# ---------------------------------------------------------------------------

class BosonElement(_IntCombination):
    """Immutable boson image: an _IntCombination of labels (sector, nu,
    kappa), each standing for Q_nu(s) * S_kappa(t) in the sector (sigma,
    charge), with nu strict and kappa a partition, zeros stripped.  These
    products are linearly independent, so two images are equal exactly when
    their labels are, and no comparison builds a polynomial.  `expand` gives
    the polynomial of each sector; str renders the sectors (sector_texts)."""

    __slots__ = ()

    def expand(self):
        """A read-only mapping (sigma, charge) -> polynomial of each sector:
        one sum of products over the int numerators of Q_nu * S_kappa
        (Q_nu times sqrt(2) for the root part)."""
        sectors = {}
        for part, root in ((self._num, False), (self._root, True)):
            for (sector, nu, kappa), c in part.items():
                q = schur_q(nu)
                sectors.setdefault(sector, []).append(
                    (c, q.scale(SQRT2) if root else q, schur(kappa)))
        return MappingProxyType({key: _sum_of_products(triples, self._den)
                                 for key, triples in sectors.items()})

    def sector_texts(self):
        """(sector, rendering) of each sector, in sector order: the text of
        its polynomial in `expand()`.  A sector of one label renders from
        the factors S_kappa(t) and Q_nu(s) with no product built (see
        exactalg._render_product: both are homogeneous and t sorts before
        s); a sector of several labels, which only a non-basis vector has,
        expands."""
        sectors = {}
        for key in self._keys():
            sectors.setdefault(key[0], []).append(key)
        image = None
        out = []
        for sector, keys in sorted(sectors.items()):
            if len(keys) == 1:
                key = keys[0]
                w = (self._num.get(key, 0), self._root.get(key, 0), self._den)
                text = _render_product(w, schur(key[2]), schur_q(key[1]))
            else:
                if image is None:
                    image = self.expand()
                text = str(image[sector])
            out.append((sector, text))
        return out

    def __str__(self):
        """One line "(sigma, charge): polynomial" per sector (sector_texts),
        or "0"."""
        return "\n".join("(%d, %d): %s" % (sigma, charge, text)
                         for (sigma, charge), text in self.sector_texts()) or "0"


def _label(sector, nu, kappa, c, k):
    """The label of c * sqrt(2)^k * Q_nu * S_kappa in a sector, as a
    BosonElement._of_parts pair."""
    key = (sector, tuple(filter(None, nu)), tuple(filter(None, kappa)))
    return key, _sqrt2_pow_parts(k, c)


def normal_word_image(nw):
    """The image of a normal word as a (label, (p, q, d)) pair: sqrt(2)^(-a)
    times its coefficient times the Q-function of the phi indices and the
    S-function of the psi indices re-based at the charge, in the sector
    (a mod 2, q+r)."""
    a, r, q = len(nw.phis), len(nw.psis), nw.charge
    # psi_j less q + (r - 1 - j)
    kappa = tuple(map(operator.sub, nw.psis, range(q + r - 1, q - 1, -1)))
    return _label((a % 2, q + r), nw.phis, kappa, nw.coeff, -a)


def phi(vec):
    """The boson image of a Fock vector: the labels of the normal words of
    each word, times its coefficient (p + q sqrt2)/d."""
    parts = []
    for bits in vec._keys():
        p, q = vec._num.get(bits, 0), vec._root.get(bits, 0)
        for nw in to_normal_words(_bits_word(bits)):
            key, (a, b, d) = normal_word_image(nw)
            parts.append((key, (p * a + 2 * q * b, p * b + q * a, vec._den * d)))
    return BosonElement._of_parts(parts)


def phi_closed_form(lam, i, m, n):
    """The boson image of the basis state of lam by the closed formula for
    members of the n-fold color-i addition family over the staircase core
    (c_m for i = 1, c_{-m} for i = 0): one label."""
    i, m, n = _as_int(i, "i"), _as_int(m, "m"), _as_int(n, "n")
    if i not in (0, 1):
        raise ValueError("color must be 0 or 1")
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    core = color_core(i, m)
    if not is_added_member(core, i, n, lam):
        raise ValueError("%s is not an n=%d color-%d addition over %s"
                         % (lam, n, i, core))
    st = stats(lam)
    quot = bar_quotient(lam)
    eps = m % 2
    if i == 1:
        sign = -1 if (st.f + m) % 2 else 1
        label = _label((eps, m - 2 * n), (), quot.q1, sign, -eps)
    else:
        sign = -1 if (st.f + st.g + (st.h if eps else 0)) % 2 else 1
        label = _label(((n + m) % 2, n - m), quot.q0, quot.q1, sign, -st.a)
    return BosonElement._of_parts([label])


def core_state_image(m):
    """The boson image of the staircase core state indexed by m (any sign):
    a scalar in the sector (|m| mod 2, m)."""
    m = _as_int(m, "m")
    k = abs(m)
    eps = k % 2
    exponent = k if m >= 0 else k * (k - 1) // 2 + k
    sign = -1 if exponent % 2 else 1
    return BosonElement._of_parts([_label((eps, m), (), (), sign, -eps)])
