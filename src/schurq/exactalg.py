"""Exact arithmetic: the scalar ring Q(sqrt2) and sparse multivariate
polynomials over it.

Every exact value is one integer form, _IntCombination: integer numerators
over one shared denominator, with the sqrt(2) part in a second numerator
dict.  A scalar a + b*sqrt(2) is its one-key case.  A polynomial keys it by
packed-int monomials; its sqrt(2) part is filled only in boson sectors, so
the symmetric-function kernel, which never leaves Q, multiplies plain ints.
Fock vectors and boson images (fock.FockVector, fock.BosonElement) key it by
words and labels.  Polynomials live in three indexed variable families:

    t1, t2, t3, ...   (family T)
    s1, s3, s5, ...   (family S, odd indices only)
    z1, z2, ...       (family Z)

The weighted degree counts t_j and s_j with weight j, and z_j with weight 1
per unit of exponent.  All values are immutable, all operations pure and
exact; no floating point anywhere.  A monomial's sort key and text are
one memo entry: a monomial of one family decodes its occupied slots into
memoized per-(slot, exponent) pieces; one of several joins the entries of
its t-, s- and z-parts.  A rendering formats each distinct coefficient
once and emits each term as that text and the monomial's; the product of
two factors renders this way in one pass over their pairs of terms, with
no product built.
"""

from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm
from types import MappingProxyType

# family tags; the numeric order fixes t < s < z for term ordering
T, S, Z = 0, 1, 2

_FAMILY_NAMES = {T: "t", S: "s", Z: "z"}


class _IntCombination:
    """A finite combination (_num + sqrt2*_root)/_den of keys over Q(sqrt2),
    in canonical form: _num and _root map keys to nonzero ints, and the
    positive int _den is coprime to them all, so equal combinations have
    equal parts.  Sqrt2Rational (one key), SparsePoly (keys: packed
    monomials), fock.FockVector (keys: words as bitsets) and
    fock.BosonElement (keys: labels) store their values this way, and share
    construction, `terms`, equality, linear arithmetic and pickling from
    here.  A class maps its public keys to stored ones by _encode and back
    by _decode, and says by _promote which other operands it takes.
    Immutable: operations build new values through _make."""

    __slots__ = ("_den", "_num", "_root")

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @staticmethod
    def _encode(key):
        return key

    @staticmethod
    def _decode(key):
        return key

    def __new__(cls, terms=None):
        return cls._of((cls._encode(k), c) for k, c in (terms or {}).items())

    def __reduce__(self):
        # public keys: a packed monomial names a variable only through the
        # slot order of the process that packed it
        decode = self._decode
        return (self._rebuild, (self._den, {decode(k): c for k, c in self._num.items()},
                                {decode(k): c for k, c in self._root.items()}))

    @classmethod
    def _rebuild(cls, den, num, root):
        """The combination that __reduce__ took apart, keys encoded here."""
        encode = cls._encode
        return cls._make(den, {encode(k): c for k, c in num.items()},
                         {encode(k): c for k, c in root.items()})

    @property
    def terms(self):
        """A read-only view mapping each public key to its coefficient (a
        Fraction unless the sqrt(2) part is nonzero)."""
        return MappingProxyType({self._decode(k): self._coeff(k) for k in self._keys()})

    @classmethod
    def zero(cls):
        return cls._make(1, {}, {})

    @classmethod
    def _make(cls, den, num, root):
        """The combination (num + sqrt2*root)/den, brought to canonical form."""
        g = gcd(den, *num.values(), *root.values())
        if g != 1 or 0 in num.values() or 0 in root.values():
            num = {k: c // g for k, c in num.items() if c}
            root = {k: c // g for k, c in root.items() if c}
        out = object.__new__(cls)
        object.__setattr__(out, "_den", den // g)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_root", root)
        return out

    @classmethod
    def _of(cls, pairs):
        """The combination of (key, scalar) pairs; repeated keys add up."""
        return cls._of_parts((k, _int_parts(c)) for k, c in pairs)

    @classmethod
    def _of_parts(cls, parts):
        """The combination of (key, (p, q, d)) pairs, each standing for the
        scalar (p + q*sqrt2)/d with d > 0; repeated keys add up.  A zero p
        or q adds no entry, so a sum with nothing to cancel is canonical
        as built."""
        parts = list(parts)
        den = lcm(*(d for _, (_, _, d) in parts))
        num, root = {}, {}
        for k, (p, q, d) in parts:
            if p:
                num[k] = num.get(k, 0) + p * (den // d)
            if q:
                root[k] = root.get(k, 0) + q * (den // d)
        return cls._make(den, num, root)

    @classmethod
    def _promote(cls, x):
        """x as an operand of this class, or None: here, x itself when it is
        one."""
        return x if isinstance(x, cls) else None

    def _coeff(self, key):
        """The coefficient of a key: a Fraction when its sqrt(2) part is
        zero, else a Sqrt2Rational."""
        b = self._root.get(key)
        if b:
            return Sqrt2Rational._make(self._den, {0: self._num.get(key, 0)}, {0: b})
        return Fraction(self._num.get(key, 0), self._den)

    def _keys(self):
        return self._num.keys() | self._root.keys() if self._root else self._num.keys()

    def is_zero(self):
        return not self._num and not self._root

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return (self._den == other._den and self._num == other._num
                and self._root == other._root)

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return _linear_sum(((1, self), (1, other)))

    def __neg__(self):
        return _linear_sum(((-1, self),))

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return _linear_sum(((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, scalar):
        """This combination times a scalar, on the int numerators:
        (A + sqrt2 B)(p + sqrt2 q) = pA + 2qB + sqrt2 (qA + pB).  A scalar
        1/d changes only the denominator: no value mutates its dicts, so
        the result may share them."""
        p, q, d = _int_parts(scalar)
        if p == 1 and not q:
            return self._make(self._den * d, self._num, self._root)
        num = {k: p * c for k, c in self._num.items()} if p else {}
        root = {k: p * c for k, c in self._root.items()} if p else {}
        if q:
            for k, c in self._root.items():
                num[k] = num.get(k, 0) + 2 * q * c
            for k, c in self._num.items():
                root[k] = root.get(k, 0) + q * c
        return self._make(self._den * d, num, root)


class Sqrt2Rational(_IntCombination):
    """An element a + b*sqrt(2) of Q(sqrt2): the one-key combination
    (p + q*sqrt2)/d, with a = p/d and b = q/d."""

    __slots__ = ()

    def __new__(cls, a, b=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("Sqrt2Rational components must be exact, not float")
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)
        return cls._make(d, {0: a.numerator * (d // a.denominator)},
                         {0: b.numerator * (d // b.denominator)})

    @property
    def a(self):
        return Fraction(self._num.get(0, 0), self._den)

    @property
    def b(self):
        return Fraction(self._root.get(0, 0), self._den)

    @classmethod
    def _promote(cls, x):
        if isinstance(x, Sqrt2Rational):
            return x
        if isinstance(x, (int, Fraction)):
            return Sqrt2Rational(x)
        return None

    def __hash__(self):
        # a rational scalar equals its Fraction, so it hashes as one
        return hash((self.a, self.b)) if self._root else hash(self.a)

    # perfbench's tracer wraps only the names in a class's own namespace
    __add__ = __radd__ = _IntCombination.__add__

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse: (a - b*sqrt2) / (a^2 - 2 b^2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        a, b = self.a, self.b
        norm = a * a - 2 * b * b
        return Sqrt2Rational(a / norm, -b / norm)

    def __truediv__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        return _scalar_str(self._num.get(0, 0), self._root.get(0, 0), self._den)

    def __repr__(self):
        return "Sqrt2Rational(%r, %r)" % (str(self.a), str(self.b))


ZERO = Sqrt2Rational(0)
ONE = Sqrt2Rational(1)
SQRT2 = Sqrt2Rational(0, 1)


def _int_parts(x):
    """Ints (p, q, d) with d > 0 and the scalar x = (p + q*sqrt2)/d."""
    if isinstance(x, Sqrt2Rational):
        return x._num.get(0, 0), x._root.get(0, 0), x._den
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    raise TypeError("not a scalar in Q(sqrt2): %r" % (x,))


def _sqrt2_pow_parts(k, c=1):
    """Ints (p, q, d) with d > 0 and c * sqrt2**k = (p + q*sqrt2)/d, for an
    int or Fraction c and any int k: sqrt2**k is a power of two, times
    sqrt2 when k is odd, so it lands in p or in q."""
    e = k // 2
    p, d = c.numerator << max(e, 0), c.denominator << max(-e, 0)
    return (0, p, d) if k % 2 else (p, 0, d)


def _ratio_str(n, d):
    """str(Fraction(n, d)) for ints n and d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else "%d/%d" % (n // g, d // g)


def _scalar_str(p, q, d):
    """The rendering of the scalar (p + q*sqrt2)/d: `a`, `a/b`, or
    `(a+b*r2)`, with a and b rational in lowest terms."""
    if not q:
        return _ratio_str(p, d)
    return "(%s%s%s*r2)" % (_ratio_str(p, d), "+" if q > 0 else "-",
                            _ratio_str(abs(q), d))


# ---------------------------------------------------------------------------
# variables and monomials
# ---------------------------------------------------------------------------
# A variable is a pair (family, index); a monomial is a sorted tuple of
# ((family, index), exponent) pairs with positive exponents.  Inside
# SparsePoly it is one int with a _WIDTH-bit slot per variable, assigned on
# first use, so a product of monomials is a sum of ints.  Exponents stay
# below _LIMIT, so the top (guard) bit of a slot is set only by an overflow.

_WIDTH = 16
_LIMIT = 1 << (_WIDTH - 1)
_MASK = (1 << _WIDTH) - 1
_SLOTS = {}    # variable -> bit offset of its slot
_VARS = []     # the variable of each slot, in offset order
_FAMILY_MASKS = [0, 0, 0]  # by family tag: the bits of its assigned slots
_GUARD = 0     # the guard bits of every assigned slot


# the index each family takes, as tvar, svar and zvar state it
_INDEX_RULES = {T: "a positive int", S: "an odd positive int", Z: "a positive int"}


def _checked_var(v):
    """v itself when it is a variable: a pair (family, j) of a family tag
    and an int j >= 1, odd for S.  Anything else is a ValueError that names
    it."""
    family, j = v if type(v) is tuple and len(v) == 2 else (None, None)
    if type(family) is not int or family not in _INDEX_RULES:
        raise ValueError("%r is not a variable of the t, s or z family" % (v,))
    if type(j) is not int or j < 1 or (family == S and j % 2 == 0):
        name = _FAMILY_NAMES[family]
        raise ValueError("%s%r is not a variable: the %s-index must be %s"
                         % (name, j, name, _INDEX_RULES[family]))
    return v


def tvar(j):
    return _checked_var((T, j))


def svar(j):
    return _checked_var((S, j))


def zvar(j):
    return _checked_var((Z, j))


def var_name(v):
    return "%s%d" % (_FAMILY_NAMES[v[0]], v[1])


def _pack(mono):
    """The packed int of a tuple monomial.  Every variable is checked, so a
    malformed one fails the same way whether or not an equal key already has
    a slot, and gets none."""
    global _GUARD
    packed = 0
    for v, e in mono:
        _checked_var(v)
        if e < 0:
            raise ValueError("negative exponent of %s" % var_name(v))
        if e >= _LIMIT:
            raise OverflowError("exponent of %s exceeds %d" % (var_name(v), _LIMIT - 1))
        offset = _SLOTS.get(v)
        if offset is None:
            offset = _SLOTS[v] = len(_VARS) * _WIDTH
            _VARS.append(v)
            _FAMILY_MASKS[v[0]] |= _MASK << offset
            _GUARD |= _LIMIT << offset
        packed += e << offset
    _check_guard((packed,))
    return packed


def _slot_mask(variables, field):
    """The bits `field` placed in the slot of each variable that has one
    (a variable with no slot is in no monomial), ORed together."""
    mask = 0
    for v in variables:
        if v in _SLOTS:
            mask |= field << _SLOTS[v]
    return mask


def _check_guard(*parts):
    for monos in parts:
        for m in monos:
            if m & _GUARD:
                raise OverflowError("an exponent exceeds %d" % (_LIMIT - 1))


def _unpack(packed):
    """The sorted tuple monomial of a packed int, read off its sort key,
    whose fields after -deg are (family, index, -e) per variable in
    variable order."""
    key = _mono_text(packed)[0]
    return tuple(((key[i], key[i + 1]), -key[i + 2]) for i in range(1, len(key), 3))


class SparsePoly(_IntCombination):
    """Sparse multivariate polynomial over Q(sqrt2): an _IntCombination
    of packed monomials.  Immutable: every operation returns a fresh value,
    so caches may hand the same instance to every caller.  `terms` maps
    each tuple monomial to its coefficient.
    """

    __slots__ = ()

    _encode = staticmethod(_pack)
    _decode = staticmethod(_unpack)

    # -- constructors --

    @staticmethod
    def constant(c):
        p, q, d = _int_parts(c)
        return SparsePoly._make(d, {0: p}, {0: q})

    @staticmethod
    def variable(v):
        return SparsePoly({((v, 1),): 1})

    # -- predicates --

    # perfbench's tracer wraps only the names in a class's own namespace
    __eq__ = _IntCombination.__eq__

    def __hash__(self):
        if self._keys() <= {0}:
            # a constant equals its coefficient, so it hashes as one
            return hash(self._coeff(0))
        return hash((self._den, frozenset(self._num.items()),
                     frozenset(self._root.items())))

    @classmethod
    def _promote(cls, x):
        if isinstance(x, SparsePoly):
            return x
        if isinstance(x, (int, Fraction, Sqrt2Rational)):
            return SparsePoly.constant(x)
        return None

    # -- ring operations --

    # perfbench's tracer wraps only the names in a class's own namespace
    __add__ = __radd__ = _IntCombination.__add__

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = SparsePoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- structure --

    def variables(self):
        used = 0
        for m in self._keys():
            used |= m
        return {v for v, _ in _unpack(used)}

    def weighted_degree(self):
        """Max weighted degree over terms; None for the zero polynomial."""
        return max((-_mono_text(m)[0][0] for m in self._keys()), default=None)

    def is_homogeneous(self):
        # the first entry of a monomial's sort key is minus its degree
        return len({_mono_text(m)[0][0] for m in self._keys()}) <= 1

    def substitute(self, mapping):
        """Ring-homomorphic substitution; unmapped variables pass through.

        On the int numerators: each mapped variable with a slot reads the
        power table {0: 1, 1: image, 2: image**2, ...} of (num, root) pairs
        over den**e of its image (_power_table), built on demand.  A
        monomial's term starts as its key less the mapped slots, over the
        one lcm denominator of all terms, and is multiplied by one power per
        mapped slot; the last product adds into the sum, which is brought
        to canonical form once."""
        mask = _slot_mask(mapping, _MASK)
        slots = []  # (offset, power table, den) of each mapped variable
        for v, image in mapping.items():
            if v in _SLOTS:  # else no monomial contains v
                image = SparsePoly._promote(image)
                offset = _SLOTS[v]
                slots.append((offset, _power_table(image), image._den))
        keys = self._keys()
        dens = {}
        for offset, _, den in slots:
            if den != 1:
                for m in keys:
                    dens[m] = dens.get(m, 1) * den ** ((m >> offset) & _MASK)
        common = lcm(*dens.values())
        num, root = {}, {}
        for m in keys:
            scale = common // dens.get(m, 1)
            a, b = self._num.get(m, 0) * scale, self._root.get(m, 0) * scale
            rest = m & ~mask
            term = ({rest: a} if a else {}, {rest: b} if b else {})
            powers = [_power(table, e) for offset, table, _ in slots
                      if (e := (m >> offset) & _MASK)] or [_ONE_PARTS]
            for power in powers[:-1]:
                term = _product_parts({}, {}, term, power)
                _check_guard(*term)
            _product_parts(num, root, term, powers[-1])
        # every last product adds two guard-free monomials, so a slot that
        # overflowed there still shows its guard bit
        _check_guard(num, root)
        return self._make(self._den * common, num, root)

    def vanish(self, variables):
        """This polynomial with the given variables set to zero: its terms
        free of them, kept by a mask over the packed monomials."""
        mask = _slot_mask(variables, _MASK)
        num = {m: c for m, c in self._num.items() if not m & mask}
        root = {m: c for m, c in self._root.items() if not m & mask}
        return self._make(self._den, num, root)

    def flip(self, variables):
        """This polynomial with v -> -v for the given variables: a term
        changes sign when its total exponent in them is odd, the parity of
        the low bits of their slots in the packed monomial."""
        mask = _slot_mask(variables, 1)
        num = {m: -c if (m & mask).bit_count() & 1 else c for m, c in self._num.items()}
        root = {m: -c if (m & mask).bit_count() & 1 else c for m, c in self._root.items()}
        return self._make(self._den, num, root)

    def evaluate(self, point):
        """Exact evaluation at a full assignment variable -> scalar, on ints.

        Variables are read in (family, index) order, so an unassigned one
        named is the first in that order.  A sqrt(2) part, in the
        polynomial or in a value read, is left to substitute, which leaves
        a constant.  Otherwise, with the value of a variable p/d and top
        its highest exponent here, each variable gets one table of the ints
        p**e * d**(top - e); each term multiplies its numerator by one entry
        per variable, and the sum is divided once by _den times the product
        of the d**top."""
        values = []  # (variable, (p, q, d)) of each variable read
        for v in sorted(self.variables()):
            if v not in point:
                raise ValueError("no value assigned to %s" % var_name(v))
            values.append((v, _int_parts(point[v])))
        if self._root or any(q for _, (_, q, _) in values):
            c = self.substitute({v: point[v] for v, _ in values})
            return Sqrt2Rational._make(c._den, c._num, c._root)
        keys = self._keys()
        terms = list(self._num.values())  # in the order of keys
        scale = self._den
        for v, (p, _, d) in values:
            offset = _SLOTS[v]
            column = [(m >> offset) & _MASK for m in keys]
            top = max(column)
            table = [p ** e * d ** (top - e) for e in range(top + 1)]
            terms = [a * table[e] for a, e in zip(terms, column)]
            scale *= d ** top
        return Sqrt2Rational._make(scale, {0: sum(terms)}, {})

    # -- rendering --

    def __str__(self):
        keys, texts = _sorted_texts(self._keys())
        num, root = self._num, self._root
        return _emit(texts, map(num.get, keys, repeat(0)),
                     map(root.get, keys, repeat(0)) if root else repeat(0),
                     self._den)

    def __repr__(self):
        return "SparsePoly(%s)" % self


def _sorted_texts(keys):
    """The packed monomials in rendering order, and their renderings."""
    keys = sorted(keys, key=lambda m: _mono_text(m)[0])
    return keys, [_mono_text(m)[1] for m in keys]


def _coeff_text(n, r, den):
    """The separator and coefficient that precede a monomial's text in a
    rendering, for the term (n + r*sqrt2)/den * monomial (n or r nonzero,
    not necessarily in lowest terms over den): " + 3/2*", " - " for a unit,
    " + (a+b*r2)*"."""
    if r:
        return " + %s*" % _scalar_str(n, r, den)
    sign = " + " if n > 0 else " - "
    ratio = _ratio_str(abs(n), den)
    return sign if ratio == "1" else "%s%s*" % (sign, ratio)


def _join_terms(chunks):
    """The rendering of signed terms, each chunk led by " + " or " - ";
    "0" for none.  The first term carries its sign with no spaces."""
    if not chunks:
        return "0"
    out = "".join(chunks)
    return out[3:] if out[1] == "+" else "-" + out[3:]


def _emit(texts, nums, roots, den):
    """The rendering of the terms (num + root*sqrt2)/den * monomial, for
    parallel iterables of monomial texts and int parts, in order (num or
    root nonzero in each term); "0" for no terms.  Each distinct
    coefficient is formatted once; the constant term, whose text is empty,
    renders as its coefficient alone."""
    coeffs = {}  # a rational coefficient's num -> its _coeff_text
    chunks = []
    for text, n, r in zip(texts, nums, roots):
        if text and not r:
            coeff = coeffs.get(n)
            if coeff is None:
                coeff = coeffs[n] = _coeff_text(n, 0, den)
            chunks += coeff, text
        elif text:
            chunks += _coeff_text(n, r, den), text
        elif r:
            chunks.append(" + " + _scalar_str(n, r, den))
        else:
            chunks.append((" + " if n > 0 else " - ") + _ratio_str(abs(n), den))
    return _join_terms(chunks)


def _render_product(w, a, b):
    """str(w * a * b) for the scalar w = (p + q*sqrt2)/d given as int parts
    (p, q, d) and rational polynomials a, b, with no product built.

    Precondition: a and b are nonzero and homogeneous, have no sqrt(2)
    part, and every variable of a sorts before every variable of b (as t
    before s).  Then every term of the product has the same degree, and its
    sort key and its text are a's followed by b's, so the terms come in a's
    rendering order and, within each of a's terms, in b's; distinct pairs
    of terms give distinct monomials, so no two terms meet.  The term of
    the numerators x of a and y of b has the coefficient
    (p + q*sqrt2)*x*y/(d * a._den * b._den).  One pass over the pairs
    emits each signed, formatted term: its coefficient text, formatted
    once per distinct x*y, and the two monomial texts."""
    p, q, d = w
    den = d * a._den * b._den
    a_keys, heads = _sorted_texts(a._keys())
    b_keys, tails = _sorted_texts(b._keys())
    if not heads[0] and not tails[0]:
        # a homogeneous polynomial with a constant term is that constant
        xy = a._num[0] * b._num[0]
        return _scalar_str(p * xy, q * xy, den)
    tails = list(zip(tails, map(b._num.__getitem__, b_keys)))
    join = "*" if heads[0] and tails[0][0] else ""
    coeffs = {}  # x*y -> the _coeff_text of its terms
    chunks = []
    for m, head in zip(a_keys, heads):
        x = a._num[m]
        head += join
        for tail, y in tails:
            coeff = coeffs.get(x * y)
            if coeff is None:
                coeff = coeffs[x * y] = _coeff_text(p * x * y, q * x * y, den)
            chunks += coeff, head, tail
    return _join_terms(chunks)


@cache
def _slot_piece(slot, e):
    """The piece of a monomial that one occupied slot contributes, memoized
    per (slot, exponent): its sort-key fields (family, index, -e), its
    weighted degree and its text."""
    family, j = v = _VARS[slot]
    name = var_name(v)
    return (family, j, -e), (e if family == Z else j * e), (
        name if e == 1 else "%s^%d" % (name, e))


@cache
def _mono_text(m):
    """The sort key and the rendering of a packed monomial, memoized: slots
    are only ever appended, so a packed int names the same monomial for the
    life of the process.  The key is the flat int tuple
    (-deg, fam1, idx1, -e1, fam2, idx2, -e2, ...) over the variables in
    order, so terms sort by weighted degree descending, then lexicographically
    in variable order with the higher power of the earlier variable first;
    at equal degree no key is a proper prefix of another.  A monomial of one
    family decodes its occupied slots, highest first, straight into their
    memoized pieces (_slot_piece) and sorts them, so it runs in index
    order, not slot order; one of several joins the entries of its t-, s-
    and z-parts, in that order, each cut out by its family's slot mask."""
    t_mask, s_mask, z_mask = _FAMILY_MASKS
    parts = m & t_mask, m & s_mask, m & z_mask
    deg, fields, texts = 0, (), []
    if m not in parts:  # several families
        for part in parts:
            if part:
                key, text = _mono_text(part)
                deg -= key[0]
                fields += key[1:]
                texts.append(text)
        return (-deg,) + fields, "*".join(texts)
    pieces = []
    while m:
        shift = (m.bit_length() - 1) // _WIDTH * _WIDTH
        e = m >> shift
        m ^= e << shift
        pieces.append(_slot_piece(shift // _WIDTH, e))
    pieces.sort()
    for piece_fields, weight, text in pieces:
        deg += weight
        fields += piece_fields
        texts.append(text)
    return (-deg,) + fields, "*".join(texts)


def _product(out, a, b, scale=1):
    """Add scale * a * b into out; dicts packed monomial -> int."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


def _product_parts(num, root, a, b, scale=1):
    """Add scale * a * b into the int dicts num and root, for (num, root)
    pairs a and b, and return (num, root):
    (A + sqrt2 B)(C + sqrt2 D) = AC + 2BD + sqrt2 (AD + BC)."""
    (A, B), (C, D) = a, b
    _product(num, A, C, scale)
    if B or D:
        _product(num, B, D, 2 * scale)
        _product(root, A, D, scale)
        _product(root, B, C, scale)
    return num, root


_ONE_PARTS = ({0: 1}, {})  # the (num, root) pair of the polynomial 1


_POWER_TABLES = {}  # an image's parts -> its power table


def _power_table(image):
    """The power table {0: 1, 1: image, 2: image**2, ...} of (num, root)
    pairs of a polynomial, one per image for the life of the process,
    extended on demand by _power.  It is keyed by the image's parts, so a
    lookup compares no polynomials."""
    key = (image._den, frozenset(image._num.items()), frozenset(image._root.items()))
    return _POWER_TABLES.setdefault(key, {0: _ONE_PARTS, 1: (image._num, image._root)})


def _power(table, e):
    """Entry e of a power table {0: 1, 1: x, 2: x**2, ...} of (num, root)
    pairs, extended on demand: each new power is the last one times x,
    stored only once its exponents fit.  Its exponents run 0..len - 1, and
    setdefault keeps the first of two equal powers that two threads store,
    so a table shared by threads stays right."""
    while len(table) <= e:
        k = len(table)
        power = _product_parts({}, {}, table[k - 1], table[1])
        _check_guard(*power)
        table.setdefault(k, power)
    return table[e]


def _sum_of_products(triples, den=1):
    """sum(w * a * b for w, a, b in triples) / den for int weights w and
    SparsePolys a, b.  Every product goes straight into one pair of int
    dicts at one lcm denominator, so no polynomial is built per product
    and the sum is brought to canonical form once."""
    triples = list(triples)
    common = lcm(*(a._den * b._den for _, a, b in triples))
    num, root = {}, {}
    for w, a, b in triples:
        _product_parts(num, root, (a._num, a._root), (b._num, b._root),
                       w * (common // (a._den * b._den)))
    _check_guard(num, root)
    return SparsePoly._make(common * den, num, root)


def _linear_sum(pairs):
    """sum(w * p for w, p in pairs) for int weights w and
    combinations p of one type (SparsePoly for an empty sum), every term
    rescaled to one lcm denominator and summed in one pass."""
    pairs = list(pairs)
    cls = type(pairs[0][1]) if pairs else SparsePoly
    common = lcm(*(p._den for _, p in pairs))
    num, root = {}, {}
    for w, p in pairs:
        scale = w * (common // p._den)
        for part, out in ((p._num, num), (p._root, root)):
            get = out.get
            for m, c in part.items():
                out[m] = get(m, 0) + c * scale
    return cls._make(common, num, root)
