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
memoized, and joined from its t-, s- and z-parts, which are memoized too and
read through per-slot tables of variable, weight and name.
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
    construction, `terms`, equality and linear arithmetic from here.  A class
    maps its public keys to stored ones by _encode and back by _decode, and
    says by _promote which other operands it takes.
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
        scalar (p + q*sqrt2)/d with d > 0; repeated keys add up."""
        parts = list(parts)
        den = lcm(*(d for _, (_, _, d) in parts))
        num, root = {}, {}
        for k, (p, q, d) in parts:
            num[k] = num.get(k, 0) + p * (den // d)
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

    def _coeff_str(self, key):
        """str(self._coeff(key)), from the ints."""
        return _scalar_str(self._num.get(key, 0), self._root.get(key, 0), self._den)

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
        (A + sqrt2 B)(p + sqrt2 q) = pA + 2qB + sqrt2 (qA + pB)."""
        p, q, d = _int_parts(scalar)
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

    @staticmethod
    def sqrt2_pow(k):
        """sqrt(2)**k for any integer k (negative allowed)."""
        if k % 2 == 0:
            return Sqrt2Rational(Fraction(2) ** (k // 2), 0)
        return Sqrt2Rational(0, Fraction(2) ** ((k - 1) // 2))

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
        return self._coeff_str(0)

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
    """Ints (p, q, d) with d > 0 and c * sqrt2**k = (p + q*sqrt2)/d, for a
    rational c and any int k: sqrt2**k is a power of two, times sqrt2 when
    k is odd, so it lands in p or in q."""
    c = Fraction(c)
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
_WEIGHTS = []  # the weight of each slot's variable: j for t_j, s_j; 1 for z_j
_NAMES = []    # the name of each slot's variable, as var_name gives it
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
    a slot, and no table grows for it."""
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
            _WEIGHTS.append(1 if v[0] == Z else v[1])
            _NAMES.append(var_name(v))
            _FAMILY_MASKS[v[0]] |= _MASK << offset
            _GUARD |= _LIMIT << offset
        packed += e << offset
    _check_guard((packed,))
    return packed


def _check_guard(*parts):
    for monos in parts:
        for m in monos:
            if m & _GUARD:
                raise OverflowError("an exponent exceeds %d" % (_LIMIT - 1))


def _unpack(packed):
    """The sorted tuple monomial of a packed int, read slot by slot up to
    its highest occupied slot."""
    mono = []
    for v in _VARS:
        if not packed:
            break
        if e := packed & _MASK:
            mono.append((v, e))
        packed >>= _WIDTH
    return tuple(sorted(mono))


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

        On the int numerators: each mapped variable with a slot gets a
        power table [1, image, image**2, ...] of (num, root) pairs over
        den**e, built on demand.  A monomial's term starts as its key less
        the mapped slots, over the one lcm denominator of all terms, and is
        multiplied by one power per mapped slot; the last product adds into
        the sum, which is brought to canonical form once."""
        mask = 0
        slots = []  # (offset, power table, den) of each mapped variable
        for v, image in mapping.items():
            if v in _SLOTS:  # else no monomial contains v
                image = SparsePoly._promote(image)
                offset = _SLOTS[v]
                mask |= _MASK << offset
                slots.append((offset, [_ONE_PARTS, (image._num, image._root)], image._den))
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
        mask = 0
        for v in variables:
            if v in _SLOTS:
                mask |= _MASK << _SLOTS[v]
        num = {m: c for m, c in self._num.items() if not m & mask}
        root = {m: c for m, c in self._root.items() if not m & mask}
        return self._make(self._den, num, root)

    def flip(self, variables):
        """This polynomial with v -> -v for the given variables: a term
        changes sign when its total exponent in them is odd, the parity of
        the low bits of their slots in the packed monomial."""
        mask = 0
        for v in variables:
            if v in _SLOTS:
                mask |= 1 << _SLOTS[v]
        num = {m: -c if (m & mask).bit_count() & 1 else c for m, c in self._num.items()}
        root = {m: -c if (m & mask).bit_count() & 1 else c for m, c in self._root.items()}
        return self._make(self._den, num, root)

    def evaluate(self, point):
        """Exact evaluation at a full assignment variable -> scalar, on ints.

        With the value of a slot's variable (p + q*sqrt2)/d and top the
        slot's highest exponent here, the slot gets one table of the int
        pairs (p + q*sqrt2)**e * d**(top - e); each term multiplies its
        numerator by one entry per slot, and the sum is divided once by
        _den times the product of the d**top."""
        keys = self._keys()
        used = 0
        for m in keys:
            used |= m
        tables = []
        scale = self._den
        for offset in range(0, used.bit_length(), _WIDTH):
            if not (used >> offset) & _MASK:
                continue
            top = max((m >> offset) & _MASK for m in keys)
            v = _VARS[offset // _WIDTH]
            if v not in point:
                raise ValueError("no value assigned to %s" % var_name(v))
            p, q, d = _int_parts(point[v])
            table = []
            a, b = 1, 0
            for e in range(top + 1):
                table.append((a * d ** (top - e), b * d ** (top - e)))
                a, b = a * p + 2 * b * q, a * q + b * p
            tables.append((offset, table))
            scale *= d ** top
        num = root = 0
        for m in keys:
            a, b = self._num.get(m, 0), self._root.get(m, 0)
            for offset, table in tables:
                x, y = table[(m >> offset) & _MASK]
                a, b = a * x + 2 * b * y, a * y + b * x
            num += a
            root += b
        return Sqrt2Rational._make(scale, {0: num}, {0: root})

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


def _emit(texts, nums, roots, den):
    """The rendering of the terms (num + root*sqrt2)/den * monomial, for
    parallel iterables of monomial texts and int parts, in order (num or
    root nonzero in each term); "0" for no terms.  A rational coefficient
    renders as its sign and magnitude (none for a unit before a monomial),
    a sqrt(2) one as `(a+b*r2)`; coefficients need not be in lowest terms
    over den, and each distinct magnitude is formatted once."""
    mags = {}  # |numerator| -> its magnitude text over den
    chunks = []
    for text, n, r in zip(texts, nums, roots):
        if r:
            sep = " + "
            body = _scalar_str(n, r, den)
            if text:
                body += "*" + text
        else:
            sep = " + " if n > 0 else " - "
            n = abs(n)
            if text and n == den:
                body = text
            else:
                body = mags.get(n)
                if body is None:
                    body = mags[n] = _ratio_str(n, den)
                if text:
                    body += "*" + text
        chunks.append(sep)
        chunks.append(body)
    if not chunks:
        return "0"
    # the first term carries its sign with no spaces
    chunks[0] = "-" if chunks[0] == " - " else ""
    return "".join(chunks)


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
    (p + q*sqrt2)*x*y/(d * a._den * b._den)."""
    p, q, d = w
    a_keys, heads = _sorted_texts(a._keys())
    b_keys, tails = _sorted_texts(b._keys())
    ys = [b._num[m] for m in b_keys]
    # a homogeneous polynomial with a constant term is that constant
    join = "*" if heads[0] and tails[0] else ""
    texts, nums, roots = [], [], []
    for m, head in zip(a_keys, heads):
        texts += map((head + join).__add__, tails)
        x = a._num[m]
        nums += map((p * x).__mul__, ys)
        if q:
            roots += map((q * x).__mul__, ys)
    return _emit(texts, nums, roots if q else repeat(0), d * a._den * b._den)


@cache
def _mono_text(m):
    """The sort key and the rendering of a packed monomial, memoized: slots
    are only ever appended, so a packed int names the same monomial for the
    life of the process.  The key is the flat int tuple
    (-deg, fam1, idx1, -e1, fam2, idx2, -e2, ...) over the variables in
    order, so terms sort by weighted degree descending, then lexicographically
    in variable order with the higher power of the earlier variable first;
    at equal degree no key is a proper prefix of another.  Both are joined
    from the monomial's t-, s- and z-parts, in that order, each cut out by
    its family's slot mask and memoized in _family_part."""
    t_mask, s_mask, z_mask = _FAMILY_MASKS
    t, s, z = m & t_mask, m & s_mask, m & z_mask
    if m in (t, s, z):  # at most one family: the monomial is its one part
        deg, fields, text = _family_part(m)
        return (-deg,) + fields, text
    t, s, z = _family_part(t), _family_part(s), _family_part(z)
    return ((-t[0] - s[0] - z[0],) + t[1] + s[1] + z[1],
            "*".join(filter(None, (t[2], s[2], z[2]))))


@cache
def _family_part(part):
    """(degree, key fields, text) of a packed monomial in one family's
    slots, read through the per-slot tables.  The fields and the text run
    in index order, not slot order, so a variable slotted after others of
    its family still sorts in its place."""
    slots = []
    while part:
        slot = ((part & -part).bit_length() - 1) // _WIDTH
        e = (part >> slot * _WIDTH) & _MASK
        part ^= e << slot * _WIDTH
        slots.append((_VARS[slot], e, slot))
    slots.sort()
    deg, fields, texts = 0, (), []
    for v, e, slot in slots:
        deg += _WEIGHTS[slot] * e
        fields += (*v, -e)
        texts.append(_NAMES[slot] if e == 1 else "%s^%d" % (_NAMES[slot], e))
    return deg, fields, "*".join(texts)


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


def _power(table, e):
    """Entry e of a power table [1, x, x**2, ...] of (num, root) pairs,
    extended on demand: each new power is the last one times x."""
    while len(table) <= e:
        power = _product_parts({}, {}, table[-1], table[1])
        _check_guard(*power)
        table.append(power)
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
