"""Exact arithmetic: the scalar ring Q(sqrt2) and sparse multivariate
polynomials over it.

Scalars are a + b*sqrt(2) with rational a, b (Fraction keeps lowest terms).
A polynomial stores a rational coefficient as a plain Fraction and keeps a
Sqrt2Rational only where the sqrt(2) part is nonzero, so the symmetric-
function kernel, which never leaves Q, runs on Fraction arithmetic.
Polynomials live in three indexed variable families:

    t1, t2, t3, ...   (family T)
    s1, s3, s5, ...   (family S, odd indices only)
    z1, z2, ...       (family Z)

The weighted degree counts t_j and s_j with weight j, and z_j with weight 1
per unit of exponent.  All values are immutable, all operations pure and
exact; no floating point anywhere.
"""

from fractions import Fraction
from types import MappingProxyType

# family tags; the numeric order fixes t < s < z for term ordering
T, S, Z = 0, 1, 2

_FAMILY_NAMES = {T: "t", S: "s", Z: "z"}


class Sqrt2Rational:
    """An element a + b*sqrt(2) of Q(sqrt2), components in lowest terms."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("Sqrt2Rational components must be exact, not float")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt2Rational is immutable")

    @staticmethod
    def sqrt2_pow(k):
        """sqrt(2)**k for any integer k (negative allowed)."""
        if k % 2 == 0:
            return Sqrt2Rational(Fraction(2) ** (k // 2), 0)
        return Sqrt2Rational(0, Fraction(2) ** ((k - 1) // 2))

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        other = _promote_scalar(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        other = _promote_scalar(other)
        if other is None:
            return NotImplemented
        return Sqrt2Rational(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2Rational(-self.a, -self.b)

    def __sub__(self, other):
        other = _promote_scalar(other)
        if other is None:
            return NotImplemented
        return Sqrt2Rational(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _promote_scalar(other).__sub__(self)

    def __mul__(self, other):
        other = _promote_scalar(other)
        if other is None:
            return NotImplemented
        return Sqrt2Rational(self.a * other.a + 2 * self.b * other.b,
                             self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse: (a - b*sqrt2) / (a^2 - 2 b^2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        norm = self.a * self.a - 2 * self.b * self.b
        return Sqrt2Rational(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = _promote_scalar(other)
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
        # contract: `a`, `a/b`, or `(a+b*r2)`
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return "(%s%s%s*r2)" % (self.a, sign, abs(self.b))

    def __repr__(self):
        return "Sqrt2Rational(%r, %r)" % (str(self.a), str(self.b))


def _promote_scalar(x):
    if isinstance(x, Sqrt2Rational):
        return x
    if isinstance(x, (int, Fraction)):
        return Sqrt2Rational(x)
    return None


ZERO = Sqrt2Rational(0)
ONE = Sqrt2Rational(1)
SQRT2 = Sqrt2Rational(0, 1)


def _poly_coeff(x):
    """The canonical polynomial coefficient of a scalar: a Fraction when the
    sqrt(2) part is zero, else the Sqrt2Rational itself."""
    if isinstance(x, Sqrt2Rational):
        return x if x.b else x.a
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("not a scalar in Q(sqrt2): %r" % (x,))


# ---------------------------------------------------------------------------
# variables and monomials
# ---------------------------------------------------------------------------
# A variable is a pair (family, index); a monomial is a sorted tuple of
# ((family, index), exponent) pairs with positive exponents.

def tvar(j):
    if j < 1:
        raise ValueError("t-index must be positive")
    return (T, j)


def svar(j):
    if j < 1 or j % 2 == 0:
        raise ValueError("s-index must be odd and positive")
    return (S, j)


def zvar(j):
    if j < 1:
        raise ValueError("z-index must be positive")
    return (Z, j)


def var_name(v):
    return "%s%d" % (_FAMILY_NAMES[v[0]], v[1])


def _mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(mono):
    d = 0
    for (fam, idx), e in mono:
        d += e if fam == Z else idx * e
    return d


def _mono_sort_key(mono):
    # weighted degree descending, then lexicographic in variable order with
    # the higher power of the earlier variable first
    return (-_mono_degree(mono), tuple((v, -e) for v, e in mono))


class SparsePoly:
    """Sparse multivariate polynomial over Q(sqrt2), canonical form.

    Immutable: every operation returns a fresh value, so caches may hand the
    same instance to every caller.  `terms` is a read-only view mapping each
    monomial to its coefficient (see _poly_coeff).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = _poly_coeff(coeff)
                if coeff:
                    clean[mono] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    # -- constructors --

    @staticmethod
    def zero():
        return SparsePoly()

    @staticmethod
    def constant(c):
        return SparsePoly({(): c})

    @staticmethod
    def variable(v):
        return SparsePoly({((v, 1),): Fraction(1)})

    # -- predicates --

    def is_zero(self):
        return not self._terms

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    @staticmethod
    def _promote(x):
        if isinstance(x, SparsePoly):
            return x
        if isinstance(x, (int, Fraction, Sqrt2Rational)):
            return SparsePoly.constant(x)
        return None

    # -- ring operations --

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        _accumulate(terms, other._terms)
        return SparsePoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._promote(other) - self

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                if m in terms:
                    terms[m] = terms[m] + c
                else:
                    terms[m] = c
        return SparsePoly(terms)

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
        vs = set()
        for mono in self._terms:
            for v, _ in mono:
                vs.add(v)
        return vs

    def weighted_degree(self):
        """Max weighted degree over terms; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(_mono_degree(m) for m in self._terms)

    def is_homogeneous(self):
        degs = {_mono_degree(m) for m in self._terms}
        return len(degs) <= 1

    def substitute(self, mapping):
        """Ring-homomorphic substitution; unmapped variables pass through.

        Each power image**e is built once per call and shared by every
        monomial that contains it."""
        powers = {}
        terms = {}
        for mono, coeff in self._terms.items():
            term = SparsePoly.constant(coeff)
            for v, e in mono:
                power = powers.get((v, e))
                if power is None:
                    image = mapping.get(v)
                    if image is None:
                        image = SparsePoly.variable(v)
                    power = powers[(v, e)] = SparsePoly._promote(image) ** e
                term = term * power
            _accumulate(terms, term._terms)
        return SparsePoly(terms)

    def evaluate(self, point):
        """Exact evaluation at a full assignment variable -> scalar."""
        total = ZERO
        for mono, coeff in self._terms.items():
            val = _promote_scalar(coeff)
            for v, e in mono:
                if v not in point:
                    raise ValueError("no value assigned to %s" % var_name(v))
                val = val * (_promote_scalar(point[v]) ** e)
            total = total + val
        return total

    # -- rendering --

    def ordered_terms(self):
        return sorted(self._terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.ordered_terms():
            mono_str = "*".join(
                var_name(v) if e == 1 else "%s^%d" % (var_name(v), e)
                for v, e in mono)
            if isinstance(coeff, Fraction):
                negative = coeff < 0
                mag = abs(coeff)
                if mono_str and mag == 1:
                    body = mono_str
                elif mono_str:
                    body = "%s*%s" % (mag, mono_str)
                else:
                    body = str(mag)
            else:
                negative = False
                cs = str(coeff)
                body = "%s*%s" % (cs, mono_str) if mono_str else cs
            if not chunks:
                chunks.append(("-" if negative else "") + body)
            else:
                chunks.append((" - " if negative else " + ") + body)
        return "".join(chunks)

    def __repr__(self):
        return "SparsePoly(%s)" % self


def _accumulate(terms, more):
    """Add the monomial -> coefficient dict `more` into `terms` in place;
    cancelled coefficients stay as zeros for SparsePoly() to drop."""
    for mono, coeff in more.items():
        if mono in terms:
            terms[mono] = terms[mono] + coeff
        else:
            terms[mono] = coeff
