"""Symmetric-function algebra: complete generators h_n(t), their odd-variable
relatives q_n(s), Schur functions S_lam and Q-functions Q_lam, and the
substitutions the verification identities need.

h_n and q_n come from the Newton-style recurrences

    n h_n = sum_{k=1..n} k t_k h_{n-k}
    n q_n = sum_{k odd <= n} k s_k q_{n-k}

which produce the coefficients of exp(sum t_k z^k) and exp(sum s_k z^k)
exactly, with no series truncation.  schur and schur_q expand a
Jacobi-Trudi determinant and a Pfaffian along the first row into cached
smaller shapes; poly_det and pfaffian are the general expansions they are
tested against.  schur_sum expands a signed sum of Schur functions along
the first row as a whole, with one h_j product per first-row index j
instead of one per shape; schur is its one-shape case.  The vertical strips
of each tail come from one memoized table per tail, built for every strip
size at once.  Given the variable family S instead of T, schur_sum expands
the same determinants over q_j(s), giving S_lam[q](s); each family keeps
its own memo of built shapes.
"""

import operator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import groupby

from .exactalg import (SparsePoly, Sqrt2Rational, _linear_sum,
                       _sum_of_products, svar, tvar, zvar, S, T)
from .partitions import as_int_parts

# The memos below live for the process: SparsePoly is immutable, so sharing
# an entry is safe.  The public ones key on argument types as well, so 3.0
# never finds the entry of 3 and is rejected by operator.index, cold or warm.


@lru_cache(maxsize=None, typed=True)
def h_poly(n):
    """Weight-n complete generator in the t variables (0 for n < 0)."""
    n = operator.index(n)
    if n <= 0:
        return SparsePoly.constant(1) if n == 0 else SparsePoly.zero()
    return _sum_of_products(((k, SparsePoly.variable(tvar(k)), h_poly(n - k))
                             for k in range(1, n + 1)), n)


@lru_cache(maxsize=None, typed=True)
def q_poly(n):
    """Weight-n generator in the odd s variables (0 for n < 0)."""
    n = operator.index(n)
    if n <= 0:
        return SparsePoly.constant(1) if n == 0 else SparsePoly.zero()
    return _sum_of_products(((k, SparsePoly.variable(svar(k)), q_poly(n - k))
                             for k in range(1, n + 1, 2)), n)


def poly_det(rows):
    """Exact determinant of a square matrix of SparsePoly entries.

    Laplace expansion along successive rows, memoized over the active
    column set (fine at the sizes the verification grids produce).
    """
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix must be square")
    full = (1 << d) - 1
    memo = {}

    def minor(row, colmask):
        if row == d:
            return SparsePoly.constant(1)
        key = colmask
        got = memo.get(key)
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
        memo[key] = acc = _sum_of_products(terms)
        return acc

    return minor(0, full)


def _vertical_strips(lam, k):
    """The partitions rho with lam/rho a vertical k-strip: one box off each
    of k rows, taken from the lowest rows of each run of equal parts.  A
    tuple read from the strip table of lam, empty for k outside 0..len."""
    table = _strip_table(lam)
    return table[k] if 0 <= k < len(table) else ()


@cache
def _strip_table(lam):
    """The vertical strips of a zero-stripped partition tuple for every k
    at once: entry k is the tuple of the rho with lam/rho a vertical
    k-strip.  One pass over the runs of equal parts takes r boxes off the
    lowest r rows of each run, for every r; a part 1 that loses its box
    is dropped.  Memoized and shared, so entries are tuples."""
    shapes = [((), 0)]
    for part, run in groupby(lam):
        b = len(list(run))
        low = (part - 1,) if part > 1 else ()
        shapes = [(rho + (part,) * (b - r) + low * r, used + r)
                  for rho, used in shapes for r in range(b + 1)]
    table = [[] for _ in range(len(lam) + 1)]
    for rho, used in shapes:
        table[used].append(rho)
    return tuple(map(tuple, table))


def _shape(lam):
    """lam as a zero-stripped tuple of int parts, checked: a part that is
    not an int raises TypeError, a sequence that is not a partition
    (weakly decreasing, no negative part) raises ValueError."""
    lam = as_int_parts(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p < 0 for p in lam):
        raise ValueError("not a partition: %r" % (lam,))
    return tuple(p for p in lam if p > 0)


def schur(lam):
    """Schur function S_lam(t) for a partition lam of int parts (weakly
    decreasing; zeros are stripped), the Jacobi-Trudi determinant
    det(h_{lam_i - i + j}) expanded along its first row:

        S_lam = sum_k (-1)^k h_{lam_1 + k} sum_rho S_rho

    over rho with (lam_2, lam_3, ...)/rho a vertical k-strip.  The (1, k+1)
    minor is the skew function S_{(lam_2, ...)/1^k}, which the dual Pieri
    rule writes as that sum; each S_rho is a memo entry."""
    return _schur(_shape(lam), T)


def schur_sum(pairs, family=T):
    """sum(c * S_lam for c, lam in pairs), for int coefficients c and
    partitions lam checked as schur checks them, expanded along the first
    row as one combination: every tail S_rho that the shapes' expansions
    share is summed once per first-row index j, with its coefficients
    added up, and multiplied once by the generator of weight j.

    The variable family picks the generators: T (the default) gives
    S_lam(t) over h_j(t); S gives S_lam[q](s), the same determinant over
    q_j(s), the image of S_lam under h_j -> q_j."""
    if family not in _SCHURS:
        raise ValueError("family must be T or S, not %r" % (family,))
    coeffs = {}
    for c, lam in pairs:
        lam = _shape(lam)
        coeffs[lam] = coeffs.get(lam, 0) + operator.index(c)
    return _first_row(coeffs, family)


# S_lam by variable family and zero-stripped shape, for the life of the
# process: dicts, not functools caches, because _first_row asks whether a
# shape is built without building it.  SparsePoly is immutable, so sharing
# an entry is safe.
_SCHURS = {T: {}, S: {}}
# S of the empty shape, and the other factor of a term added as it is
_ONE = SparsePoly.constant(1)


def _schur(lam, family):
    """S_lam of the family for a zero-stripped partition tuple, memoized in
    _SCHURS[family]; the recursion builds only such tuples, so only schur
    and schur_sum check their arguments."""
    got = _SCHURS[family].get(lam)
    return _first_row({lam: 1}, family) if got is None else got


def _first_row(coeffs, family):
    """sum(c * S_lam) over a dict of zero-stripped shapes lam -> int c, in
    the family's generators: h_j(t) for T, q_j(s) for S.

    A shape already in _SCHURS[family] is added as it is.  The tall shapes
    (more rows than columns) are summed as their conjugates, which are
    wide, and that sum goes through omega, t_k -> (-1)^(k+1) t_k, once.
    Omega fixes every q_j (q has only odd power sums), so S_lam'[q] =
    S_lam[q], and the flip of the even t leaves an s-polynomial as it is.
    Each wide lam contributes (-1)^k c S_rho for every rho with
    (lam_2, ...)/rho a vertical k-strip to the bucket of j = lam_1 + k;
    the sum of each bucket is multiplied by the weight-j generator once.
    A combination that is a single S_lam with coefficient 1, such as the
    conjugate group of one tall shape, is memoized."""
    memo = _SCHURS[family]
    triples, tall, buckets = [], {}, {}
    for lam, c in coeffs.items():
        if not c:
            continue
        if not lam:
            triples.append((c, _ONE, _ONE))
        elif lam in memo:
            triples.append((c, _ONE, memo[lam]))
        elif len(lam) > lam[0]:
            tall[tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))] = c
        else:
            tail = lam[1:]
            for k in range(len(lam)):
                bucket = buckets.setdefault(lam[0] + k, {})
                for rho in _vertical_strips(tail, k):
                    bucket[rho] = bucket.get(rho, 0) + c
                c = -c
    if tall:
        weight = max(sum(lam) for lam in tall)
        triples.append((1, _ONE, _first_row(tall, family).flip(
            tvar(k) for k in range(2, weight + 1, 2))))
    generator = h_poly if family == T else q_poly
    triples.extend((1, generator(j),
                    _linear_sum((c, _schur(rho, family))
                                for rho, c in bucket.items() if c))
                   for j, bucket in buckets.items())
    if not buckets and len(triples) == 1 and triples[0][0] == 1:
        out = triples[0][2]  # one built term with coefficient 1: no copy
    else:
        out = _sum_of_products(triples)
    if list(coeffs.values()) == [1]:
        memo.setdefault(next(iter(coeffs)), out)
    return out


@lru_cache(maxsize=None, typed=True)
def qq_pair(m, n):
    """The antisymmetric pair function Q_{m,n}(s)."""
    m, n = operator.index(m), operator.index(n)
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if m == n:
        return SparsePoly.zero()
    if m < n:
        return -qq_pair(n, m)
    # Q_{m,n} = q_m q_n + 2 sum_{i=1..n} (-1)^i q_{m+i} q_{n-i}
    return _sum_of_products((2 * (-1) ** i if i else 1, q_poly(m + i), q_poly(n - i))
                            for i in range(n + 1))


def pfaffian(rows):
    """Pfaffian of a skew-symmetric even-dimensional SparsePoly matrix,
    by recursive first-row expansion."""
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix must be square")
    if d % 2 != 0:
        raise ValueError("Pfaffian needs even dimension")
    for i in range(d):
        for j in range(i, d):
            if not (rows[i][j] + rows[j][i]).is_zero():
                raise ValueError("matrix is not skew-symmetric")
    return _pf(rows, (1 << d) - 1, {})


def _pf(rows, mask, memo):
    """Pfaffian of the rows and columns in `mask`, memoized over the mask."""
    if not mask:
        return SparsePoly.constant(1)
    got = memo.get(mask)
    if got is not None:
        return got
    first = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << first)
    terms = []
    sign = 1
    for j in range(first + 1, len(rows)):
        bit = 1 << j
        if not rest & bit:
            continue
        entry = rows[first][j]
        if not entry.is_zero():
            terms.append((sign, entry, _pf(rows, rest & ~bit, memo)))
        sign = -sign
    memo[mask] = got = _sum_of_products(terms)
    return got


def schur_q(lam):
    """Q-function Q_lam(s) of a strict partition of int parts: the Pfaffian
    of the Q_{lam_i, lam_j} expanded along its first row,

        Q_lam = sum_{j >= 2} (-1)^j Q_{lam_1, lam_j} Q_{lam minus {lam_1, lam_j}},

    each sub-Pfaffian being the Q-function of the parts left.

    The index list is normalized by stripping zeros and then padding with a
    single 0 when the length is odd (the pad row gives a Q_{j,0} = q_j
    column, which is what makes the padding consistent, and makes the parts
    left after removing two the normal form of their own Q-function).
    """
    parts = tuple(p for p in as_int_parts(lam) if p != 0)
    if any(p < 0 for p in parts):
        raise ValueError("Q-function index parts must be non-negative: %r" % (lam,))
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("Q-function index must be strict: %r" % (lam,))
    return _schur_q(parts + (0,) if len(parts) % 2 else parts)


@cache
def _schur_q(parts):
    """Q_lam for an even-padded strict tuple, memoized; the parts left after
    removing two are again one, so only schur_q checks its argument."""
    if not parts:
        return SparsePoly.constant(1)
    return _sum_of_products(
        ((-1) ** (j + 1), qq_pair(parts[0], parts[j]),
         _schur_q(parts[1:j] + parts[j + 1:]))
        for j in range(1, len(parts)))


# ---------------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------------

def subst_2t2(p):
    """Doubling substitution t_j -> 2 t_{2j} (t-polynomials only)."""
    variables = p.variables()
    if any(v[0] != T for v in variables):
        raise ValueError("doubling substitution is defined on t-variables only")
    return p.substitute({v: SparsePoly.variable(tvar(2 * v[1])).scale(2)
                         for v in variables})


def subst_u(p):
    """Mixed-variable substitution: odd t_j -> t_j - s_j, the rest fixed."""
    mapping = {}
    for v in p.variables():
        if v[0] == T and v[1] % 2 == 1:
            mapping[v] = SparsePoly.variable(v) - SparsePoly.variable(svar(v[1]))
    return p.substitute(mapping)


def subst_odd(p):
    """Kill the even t variables, then apply the mixed substitution."""
    return subst_u(p.vanish(v for v in p.variables() if v[0] == T and v[1] % 2 == 0))


def subst_q_u(p):
    """Substitution s_j -> t_j - s_j on an s-polynomial (the u-coordinate
    reading of a Q-function)."""
    mapping = {}
    for v in p.variables():
        if v[0] == S:
            mapping[v] = SparsePoly.variable(tvar(v[1])) - SparsePoly.variable(v)
    return p.substitute(mapping)


def power_sum_specialize(p, n_vars):
    """Substitute t_j -> (z_1^j + ... + z_N^j)/j, giving a symmetric
    polynomial in the z variables."""
    if n_vars < 1:
        raise ValueError("need at least one z variable")
    mapping = {}
    for v in p.variables():
        if v[0] != T:
            raise ValueError("power-sum specialization is defined on t-variables only")
        j = v[1]
        mapping[v] = SparsePoly({((zvar(i), j),): Fraction(1, j)
                                 for i in range(1, n_vars + 1)})
    return p.substitute(mapping)


def _int_det(rows):
    """Determinant of a square int matrix: Laplace expansion along
    successive rows, memoized over the active column set."""
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


def bialternant_eval(lam, zs):
    """Ratio of alternants det(z_i^{lam_j + N - j}) / det(z_i^{N - j})
    at a rational point with pairwise distinct nonzero coordinates."""
    lam = tuple(p for p in lam if p > 0)
    zs = [Fraction(z) for z in zs]
    n = len(zs)
    if len(set(zs)) != n:
        raise ValueError("z coordinates must be pairwise distinct")
    if any(z == 0 for z in zs):
        raise ValueError("z coordinates must be nonzero")
    if len(lam) > n:
        return Sqrt2Rational(0)
    exps = [(lam[j] if j < len(lam) else 0) + n - 1 - j for j in range(n)]
    # row i, for z_i = a/b, times b**top: int entries a**e * b**(top - e),
    # and the same factor in both determinants cancels in the ratio
    top = exps[0] if n else 0

    def alternant(exponents):
        return _int_det([[z.numerator ** e * z.denominator ** (top - e)
                          for e in exponents] for z in zs])

    return Sqrt2Rational(Fraction(alternant(exps), alternant(range(n - 1, -1, -1))))
