"""Symmetric-function algebra: complete generators h_n(t), their odd-variable
relatives q_n(s), Schur functions S_lam and Q-functions Q_lam, and the
substitutions the verification identities need.

h_n and q_n come from one Newton-style recurrence, _newton,

    n h_n = sum_{k=1..n} k t_k h_{n-k}
    n q_n = sum_{k odd <= n} k s_k q_{n-k}

which produces the coefficients of exp(sum t_k z^k) and exp(sum s_k z^k)
exactly, with no series truncation.  schur and schur_q expand a
Jacobi-Trudi determinant and a Pfaffian along the first row into cached
smaller shapes; poly_det is the general determinant schur is tested
against, and pfaffian the general Pfaffian, which shares its first-row
expansion, _pf_row, with schur_q.  schur_sum expands a signed sum of Schur
functions along the first row as a whole, with one h_j product per
first-row index j instead of one per shape; schur is its one-shape case.
The vertical strips of each tail come from one memoized table per tail,
built for every strip size at once.  Given the variable family S instead
of T, schur_sum expands the same determinants over q_j(s), giving
S_lam[q](s); each family keeps its own memo of built shapes.
"""

import operator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import groupby

from .exactalg import (SparsePoly, Sqrt2Rational, _linear_sum,
                       _sum_of_products, svar, tvar, zvar, S, T)
from .partitions import _as_int, as_int_parts

# The memos below live for the process: SparsePoly is immutable, so sharing
# an entry is safe.  The public ones key on argument types as well, so 3.0
# never finds the entry of 3 and is rejected by operator.index, cold or warm.


@lru_cache(maxsize=None, typed=True)
def h_poly(n):
    """Weight-n complete generator in the t variables (0 for n < 0)."""
    return _newton(n, T, "h_poly")


@lru_cache(maxsize=None, typed=True)
def q_poly(n):
    """Weight-n generator in the odd s variables (0 for n < 0)."""
    return _newton(n, S, "q_poly")


def _newton(n, family, name):
    """The weight-n generator of the family by the Newton recurrence
    n g_n = sum_k k x_k g_{n-k}, over every k for T and the odd k for S.
    The smaller g come from the module global `name`, read at call time,
    so a wrapper put there sees the recursion."""
    n = operator.index(n)
    if n <= 0:
        return SparsePoly.constant(1) if n == 0 else SparsePoly.zero()
    generator = globals()[name]
    return _sum_of_products(((k, SparsePoly.variable((family, k)), generator(n - k))
                             for k in range(1, n + 1, 2 if family == S else 1)), n)


def poly_det(rows):
    """Exact determinant of a square matrix of SparsePoly entries.

    Laplace expansion along successive rows, memoized per call over the
    columns left (fine at the sizes the verification grids produce): the
    row is the next one down, and the k-th column left takes the sign
    (-1)^k.  It divides nothing: a quotient of SparsePolys need not be
    one, so the fraction-free elimination of _int_det, whose ints divide
    exactly, does not carry over.
    """
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix must be square")

    @cache  # one memo per call, over the columns left
    def minor(cols):
        if not cols:
            return SparsePoly.constant(1)
        row = rows[d - len(cols)]
        return _sum_of_products(((-1) ** k, row[c], minor(cols[:k] + cols[k + 1:]))
                                for k, c in enumerate(cols) if not row[c].is_zero())

    return minor(tuple(range(d)))


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

    @cache  # one memo per call, over the indices left
    def sub(idx):
        return _pf_row(lambda i, j: rows[i][j], idx, sub)

    return sub(tuple(range(d)))


def _pf_row(entry, idx, sub):
    """The Pfaffian over the index tuple idx expanded along its first row,

        Pf = sum_{j >= 1} (-1)^(j+1) entry(idx_0, idx_j) Pf(idx - {idx_0, idx_j}),

    each smaller Pfaffian being sub(the tuple of the indices left); a zero
    entry asks for none.  1 for no indices."""
    if not idx:
        return SparsePoly.constant(1)
    terms = []
    for j in range(1, len(idx)):
        e = entry(idx[0], idx[j])
        if not e.is_zero():
            terms.append(((-1) ** (j + 1), e, sub(idx[1:j] + idx[j + 1:])))
    return _sum_of_products(terms)


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
    """Q_lam for an even-padded strict tuple, memoized: the Pfaffian of the
    Q_{lam_i, lam_j} by _pf_row, whose sub-Pfaffians are again Q-functions
    of even-padded strict tuples, so only schur_q checks its argument."""
    return _pf_row(qq_pair, parts, _schur_q)


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
    return _u_shift(p, T)


def subst_odd(p):
    """Kill the even t variables, then apply the mixed substitution."""
    return subst_u(p.vanish(v for v in p.variables() if v[0] == T and v[1] % 2 == 0))


def subst_q_u(p):
    """Substitution s_j -> t_j - s_j on an s-polynomial (the u-coordinate
    reading of a Q-function)."""
    return _u_shift(p, S)


def _u_shift(p, family):
    """p with x_j -> t_j - s_j for its variables x_j of the family with an
    odd index j (every s_j has one); the rest fixed."""
    return p.substitute({v: SparsePoly.variable(tvar(v[1])) - SparsePoly.variable(svar(v[1]))
                         for v in p.variables() if v[0] == family and v[1] % 2})


def power_sum_specialize(p, n_vars):
    """Substitute t_j -> (z_1^j + ... + z_N^j)/j, giving a symmetric
    polynomial in the z variables.  N = n_vars is read as an int, and the
    image of each t_j is built once per (j, N)."""
    n_vars = _as_int(n_vars, "n_vars")
    if n_vars < 1:
        raise ValueError("need at least one z variable")
    mapping = {}
    for v in p.variables():
        if v[0] != T:
            raise ValueError("power-sum specialization is defined on t-variables only")
        mapping[v] = _power_sum_image(v[1], n_vars)
    return p.substitute(mapping)


@cache
def _power_sum_image(j, n_vars):
    """(z_1^j + ... + z_N^j)/j for N = n_vars, memoized."""
    return SparsePoly({((zvar(i), j),): Fraction(1, j) for i in range(1, n_vars + 1)})


def _int_det(rows):
    """Determinant of a square int matrix by fraction-free (Bareiss)
    elimination: step k replaces each entry below and right of the pivot
    by (a_ij * a_kk - a_ik * a_kj) / (the previous pivot), a division that
    is exact over the ints, so every entry stays an int minor and the last
    one is the determinant.  A zero pivot swaps in a lower row with a
    nonzero entry in its column; a column with none gives 0.  Unlike
    poly_det, which divides nothing because a SparsePoly quotient need not
    be one, this costs O(d^3) products."""
    m = [list(row) for row in rows]
    d = len(m)
    sign, prev = 1, 1
    for k in range(d - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, d) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, d):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if d else 1


def _coordinate(z):
    """z as the int pair (a, b) of the rational a/b in lowest terms, b > 0.
    A float is refused, as Sqrt2Rational refuses one: its binary value is
    not the rational it prints as.  A Sqrt2Rational is taken when it is
    rational; one with a sqrt(2) part is a ValueError that names it."""
    if isinstance(z, float):
        raise TypeError("z coordinates must be exact, not float %r" % z)
    if isinstance(z, Sqrt2Rational):
        if z.b:
            raise ValueError("z coordinates in zs must be rational, not %s" % z)
        z = z.a
    elif not isinstance(z, (int, Fraction)):
        z = Fraction(z)
    return z.numerator, z.denominator


def bialternant_eval(lam, zs):
    """Ratio of alternants det(z_i^{lam_j + N - j}) / det(z_i^{N - j})
    at a rational point with pairwise distinct nonzero coordinates, for a
    partition lam checked as schur checks it.

    Row i, for z_i = a_i/b_i, is scaled by b_i**top in both determinants,
    top the highest exponent, so the numerator is the int determinant of
    the entries a_i**e * b_i**(top - e).  The denominator is the
    Vandermonde product prod_{i<j} (z_i - z_j) times the same scalings:
    prod_{i<j} (a_i b_j - a_j b_i) times prod_i b_i**(top - N + 1)."""
    lam = _shape(lam)
    zs = [_coordinate(z) for z in zs]
    n = len(zs)
    if len(set(zs)) != n:
        raise ValueError("z coordinates must be pairwise distinct")
    if any(a == 0 for a, _ in zs):
        raise ValueError("z coordinates must be nonzero")
    if len(lam) > n:
        return Sqrt2Rational(0)
    exps = [(lam[j] if j < len(lam) else 0) + n - 1 - j for j in range(n)]
    top = exps[0] if n else 0
    num = _int_det([[a ** e * b ** (top - e) for e in exps] for a, b in zs])
    den = 1
    for i, (a, b) in enumerate(zs):
        den *= b ** (top - n + 1)
        for c, d in zs[i + 1:]:
            den *= a * d - c * b
    if den < 0:
        num, den = -num, -den
    return Sqrt2Rational._make(den, {0: num}, {})
