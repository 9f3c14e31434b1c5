"""Strict-partition combinatorics: node coloring, the 3-staircase cores,
colored node addition, 3-bar quotients, and the sign statistics.

Conventions used throughout:

* a strict partition is the tuple of its parts (StrictPartition, a tuple
  checked when it is built), stored zero-free; the "even-padded" view
  appends a single 0 when the number of parts is odd, giving an
  even-length list;
* a node in column j has color 0 when j = 0,1 (mod 3) and color 1 when
  j = 2 (mod 3) -- the color depends on the column only;
* the residue split and all statistics are taken on the even-padded view,
  so the pad 0 lands in the residue-0 class.
"""

import operator
from collections import namedtuple
from functools import cache
from math import comb


def as_int_parts(parts):
    """The parts as a tuple of ints.  A part that is not an int, such as 2.5
    or "2", is rejected by name instead of being truncated.  A tuple of
    exact ints is returned as it is."""
    if type(parts) is tuple and {*map(type, parts)} <= {int}:
        return parts
    out = []
    for p in parts:
        try:
            out.append(operator.index(p))
        except TypeError:
            raise TypeError("parts must be ints, not %r in %r" % (p, parts)) from None
    return tuple(out)


def _as_int(value, name):
    """`value` through operator.index; a TypeError names it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError("%s must be an int, not %r" % (name, value)) from None


def _check(problem):
    """Raise a point rule's problem text as a ValueError; None passes."""
    if problem is not None:
        raise ValueError(problem)


def _color_problem(i):
    """The rule of a color: the problem with the int i, None for 0 and 1."""
    return None if i in (0, 1) else "color must be 0 or 1"


def _mn_problem(m, n):
    """The rule of a family's core index m and node count n: the problem
    with the ints, None when neither is negative."""
    return "m and n must be non-negative" if m < 0 or n < 0 else None


def parse_parts(text):
    """The int parts of comma-separated text such as "5,4,2", () for "" or
    "-", blanks around it ignored.  Text that is not that is a ValueError
    that names it as given."""
    stripped = text.strip()
    if stripped in ("", "-"):
        return ()
    try:
        return tuple(int(x) for x in stripped.split(","))
    except ValueError:
        raise ValueError("cannot parse partition %r" % text) from None


def format_parts(parts):
    """The parts as parse_parts reads them: comma-separated, "-" for none."""
    return ",".join(map(str, parts)) if parts else "-"


class StrictPartition(tuple):
    """Strictly decreasing positive parts, canonical zero-free form.

    The tuple of its parts, checked when it is built: immutable, and equal,
    hashed and ordered as the plain tuple of its parts, as the other frozen
    records are."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = as_int_parts(parts)
        if parts and min(parts) <= 0:
            raise ValueError("parts must be positive (pad zeros are implicit)")
        if not all(map(operator.gt, parts, parts[1:])):
            raise ValueError("parts must be strictly decreasing")
        return tuple.__new__(cls, parts)

    def __repr__(self):
        return "%s(parts=%r)" % (type(self).__name__, self.parts)

    @staticmethod
    def from_string(text):
        return StrictPartition(parse_parts(text))

    @property
    def parts(self):
        """The parts as a plain tuple."""
        return tuple(self)

    def even_padded(self):
        """The parts as a plain tuple, padded with one 0 when the length is
        odd."""
        return self + (0,) if len(self) % 2 else tuple(self)

    def __str__(self):
        return format_parts(self)


def _trusted(parts):
    """The StrictPartition of a tuple already known to be strictly
    decreasing positive ints, with no check: the enumerator's members are
    built so by construction."""
    return tuple.__new__(StrictPartition, parts)


class ResidueSplit(namedtuple("ResidueSplit", "p0 p1 p2")):
    """Even-padded parts split by residue mod 3 (p0 may contain the pad 0)."""

    __slots__ = ()


class BarQuotient(namedtuple("BarQuotient", "q0 q1")):
    """q0 is strict; q1 is weakly decreasing with trailing zeros stripped."""

    __slots__ = ()


class Stats(namedtuple("Stats", "f g h a eps_len")):
    """Sign statistics of a strict partition, on the even-padded view.

    f: sum of the parts = 2 (mod 3); g: number of pairs (i, j) with the j-th
    residue-1 part exceeding the i-th residue-0 part (pad included); h:
    number of parts = 2 (mod 3); a: number of parts = 0 (mod 3), pad
    included; eps_len: 1 when the padded view needed a zero.
    """

    __slots__ = ()


def color(j):
    """Color of a node in column j: 0 for j = 0,1 (mod 3), else 1."""
    if j < 1:
        raise ValueError("column index must be positive")
    return 0 if j % 3 in (0, 1) else 1


def bar_core(m):
    """The m-th staircase core: (3m-2,...,4,1), empty, or (3|m|-1,...,5,2).
    Every call checks m; the immutable core is built once per m."""
    return _bar_core(_as_int(m, "m"))


@cache
def _bar_core(m):
    if m == 0:
        return StrictPartition(())
    if m > 0:
        return StrictPartition(tuple(3 * i - 2 for i in range(m, 0, -1)))
    return StrictPartition(tuple(3 * i - 1 for i in range(-m, 0, -1)))


def color_core(i, m):
    """The staircase core of color i indexed by m: bar_core(m) for i = 1,
    bar_core(-m) for i = 0."""
    return bar_core(m if i else -m)


def _reachable(length, i, n):
    """The lengths a row of `length` can reach with at most n added nodes of
    color i: its own length, then each longer one whose new columns all
    have color i (a wrong color blocks every longer one too)."""
    out = [length]
    top = length + n
    while out[-1] < top and color(out[-1] + 1) == i:
        out.append(out[-1] + 1)
    return out


def _family(i, n):
    """The color i and node count n of an added-node family, read through
    _as_int, for both the enumerator and the membership test: a color other
    than 0 or 1, or a negative count, is a ValueError."""
    i, n = _as_int(i, "i"), _as_int(n, "n")
    _check(_color_problem(i))
    if n < 0:
        raise ValueError("node count must be non-negative")
    return i, n


def enumerate_added(core, i, n):
    """All strict partitions containing `core` with n added nodes, every
    added node of color i.

    Walked row by row without recursion: the partial members that end in a
    row of the same length with the same nodes left are kept together, and
    each row extends every group over the reachable lengths of that core
    row (then over the lengths of new rows at the bottom), keeping the rows
    strictly decreasing.  Once no nodes remain, every later core row is
    forced to keep its own length, so the rest of the core is appended in
    one step.  Every row is a positive int, so each member is built with no
    re-check (_trusted).
    """
    i, n = _family(i, n)
    if not n:
        return {core}
    rows = len(core)
    reach = [_reachable(b, i, n) for b in core]
    below = _reachable(0, i, n)[1:]  # the lengths of a new row (none for i = 1)
    # room[row]: the most nodes that rows row, row+1, ... and the new rows
    # below the core can add together
    room = [sum(below)]
    for b, lengths in zip(reversed(core), reversed(reach)):
        room.append(room[-1] + lengths[-1] - b)
    room.reverse()
    found = set()
    # (length of the last row, nodes left) -> the row tuples that end so;
    # the first bound is above the longest reachable first row
    frontier = {((core[0] if core else 0) + n + 1, n): [()]}
    row = 0
    while frontier:
        if row < rows:
            b, later, lengths, tail = core[row], room[row + 1], reach[row], core[row + 1:]
        else:  # a new row below the core
            b, later, lengths, tail = 0, n, below, ()
        grown = {}
        for (prev, remaining), accs in frontier.items():
            for new_len in lengths:
                left = remaining - new_len + b
                if new_len >= prev or left < 0:
                    break
                if not left:
                    end = (new_len,) + tail
                    found.update([_trusted(acc + end) for acc in accs])
                elif left <= later:
                    step = (new_len,)
                    grown.setdefault((new_len, left), []).extend([acc + step for acc in accs])
        frontier = grown
        row += 1
    return found


def is_added_member(core, i, n, lam):
    """Membership test for enumerate_added(core, i, n) without enumerating:
    each row of lam is a reachable length of the core row above it (of 0
    below the core), (i, n) read as enumerate_added reads them."""
    i, n = _family(i, n)
    if sum(lam) != sum(core) + n or len(lam) < len(core):
        return False
    base = core + (0,) * (len(lam) - len(core))
    return all(_reachable(b, i, length - b)[-1] == length
               for b, length in zip(base, lam))


def residue_split(lam):
    """Split the even-padded parts by residue mod 3."""
    classes = ([], [], [])
    for p in lam.even_padded():
        classes[p % 3].append(p)
    return ResidueSplit(*map(tuple, classes))


def _canonical_k(split):
    if not split.p2:
        return 1
    return max(1, -(-(split.p2[0] + 1) // 3))  # ceil((p2_max + 1) / 3)


def bar_quotient(lam, k=None):
    """The 3-bar quotient (q0, q1) of a strict partition.

    q0 is the residue-0 parts divided by 3 (zeros stripped).  q1 is built
    from the merged index list: (p-1)/3 for each residue-1 part, followed by
    the negatives -1..-k with the slots -(p+1)/3 of the residue-2 parts
    removed; subtracting the staircase that starts at l1-l2-1 (l1 and l2
    count the residue-1 and residue-2 parts) and stepping down by one
    yields a partition once trailing zeros are stripped.  Any k at least
    ceil((max residue-2 part + 1)/3) gives the same q1, so a larger k is
    checked and the list is built with the smallest one.
    """
    split = residue_split(lam)
    kmin = _canonical_k(split)
    if k is not None and _as_int(k, "k") < kmin:
        raise ValueError("k too small for the residue-2 parts")
    q0 = tuple(p // 3 for p in split.p0 if p > 0)
    a_list = [(p - 1) // 3 for p in split.p1]
    removed = {-((p + 1) // 3) for p in split.p2}
    b_list = [b for b in range(-1, -kmin - 1, -1) if b not in removed]
    merged = a_list + b_list
    start = len(split.p1) - len(split.p2) - 1
    q1 = [merged[idx] - (start - idx) for idx in range(len(merged))]
    while q1 and q1[-1] == 0:
        q1.pop()
    return BarQuotient(q0, tuple(q1))


def stats(lam):
    """The statistics (f, g, h, a, eps_len) on the even-padded view."""
    split = residue_split(lam)
    f = sum(split.p2)
    g = sum(1 for p0 in split.p0 for p1 in split.p1 if p1 > p0)
    h = len(split.p2)
    a = len(split.p0)
    return Stats(f, g, h, a, len(lam) % 2)


def delta1(lam, n):
    """Sign (-1)^(f + C(n,2)) attached to a color-1 addition of n nodes."""
    return -1 if (stats(lam).f + comb(_as_int(n, "n"), 2)) % 2 else 1


def delta0(lam, m):
    """Sign for a color-0 addition over the negative core indexed by m:
    (-1)^(f+g) for even m, (-1)^(f+g+h) for odd m."""
    st = stats(lam)
    e = st.f + st.g + (st.h if _as_int(m, "m") % 2 else 0)
    return -1 if e % 2 else 1
