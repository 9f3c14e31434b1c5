"""Tests for strict partitions, cores, added-node families, quotients and
the sign statistics."""

import pickle
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurq.partitions import (StrictPartition, _reachable, bar_core,
                               bar_quotient, color, delta0, delta1,
                               enumerate_added, is_added_member,
                               residue_split, stats)

P = StrictPartition.from_string


class _Int(int):
    """An int subclass, which parts and indices accept as an int."""


class _Index:
    """A non-int with __index__, which parts and indices accept as an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

strict_parts = st.lists(st.integers(min_value=1, max_value=24), min_size=0,
                        max_size=7, unique=True).map(
    lambda xs: StrictPartition(tuple(sorted(xs, reverse=True))))


class TestStrictPartition:
    def test_construction(self):
        lam = StrictPartition((4, 1))
        assert lam.parts == (4, 1)
        assert sum(lam) == 5
        assert len(lam) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StrictPartition((4, 4))
        with pytest.raises(ValueError):
            StrictPartition((1, 4))
        with pytest.raises(ValueError):
            StrictPartition((3, 0))
        # int-like parts become exact ints, from a tuple or a list
        for parts in ((True,), (2, True), (_Int(3), 1), (_Index(3), _Index(1)),
                      [3, 1]):
            got = StrictPartition(parts).parts
            assert got == tuple(int(p) for p in parts)
            assert type(got) is tuple and {type(p) for p in got} == {int}
        with pytest.raises(ValueError, match="strictly decreasing"):
            StrictPartition([1, 4])
        # positivity is checked before order
        for parts in ((0, 3), (1, 4, 0), (True, False)):
            with pytest.raises(ValueError, match="must be positive"):
                StrictPartition(parts)

    def test_float_part_is_rejected_not_truncated(self):
        with pytest.raises(TypeError, match=r"2\.5 in \(2\.5, 1\)"):
            StrictPartition((2.5, 1))

    def test_from_string_and_str(self):
        assert P("11,9,8,4,3,2,1").parts == (11, 9, 8, 4, 3, 2, 1)
        assert P("-") == StrictPartition(())
        assert P("") == StrictPartition(())
        assert str(P("4,1")) == "4,1"
        assert str(P("-")) == "-"

    def test_even_padded(self):
        assert P("4,1").even_padded() == (4, 1)
        assert P("7,4,1").even_padded() == (7, 4, 1, 0)
        assert P("-").even_padded() == ()

    @given(strict_parts)
    def test_even_padded_has_even_length(self, lam):
        assert len(lam.even_padded()) % 2 == 0
        assert tuple(x for x in lam.even_padded() if x) == lam.parts


class TestColorsAndCores:
    def test_color_pattern(self):
        assert [color(j) for j in range(1, 10)] == [0, 1, 0, 0, 1, 0, 0, 1, 0]
        with pytest.raises(ValueError):
            color(0)

    def test_cores(self):
        assert bar_core(0) == P("-")
        assert bar_core(1) == P("1")
        assert bar_core(2) == P("4,1")
        assert bar_core(4) == P("10,7,4,1")
        assert bar_core(-1) == P("2")
        assert bar_core(-3) == P("8,5,2")

    @pytest.mark.parametrize("m", [2.5, "3", None])
    def test_non_int_index_is_named(self, m):
        with pytest.raises(TypeError, match="m must be an int, not %s"
                           % re.escape(repr(m))):
            bar_core(m)

    def test_int_like_index(self):
        assert bar_core(True) == bar_core(1)
        assert bar_core(_Int(-3)) == bar_core(_Index(-3)) == bar_core(-3)

    @given(st.integers(min_value=-6, max_value=6))
    def test_core_has_empty_quotient(self, m):
        quot = bar_quotient(bar_core(m))
        assert quot.q0 == () and quot.q1 == ()

    @given(st.integers(min_value=-6, max_value=6))
    def test_core_sizes(self, m):
        # staircase sizes: m(3m-1)/2 on one side, m(3m+1)/2 on the other
        k = abs(m)
        expected = k * (3 * k - 1) // 2 if m >= 0 else k * (3 * k + 1) // 2
        assert sum(bar_core(m)) == expected


class TestEnumeration:
    def test_two_node_color0_family(self):
        got = enumerate_added(bar_core(-2), 0, 2)
        assert got == {P("7,2"), P("6,3"), P("6,2,1"), P("5,4"), P("5,3,1")}

    def test_two_node_color1_family(self):
        got = enumerate_added(bar_core(3), 1, 2)
        assert got == {P("8,5,1"), P("8,4,2"), P("7,5,2")}

    def test_zero_nodes(self):
        assert enumerate_added(bar_core(2), 1, 0) == {bar_core(2)}
        assert enumerate_added(bar_core(0), 0, 0) == {P("-")}

    def test_one_node_from_empty(self):
        assert enumerate_added(bar_core(0), 0, 1) == {P("1")}
        assert enumerate_added(bar_core(0), 1, 1) == set()

    def test_one_node_color0_family(self):
        assert enumerate_added(bar_core(-1), 0, 1) == {P("3"), P("2,1")}

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_added(bar_core(1), 2, 1)
        with pytest.raises(ValueError):
            enumerate_added(bar_core(1), 0, -1)

    @pytest.mark.parametrize("i, n, bad", [(0, 2.0, "n must be an int, not 2.0"),
                                           (0.0, 2, "i must be an int, not 0.0"),
                                           (0, "2", "n must be an int, not '2'")])
    def test_non_int_color_or_count_is_named(self, i, n, bad):
        with pytest.raises(TypeError, match=re.escape(bad)):
            enumerate_added(bar_core(-2), i, n)

    @pytest.mark.parametrize("i, n, bad", [(0, 2.0, "n must be an int, not 2.0"),
                                           (0.0, 2, "i must be an int, not 0.0")])
    def test_membership_rejects_non_int_color_or_count(self, i, n, bad):
        # a float count once passed the size test and answered True
        with pytest.raises(TypeError, match=re.escape(bad)):
            is_added_member(bar_core(-2), i, n, P("6,2,1"))

    def test_int_like_color_and_count(self):
        core = bar_core(3)
        want = enumerate_added(core, 1, 2)
        assert enumerate_added(core, True, _Index(2)) == want
        assert enumerate_added(core, _Int(1), _Int(2)) == want
        assert all(is_added_member(core, True, _Index(2), lam) for lam in want)
        assert enumerate_added(bar_core(-2), False, 2) == enumerate_added(bar_core(-2), 0, 2)

    def test_membership_predicate(self):
        assert is_added_member(bar_core(-2), 0, 2, P("6,2,1"))
        assert not is_added_member(bar_core(-2), 0, 2, P("6,2"))
        assert not is_added_member(bar_core(-2), 1, 2, P("6,2,1"))

    @pytest.mark.parametrize("i, n, message", [
        (2, 0, "color must be 0 or 1"),
        (-1, 1, "color must be 0 or 1"),
        (2, -1, "color must be 0 or 1"),
        (0, -1, "node count must be non-negative"),
        (1, -2, "node count must be non-negative"),
    ])
    def test_membership_refuses_what_enumeration_refuses(self, i, n, message):
        # the predicate reads (i, n) by the enumerator's rule: a color
        # outside {0, 1} once answered True for the core itself
        core = bar_core(2)
        for call in (lambda: enumerate_added(core, i, n),
                     lambda: is_added_member(core, i, n, core)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @given(st.integers(min_value=-3, max_value=3), st.sampled_from((0, 1)),
           st.integers(min_value=0, max_value=3))
    def test_members_contain_core_and_add_n_color_i_nodes(self, m, i, n):
        core = bar_core(m)
        members = enumerate_added(core, i, n)
        for lam in members:
            assert _contains(lam, core)
            assert sum(lam) == sum(core) + n
            assert is_added_member(core, i, n, lam)
            # every added node sits in a column of color i
            base = core.parts + (0,) * (len(lam) - len(core))
            for row in range(len(lam)):
                for col in range(base[row] + 1, lam.parts[row] + 1):
                    assert color(col) == i

    @given(st.integers(min_value=-3, max_value=3), st.sampled_from((0, 1)),
           st.integers(min_value=0, max_value=3))
    def test_predicate_matches_enumeration(self, m, i, n):
        core = bar_core(m)
        members = enumerate_added(core, i, n)
        for lam in members:
            assert is_added_member(core, i, n, lam)
        # a partition of the right size not in the set is rejected
        for lam in enumerate_added(core, i, n + 1):
            assert not is_added_member(core, i, n, lam)


def _contains(lam, core):
    """Whether the diagram of lam contains that of core, row by row."""
    return len(core) <= len(lam) and all(a >= b for a, b in zip(lam, core))


def _strict_partitions(size, cap=None):
    """Every strict partition of `size` with parts at most `cap`."""
    if size == 0:
        yield ()
        return
    for first in range(size if cap is None else min(size, cap), 0, -1):
        for rest in _strict_partitions(size - first, first - 1):
            yield (first,) + rest


def _added_by_definition(core, i, n):
    """The strict partitions of size |core| + n that contain `core` and
    whose added cells all have color i."""
    out = set()
    for parts in _strict_partitions(sum(core) + n):
        lam = StrictPartition(parts)
        if not _contains(lam, core):
            continue
        base = core.parts + (0,) * (len(lam) - len(core))
        if all(color(col) == i for b, p in zip(base, parts)
               for col in range(b + 1, p + 1)):
            out.add(lam)
    return out


def _added_by_recursion(core, i, n):
    """The row-by-row recursion that enumerate_added replaced: each row
    extends while the new columns keep color i, calling color per column."""
    base = core.parts
    found = []

    def extend(row, prev_len, remaining, acc):
        if row >= len(base):
            if remaining == 0:
                found.append(StrictPartition(tuple(acc)))
                return
            start = 1  # a new row must be non-empty
        else:
            start = base[row]
        base_len = base[row] if row < len(base) else 0
        top = min(prev_len - 1, base_len + remaining)
        for new_len in range(start, top + 1):
            if new_len > base_len and color(new_len) != i:
                break
            extend(row + 1, new_len, remaining - (new_len - base_len), acc + [new_len])

    extend(0, 10 ** 9, n, [])
    return set(found)


def _added_by_reachable_recursion(core, i, n):
    """The recursion over the reachable lengths of each row that the
    row-by-row walk of enumerate_added replaced: one call per row, each
    copying its row tuple, so a core of about a thousand rows exceeds the
    recursion limit."""
    base = core.parts
    rows = len(base)
    reach = [_reachable(b, i, n) for b in base]
    below = _reachable(0, i, n)[1:]
    room = [sum(below)]
    for b, lengths in zip(reversed(base), reversed(reach)):
        room.append(room[-1] + lengths[-1] - b)
    room.reverse()
    found = []

    def extend(row, prev, remaining, acc):
        if row == rows:
            if remaining == 0:
                found.append(StrictPartition(acc))
            for new_len in below:
                if new_len >= prev or new_len > remaining:
                    break
                extend(row, new_len, remaining - new_len, acc + (new_len,))
            return
        b, later = base[row], room[row + 1]
        for new_len in reach[row]:
            left = remaining - (new_len - b)
            if new_len >= prev or left < 0:
                break
            if left <= later:
                extend(row + 1, new_len, left, acc + (new_len,))

    extend(0, (base[0] if base else 0) + n + 1, n, ())
    return set(found)


# every strict partition with at most 4 parts and size at most 9, most of
# them not bar cores
_SMALL_CORES = [StrictPartition(parts) for size in range(10)
                for parts in _strict_partitions(size) if len(parts) <= 4]


class TestEnumerationAgainstReferences:
    @pytest.mark.parametrize("core", _SMALL_CORES, ids=str)
    def test_against_the_definition(self, core):
        for i in (0, 1):
            for n in range(5):
                want = _added_by_definition(core, i, n)
                assert enumerate_added(core, i, n) == want
                for parts in _strict_partitions(sum(core) + n):
                    lam = StrictPartition(parts)
                    assert is_added_member(core, i, n, lam) == (lam in want)

    @pytest.mark.parametrize("m", range(-8, 9))
    def test_bar_cores_against_the_former_recursion(self, m):
        core = bar_core(m)
        for i in (0, 1):
            for n in range(9):
                want = _added_by_recursion(core, i, n)
                assert enumerate_added(core, i, n) == want
                assert all(is_added_member(core, i, n, lam) for lam in want)

    @pytest.mark.parametrize("m", range(-12, 13))
    def test_bar_cores_against_the_reachable_recursion(self, m):
        core = bar_core(m)
        for i in (0, 1):
            for n in range(9):
                assert enumerate_added(core, i, n) == _added_by_reachable_recursion(core, i, n)

    @pytest.mark.parametrize("m, i", [(-1200, 0), (1200, 1)])
    def test_deep_cores(self, m, i):
        # 1,200 core rows: the former recursion raised RecursionError here
        core = bar_core(m)
        counts = []
        for n in (0, 1):
            members = enumerate_added(core, i, n)
            counts.append(len(members))
            assert all(sum(lam) == sum(core) + n and is_added_member(core, i, n, lam)
                       for lam in members)
        assert counts == ([1, 1201] if m < 0 else [1, 1200])
        # no node of the other color fits on a row of the core
        assert all(enumerate_added(core, 1 - i, n) == set() for n in (1, 2))

    @pytest.mark.parametrize("m", range(-12, 13))
    def test_unchecked_members_match_checked_ones(self, m):
        # enumerate_added builds its members with no check; each must be the
        # partition the validating constructor builds from the same parts,
        # with the same hash, order and pickle round trip
        core = bar_core(m)
        for i in (0, 1):
            for n in range(9):
                members = sorted(enumerate_added(core, i, n))
                checked = [StrictPartition(lam.parts) for lam in members]
                assert members == checked
                assert all(type(lam) is StrictPartition and type(lam.parts) is tuple
                           and all(type(p) is int for p in lam.parts)
                           for lam in members)
                assert list(map(hash, members)) == list(map(hash, checked))
                assert sorted(checked) == checked
                assert pickle.loads(pickle.dumps(members)) == checked


def _q1_with_k(lam, k):
    """q1 from the merged list over all of -1..-k, the construction as
    bar_quotient's docstring states it for any legal k."""
    split = residue_split(lam)
    removed = {-((p + 1) // 3) for p in split.p2}
    merged = [(p - 1) // 3 for p in split.p1]
    merged += [b for b in range(-1, -k - 1, -1) if b not in removed]
    start = len(split.p1) - len(split.p2) - 1
    q1 = [merged[idx] - (start - idx) for idx in range(len(merged))]
    while q1 and q1[-1] == 0:
        q1.pop()
    return tuple(q1)


class TestQuotient:
    def test_headline_example(self):
        quot = bar_quotient(P("11,9,8,4,3,2,1"))
        assert quot.q0 == (3, 1)
        assert quot.q1 == (3, 3, 2)

    def test_padding_invariance(self):
        lam = P("11,9,8,4,3,2,1")
        base = bar_quotient(lam)
        for extra in (1, 2, 3):
            from schurq.partitions import _canonical_k
            k = _canonical_k(residue_split(lam))
            assert bar_quotient(lam, k=k + extra) == base

    def test_k_below_minimum_rejected(self):
        lam = P("11,9,8,4,3,2,1")
        with pytest.raises(ValueError):
            bar_quotient(lam, k=1)

    def test_empty(self):
        quot = bar_quotient(P("-"))
        assert quot.q0 == () and quot.q1 == ()

    def test_deep_example(self):
        quot = bar_quotient(P("20,18,16,12,8,7,2"))
        assert quot.q0 == (6, 4)
        assert quot.q1 == (7, 5, 2, 1, 1, 1)

    def test_single_part_examples(self):
        assert bar_quotient(P("3")).q0 == (1,)
        assert bar_quotient(P("3")).q1 == ()
        assert bar_quotient(P("6")).q0 == (2,)
        assert bar_quotient(P("9")).q0 == (3,)

    @given(strict_parts, st.integers(min_value=0, max_value=3))
    def test_k_independence(self, lam, extra):
        from schurq.partitions import _canonical_k
        k = _canonical_k(residue_split(lam))
        assert bar_quotient(lam, k=k + extra) == bar_quotient(lam)

    @given(strict_parts, st.integers(min_value=0, max_value=40))
    def test_q1_against_the_list_over_k(self, lam, extra):
        from schurq.partitions import _canonical_k
        k = _canonical_k(residue_split(lam)) + extra
        assert bar_quotient(lam, k=k).q1 == _q1_with_k(lam, k)

    def test_large_k_allocates_nothing_of_its_size(self):
        lam = StrictPartition((5, 2))
        tracemalloc.start()
        try:
            got = bar_quotient(lam, k=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got == bar_quotient(lam)

    def test_non_int_k_rejected(self):
        with pytest.raises(TypeError):
            bar_quotient(P("5,2"), k=2.5)

    @pytest.mark.parametrize("k", [2.5, "3"])
    def test_non_int_k_is_named(self, k):
        with pytest.raises(TypeError, match="^k must be an int, not %s$"
                           % re.escape(repr(k))):
            bar_quotient(P("4,1"), k=k)
        assert bar_quotient(P("4,1"), k=True) == bar_quotient(P("4,1"))

    @given(strict_parts)
    def test_quotient_shapes(self, lam):
        quot = bar_quotient(lam)
        # q0 is strict, q1 weakly decreasing, both free of trailing zeros
        assert all(quot.q0[i] > quot.q0[i + 1] for i in range(len(quot.q0) - 1))
        assert all(quot.q1[i] >= quot.q1[i + 1] for i in range(len(quot.q1) - 1))
        assert all(x > 0 for x in quot.q0)
        assert all(x > 0 for x in quot.q1)

    @given(strict_parts)
    def test_size_bookkeeping(self, lam):
        # |lambda| = |core weight| + 3|q0| + 3|q1| with the core determined
        # by the residue counts
        quot = bar_quotient(lam)
        rest = sum(lam) - 3 * (sum(quot.q0) + sum(quot.q1))
        assert rest >= 0


class TestResidueSplit:
    def test_split(self):
        split = residue_split(P("20,18,16,12,8,7,2"))
        assert split.p0 == (18, 12, 0)
        assert split.p1 == (16, 7)
        assert split.p2 == (20, 8, 2)
        assert len(split.p1) == 2
        assert len(split.p2) == 3

    @given(strict_parts)
    def test_split_partitions_the_padded_parts(self, lam):
        split = residue_split(lam)
        merged = sorted(split.p0 + split.p1 + split.p2, reverse=True)
        assert merged == sorted(lam.even_padded(), reverse=True)
        assert all(x % 3 == 0 for x in split.p0)
        assert all(x % 3 == 1 for x in split.p1)
        assert all(x % 3 == 2 for x in split.p2)


class TestSignStatistics:
    def test_deep_example_stats(self):
        st7 = stats(P("20,18,16,12,8,7,2"))
        assert (st7.f, st7.g, st7.h) == (30, 3, 3)
        assert st7.a == 3
        assert st7.eps_len == 1

    def test_delta1_example(self):
        assert delta1(P("11,8,4,2"), 3) == 1

    def test_delta0_example(self):
        assert delta0(P("10,6,2"), 3) == -1

    def test_delta1_on_core_is_binomial_sign(self):
        # no residue-2 parts in a positive core, so only the n-dependence
        for n in range(5):
            assert delta1(bar_core(4), n) == (-1) ** (n * (n - 1) // 2)

    @pytest.mark.parametrize("sign, name", [(delta0, "m"), (delta1, "n")])
    @pytest.mark.parametrize("bad", [2.5, "2", None])
    def test_non_int_sign_parameter_is_named(self, sign, name, bad):
        # delta0 once read 2.5 as odd, and delta1 failed inside comb
        with pytest.raises(TypeError, match="^%s must be an int, not %s$"
                           % (name, re.escape(repr(bad)))):
            sign(P("10,6,2"), bad)
        assert sign(P("10,6,2"), True) == sign(P("10,6,2"), 1)

    @given(strict_parts, st.integers(min_value=0, max_value=5))
    def test_delta1_values(self, lam, n):
        assert delta1(lam, n) in (-1, 1)

    @given(strict_parts, st.integers(min_value=0, max_value=5))
    def test_delta0_parity_dependence(self, lam, m):
        assert delta0(lam, m) in (-1, 1)
        # only the parity of m matters
        assert delta0(lam, m) == delta0(lam, m % 2)
