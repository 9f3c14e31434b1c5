"""The contract of the package's seven records: repr, equality, hashing,
ordering, immutability, and copy and pickle round trips.  The five frozen
value records are tuples, equal, hashed and ordered as the plain tuple of
their fields, or for StrictPartition of its parts."""

import copy
import pickle

import pytest

from schurq.fock import NormalWord, to_normal_words
from schurq.partitions import (BarQuotient, ResidueSplit, Stats, StrictPartition,
                               _trusted, bar_quotient, residue_split, stats)
from schurq.verify import CheckResult, SuiteConfig, check_main1

LAM = StrictPartition((5, 4, 2))

# each record as the package builds it, with its repr
RECORDS = [
    (LAM, "StrictPartition(parts=(5, 4, 2))"),
    (StrictPartition(()), "StrictPartition(parts=())"),
    (residue_split(LAM), "ResidueSplit(p0=(0,), p1=(4,), p2=(5, 2))"),
    (bar_quotient(LAM), "BarQuotient(q0=(), q1=(3,))"),
    (stats(LAM), "Stats(f=7, g=1, h=2, a=1, eps_len=1)"),
    (to_normal_words(LAM)[0], "NormalWord(coeff=-1, phis=(0,), psis=(1,), charge=-2)"),
    (CheckResult("main1", {"m": 2, "n": 1}, True, "2*t2", "2*t2", 0),
     "CheckResult(name='main1', params={'m': 2, 'n': 1}, passed=True, "
     "lhs_rendering='2*t2', rhs_rendering='2*t2', elapsed_ms=0)"),
    (SuiteConfig(), "SuiteConfig(max_m=4, max_n=4, families=('main1', 'main2', "
                    "'trapezoid', 'f-power', 'core-states', 'phi-consistency', "
                    "'symfunc-props'))"),
    (SuiteConfig(1, 2, ["main1"]), "SuiteConfig(max_m=1, max_n=2, families=['main1'])"),
]

# each frozen record, a field of it and the tuple it equals and hashes as
FROZEN = [
    (LAM, "parts", LAM.parts),
    (residue_split(LAM), "p1", ((0,), (4,), (5, 2))),
    (bar_quotient(LAM), "q1", ((), (3,))),
    (stats(LAM), "f", (7, 1, 2, 1, 1)),
    (to_normal_words(LAM)[0], "charge", (-1, (0,), (1,), -2)),
]


def _ids(cases):
    return [type(case[0]).__name__ for case in cases]


@pytest.mark.parametrize("record, text", RECORDS, ids=_ids(RECORDS))
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=_ids(RECORDS))
def test_copy_and_pickle_round_trips(record, text):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(record)
        assert other == record
        assert repr(other) == text


def test_a_deep_copy_of_a_mutable_record_is_its_own():
    res = CheckResult("main1", {"m": 2, "n": 1}, True, "2*t2", "2*t2", 0)
    deep = copy.deepcopy(res)
    deep.params["m"] = 3
    assert res.params == {"m": 2, "n": 1}


@pytest.mark.parametrize("record, field, values", FROZEN, ids=_ids(FROZEN))
def test_frozen_records(record, field, values):
    assert hash(record) == hash(values)
    rebuilt = StrictPartition(values) if record is LAM else type(record)(*values)
    assert record == rebuilt and hash(rebuilt) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert {record, copy.deepcopy(record)} == {record}


def test_records_equal_by_fields():
    assert StrictPartition((5, 4, 2)) == LAM and StrictPartition((5, 4, 1)) != LAM
    assert LAM == (5, 4, 2) and (5, 4, 2) == LAM and LAM != (5, 4, 1)
    assert stats(StrictPartition((8, 5, 2))) == Stats(15, 0, 3, 1, 1) != stats(LAM)
    assert bar_quotient(StrictPartition((4,))) == BarQuotient((), (1,))
    assert residue_split(StrictPartition(())) == ResidueSplit((), (), ())
    assert NormalWord(1, (), (), 0) != NormalWord(-1, (), (), 0)


def test_value_records_are_slotted_named_tuples():
    for record, _ in RECORDS:
        assert not hasattr(record, "__dict__")
    for record, _, values in FROZEN:
        assert isinstance(record, tuple) and record == values
    q0, q1 = bar_quotient(LAM)
    assert (q0, q1) == ((), (3,))


def test_strict_partition_orders_by_its_parts():
    a, b, c = StrictPartition(()), StrictPartition((2, 1)), StrictPartition((3,))
    assert a < b < c and c > b > a and a <= a and c >= c
    assert not c < b and not b <= a
    assert sorted([c, a, b]) == [a, b, c]
    assert sorted([LAM, StrictPartition((6,)), StrictPartition((5, 4))]) == [
        StrictPartition((5, 4)), LAM, StrictPartition((6,))]
    # against a plain tuple the parts decide, as between two partitions
    assert LAM < (5, 4, 3) and (5, 4, 3) > LAM and LAM <= (5, 4, 2) < (6,)
    assert not LAM < (5, 4, 2) and LAM > (5, 4) and LAM >= ()
    assert sorted([(6,), LAM, (5, 4)]) == [(5, 4), LAM, (6,)]
    with pytest.raises(TypeError):
        LAM < [5, 4, 3]


def test_a_strict_partition_is_the_tuple_of_its_parts():
    assert len({LAM, LAM.parts}) == 1
    assert type(LAM.parts) is tuple and type(LAM.even_padded()) is tuple
    lam = _trusted((5, 4, 2))
    assert type(lam) is StrictPartition and lam == LAM


# StrictPartition((5, 4, 2)) pickled under protocols 0 to 5 by the slotted
# class that preceded the tuple subclass, which pickled through its
# constructor
_OLD_PICKLES = [
    b'cschurq.partitions\nStrictPartition\np0\n((I5\nI4\nI2\ntp1\ntp2\nRp3\n.',
    b'cschurq.partitions\nStrictPartition\nq\x00((K\x05K\x04K\x02tq\x01tq\x02Rq\x03.',
    b'\x80\x02cschurq.partitions\nStrictPartition\nq\x00K\x05K\x04K\x02\x87q\x01'
    b'\x85q\x02Rq\x03.',
    b'\x80\x03cschurq.partitions\nStrictPartition\nq\x00K\x05K\x04K\x02\x87q\x01'
    b'\x85q\x02Rq\x03.',
    b'\x80\x04\x955\x00\x00\x00\x00\x00\x00\x00\x8c\x11schurq.partitions\x94'
    b'\x8c\x0fStrictPartition\x94\x93\x94K\x05K\x04K\x02\x87\x94\x85\x94R\x94.',
    b'\x80\x05\x955\x00\x00\x00\x00\x00\x00\x00\x8c\x11schurq.partitions\x94'
    b'\x8c\x0fStrictPartition\x94\x93\x94K\x05K\x04K\x02\x87\x94\x85\x94R\x94.',
]


@pytest.mark.parametrize("protocol", range(6))
def test_old_pickles_load(protocol):
    old = pickle.loads(_OLD_PICKLES[protocol])
    assert type(old) is StrictPartition and old == LAM
    assert repr(old) == "StrictPartition(parts=(5, 4, 2))"


@pytest.mark.parametrize("make, field", [
    (lambda: CheckResult("main1", {"m": 2, "n": 1}, True, "2*t2", "2*t2", 0), "passed"),
    (lambda: SuiteConfig(1, 2, ("main1",)), "max_n"),
], ids=["CheckResult", "SuiteConfig"])
def test_mutable_records(make, field):
    record = make()
    assert record == make()
    assert record != (1, 2, ("main1",)) and record.__eq__(None) is NotImplemented
    with pytest.raises(TypeError):
        hash(record)
    other = make()
    setattr(other, field, 0)
    assert getattr(other, field) == 0
    assert other != record and not other == record


def test_a_check_result_equals_the_record_of_its_fields():
    res = check_main1(2, 1)
    res.elapsed_ms = 0
    assert res == RECORDS[6][0]
    assert res != SuiteConfig()
