"""The package's six immutable records behave as plain values.

For FixFormat, FixNum, AlgoResult, FixAlgoResult, TraceRecord and PairedTrace:
equality is by class and field tuple (never equal to the tuple itself), the
hash is the hash of that tuple, the repr spells each field out, a field can be
neither assigned nor deleted, and pickle and copy.deepcopy give back an equal
value. These hold however the classes are written.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from trigcheck import (
    AlgoResult,
    FixAlgoResult,
    FixFormat,
    FixNum,
    PairedTrace,
    TraceRecord,
    cos_taylor,
    paired_trace_cos,
)

FMT_REPR = "FixFormat(k=256, inf=Fraction(-8, 1), sup=Fraction(64, 1))"
NUM_REPR = f"FixNum(m=184, fmt={FMT_REPR})"
FIX_RESULT_REPR = f"FixAlgoResult(value={NUM_REPR}, n=2, a_priori_bound=Fraction(101, 1360))"
RECORD_REPR = (
    "TraceRecord(k=1, tc_exact=Fraction(-9, 32), cs_exact=Fraction(1, 1), "
    "tcfp=Fraction(-9, 32), csfp=Fraction(1, 1), delta=Fraction(0, 1), "
    "delta_bound=Fraction(3, 1024), ep_exact=Fraction(-1, 8), epfp=Fraction(1, 8), "
    "tc_half=Fraction(-9, 128), tcfp_half=Fraction(-9, 128), delta_half=Fraction(0, 1))")

FIELDS = {
    FixFormat: ("k", "inf", "sup"),
    FixNum: ("m", "fmt"),
    AlgoResult: ("value", "iterations", "a_priori_bound"),
    FixAlgoResult: ("value", "n", "a_priori_bound"),
    TraceRecord: ("k", "tc_exact", "cs_exact", "tcfp", "csfp", "delta", "delta_bound",
                  "ep_exact", "epfp", "tc_half", "tcfp_half", "delta_half"),
    PairedTrace: ("records", "result"),
}


def _build() -> dict:
    """One of each class, built from scratch, with its expected repr."""
    fmt = FixFormat.parse("1/256:[-8,64]")
    trace = paired_trace_cos(fmt.from_rat(Fraction(3, 4)), fmt.from_rat(Fraction(1, 16)))
    return {
        FixFormat: (fmt, FMT_REPR),
        FixNum: (FixNum(184, fmt), NUM_REPR),
        AlgoResult: (cos_taylor(Fraction(1, 2), Fraction(1, 100)),
                     "AlgoResult(value=Fraction(7, 8), iterations=1, "
                     "a_priori_bound=Fraction(1, 100))"),
        FixAlgoResult: (trace.result, FIX_RESULT_REPR),
        TraceRecord: (trace.records[0], RECORD_REPR),
        PairedTrace: (trace, f"PairedTrace(records=[{RECORD_REPR}], result={FIX_RESULT_REPR})"),
    }


CLASSES = list(FIELDS)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_by_class_and_field_tuple(cls):
    obj, twin = _build()[cls][0], _build()[cls][0]
    assert obj is not twin
    assert obj == twin and not obj != twin
    assert obj != _fields(obj) and _fields(obj) != obj


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hash_is_the_field_tuple_hash(cls):
    obj = _build()[cls][0]
    if cls is PairedTrace:
        with pytest.raises(TypeError):   # its records are a list
            hash(obj)
    else:
        assert hash(obj) == hash(_fields(obj))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_spells_out_the_fields(cls):
    obj, text = _build()[cls]
    assert repr(obj) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    obj = _build()[cls][0]
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is cls and twin is not obj
        assert twin == obj and repr(twin) == repr(obj)
        if cls is FixFormat:   # the cached bounds come back too
            assert (twin.m_inf, twin.m_sup) == (-2048, 16384)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    obj = _build()[cls][0]
    before = _fields(obj)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert _fields(obj) == before
