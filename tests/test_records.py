"""Records (NamedTuples) and read-only holders: fields, equality, repr, checks."""

import numpy as np
import pytest

from noisyqfi import builtin
from noisyqfi.bloch import BlochChannel, SvdDecomp, ValidationReport, validate
from noisyqfi.cli import RunConfig
from noisyqfi.fisher import ProbModel
from noisyqfi.mstate import OrderedState, PauliStrings, XorLines, to_dense
from noisyqfi.protocols import (EscherRow, GainReport, MeasurementRecord, NoGainReport,
                                PreparedState, ProtocolQfi, correlated)
from noisyqfi.series import FitResult, GridMax, QfiSeries, SldSeries, SqscOpt, StateOrders

RECORDS = [ValidationReport, SvdDecomp, PreparedState, ProtocolQfi, MeasurementRecord,
           GainReport, EscherRow, NoGainReport, QfiSeries, SqscOpt, GridMax, FitResult,
           RunConfig]


@pytest.mark.parametrize("record", RECORDS, ids=lambda t: t.__name__)
def test_records_compare_and_repr_by_field(record):
    values = list(range(1, len(record._fields) + 1))
    a, b = record(*values), record(*values)
    assert a == b and hash(a) == hash(b)
    assert a != record(*values[:-1], -1)
    shown = ", ".join(f"{name}={v}" for name, v in zip(record._fields, values))
    assert repr(a) == f"{record.__name__}({shown})"
    with pytest.raises(AttributeError):
        setattr(a, record._fields[0], 0)


def test_failing_validation_report_is_falsy():
    eye, zero = np.eye(3), np.zeros(3)
    assert validate(BlochChannel(eye, zero, eye, zero))
    report = validate(BlochChannel(2.0 * eye, zero, eye, zero))
    assert not report and not report.passed
    assert report.failures[0][0] == "largest singular value of M <= 1"


def _lines() -> XorLines:
    return to_dense(PauliStrings(1, [0, 3], [0.5, 0.25]))


HOLDERS = {
    "PauliStrings": lambda: PauliStrings(1, [0, 3], [0.5, 0.25]),
    "OrderedState": lambda: OrderedState(1, [PauliStrings(1, [0], [0.5])]),
    "XorLines": _lines,
    "StateOrders": lambda: StateOrders([_lines()], [_lines()]),
    "BlochChannel": lambda: builtin("phase_flip").eval(0.3),
    "ChannelFamily": lambda: builtin("phase_flip"),
    "ProbModel": lambda: ProbModel([0.5, 0.5], [1.0, -1.0]),
    "ProtocolSpec": lambda: correlated(builtin("phase_flip"), 0.3, 2, 0.1, [0, 0, 1], [1, 0, 0]),
    "SldSeries": lambda: SldSeries((_lines(),), {}, np.eye(2), np.eye(2)),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_holders_are_read_only(name):
    held = HOLDERS[name]()
    fields = list(vars(held))
    assert repr(held).startswith(f"{name}({fields[0]}=")
    for field in fields:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(held, field, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(held, field)
    assert list(vars(held)) == fields


def test_cached_rank_stays_out_of_the_repr():
    lines = _lines()
    before = repr(lines)
    assert lines.rank.tolist() == [0, -1]
    assert repr(lines) == before


_EYE, _ZERO = np.eye(3), np.zeros(3)


@pytest.mark.parametrize("build, message", [
    (lambda: PauliStrings(1, [4], [1.0]), "string indices must lie in 0..4"),
    (lambda: PauliStrings(1, [0, 1], [1.0]), "one coefficient per string"),
    (lambda: PauliStrings(1, [0], [np.nan]), "coefficients must be finite"),
    (lambda: PauliStrings._adopt(1, np.zeros(1, dtype=np.intp), np.array([np.inf])),
     "coefficients must be finite"),
    (lambda: PauliStrings(15, [0], [1.0]), "qubit count 15 outside supported range"),
    (lambda: OrderedState(2, [PauliStrings(1, [0], [1.0])]), "share the qubit count"),
    (lambda: StateOrders([], []), "nonempty and equal length"),
    (lambda: StateOrders([_lines()], []), "nonempty and equal length"),
    (lambda: BlochChannel(np.eye(2), _ZERO, _EYE, _ZERO), "M must be 3x3"),
    (lambda: BlochChannel(_EYE, np.zeros(2), _EYE, _ZERO), "d must be a 3-vector"),
    (lambda: BlochChannel(_EYE, _ZERO, _EYE[:2], _ZERO), "dM must be 3x3"),
    (lambda: BlochChannel(_EYE, _ZERO, _EYE, [0, 0]), "dd must be a 3-vector"),
    (lambda: BlochChannel(1j * _EYE, _ZERO, _EYE, _ZERO), "M has a complex entry"),
    (lambda: ProbModel([0.5, 0.5], [1.0]), "1-d arrays of equal length"),
    (lambda: ProbModel([[0.5, 0.5]], [[1.0, -1.0]]), "1-d arrays of equal length"),
])
def test_holders_keep_their_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_holders_copy_and_freeze_their_input():
    M = np.eye(3)
    ch = BlochChannel(M, [0, 0, 0], M, [0, 0, 0])
    M[0, 0] = 5.0
    assert ch.M[0, 0] == 1.0 and not ch.M.flags.writeable
    assert ch.d.dtype == float and not ch.dd.flags.writeable
    assert OrderedState(1, iter([PauliStrings(1, [0], [0.5])])).max_order == 0
