"""The result records are immutable named tuples.

Four of them check their fields (``PauliOp``, ``Observable``, ``NoiseParams``
and ``CountsTable``), and every way of building one runs the check:
positional and keyword construction, ``_replace`` and ``_make``.  No field of
any record can be set or deleted, a record hashes as the tuple of its
fields, and ``PauliOp`` keeps no tuple arithmetic.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from hyperbell import (
    NoiseParams,
    Observable,
    PauliOp,
    bounds_report,
    brute_force_bound,
    estimate_beta,
    estimate_term,
    min_blocks,
    term_at,
    verify_perfect_correlations,
)
from hyperbell.montecarlo import CountsTable

# (record, valid fields, the same with one or two spoiled, exception, message)
CHECKED = [
    (PauliOp, (4, 1, 0, 0), (4, 1, 0, 5), ValueError, "phase exponent must be in 0..3, got 5"),
    (PauliOp, (4, 1, 0, 0), (4, 16, 0, 0), ValueError, "masks x=0x10, z=0x0 out of range for 4 qubits"),
    (PauliOp, (4, 1, 0, 0), (True, 1, 0, 0), TypeError, "n must be an integer, got True"),
    (Observable, ("X", 1, 1), ("X", 3, 1), ValueError, "particle must be 1 or 2, got 3"),
    (Observable, ("X", 1, 1), ("X", 1, 1.5), TypeError, "block must be an integer, got 1.5"),
    (Observable, ("X", 1, 1), ("W", 1, 1), ValueError, "letter must be one of XYZxyz, got 'W'"),
    (NoiseParams, (0.15, 0.98, 0.33), (0.15, 0.98, 1.2), ValueError, "eta must be in (0, 1], got 1.2"),
    (NoiseParams, (0.15, 0.98, 0.33), (-0.01, 0.98, 0.33), ValueError, "epsilon must be in [0, 1], got -0.01"),
    (NoiseParams, (0.15, 0.98, 0.33), (0.15, 0.98, True), TypeError, "eta must be a real number, got True"),
    (CountsTable, (10, 3, 2, 1, 1, 3), (10, 3, 2, 1, 1, 2), ValueError, "counts do not tile the runs: 9 categorized vs 10 total"),
    (CountsTable, (1, 0, 1, 0, 0, 0), (1, -1, 1, 0, 0, 1), ValueError, "counts must be nonnegative"),
    (CountsTable, (1, 0, 1, 0, 0, 0), (1, True, 0, 0, 0, 0), TypeError, "n_pp must be an integer, got True"),
    (CountsTable, (1, 0, 1, 0, 0, 0), (1.5, 1.5, 0, 0, 0, 0), TypeError, "n_total must be an integer, got 1.5"),
]

BUILDS = {
    "positional": lambda cls, valid, bad: cls(*bad),
    "keyword": lambda cls, valid, bad: cls(**dict(zip(cls._fields, bad))),
    "_replace": lambda cls, valid, bad: cls(*valid)._replace(
        **{field: b for field, v, b in zip(cls._fields, valid, bad) if v != b}
    ),
    "_make": lambda cls, valid, bad: cls._make(iter(bad)),
}
CHECKED_IDS = [f"{case[0].__name__}-{case[2]}" for case in CHECKED]


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("cls, valid, bad, exc, message", CHECKED, ids=CHECKED_IDS)
def test_checked_records_refuse_a_bad_field(build, cls, valid, bad, exc, message):
    assert cls(*valid) == valid
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        BUILDS[build](cls, valid, bad)


@pytest.mark.parametrize(
    "cls, valid", [pytest.param(cls, valid, id=f"{cls.__name__}-{valid}") for cls, valid in dict.fromkeys(c[:2] for c in CHECKED)]
)
def test_replace_and_make_build_the_record_itself(cls, valid):
    record = cls._make(valid)
    assert type(record) is cls and record == valid
    same = record._replace(**{cls._fields[0]: valid[0]})
    assert type(same) is cls and same == record


def all_records() -> dict[str, object]:
    """One instance of each of the package's twelve records."""
    report = verify_perfect_correlations(1)
    noise = NoiseParams()
    estimate = estimate_beta(1, 10, NoiseParams(eta=1.0), seed=0)
    return {
        "Observable": Observable("X", 1, 1),
        "PauliOp": PauliOp(4, 1, 0, 0),
        "NoiseParams": noise,
        "BoundsReport": bounds_report(2, 0.15, 0.98),
        "MinBlocksResult": min_blocks(0.33, 0.15, 0.98),
        "LhvBoundResult": brute_force_bound(1),
        "CorrelationCheck": report.checks[0],
        "CorrelationReport": report,
        "BellTerm": term_at(1, 0),
        "CountsTable": estimate.counts_summary,
        "TermEstimate": estimate_term(1, 0, noise, 10, seed=0),
        "BetaEstimate": estimate,
    }


def test_there_are_twelve_records_each_of_its_own_type():
    assert {type(record).__name__ for record in all_records().values()} == set(all_records())
    assert len(all_records()) == 12


@pytest.mark.parametrize("name", all_records())
def test_no_field_can_be_set_or_deleted(name):
    record = all_records()[name]
    assert isinstance(record, tuple)
    field = record._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 1  # no instance dictionary either
    assert getattr(record, field) == value


@pytest.mark.parametrize("name", all_records())
def test_a_record_is_the_tuple_of_its_fields(name):
    record = all_records()[name]
    plain = tuple(getattr(record, field) for field in record._fields)
    assert record == plain
    assert list(record._asdict()) == list(record._fields)
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


def test_numpy_counts_come_back_as_python_ints():
    # numpy ints once stayed in place, and json.dumps refused the record's _asdict()
    counts = CountsTable(np.int64(2), np.int64(1), 0, 0, np.int32(1), 0)
    assert counts == (2, 1, 0, 0, 1, 0)
    assert all(type(count) is int for count in counts)
    assert json.dumps(counts._asdict()) == '{"n_total": 2, "n_pp": 1, "n_mm": 0, "n_single_1": 0, "n_single_2": 1, "n_00": 0}'


def test_pauli_hash_is_its_field_tuple_hash():
    for n, x, z, e in [(4, 1, 0, 0), (8, 0b1010_0101, 0b0110_0011, 3), (4, 0, 0, 2)]:
        assert hash(PauliOp(n, x, z, e)) == hash((n, x, z, e))
        assert {PauliOp(n, x, z, e): 1}[(n, x, z, e)] == 1


def test_pauli_keeps_no_tuple_arithmetic():
    op = PauliOp(4, 1, 0, 0)
    with pytest.raises(TypeError):
        op + op
    with pytest.raises(TypeError):
        2 * op
    with pytest.raises(TypeError):  # not pauli_mul's AttributeError on int.n
        op * 2
    with pytest.raises(TypeError):
        op + (1,)
    # * between operators is still the Pauli product: X X = I
    assert op * op == PauliOp(4, 0, 0, 0)


def test_repr_keeps_the_field_format():
    assert repr(PauliOp(4, 1, 0, 2)) == "PauliOp(n=4, x=1, z=0, e=2)"
    assert repr(Observable("x", 2, 3)) == "Observable(letter='x', particle=2, block=3)"
    assert repr(NoiseParams()) == "NoiseParams(epsilon=0.15, p=0.98, eta=0.33)"
    assert str(Observable("x", 2, 3)) == "x2(3)"
    assert str(PauliOp(4, 1, 0, 2)) == "-X1(1)"
