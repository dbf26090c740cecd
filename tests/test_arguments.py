"""Every count, index, cap and seed the public functions take is checked the
same way: a bool, a float, a string or None is refused with a TypeError that
names the argument, a numpy integer gives exactly what the Python int
gives, exact values included, however large, and a value outside the
argument's range is refused with a ValueError that names the argument and
the range.

So is every eps, p and eta: a bool, a string, a complex, None or a sized
array is refused with a TypeError that names the argument, nan or a signaling
NaN with a ValueError, and any other
real number (an int, a Fraction, a Decimal, a numpy float of any width) gives
exactly what the Python float gives, a simulation included.

So is every noise argument: anything but a NoiseParams is refused with a
TypeError that names the argument, before any work.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hyperbell import (
    NoiseParams,
    bounds_report,
    brute_force_bound,
    build_state,
    dense_state,
    estimate_beta,
    estimate_term,
    expected_estimate,
    min_blocks,
    n_terms,
    noisy_bounds,
    quantum_value,
    term_at,
    verify_perfect_correlations,
    visibility_factor,
)
from hyperbell import montecarlo
from hyperbell.efficiency import FLOAT_BLOCK_CAP
from hyperbell.montecarlo import ESTIMATE_BLOCK_CAP, MAX_SHOTS
from hyperbell.state import DENSE_BLOCK_CAP, EXACT_BLOCK_CAP, STABILIZER_QUBIT_CAP

EXACT = NoiseParams(eta=1.0)

# (function, argument, the function's result as a function of that argument,
# a valid value, its range (lo, hi), hi None where there is no upper bound);
# each result is compared by repr, which shows a numpy integer kept in place of
# a Python int.  The N given n_terms, brute_force_bound, quantum_value,
# verify_perfect_correlations and estimate_beta are ones where arithmetic on an
# unconverted numpy integer wraps or fails.
ARGUMENTS = [
    ("n_terms", "n_blocks", lambda v: n_terms(v), 40, (1, None)),
    ("term_at", "n_blocks", lambda v: term_at(v, 5), 2, (1, FLOAT_BLOCK_CAP)),
    ("term_at", "index", lambda v: term_at(2, v), 5, (0, 15)),
    ("quantum_value", "n_blocks", lambda v: quantum_value(v), 9, (1, EXACT_BLOCK_CAP)),
    ("quantum_value-dense", "n_blocks", lambda v: quantum_value(v, backend="dense"), 2, (1, DENSE_BLOCK_CAP)),
    ("build_state", "n_blocks", lambda v: build_state(v)._pivots, 16, (1, STABILIZER_QUBIT_CAP // 4)),
    ("verify_perfect_correlations", "n_blocks", lambda v: verify_perfect_correlations(v), 9, (1, STABILIZER_QUBIT_CAP // 4)),
    ("dense_state", "n_blocks", lambda v: dense_state(v).amplitudes.tolist(), 2, (1, DENSE_BLOCK_CAP)),
    ("brute_force_bound", "n_blocks", lambda v: brute_force_bound(v), 70, (1, FLOAT_BLOCK_CAP)),
    ("noisy_bounds", "n_blocks", lambda v: noisy_bounds(v, 0.1, 0.9), 40, (1, FLOAT_BLOCK_CAP)),
    ("bounds_report", "n_blocks", lambda v: bounds_report(v, 0.1, 0.9), 40, (1, FLOAT_BLOCK_CAP)),
    ("expected_estimate", "n_blocks", lambda v: expected_estimate(v, EXACT), 40, (1, FLOAT_BLOCK_CAP)),
    ("min_blocks", "n_cap", lambda v: min_blocks(0.33, 0.15, 0.98, n_cap=v), 5, (1, FLOAT_BLOCK_CAP)),
    ("estimate_term", "n_blocks", lambda v: estimate_term(v, 5, EXACT, 30, seed=1), 2, (1, ESTIMATE_BLOCK_CAP)),
    ("estimate_term", "index", lambda v: estimate_term(2, v, EXACT, 30, seed=1), 5, (0, 15)),
    ("estimate_term", "shots", lambda v: estimate_term(2, 5, EXACT, v, seed=1), 30, (1, MAX_SHOTS)),
    ("estimate_term", "seed", lambda v: estimate_term(2, 5, EXACT, 30, seed=v), 1, (0, None)),
    ("estimate_beta", "n_blocks", lambda v: estimate_beta(v, 1, EXACT, seed=0, term_budget=2), 40, (1, ESTIMATE_BLOCK_CAP)),
    ("estimate_beta", "shots_per_term", lambda v: estimate_beta(2, v, EXACT, seed=0), 3, (1, MAX_SHOTS)),
    ("estimate_beta", "seed", lambda v: estimate_beta(3, 3, EXACT, seed=v, term_budget=5), 1, (0, None)),
    ("estimate_beta", "term_budget", lambda v: estimate_beta(40, 1, EXACT, seed=0, term_budget=v), 2, (1, None)),
]


@pytest.mark.parametrize(
    "argument, result, valid", [pytest.param(*row[1:4], id=f"{row[0]}-{row[1]}") for row in ARGUMENTS]
)
def test_integer_arguments_are_checked_alike(argument, result, valid):
    want = result(valid)
    # after the numpy integer has been seen, so no cache keyed by value can take True for 1
    assert repr(result(np.int64(valid))) == repr(want)
    for bad in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"^{argument} must be an integer, got {re.escape(repr(bad))}$"):
            result(bad)


@pytest.mark.parametrize(
    "argument, result, lo, hi", [pytest.param(row[1], row[2], *row[4], id=f"{row[0]}-{row[1]}") for row in ARGUMENTS]
)
def test_integer_ranges_are_checked_alike(argument, result, lo, hi):
    # one check and one message for every range: the value just below it and,
    # where there is one, just above it
    within = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    for bad in [lo - 1] + ([] if hi is None else [hi + 1]):
        with pytest.raises(ValueError, match=f"^{argument} must be {re.escape(within)}, got {bad}$"):
            result(bad)


# (function, argument, the function's result as a function of that argument,
# a valid value exact in float16, a valid integer); each result is compared by
# repr, which shows an int or a Fraction kept in place of a float
REAL_ARGUMENTS = [
    ("NoiseParams", "epsilon", lambda v: NoiseParams(epsilon=v), 0.125, 0),
    ("NoiseParams", "p", lambda v: NoiseParams(p=v), 0.5, 1),
    ("NoiseParams", "eta", lambda v: NoiseParams(eta=v), 0.5, 1),
    ("noisy_bounds", "eps", lambda v: noisy_bounds(3, v, 0.9), 0.125, 1),
    ("noisy_bounds", "p", lambda v: noisy_bounds(3, 0.1, v), 0.5, 0),
    ("bounds_report", "eps", lambda v: bounds_report(3, v, 0.9), 0.125, 1),
    ("bounds_report", "p", lambda v: bounds_report(3, 0.1, v), 0.5, 0),
    ("visibility_factor", "eta", lambda v: visibility_factor(v), 0.5, 1),
    ("min_blocks", "eta", lambda v: min_blocks(v, 0.15, 0.98), 0.5, 1),
    ("min_blocks", "eps", lambda v: min_blocks(0.33, v, 0.98), 0.125, 0),
    ("min_blocks", "p", lambda v: min_blocks(0.33, 0.1, v), 0.75, 1),
]


@pytest.mark.parametrize(
    "argument, result, valid, whole", [pytest.param(*row[1:], id=f"{row[0]}-{row[1]}") for row in REAL_ARGUMENTS]
)
def test_real_arguments_are_checked_alike(argument, result, valid, whole):
    want = repr(result(valid))
    for kind in (Fraction, Decimal, np.float16, np.float32, np.float64):
        assert repr(result(kind(valid))) == want, kind
    assert repr(result(whole)) == repr(result(float(whole)))
    for bad in (True, "0.5", 0.5j, None, np.array([valid, valid])):
        with pytest.raises(TypeError, match=f"^{argument} must be a real number, got {re.escape(repr(bad))}$"):
            result(bad)
    # float() itself refuses it, and the error still names the argument
    with pytest.raises(ValueError, match=rf"^{argument} must be a real number, got Decimal\('sNaN'\)$"):
        result(Decimal("sNaN"))
    with pytest.raises(ValueError, match=f"^{argument} must be in .*, got nan$"):
        result(float("nan"))
    # past the largest float, out of range rather than an OverflowError
    for huge in (10**400, -Fraction(10**400)):
        with pytest.raises(ValueError, match=f"^{argument} must be in .*, got {huge}$"):
            result(huge)


@pytest.mark.parametrize("kind", [np.float32, np.float16])
def test_a_narrow_numpy_eta_simulates_as_its_float(kind):
    # its pvals were once float32 rows, which the C multinomial read as doubles past their end
    want = estimate_beta(2, 1000, NoiseParams(eta=0.5), seed=7)
    assert estimate_beta(2, 1000, NoiseParams(eta=kind(0.5)), seed=7) == want


@pytest.mark.parametrize("field", NoiseParams._fields)
@pytest.mark.parametrize("value", [Fraction(1, 2), Decimal("0.5"), 1], ids=["Fraction", "Decimal", "int"])
def test_the_simulate_document_is_the_floats(field, value):
    # a Decimal once failed the simulation; simulate's document prints the
    # NoiseParams fields, floats by test_efficiency's test_any_real_number_is_accepted
    noise, want = NoiseParams(**{field: value}), NoiseParams(**{field: float(value)})
    assert estimate_beta(2, 50, noise, seed=3) == estimate_beta(2, 50, want, seed=3)
    assert expected_estimate(2, noise) == expected_estimate(2, want)


# (function, its result as a function of its noise argument)
NOISE_ARGUMENTS = [
    ("estimate_beta", lambda v: estimate_beta(2, 10, v, seed=1)),
    ("estimate_beta-subsampled", lambda v: estimate_beta(40, 10, v, seed=1, term_budget=3)),
    ("estimate_term", lambda v: estimate_term(2, 5, v, 10, seed=1)),
    ("expected_estimate", lambda v: expected_estimate(2, v)),
]


@pytest.mark.parametrize("result", [pytest.param(row[1], id=row[0]) for row in NOISE_ARGUMENTS])
def test_noise_must_be_a_noise_params(result, monkeypatch):
    result(EXACT)
    # refused before any work: no term is chosen or drawn
    monkeypatch.setattr(montecarlo, "_sample_indices", None)
    monkeypatch.setattr(montecarlo, "_sampler", None)
    for bad in ((0.15, 0.98, 0.33), None, {"eta": 0.33}, EXACT._asdict(), 0.33):
        with pytest.raises(TypeError, match=f"^noise must be a NoiseParams, got {re.escape(repr(bad))}$"):
            result(bad)
