"""Every count, index, cap and seed the public functions take is checked the
same way: a bool, a float, a string or None is refused with a TypeError that
names the argument, and a numpy integer gives exactly what the Python int
gives, exact values included, however large.
"""

from __future__ import annotations

import re

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
    factored_bound,
    min_blocks,
    n_terms,
    noisy_bounds,
    quantum_value,
    term_at,
    verify_perfect_correlations,
)

EXACT = NoiseParams(eta=1.0)

# (function, argument, the function's result as a function of that argument,
# a valid value); each result is compared by repr, which shows a numpy integer
# kept in place of a Python int.  The N given n_terms, factored_bound,
# quantum_value, verify_perfect_correlations and estimate_beta are ones where
# arithmetic on an unconverted numpy integer wraps or fails.
ARGUMENTS = [
    ("n_terms", "n_blocks", lambda v: n_terms(v), 40),
    ("term_at", "n_blocks", lambda v: term_at(v, 5), 2),
    ("term_at", "index", lambda v: term_at(2, v), 5),
    ("quantum_value", "n_blocks", lambda v: quantum_value(v), 9),
    ("quantum_value-dense", "n_blocks", lambda v: quantum_value(v, backend="dense"), 2),
    ("build_state", "n_blocks", lambda v: build_state(v)._rows, 16),
    ("verify_perfect_correlations", "n_blocks", lambda v: verify_perfect_correlations(v), 9),
    ("dense_state", "n_blocks", lambda v: dense_state(v).amplitudes.tolist(), 2),
    ("brute_force_bound", "n_blocks", lambda v: brute_force_bound(v), 2),
    ("factored_bound", "n_blocks", lambda v: factored_bound(v), 70),
    ("noisy_bounds", "n_blocks", lambda v: noisy_bounds(v, 0.1, 0.9), 40),
    ("bounds_report", "n_blocks", lambda v: bounds_report(v, 0.1, 0.9), 40),
    ("expected_estimate", "n_blocks", lambda v: expected_estimate(v, EXACT), 40),
    ("min_blocks", "n_cap", lambda v: min_blocks(0.33, 0.15, 0.98, n_cap=v), 5),
    ("estimate_term", "n_blocks", lambda v: estimate_term(v, 5, EXACT, 30, seed=1), 2),
    ("estimate_term", "index", lambda v: estimate_term(2, v, EXACT, 30, seed=1), 5),
    ("estimate_term", "shots", lambda v: estimate_term(2, 5, EXACT, v, seed=1), 30),
    ("estimate_term", "seed", lambda v: estimate_term(2, 5, EXACT, 30, seed=v), 1),
    ("estimate_beta", "n_blocks", lambda v: estimate_beta(v, 1, EXACT, seed=0, term_budget=2), 40),
    ("estimate_beta", "shots_per_term", lambda v: estimate_beta(2, v, EXACT, seed=0), 3),
    ("estimate_beta", "seed", lambda v: estimate_beta(3, 3, EXACT, seed=v, term_budget=5), 1),
    ("estimate_beta", "term_budget", lambda v: estimate_beta(40, 1, EXACT, seed=0, term_budget=v), 2),
]


@pytest.mark.parametrize(
    "argument, result, valid", [pytest.param(*row[1:], id=f"{row[0]}-{row[1]}") for row in ARGUMENTS]
)
def test_integer_arguments_are_checked_alike(argument, result, valid):
    want = result(valid)
    # after the numpy integer has been seen, so no cache keyed by value can take True for 1
    assert repr(result(np.int64(valid))) == repr(want)
    for bad in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"^{argument} must be an integer, got {re.escape(repr(bad))}$"):
            result(bad)

