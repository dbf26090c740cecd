"""Finite-statistics simulation of the Bell test with inefficient detectors.

One run of a term works block by block: with probability p the block's
commuting observables are sampled jointly from their exact distribution on
the block state, and with probability 1-p from the uniform (white noise)
distribution.  The two observers' outcome products are then degraded by a
symmetric sign flip of the total product with probability eps/2 (per-term
mean 1-eps when p=1), and each observer's detector fires independently with
probability eta.

Correlations are estimated with single-sided detections kept in the
denominator,

    estimate = (n_pp - n_mm) / (n_total - n_00),

which rescales the true correlation by eta/(2-eta) rather than opening the
detection loophole by postselecting on coincidences.

All randomness flows through numpy Generators.  For multi-term estimates the
per-term streams are derived from the master seed by term index, so the
result is byte-identical for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .bell import BLOCK_TERM_MENU, BellTerm, n_terms, term_at
from .efficiency import NoiseParams
from .pauli import Observable, pauli_mul
from .state import build_state, expectation


class UndefinedEstimateError(ValueError):
    """The correlation estimator's denominator is empty."""


@dataclass(frozen=True, slots=True)
class CountsTable:
    """Detection bookkeeping for one term; the five categories tile all runs."""

    n_total: int
    n_pp: int
    n_mm: int
    n_single_1: int
    n_single_2: int
    n_00: int

    def __post_init__(self) -> None:
        parts = self.n_pp + self.n_mm + self.n_single_1 + self.n_single_2 + self.n_00
        if parts != self.n_total:
            raise ValueError(
                f"counts do not tile the runs: {parts} categorized vs {self.n_total} total"
            )
        if min(self.n_total, self.n_pp, self.n_mm, self.n_single_1, self.n_single_2, self.n_00) < 0:
            raise ValueError("counts must be nonnegative")

    def __add__(self, other: "CountsTable") -> "CountsTable":
        return CountsTable(
            self.n_total + other.n_total,
            self.n_pp + other.n_pp,
            self.n_mm + other.n_mm,
            self.n_single_1 + other.n_single_1,
            self.n_single_2 + other.n_single_2,
            self.n_00 + other.n_00,
        )

    def as_dict(self) -> dict[str, int]:
        return asdict(self)  # keys in field order


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One run of one term: detection flags and, where detected, the local products."""

    term_index: int
    detected_1: bool
    detected_2: bool
    product_1: int | None
    product_2: int | None

    def __post_init__(self) -> None:
        if (self.product_1 is None) == self.detected_1:
            raise ValueError("product_1 must be present iff particle 1 was detected")
        if (self.product_2 is None) == self.detected_2:
            raise ValueError("product_2 must be present iff particle 2 was detected")


@dataclass(frozen=True, slots=True)
class _ChoiceTable:
    """Exact joint-outcome distribution of one menu choice on a single block."""

    n_outcomes: int
    probs: np.ndarray
    prod1: np.ndarray
    prod2: np.ndarray


@lru_cache(maxsize=None)
def _choice_table(choice: int) -> _ChoiceTable:
    menu = BLOCK_TERM_MENU[choice]
    obs = [Observable(letter, particle, 1) for letter, particle in menu.observables]
    ops = [o.to_pauli(1) for o in obs]
    k = len(ops)
    state = build_state(1)
    # expectation of every observable subset, subsets keyed by bitmask
    sub_exp = np.empty(1 << k)
    sub_ops = [None] * (1 << k)
    sub_exp[0] = 1.0
    for mask in range(1, 1 << k):
        low = mask & -mask
        op = ops[low.bit_length() - 1]
        rest = mask ^ low
        sub_ops[mask] = op if rest == 0 else pauli_mul(sub_ops[rest], op)
        sub_exp[mask] = expectation(state, sub_ops[mask])
    # joint distribution: P(s) = 2^-k * sum_S E_S * prod_{i in S} s_i
    probs = np.empty(1 << k)
    prod1 = np.empty(1 << k, dtype=np.int8)
    prod2 = np.empty(1 << k, dtype=np.int8)
    for idx in range(1 << k):
        signs = [1 - 2 * ((idx >> (k - 1 - i)) & 1) for i in range(k)]
        acc = 0.0
        for mask in range(1 << k):
            term = sub_exp[mask]
            for i in range(k):
                if (mask >> i) & 1:
                    term *= signs[i]
            acc += term
        probs[idx] = acc / (1 << k)
        prod1[idx] = math.prod(s for s, o in zip(signs, obs) if o.particle == 1)
        prod2[idx] = math.prod(s for s, o in zip(signs, obs) if o.particle == 2)
    if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:
        raise AssertionError(f"invalid joint distribution for choice {menu.label}")
    return _ChoiceTable(1 << k, probs, prod1, prod2)


def sample_outcomes(
    term: BellTerm, noise: NoiseParams, rng: np.random.Generator, shots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized runs of one term: local products A, B and detection flags.

    The draw order is fixed (per block: state selector, ideal outcome, noise
    outcome; then flip; then the two detectors) so a seeded generator yields
    identical runs regardless of the parameter values.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    a = np.ones(shots, dtype=np.int8)
    b = np.ones(shots, dtype=np.int8)
    for choice in term.choices:
        table = _choice_table(choice)
        ideal = rng.random(shots) < noise.p
        ideal_idx = rng.choice(table.n_outcomes, size=shots, p=table.probs)
        noise_idx = rng.integers(0, table.n_outcomes, size=shots)
        idx = np.where(ideal, ideal_idx, noise_idx)
        a *= table.prod1[idx]
        b *= table.prod2[idx]
    flip = rng.random(shots) < noise.epsilon / 2.0
    b = np.where(flip, -b, b).astype(np.int8)
    det1 = rng.random(shots) < noise.eta
    det2 = rng.random(shots) < noise.eta
    return a, b, det1, det2


def sample_run(term: BellTerm, noise: NoiseParams, rng: np.random.Generator) -> RunRecord:
    """A single run of one term."""
    a, b, det1, det2 = sample_outcomes(term, noise, rng, 1)
    d1, d2 = bool(det1[0]), bool(det2[0])
    return RunRecord(
        term_index=term.index,
        detected_1=d1,
        detected_2=d2,
        product_1=int(a[0]) if d1 else None,
        product_2=int(b[0]) if d2 else None,
    )


def counts_for_term(
    term: BellTerm, noise: NoiseParams, shots: int, rng: np.random.Generator
) -> CountsTable:
    """Run a term ``shots`` times and tally the detection categories."""
    a, b, det1, det2 = sample_outcomes(term, noise, rng, shots)
    both = det1 & det2
    prod = a * b
    n_pp = int(np.count_nonzero(both & (prod == 1)))
    n_mm = int(np.count_nonzero(both & (prod == -1)))
    n_single_1 = int(np.count_nonzero(det1 & ~det2))
    n_single_2 = int(np.count_nonzero(det2 & ~det1))
    n_00 = int(np.count_nonzero(~det1 & ~det2))
    return CountsTable(shots, n_pp, n_mm, n_single_1, n_single_2, n_00)


def estimate_correlation(counts: CountsTable) -> float:
    """(n_pp - n_mm) / (n_total - n_00); singles dilute instead of postselect."""
    denom = counts.n_total - counts.n_00
    if denom == 0:
        raise UndefinedEstimateError("no runs with at least one detection")
    return (counts.n_pp - counts.n_mm) / denom


@dataclass(frozen=True, slots=True)
class TermEstimate:
    term_index: int
    sign: int
    correlation: float
    stderr: float
    counts: CountsTable

    @property
    def signed_value(self) -> float:
        return self.sign * self.correlation


def estimate_term(
    term: BellTerm, noise: NoiseParams, shots: int, rng: np.random.Generator
) -> TermEstimate:
    """Correlation estimate for one term with a binomial-style standard error."""
    counts = counts_for_term(term, noise, shots, rng)
    denom = counts.n_total - counts.n_00
    if denom == 0:
        raise UndefinedEstimateError(
            f"term {term.index}: no runs with at least one detection out of {shots}"
        )
    corr = estimate_correlation(counts)
    second_moment = (counts.n_pp + counts.n_mm) / denom
    variance = max(second_moment - corr * corr, 0.0)
    return TermEstimate(term.index, term.sign, corr, math.sqrt(variance / denom), counts)


def _term_rng(seed: int, term_index: int) -> np.random.Generator:
    # fixed indexing off the master seed; the order terms run in cannot change it
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, term_index)))


@dataclass(frozen=True, slots=True)
class BetaEstimate:
    """Estimated Bell-expression value with its standard error and run parameters."""

    n_blocks: int
    shots_per_term: int
    terms_sampled: int
    total_terms: int
    exhaustive: bool
    noise: NoiseParams
    seed: int
    beta_hat: float
    stderr: float
    counts_summary: CountsTable

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "n": self.n_blocks,
            "shots_per_term": self.shots_per_term,
            "terms_sampled": self.terms_sampled,
            "total_terms": self.total_terms,
            "exhaustive": self.exhaustive,
            "eta": self.noise.eta,
            "eps": self.noise.epsilon,
            "p": self.noise.p,
            "seed": self.seed,
            "beta_hat": self.beta_hat,
            "stderr": self.stderr,
            "counts_summary": self.counts_summary.as_dict(),
        }


def estimate_beta(
    n_blocks: int,
    shots_per_term: int,
    noise: NoiseParams,
    seed: int,
    term_budget: int = 4096,
) -> BetaEstimate:
    """Estimate the Bell-expression value from simulated runs.

    Measures every expanded term when there are at most ``term_budget`` of
    them; otherwise measures a uniform sample of ``term_budget`` distinct
    terms and scales up, widening the error bar by the sampling variance.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    if term_budget < 1:
        raise ValueError(f"term_budget must be >= 1, got {term_budget}")
    total = n_terms(n_blocks)
    exhaustive = total <= term_budget
    if exhaustive:
        indices: list[int] | range = range(total)
    else:
        # Floyd's sampling: a uniform term_budget-subset without materializing the range
        pick_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        chosen: set[int] = set()
        for j in range(total - term_budget, total):
            t = int(pick_rng.integers(0, j + 1))
            chosen.add(j if t in chosen else t)
        indices = sorted(chosen)

    estimates = [
        estimate_term(term_at(n_blocks, t), noise, shots_per_term, _term_rng(seed, t))
        for t in indices
    ]

    values = np.array([e.signed_value for e in estimates])
    measurement_var = float(sum(e.stderr**2 for e in estimates))
    m = len(estimates)
    counts = estimates[0].counts
    for e in estimates[1:]:
        counts = counts + e.counts
    if exhaustive:
        beta_hat = float(values.sum())
        variance = measurement_var
    else:
        scale = total / m
        beta_hat = scale * float(values.sum())
        sample_var = float(np.var(values, ddof=1)) if m > 1 else 0.0
        variance = scale**2 * measurement_var + total**2 * (1 - m / total) * sample_var / m
    return BetaEstimate(
        n_blocks=n_blocks,
        shots_per_term=shots_per_term,
        terms_sampled=m,
        total_terms=total,
        exhaustive=exhaustive,
        noise=noise,
        seed=seed,
        beta_hat=beta_hat,
        stderr=math.sqrt(variance),
        counts_summary=counts,
    )
