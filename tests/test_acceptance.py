"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL line.

Run with ``pytest -v`` (or ``-s`` to see the lines for passing tests too).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

from hyperbell.bell import quantum_value
from hyperbell.efficiency import (
    NoiseParams,
    bounds_report,
    min_blocks,
    noisy_bounds,
    visibility_factor,
)
from hyperbell.lhv import (
    _BLOCK_SUM_TABLE,
    brute_force_bound,
    factored_bound,
)
from hyperbell.montecarlo import estimate_beta, estimate_term
from hyperbell.state import verify_perfect_correlations
from test_lhv import term_sum

SIGN_PATTERN = (1, -1, 1, 1, -1, -1, 1)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_perfect_correlations():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        report = verify_perfect_correlations(n)
        expected = [c.expected for c in report.checks]
        ok = ok and report.passed and expected == list(SIGN_PATTERN) * n
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(
        "perfect correlations",
        ok,
        f"7N/7N with the fixed sign pattern for N=1..8 in {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_2_quantum_value():
    ok = True
    for n in range(1, 8):
        ok = ok and quantum_value(n) == 4**n
    t0 = time.perf_counter()
    ok = ok and quantum_value(8) == 4**8
    elapsed8 = time.perf_counter() - t0
    ok = ok and elapsed8 < 10.0
    for n in (1, 2, 3):
        ok = ok and quantum_value(n, backend="dense") == 4**n
    _line(
        "quantum value",
        ok,
        "4^N exactly for N=1..8, every expanded term +1, "
        f"N=8 in {elapsed8:.2f} s (< 10 s), dense backend agrees for N<=3",
    )


def test_criterion_3_classical_bound():
    t0 = time.perf_counter()
    r1 = brute_force_bound(1)
    r2 = brute_force_bound(2)
    ok = (
        r1.max_value == 2
        and r1.assignments_scanned == 2**7
        and r2.max_value == 4
        and r2.assignments_scanned == 2**14
    )
    # parity property: every deterministic assignment gives exactly +-2^N,
    # read from the expanded term sum
    for mask in range(2**7):
        ok = ok and term_sum(1, mask) in (-2, 2)
    for mask in range(2**14):
        value = _BLOCK_SUM_TABLE[mask & 127] * _BLOCK_SUM_TABLE[mask >> 7]
        ok = ok and value in (-4, 4)
    rng = np.random.default_rng(424242)
    for _ in range(200):
        ok = ok and term_sum(2, int(rng.integers(0, 1 << 14))) in (-4, 4)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(
        "classical bound",
        ok,
        "exhaustive maxima 2 (128 assignments) and 4 (16384 assignments), "
        f"all values +-2^N, in {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_4_exponential_ratio():
    ok = True
    for n in range(1, 9):
        qm = quantum_value(n)
        epr = factored_bound(n)
        ok = ok and qm % epr == 0 and qm // epr == 2**n
    _line("exponential ratio", ok, "quantum/classical = 2^N exactly for N=1..8")


def test_criterion_5_noise_adjusted_bounds():
    v = visibility_factor(0.33)
    ok = abs(v - 0.197605) < 1e-6
    epr6, qm6 = noisy_bounds(6, 0.15, 0.98)
    ok = ok and abs(epr6 - 678.4) < 1e-9 and abs(qm6 - 4014.1) < 1e-9
    ok = ok and v * qm6 > epr6  # approximately 793.2 > 678.4
    epr4, qm4 = noisy_bounds(4, 0.15, 0.98)
    ok = ok and v * qm4 < epr4  # approximately 49.6 < 54.4
    # the literal formulas already cross at N=5; N=6 is the comfortably
    # sufficient size quoted alongside these reference numbers, and the
    # computed first crossing is reported rather than hidden
    n_star = min_blocks(eta=0.33, eps=0.15, p=0.98).n_star
    ok = ok and n_star == 5
    _line(
        "noise-adjusted bounds",
        ok,
        f"visibility(0.33)={v:.6f}, bounds(6)=({epr6}, {qm6}), "
        f"violation holds at N=6 and fails at N=4; first crossing N*={n_star} "
        "(documented discrepancy: one below the quoted sufficient size 6)",
    )


def test_criterion_6_efficiency_thresholds():
    ok = abs(bounds_report(1, 0.0, 1.0).eta_min - 2.0 / 3.0) < 1e-12
    # eps = 1/sqrt(2) - 1/2 makes beta_epr' = 2*sqrt(2) against beta_qm' = 4
    rep = bounds_report(1, 1.0 / math.sqrt(2.0) - 0.5, 1.0)
    ok = ok and abs(rep.ratio - 1.0 / math.sqrt(2.0)) < 1e-12
    ok = ok and abs(rep.eta_min - 0.8284) < 1e-4
    thresholds = [bounds_report(n, 0.0, 1.0).eta_min for n in range(1, 9)]
    ok = ok and all(a > b for a, b in zip(thresholds, thresholds[1:]))
    _line(
        "efficiency thresholds",
        ok,
        "2/3 at the single-block ratio, 0.8284 at ratio 1/sqrt(2), "
        "strictly decreasing in N for ideal bounds",
    )


def test_criterion_7_monte_carlo_fidelity():
    t0 = time.perf_counter()
    shots = 100_000
    ideal = estimate_beta(
        1, shots, NoiseParams(epsilon=0.0, p=1.0, eta=1.0), seed=20240901
    )
    ok = abs(ideal.beta_hat - 4.0) <= 5 * ideal.stderr

    flip_noise = NoiseParams(epsilon=0.15, p=1.0, eta=1.0)
    for t in range(4):
        est = estimate_term(1, t, flip_noise, shots, seed=20240901 + t)
        ok = ok and abs(est.sign * est.correlation - 0.85) < 5 * est.stderr

    half_eta = NoiseParams(epsilon=0.0, p=1.0, eta=0.5)
    for t in range(4):
        est = estimate_term(1, t, half_eta, shots, seed=20240901 + t)
        ok = ok and abs(est.sign * est.correlation - 1.0 / 3.0) < 5 * est.stderr
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _line(
        "simulation fidelity",
        ok,
        "beta_hat = 4 exactly at ideal parameters; per-term estimates within "
        "5 stderr of 0.85 under 15% flips and of 1/3 at eta=0.5; "
        f"{elapsed:.1f} s (< 60 s)",
    )


def test_criterion_8_cli_determinism():
    env = os.environ.copy()
    env.pop("HYPERBELL_SEED", None)

    def run(*args: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperbell", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    sim = ("simulate", "--n", "2", "--shots", "200", "--seed", "11")
    ok = run(*sim) == run(*sim)
    ok = ok and run("verify", "--n", "3") == run("verify", "--n", "3")
    _line(
        "deterministic output",
        ok,
        "repeated commands with one seed are byte-identical",
    )
