"""Tests for noise-adjusted bounds and detection-efficiency thresholds."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hyperbell import efficiency
from hyperbell.efficiency import (
    FLOAT_BLOCK_CAP,
    BoundsReport,
    NoiseParams,
    NoViolationError,
    bounds_report,
    expected_estimate,
    min_blocks,
    noisy_bounds,
    visibility_factor,
)


# ═══════════════════════════════════════════════════════════════════════════
# Parameters and elementary formulas
# ═══════════════════════════════════════════════════════════════════════════


class TestNoiseParams:
    def test_defaults(self):
        noise = NoiseParams()
        assert noise.epsilon == 0.15
        assert noise.p == 0.98
        assert noise.eta == 0.33

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            NoiseParams(epsilon=-0.01)
        with pytest.raises(ValueError, match="epsilon"):
            NoiseParams(epsilon=1.01)
        with pytest.raises(ValueError, match="p must"):
            NoiseParams(p=1.5)
        with pytest.raises(ValueError, match="eta"):
            NoiseParams(eta=0.0)
        with pytest.raises(ValueError, match="eta"):
            NoiseParams(eta=1.2)

    @pytest.mark.parametrize(
        "field, value",
        [("eta", True), ("epsilon", False), ("eta", "0.5"), ("p", None), ("epsilon", 0.1j), ("p", b"1")],
    )
    def test_fields_must_be_real_numbers(self, field, value):
        # eta=True once constructed and printed "eta": true; eta="0.5" failed
        # with an unrelated '<' not supported error
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            NoiseParams(**{field: value})

    def test_any_real_number_is_accepted(self):
        # and stored as a Python float, which every later product and json.dumps take
        for noise in (
            NoiseParams(epsilon=0, p=1, eta=1),
            NoiseParams(eta=Fraction(1, 2)),
            NoiseParams(p=np.float32(0.5)),
            NoiseParams(epsilon=np.float64(0.25))._replace(eta=np.float16(0.5)),
        ):
            assert all(type(field) is float for field in noise), noise
        assert NoiseParams(epsilon=0, p=1, eta=1) == (0.0, 1.0, 1.0)
        assert NoiseParams(eta=Fraction(1, 2)).eta == 0.5
        assert NoiseParams(p=np.float32(0.5)).p == 0.5
        assert NoiseParams(epsilon=np.float64(0.25)).epsilon == 0.25


class TestNoisyBounds:
    def test_reference_values(self):
        epr, qm = noisy_bounds(6, 0.15, 0.98)
        assert epr == pytest.approx(678.4, abs=1e-9)
        assert qm == pytest.approx(4014.1, abs=1e-9)

    def test_noiseless_limit(self):
        for n in (1, 3, 8):
            epr, qm = noisy_bounds(n, 0.0, 1.0)
            assert epr == 2**n
            assert qm == 4**n

    def test_validation(self):
        with pytest.raises(ValueError):
            noisy_bounds(0, 0.1, 0.9)
        with pytest.raises(ValueError):
            noisy_bounds(2, -0.1, 0.9)
        with pytest.raises(ValueError):
            noisy_bounds(2, 0.1, 1.1)

    def test_capped_where_four_to_the_n_overflows(self):
        epr, qm = noisy_bounds(FLOAT_BLOCK_CAP, 0.15, 0.98)
        assert math.isfinite(epr) and math.isfinite(qm)
        with pytest.raises(ValueError, match="511"):
            noisy_bounds(FLOAT_BLOCK_CAP + 1, 0.15, 0.98)


class TestVisibility:
    def test_values(self):
        assert visibility_factor(1.0) == 1.0
        assert visibility_factor(0.33) == pytest.approx(0.33 / 1.67, abs=1e-15)
        assert visibility_factor(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_monotone_increasing(self):
        etas = [0.05 * k for k in range(1, 21)]
        vals = [visibility_factor(e) for e in etas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        for bad in (0.0, -0.2, 1.0001):
            with pytest.raises(ValueError):
                visibility_factor(bad)


# ═══════════════════════════════════════════════════════════════════════════
# Efficiency threshold
# ═══════════════════════════════════════════════════════════════════════════


class TestEtaThreshold:
    # the threshold is bounds_report's eta_min = 2r/(1+r), r = beta_epr'/beta_qm'

    def test_single_block_ideal(self):
        assert bounds_report(1, 0.0, 1.0).eta_min == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_visibility_crossing(self):
        # at the threshold the rescaled quantum value meets the local bound
        for n in (1, 2, 5):
            rep = bounds_report(n, 0.05, 0.99)
            assert visibility_factor(rep.eta_min) * rep.beta_qm_noisy == pytest.approx(
                rep.beta_epr_noisy, rel=1e-12
            )

    def test_reference_ratio(self):
        # r = 1/sqrt(2) is the familiar two-setting ratio: 2 + 4 eps = 4/sqrt(2)
        rep = bounds_report(1, 2**-0.5 - 0.5, 1.0)
        assert rep.ratio == pytest.approx(2**-0.5, abs=1e-15)
        assert rep.eta_min == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-12)
        assert rep.eta_min == pytest.approx(0.8284271247461902, abs=1e-15)

    def test_threshold_decreases_with_blocks(self):
        # ideal bounds: r = 2**-N, so larger N tolerates worse detectors
        thresholds = [bounds_report(n, 0.0, 1.0).eta_min for n in range(1, 9)]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds == [2.0 / (2**n + 1) for n in range(1, 9)]

    def test_equal_bounds_need_a_perfect_detector(self):
        # N = 1, eps = 1/2, p = 1: beta_epr' = beta_qm' = 4
        rep = bounds_report(1, 0.5, 1.0)
        assert rep.ratio == 1.0
        assert rep.eta_min == 1.0
        assert not rep.violated(1.0)


# ═══════════════════════════════════════════════════════════════════════════
# Reports and the minimum block count
# ═══════════════════════════════════════════════════════════════════════════


class TestBoundsReport:
    def test_fields(self):
        rep = bounds_report(6, 0.15, 0.98)
        assert rep == BoundsReport(
            n_blocks=6,
            beta_epr=64,
            beta_qm=4096,
            beta_epr_noisy=pytest.approx(678.4),
            beta_qm_noisy=pytest.approx(4014.1),
            ratio=pytest.approx(678.4 / 4014.1),
            eta_min=pytest.approx(2.0 * (678.4 / 4014.1) / (1.0 + 678.4 / 4014.1)),
        )

    def test_ideal_ratio_is_exact_power_of_two(self):
        for n in range(1, 9):
            rep = bounds_report(n, 0.0, 1.0)
            assert rep.beta_qm == rep.beta_epr * 2**n
            assert rep.ratio == 2.0**-n

    def test_eta_min_above_one_flags_infeasible(self):
        rep = bounds_report(1, 0.9, 0.5)
        assert rep.eta_min > 1.0

    def test_block_count_must_be_an_integer(self):
        # 2**2.5 and 4**2.5 are not bounds of any scenario
        for call in (bounds_report, noisy_bounds):
            with pytest.raises(TypeError):
                call(2.5, 0.1, 0.9)
        assert bounds_report(np.int64(3), 0.1, 0.9) == bounds_report(3, 0.1, 0.9)


class TestViolates:
    def test_reference_crossing(self):
        assert not bounds_report(4, 0.15, 0.98).violated(0.33)
        assert bounds_report(5, 0.15, 0.98).violated(0.33)
        assert bounds_report(6, 0.15, 0.98).violated(0.33)

    def test_perfect_everything(self):
        assert bounds_report(1, 0.0, 1.0).violated(1.0)

    def test_report_predicate_is_the_strict_crossing(self):
        for n in range(1, 9):
            for eta in (0.2, 0.33, 0.5, 1.0):
                rep = bounds_report(n, 0.15, 0.98)
                want = visibility_factor(eta) * rep.beta_qm_noisy > rep.beta_epr_noisy
                assert rep.violated(eta) is want


class TestMinBlocks:
    def test_reference_parameters(self):
        res = min_blocks(eta=0.33, eps=0.15, p=0.98)
        assert res.n_star == 5
        assert res.visibility == pytest.approx(0.33 / 1.67)
        # table covers N = 1 .. n_star + 2 in order
        assert [r.n_blocks for r in res.table] == [1, 2, 3, 4, 5, 6, 7]
        below = [r for r in res.table if r.n_blocks < res.n_star]
        assert all(res.visibility * r.beta_qm_noisy <= r.beta_epr_noisy for r in below)
        star = res.table[res.n_star - 1]
        assert res.visibility * star.beta_qm_noisy > star.beta_epr_noisy

    def test_each_report_is_built_once(self, monkeypatch):
        built = []

        def counted(n, eps, p):
            built.append(n)
            return bounds_report(n, eps, p)

        monkeypatch.setattr(efficiency, "bounds_report", counted)
        res = min_blocks(eta=0.33, eps=0.15, p=0.98)
        assert built == [1, 2, 3, 4, 5, 6, 7]
        assert res.table == tuple(bounds_report(n, 0.15, 0.98) for n in built)

    def test_first_crossing_is_minimal(self):
        res = min_blocks(eta=0.5, eps=0.05, p=0.95)
        assert bounds_report(res.n_star, 0.05, 0.95).violated(0.5)
        assert all(not bounds_report(n, 0.05, 0.95).violated(0.5) for n in range(1, res.n_star))

    def test_asymptotically_impossible(self):
        # eps/p at or above the visibility factor: no N can help
        with pytest.raises(NoViolationError, match="no block count"):
            min_blocks(eta=0.2, eps=0.15, p=0.98)

    def test_cap_exhausted(self):
        # feasible in the limit but not within the cap
        with pytest.raises(NoViolationError, match="up to 2"):
            min_blocks(eta=0.33, eps=0.15, p=0.98, n_cap=2)

    def test_table_clipped_at_the_float_cap(self):
        # N* = 510: the table ends at 511, where 4.0**N is still finite
        res = min_blocks(eta=1.1e-153, eps=0.0, p=1.0, n_cap=FLOAT_BLOCK_CAP)
        assert res.n_star == 510
        assert [r.n_blocks for r in res.table] == list(range(1, FLOAT_BLOCK_CAP + 1))

    @pytest.mark.parametrize(
        "n_cap, error, message",
        [
            # ids name the rule each case breaks; the message is the one range check's
            pytest.param(0, ValueError, "n_cap must be in [1, 511], got 0", id="0-ValueError-n_cap must be at least 1, got 0"),
            pytest.param(
                -3, ValueError, "n_cap must be in [1, 511], got -3", id="-3-ValueError-n_cap must be at least 1, got -3"
            ),
            (True, TypeError, "n_cap must be an integer, got True"),
            (2.0, TypeError, "n_cap must be an integer, got 2.0"),
            ("8", TypeError, "n_cap must be an integer, got '8'"),
        ],
    )
    def test_cap_is_an_argument_error(self, n_cap, error, message):
        # these once raised NoViolationError, a claim about the physics
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            min_blocks(0.33, 0.15, 0.98, n_cap=n_cap)
        assert not isinstance(caught.value, NoViolationError)

    def test_cap_takes_any_integer(self):
        assert min_blocks(0.33, 0.15, 0.98, n_cap=np.int64(5)) == min_blocks(0.33, 0.15, 0.98, n_cap=5)
        # the reference point's N* = 5 is found at a cap of 5, and not below it
        assert min_blocks(0.33, 0.15, 0.98, n_cap=5).n_star == 5
        with pytest.raises(NoViolationError, match="^no violation found for N up to 4$"):
            min_blocks(0.33, 0.15, 0.98, n_cap=4)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^n_cap must be in \[1, 511\], got 512$"):
            min_blocks(eta=0.5, eps=0.1, p=0.9, n_cap=FLOAT_BLOCK_CAP + 1)
        with pytest.raises(ValueError, match="eta"):
            min_blocks(eta=0.0, eps=0.1, p=0.9)
        # min_blocks divides by p; its range is the one check's (0, 1]
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got 0.0$"):
            min_blocks(eta=0.5, eps=0.1, p=0.0)
        with pytest.raises(ValueError, match="eps"):
            min_blocks(eta=0.5, eps=1.2, p=0.9)


# ═══════════════════════════════════════════════════════════════════════════
# The simulator's mean
# ═══════════════════════════════════════════════════════════════════════════


class TestExpectedEstimate:
    def test_reference_values(self):
        assert expected_estimate(5, NoiseParams()) == pytest.approx(155.47, abs=0.005)
        assert expected_estimate(3, NoiseParams()) == pytest.approx(10.1175, abs=5e-5)
        perfect_detectors = NoiseParams(epsilon=0.0, p=0.9, eta=1.0)
        assert expected_estimate(5, perfect_detectors) == pytest.approx(604.66176, rel=1e-12)

    def test_ideal_is_the_quantum_value(self):
        ideal = NoiseParams(epsilon=0.0, p=1.0, eta=1.0)
        for n in (1, 4, 9):
            assert expected_estimate(n, ideal) == 4.0**n

    def test_factors(self):
        # one visibility factor, one flip factor, one p per block
        noise = NoiseParams(epsilon=0.2, p=0.7, eta=0.5)
        want = visibility_factor(0.5) * 0.8 * 4.0**3 * 0.7**3
        assert expected_estimate(3, noise) == pytest.approx(want, rel=1e-14)

    def test_reference_point_never_violates(self):
        # under the simulator's model v (1-eps) p**N falls with N and never
        # beats 2**-N + eps: the gap to min-n's N* = 5 (README)
        noise = NoiseParams()
        for n in range(1, 40):
            beta_epr = noisy_bounds(n, noise.epsilon, noise.p)[0]
            assert expected_estimate(n, noise) < beta_epr

    def test_validation(self):
        with pytest.raises(ValueError, match="n_blocks"):
            expected_estimate(0, NoiseParams())
        with pytest.raises(ValueError, match="n_blocks"):
            expected_estimate(FLOAT_BLOCK_CAP + 1, NoiseParams())
        with pytest.raises(TypeError):
            expected_estimate(2.5, NoiseParams())
