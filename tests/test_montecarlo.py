"""Tests for the finite-statistics detector simulation."""

from __future__ import annotations

import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell.bell import BLOCK_TERM_MENU, enumerate_terms, term_at
from hyperbell.efficiency import NoiseParams, expected_estimate, noisy_bounds, visibility_factor
from hyperbell.montecarlo import (
    ESTIMATE_BLOCK_CAP,
    SAMPLE_CHUNK,
    CountsTable,
    UndefinedEstimateError,
    _outcome_table,
    _sample_chunk,
    _sample_indices,
    _tally,
    _tally_chunk,
    _term_states,
    _uniform_below,
    estimate_beta,
    estimate_term,
)

IDEAL = NoiseParams(epsilon=0.0, p=1.0, eta=1.0)


# ═══════════════════════════════════════════════════════════════════════════
# Bookkeeping containers
# ═══════════════════════════════════════════════════════════════════════════


class TestCountsTable:
    def test_categories_tile_runs(self):
        t = CountsTable(10, 3, 2, 1, 1, 3)
        assert t.n_total == 10
        with pytest.raises(ValueError, match="tile"):
            CountsTable(10, 3, 2, 1, 1, 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CountsTable(0, -1, 1, 0, 0, 0)

    def test_as_dict_order(self):
        keys = list(CountsTable(1, 1, 0, 0, 0, 0).as_dict())
        assert keys == ["n_total", "n_pp", "n_mm", "n_single_1", "n_single_2", "n_00"]


def _summed(tables: list[CountsTable]) -> CountsTable:
    """The tables' counts added field by field."""
    return CountsTable(*(sum(field) for field in zip(*(t.as_dict().values() for t in tables))))


# ═══════════════════════════════════════════════════════════════════════════
# Exact per-choice outcome tables
# ═══════════════════════════════════════════════════════════════════════════


def _choice_rows(choice: int) -> SimpleNamespace:
    """One choice's rows of the flat outcome table, with its cdf built as ``Generator.choice`` does."""
    table = _outcome_table()
    n = int(table.n_outcomes[choice])
    rows = slice(16 * choice, 16 * choice + n)
    probs = table.probs[rows]
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return SimpleNamespace(
        n_outcomes=n, probs=probs, cdf=cdf, prod1=table.prod1[rows], prod2=table.prod2[rows]
    )


class TestChoiceTables:
    def test_uniform_on_constraint_surface(self):
        # the joint distribution is uniform over the outcomes satisfying the
        # block's certainty relation and zero elsewhere
        for choice, menu in enumerate(BLOCK_TERM_MENU):
            table = _choice_rows(choice)
            assert table.n_outcomes == 1 << len(menu.observables)
            support = table.probs > 0
            assert support.sum() == table.n_outcomes // 2
            np.testing.assert_allclose(table.probs[support], 2.0 / table.n_outcomes)
            # on the support the local products multiply to the raw
            # expectation of the term, which equals its menu sign
            prod = table.prod1[support] * table.prod2[support]
            assert (prod == menu.sign).all()

    def test_local_marginals_are_unbiased(self):
        for choice in range(4):
            table = _choice_rows(choice)
            assert float(table.probs @ table.prod1) == pytest.approx(0.0, abs=1e-12)
            assert float(table.probs @ table.prod2) == pytest.approx(0.0, abs=1e-12)
            got = float(table.probs @ (table.prod1 * table.prod2))
            assert got == pytest.approx(BLOCK_TERM_MENU[choice].sign, abs=1e-12)

    def test_padding_cells_are_never_drawn(self):
        table = _outcome_table()
        for choice, n in enumerate(table.n_outcomes.tolist()):
            pad = slice(16 * choice + n, 16 * (choice + 1))
            assert (table.probs[pad] == 0).all()
            assert (table.prod1[pad] == 1).all() and (table.prod2[pad] == 1).all()
            assert (table.drawn[16 * choice : 16 * (choice + 1)] < n).all()

    def test_outcome_counts_are_powers_of_two(self):
        # the raw decoder's noise draw x >> (32 - k) is numpy's bounded draw
        # only where the range is a power of two
        table = _outcome_table()
        for n, shift in zip(table.n_outcomes.tolist(), table.noise_shift.tolist()):
            assert n & (n - 1) == 0 and 2 <= n <= 16
            assert n << shift == 2**32

    def test_noise_draw_is_numpys_bounded_draw(self):
        table = _outcome_table()
        for n, shift in zip(table.n_outcomes.tolist(), table.noise_shift.tolist()):
            want = np.random.default_rng(5).integers(0, n, size=9)
            words = np.random.default_rng(5).bit_generator.random_raw(5).astype("<u8")
            assert ((words.view("<u4")[:9] >> shift) == want).all()

    def test_built_once_on_first_use(self):
        code = (
            "import hyperbell.montecarlo as mc; "
            "assert mc._outcome_table.cache_info().currsize == 0; "
            "mc._outcome_table(); mc._outcome_table(); "
            "info = mc._outcome_table.cache_info(); "
            "assert (info.misses, info.hits) == (1, 1), info"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


# ═══════════════════════════════════════════════════════════════════════════
# Sampling
# ═══════════════════════════════════════════════════════════════════════════


def _runs(term, noise: NoiseParams, seed: int, shots: int) -> list[np.ndarray]:
    """One term's local products A, B and detection flags, straight from the chunk sampler."""
    slices = _sample_chunk(
        [term.index], np.array([term.choices]), noise, seed, shots, np.random.PCG64(0)
    )
    return [np.concatenate(runs, axis=1)[0] for runs in zip(*slices)]


class TestSampling:
    def test_ideal_runs_are_certain(self):
        for n in (1, 2):
            for term in enumerate_terms(n):
                est = estimate_term(term, IDEAL, 64, seed=3)
                # every run a coincidence whose product is the term's sign
                assert est.counts.n_pp + est.counts.n_mm == 64
                assert est.sign * est.correlation == 1.0

    def test_draw_order_is_parameter_independent(self):
        # the same seed yields the same local products whatever eta is,
        # because detector draws come after the outcome draws
        term = term_at(2, 9)
        noisy = NoiseParams(epsilon=0.0, p=1.0, eta=0.3)
        a1, b1, _, _ = _runs(term, IDEAL, 42, 500)
        a2, b2, _, _ = _runs(term, noisy, 42, 500)
        assert (a1 == a2).all() and (b1 == b2).all()

    def test_flip_rate_shows_in_the_product(self):
        # at eta = 1 every run is a coincidence, so the correlation is mean(A B)
        noise = NoiseParams(epsilon=0.3, p=1.0, eta=1.0)
        est = estimate_term(term_at(1, 0), noise, 100_000, seed=8)
        sigma = np.sqrt((1.0 - 0.7**2) / 100_000)
        assert abs(est.correlation - 0.7) < 5 * sigma

    def test_shots_validated(self):
        with pytest.raises(ValueError, match="shots"):
            estimate_term(term_at(1, 0), IDEAL, 0, seed=0)


# ═══════════════════════════════════════════════════════════════════════════
# The singles-in-denominator estimator
# ═══════════════════════════════════════════════════════════════════════════


class TestEstimator:
    def test_detection_categories_at_half_efficiency(self):
        noise = NoiseParams(epsilon=0.0, p=1.0, eta=0.5)
        counts = estimate_term(term_at(1, 0), noise, 200_000, seed=31).counts
        # independent coin per side: quarters for both/neither, each single
        for part in (counts.n_00, counts.n_single_1, counts.n_single_2):
            assert part / counts.n_total == pytest.approx(0.25, abs=0.01)

    def test_correlations_rescale_by_the_visibility_factor(self):
        # E[estimate] = eta/(2-eta) for a perfectly correlated term
        term = term_at(1, 0)
        for k, eta in enumerate((0.33, 0.5, 0.8, 1.0)):
            noise = NoiseParams(epsilon=0.0, p=1.0, eta=eta)
            est = estimate_term(term, noise, 100_000, seed=100 + k)
            want = visibility_factor(eta)
            slack = max(5 * est.stderr, 1e-12)
            assert abs(est.correlation - want) < slack

    def test_ideal_estimate_has_zero_stderr(self):
        est = estimate_term(term_at(1, 1), IDEAL, 1000, seed=0)
        assert est.correlation == -1.0  # raw correlation; the sign is separate
        assert est.sign == -1
        assert est.sign * est.correlation == 1.0
        assert est.stderr == 0.0

    def test_stderr_scales_inversely_with_shots(self):
        noise = NoiseParams(epsilon=0.15, p=1.0, eta=1.0)
        term = term_at(1, 0)
        small = estimate_term(term, noise, 1000, seed=5)
        big = estimate_term(term, noise, 16_000, seed=6)
        assert small.stderr / big.stderr == pytest.approx(4.0, rel=0.2)


# ═══════════════════════════════════════════════════════════════════════════
# Whole-expression estimates
# ═══════════════════════════════════════════════════════════════════════════


class TestEstimateBeta:
    def test_ideal_is_exact(self):
        est = estimate_beta(1, shots_per_term=200, noise=IDEAL, seed=7)
        assert est.beta_hat == 4.0
        assert est.stderr == 0.0
        assert est.exhaustive
        assert est.terms_sampled == est.total_terms == 4
        assert est.counts_summary.n_total == 800
        assert est.counts_summary.n_00 == 0

    def test_noisy_mean_matches_model(self):
        # E[beta_hat] = 4 * (1 - eps) * p at full detection efficiency
        noise = NoiseParams(epsilon=0.15, p=0.98, eta=1.0)
        est = estimate_beta(1, shots_per_term=100_000, noise=noise, seed=21)
        assert abs(est.beta_hat - 4 * 0.85 * 0.98) < 5 * est.stderr

    def test_seed_reproducibility(self):
        noise = NoiseParams(epsilon=0.1, p=0.95, eta=0.6)
        a = estimate_beta(2, 500, noise, seed=13)
        b = estimate_beta(2, 500, noise, seed=13)
        c = estimate_beta(2, 500, noise, seed=14)
        assert a.beta_hat == b.beta_hat
        assert a.stderr == b.stderr
        assert a.counts_summary == b.counts_summary
        assert c.beta_hat != a.beta_hat

    def test_matches_per_term_streams_in_reverse_order(self):
        # each term draws from its own stream keyed by index, so measuring
        # the terms in reverse order gives the same estimate
        noise = NoiseParams(epsilon=0.1, p=0.95, eta=0.6)
        est = estimate_beta(2, 400, noise, seed=3)
        terms = [estimate_term(term_at(2, t), noise, 400, seed=3) for t in reversed(range(16))]
        assert est.counts_summary == _summed([t.counts for t in terms])
        # float sums in another order may differ in the last bits
        assert est.beta_hat == pytest.approx(sum(t.sign * t.correlation for t in terms), rel=1e-12)
        assert est.stderr == pytest.approx(sum(t.stderr**2 for t in terms) ** 0.5, rel=1e-12)
        # a subsample's terms are drawn from the same per-term streams
        sub = estimate_beta(7, 400, noise, seed=3, term_budget=64)
        picked = _sample_indices(4**7, 64, seed=3)
        terms = [estimate_term(term_at(7, t), noise, 400, seed=3) for t in reversed(picked)]
        assert not sub.exhaustive
        assert sub.counts_summary == _summed([t.counts for t in terms])
        scaled = 4**7 / 64 * sum(t.sign * t.correlation for t in terms)
        assert sub.beta_hat == pytest.approx(scaled, rel=1e-12)

    def test_subsampled_terms(self):
        noise = NoiseParams(epsilon=0.05, p=0.99, eta=1.0)
        est = estimate_beta(7, 50, noise, seed=99, term_budget=64)
        again = estimate_beta(7, 50, noise, seed=99, term_budget=64)
        assert not est.exhaustive
        assert est.terms_sampled == 64
        assert est.total_terms == 4**7
        assert est.beta_hat == again.beta_hat
        assert est.stderr > 0
        # the scaled-up estimate tracks 4**7 * (1-eps) * p
        assert abs(est.beta_hat - 4**7 * 0.95 * 0.99) < 5 * est.stderr
        # and, closer, the simulator's own mean 4**7 * (1-eps) * p**7
        assert abs(est.beta_hat - expected_estimate(7, noise)) < 3 * est.stderr

    @pytest.mark.parametrize(
        "n, noise",
        [
            (3, NoiseParams(epsilon=0.15, p=0.98, eta=0.33)),
            (2, NoiseParams(epsilon=0.0, p=0.9, eta=1.0)),
            (3, NoiseParams(epsilon=0.0, p=0.8, eta=0.6)),
        ],
    )
    def test_mean_is_the_closed_form(self, n, noise):
        est = estimate_beta(n, 20_000, noise, seed=17)
        assert abs(est.beta_hat - expected_estimate(n, noise)) < 4 * est.stderr
        # enough shots to tell it from the analytic side's v * beta_qm'
        analytic = visibility_factor(noise.eta) * noisy_bounds(n, noise.epsilon, noise.p)[1]
        assert abs(est.beta_hat - analytic) > 20 * est.stderr

    def test_json_dict_schema(self):
        est = estimate_beta(1, 10, IDEAL, seed=0)
        d = est.to_json_dict()
        assert list(d) == [
            "schema_version",
            "n",
            "shots_per_term",
            "terms_sampled",
            "total_terms",
            "exhaustive",
            "eta",
            "eps",
            "p",
            "seed",
            "beta_hat",
            "stderr",
            "counts_summary",
        ]
        assert d["schema_version"] == 1
        assert d["n"] == 1
        assert d["exhaustive"] is True
        assert d["counts_summary"]["n_total"] == 40

    def test_validation(self):
        with pytest.raises(ValueError, match="n_blocks"):
            estimate_beta(0, 10, IDEAL, seed=0)
        with pytest.raises(ValueError, match=r"^n_blocks must be in \[1, 255\], got 256$"):
            estimate_beta(ESTIMATE_BLOCK_CAP + 1, 1, IDEAL, seed=0, term_budget=2)
        with pytest.raises(ValueError, match="term_budget"):
            estimate_beta(1, 10, IDEAL, seed=0, term_budget=0)
        for shots in (0, -3):
            with pytest.raises(ValueError, match=rf"^shots_per_term must be >= 1, got {shots}$"):
                estimate_beta(1, shots, IDEAL, seed=0)


# ═══════════════════════════════════════════════════════════════════════════
# Draw-order contract: the chunked sampler against recorded and loop references
# ═══════════════════════════════════════════════════════════════════════════

REF_NOISE = NoiseParams(epsilon=0.15, p=0.98, eta=0.33)


class TestGoldenStreams:
    """Values recorded from the one-term-at-a-time sampler the chunked one replaced.

    Repeat-determinism alone would not notice a changed draw order; these do.
    """

    def test_exhaustive_json_document(self):
        assert estimate_beta(2, 1000, REF_NOISE, seed=7).to_json_dict() == {
            "schema_version": 1,
            "n": 2,
            "shots_per_term": 1000,
            "terms_sampled": 16,
            "total_terms": 16,
            "exhaustive": True,
            "eta": 0.33,
            "eps": 0.15,
            "p": 0.98,
            "seed": 7,
            "beta_hat": 2.691504898719334,
            "stderr": 0.07194329824038306,
            "counts_summary": {
                "n_total": 16000,
                "n_pp": 1103,
                "n_mm": 712,
                "n_single_1": 3499,
                "n_single_2": 3481,
                "n_00": 7205,
            },
        }

    @pytest.mark.parametrize(
        "args, kwargs, beta_hex, stderr_hex, counts",
        [
            # 1024 terms, 333 shots: chunks of 24 terms, the last one short
            (
                (5, 333),
                {"seed": 11},
                "0x1.384aaa12ba2b2p+7",
                "0x1.f772263d87ac7p-1",
                CountsTable(340992, 18899, 18097, 75291, 75462, 153243),
            ),
            (
                (7, 20),
                {"seed": 5, "term_budget": 64},
                "0x1.cd8b8744172a3p+10",
                "0x1.3e2c60ab0654ep+8",
                CountsTable(1280, 51, 65, 315, 284, 565),
            ),
        ],
    )
    def test_bits(self, args, kwargs, beta_hex, stderr_hex, counts):
        assert SAMPLE_CHUNK % 333 and SAMPLE_CHUNK // 333 < 1024
        est = estimate_beta(*args, REF_NOISE, **kwargs)
        assert est.beta_hat.hex() == beta_hex
        assert est.stderr.hex() == stderr_hex
        assert est.counts_summary == counts


def _numpy_stream(seed: int, index: int) -> np.random.PCG64:
    """Term ``index``'s stream under master ``seed``, built by numpy itself."""
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1, index)))


def _reference_counts(term, noise: NoiseParams, shots: int, seed: int) -> CountsTable:
    """One term at a time, drawing the ideal outcome with ``Generator.choice``
    from numpy's calls on the term's stream."""
    rng = np.random.Generator(_numpy_stream(seed, term.index))
    a = np.ones(shots, dtype=np.int8)
    b = np.ones(shots, dtype=np.int8)
    for choice in term.choices:
        table = _choice_rows(choice)
        ideal = rng.random(shots) < noise.p
        ideal_idx = rng.choice(table.n_outcomes, size=shots, p=table.probs)
        noise_idx = rng.integers(0, table.n_outcomes, size=shots)
        idx = np.where(ideal, ideal_idx, noise_idx)
        a *= table.prod1[idx]
        b *= table.prod2[idx]
    flip = rng.random(shots) < noise.epsilon / 2.0
    b = np.where(flip, -b, b)
    det1 = rng.random(shots) < noise.eta
    det2 = rng.random(shots) < noise.eta
    both = det1 & det2
    return CountsTable(
        shots,
        int(np.count_nonzero(both & (a * b == 1))),
        int(np.count_nonzero(both & (a * b == -1))),
        int(np.count_nonzero(det1 & ~det2)),
        int(np.count_nonzero(det2 & ~det1)),
        int(np.count_nonzero(~det1 & ~det2)),
    )


def _term_counts(term, noise: NoiseParams, shots: int, seed: int) -> CountsTable:
    """One term's counts through the chunk tally, which, unlike ``estimate_term``,
    also holds for a term with no detection."""
    (tally,) = _tally_chunk(
        [term.index], np.array([term.choices]), noise, seed, shots, np.random.PCG64(0)
    )
    return CountsTable(shots, *tally.tolist())


class TestChunkedSampler:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        shots=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
        eta=st.floats(0.05, 1.0),
    )
    def test_counts_match_the_per_term_loop(self, n, shots, seed, eps, p, eta):
        noise = NoiseParams(epsilon=eps, p=p, eta=eta)
        reference = []
        for t in range(4**n):
            want = _reference_counts(term_at(n, t), noise, shots, seed)
            assert _term_counts(term_at(n, t), noise, shots, seed) == want
            reference.append(want)
        empty = [t for t, c in enumerate(reference) if c.n_00 == shots]
        if empty:
            with pytest.raises(UndefinedEstimateError, match=f"^term {empty[0]}: "):
                estimate_beta(n, shots, noise, seed)
        else:
            assert estimate_beta(n, shots, noise, seed).counts_summary == _summed(reference)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shots=st.integers(1, 1001))
    def test_ideal_draw_is_the_choice_draw(self, seed, shots):
        drawn = _outcome_table().drawn
        for choice in range(len(BLOCK_TERM_MENU)):
            table = _choice_rows(choice)
            want = np.random.default_rng(seed).choice(table.n_outcomes, size=shots, p=table.probs)
            u = np.random.default_rng(seed).random(shots)
            assert (table.cdf.searchsorted(u, side="right") == want).all()
            assert (drawn[16 * choice + (16 * u).astype(np.intp)] == want).all()


class TestRawStreamEdges:
    """Terms drawn in slices, against the loop."""

    NOISE = NoiseParams(epsilon=0.2, p=0.5, eta=0.6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_terms_longer_than_a_slice(self, n):
        shots = 3 * SAMPLE_CHUNK + 1
        for t in sorted({0, 4**n // 3, 4**n - 1}):
            want = _reference_counts(term_at(n, t), self.NOISE, shots, 8)
            assert _term_counts(term_at(n, t), self.NOISE, shots, 8) == want

    def test_long_terms_in_turn_and_interleaved(self):
        # every slice resets the chunk's one PCG64 to its term's state and
        # advances it; consecutive long terms, and two chunks sampled in
        # alternation, must each still read their own streams
        shots = SAMPLE_CHUNK + 5
        want = [_reference_counts(term_at(1, t), self.NOISE, shots, 4) for t in range(4)]
        est = estimate_beta(1, shots, self.NOISE, seed=4)
        assert est.counts_summary == _summed(want)
        # one carrier for both: its state is set before every read
        carrier = np.random.PCG64(0)
        first, second = (
            _sample_chunk([t], np.array([term_at(1, t).choices]), self.NOISE, 4, shots, carrier)
            for t in (2, 3)
        )
        tallies = {2: 0, 3: 0}
        for runs2, runs3 in zip(first, second):
            tallies[2] += _tally(*runs2)
            tallies[3] += _tally(*runs3)
        for t, (tally,) in tallies.items():
            assert CountsTable(shots, *tally.tolist()) == want[t]

    def test_untiled_counts_name_the_term_and_seed(self, monkeypatch):
        import hyperbell.montecarlo as mc

        def miscount(*runs):
            tally = _tally(*runs)
            tally[3, 4] += 1
            return tally

        monkeypatch.setattr(mc, "_tally", miscount)
        term = _sample_indices(4**7, 8, seed=9)[3]
        with pytest.raises(
            ValueError,
            match=rf"^counts do not tile the 50 runs of term {term} \(N = 7, seed 9, NoiseParams\(",
        ):
            estimate_beta(7, 50, IDEAL, seed=9, term_budget=8)


class TestTermStates:
    """The derived PCG64 states against numpy's own SeedSequence construction."""

    SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**130 + 5]
    EDGES = [0, 2**32 - 1, 2**32, 2**64, 2**70 + 9, 4**255 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, seed):
        indices = list(range(300)) + self.EDGES
        want = [_numpy_stream(seed, t).state for t in indices]
        assert _term_states(seed, indices) == want
        # estimate_beta hands them over as int64, or as Python ints in an
        # object array where int64 cannot hold them
        assert _term_states(seed, np.arange(300)) == want[:300]
        assert _term_states(seed, np.array(indices, dtype=object)) == want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**130),
        indices=st.lists(
            st.sampled_from([0, 2**32 - 1, 2**32, 4**255 - 1]) | st.integers(0, 4**255 - 1),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_numpy_anywhere(self, seed, indices):
        assert _term_states(seed, indices) == [_numpy_stream(seed, t).state for t in indices]

    def test_seed_is_checked_as_numpy_checks_it(self):
        assert _term_states(np.int64(12345), [3]) == [_numpy_stream(12345, 3).state]
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            estimate_beta(1, 10, IDEAL, seed=-1)
        with pytest.raises(TypeError):
            estimate_term(term_at(1, 0), IDEAL, 10, seed=1.5)


class TestTermSubsampling:
    def test_numpy_draw_kept_below_two_to_the_63(self):
        for bound in (1, 7, 4**31, 2**63):
            rng, again = np.random.default_rng(4), np.random.default_rng(4)
            assert [_uniform_below(rng, bound) for _ in range(5)] == [
                int(again.integers(0, bound)) for _ in range(5)
            ]

    def test_big_bounds_draw_in_range(self):
        rng = np.random.default_rng(6)
        for bound in (2**63 + 1, 3 * 2**63, 4**40):
            draws = [_uniform_below(rng, bound) for _ in range(200)]
            assert all(0 <= d < bound for d in draws)
            assert max(draws) > bound // 2  # the top bits are drawn too

    @pytest.mark.parametrize("n", [31, 32, 40])
    def test_distinct_indices_at_any_size(self, n):
        picked = _sample_indices(4**n, 8, seed=3)
        assert len(set(picked)) == 8
        assert picked == sorted(picked)
        assert all(isinstance(t, int) and 0 <= t < 4**n for t in picked)
