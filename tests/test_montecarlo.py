"""Tests for the finite-statistics detector simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbell.bell import BLOCK_TERM_MENU, enumerate_terms, term_at
from hyperbell.efficiency import NoiseParams, expected_estimate, noisy_bounds, visibility_factor
from hyperbell.montecarlo import (
    ESTIMATE_BLOCK_CAP,
    SAMPLE_CHUNK,
    CountsTable,
    UndefinedEstimateError,
    _ODD,
    _Reader,
    _sample_chunk,
    _sample_indices,
    _tally_chunk,
    _term_states,
    _uniform_below,
    estimate_beta,
    estimate_term,
)
from hyperbell.state import _expect_xz, _xz_arrays, block_operator, build_state

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
# The parity table
# ═══════════════════════════════════════════════════════════════════════════


def test_parity_table_is_the_block_states_and_the_nibbles():
    # against sources that share no code with the table: the block state's
    # exact expectation of each unsigned menu operator, and Python-int bit
    # counts of the nibble's top k bits
    state = build_state(1)
    ops = [block_operator(+1, menu.observables, 1, 1) for menu in BLOCK_TERM_MENU]
    values = _expect_xz(state, *_xz_arrays(ops, state.n)).tolist()
    assert _ODD.shape == (128,)
    for choice, (menu, value) in enumerate(zip(BLOCK_TERM_MENU, values)):
        # an ideal block's product is certain, so every nibble gives the same bit
        assert value in (-1, 1)
        assert _ODD[64 + 16 * choice : 64 + 16 * (choice + 1)].tolist() == [value == -1] * 16
        # a noisy one over 2**k outcomes takes the nibble's top k bits, each
        # outcome from 16 / 2**k nibbles, and adds their parity
        k = len(menu.observables)
        assert k <= 4
        tops = [j >> (4 - k) for j in range(16)]
        assert sorted(tops) == [t for t in range(1 << k) for _ in range(16 >> k)]
        want = [bin(t).count("1") % 2 == 1 for t in tops]
        assert _ODD[16 * choice : 16 * (choice + 1)].tolist() == want


# ═══════════════════════════════════════════════════════════════════════════
# Sampling
# ═══════════════════════════════════════════════════════════════════════════


def _coincidences(term, noise: NoiseParams, seed: int, shots: int) -> list[np.ndarray]:
    """One term's coincident shots, and whether A * B is -1 at each, straight
    from the chunk sampler (one slice: ``shots`` <= SAMPLE_CHUNK)."""
    ((_, hits, odd),) = _sample_chunk(
        [term.index], np.array([term.choices]), noise, seed, shots, _Reader()
    )
    return [hits, odd]


class TestSampling:
    def test_ideal_runs_are_certain(self):
        for n in (1, 2):
            for term in enumerate_terms(n):
                est = estimate_term(term, IDEAL, 64, seed=3)
                # every run a coincidence whose product is the term's sign
                assert est.counts.n_pp + est.counts.n_mm == 64
                assert est.sign * est.correlation == 1.0

    def test_coincidences_do_not_depend_on_the_outcome_model(self):
        # the detector words come first, so at one seed and eta the same shots
        # coincide whatever eps and p are; with noise and flips the parities
        # vary from shot to shot, without them each is the term's sign
        term = term_at(2, 9)
        hits, odd = _coincidences(term, NoiseParams(epsilon=0.3, p=0.5, eta=0.3), 42, 500)
        same, clean = _coincidences(term, NoiseParams(epsilon=0.0, p=1.0, eta=0.3), 42, 500)
        assert 0 < len(hits) < 500
        assert (hits == same).all()
        assert 0 < odd.sum() < len(odd)
        assert (clean == (term.sign < 0)).all()

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
    """Values recorded from the detector-first stream layout, once the
    sampler matched the reference loop on every count.

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
            "beta_hat": 2.5506936655438173,
            "stderr": 0.07020867171420257,
            "counts_summary": {
                "n_total": 16000,
                "n_pp": 1015,
                "n_mm": 698,
                "n_single_1": 3538,
                "n_single_2": 3545,
                "n_00": 7204,
            },
        }

    @pytest.mark.parametrize(
        "args, kwargs, beta_hex, stderr_hex, counts",
        [
            # 1024 terms, 333 shots: chunks of 24 terms, the last one short
            pytest.param(
                (5, 333),
                {"seed": 11},
                "0x1.38d73ad1d85b9p+7",
                "0x1.f97888e6b8f5cp-1",
                CountsTable(340992, 19201, 18197, 75176, 75594, 152824),
                id="n5-333-shots",
            ),
            pytest.param(
                (7, 20),
                {"seed": 5, "term_budget": 64},
                "0x1.f060cbde32404p+10",
                "0x1.543f5cee12f3fp+8",
                CountsTable(1280, 60, 65, 299, 304, 552),
                id="n7-subsampled",
            ),
            # the benchmark's shapes: 4096 terms in chunks of 40 terms ...
            pytest.param(
                (6, 200),
                {"seed": 4242},
                "0x1.30060d9a940f8p+9",
                "0x1.4600ebc7c1094p+1",
                CountsTable(819200, 45099, 44156, 181291, 181328, 367326),
                id="n6-200-shots",
            ),
            # ... and terms in three slices, whose records follow one another
            pytest.param(
                (3, 2 * SAMPLE_CHUNK + 5),
                {"seed": 4242},
                "0x1.42e4f87db1127p+3",
                "0x1.1dce47038b34cp-5",
                CountsTable(1048896, 62475, 51161, 231762, 232551, 470947),
                id="n3-three-slices",
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
    """One term, shot by shot, from numpy's own words of the term's stream.

    The stream holds the detectors first, two words a shot, then a record of
    N + 1 words for each coincidence in shot order: one per block, then the
    flip.  A word's uniform is numpy's (w >> 11) * 2**-53.  An ideal block
    adds the parity of its menu sign, which every outcome the block state
    allows shares; a noisy one over 2**k outcomes adds the parity of outcome
    (w & 15) >> (4 - k), whose set bits are its -1 signs.
    """
    stream = _numpy_stream(seed, term.index)
    detectors = stream.random_raw(2 * shots).tolist()
    menus = [BLOCK_TERM_MENU[choice] for choice in term.choices]
    counts = [0] * 5  # n_pp, n_mm, n_single_1, n_single_2, n_00
    for j in range(shots):
        fired = [(w >> 11) * 2.0**-53 < noise.eta for w in detectors[2 * j : 2 * j + 2]]
        if fired == [True, True]:
            *blocks, flip = stream.random_raw(len(menus) + 1).tolist()
            odd = (flip >> 11) * 2.0**-53 < noise.epsilon / 2.0
            for menu, w in zip(menus, blocks):
                if (w >> 11) * 2.0**-53 < noise.p:
                    odd ^= menu.sign < 0
                else:
                    outcome = (w & 15) >> (4 - len(menu.observables))
                    odd ^= bin(outcome).count("1") % 2 == 1
            counts[odd] += 1
        else:
            counts[{(True, False): 2, (False, True): 3, (False, False): 4}[tuple(fired)]] += 1
    return CountsTable(shots, *counts)


def _term_counts(term, noise: NoiseParams, shots: int, seed: int) -> CountsTable:
    """One term's counts through the chunk tally, which, unlike ``estimate_term``,
    also holds for a term with no detection."""
    (tally,) = _tally_chunk([term.index], np.array([term.choices]), noise, seed, shots, _Reader())
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
    # thresholds of 2**64 (eta = 1, p = 1) and of 0 (p = 0), and the widest flip
    @example(n=2, shots=33, seed=7, eps=0.0, p=1.0, eta=1.0)
    @example(n=3, shots=5, seed=1, eps=1.0, p=0.0, eta=1.0)
    @example(n=1, shots=300, seed=2**32 - 1, eps=1.0, p=1.0, eta=0.5)
    @example(n=2, shots=1, seed=0, eps=0.5, p=0.0, eta=0.05)
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


class TestChunkRows:
    """Every row of a many-term chunk against the loop, term by term: summed
    counts, or one-term chunks, would not see a coincidence tallied on the
    wrong row."""

    NOISE = NoiseParams(epsilon=0.2, p=0.5, eta=0.6)

    @pytest.mark.parametrize(
        "n, shots, indices",
        [
            (4, 333, range(5, 256, 10)),
            (5, 333, range(7, 1024, 41)),
            (4, 1, range(256)),
            (5, 1, range(1024)),
            (7, 333, _sample_indices(4**7, 24, seed=12)),
        ],
    )
    def test_each_row_is_its_term(self, n, shots, indices):
        terms = [term_at(n, t) for t in indices]
        assert len(terms) >= 24
        chunk = np.array(indices, dtype=np.int64)
        choices = np.array([term.choices for term in terms])
        tally = _tally_chunk(chunk, choices, self.NOISE, 21, shots, _Reader())
        for term, row in zip(terms, tally, strict=True):
            want = _reference_counts(term, self.NOISE, shots, 21)
            assert CountsTable(shots, *row.tolist()) == want, term.index


class TestRawStreamEdges:
    """Terms drawn in slices, against the loop."""

    NOISE = NoiseParams(epsilon=0.2, p=0.5, eta=0.6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_terms_longer_than_a_slice(self, n):
        # each slice reads its records after those of the slices before
        for shots in (2 * SAMPLE_CHUNK + 5, 3 * SAMPLE_CHUNK + 1):
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
        # one reader for both: its PCG64 state is set before every read, and
        # each slice is decoded before the other chunk refills the buffer
        reader = _Reader()
        first, second = (
            _sample_chunk([t], np.array([term_at(1, t).choices]), self.NOISE, 4, shots, reader)
            for t in (2, 3)
        )
        tallies = {2: 0, 3: 0}
        for (tally2, _, _), (tally3, _, _) in zip(first, second):
            tallies[2] += tally2
            tallies[3] += tally3
        for t, (tally,) in tallies.items():
            assert CountsTable(shots, *tally.tolist()) == want[t]

    def test_untiled_counts_name_the_term_and_seed(self, monkeypatch):
        import hyperbell.montecarlo as mc

        def miscount(*args):
            for tally, hits, odd in _sample_chunk(*args):
                tally[3, 4] += 1
                yield tally, hits, odd

        monkeypatch.setattr(mc, "_sample_chunk", miscount)
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
