"""Tests for the finite-statistics detector simulation."""

from __future__ import annotations

import ctypes
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbell import montecarlo
from hyperbell.bell import BLOCK_TERM_MENU, enumerate_terms, term_at
from hyperbell.efficiency import NoiseParams, expected_estimate, noisy_bounds, visibility_factor
from hyperbell.montecarlo import (
    ESTIMATE_BLOCK_CAP,
    MAX_SHOTS,
    BetaEstimate,
    CountsTable,
    UndefinedEstimateError,
    _pvals,
    _sampler,
    _sample_indices,
    _term_states,
    _uniform_below,
    estimate_beta,
    estimate_term,
)
from hyperbell.state import _block_xz, _expect_xz, build_state

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
        keys = list(CountsTable(1, 1, 0, 0, 0, 0)._asdict())
        assert keys == ["n_total", "n_pp", "n_mm", "n_single_1", "n_single_2", "n_00"]


def _summed(tables: list[CountsTable]) -> CountsTable:
    """The tables' counts added field by field."""
    return CountsTable(*(sum(field) for field in zip(*(t._asdict().values() for t in tables))))


# ═══════════════════════════════════════════════════════════════════════════
# The per-shot model against the per-term law
# ═══════════════════════════════════════════════════════════════════════════


def _block_products() -> list[int]:
    """Each menu choice's product A * B in an ideal block: the block state's
    exact expectation of the unsigned menu operator, a certainty, +1 or -1."""
    state = build_state(1)
    values = _expect_xz(state, [_block_xz(letters, 1, 1) for _, letters in BLOCK_TERM_MENU])
    assert all(value in (-1, 1) for value in values)
    return values


def _law(term, noise: NoiseParams) -> list[float]:
    """The per-term multinomial's pvals in CountsTable order, written out:
    eta**2 (1 + c) / 2, eta**2 (1 - c) / 2, eta (1 - eta), (1 - eta) eta,
    (1 - eta)**2, with c = s (1 - eps) p**N."""
    eta = noise.eta
    c = term.sign * (1 - noise.epsilon) * noise.p**term.n_blocks
    both, neither = eta * eta, (1 - eta) ** 2
    return [both * (1 + c) / 2, both * (1 - c) / 2, eta * (1 - eta), (1 - eta) * eta, neither]


class TestPerShotModel:
    """Oracles that share no code with the sampler: the runs of the model,
    played block by block, against the one multinomial the sampler draws."""

    def test_odd_parity_given_a_coincidence(self):
        # exact, in fractions: each block ideal (the block state's product) or
        # noisy, then each of the 16 nibbles, whose top k bits are the outcome
        # and their parity its sign, and last the flip
        products = _block_products()
        for eps, p in [(F(3, 20), F(49, 50)), (F(0), F(1)), (F(1), F(0)), (F(1, 3), F(1, 2))]:
            for n in (1, 2, 3):
                for term in enumerate_terms(n):
                    odd = F(0)  # P(A * B = -1) over the blocks so far
                    for choice in term.choices:
                        k = len(BLOCK_TERM_MENU[choice][1])
                        nibbles = sum(F(bin(j >> (4 - k)).count("1") % 2, 16) for j in range(16))
                        here = p * (products[choice] == -1) + (1 - p) * nibbles
                        odd = odd * (1 - here) + (1 - odd) * here
                    odd = odd * (1 - eps / 2) + (1 - odd) * eps / 2
                    c = term.sign * (1 - eps) * p**n
                    assert odd == (1 - c) / 2, (n, term.index, eps, p)

    def test_per_shot_loop_matches_the_multinomial(self):
        # each row one seed's experiment of 60 shots, played shot by shot with
        # numpy Generator calls; the mean and variance of every count over the
        # rows must be the multinomial's within 4 standard errors
        products = _block_products()
        rng = np.random.default_rng(2024)
        seeds, shots = 1500, 60
        points = [
            (1, NoiseParams(epsilon=0.15, p=0.98, eta=0.33)),
            (2, NoiseParams(epsilon=0.0, p=0.9, eta=1.0)),
            (3, NoiseParams(epsilon=0.3, p=0.5, eta=0.6)),
        ]
        for n, noise in points:
            by_sign = {term.sign: term for term in enumerate_terms(n)}
            assert set(by_sign) == {-1, 1}
            for term in by_sign.values():
                fired = rng.random((2, seeds, shots)) < noise.eta
                odd = rng.random((seeds, shots)) < noise.epsilon / 2
                for choice in term.choices:
                    k = len(BLOCK_TERM_MENU[choice][1])
                    ideal = rng.random((seeds, shots)) < noise.p
                    noisy = np.bitwise_count(rng.integers(0, 2**k, (seeds, shots))) % 2 == 1
                    odd ^= np.where(ideal, products[choice] == -1, noisy)
                one, two = fired
                cells = [one & two & ~odd, one & two & odd, one & ~two, ~one & two, ~one & ~two]
                counts = np.array([cell.sum(axis=1) for cell in cells])
                pvals = np.array(_law(term, noise))
                mean, var = shots * pvals, shots * pvals * (1 - pvals)
                fourth = var * (1 + 3 * (shots - 2) * pvals * (1 - pvals))
                sd_mean = np.sqrt(var / seeds)
                sd_var = np.sqrt((fourth - var**2 * (seeds - 3) / (seeds - 1)) / seeds)
                where = (n, term.index, noise)
                assert (abs(counts.mean(axis=1) - mean) <= 4 * sd_mean).all(), where
                assert (abs(counts.var(axis=1, ddof=1) - var) <= 4 * sd_var).all(), where


# ═══════════════════════════════════════════════════════════════════════════
# Sampling
# ═══════════════════════════════════════════════════════════════════════════


class TestSampling:
    def test_ideal_runs_are_certain(self):
        for n in (1, 2):
            for term in enumerate_terms(n):
                est = estimate_term(term.n_blocks, term.index, IDEAL, 64, seed=3)
                # every run a coincidence whose product is the term's sign
                assert est.counts.n_pp + est.counts.n_mm == 64
                assert est.sign * est.correlation == 1.0

    def test_flip_rate_shows_in_the_product(self):
        # at eta = 1 every run is a coincidence, so the correlation is mean(A B)
        noise = NoiseParams(epsilon=0.3, p=1.0, eta=1.0)
        est = estimate_term(1, 0, noise, 100_000, seed=8)
        sigma = np.sqrt((1.0 - 0.7**2) / 100_000)
        assert abs(est.correlation - 0.7) < 5 * sigma

    def test_shots_validated(self):
        with pytest.raises(ValueError, match="shots"):
            estimate_term(1, 0, IDEAL, 0, seed=0)

    def test_term_is_named_by_block_count_and_index(self):
        for index in (-1, 16):
            with pytest.raises(ValueError, match=rf"^index must be in \[0, 15\], got {index}$"):
                estimate_term(2, index, IDEAL, 10, seed=0)
        for n_blocks, index, shots in ((2.5, 0, 10), (2, 1.0, 10), (2, 0, 2.5)):
            with pytest.raises(TypeError):
                estimate_term(n_blocks, index, IDEAL, shots, seed=0)
        want = estimate_term(2, 5, REF_NOISE, 30, seed=1)
        assert estimate_term(np.int64(2), np.int64(5), REF_NOISE, 30, seed=1) == want

    def test_shots_up_to_numpys_int64_count(self):
        # numpy's multinomial takes the count as an int64
        assert MAX_SHOTS == 2**63 - 1
        assert estimate_term(1, 0, IDEAL, MAX_SHOTS, seed=0).counts.n_pp == MAX_SHOTS
        above = rf"must be in \[1, {MAX_SHOTS}\], got {2**63}$"
        with pytest.raises(ValueError, match=f"^shots {above}"):
            estimate_term(1, 0, IDEAL, 2**63, seed=0)
        with pytest.raises(ValueError, match=f"^shots_per_term {above}"):
            estimate_beta(1, 2**63, IDEAL, seed=0)


# ═══════════════════════════════════════════════════════════════════════════
# The singles-in-denominator estimator
# ═══════════════════════════════════════════════════════════════════════════


class TestEstimator:
    def test_detection_categories_at_half_efficiency(self):
        noise = NoiseParams(epsilon=0.0, p=1.0, eta=0.5)
        counts = estimate_term(1, 0, noise, 200_000, seed=31).counts
        # independent coin per side: quarters for both/neither, each single
        for part in (counts.n_00, counts.n_single_1, counts.n_single_2):
            assert part / counts.n_total == pytest.approx(0.25, abs=0.01)

    def test_correlations_rescale_by_the_visibility_factor(self):
        # E[estimate] = eta/(2-eta) for a perfectly correlated term
        for k, eta in enumerate((0.33, 0.5, 0.8, 1.0)):
            noise = NoiseParams(epsilon=0.0, p=1.0, eta=eta)
            est = estimate_term(1, 0, noise, 100_000, seed=100 + k)
            want = visibility_factor(eta)
            slack = max(5 * est.stderr, 1e-12)
            assert abs(est.correlation - want) < slack

    def test_ideal_estimate_has_zero_stderr(self):
        est = estimate_term(1, 1, IDEAL, 1000, seed=0)
        assert est.correlation == -1.0  # raw correlation; the sign is separate
        assert est.sign == -1
        assert est.sign * est.correlation == 1.0
        assert est.stderr == 0.0

    def test_stderr_scales_inversely_with_shots(self):
        noise = NoiseParams(epsilon=0.15, p=1.0, eta=1.0)
        small = estimate_term(1, 0, noise, 1000, seed=5)
        big = estimate_term(1, 0, noise, 16_000, seed=6)
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
        terms = [estimate_term(2, t, noise, 400, seed=3) for t in reversed(range(16))]
        assert est.counts_summary == _summed([t.counts for t in terms])
        # float sums in another order may differ in the last bits
        assert est.beta_hat == pytest.approx(sum(t.sign * t.correlation for t in terms), rel=1e-12)
        assert est.stderr == pytest.approx(sum(t.stderr**2 for t in terms) ** 0.5, rel=1e-12)
        # a subsample's terms are drawn from the same per-term streams
        sub = estimate_beta(7, 400, noise, seed=3, term_budget=64)
        picked = _sample_indices(4**7, 64, seed=3)
        terms = [estimate_term(7, t, noise, 400, seed=3) for t in reversed(picked)]
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
        # the record keeps what the run measured; simulate's document, its key
        # order included, is pinned by the simulate entries of cli_golden.json
        est = estimate_beta(1, 10, IDEAL, seed=0)
        assert BetaEstimate._fields == (
            "terms_sampled",
            "total_terms",
            "exhaustive",
            "beta_hat",
            "stderr",
            "counts_summary",
        )
        assert (est.terms_sampled, est.total_terms, est.exhaustive) == (4, 4, True)
        assert est.counts_summary.n_total == 40

    def test_validation(self):
        with pytest.raises(ValueError, match="n_blocks"):
            estimate_beta(0, 10, IDEAL, seed=0)
        with pytest.raises(ValueError, match=r"^n_blocks must be in \[1, 255\], got 256$"):
            estimate_beta(ESTIMATE_BLOCK_CAP + 1, 1, IDEAL, seed=0, term_budget=2)
        with pytest.raises(ValueError, match="term_budget"):
            estimate_beta(1, 10, IDEAL, seed=0, term_budget=0)
        # more measured terms than MEASURED_TERM_CAP, subsampled or exhaustive
        for n, budget in ((20, 2 * 10**12), (13, 4**12 + 1), (13, 4**13)):
            m = min(4**n, budget)
            with pytest.raises(ValueError, match=rf"^at most 16777216 measured terms, got {m} "):
                estimate_beta(n, 1, IDEAL, seed=0, term_budget=budget)
        for shots in (0, -3):
            with pytest.raises(ValueError, match=rf"^shots_per_term must be in \[1, {MAX_SHOTS}\], got {shots}$"):
                estimate_beta(1, shots, IDEAL, seed=0)

    def test_counts_must_be_integers(self):
        # 2.5 shots used to draw 2 a term and then fail to tile 2.5 a term
        for args, kwargs in [((2.5, 10), {}), ((2, 2.5), {}), ((2, 10), {"term_budget": 2.5})]:
            with pytest.raises(TypeError):
                estimate_beta(*args, NoiseParams(eta=1.0), seed=0, **kwargs)
        want = estimate_beta(2, 10, REF_NOISE, seed=4, term_budget=8)
        assert estimate_beta(np.int64(2), np.int64(10), REF_NOISE, seed=4, term_budget=np.int64(8)) == want


# ═══════════════════════════════════════════════════════════════════════════
# Draw-order contract: the per-term draw against numpy's and recorded values
# ═══════════════════════════════════════════════════════════════════════════

REF_NOISE = NoiseParams(epsilon=0.15, p=0.98, eta=0.33)


def _numpy_stream(seed: int, index: int) -> np.random.PCG64:
    """Term ``index``'s stream under master ``seed``, built by numpy itself."""
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1, index)))


def _reference_counts(term, noise: NoiseParams, shots: int, seed: int) -> CountsTable:
    """One term's counts: numpy's multinomial at the written-out law, drawn
    from the term's stream as numpy itself seeds it."""
    draw = np.random.Generator(_numpy_stream(seed, term.index)).multinomial(shots, _law(term, noise))
    return CountsTable(shots, *draw.tolist())


class TestMultinomialDraw:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        shots=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
        eta=st.floats(0.05, 1.0),
    )
    # pvals of 0 and 1 (eta = 1, p = 1, eps = 0), no correlation (p = 0), and
    # the widest flip
    @example(n=2, shots=33, seed=7, eps=0.0, p=1.0, eta=1.0)
    @example(n=3, shots=5, seed=1, eps=1.0, p=0.0, eta=1.0)
    @example(n=1, shots=300, seed=2**32 - 1, eps=1.0, p=1.0, eta=0.5)
    @example(n=2, shots=1, seed=0, eps=0.5, p=0.0, eta=0.05)
    def test_counts_are_the_terms_multinomial(self, n, shots, seed, eps, p, eta):
        noise = NoiseParams(epsilon=eps, p=p, eta=eta)
        reference = [_reference_counts(term, noise, shots, seed) for term in enumerate_terms(n)]
        for term, want in zip(enumerate_terms(n), reference):
            if want.n_00 < shots:
                assert estimate_term(term.n_blocks, term.index, noise, shots, seed).counts == want
        empty = [t for t, c in enumerate(reference) if c.n_00 == shots]
        if empty:
            with pytest.raises(UndefinedEstimateError, match=f"^term {empty[0]}: "):
                estimate_beta(n, shots, noise, seed)
        else:
            assert estimate_beta(n, shots, noise, seed).counts_summary == _summed(reference)

    def test_large_counts_stay_exact(self):
        # 2**66 runs in all: every term's counts and their sum in exact integers
        ideal = estimate_beta(2, 2**62, IDEAL, seed=0)
        assert ideal.counts_summary.n_total == 2**66
        assert ideal.counts_summary.n_pp + ideal.counts_summary.n_mm == 2**66
        assert (ideal.beta_hat, ideal.stderr) == (16.0, 0.0)
        term = term_at(3, 41)
        want = _reference_counts(term, REF_NOISE, MAX_SHOTS, seed=6)
        assert estimate_term(term.n_blocks, term.index, REF_NOISE, MAX_SHOTS, seed=6).counts == want


class TestChunkRows:
    """Every row of a many-term chunk against its own term's draw: summed
    counts, or one-term chunks, would not see a term's counts on the wrong
    row, or drawn at the other sign's pvals."""

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
        assert {term.sign for term in terms} == {-1, 1}
        chunk = np.array(indices, dtype=np.int64)
        negative = [term.sign < 0 for term in terms]
        tally = _sampler(21, _pvals(n, self.NOISE), shots)(chunk, negative)
        for term, row in zip(terms, tally, strict=True):
            want = _reference_counts(term, self.NOISE, shots, 21)
            assert CountsTable(shots, *row.tolist()) == want, term.index


class TestPasses:
    """estimate_beta measures its terms TERM_CHUNK at a time; a term's counts
    are a function of the seed and its index alone, so the pass size cannot
    change a bit, and simulate's 4096 terms take one pass."""

    @pytest.mark.parametrize(
        "args, kwargs",
        [((5, 333), {"seed": 11}), ((7, 20), {"seed": 5, "term_budget": 64})],
        ids=["n5-exhaustive", "n7-subsampled"],
    )
    def test_pass_size_cannot_change_output(self, args, kwargs, monkeypatch):
        records = []
        for size in (1, 7, 256, montecarlo.TERM_CHUNK):
            monkeypatch.setattr(montecarlo, "TERM_CHUNK", size)
            records.append(estimate_beta(*args, REF_NOISE, **kwargs))
        assert all(record == records[-1] for record in records)

    def test_pass_count(self, monkeypatch):
        # a pass derives its terms' states once
        sizes = []

        def spy(seed, indices):
            sizes.append(len(indices))
            return term_states(seed, indices)

        term_states = montecarlo._term_states
        monkeypatch.setattr(montecarlo, "_term_states", spy)
        estimate_beta(6, 1, IDEAL, seed=1)
        assert sizes == [4096]
        sizes.clear()
        estimate_beta(7, 1, IDEAL, seed=1, term_budget=4**7)
        assert len(sizes) == -(-(4**7) // montecarlo.TERM_CHUNK)
        assert sum(sizes) == 4**7


class TestGoldenStreams:
    """Values recorded from the per-term multinomial draw, once the sampler
    matched numpy's own draw from each term's stream on every count.

    Repeat-determinism alone would not notice a changed draw; these do.
    """

    def test_exhaustive_json_document(self):
        # the numbers simulate's document prints for this run
        assert estimate_beta(2, 1000, REF_NOISE, seed=7) == BetaEstimate(
            terms_sampled=16,
            total_terms=16,
            exhaustive=True,
            beta_hat=2.630446242315755,
            stderr=0.0708647867330989,
            counts_summary=CountsTable(16000, 1063, 718, 3568, 3517, 7134),
        )

    @pytest.mark.parametrize(
        "args, kwargs, beta_hex, stderr_hex, counts",
        [
            pytest.param(
                (5, 333),
                {"seed": 11},
                "0x1.3acd3ce107fc4p+7",
                "0x1.f8e73e94bd7c8p-1",
                CountsTable(340992, 19271, 17991, 75037, 75575, 153118),
                id="n5-333-shots",
            ),
            pytest.param(
                (7, 20),
                {"seed": 5, "term_budget": 64},
                "0x1.41248f603bd54p+11",
                "0x1.67993e6e6ef33p+8",
                CountsTable(1280, 67, 69, 303, 286, 555),
                id="n7-subsampled",
            ),
            # the benchmark's shape: 4096 terms, one pass of TERM_CHUNK ...
            pytest.param(
                (6, 200),
                {"seed": 4242},
                "0x1.3163cf5384f73p+9",
                "0x1.4657837f26320p+1",
                CountsTable(819200, 45262, 43928, 180846, 180891, 368273),
                id="n6-200-shots",
            ),
            # ... and 10**8 shots a term, each term's counts one draw
            pytest.param(
                (1, 10**8),
                {"seed": 4242},
                "0x1.510823fbb5c8ep-1",
                "0x1.d294d80269976p-14",
                CountsTable(400000000, 30845014, 12708394, 88436828, 88449906, 179559858),
                id="n1-1e8-shots",
            ),
        ],
    )
    def test_bits(self, args, kwargs, beta_hex, stderr_hex, counts):
        est = estimate_beta(*args, REF_NOISE, **kwargs)
        assert est.beta_hat.hex() == beta_hex
        assert est.stderr.hex() == stderr_hex
        assert est.counts_summary == counts

    def test_variance_is_summed_left_to_right(self, monkeypatch):
        # Python 3.12's sum() of floats is compensated and would read
        # 0x1.0000000000002p+0 here; the pinned stderr bits are the plain sum's
        def fake(indices, tally, shots):
            corr, _ = correlations(indices, tally, shots)
            return corr, np.array([1.0] + [2.0**-27] * 15)

        correlations = montecarlo._correlations
        monkeypatch.setattr(montecarlo, "_correlations", fake)
        assert estimate_beta(2, 10, REF_NOISE, seed=1).stderr == 1.0


def _numpy_states(seed: int, indices: list[int]) -> tuple[list[int], list[int]]:
    """The (states, incs) lists numpy's own SeedSequence construction starts
    the terms' streams in."""
    pcgs = [_numpy_stream(seed, t).state["state"] for t in indices]
    return [pcg["state"] for pcg in pcgs], [pcg["inc"] for pcg in pcgs]


def _joined_states(seed: int, indices) -> tuple[list[int], list[int]]:
    """The (states, incs) lists rebuilt from the (terms, 4) uint64 limbs
    state-hi, state-lo, inc-hi, inc-lo that ``_term_states`` derives."""
    limbs = _term_states(seed, indices)
    assert limbs.dtype == np.uint64 and limbs.shape == (len(indices), 4)
    rows = limbs.tolist()
    return [hi << 64 | lo for hi, lo, _, _ in rows], [hi << 64 | lo for _, _, hi, lo in rows]


class TestTermStates:
    """The derived PCG64 states against numpy's own SeedSequence construction."""

    SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**130 + 5, 2**200 + 11]
    EDGES = [0, 2**32 - 1, 2**32, 2**64, 2**70 + 9, 4**255 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, seed):
        indices = list(range(300)) + self.EDGES
        want = _numpy_states(seed, indices)
        assert _joined_states(seed, indices) == want
        # estimate_beta hands them over as int64, or as Python ints in an
        # object array where int64 cannot hold them
        assert _joined_states(seed, np.arange(300)) == tuple(pair[:300] for pair in want)
        assert _joined_states(seed, np.array(indices, dtype=object)) == want

    # the word boundaries below 4**31, where estimate_beta hands over int64
    INT64_EDGES = [0, 2**31 - 1, 2**32 - 1, 2**32, 4**31 - 1]

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 + 3])
    def test_int64_words_match_the_object_words(self, seed):
        as_int64 = np.array(self.INT64_EDGES, dtype=np.int64)
        as_object = np.array(self.INT64_EDGES, dtype=object)
        assert _term_states(seed, as_int64).tolist() == _term_states(seed, as_object).tolist()
        assert _joined_states(seed, as_int64) == _numpy_states(seed, self.INT64_EDGES)

    @pytest.mark.parametrize("index", [2**63, 2**64 - 1])
    def test_a_uint64_index_takes_the_object_words(self, index):
        # numpy reads [index] as uint64, which an int64 shift would refuse
        assert np.asarray([index]).dtype == np.uint64
        est = estimate_term(32, index, REF_NOISE, 300, seed=8)
        assert est.counts == _reference_counts(term_at(32, index), REF_NOISE, 300, 8)

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
        assert _joined_states(seed, indices) == _numpy_states(seed, indices)

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_the_carrier_holds_each_written_state(self, seed, monkeypatch):
        # each foreign call starts from the state numpy itself seeds the term's
        # stream in: the four words its bitgen_t leads to, copied into a PCG64
        # and read back through numpy's documented getter
        indices = [0, 7, 2**32, 2**70 + 9, 4**255 - 1]
        seen = []
        reader = np.random.PCG64(0)
        reader_words = montecarlo._state_words(reader)[2]

        class Recording(ctypes.pythonapi._FuncPtr):
            _flags_ = ctypes.pythonapi._FuncPtr._flags_

            def __call__(self, *args):
                if len(args) == 6:  # random_multinomial(bitgen, n, counts, pvals, d, binomial)
                    record = ctypes.c_uint64.from_address(args[0]).value
                    words = ctypes.c_uint64.from_address(record).value
                    reader_words[:] = (ctypes.c_uint64 * 4).from_address(words)
                    seen.append(reader.state)
                return super().__call__(*args)

        monkeypatch.setattr(ctypes.pythonapi, "_FuncPtr", Recording)
        tally = _sampler(seed, _pvals(2, REF_NOISE), 50)(np.array(indices, dtype=object), [False] * 5)
        monkeypatch.undo()
        assert seen == [_numpy_stream(seed, t).state for t in indices]
        want = [np.random.Generator(_numpy_stream(seed, t)).multinomial(50, _pvals(2, REF_NOISE)[0]) for t in indices]
        assert tally.tolist() == np.array(want).tolist()

    @staticmethod
    def _probe_fails(monkeypatch):
        # the probe reads the four words back after numpy's own setter; here
        # they are another generator's, as under a layout it does not know
        elsewhere = np.random.PCG64(99)
        state_words = montecarlo._state_words
        monkeypatch.setattr(montecarlo, "_state_words", lambda bitgen: state_words(elsewhere))

    def test_an_unexpected_state_layout_falls_back_to_the_setter(self, monkeypatch, capsys):
        # each term's state goes through the setter and the counts stay numpy's
        self._probe_fails(monkeypatch)
        indices = [0, 7, 2**32, 2**70 + 9, 4**255 - 1]
        negative = [False, True, True, False, True]
        pvals = _pvals(2, REF_NOISE)
        tally = _sampler(6, pvals, 50)(np.array(indices, dtype=object), negative)
        monkeypatch.undo()
        want = [np.random.Generator(_numpy_stream(6, t)).multinomial(50, pvals[s]) for t, s in zip(indices, negative)]
        assert tally.tolist() == np.array(want).tolist()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "setter" in err and f"numpy {np.__version__}" in err

    def test_a_missing_symbol_falls_back_to_the_setter(self, monkeypatch, capsys):
        # a library without random_multinomial stands for a numpy that does not export it
        assert np.random._generator.__file__ != np.random._pcg64.__file__
        monkeypatch.setattr(np.random._generator, "__file__", np.random._pcg64.__file__)
        indices = [0, 7, 2**32, 2**70 + 9]
        negative = [False, True, True, False]
        pvals = _pvals(2, REF_NOISE)
        tally = _sampler(6, pvals, 50)(np.array(indices, dtype=object), negative)
        monkeypatch.undo()
        want = [np.random.Generator(_numpy_stream(6, t)).multinomial(50, pvals[s]) for t, s in zip(indices, negative)]
        assert tally.tolist() == np.array(want).tolist()
        err = capsys.readouterr().err
        assert err == f"warning: random_multinomial is missing under numpy {np.__version__}; using PCG64's state setter\n"

    def test_the_fallback_warns_once_a_run(self, monkeypatch, capsys):
        # three passes of TERM_CHUNK terms choose their route once
        self._probe_fails(monkeypatch)
        fallback = estimate_beta(7, 1, NoiseParams(eta=1.0), 1, term_budget=3 * 4096)
        assert capsys.readouterr().err.count("warning:") == 1
        monkeypatch.undo()
        assert fallback == estimate_beta(7, 1, NoiseParams(eta=1.0), 1, term_budget=3 * 4096)
        assert capsys.readouterr().err == ""

    CHUNK = np.array([0, 1, 5, 2**32, 2**63, 2**70 + 9, *range(40, 340), 4**255 - 2, 4**255 - 1], dtype=object)

    @pytest.mark.parametrize("shots", [1, 2, 50, 10**8, MAX_SHOTS])
    def test_the_c_function_and_the_setter_agree(self, shots, monkeypatch, capsys):
        # both signs' pvals on one chunk; at one shot the C function leaves the
        # categories after the one it fills unwritten, so the counts start at zero
        negative = [t % 3 == 0 for t in range(len(self.CHUNK))]
        pvals = _pvals(3, NoiseParams(epsilon=0.2, p=0.7, eta=0.5))
        direct = _sampler(17, pvals, shots)(self.CHUNK, negative)
        self._probe_fails(monkeypatch)
        assert _sampler(17, pvals, shots)(self.CHUNK, negative).tolist() == direct.tolist()
        assert capsys.readouterr().err.count("\n") == 1
        assert (direct.sum(axis=1) == shots).all()

    @pytest.mark.parametrize(
        "layout", [lambda row: row.astype(np.float32), lambda row: np.repeat(row, 2)[::2]], ids=["float32", "strided"]
    )
    def test_both_routes_read_pvals_as_float64(self, layout, monkeypatch, capsys):
        # the C function takes a row's address as five doubles: a float32 row
        # once ran past its end, and a strided view read every other value
        pvals = tuple(layout(row) for row in _pvals(3, NoiseParams(epsilon=0.2, p=0.7, eta=0.5)))
        indices, negative = [0, 7, 2**32, 2**70 + 9], [False, True, True, False]
        exact = [pvals[s].astype(np.float64) for s in negative]
        want = [np.random.Generator(_numpy_stream(17, t)).multinomial(50, row) for t, row in zip(indices, exact)]
        want = np.array(want).tolist()
        assert _sampler(17, pvals, 50)(np.array(indices, dtype=object), negative).tolist() == want
        self._probe_fails(monkeypatch)
        assert _sampler(17, pvals, 50)(np.array(indices, dtype=object), negative).tolist() == want
        assert capsys.readouterr().err.count("\n") == 1

    def test_seed_is_checked_as_numpy_checks_it(self):
        assert _joined_states(np.int64(12345), [3]) == _numpy_states(12345, [3])
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            estimate_beta(1, 10, IDEAL, seed=-1)
        # the subsampled path refuses it alike, before it picks its terms
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            estimate_beta(3, 10, IDEAL, seed=-1, term_budget=4)
        with pytest.raises(TypeError):
            estimate_term(1, 0, IDEAL, 10, seed=1.5)


def _floyd(total: int, budget: int, seed: int) -> list[int]:
    """Floyd's sampling one bounded draw at a time: the reference for
    ``_sample_indices``, which draws a pass's bounds in one call below 2**63."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    chosen: set[int] = set()
    for j in range(total - budget, total):
        t = _uniform_below(rng, j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


class TestTermSubsampling:
    @pytest.mark.parametrize("n", [7, 8, 12, 15, 16, 17, 20, 31, 32])
    def test_one_call_draws_as_the_scalar_loop(self, n):
        for seed in (0, 1, 5, 2**64 + 3):
            for budget in (1, 64, 4096):
                assert _sample_indices(4**n, budget, seed) == _floyd(4**n, budget, seed), (seed, budget)

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_a_pass_of_bounds_at_a_time_draws_as_the_scalar_loop(self, chunk, monkeypatch):
        monkeypatch.setattr(montecarlo, "TERM_CHUNK", chunk)
        for total, budget in ((4**7, 1000), (2**32 + 500, 1000), (4**31, 777)):
            assert _sample_indices(total, budget, 5) == _floyd(total, budget, 5), total

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(1, 2**64) | st.integers(2**32 - 300, 2**32 + 300) | st.sampled_from([2**63 - 1, 2**63]),
        budget=st.integers(1, 600),
        seed=st.integers(0, 2**70),
    )
    @example(total=2**32 + 200, budget=600, seed=5)  # bounds on both sides of 2**32
    def test_one_call_draws_as_the_scalar_loop_at_any_total(self, total, budget, seed):
        budget = min(budget, total)
        assert _sample_indices(total, budget, seed) == _floyd(total, budget, seed)

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

    @pytest.mark.parametrize("n", [31, 32, 40, 255])
    def test_sampled_signs_are_the_terms_signs(self, n, monkeypatch):
        # both entry points take a term's sign from its digits; term_at's
        # comes from joining the signed menu entries, an independent path
        picked = _sample_indices(4**n, 40, seed=5)
        want = [term_at(n, t).sign for t in picked]
        assert set(want) == {-1, 1}
        assert [estimate_term(n, t, IDEAL, 1, seed=5).sign for t in picked] == want
        negative = []

        def spy(*args):
            draw = sampler(*args)

            def recording(indices, chunk_negative):
                negative.extend(chunk_negative)
                return draw(indices, chunk_negative)

            return recording

        sampler = montecarlo._sampler
        monkeypatch.setattr(montecarlo, "_sampler", spy)
        estimate_beta(n, 1, IDEAL, seed=5, term_budget=40)
        assert negative == [sign < 0 for sign in want]
