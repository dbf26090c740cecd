"""Finite-statistics simulation of the Bell test with inefficient detectors.

One run of a term works block by block: with probability p the block is
ideal, so the product A * B of its two observers' outcomes is its menu
sign; with probability 1-p its outcomes are uniform (white noise).
The total product is then degraded by a symmetric sign flip with probability
eps/2 (per-term mean 1-eps when p=1), and each observer's detector fires
independently with probability eta.

Correlations are estimated with single-sided detections kept in the
denominator,

    estimate = (n_pp - n_mm) / (n_total - n_00),

which rescales the true correlation by eta/(2-eta) rather than opening the
detection loophole by postselecting on coincidences.

All randomness flows through numpy's PCG64, one stream per term: term
``index`` under master ``seed`` reads the stream of
``PCG64(SeedSequence(entropy=seed, spawn_key=(1, index)))``, a function of
the two alone, so the result is byte-identical for a fixed seed whatever
order or grouping the terms are measured in, and ``estimate_term`` gives
exactly a term's share of ``estimate_beta``.  The sampler builds no
SeedSequence per term: ``_term_states`` derives the starting state of every
term in a chunk at once, in numpy, by the hash SeedSequence applies and the
seeding PCG64 applies to its output, both of which numpy's
stream-compatibility policy (NEP 19) keeps fixed.

A term of S shots reads its stream's raw 64-bit words detectors first: words
2j and 2j + 1 are shot j's two detectors.  The estimator classifies a run
that is not a coincidence by those two words alone, so only a coincidence
reads more: the i-th, in shot order, owns the N + 1 words from
2S + (N + 1) i on, one per block and then the sign flip.  That is
2 + eta**2 (N + 1) words per term-shot.  A uniform draw below x is numpy's
``(w >> 11) * 2**-53 < x`` done as an integer compare on the word's top 53
bits.  A block's word chooses ideal or noise that way, and its low four bits,
independent of the top 53, are a nibble: a noisy run's outcome over 2**k
outcomes is the nibble's top k bits, an exact uniform draw.  An ideal run's
product does not depend on the nibble.

A coincidence needs one bit from each block, whether A * B is -1 there.  An
ideal block's product is its menu sign: each menu term is a certainty
relation of the block state, which ``verify`` checks exactly (every signed
term of the expression has expectation +1).  A noisy block's product is the
parity of the nibble's top k bits, whose set bits are its outcome's -1
signs.  ``_ODD`` holds that bit per selector, choice and nibble, and a
coincidence of odd parity counts in n_mm.

Terms are sampled in chunks of about SAMPLE_CHUNK term-shots, a term with
more shots in slices of that many, each reaching its words with
``PCG64.advance``, so memory stays flat in shots; every slice's words fill
one buffer that lives as long as the estimate.  ``estimate_term`` is a chunk
of one through the same kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Iterator, Sequence

import numpy as np

from .bell import _MENU_SIGNS, BLOCK_TERM_MENU, BellTerm, _digits, n_terms
from .efficiency import NoiseParams


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

    def as_dict(self) -> dict[str, int]:
        return asdict(self)  # keys in field order


# term-shots per numpy pass of the sampler; keeps its buffers small whatever
# the shot count (a term with more shots than this is drawn in slices of it)
SAMPLE_CHUNK = 1 << 13

# largest N for which the subsampled variance's (4**N)**2 = 16**N is a finite
# float (16**255 = 2**1020)
ESTIMATE_BLOCK_CAP = 255

# whether a block adds -1 to A * B, per 64 * ideal + 16 * choice + nibble: the
# parity of the nibble's top k bits when noisy, the menu sign's when ideal
_ODD = np.concatenate(
    [np.bitwise_count(np.arange(16) >> (4 - len(m.observables))) % 2 == 1 for m in BLOCK_TERM_MENU]
    + [np.repeat(_MENU_SIGNS < 0, 16)]
)


# numpy's SeedSequence hash (pool of four uint32 words) and the multiplier of
# PCG64's 128-bit LCG, all fixed by numpy's stream-compatibility policy
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED05_1FC65DA4_4385DF64_9FCCF645


def _hashmix(value: Any, hash_const: int, mult: int = _MULT_A) -> tuple[Any, int]:
    """SeedSequence's hash of uint32 ``value``, a Python int or a uint32 array,
    with the hash constant it leaves for the next call."""
    hash_const_next = hash_const * mult & _MASK32
    value = (value ^ hash_const) * hash_const_next & _MASK32
    return value ^ value >> 16, hash_const_next


def _mix(x: Any, y: Any) -> Any:
    """SeedSequence's mix of hashed word ``y`` into pool word ``x``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant after the words of ``seed``,
    zero-padded to the pool's four, and spawn key word 1: what every term's
    SeedSequence shares before its own index words."""
    seed = operator.index(seed)  # SeedSequence, too, takes integers only
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [1]
    hash_const = _INIT_A
    pool = []
    for word in words[:4]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[4:]:
        for dst in range(4):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return tuple(pool), hash_const


def _term_states(seed: int, indices: Sequence[int]) -> list[dict[str, Any]]:
    """The ``PCG64.state`` in which ``PCG64(SeedSequence(entropy=seed,
    spawn_key=(1, t)))`` starts, for every term index t, derived at once.

    Each of t's 32-bit words, at least one, is hashed into every pool word
    after ``_seed_pool(seed)``, here across the terms as uint32 arrays, word j
    only for the terms whose index has one.  PCG64 takes its 128-bit seed and
    stream from ``generate_state(4, uint64)``, eight more hashes of the pool,
    and steps twice as pcg_setseq_128_srandom_r does; that part is done in
    Python ints.
    """
    pool_words, hash_const = _seed_pool(seed)
    index = np.asarray(indices, dtype=object)  # Python ints, of any size
    width = max(int(index.max()).bit_length() + 31, 32) // 32
    words = (index[:, None] >> np.arange(0, 32 * width, 32) & _MASK32).astype(np.uint32)
    pool = np.array(pool_words, dtype=np.uint32)[:, None].repeat(len(index), axis=1)
    for j in range(width):
        rows = slice(None) if j == 0 else words[:, j:].any(axis=1)
        for dst in range(4):
            hashed, hash_const = _hashmix(words[rows, j], hash_const)
            pool[dst, rows] = _mix(pool[dst, rows], hashed)
    out = np.empty((len(index), 8), dtype="<u4")
    hash_const = _INIT_B
    for i in range(8):
        out[:, i], hash_const = _hashmix(pool[i % 4], hash_const, _MULT_B)
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in out.view("<u8").tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc & _MASK128
        pcg = {"state": state, "inc": inc}
        states.append({"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0})
    return states


def _jumped(states: list[dict[str, Any]], words: int) -> list[dict[str, Any]]:
    """``states`` after ``words`` draws each, jumped to in Python ints.

    A draw steps PCG64's LCG, state -> state * MULT + inc, so ``words`` of
    them give state * MULT**w + inc * (MULT**w - 1) / (MULT - 1), mod 2**128;
    the geometric sum is taken modulo (MULT - 1) * 2**128, where the division
    is exact.
    """
    mult = pow(_PCG64_MULT, words, 1 << 128)
    steps = (pow(_PCG64_MULT, words, (_PCG64_MULT - 1) << 128) - 1) // (_PCG64_MULT - 1)
    jumped = []
    for state in states:
        pcg = state["state"]
        moved = {"state": pcg["state"] * mult + pcg["inc"] * steps & _MASK128, "inc": pcg["inc"]}
        jumped.append({**state, "state": moved})
    return jumped


class _Reader:
    """One PCG64, set to each term's state in turn, and the one word buffer it
    fills; one per estimate, so that no slice allocates either."""

    def __init__(self) -> None:
        self.bitgen = np.random.PCG64(0)  # its own state is never read
        self.words = np.empty(0, dtype=np.uint64)

    def fetch(self, states: list[dict], starts: list[int], counts: list[int]) -> np.ndarray:
        """Words [starts[t], starts[t] + counts[t]) of the stream that starts
        in ``states[t]``, for each t in turn, in the buffer, which the next
        fetch overwrites."""
        size = sum(counts)
        if self.words.size < size:
            self.words = np.empty(size, dtype=np.uint64)
        buf = self.words[:size]
        pos = 0
        for state, start, count in zip(states, starts, counts):
            if count:
                self.bitgen.state = state
                if start:
                    self.bitgen.advance(start)
                buf[pos : pos + count] = self.bitgen.random_raw(count)
                pos += count
        return buf


def _sample_chunk(
    indices: Sequence[int],
    choices: np.ndarray,
    noise: NoiseParams,
    seed: int,
    shots: int,
    reader: _Reader,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per slice of SAMPLE_CHUNK shots: the chunk's (terms, 5) tally in
    CountsTable order minus n_total, the flat (terms, slice shots) indices of
    its coincidences, and whether A * B is -1 at each.

    Row t is term ``indices[t]``, with menu choices ``choices[t]``, read in
    the module's detector-first layout from the stream of ``PCG64(SeedSequence(
    entropy=seed, spawn_key=(1, indices[t])))``, whose state is derived by
    ``_term_states`` and loaded into ``reader``.  A slice of shots [lo, hi)
    reads their detector words from 2 lo on, then, for the coincidences
    among them, the records that follow those of the slices before; where a
    term's records start, 2 * shots words in, is jumped to once per chunk.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    states = _term_states(seed, indices)
    records = _jumped(states, 2 * shots)
    terms, width = len(states), choices.shape[1] + 1  # a record: each block, then the flip
    keys = (16 * choices).T
    # numpy's uniform from word w, (w >> 11) * 2**-53, is below x exactly
    # when w < ceil(x * 2**53) << 11 (x * 2**53 is exact); a Python int, as
    # x = 1 gives 2**64
    below_p, below_flip, below_eta = (
        math.ceil(x * 2.0**53) << 11 for x in (noise.p, noise.epsilon / 2.0, noise.eta)
    )
    read = [0] * terms  # record words each term has read
    for lo in range(0, shots, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, shots - lo)
        # a shot's two detector bits as one little-endian uint16, det1 | det2 << 8
        pair = (reader.fetch(states, [2 * lo] * terms, [2 * n] * terms) < below_eta).view("<u2")
        pair = pair.reshape(terms, n)
        hits = np.flatnonzero(pair == 0x0101)
        rows = hits // n
        found = np.bincount(rows, minlength=terms)
        sizes = (width * found).tolist()
        # one row per word of a record, so that numpy runs along the coincidences
        words = reader.fetch(records, read, sizes).reshape(-1, width).T.copy()
        read = [done + size for done, size in zip(read, sizes)]
        # a block word's top 53 bits choose ideal or noise, its low four are
        # the nibble a noisy outcome is drawn from: the index of ``_ODD``
        blocks = words[:-1]
        at = (blocks < below_p) * 64 + keys.take(rows, axis=1) + (blocks & 15).view(np.intp)
        odd = np.bitwise_xor.reduce(_ODD.take(at), axis=0) ^ (words[-1] < below_flip)
        n_mm = np.bincount(rows[odd], minlength=terms)
        tally = [found - n_mm, n_mm]
        parts = (pair == 0x0001, pair == 0x0100, pair == 0)
        if terms > 1:
            tally += [np.count_nonzero(d, axis=1) for d in parts]
        else:  # a term in slices is a chunk of one row, where a flat count is far cheaper
            tally += [[np.count_nonzero(d)] for d in parts]
        yield np.array(tally).T, hits, odd


def _tally_chunk(
    indices: Sequence[int],
    choices: np.ndarray,
    noise: NoiseParams,
    seed: int,
    shots: int,
    reader: _Reader,
) -> np.ndarray:
    """``_sample_chunk``'s tallies summed over its slices, one row per term;
    the five categories of every term must tile its ``shots`` runs."""
    slices = _sample_chunk(indices, choices, noise, seed, shots, reader)
    tallies = sum(tally for tally, _, _ in slices)
    untiled = np.flatnonzero(tallies.sum(axis=1) != shots)
    if untiled.size:
        row = untiled[0]
        raise ValueError(
            f"counts do not tile the {shots} runs of term {indices[row]} "
            f"(N = {choices.shape[1]}, seed {seed}, {noise}): {tallies[row].tolist()}"
        )
    return tallies


@dataclass(frozen=True, slots=True)
class TermEstimate:
    term_index: int
    sign: int
    correlation: float
    stderr: float
    counts: CountsTable


def _estimate_chunk(
    indices: Sequence[int],
    choices: np.ndarray,
    noise: NoiseParams,
    seed: int,
    shots: int,
    reader: _Reader,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-term correlation, standard error and tallies of a chunk of terms.

    The standard error is binomial-style: sqrt((m2 - corr**2) / d) with
    m2 = (n_pp + n_mm) / d and d = n_total - n_00.
    """
    tally = _tally_chunk(indices, choices, noise, seed, shots, reader)
    n_pp, n_mm, _, _, n_00 = tally.T
    denom = shots - n_00
    empty = np.flatnonzero(denom == 0)
    if empty.size:
        raise UndefinedEstimateError(
            f"term {indices[empty[0]]}: no runs with at least one detection out of {shots}"
        )
    corr = (n_pp - n_mm) / denom
    variance = np.maximum((n_pp + n_mm) / denom - corr * corr, 0.0)
    return corr, np.sqrt(variance / denom), tally


def estimate_term(term: BellTerm, noise: NoiseParams, shots: int, seed: int) -> TermEstimate:
    """Correlation estimate for one term with a binomial-style standard error.

    Drawn from the term's own stream under master ``seed``, so it is exactly
    this term's share of ``estimate_beta`` at the same seed and shots.
    """
    (corr,), (stderr,), (tally,) = _estimate_chunk(
        [term.index], np.array([term.choices]), noise, seed, shots, _Reader()
    )
    counts = CountsTable(shots, *tally.tolist())
    return TermEstimate(term.index, term.sign, float(corr), float(stderr), counts)


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


def _uniform_below(rng: np.random.Generator, bound: int) -> int:
    """A uniform integer in [0, bound), for any positive Python int ``bound``.

    numpy's own bounded draw wherever int64 holds the range; above that, by
    rejection from enough of the generator's random bytes.
    """
    if bound <= 2**63:
        return int(rng.integers(0, bound))
    bits = (bound - 1).bit_length()
    while True:
        t = int.from_bytes(rng.bytes((bits + 7) // 8), "little") & ((1 << bits) - 1)
        if t < bound:
            return t


def _sample_indices(total: int, budget: int, seed: int) -> list[int]:
    """A uniform ``budget``-subset of range(total), sorted, by Floyd's sampling.

    Never materializes the range; indices are Python ints, which hold any N.
    """
    pick_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    chosen: set[int] = set()
    for j in range(total - budget, total):
        t = _uniform_below(pick_rng, j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def estimate_beta(
    n_blocks: int, shots_per_term: int, noise: NoiseParams, seed: int, term_budget: int = 4096
) -> BetaEstimate:
    """Estimate the Bell-expression value from simulated runs.

    Measures every expanded term when there are at most ``term_budget`` of
    them; otherwise measures a uniform sample of ``term_budget`` distinct
    terms and scales up, widening the error bar by the sampling variance.
    Terms run through the sampler in chunks of about SAMPLE_CHUNK term-shots.
    A term's stream depends on ``seed`` and its index only, so the per-term
    estimates are those ``estimate_term`` gives at the same seed, summed in
    index order.  N is capped at ESTIMATE_BLOCK_CAP, where the sampling
    variance still fits a float.
    """
    if not 1 <= n_blocks <= ESTIMATE_BLOCK_CAP:
        raise ValueError(f"n_blocks must be in [1, {ESTIMATE_BLOCK_CAP}], got {n_blocks}")
    if shots_per_term < 1:
        raise ValueError(f"shots_per_term must be >= 1, got {shots_per_term}")
    if term_budget < 1:
        raise ValueError(f"term_budget must be >= 1, got {term_budget}")
    shots = shots_per_term
    total = n_terms(n_blocks)
    exhaustive = total <= term_budget
    indices = range(total) if exhaustive else _sample_indices(total, term_budget, seed)
    m = len(indices)
    # int64 holds every index below 4**32; above it they stay Python ints
    index_type = np.int64 if n_blocks < 32 else object
    values = np.empty(m)
    stderrs = np.empty(m)
    tallies = np.zeros(5, dtype=np.int64)
    step = max(1, SAMPLE_CHUNK // shots)
    reader = _Reader()  # one PCG64 and word buffer for every chunk
    for lo in range(0, m, step):
        chunk = np.asarray(indices[lo : lo + step], dtype=index_type)
        choices = np.stack(_digits(n_blocks, chunk), axis=1).astype(np.intp, copy=False)
        corr, stderrs[lo : lo + step], tally = _estimate_chunk(
            chunk, choices, noise, seed, shots, reader
        )
        values[lo : lo + step] = _MENU_SIGNS[choices].prod(axis=1) * corr
        tallies += tally.sum(axis=0)

    measurement_var = float(sum(s**2 for s in stderrs.tolist()))
    counts = CountsTable(shots * m, *tallies.tolist())
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
        shots_per_term=shots,
        terms_sampled=m,
        total_terms=total,
        exhaustive=exhaustive,
        noise=noise,
        seed=seed,
        beta_hat=beta_hat,
        stderr=math.sqrt(variance),
        counts_summary=counts,
    )
