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

All randomness flows through numpy's PCG64, one stream per term: term
``index`` under master ``seed`` reads the stream of
``PCG64(SeedSequence(entropy=seed, spawn_key=(1, index)))``, a function of
the two alone, so the result is byte-identical for a fixed seed whatever
order or grouping the terms are measured in, and ``estimate_term`` gives
exactly a term's share of ``estimate_beta``.  The sampler builds no
SeedSequence per term: ``_term_states`` derives the starting state of every
term in a chunk at once, in numpy, by the hash SeedSequence applies and the
seeding PCG64 applies to its output, both of which numpy's
stream-compatibility policy (NEP 19) keeps fixed.  A term's stream is read in a
fixed order: per block, ``shots`` uniforms for the ideal/noise selector,
``shots`` uniforms for the ideal outcome, ``shots`` integers for the noise
outcome; then ``shots`` uniforms each for the sign flip and the two detectors.

The sampler reads that order as numpy's ``random`` and ``integers`` would on
a fresh generator, but from raw 64-bit words, one ``random_raw`` fetch per
term through one PCG64 set to each term's state in turn, decoded in numpy:
a uniform draw is an integer compare, the ideal
outcome's 1/16 cell is the top four bits, and a noise outcome over 2**k
outcomes is a 32-bit half x shifted to x >> (32 - k), Lemire's bounded draw,
which never rejects for a power-of-two range.  PCG64 hands out a word's low
half first and keeps the high half for the next 32-bit draw, also across
blocks.

Every block reads one outcome table, built on first use: for each of the four
menu choices, the joint distribution of its k observables is the
Walsh-Hadamard transform of the block state's 2**k subset expectations, and
the observers' products are columns of the same transform.  The ideal
outcome is the uniform's position in the choice's cumulative distribution,
exactly the draw ``Generator.choice(p=...)`` makes; every cdf entry is a
multiple of 1/16, so the table holds that position per 1/16 cell of [0, 1).

Terms are sampled in chunks of about SAMPLE_CHUNK term-shots: the terms'
words are stacked into one ``(terms, words)`` buffer, and the selection,
outcome lookups, flip, detectors and per-term tallies then run once per
block over the whole chunk.  A term with more shots than SAMPLE_CHUNK is
drawn in slices of that many shots, each reaching its words with
``PCG64.advance``, and tallied slice by slice, so memory stays flat in
shots.  ``estimate_term`` is a chunk of one through the same kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import cache, lru_cache, reduce
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from .bell import _MENU_SIGNS, BLOCK_TERM_MENU, BellTerm, _digits, n_terms
from .efficiency import NoiseParams
from .pauli import Observable, identity, pauli_mul
from .state import _expect_xz, _xz_arrays, build_state


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

# widest menu choice (four observables); every choice's outcomes pad to this
_MAX_OUTCOMES = 16


class _OutcomeTable(NamedTuple):
    """The sampler's outcome model of every menu choice on one block."""

    n_outcomes: np.ndarray  # per choice: 2**k outcomes for k observables
    noise_shift: np.ndarray  # per choice: 32 - k, a 32-bit word's shift to a noise outcome
    probs: np.ndarray  # the rest are flat, one entry per choice * 16 + outcome
    prod1: np.ndarray  # each particle's product of its outcome signs
    prod2: np.ndarray
    drawn: np.ndarray  # ideal outcome for each 1/16 cell of the uniform


@cache
def _outcome_table() -> _OutcomeTable:
    """The outcome table, built once from the block state's subset expectations.

    Outcomes s and observable subsets S are keyed alike (observable i is bit
    k-1-i, set for outcome -1 or for membership), so the joint distribution
    P(s) = 2^-k sum_S E_S prod_{i in S} s_i is H @ E / 2^k with
    H[s, S] = (-1)^popcount(s & S), and each observer's product is the column
    of H at the mask of that observer's observables.  Padding cells, past a
    choice's 2**k outcomes, have probability 0 and products +1.
    """
    # every choice's subset products, 2**k for k observables (one block is
    # four qubits), all eliminated in one pass
    products = []
    for menu in BLOCK_TERM_MENU:
        k = len(menu.observables)
        bits = [1 << (k - 1 - i) for i in range(k)]
        ops = [Observable(letter, particle, 1).to_pauli(1) for letter, particle in menu.observables]
        subsets = [[op for op, bit in zip(ops, bits) if mask & bit] for mask in range(1 << k)]
        products += [reduce(pauli_mul, subset, identity(4)) for subset in subsets]
    state = build_state(1)
    sub_exps = iter(_expect_xz(state, *_xz_arrays(products, state.n)).tolist())
    shape = (len(BLOCK_TERM_MENU), _MAX_OUTCOMES)
    n_outcomes = np.empty(len(BLOCK_TERM_MENU), dtype=np.intp)
    noise_shift = np.empty(len(BLOCK_TERM_MENU), dtype=np.intp)
    probs = np.zeros(shape)
    prod1 = np.ones(shape, dtype=np.int8)
    prod2 = np.ones(shape, dtype=np.int8)
    drawn = np.zeros(shape, dtype=np.intp)
    for choice, menu in enumerate(BLOCK_TERM_MENU):
        k = len(menu.observables)
        size = 1 << k
        bits = [1 << (k - 1 - i) for i in range(k)]
        sub_exp = [next(sub_exps) for _ in range(size)]
        keys = np.arange(size)
        hadamard = np.where(np.bitwise_count(keys[:, None] & keys) & 1, -1, 1)
        p = hadamard @ sub_exp / size
        if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
            raise AssertionError(f"invalid joint distribution for choice {menu.label}")
        # built as Generator.choice builds it; every entry a multiple of 1/16,
        # so the count of entries <= u is the same across each 1/16 cell of u
        cdf = p.cumsum()
        cdf /= cdf[-1]
        if np.any(cdf * _MAX_OUTCOMES % 1):
            raise AssertionError(f"cdf of choice {menu.label} is not on the 1/16 grid")
        mask1 = sum(bit for bit, (_, particle) in zip(bits, menu.observables) if particle == 1)
        n_outcomes[choice] = size
        noise_shift[choice] = 32 - k
        probs[choice, :size] = p
        prod1[choice, :size] = hadamard[:, mask1]
        prod2[choice, :size] = hadamard[:, (size - 1) ^ mask1]
        drawn[choice] = cdf.searchsorted(np.arange(_MAX_OUTCOMES) / _MAX_OUTCOMES, side="right")
    # the raw decoder's noise draw is exact only for power-of-two ranges,
    # where Lemire's bounded draw never rejects
    if np.any(n_outcomes & (n_outcomes - 1)) or n_outcomes.max() > _MAX_OUTCOMES:
        raise AssertionError(f"outcome counts {n_outcomes.tolist()} are not powers of two <= 16")
    return _OutcomeTable(
        n_outcomes, noise_shift, probs.ravel(), prod1.ravel(), prod2.ravel(), drawn.ravel()
    )


class _SlicePlan(NamedTuple):
    """Where the draws for shots [lo, hi) of a term sit in its raw stream."""

    runs: tuple[tuple[int, int], ...]  # (stream offset, words) fetched, in order
    size: int  # words fetched; every position below is a column of that buffer
    # per block: selector, ideal outcome, the word whose high half is the
    # first noise draw (-1: none), the block's own noise words, its first
    # half, and the halves it uses
    blocks: tuple[tuple[int, int, int, int, int, int], ...]
    tail: tuple[int, ...]  # the flip and the two detectors


@lru_cache(maxsize=256)  # bounded: a term with many shots has a plan per slice
def _slice_plan(n_blocks: int, shots: int, lo: int, hi: int) -> _SlicePlan:
    """Word offsets of one slice of a term's stream, in the module's draw order.

    Per block the stream holds ``shots`` selector words, ``shots`` ideal
    outcome words, then the words whose 32-bit halves, low half first, are
    the noise draws; a high half left over by one block is the next block's
    first noise draw.  Then ``shots`` words each for the flip and the two
    detectors.  The slice's spans are merged into runs of contiguous words.
    """
    runs: list[list[int]] = []
    size = 0

    def place(start: int, stop: int) -> int:
        """Buffer column of the stream span [start, stop); spans come in stream order."""
        nonlocal size
        if start == stop:
            return -1
        end = runs[-1][0] + runs[-1][1] if runs else -1
        if start > end:
            runs.append([start, 0])
            end = start
        column = size - (end - start)
        grow = max(stop - end, 0)
        runs[-1][1] += grow
        size += grow
        return column

    blocks = []
    off = 0
    for b in range(n_blocks):
        h = b * shots & 1  # a half is pending as block b starts
        q_lo, q_hi = max(lo - h, 0), hi - h  # the block's own halves used here
        noise = off + 2 * shots
        blocks.append((
            place(off + lo, off + hi),
            place(off + shots + lo, off + shots + hi),
            # the slice's first noise draw is the half pending as the block
            # starts, or else one of the block's own halves
            place(off - 1, off) if h and lo == 0 else -1,
            place(noise + q_lo // 2, noise + (q_hi + 1) // 2),
            q_lo & 1,
            q_hi - q_lo,
        ))
        off = noise + (shots - h + 1) // 2
    tail = tuple(place(off + j * shots + lo, off + j * shots + hi) for j in range(3))
    return _SlicePlan(tuple(map(tuple, runs)), size, tuple(blocks), tail)


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


def _fetch(bitgen: np.random.PCG64, states: list[dict], plan: _SlicePlan) -> np.ndarray:
    """Row t: the plan's words of the stream that starts in ``states[t]``,
    read through ``bitgen`` after setting it to that state."""
    buf = np.empty((len(states), plan.size), dtype=np.uint64)
    for row, state in zip(buf, states):
        bitgen.state = state
        pos = here = 0
        for start, count in plan.runs:
            if start != here:
                bitgen.advance(start - here)
            row[pos : pos + count] = bitgen.random_raw(count)
            pos, here = pos + count, start + count
    return buf


def _sample_chunk(
    indices: Sequence[int],
    choices: np.ndarray,
    noise: NoiseParams,
    seed: int,
    shots: int,
    carrier: np.random.PCG64,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Runs of a chunk of terms, SAMPLE_CHUNK shots at a time: local products
    A, B and detection flags, (terms, slice shots) each.

    Row t is term ``indices[t]``, with menu choices ``choices[t]``, drawn in
    the module's draw order from the stream of ``PCG64(SeedSequence(
    entropy=seed, spawn_key=(1, indices[t])))``, whose state is derived by
    ``_term_states`` and loaded, slice by slice, into ``carrier``, a PCG64
    whose own state is never read.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    states = _term_states(seed, indices)
    table = _outcome_table()
    shift = table.noise_shift[choices]
    # numpy's uniform from word w, (w >> 11) * 2**-53, is below x exactly
    # when w < ceil(x * 2**53) << 11 (x * 2**53 is exact)
    below_p, below_flip, below_eta = (
        math.ceil(x * 2.0**53) << 11 for x in (noise.p, noise.epsilon / 2.0, noise.eta)
    )
    for lo in range(0, shots, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, shots - lo)
        plan = _slice_plan(choices.shape[1], shots, lo, lo + n)
        buf = _fetch(carrier, states, plan)
        a = np.ones((len(states), n), dtype=np.int8)
        b = np.ones((len(states), n), dtype=np.int8)
        outcome = np.empty((len(states), n), dtype=np.intp)
        for column, block_shift, (sel, ideal_at, carry, own, first, halves) in zip(
            choices.T, shift.T, plan.blocks
        ):
            offset = _MAX_OUTCOMES * column[:, None]
            ideal = buf[:, sel : sel + n] < below_p
            # the top four bits are the uniform's 1/16 cell
            cell = (buf[:, ideal_at : ideal_at + n] >> 60).view(np.intp)
            cell += offset
            # Lemire's bounded draw of a 32-bit x with a range of 2**k
            # outcomes is x >> (32 - k), never rejecting
            words = buf[:, own : own + (first + halves + 1) // 2].astype("<u8", copy=False)
            outcome[:, n - halves :] = words.view("<u4")[:, first : first + halves]
            if carry >= 0:
                outcome[:, 0] = buf[:, carry] >> 32
            outcome >>= block_shift[:, None]
            np.copyto(outcome, table.drawn[cell], where=ideal)
            outcome += offset
            a *= table.prod1[outcome]
            b *= table.prod2[outcome]
        flip, det1, det2 = (
            buf[:, t : t + n] < below
            for t, below in zip(plan.tail, (below_flip, below_eta, below_eta))
        )
        np.negative(b, out=b, where=flip)
        yield a, b, det1, det2


def _tally(a: np.ndarray, b: np.ndarray, det1: np.ndarray, det2: np.ndarray) -> np.ndarray:
    """Per-term detection categories, one row per term in CountsTable order minus n_total."""
    both = det1 & det2
    same = a == b
    return np.stack(
        [
            np.count_nonzero(both & same, axis=1),
            np.count_nonzero(both & ~same, axis=1),
            np.count_nonzero(det1 & ~det2, axis=1),
            np.count_nonzero(det2 & ~det1, axis=1),
            np.count_nonzero(~(det1 | det2), axis=1),
        ],
        axis=1,
    )


def _tally_chunk(
    indices: Sequence[int],
    choices: np.ndarray,
    noise: NoiseParams,
    seed: int,
    shots: int,
    carrier: np.random.PCG64,
) -> np.ndarray:
    """``_tally`` of a chunk's runs, summed over its slices; the five
    categories of every term must tile its ``shots`` runs."""
    tallies = sum(
        _tally(*runs) for runs in _sample_chunk(indices, choices, noise, seed, shots, carrier)
    )
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
    carrier: np.random.PCG64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-term correlation, standard error and tallies of a chunk of terms.

    The standard error is binomial-style: sqrt((m2 - corr**2) / d) with
    m2 = (n_pp + n_mm) / d and d = n_total - n_00.
    """
    tally = _tally_chunk(indices, choices, noise, seed, shots, carrier)
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
        [term.index], np.array([term.choices]), noise, seed, shots, np.random.PCG64(0)
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
    carrier = np.random.PCG64(0)  # _fetch sets its state per term
    for lo in range(0, m, step):
        chunk = np.asarray(indices[lo : lo + step], dtype=index_type)
        choices = np.stack(_digits(n_blocks, chunk), axis=1).astype(np.intp, copy=False)
        corr, stderrs[lo : lo + step], tally = _estimate_chunk(
            chunk, choices, noise, seed, shots, carrier
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
