"""Finite-statistics simulation of the Bell test with inefficient detectors.

In one run of a term each block is ideal with probability p, and then the
product A * B of its two observers' outcomes is its menu sign (a certainty
relation of the block state, which ``verify`` checks exactly); otherwise its
outcomes are uniform over k = 3 or 4 observables, so its product is a fair
coin.  A symmetric sign flip with probability eps/2 multiplies the product's
mean by 1 - eps, and each observer's detector fires with probability eta,
independently of the other and of the outcomes.  So a term of sign s has the
mean product c = s (1-eps) p**N in a coincidence, and its five counts, in
CountsTable order, are one draw of their exact law,

    Multinomial(shots; eta**2 (1+c)/2, eta**2 (1-c)/2, eta (1-eta), (1-eta) eta, (1-eta)**2).

Correlations keep single-sided detections in the denominator,

    estimate = (n_pp - n_mm) / (n_total - n_00),

which rescales the true correlation by eta/(2-eta) rather than opening the
detection loophole by postselecting on coincidences.

Term ``index`` under master ``seed`` draws by ``Generator.multinomial`` from
numpy's ``PCG64(SeedSequence(entropy=seed, spawn_key=(1, index)))``, a
function of the two alone, so output is byte-identical for a fixed seed
whatever order or grouping the terms are measured in.  ``_term_states``
derives those starting states in numpy, a chunk of terms at once, from the
pool numpy's own SeedSequence mixes from ``seed`` (``_seed_pool``): each
index word is hashed into the four pool words as one (4, terms) operation,
the eight output words as one (8, terms) operation, and the 128-bit step on
uint64 limbs, which ``_draw_counts`` writes straight into one PCG64's memory.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from .bell import _MENU_SIGNS, _digits
from .efficiency import NoiseParams
from .pauli import _check_integer, _Checked

# numpy is imported inside the functions that make arrays, so importing
# the package, and every command that makes none, leaves it unloaded
if TYPE_CHECKING:
    import numpy as np


class UndefinedEstimateError(ValueError):
    """The correlation estimator's denominator is empty."""


class CountsTable(_Checked, namedtuple("CountsTable", "n_total n_pp n_mm n_single_1 n_single_2 n_00")):
    """Detection bookkeeping for one term, integer counts; the five categories tile all runs."""

    __slots__ = ()

    def _check(self) -> None:
        n_total, *parts = self
        if sum(parts) != n_total:
            raise ValueError(f"counts do not tile the runs: {sum(parts)} categorized vs {n_total} total")
        if min(self) < 0:
            raise ValueError("counts must be nonnegative")


# most shots per term: numpy's multinomial takes the count as an int64
MAX_SHOTS = 2**63 - 1

# most terms one estimate measures, min(4**N, term_budget): the 4**12 terms
# verify's cap names, minutes of sampling and gigabytes of memory (README)
MEASURED_TERM_CAP = 4**12

# terms per pass of estimate_beta, which holds a pass's PCG64 states and their
# temporaries at once: about 0.8 MB traced at 4096 terms (about 200 bytes a
# term), so the 4**12 cap takes 4096 passes under 1 MB, not one of 3.3 GB;
# simulate's default 4096 terms take one
TERM_CHUNK = 4096

# largest N for which the subsampled variance's (4**N)**2 = 16**N is a finite
# float (16**255 = 2**1020)
ESTIMATE_BLOCK_CAP = 255


# numpy's SeedSequence hash (pool of four uint32 words) and the multiplier of
# PCG64's 128-bit LCG, all fixed by numpy's stream-compatibility policy
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED05_1FC65DA4, 0x4385DF64_9FCCF645


def _hash(values: np.ndarray, hash_const: int, mult: int, rows: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 ``values``, row r by the r-th hash constant
    after ``hash_const``, and the constant that follows the last."""
    import numpy as np

    consts = [hash_const * pow(mult, r, 1 << 32) & _MASK32 for r in range(rows + 1)]
    column = np.array(consts, dtype=np.uint32)[:, None]
    values = (values ^ column[:-1]) * column[1:]
    return values ^ values >> 16, consts[-1]


@lru_cache(maxsize=64, typed=True)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant after the words of ``seed`` and
    spawn key word 1, which every term's SeedSequence shares before its own
    index words; the pool is numpy's own.  numpy mixes in L = max(seed words,
    4) + 1 words with 4L hashes in all, each multiplying the constant by _MULT_A.
    Cached per seed and type, so True or 2.0 is never taken for 1 or 2."""
    seed = _check_integer("seed", seed)  # SeedSequence, too, takes integers only
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    import numpy as np

    pool = np.random.SeedSequence(entropy=seed, spawn_key=(1,)).pool
    n_words = max((seed.bit_length() + 31) // 32, 4) + 1
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _MASK32


def _term_states(seed: int, indices: Sequence[int]) -> np.ndarray:
    """The uint64 limbs (state hi, lo, inc hi, lo), one row per term index t, in
    which ``PCG64(SeedSequence(entropy=seed, spawn_key=(1, t)))`` starts.

    Each of t's 32-bit words, at least one, is hashed into the four pool words
    after ``_seed_pool(seed)`` by four successive hash constants, as one
    (4, terms) uint32 operation, word j only for the terms whose index has one.
    int64 indices (every N < 32) are split into words in int64, any others as
    Python ints.
    ``generate_state(4, uint64)`` hashes the pool eight more times, one (8, terms)
    operation, and PCG64 steps that 128-bit seed and stream twice as
    pcg_setseq_128_srandom_r does, in place on (hi, lo) pairs of uint64 columns.
    """
    import numpy as np

    pool_words, hash_const = _seed_pool(seed)
    index = np.asarray(indices)
    if index.dtype != np.int64:  # wider indices, or [2**63] read as uint64
        index = np.asarray(indices, dtype=object)  # Python ints, of any size
    width = max(int(index.max()).bit_length() + 31, 32) // 32
    words = (index[:, None] >> np.arange(0, 32 * width, 32) & _MASK32).astype(np.uint32)
    pool = np.array(pool_words, dtype=np.uint32)[:, None].repeat(len(index), axis=1)
    for j in range(width):
        rows = slice(None) if j == 0 else words[:, j:].any(axis=1)
        hashed, hash_const = _hash(words[rows, j], hash_const, _MULT_A, 4)
        mixed = _MIX_MULT_L * pool[:, rows] - _MIX_MULT_R * hashed
        pool[:, rows] = mixed ^ mixed >> 16
    # (terms, 4) limbs seed hi, lo, seq hi, lo, stepped in place: no temporary outlives its line
    limbs = np.ascontiguousarray(_hash(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 8)[0].T, dtype="<u4").view("<u8")
    hi, lo, inc_hi, inc_lo = limbs.T
    # inc = 2 seq + 1, then state = (seed + inc) * multiplier + inc, mod 2**128 in
    # (hi, lo) uint64 limbs: a low limb that wraps below its addend carries 1
    inc_hi[:], inc_lo[:] = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    # the high word of lo * _PCG64_MULT_LO from 32-bit halves, so no product overflows
    m0, m1 = _PCG64_MULT_LO & _MASK32, _PCG64_MULT_LO >> 32
    mid = (lo >> 32) * m0 + ((lo & _MASK32) * m0 >> 32)
    high = (lo >> 32) * m1 + (mid >> 32) + ((lo & _MASK32) * m1 + (mid & _MASK32) >> 32)
    hi[:] = high + hi * _PCG64_MULT_LO + lo * _PCG64_MULT_HI + inc_hi
    lo[:] = lo * _PCG64_MULT_LO + inc_lo
    hi += lo < inc_lo
    return limbs


def _pvals(n_blocks: int, noise: NoiseParams) -> tuple[np.ndarray, ...]:
    """The module's multinomial pvals, for a term of sign +1 and of sign -1."""
    import numpy as np

    eta = noise.eta
    both, single, neither = eta * eta, eta * (1.0 - eta), (1.0 - eta) ** 2
    c = (1.0 - noise.epsilon) * noise.p**n_blocks
    rows = ([both * (1 + x) / 2, both * (1 - x) / 2, single, single, neither] for x in (c, -c))
    return tuple(np.array(row) for row in rows)


class TermEstimate(NamedTuple):
    sign: int
    correlation: float
    stderr: float
    counts: CountsTable


def _state_words(bitgen: np.random.PCG64) -> np.ndarray:
    """The four uint64 words of ``bitgen``'s pcg64_random_t, in its memory: the capsule's bitgen_t
    (numpy's random/bitgen.h) points at PCG64's state record, whose first field points at them."""
    import ctypes
    import types
    import numpy as np

    # pythonapi[name] is ours to type
    get_pointer = ctypes.pythonapi["PyCapsule_GetPointer"]
    get_pointer.restype, get_pointer.argtypes = ctypes.c_void_p, (ctypes.py_object, ctypes.c_char_p)
    address = get_pointer(bitgen.capsule, b"BitGenerator")
    for _ in range(2):
        address = ctypes.c_void_p.from_address(address).value
    view = {"data": (address, False), "shape": (4,), "typestr": np.dtype(np.uint64).str, "version": 3}
    return np.asarray(types.SimpleNamespace(__array_interface__=view))


def _draw_counts(indices: Sequence[int], negative: list[bool], pvals: tuple, seed: int, shots: int) -> np.ndarray:
    """The (terms, 5) counts of terms ``indices`` under master ``seed``: term
    t's are one multinomial draw from its own stream at pvals[negative[t]], one
    PCG64 whose four state words take t's limbs in the order a probe reads, or,
    with one stderr line, through numpy's ``state`` setter where it reads others."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, 2**63 - 1], got {shots}")
    import numpy as np

    bitgen = np.random.PCG64(0)  # its own state is never read
    draw = np.random.Generator(bitgen).multinomial
    words = _state_words(bitgen)
    # the probe: limbs 0-3 set through numpy's setter (has_uint32 0: multinomial draws 64 bits)
    record = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2 << 64 | 3}, "has_uint32": 0, "uinteger": 0}
    bitgen.state = record
    limbs = _term_states(seed, indices)
    tally = np.empty((len(indices), 5), dtype=np.int64)
    if sorted(order := words.tolist()) != [0, 1, 2, 3]:  # a layout the probe does not know
        sys.stderr.write(f"warning: PCG64's state words read {order} under numpy {np.__version__}; using its setter\n")
        for t, ((hi, lo, inc_hi, inc_lo), sign_bit) in enumerate(zip(limbs.tolist(), negative)):
            record["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
            bitgen.state = record
            tally[t] = draw(shots, pvals[sign_bit])
        return tally
    # each term's four limbs, 32 bytes, copied buffer to buffer into the carrier
    carrier = memoryview(words).cast("B")
    states = memoryview(limbs[:, order].tobytes())
    for t, sign_bit in enumerate(negative):
        carrier[:] = states[32 * t : 32 * t + 32]
        tally[t] = draw(shots, pvals[sign_bit])
    return tally


def _correlations(indices: Sequence[int], tally: np.ndarray, shots: int) -> tuple[np.ndarray, ...]:
    """Per-term correlation and binomial-style standard error from a chunk's
    counts: sqrt((m2 - corr**2) / d) with m2 = (n_pp + n_mm) / d and
    d = n_total - n_00."""
    import numpy as np

    n_pp, n_mm, _, _, n_00 = tally.T
    denom = shots - n_00
    empty = np.flatnonzero(denom == 0)
    if empty.size:
        raise UndefinedEstimateError(
            f"term {indices[empty[0]]}: no runs with at least one detection out of {shots}"
        )
    corr = (n_pp - n_mm) / denom
    variance = np.maximum((n_pp + n_mm) / denom - corr * corr, 0.0)
    return corr, np.sqrt(variance / denom)


def estimate_term(n_blocks: int, index: int, noise: NoiseParams, shots: int, seed: int) -> TermEstimate:
    """Correlation estimate for term ``index`` of N blocks, with a binomial-style standard error.

    Its counts are one draw of the module's multinomial from the term's own
    stream, a function of ``seed`` and ``index`` alone, so it is exactly
    this term's share of ``estimate_beta`` at the same seed and shots.
    """
    n_blocks = _check_integer("n_blocks", n_blocks, 1)
    index = _check_integer("index", index)
    shots = _check_integer("shots", shots)
    if not 0 <= index < 4**n_blocks:
        raise ValueError(f"term index {index} out of range for {n_blocks} blocks")
    sign = math.prod(_MENU_SIGNS[c] for c in _digits(n_blocks, index))
    tally = _draw_counts([index], [sign < 0], _pvals(n_blocks, noise), seed, shots)
    (corr,), (stderr,) = _correlations([index], tally, shots)
    counts = CountsTable(shots, *tally[0].tolist())
    return TermEstimate(sign, float(corr), float(stderr), counts)


class BetaEstimate(NamedTuple):
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
            "counts_summary": self.counts_summary._asdict(),
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
    import numpy as np

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
    Each term's counts are one multinomial draw from a stream fixed by
    ``seed`` and its index, so the estimate sums what ``estimate_term`` gives
    each term, in index order, and the counts in exact Python ints.
    """
    n_blocks = _check_integer("n_blocks", n_blocks, 1, ESTIMATE_BLOCK_CAP)
    shots = _check_integer("shots_per_term", shots_per_term, 1)
    term_budget = _check_integer("term_budget", term_budget, 1)
    seed = _check_integer("seed", seed)
    _seed_pool(seed)  # refuses a negative seed before _sample_indices hands it to numpy
    total = 4**n_blocks
    exhaustive = total <= term_budget
    m = total if exhaustive else term_budget
    if m > MEASURED_TERM_CAP:
        raise ValueError(
            f"at most {MEASURED_TERM_CAP} measured terms, got {m} (the lesser of 4**N and term_budget)"
        )
    import numpy as np

    indices = range(total) if exhaustive else _sample_indices(total, term_budget, seed)
    # int64 holds every index below 4**32; above it they stay Python ints
    index_type = np.int64 if n_blocks < 32 else object
    values = np.empty(m)
    stderrs = np.empty(m)
    tallies = [0] * 5
    pvals = _pvals(n_blocks, noise)
    menu_signs = np.array(_MENU_SIGNS)
    for lo in range(0, m, TERM_CHUNK):
        chunk = np.asarray(indices[lo : lo + TERM_CHUNK], dtype=index_type)
        signs = menu_signs[np.array(_digits(n_blocks, chunk), dtype=np.intp)].prod(axis=0)
        tally = _draw_counts(chunk, (signs < 0).tolist(), pvals, seed, shots)
        corr, stderrs[lo : lo + TERM_CHUNK] = _correlations(chunk, tally, shots)
        values[lo : lo + TERM_CHUNK] = signs * corr
        tallies = [done + sum(column) for done, column in zip(tallies, tally.T.tolist())]

    measurement_var = float(np.cumsum(stderrs * stderrs)[-1])  # left to right: 3.12's sum() is compensated
    counts = CountsTable(shots * m, *tallies)
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
