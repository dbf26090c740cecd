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

Term ``index`` under master ``seed`` draws numpy's multinomial from numpy's
``PCG64(SeedSequence(entropy=seed, spawn_key=(1, index)))``, a function of
the two alone, so output is byte-identical for a fixed seed whatever order or
grouping the terms are measured in.  ``_term_states`` derives those starting
states in numpy, a chunk of terms at once, from the pool numpy's own
SeedSequence mixes from ``seed`` (``_seed_pool``): each index word is hashed
into the four pool words as one (4, terms) operation, the eight output words
as one (8, terms) operation, and the 128-bit step on uint64 limbs.
``_sampler`` makes one call a term to numpy's C ``random_multinomial`` through
a copy of a PCG64's public ``bitgen_t`` (numpy/random/bitgen.h) re-pointed at
the term's limbs.  It assumes only that PCG64's state record starts with the
address of the four state words; where a probe reads otherwise, or the symbol
is missing, it takes numpy's ``state`` setter and ``Generator.multinomial``.
"""

from __future__ import annotations

import math
import sys
from collections import deque, namedtuple
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

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
# verify's cap names, about a minute of sampling and a gigabyte of memory (README)
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
def _seed_pool(seed: int) -> tuple[np.random.SeedSequence, int]:
    """numpy's SeedSequence of ``seed`` and spawn key word 1, whose pool every
    term's SeedSequence shares before its own index words, and the hash
    constant after that pool.  numpy mixes in L = max(seed words, 4) + 1 words
    with 4L hashes in all, each multiplying the constant by _MULT_A.
    Cached per seed and type, so True or 2.0 is never taken for 1 or 2."""
    seed = _check_integer("seed", seed, 0)  # SeedSequence, too, takes nonnegative integers only
    import numpy as np

    n_words = max((seed.bit_length() + 31) // 32, 4) + 1
    return np.random.SeedSequence(entropy=seed, spawn_key=(1,)), _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _MASK32


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

    sequence, hash_const = _seed_pool(seed)
    index = np.asarray(indices)
    if index.dtype != np.int64:  # wider indices, or [2**63] read as uint64
        index = np.asarray(indices, dtype=object)  # Python ints, of any size
    width = max(int(index.max()).bit_length() + 31, 32) // 32
    words = (index[:, None] >> np.arange(0, 32 * width, 32) & _MASK32).astype(np.uint32)
    pool = sequence.pool[:, None].repeat(len(index), axis=1)
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


def _state_words(bitgen: np.random.PCG64) -> list[np.ndarray]:
    """uint64 views of ``bitgen``'s memory: its bitgen_t (numpy's public random/bitgen.h: the
    state record's address, then four function pointers), the two words of PCG64's state record
    (the words' address, then has_uint32 and uinteger), and the four state words.  That the
    record's first field points at the words is the one layout numpy does not publish."""
    import ctypes
    import types
    import numpy as np

    # pythonapi[name] is ours to type
    get_pointer = ctypes.pythonapi["PyCapsule_GetPointer"]
    get_pointer.restype, get_pointer.argtypes = ctypes.c_void_p, (ctypes.py_object, ctypes.c_char_p)
    address, views = get_pointer(bitgen.capsule, b"BitGenerator"), []
    for size in (5, 2, 4):
        view = {"data": (address, False), "shape": (size,), "typestr": np.dtype(np.uint64).str, "version": 3}
        views.append(np.asarray(types.SimpleNamespace(__array_interface__=view)))
        address = int(views[-1][0])
    return views


def _sampler(seed: int, pvals: tuple, shots: int) -> Callable[[Sequence[int], Sequence[bool]], np.ndarray]:
    """``draw(indices, negative)``: the (terms, 5) counts of terms ``indices`` under ``seed``,
    term t's one multinomial draw of ``shots`` (in [1, MAX_SHOTS], as the callers check)
    from its own stream at pvals[negative[t]].

    The route is chosen once a run.  Each term is one foreign call to the C function
    ``random_multinomial`` (numpy/random/c_distributions.pxd) in ``numpy.random._generator``'s
    library, through a copy of the carrier PCG64's public bitgen_t (numpy/random/bitgen.h) and
    state record, re-pointed at the term's limbs in the word order a probe reads back after
    numpy's ``state`` setter (the one private layout: see ``_state_words``), and at C-contiguous
    float64 copies of the pvals rows, whatever their dtype or strides: it reads five doubles a row.
    Where the probe reads other words or the symbol is missing, each term goes through that
    setter and ``Generator.multinomial``: the same counts, and one stderr line.
    """
    import _ctypes
    import ctypes
    import numpy as np

    carrier = np.random.PCG64(_seed_pool(seed)[0])  # its own state is never read
    bitgen, record, words = _state_words(carrier)
    # the probe: limbs 0-3 set through numpy's setter (has_uint32 0: multinomial draws 64 bits)
    setter = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2 << 64 | 3}, "has_uint32": 0, "uinteger": 0}
    carrier.state = setter
    order = words.tolist()
    try:
        address = _ctypes.dlsym(_ctypes.dlopen(np.random._generator.__file__), "random_multinomial")
    except (AttributeError, OSError):  # no dlopen here, or no such symbol
        address = None
    if address is not None and sorted(order) == [0, 1, 2, 3]:
        # pythonapi's function type keeps the GIL, which a sub-microsecond call is quicker holding
        entry = ctypes.pythonapi._FuncPtr(address)
        # (bitgen_t *, int64_t n, int64_t *counts, double *pvals, npy_intp d, binomial_t *)
        pointer, entry.restype = ctypes.c_void_p, None
        entry.argtypes = (pointer, ctypes.c_int64, pointer, pointer, ctypes.c_ssize_t, pointer)
        template = np.concatenate([record, bitgen])  # after the probe: has_uint32 0
        # random_binomial's cache, which it refills whenever its (n, p) change: binomial_t
        # (numpy/random/distributions.h) is 17 words, so 32 leave room
        binomial = np.zeros(32, dtype=np.uint64)
        pvals = tuple(np.array(row, dtype=np.float64) for row in pvals)  # a new C-order buffer each

        def draw(indices: Sequence[int], negative: Sequence[bool]) -> np.ndarray:
            # a term's row: its 4 state words, its state record (2 words) pointing at them and
            # its bitgen_t (5 words) pointing at that; the counts start at zero, as the C
            # function writes no category after the one that takes the last shot
            limbs = _term_states(seed, indices)[:, order]  # before the buffers: its temporaries are gone
            rows = np.empty((len(limbs), 11), dtype=np.uint64)  # C order, so row t starts 88 t bytes in
            tally = np.zeros((len(limbs), 5), dtype=np.int64)
            # every buffer the calls touch is held here until they return
            at, out, cache, *pval_at = (a.__array_interface__["data"][0] for a in (rows, tally, binomial, *pvals))
            rows[:, :4], rows[:, 4:] = limbs, template
            rows[:, 4] = np.arange(at, at + 88 * len(rows), 88, dtype=np.uint64)
            rows[:, 6] = rows[:, 4] + 32
            # one call a term, driven by map over addresses: no Python statement runs per term
            calls = map(
                entry, range(at + 48, at + 88 * len(rows), 88), repeat(shots), range(out, out + 40 * len(rows), 40),
                map(pval_at.__getitem__, negative), repeat(5), repeat(cache),
            )
            deque(calls, maxlen=0)
            return tally

        return draw
    reason = "random_multinomial is missing" if address is None else f"PCG64's state words read {order}"
    sys.stderr.write(f"warning: {reason} under numpy {np.__version__}; using PCG64's state setter\n")
    multinomial = np.random.Generator(carrier).multinomial

    def draw(indices: Sequence[int], negative: Sequence[bool]) -> np.ndarray:
        tally = np.empty((len(indices), 5), dtype=np.int64)
        for t, ((hi, lo, inc_hi, inc_lo), sign_bit) in enumerate(zip(_term_states(seed, indices).tolist(), negative)):
            setter["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
            carrier.state = setter
            tally[t] = multinomial(shots, pvals[sign_bit])
        return tally

    return draw


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
    index = _check_integer("index", index, 0, 4**n_blocks - 1)
    shots = _check_integer("shots", shots, 1, MAX_SHOTS)
    sign = math.prod(_MENU_SIGNS[c] for c in _digits(n_blocks, index))
    tally = _sampler(seed, _pvals(n_blocks, noise), shots)([index], [sign < 0])
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
    Draw j's bound is j + 1 whatever was chosen before, so where int64 holds
    them a pass's draws are one ``integers`` call, the stream of one at a time.
    """
    import numpy as np

    pick_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    if total < 2**63:  # np.arange would count in float64 up to 2**63
        starts = range(total - budget, total, TERM_CHUNK)  # a pass's bounds at a time, for memory
        draws = (t for j in starts for t in pick_rng.integers(0, np.arange(j, min(j + TERM_CHUNK, total)) + 1).tolist())
    else:
        draws = (_uniform_below(pick_rng, j + 1) for j in range(total - budget, total))
    chosen: set[int] = set()
    for j, t in zip(range(total - budget, total), draws):
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
    shots = _check_integer("shots_per_term", shots_per_term, 1, MAX_SHOTS)
    term_budget = _check_integer("term_budget", term_budget, 1)
    seed = _check_integer("seed", seed, 0)
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
    draw = _sampler(seed, _pvals(n_blocks, noise), shots)
    menu_signs = np.array(_MENU_SIGNS)
    for lo in range(0, m, TERM_CHUNK):
        chunk = np.asarray(indices[lo : lo + TERM_CHUNK], dtype=index_type)
        signs = menu_signs[np.array(_digits(n_blocks, chunk), dtype=np.intp)].prod(axis=0)
        tally = draw(chunk, (signs < 0).tolist())
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
