"""Tests for the deterministic local-model bound."""

from __future__ import annotations

from functools import cache
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbell import lhv
from hyperbell.bell import BLOCK_TERM_MENU, enumerate_terms
from hyperbell.efficiency import FLOAT_BLOCK_CAP
from hyperbell.lhv import (
    BOUND_LABELS,
    _BLOCK_SUM_TABLE,
    LhvBoundResult,
    brute_force_bound,
)

# the exhaustive scan's reach: 128**3 assignments, whose products of three
# block sums fit in int8
SCAN_BLOCK_CAP = 3


# ═══════════════════════════════════════════════════════════════════════════
# Reference: the expanded term sum
# ═══════════════════════════════════════════════════════════════════════════


@cache
def _term_bits(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # each term's sign and the mask bits of its observables:
    # bit (block-1)*7 + label position in BOUND_LABELS, set for -1
    return tuple(
        (
            term.sign,
            tuple((o.block - 1) * 7 + BOUND_LABELS.index((o.letter, o.particle)) for o in term.observables()),
        )
        for term in enumerate_terms(n)
    )


def term_sum(n: int, mask: int) -> int:
    """Bell value of a deterministic assignment as the expanded 4**N-term sum.

    Independent of the block factorization the scan relies on: every term of
    the stream is multiplied out from its observables' +-1 values.
    """
    return sum(sign * prod(1 - 2 * ((mask >> b) & 1) for b in bits) for sign, bits in _term_bits(n))


def _block_product(n: int, mask: int) -> int:
    return prod(_BLOCK_SUM_TABLE[(mask >> (7 * j)) & 127] for j in range(n))


def scan_bound(n: int) -> LhvBoundResult:
    """``brute_force_bound`` by the exhaustive scan: the value of every one of
    the 2**(7N) assignments, multiplied out in int8 from ``lhv._BLOCK_SUM_TABLE``
    as it reads at the call.

    ``lower`` holds the block-sum products of the low N-1 blocks, indexed by
    their 7(N-1)-bit mask; each of the 128 top-block settings then scales it
    by that block's sum.  Among equal maxima the lowest mask is kept.  int8
    is exact while the table's entries are at most 5 in size (5**3 = 125).
    """
    table = np.array(lhv._BLOCK_SUM_TABLE, dtype=np.int8)
    lower = np.ones(1, dtype=np.int8)
    for _ in range(n - 1):
        # the higher block's bits are the high bits of the index
        lower = np.multiply.outer(table, lower).ravel()
    best_value, best_mask = None, 0
    for top, top_sum in enumerate(table.tolist()):
        values = top_sum * lower
        k = int(values.argmax())  # the first maximum: this pass's lowest mask
        # strictly greater only, so an earlier (lower) mask keeps a tie
        if best_value is None or values[k] > best_value:
            best_value, best_mask = int(values[k]), top * lower.size + k
    return LhvBoundResult(best_value, best_mask, table.size * lower.size)


# ═══════════════════════════════════════════════════════════════════════════
# Block sums
# ═══════════════════════════════════════════════════════════════════════════


class TestBlockSum:
    def test_every_block_sum_is_plus_or_minus_two(self):
        # the four signed menu terms multiply to -1 under any assignment,
        # so exactly one or three of them are -1
        assert len(_BLOCK_SUM_TABLE) == 128
        assert set(_BLOCK_SUM_TABLE) == {-2, 2}

    def test_all_plus_block_sum(self):
        # +1 everywhere: terms contribute +1, -1, +1, +1
        assert _BLOCK_SUM_TABLE[0] == 2
        assert term_sum(1, 0) == 2

    def test_block_sum_matches_table(self):
        # the table entry is the four signed menu terms summed under the
        # assignment's values, read one observable at a time
        for mask in range(128):
            value = {lp: 1 - 2 * ((mask >> i) & 1) for i, lp in enumerate(BOUND_LABELS)}
            want = sum(sign * prod(value[lp] for lp in letters) for sign, letters in BLOCK_TERM_MENU)
            assert _BLOCK_SUM_TABLE[mask] == want


# ═══════════════════════════════════════════════════════════════════════════
# Evaluation
# ═══════════════════════════════════════════════════════════════════════════


class TestEvaluate:
    # the expanded term sum against the block product the scan multiplies

    def test_all_plus_values(self):
        for n, want in ((1, 2), (2, 4), (3, 8), (6, 64)):
            assert term_sum(n, 0) == want

    def test_single_block_exhaustive(self):
        for mask in range(128):
            assert term_sum(1, mask) == _BLOCK_SUM_TABLE[mask]

    def test_two_blocks_factor(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            mask = int(rng.integers(0, 1 << 14))
            assert term_sum(2, mask) == _block_product(2, mask)

    def test_three_blocks_factor(self):
        rng = np.random.default_rng(203)
        for _ in range(200):
            mask = int(rng.integers(0, 1 << 21))
            assert term_sum(3, mask) == _block_product(3, mask)


# ═══════════════════════════════════════════════════════════════════════════
# Bounds
# ═══════════════════════════════════════════════════════════════════════════


class TestBounds:
    def test_brute_force_values(self):
        r1 = brute_force_bound(1)
        assert r1.max_value == 2
        assert r1.assignments_scanned == 128
        assert r1.argmax_mask == 0
        r2 = brute_force_bound(2)
        assert r2.max_value == 4
        assert r2.assignments_scanned == 16384
        assert r2.argmax_mask == 0

    def test_three_blocks_agrees_with_factored(self):
        r = brute_force_bound(3)
        assert r.max_value == max(_BLOCK_SUM_TABLE) ** 3 == 8
        assert r.assignments_scanned == 1 << 21

    def test_argmax_attains_the_bound(self):
        for n in (1, 2, 3):
            r = brute_force_bound(n)
            assert term_sum(n, r.argmax_mask) == r.max_value

    def test_factored_values(self):
        # the certificate at every N the analytic commands take, up to
        # 128**511, which has 1,077 digits
        for n in [*range(1, 17), 32, 64, 128, 255, 256, FLOAT_BLOCK_CAP]:
            assert brute_force_bound(n) == (2**n, 0, 128**n), n

    def test_no_assignment_beats_the_bound(self):
        rng = np.random.default_rng(77)
        for n in (2, 3):
            cap = brute_force_bound(n).max_value
            for _ in range(300):
                assert abs(term_sum(n, int(rng.integers(0, 1 << (7 * n))))) <= cap

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5, 6])
    def test_lowest_mask_wins_ties(self, monkeypatch, seed):
        # the real table puts a maximum at mask 0, so ties never reach the
        # scan's tie-break; random +-2 tables (and an all -2 one) do
        if seed is None:
            table = (-2,) * 128
        else:
            table = tuple(np.random.default_rng(seed).choice([-2, 2], 128).tolist())
        monkeypatch.setattr(lhv, "_BLOCK_SUM_TABLE", table)
        for n in (1, 2):

            def value(mask: int) -> int:
                return prod(table[(mask >> (7 * j)) & 127] for j in range(n))

            want = max(range(1 << (7 * n)), key=value)  # the first maximal mask
            r = brute_force_bound(n)
            assert r.max_value == value(want)
            assert r.argmax_mask == want
            assert r.assignments_scanned == 1 << (7 * n)

    def test_certificate_matches_the_scan(self):
        for n in range(1, SCAN_BLOCK_CAP + 1):
            assert brute_force_bound(n) == scan_bound(n)

    # entries of at most 5 in size keep the scan's int8 products exact
    @settings(max_examples=60, deadline=None)
    @given(
        table=st.lists(st.integers(-5, 5), min_size=128, max_size=128)
        | st.lists(st.sampled_from([-2, 0, 2]), min_size=128, max_size=128)
        | st.lists(st.integers(-5, -1), min_size=128, max_size=128)
    )
    # all zeros, all -2 (odd N's maximum negative), and a lone positive
    # entry above the all-negative rest
    @example(table=[0] * 128)
    @example(table=[-2] * 128)
    @example(table=[-3] * 127 + [1])
    def test_certificate_matches_the_scan_on_any_table(self, table):
        # the real table, all +-2 with a maximum at mask 0, never reaches the
        # walk's tie-break or a zero; random tables of small integers do
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lhv, "_BLOCK_SUM_TABLE", tuple(table))
            for n in range(1, SCAN_BLOCK_CAP + 1):
                assert brute_force_bound(n) == scan_bound(n), n

    # past the scan's reach, against the largest and smallest products of d
    # blocks: each is an extreme entry times an extreme product of d - 1
    @settings(max_examples=40, deadline=None)
    @given(
        table=st.lists(st.integers(-5, 5), min_size=128, max_size=128)
        | st.lists(st.sampled_from([-2, 0, 2]), min_size=128, max_size=128)
        | st.lists(st.integers(-5, -1), min_size=128, max_size=128),
        n=st.integers(SCAN_BLOCK_CAP + 1, 8),
    )
    @example(table=[-2] * 128, n=5)
    @example(table=[0] * 128, n=8)
    def test_certificate_past_the_scan_on_any_table(self, table, n):
        hi = lo = 1
        for _ in range(n):
            ends = [t * e for t in (min(table), max(table)) for e in (lo, hi)]
            hi, lo = max(ends), min(ends)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lhv, "_BLOCK_SUM_TABLE", tuple(table))
            r = brute_force_bound(n)
        assert (r.max_value, r.assignments_scanned) == (hi, 128**n)
        assert 0 <= r.argmax_mask < 128**n
        # the argmax mask attains the maximum, block by block through the table
        assert prod(table[(r.argmax_mask >> (7 * j)) & 127] for j in range(n)) == hi

    def test_brute_force_cap(self):
        for bad in (0, FLOAT_BLOCK_CAP + 1):
            with pytest.raises(ValueError, match=rf"^n_blocks must be in \[1, 511\], got {bad}$"):
                brute_force_bound(bad)

    def test_scan_products_fit_in_int8(self):
        # the scan multiplies in int8, which wraps silently past 127: a scan
        # reaching 7 blocks (2**7 = 128) would need a wider type
        assert max(map(abs, _BLOCK_SUM_TABLE)) ** SCAN_BLOCK_CAP <= np.iinfo(np.int8).max
