"""Tests for the deterministic local-model bound."""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from hyperbell import lhv
from hyperbell.bell import BLOCK_TERM_MENU
from hyperbell.lhv import (
    BOUND_LABELS,
    BRUTE_FORCE_BLOCK_CAP,
    _BLOCK_SUM_TABLE,
    LhvAssignment,
    brute_force_bound,
    evaluate,
    factored_bound,
)
from hyperbell.pauli import Observable


# ═══════════════════════════════════════════════════════════════════════════
# Assignments
# ═══════════════════════════════════════════════════════════════════════════


class TestAssignment:
    def test_bitmask_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(50):
                mask = int(rng.integers(0, 1 << (7 * n)))
                a = LhvAssignment(n, mask)
                # the mask read back from the +-1 values, bit by bit
                signs = [a[Observable(l, p, b)] for b in range(1, n + 1) for l, p in BOUND_LABELS]
                assert sum((s < 0) << i for i, s in enumerate(signs)) == mask

    def test_bit_positions(self):
        # bit (block-1)*7 + i flips the i-th bound label of that block
        for n in (1, 2):
            for block in range(1, n + 1):
                for i, (letter, particle) in enumerate(BOUND_LABELS):
                    a = LhvAssignment(n, 1 << ((block - 1) * 7 + i))
                    for b in range(1, n + 1):
                        for j, (l2, p2) in enumerate(BOUND_LABELS):
                            want = -1 if (b, j) == (block, i) else 1
                            assert a[Observable(l2, p2, b)] == want

    def test_all_plus(self):
        a = LhvAssignment(2, 0)
        assert all(a[Observable(l, p, b)] == 1 for l, p in BOUND_LABELS for b in (1, 2))

    def test_observable_outside_the_assignment_rejected(self):
        # a clear bit must not read as +1 for an observable that has no bit
        a = LhvAssignment(2, 0)
        for obs in (Observable("X", 1, 3), Observable("z", 1, 1), Observable("Z", 2, 2)):
            with pytest.raises(KeyError, match="not assigned"):
                a[obs]

    def test_out_of_range_bitmask_rejected(self):
        with pytest.raises(ValueError):
            LhvAssignment(1, 1 << 7)
        with pytest.raises(ValueError):
            LhvAssignment(1, -1)
        with pytest.raises(ValueError):
            LhvAssignment(2, 1 << 14)


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
        assert evaluate(LhvAssignment(1, 0)) == 2

    def test_block_sum_matches_table(self):
        # the table entry is the four signed menu terms summed under the
        # assignment's values, read one observable at a time
        for mask in range(128):
            a = LhvAssignment(1, mask)
            want = sum(
                t.sign * prod(a[Observable(l, p, 1)] for l, p in t.observables) for t in BLOCK_TERM_MENU
            )
            assert _BLOCK_SUM_TABLE[mask] == want


# ═══════════════════════════════════════════════════════════════════════════
# Evaluation
# ═══════════════════════════════════════════════════════════════════════════


class TestEvaluate:
    def test_all_plus_values(self):
        for n, want in ((1, 2), (2, 4), (6, 64)):
            assert evaluate(LhvAssignment(n, 0)) == want

    def test_single_block_exhaustive(self):
        # evaluate() internally cross-checks the expanded 4**N-term sum
        # against the block-product form for every one of these
        for mask in range(128):
            a = LhvAssignment(1, mask)
            assert evaluate(a) == _BLOCK_SUM_TABLE[mask]

    def test_two_blocks_factor(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            mask = int(rng.integers(0, 1 << 14))
            a = LhvAssignment(2, mask)
            want = _BLOCK_SUM_TABLE[mask & 127] * _BLOCK_SUM_TABLE[mask >> 7]
            assert evaluate(a) == want


# ═══════════════════════════════════════════════════════════════════════════
# Bounds
# ═══════════════════════════════════════════════════════════════════════════


class TestBounds:
    def test_brute_force_values(self):
        r1 = brute_force_bound(1)
        assert r1.max_value == 2
        assert r1.assignments_scanned == 128
        assert r1.argmax.mask == 0
        r2 = brute_force_bound(2)
        assert r2.max_value == 4
        assert r2.assignments_scanned == 16384
        assert r2.argmax.mask == 0

    def test_three_blocks_agrees_with_factored(self):
        r = brute_force_bound(3)
        assert r.max_value == factored_bound(3) == 8
        assert r.assignments_scanned == 1 << 21

    def test_argmax_attains_the_bound(self):
        for n in (1, 2):
            r = brute_force_bound(n)
            assert evaluate(r.argmax) == r.max_value

    def test_factored_values(self):
        for n in (1, 2, 3, 8, 20):
            assert factored_bound(n) == 2**n
        with pytest.raises(ValueError):
            factored_bound(0)

    def test_no_assignment_beats_the_bound(self):
        rng = np.random.default_rng(77)
        for n in (2, 3):
            cap = factored_bound(n)
            for _ in range(300):
                a = LhvAssignment(n, int(rng.integers(0, 1 << (7 * n))))
                assert abs(evaluate(a)) <= cap

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
            assert r.argmax.mask == want
            assert r.assignments_scanned == 1 << (7 * n)

    def test_brute_force_cap(self):
        for bad in (0, BRUTE_FORCE_BLOCK_CAP + 1):
            with pytest.raises(ValueError, match="exhaustive scan"):
                brute_force_bound(bad)
