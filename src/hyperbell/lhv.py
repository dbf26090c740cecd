"""Local-realistic value of the Bell expression over deterministic assignments.

A deterministic local model assigns +1 or -1 to every measured observable.
The Bell expression factors over blocks, and within one block the four menu
terms multiply to -1 under any assignment, so an odd number of them is -1
and the block sum is always +2 or -2.  The attainable maximum is therefore
2**N, against the quantum value 4**N.

The exhaustive search scans the 2**(7N) assignments of the seven observables
that appear in the expression (per block: X1, Y1, x1, X2, Y2, y2, z2) in
Gray-code order, updating one block sum per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .bell import BLOCK_TERM_MENU, enumerate_terms
from .pauli import Observable
from .state import LetterPair

BRUTE_FORCE_BLOCK_CAP = 3

# fixed bit order of one block's assignment mask
BOUND_LABELS: tuple[LetterPair, ...] = (
    ("X", 1),
    ("Y", 1),
    ("x", 1),
    ("X", 2),
    ("Y", 2),
    ("y", 2),
    ("z", 2),
)

_LABEL_POS = {lp: i for i, lp in enumerate(BOUND_LABELS)}
_BITS_PER_BLOCK = len(BOUND_LABELS)


def _block_sum_from_mask(mask: int) -> int:
    """Four-term block sum for a 7-bit assignment mask (set bit means -1)."""
    values = [1 - 2 * ((mask >> i) & 1) for i in range(_BITS_PER_BLOCK)]
    return sum(
        term.sign * prod(values[_LABEL_POS[lp]] for lp in term.observables)
        for term in BLOCK_TERM_MENU
    )


_BLOCK_SUM_TABLE = tuple(_block_sum_from_mask(m) for m in range(1 << _BITS_PER_BLOCK))


class LhvAssignment:
    """A total deterministic assignment of +-1 to the bound observables."""

    def __init__(self, n_blocks: int, values: dict[Observable, int]):
        for block in range(1, n_blocks + 1):
            for letter, particle in BOUND_LABELS:
                obs = Observable(letter, particle, block)
                if values.get(obs) not in (1, -1):
                    raise ValueError(f"assignment missing or invalid for {obs}")
        self.n_blocks = n_blocks
        self.values = dict(values)

    def __getitem__(self, obs: Observable) -> int:
        return self.values[obs]

    @classmethod
    def from_bitmask(cls, mask: int, n_blocks: int) -> "LhvAssignment":
        """Bit (block-1)*7 + label position; a set bit assigns -1."""
        if not 0 <= mask < 1 << (_BITS_PER_BLOCK * n_blocks):
            raise ValueError(f"bitmask {mask} out of range for {n_blocks} blocks")
        values = {}
        for block in range(1, n_blocks + 1):
            for i, (letter, particle) in enumerate(BOUND_LABELS):
                bit = (mask >> ((block - 1) * _BITS_PER_BLOCK + i)) & 1
                values[Observable(letter, particle, block)] = 1 - 2 * bit
        return cls(n_blocks, values)

    def to_bitmask(self) -> int:
        mask = 0
        for block in range(1, self.n_blocks + 1):
            for i, (letter, particle) in enumerate(BOUND_LABELS):
                if self.values[Observable(letter, particle, block)] == -1:
                    mask |= 1 << ((block - 1) * _BITS_PER_BLOCK + i)
        return mask

    @classmethod
    def all_plus(cls, n_blocks: int) -> "LhvAssignment":
        return cls.from_bitmask(0, n_blocks)

    @classmethod
    def random(cls, n_blocks: int, rng: np.random.Generator) -> "LhvAssignment":
        mask = 0
        for chunk in range(n_blocks):  # keep draws exact for any block count
            mask |= int(rng.integers(0, 1 << _BITS_PER_BLOCK)) << (chunk * _BITS_PER_BLOCK)
        return cls.from_bitmask(mask, n_blocks)


def block_sum(assignment: LhvAssignment, block: int) -> int:
    """Value of one block's four-term sum under the assignment."""
    mask = 0
    for i, (letter, particle) in enumerate(BOUND_LABELS):
        if assignment[Observable(letter, particle, block)] == -1:
            mask |= 1 << i
    return _BLOCK_SUM_TABLE[mask]


def evaluate(assignment: LhvAssignment, n_blocks: int | None = None) -> int:
    """Bell-expression value of a deterministic assignment.

    Computed as the product of block sums; for N <= 3 the expanded 4**N-term
    sum is also evaluated and cross-checked against the product form.
    """
    if n_blocks is None:
        n_blocks = assignment.n_blocks
    if n_blocks != assignment.n_blocks:
        raise ValueError("assignment size does not match n_blocks")
    by_product = prod(block_sum(assignment, b) for b in range(1, n_blocks + 1))
    if n_blocks <= 3:
        by_terms = _evaluate_by_terms(assignment, n_blocks)
        if by_terms != by_product:
            raise AssertionError(
                f"term sum {by_terms} disagrees with block product {by_product}"
            )
    return by_product


def _evaluate_by_terms(assignment: LhvAssignment, n_blocks: int) -> int:
    return sum(
        term.sign * prod(assignment[o] for o in term.observables())
        for term in enumerate_terms(n_blocks)
    )


@dataclass(frozen=True, slots=True)
class LhvBoundResult:
    max_value: int
    argmax: LhvAssignment
    assignments_scanned: int


def brute_force_bound(n_blocks: int) -> LhvBoundResult:
    """Exact deterministic maximum by exhaustive Gray-code scan.

    Each step flips one observable, so only that block's sum is recomputed.
    Among equal maxima the lowest bitmask is reported.
    """
    if not 1 <= n_blocks <= BRUTE_FORCE_BLOCK_CAP:
        raise ValueError(
            f"exhaustive scan supports 1..{BRUTE_FORCE_BLOCK_CAP} blocks, got {n_blocks}"
        )
    n_bits = _BITS_PER_BLOCK * n_blocks
    total = 1 << n_bits
    sums = [_BLOCK_SUM_TABLE[0]] * n_blocks
    best_value = prod(sums)
    best_mask = 0
    gray = 0
    table = _BLOCK_SUM_TABLE
    for i in range(1, total):
        new_gray = i ^ (i >> 1)
        changed = (gray ^ new_gray).bit_length() - 1
        gray = new_gray
        j = changed // _BITS_PER_BLOCK
        sums[j] = table[(gray >> (j * _BITS_PER_BLOCK)) & 127]
        value = prod(sums)
        if value > best_value or (value == best_value and gray < best_mask):
            best_value = value
            best_mask = gray
    return LhvBoundResult(
        best_value, LhvAssignment.from_bitmask(best_mask, n_blocks), total
    )


def factored_bound(n_blocks: int) -> int:
    """Deterministic maximum via the block structure: (per-block max)**N."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    return max(_BLOCK_SUM_TABLE) ** n_blocks
