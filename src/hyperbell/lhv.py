"""Local-realistic value of the Bell expression over deterministic assignments.

A deterministic local model assigns +1 or -1 to every measured observable.
The Bell expression factors over blocks, and within one block the four menu
terms multiply to -1 under any assignment, so an odd number of them is -1
and the block sum is always +2 or -2.  The attainable maximum is therefore
2**N, against the quantum value 4**N.

The exhaustive search forms the value of every one of the 2**(7N)
assignments of the seven observables that appear in the expression (per
block: X1, Y1, x1, X2, Y2, y2, z2) with numpy: the block-sum products of the
low N-1 blocks once, in ascending mask order, then one pass per setting of
the top block.
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
    """Exact deterministic maximum by exhaustive scan of every assignment's value.

    ``lower`` holds the block-sum products of the low N-1 blocks, indexed by
    their 7(N-1)-bit mask; each of the 128 top-block settings then scales it
    by that block's sum, so a pass covers at most 2**14 masks.  Among equal
    maxima the lowest bitmask is reported.
    """
    if not 1 <= n_blocks <= BRUTE_FORCE_BLOCK_CAP:
        raise ValueError(
            f"exhaustive scan supports 1..{BRUTE_FORCE_BLOCK_CAP} blocks, got {n_blocks}"
        )
    table = np.array(_BLOCK_SUM_TABLE, dtype=np.int64)
    lower = np.ones(1, dtype=np.int64)
    for _ in range(n_blocks - 1):
        # the higher block's bits are the high bits of the index
        lower = np.multiply.outer(table, lower).ravel()
    best_value, best_mask = None, 0
    for top, top_sum in enumerate(table.tolist()):
        values = top_sum * lower
        k = int(values.argmax())  # the first maximum: this pass's lowest mask
        # strictly greater only, so an earlier (lower) mask keeps a tie
        if best_value is None or values[k] > best_value:
            best_value, best_mask = int(values[k]), top * lower.size + k
    return LhvBoundResult(
        best_value, LhvAssignment.from_bitmask(best_mask, n_blocks), table.size * lower.size
    )


def factored_bound(n_blocks: int) -> int:
    """Deterministic maximum via the block structure: (per-block max)**N."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    return max(_BLOCK_SUM_TABLE) ** n_blocks
