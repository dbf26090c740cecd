"""Local-realistic value of the Bell expression over deterministic assignments.

A deterministic local model assigns +1 or -1 to every measured observable.
The Bell expression factors over blocks, and within one block the four menu
terms multiply to -1 under any assignment, so an odd number of them is -1
and the block sum is always +2 or -2.  The attainable maximum is therefore
2**N, against the quantum value 4**N.

The exhaustive search forms the value of every one of the 2**(7N)
assignments of the seven observables that appear in the expression (per
block: X1, Y1, x1, X2, Y2, y2, z2) with numpy, imported only when the scan
runs: the block-sum products of the low N-1 blocks once, in ascending mask
order, then one pass per setting of the top block.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .bell import BLOCK_TERM_MENU
from .pauli import _check_integer
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
        sign * prod(values[_LABEL_POS[lp]] for lp in letters) for sign, letters in BLOCK_TERM_MENU
    )


_BLOCK_SUM_TABLE = tuple(_block_sum_from_mask(m) for m in range(1 << _BITS_PER_BLOCK))


class LhvBoundResult(NamedTuple):
    """Exhaustive-scan maximum and the lowest assignment mask reaching it.

    ``argmax_mask`` has bit (block-1)*7 + label position in ``BOUND_LABELS``
    set where that observable is -1; ``bounds`` reports it as
    ``argmax_bitmask``.
    """

    max_value: int
    argmax_mask: int
    assignments_scanned: int


def brute_force_bound(n_blocks: int) -> LhvBoundResult:
    """Exact deterministic maximum by exhaustive scan of every assignment's value.

    ``lower`` holds the block-sum products of the low N-1 blocks, indexed by
    their 7(N-1)-bit mask; each of the 128 top-block settings then scales it
    by that block's sum, so a pass covers at most 2**14 masks.  Among equal
    maxima the lowest bitmask is reported.
    """
    n_blocks = _check_integer("n_blocks", n_blocks)
    if not 1 <= n_blocks <= BRUTE_FORCE_BLOCK_CAP:
        raise ValueError(
            f"exhaustive scan supports 1..{BRUTE_FORCE_BLOCK_CAP} blocks, got {n_blocks}"
        )
    import numpy as np

    table = np.array(_BLOCK_SUM_TABLE, dtype=np.int8)  # each +-2: a product of 3 fits int8
    lower = np.ones(1, dtype=np.int8)
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
    return LhvBoundResult(best_value, best_mask, table.size * lower.size)


def factored_bound(n_blocks: int) -> int:
    """Deterministic maximum via the block structure: (per-block max)**N."""
    return max(_BLOCK_SUM_TABLE) ** _check_integer("n_blocks", n_blocks, 1)
