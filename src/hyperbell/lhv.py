"""Local-realistic value of the Bell expression over deterministic assignments.

A deterministic local model assigns +1 or -1 to every measured observable.
The Bell expression factors over blocks, and within one block the four menu
terms multiply to -1 under any assignment, so an odd number of them is -1
and the block sum is always +2 or -2.  The attainable maximum is therefore
2**N, against the quantum value 4**N.

One certificate covers all 2**(7N) assignments of the seven observables in
the expression (per block: X1, Y1, x1, X2, Y2, y2, z2), at every N up to
``FLOAT_BLOCK_CAP``, without visiting them: an assignment's value is the
product of its blocks' sums, each read from the 128-entry table of one block's sums.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .bell import BLOCK_TERM_MENU
from .efficiency import FLOAT_BLOCK_CAP
from .pauli import _check_integer
from .state import LetterPair

# fixed bit order of one block's assignment mask
BOUND_LABELS: tuple[LetterPair, ...] = (("X", 1), ("Y", 1), ("x", 1), ("X", 2), ("Y", 2), ("y", 2), ("z", 2))

_BITS_PER_BLOCK = len(BOUND_LABELS)


def _block_sum_from_mask(mask: int) -> int:
    """Four-term block sum for a 7-bit assignment mask (set bit means -1)."""
    value = {lp: 1 - 2 * ((mask >> i) & 1) for i, lp in enumerate(BOUND_LABELS)}
    return sum(sign * prod(value[lp] for lp in letters) for sign, letters in BLOCK_TERM_MENU)


_BLOCK_SUM_TABLE = tuple(_block_sum_from_mask(m) for m in range(1 << _BITS_PER_BLOCK))


class LhvBoundResult(NamedTuple):
    """Maximum over every assignment and the lowest assignment mask reaching it.

    ``argmax_mask`` has bit (block-1)*7 + label position in ``BOUND_LABELS``
    set where that observable is -1; ``bounds`` reports it as
    ``argmax_bitmask``.
    """

    max_value: int
    argmax_mask: int
    assignments_scanned: int


def brute_force_bound(n_blocks: int) -> LhvBoundResult:
    """Exact deterministic maximum over all 128**N assignments ("brute force"
    names that coverage, not the method) and the lowest mask reaching it.

    ``reach[d]`` holds the products blocks 1..d can take, the maximum is the
    largest of ``reach[N]``, and from the top block (the mask's high bits) down
    each block takes its lowest setting from which the blocks below still reach it.
    """
    n_blocks = _check_integer("n_blocks", n_blocks, 1, FLOAT_BLOCK_CAP)
    table = _BLOCK_SUM_TABLE
    sums, reach = set(table), [{1}]
    for _ in range(n_blocks):
        reach.append({s * p for s in sums for p in reach[-1]})
    mask, prefix, best = 0, 1, max(reach[-1])
    for d in reversed(range(n_blocks)):
        setting = next(m for m, s in enumerate(table) if any(prefix * s * p == best for p in reach[d]))
        mask |= setting << _BITS_PER_BLOCK * d
        prefix *= table[setting]
    return LhvBoundResult(best, mask, len(table) ** n_blocks)
