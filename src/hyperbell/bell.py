"""The Bell expression: a product of four-way block choices, expanded.

Every block contributes one of four signed product terms,

    +(X1 X2 z2)   -(Y1 Y2 z2)   +(X1 x1 Y2 y2)   +(Y1 x1 X2 y2)

and the Bell expression is the product over blocks of (choice1 + choice2 +
choice3 + choice4), expanded into 4**N signed correlation terms.  On the
block-structured state every signed term takes the value +1, so the quantum
value is exactly 4**N.

Terms are streamed in lexicographic choice order (block 1 is the most
significant base-4 digit) and never materialized as a whole.  A term is its
low part, the last LOW_BLOCKS blocks, times its high prefix, the blocks
above, on disjoint qubits; both parts are read from joint tables built once
per N, and each chunk of numpy arrays holds the terms of one prefix.  The
dense backend reads the chunks' operators.  The stabilizer backend never
eliminates a term on its own: it eliminates the two tables once and combines
an entry of each per term (``state._product_expectations``).  The one-term
path ``term_at`` reads the per-block table of 4N operators that the joint
tables are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .pauli import Observable, PauliOp, _xz_exponent
from .state import (
    EXACT_BLOCK_CAP,
    DenseState,
    LetterPair,
    StabilizerState,
    _dense_expect_xz,
    _product_expectations,
    block_operator,
    build_state,
    dense_state,
)


@dataclass(frozen=True, slots=True)
class BlockTerm:
    """One entry of the per-block menu: a label, a sign, and its observables."""

    label: str
    sign: int
    observables: tuple[LetterPair, ...]


BLOCK_TERM_MENU: tuple[BlockTerm, ...] = (
    BlockTerm("XXz", +1, (("X", 1), ("X", 2), ("z", 2))),
    BlockTerm("YYz", -1, (("Y", 1), ("Y", 2), ("z", 2))),
    BlockTerm("XxYy", +1, (("X", 1), ("x", 1), ("Y", 2), ("y", 2))),
    BlockTerm("YxXy", +1, (("Y", 1), ("x", 1), ("X", 2), ("y", 2))),
)


@dataclass(frozen=True, slots=True)
class BellTerm:
    """One expanded term: per-block menu choices, overall sign, its operator."""

    n_blocks: int
    index: int
    choices: tuple[int, ...]
    sign: int
    operator: PauliOp

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(BLOCK_TERM_MENU[c].label for c in self.choices)

    def observables(self) -> Iterator[Observable]:
        for block, c in enumerate(self.choices, start=1):
            for letter, particle in BLOCK_TERM_MENU[c].observables:
                yield Observable(letter, particle, block)


# a term's last LOW_BLOCKS blocks are read from one joint table of
# 4**LOW_BLOCKS entries per N, and the blocks above them, its high prefix,
# from a second; the exact backends take one chunk per prefix, so their
# memory stays flat in N
LOW_BLOCKS = 6
_MENU_SIGNS = np.array([t.sign for t in BLOCK_TERM_MENU])


def n_terms(n_blocks: int) -> int:
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    return 4**n_blocks


def _digits(n_blocks: int, index: int | np.ndarray) -> tuple:
    """Per-block menu choices of a term index, block 1 first (base-4 decode).

    Works alike on a Python int and on a numpy integer array of indices.
    """
    return tuple((index >> 2 * (n_blocks - 1 - block)) & 3 for block in range(n_blocks))


@cache
def _block_tables(n_blocks: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Raw (x, z, e) of every menu choice placed on every block, built once per N.

    Blocks occupy disjoint qubits, so a term's operator is the OR of its
    block masks and its phase exponent is the sum of the block exponents.
    Tuples keep the shared cached table immutable.
    """
    tables = []
    for block in range(1, n_blocks + 1):
        ops = [
            block_operator(+1, t.observables, block, n_blocks) for t in BLOCK_TERM_MENU
        ]
        tables.append(tuple((op.x, op.z, _xz_exponent(op)) for op in ops))
    return tuple(tables)


def term_at(n_blocks: int, index: int) -> BellTerm:
    """The index-th term of the lexicographic stream."""
    if not 0 <= index < n_terms(n_blocks):
        raise ValueError(f"term index {index} out of range for {n_blocks} blocks")
    choices = _digits(n_blocks, index)
    x = z = e = 0
    sign = 1
    for row, c in zip(_block_tables(n_blocks), choices):
        bx, bz, be = row[c]
        x |= bx
        z |= bz
        e += be
        sign *= BLOCK_TERM_MENU[c].sign
    e %= 4
    op = PauliOp(4 * n_blocks, x, z, (e - (x & z).bit_count()) % 4)
    return BellTerm(n_blocks, index, choices, sign, op)


def enumerate_terms(n_blocks: int) -> Iterator[BellTerm]:
    """Stream every expanded term in index order, never materialized."""
    for index in range(n_terms(n_blocks)):
        yield term_at(n_blocks, index)


def _joint_table(masks: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, z, e, sign) of every combination of menu choices on some blocks.

    ``masks`` is [block, choice, (x, z)] and ``exps`` [block, choice]; entry i
    takes its choices from the base-4 digits of i, the first block most
    significant.  Blocks sit on disjoint qubits, so masks OR together and
    exponents add with no cross phase; signs multiply.
    """
    size = 4 ** len(exps)
    x, z = np.zeros((2, size), dtype=np.uint64)
    e, sign = np.zeros(size, dtype=np.int64), np.ones(size, dtype=np.int64)
    for mask, exp, choice in zip(masks, exps, _digits(len(exps), np.arange(size))):
        x |= mask[:, 0].take(choice)
        z |= mask[:, 1].take(choice)
        e += exp.take(choice)
        sign *= _MENU_SIGNS.take(choice)
    return x, z, e, sign


@cache
def _chunk_tables(n_blocks: int) -> tuple[int, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(k, high, low): the joint (x, z, e, sign) tables of a term's two parts.

    ``low`` covers the last k = min(N, LOW_BLOCKS) blocks and is indexed by a
    term's low k base-4 digits, index & (4**k - 1); ``high`` covers the first
    N - k blocks and is indexed by the term's high prefix, index >> 2k (one
    identity entry when N <= LOW_BLOCKS).  Built once per N; read-only, since
    the cache shares them.
    """
    tables = np.array(_block_tables(n_blocks), dtype=np.uint64)  # [block, choice, (x, z, e)]
    masks, exps = tables[..., :2], tables[..., 2].astype(np.int64)
    k = min(n_blocks, LOW_BLOCKS)
    high = _joint_table(masks[: n_blocks - k], exps[: n_blocks - k])
    low = _joint_table(masks[n_blocks - k :], exps[n_blocks - k :])
    for array in (*low, *high):
        array.flags.writeable = False
    return k, high, low


def _term_chunks(
    n_blocks: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Every term as arrays, one chunk per high prefix, in index order.

    Yields (first index, x, z, e, sign): uint64 masks and the int64 exponent
    in X^x Z^z normal form, and each term's sign; a chunk is the low table
    with its prefix's entry folded in.
    """
    k, high, (x, z, e, sign) = _chunk_tables(n_blocks)
    for prefix, (hx, hz, he, hsign) in enumerate(zip(*high)):
        yield prefix << 2 * k, x | hx, z | hz, e + he, sign * hsign


def _signed_chunks(n_blocks: int, state: StabilizerState) -> Iterator[tuple[int, np.ndarray]]:
    """Signed stabilizer expectations of every term, one chunk per high prefix:
    (first index, values).

    A term is its low-table entry times its prefix's entry, on disjoint
    qubits, so ``_product_expectations`` eliminates the two tables once and
    combines them per term.  Each entry carries its sign in its phase: a
    sign of -1 adds 2 to the exponent.
    """
    k, high, low = _chunk_tables(n_blocks)
    signed = [(x, z, e + 1 - sign) for x, z, e, sign in (low, high)]
    for prefix, values in enumerate(_product_expectations(state, *signed)):
        yield prefix << 2 * k, values


def _dense_signed(n_blocks: int, psi: DenseState) -> Iterator[tuple[int, np.ndarray]]:
    """``_signed_chunks`` on the explicit statevector, each value rounded to an integer."""
    for lo, x, z, e, sign in _term_chunks(n_blocks):
        values = sign * _dense_expect_xz(psi, x, z, e)
        signed = np.rint(values)
        off = np.flatnonzero(np.abs(values - signed) > 1e-12)
        if off.size:
            k = off[0]
            raise AssertionError(f"non-integer term expectation: term {lo + k} -> {values[k]}")
        yield lo, signed.astype(np.int64)


def quantum_value(n_blocks: int, backend: str = "stabilizer") -> int:
    """Exact value of the Bell expression on the state: 4**N.

    Evaluates every expanded term individually and requires each signed
    expectation to be +1; any other value is a hard failure.
    """
    if backend not in ("stabilizer", "dense"):
        raise ValueError(f"unknown backend {backend!r}")
    if n_blocks > EXACT_BLOCK_CAP:
        raise ValueError(f"exact evaluation capped at {EXACT_BLOCK_CAP} blocks, got {n_blocks}")
    if backend == "dense":
        chunks = _dense_signed(n_blocks, dense_state(n_blocks))
    else:
        chunks = _signed_chunks(n_blocks, build_state(n_blocks))
    total = n_bad = 0
    head: list[tuple[int, int]] = []
    for lo, signed in chunks:
        total += int(signed.sum())
        bad = np.flatnonzero(signed != 1)
        n_bad += bad.size
        head += [(lo + int(i), int(signed[i])) for i in bad[: 5 - len(head)]]
    _raise_if_bad(n_bad, head)
    return total


def _raise_if_bad(n_bad: int, head: list[tuple[int, int]]) -> None:
    """Fail on any term that is not +1; ``head`` holds the first five, in order."""
    if n_bad:
        listed = ", ".join(f"term {i} -> {v:+d}" for i, v in head)
        raise ValueError(
            f"{n_bad} expanded terms do not contribute +1 ({listed}{', ...' if n_bad > 5 else ''})"
        )
