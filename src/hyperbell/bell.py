"""The Bell expression: a product of four-way block choices, expanded.

Every block contributes one of four signed product terms,

    +(X1 X2 z2)   -(Y1 Y2 z2)   +(X1 x1 Y2 y2)   +(Y1 x1 X2 y2)

and the Bell expression is the product over blocks of (choice1 + choice2 +
choice3 + choice4), expanded into 4**N signed correlation terms.  On the
block-structured state every signed term takes the value +1, so the quantum
value is exactly 4**N.

Terms are streamed in lexicographic choice order (block 1 is the most
significant base-4 digit) and never materialized as a whole: the exact
evaluator works through them in fixed-size chunks of numpy arrays.  Both it
and the one-term path ``term_at`` assemble terms from the per-block table of
4N operators, which is built once per N and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

import numpy as np

from .pauli import Observable, PauliOp, _xz_exponent
from .state import (
    EXACT_BLOCK_CAP,
    LetterPair,
    _expect_xz_batch,
    block_operator,
    build_state,
    dense_expectation,
    dense_state,
)


@dataclass(frozen=True, slots=True)
class BlockTerm:
    """One entry of the per-block menu: a label, a sign, and its observables."""

    label: str
    sign: int
    observables: tuple[LetterPair, ...]

    def particle_observables(self, particle: int) -> tuple[str, ...]:
        return tuple(letter for letter, p in self.observables if p == particle)


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


@dataclass(frozen=True, slots=True)
class MeasurementSetting:
    """One observer's local setting: the observables it measures, per block."""

    particle: int
    blocks: tuple[tuple[Observable, ...], ...]

    def all_observables(self) -> Iterator[Observable]:
        for group in self.blocks:
            yield from group


# terms per numpy pass of the exact evaluator; keeps its memory flat in N
EVAL_CHUNK = 4096


def n_terms(n_blocks: int) -> int:
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


def enumerate_terms(
    n_blocks: int, start: int = 0, stop: int | None = None
) -> Iterator[BellTerm]:
    """Stream the expanded terms for indices [start, stop), never materialized."""
    total = n_terms(n_blocks)
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"bad term range [{start}, {stop}) for {n_blocks} blocks")
    for index in range(start, stop):
        yield term_at(n_blocks, index)


def settings_for_term(term: BellTerm) -> tuple[MeasurementSetting, MeasurementSetting]:
    """Split a term into the two observers' local measurement settings."""
    settings = []
    for particle in (1, 2):
        blocks = tuple(
            tuple(
                Observable(letter, particle, block)
                for letter, p in BLOCK_TERM_MENU[c].observables
                if p == particle
            )
            for block, c in zip(range(1, term.n_blocks + 1), term.choices)
        )
        settings.append(MeasurementSetting(particle, blocks))
    return settings[0], settings[1]


def _signed_chunks(
    n_blocks: int, rows: list[tuple[int, int, int, int, int]], start: int, stop: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Signed expectations of terms [start, stop), EVAL_CHUNK terms at a time.

    Yields (first index, values).  Works in X^x Z^z normal form throughout;
    blocks sit on disjoint qubits, so masks OR together and exponents add
    with no cross phase.
    """
    tables = np.array(_block_tables(n_blocks), dtype=np.uint64)  # [block, choice, (x, z, e)]
    exps = tables[..., 2].astype(np.int64)
    signs = np.array([t.sign for t in BLOCK_TERM_MENU])
    for lo in range(start, stop, EVAL_CHUNK):
        index = np.arange(lo, min(lo + EVAL_CHUNK, stop))
        x = np.zeros(index.size, dtype=np.uint64)
        z = np.zeros(index.size, dtype=np.uint64)
        e = np.zeros(index.size, dtype=np.int64)
        sign = np.ones(index.size, dtype=np.int64)
        for block, choice in enumerate(_digits(n_blocks, index)):
            x |= np.take(tables[block, :, 0], choice)
            z |= np.take(tables[block, :, 1], choice)
            e += np.take(exps[block], choice)
            sign *= np.take(signs, choice)
        yield lo, sign * _expect_xz_batch(rows, x, z, e)


def _dense_signed(n_blocks: int) -> np.ndarray:
    """Signed expectations of every term on the explicit statevector."""
    psi = dense_state(n_blocks)
    signed = []
    for term in enumerate_terms(n_blocks):
        value = term.sign * dense_expectation(psi, term.operator)
        if abs(value - round(value)) > 1e-12:
            raise AssertionError(f"non-integer term expectation: {value}")
        signed.append(round(value))
    return np.array(signed, dtype=np.int64)


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
        chunks: Iterable[tuple[int, np.ndarray]] = [(0, _dense_signed(n_blocks))]
    else:
        chunks = _signed_chunks(n_blocks, build_state(n_blocks)._rows, 0, n_terms(n_blocks))
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
