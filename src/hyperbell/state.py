"""The block-structured two-particle state and its exact expectation backends.

Each block j contributes one qubit pair to each particle, prepared in

    (|00,00> + |01,01> + |10,10> - |11,11>) / 2

where |ab,cd> means upper/lower slots of particle 1 then particle 2.  The
full N-block state is the tensor product of the blocks.

Two backends are provided.  The stabilizer backend represents the state by
4N signed commuting generators and evaluates Pauli expectations exactly over
the integers via GF(2) elimination with phase tracking.  The dense backend
builds the 2**(4N) statevector (capped at N <= 5) and serves as an
independent cross-check oracle; its expectations sum over the 4**N nonzero
amplitudes only.

The stabilizer backend keeps the group in row-reduced form (Aaronson and
Gottesman, PRA 70, 052328, 2004): one row per generator, each with a single
pivot bit on the x or the z mask that no other row touches.  An operator's
coefficients over the rows are then its own bits at the pivots, so the group
element that can cancel it is fixed before any row is multiplied in.  That
product is read from tables ("four Russians"): the pivots are cut into 8-bit
windows of the x and the z mask, and each window tabulates the product of
the rows selected by each of its keys.  Eliminating an operator costs one
lookup per window (6 at N = 9), on whole arrays of operators at once.  A
product of two operators on disjoint qubits is eliminated from its factors'
eliminations, with a sign from their masks (``_product_expectations``), so
the 4**N Bell terms, each a product of two table entries, cost one
elimination of each table and a few array operations per term.  The state
is built once per N per process (``build_state``) and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from typing import Iterator

import numpy as np

from .pauli import Observable, PauliOp, _times, _xz_exponent, commutes, pauli_mul, pauli_to_string

DENSE_BLOCK_CAP = 5
# Exact evaluation visits all 4**N Bell terms, about 0.4 s at N=12 on a
# 2-core machine and four times that per further block.
EXACT_BLOCK_CAP = 12
# the stabilizer backend holds each Pauli mask in one uint64 word
STABILIZER_QUBIT_CAP = 64
# pivot bits per table lookup in the elimination kernel
_WINDOW = 8

LetterPair = tuple[str, int]

# The seven per-block product equalities satisfied with certainty, in fixed
# order, as (expected sign, observables).  Case picks the slot.
PERFECT_CORRELATIONS: tuple[tuple[int, tuple[LetterPair, ...]], ...] = (
    (+1, (("X", 1), ("X", 2), ("z", 2))),
    (-1, (("Y", 1), ("Y", 2), ("z", 2))),
    (+1, (("x", 1), ("Z", 2), ("x", 2))),
    (+1, (("X", 1), ("z", 1), ("X", 2))),
    (-1, (("Y", 1), ("z", 1), ("Y", 2))),
    (-1, (("Z", 1), ("y", 1), ("y", 2))),
    (+1, (("z", 1), ("z", 2))),
)

# The first four certainty relations above generate the block's stabilizer
# independently.  The natural-looking choice ending in (z1 z2) is dependent:
# (X1 X2 z2) times (X1 z1 X2) already equals (z1 z2), so the signed
# (Y1 Y2 z2) relation is used as the fourth generator instead.  Independence
# and uniqueness of the stabilized state are validated against the dense
# backend in the tests.
BLOCK_GENERATORS: tuple[tuple[int, tuple[LetterPair, ...]], ...] = PERFECT_CORRELATIONS[:4]


def _op_repr(op: PauliOp) -> str:
    # the named string form only exists on 4N-qubit registers
    if op.n % 4 == 0:
        return pauli_to_string(op)
    return f"PauliOp(n={op.n}, x={op.x:#x}, z={op.z:#x}, e={op.e})"


def block_operator(
    sign: int, letters: tuple[LetterPair, ...], block: int, n_blocks: int
) -> PauliOp:
    """Signed product of named observables, all attached to one block."""
    op = reduce(
        pauli_mul,
        (Observable(letter, particle, block).to_pauli(n_blocks) for letter, particle in letters),
    )
    return -op if sign < 0 else op


class StabilizerState:
    """State defined as the joint +1 eigenvector of signed Pauli generators.

    Requires a maximal set: exactly n mutually commuting, independent,
    Hermitian generators on n qubits, so the stabilized state is unique.
    """

    def __init__(self, generators: tuple[PauliOp, ...]):
        if not generators:
            raise ValueError("at least one generator required")
        n = generators[0].n
        for g in generators:
            if g.n != n:
                raise ValueError("generators act on registers of different sizes")
            if not g.is_hermitian:
                raise ValueError(f"generator has non-Hermitian phase: {_op_repr(g)}")
        if n > STABILIZER_QUBIT_CAP:
            raise ValueError(
                f"stabilizer backend capped at {STABILIZER_QUBIT_CAP} qubits, got {n}"
            )
        if len(generators) != n:
            raise ValueError(
                f"need exactly {n} generators for a unique {n}-qubit state, got {len(generators)}"
            )
        for i, a in enumerate(generators):
            for b in generators[i + 1 :]:
                if not commutes(a, b):
                    raise ValueError(
                        f"generators do not commute: {_op_repr(a)} vs {_op_repr(b)}"
                    )
        self.generators = tuple(generators)
        self.n = n
        self._rows = self._reduced_rows()
        self._tables = _window_tables(self._rows)

    def _reduced_rows(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Row-reduced rows (xsel, zsel, x, z, e) of the group, pivots descending.

        Each row is a group element in X^x Z^z normal form with exponent e,
        satisfying row|psi> = |psi>; (xsel|zsel) is its pivot bit, and no
        other row has a bit there.
        """
        n = self.n
        work = [(g.x, g.z, _xz_exponent(g)) for g in self.generators]
        rows: list[tuple[int, int, int, int, int]] = []
        for bit in range(2 * n - 1, -1, -1):
            xsel = 1 << (bit - n) if bit >= n else 0
            zsel = 0 if bit >= n else 1 << bit
            hit = next(
                (i for i, (x, z, _) in enumerate(work) if (x & xsel) or (z & zsel)), None
            )
            if hit is None:
                continue
            pivot = work.pop(hit)
            rows.append((xsel, zsel, *pivot))
            work = [_times(w, pivot) if (w[0] & xsel) or (w[1] & zsel) else w for w in work]
        for x, z, e in work:
            # a row reduced to the identity mask means the inputs were dependent
            if e == 2:
                raise ValueError("contradictory generator signs: -identity is in the group")
            raise ValueError("generators are dependent")
        # back-substitution, last pivot first: row k has no bit at an earlier
        # row's pivot, and by its turn none at a later one, so multiplying it
        # into an earlier row clears k's pivot there and sets no other
        for k in range(len(rows) - 1, -1, -1):
            xsel, zsel, *pivot = rows[k]
            for j, (sx, sz, x, z, e) in enumerate(rows[:k]):
                if (x & xsel) or (z & zsel):
                    rows[j] = (sx, sz, *_times((x, z, e), pivot))
        return tuple(rows)


def _window_tables(
    rows: tuple[tuple[int, int, int, int, int], ...],
) -> tuple[tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Read-only product tables (side, lo, pivots, x, z, e) of the reduced rows, per window.

    A window is _WINDOW bits of the x mask (side 0) or the z mask (side 1)
    from bit ``lo`` that holds a pivot; ``pivots`` marks them, shifted down
    by ``lo``.  Entry ``key``, for each subset of ``pivots``, is the product of
    the rows it selects (they commute), built from the entry without its lowest
    bit.  Other entries stay the identity: ``_eliminate`` masks keys by ``pivots``.
    """
    tables = []
    for side in (0, 1):
        for lo in range(0, STABILIZER_QUBIT_CAP, _WINDOW):
            row_at = {
                (row[side] >> lo).bit_length() - 1: row[2:]
                for row in rows
                if (row[side] >> lo) & ((1 << _WINDOW) - 1)
            }
            if not row_at:
                continue
            pivots = sum(1 << b for b in row_at)
            entries = [(0, 0, 0)] * (pivots + 1)
            key = 0
            while key := (key - pivots) & pivots:
                low = (key & -key).bit_length() - 1
                entries[key] = _times(entries[key & (key - 1)], row_at[low])
            table = np.array(list(zip(*entries)), dtype=np.uint64)
            table.flags.writeable = False  # and so are its rows
            x, z, e = table
            tables.append((side, lo, pivots, x, z, e.view(np.int64)))  # e in 0..3
    return tuple(tables)


@cache
def build_state(n_blocks: int) -> StabilizerState:
    """Stabilizer form of the N-block state: 4 generators per block; cached per N."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    gens = [
        block_operator(sign, letters, block, n_blocks)
        for block in range(1, n_blocks + 1)
        for sign, letters in BLOCK_GENERATORS
    ]
    return StabilizerState(tuple(gens))


def _eliminate(state: StabilizerState, x: np.ndarray, z: np.ndarray, e: np.ndarray) -> None:
    """Multiply each operator i**e X^x Z^z, in place, by the group element its
    pivot bits select, across arrays of uint64 masks and int64 exponents.

    Each window's key is read from the operator's own masks, and the table
    entry it selects is multiplied in; the masks clear exactly when the
    operator is in the group up to phase.
    """
    masks = (x, z)
    keys = [
        ((masks[side] >> np.uint64(lo)) & np.uint64(pivots)).view(np.int64)
        for side, lo, pivots, *_ in state._tables
    ]
    for key, (*_, tx, tz, te) in zip(keys, state._tables):
        px = tx.take(key)
        e += te.take(key) + 2 * (np.bitwise_count(z & px) & 1)
        x ^= px
        z ^= tz.take(key)


def _verdict(x: np.ndarray, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Expectations, as int64, of operators left as i**e X^x Z^z by elimination:
    0 unless the masks cleared, else the sign the phase leaves."""
    cleared = (x | z) == 0
    e &= 3  # e mod 4, also for negative e
    # an odd phase on a cleared operator is impossible for a Hermitian
    # operator; guards the phase algebra
    if np.any(e & cleared):
        raise AssertionError("odd phase after elimination of a Hermitian operator")
    return np.where(cleared, 1 - (e & 2), 0)


def _expect_xz(
    state: StabilizerState, x: np.ndarray, z: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Expectations of i**e X^x Z^z across arrays of uint64 masks and int64
    exponents.  Updates the arrays in place and returns the expectations as int64.
    """
    _eliminate(state, x, z, e)
    return _verdict(x, z, e)


def _product_expectations(
    state: StabilizerState,
    low: tuple[np.ndarray, np.ndarray, np.ndarray],
    high: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Iterator[np.ndarray]:
    """Expectations of every product L·H, one array over the L for each H.

    ``low`` and ``high`` are (x, z, e) arrays of operators in X^x Z^z normal
    form, every L on qubits disjoint from every H, so L·H has masks x_L | x_H,
    z_L | z_H and exponent e_L + e_H.  Its bit at each pivot is L's or H's,
    so the group element that eliminates it is R_L·R_H, where R_L eliminates
    L and R_H eliminates H.  Both tables are eliminated once, to L' = L·R_L and
    H' = H·R_H, and each product is then combined from the two:

        L·H·R_L·R_H = (-1)**w(H, R_L) · L'·H'

    with w(A, B) = parity(x_A & z_B) ^ parity(z_A & x_B) the symplectic form,
    which is bilinear in the masks.  The masks of H are those of H' XOR those
    of R_H, and rows commute, so w(H, R_L) = w(H', R_L) ^ w(R_H, R_L) =
    w(H', R_L).  Moving Z^z_L' past X^x_H' puts L'·H' in normal form at the
    sign parity(z_L' & x_H'), and z_L' ^ z_RL = z_L, so the product's
    exponent is

        e_L' + e_H' + 2 * parity((z_L & x_H') ^ (x_RL & z_H'))

    where x_RL = x_L ^ x_L' and z_RL are R_L's masks.  The inputs are not
    modified.
    """
    lx, lz, le = (a.copy() for a in low)
    _eliminate(state, lx, lz, le)
    z_low, x_rl = low[1], low[0] ^ lx
    hx, hz, he = (a.copy() for a in high)
    _eliminate(state, hx, hz, he)
    for x, z, e in zip(hx, hz, he):
        odd = np.bitwise_count((z_low & x) ^ (x_rl & z)) & 1
        yield _verdict(lx ^ x, lz ^ z, le + (e + 2 * odd))


def _xz_arrays(ops: list[PauliOp], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cores' inputs, uint64 masks and int64 X^x Z^z exponents, of Hermitian ops on n qubits."""
    for op in ops:
        if op.n != n:
            raise ValueError(f"register size mismatch: {op.n} vs {n}")
        if not op.is_hermitian:
            raise ValueError(f"expectation requires a Hermitian operator, got {_op_repr(op)}")
    x, z = np.array([[op.x for op in ops], [op.z for op in ops]], dtype=np.uint64)
    return x, z, np.array([_xz_exponent(op) for op in ops], dtype=np.int64)


class DenseState:
    """Statevector over the flat qubit order: qubit q is bit q of the basis index,
    the bit a Pauli mask gives it."""

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.ndim != 1:
            raise ValueError(f"amplitudes must be a 1-D array, got shape {amplitudes.shape}")
        size = amplitudes.size
        n = int(size).bit_length() - 1
        if 1 << n != size:
            raise ValueError(f"amplitude count {size} is not a power of two")
        norm = float(np.vdot(amplitudes, amplitudes).real)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm}")
        self.amplitudes = amplitudes
        self.n = n
        self.support = np.flatnonzero(amplitudes).astype(np.uint64)


def dense_state(n_blocks: int) -> DenseState:
    """Explicit statevector of the N-block state (N <= DENSE_BLOCK_CAP).

    Nonzero amplitudes sit where particle 2's bit pattern repeats particle
    1's, one of 4**N entries, each of magnitude 2**-N, with sign set by the
    parity of per-block (upper AND lower) bits.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    if n_blocks > DENSE_BLOCK_CAP:
        raise ValueError(
            f"dense backend capped at {DENSE_BLOCK_CAP} blocks, got {n_blocks}"
        )
    half = 2 * n_blocks
    m = np.arange(1 << half)  # one particle's bits; block j's upper slot is bit 2j
    upper_slots = (4**n_blocks - 1) // 3  # 0b0101...01
    odd = np.bitwise_count(m & (m >> 1) & upper_slots) & 1
    amps = np.zeros(1 << (4 * n_blocks), dtype=np.complex128)
    scale = 2.0**-n_blocks
    amps[(m << half) | m] = np.where(odd, -scale, scale)
    return DenseState(amps)


def _dense_expect_xz(psi: DenseState, x: np.ndarray, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Dense core: expectations of i**e X^x Z^z across arrays of uint64 masks and exponents.

    Operator t sums conj(psi[k ^ x_t]) (-1)**popcount(k & z_t) psi[k] over
    the support k, a mask's bit q being basis-index bit q; one operator at a
    time, so memory stays at one support-sized vector.
    """
    idx = psi.support
    amps = psi.amplitudes
    here = amps[idx]
    sums = np.array([
        np.sum(np.where(np.bitwise_count(idx & tz) & 1, -here, here) * np.conj(amps[idx ^ tx]))
        for tx, tz in zip(x, z)
    ])
    val = np.array([1, 1j, -1, -1j])[e % 4] * sums
    nonreal = np.abs(val.imag) > 1e-12
    if nonreal.any():
        raise AssertionError(f"expectation came out non-real: {val[nonreal][0]}")
    return val.real


@dataclass(frozen=True, slots=True)
class CorrelationCheck:
    block: int
    label: str
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True, slots=True)
class CorrelationReport:
    n_blocks: int
    checks: tuple[CorrelationCheck, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def passed(self) -> bool:
        return self.n_passed == len(self.checks)

    def failures(self) -> tuple[CorrelationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        return f"{self.n_passed}/{len(self.checks)} perfect correlations hold"


def verify_perfect_correlations(n_blocks: int) -> CorrelationReport:
    """Check all 7N certainty relations in one pass; failures are recorded, not raised."""
    state = build_state(n_blocks)
    cases = list(product(range(1, n_blocks + 1), PERFECT_CORRELATIONS))
    ops = [block_operator(+1, letters, block, n_blocks) for block, (_, letters) in cases]
    actual = _expect_xz(state, *_xz_arrays(ops, state.n)).tolist()
    checks = []
    for (block, (sign, letters)), value in zip(cases, actual):
        label = ".".join(str(Observable(l, p, block)) for l, p in letters)
        checks.append(CorrelationCheck(block, label, sign, value))
    return CorrelationReport(n_blocks, tuple(checks))
