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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .pauli import Observable, PauliOp, _xz_exponent, identity, pauli_mul, pauli_to_string

DENSE_BLOCK_CAP = 5
# Exact evaluation visits all 4**N Bell terms, about 15 s at N=12 on a 2-core
# machine and four times that per further block; 4N <= 64 also keeps every
# Pauli mask within one uint64 word.
EXACT_BLOCK_CAP = 12

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


@dataclass(frozen=True, slots=True)
class BellScenario:
    """Size bookkeeping for an N-block scenario."""

    n_blocks: int

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")

    @property
    def qubits_per_particle(self) -> int:
        return 2 * self.n_blocks

    @property
    def n_qubits(self) -> int:
        return 4 * self.n_blocks

    @property
    def local_dimension(self) -> int:
        return 4**self.n_blocks


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
        if len(generators) != n:
            raise ValueError(
                f"need exactly {n} generators for a unique {n}-qubit state, got {len(generators)}"
            )
        for i, a in enumerate(generators):
            for b in generators[i + 1 :]:
                if ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1:
                    raise ValueError(
                        f"generators do not commute: {_op_repr(a)} vs {_op_repr(b)}"
                    )
        self.generators = tuple(generators)
        self.n = n
        self._rows = self._echelon()

    def _echelon(self) -> list[tuple[int, int, int, int, int]]:
        """Echelon rows (xsel, zsel, x, z, e) of the group, pivots descending.

        Each row is a group element in X^x Z^z normal form with exponent e,
        satisfying row|psi> = |psi>; (xsel|zsel) is its single pivot bit.
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
            px, pz, pe = work.pop(hit)
            rows.append((xsel, zsel, px, pz, pe))
            new_work = []
            for x, z, e in work:
                if (x & xsel) or (z & zsel):
                    e = (e + pe + 2 * ((z & px).bit_count() & 1)) % 4
                    x ^= px
                    z ^= pz
                new_work.append((x, z, e))
            work = new_work
        for x, z, e in work:
            # a row reduced to the identity mask means the inputs were dependent
            if e == 2:
                raise ValueError("contradictory generator signs: -identity is in the group")
            raise ValueError("generators are dependent")
        return rows


def build_state(n_blocks: int) -> StabilizerState:
    """Stabilizer form of the N-block state: 4 generators per block."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    gens = [
        block_operator(sign, letters, block, n_blocks)
        for block in range(1, n_blocks + 1)
        for sign, letters in BLOCK_GENERATORS
    ]
    return StabilizerState(tuple(gens))


def _expect_xz(rows: list[tuple[int, int, int, int, int]], ax: int, az: int, ae: int) -> int:
    """Elimination core: expectation of i**ae X^ax Z^az against echelon rows."""
    for xsel, zsel, px, pz, pe in rows:
        if (ax & xsel) or (az & zsel):
            ae += pe + 2 * ((az & px).bit_count() & 1)
            ax ^= px
            az ^= pz
    if ax or az:
        return 0
    ae %= 4
    if ae & 1:  # impossible for a Hermitian operator; guards the phase algebra
        raise AssertionError("odd phase after elimination of a Hermitian operator")
    return 1 if ae == 0 else -1


def _expect_xz_batch(
    rows: list[tuple[int, int, int, int, int]], ax: np.ndarray, az: np.ndarray, ae: np.ndarray
) -> np.ndarray:
    """``_expect_xz`` across arrays of uint64 masks and int64 exponents at once.

    Updates the arrays in place and returns the expectations as int64.
    """
    for xsel, zsel, px, pz, pe in rows:
        hit = ((ax & np.uint64(xsel)) | (az & np.uint64(zsel))) != 0
        ae[hit] += pe + 2 * (np.bitwise_count(az[hit] & np.uint64(px)) & 1)
        ax[hit] ^= np.uint64(px)
        az[hit] ^= np.uint64(pz)
    cleared = (ax | az) == 0
    ae %= 4
    if np.any(ae[cleared] & 1):
        raise AssertionError("odd phase after elimination of a Hermitian operator")
    return np.where(cleared, 1 - (ae & 2), 0)


def expectation(state: StabilizerState, op: PauliOp) -> int:
    """Exact <op> on a stabilizer state: always one of -1, 0, +1.

    Eliminates op against the group's echelon rows.  If the masks cannot be
    cleared the operator is outside the (maximal) group and averages to zero;
    otherwise the accumulated phase of op times the matched group element is
    i**0 or i**2, giving +1 or -1.
    """
    if op.n != state.n:
        raise ValueError(f"register size mismatch: {op.n} vs {state.n}")
    if not op.is_hermitian:
        raise ValueError(f"expectation requires a Hermitian operator, got {_op_repr(op)}")
    return _expect_xz(state._rows, op.x, op.z, _xz_exponent(op))


class DenseState:
    """Statevector over the flat qubit order; qubit 0 is the most significant bit."""

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
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
    amps = np.zeros(1 << (4 * n_blocks), dtype=np.complex128)
    scale = 2.0**-n_blocks
    for m in range(1 << half):
        sign_bits = sum(
            ((m >> (half - 1 - 2 * j)) & 1) & ((m >> (half - 2 - 2 * j)) & 1)
            for j in range(n_blocks)
        )
        amps[(m << half) | m] = -scale if sign_bits & 1 else scale
    return DenseState(amps)


def dense_expectation(state: DenseState, op: PauliOp) -> float:
    """<psi| op |psi> summed over the state's nonzero amplitudes; exact to 1e-12."""
    if op.n != state.n:
        raise ValueError(f"register size mismatch: {op.n} vs {state.n}")
    if not op.is_hermitian:
        raise ValueError(f"expectation requires a Hermitian operator, got {_op_repr(op)}")
    n = state.n
    idx = state.support
    # parity of (basis index AND zmask), the mask moved to basis-index bits
    par = np.bitwise_count(idx & np.uint64(_flip_mask(op.z, n))) & 1
    signs = 1.0 - 2.0 * par.astype(np.float64)
    flipped = idx ^ np.uint64(_flip_mask(op.x, n))
    amps = state.amplitudes
    val = complex(1j) ** _xz_exponent(op) * np.sum(signs * amps[idx] * np.conj(amps[flipped]))
    if abs(val.imag) > 1e-12:
        raise AssertionError(f"expectation came out non-real: {val}")
    return float(val.real)


def _flip_mask(mask: int, n: int) -> int:
    # translate a flat-qubit x or z mask into basis-index bit positions (q0 = MSB)
    out = 0
    for q in range(n):
        if (mask >> q) & 1:
            out |= 1 << (n - 1 - q)
    return out


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


def verify_perfect_correlations(
    n_blocks: int, state: StabilizerState | None = None
) -> CorrelationReport:
    """Check all 7N certainty relations; failures are recorded, not raised."""
    if state is None:
        state = build_state(n_blocks)
    checks = []
    for block in range(1, n_blocks + 1):
        for sign, letters in PERFECT_CORRELATIONS:
            op = block_operator(+1, letters, block, n_blocks)
            label = ".".join(str(Observable(l, p, block)) for l, p in letters)
            checks.append(
                CorrelationCheck(block, label, sign, expectation(state, op))
            )
    return CorrelationReport(n_blocks, tuple(checks))
