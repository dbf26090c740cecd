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
amplitudes only.  Both cores take the same operators, (x, z, e) triples in
Python ints (``_expect_xz``, ``_dense_expect_xz``).

The stabilizer backend keeps the group in row-reduced form (Aaronson and
Gottesman, PRA 70, 052328, 2004), a table from pivot bit to row: each row's
pivot is the highest bit of its word x << n | z, and no other row has a bit
there.  That form is unique, so it is built in one pass over the generators,
a component (generators joined by shared qubits) at a time.  An operator's
coefficients over the rows are its own bits at the pivots, so it is
eliminated by one table lookup per set bit.  Only O(N) operators are ever
eliminated: the 7N certainty relations and the 4N Bell menu entries, from
which the 4**N terms are certified (``bell.quantum_value``).  The state is
built once per N per process (``build_state``) and shared read-only.

Every named block operator is one template on a block's four qubits, shifted
into place (``_block_xz``).
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from itertools import product
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .pauli import Observable, PauliOp, _check_integer, _times, _xz_exponent, commutes, pauli_to_string

# numpy is imported inside the functions that make arrays, so importing
# the package, and every command that makes none, leaves it unloaded
if TYPE_CHECKING:
    import numpy as np

DENSE_BLOCK_CAP = 5
# Exact evaluation certifies the 4**N Bell terms from 4N menu entries, a few
# ms at any N the stabilizer register holds (N <= 16); the cap stays where
# the 4**N enumeration put it, since `verify --n 13`'s usage error reports it.
EXACT_BLOCK_CAP = 12
# largest stabilizer register, N = 16 blocks; its masks are Python ints, so
# the cap bounds the work, not a word size
STABILIZER_QUBIT_CAP = 64

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


@cache
def _template(letters: tuple[LetterPair, ...]) -> tuple[int, int, int]:
    """(x, z, e) in X^x Z^z normal form of a product of named observables on
    one block's four qubits: particle 1's upper and lower slots at bits 0 and
    1, particle 2's at bits 2 and 3."""
    ops = (Observable(letter, particle, 1).to_pauli(1) for letter, particle in letters)
    return reduce(_times, ((op.x, op.z, _xz_exponent(op)) for op in ops))


def _block_xz(letters: tuple[LetterPair, ...], block: int, n_blocks: int, sign: int = 1) -> tuple[int, int, int]:
    """(x, z, e) of ``sign`` times a product of named observables on one
    block of N: its template with particle 1's bit pair moved to 2(block-1)
    and particle 2's to 2N + 2(block-1).  Relabelling qubits leaves the
    normal-form exponent; a sign of -1 adds 2 to it."""
    if not 1 <= block <= n_blocks:
        raise ValueError(f"block {block} out of range for {n_blocks} blocks")
    x, z, e = _template(letters)
    one, two = 2 * (block - 1), 2 * (n_blocks + block - 1)
    return (x & 3) << one | (x >> 2) << two, (z & 3) << one | (z >> 2) << two, e + 1 - sign


def block_operator(
    sign: int, letters: tuple[LetterPair, ...], block: int, n_blocks: int
) -> PauliOp:
    """Signed product of named observables, all attached to one block."""
    x, z, e = _block_xz(letters, block, n_blocks, sign)
    return PauliOp(4 * n_blocks, x, z, (e - (x & z).bit_count()) % 4)


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
            raise ValueError(f"stabilizer backend capped at {STABILIZER_QUBIT_CAP} qubits, got {n}")
        if len(generators) != n:
            raise ValueError(f"need exactly {n} generators for a unique {n}-qubit state, got {len(generators)}")
        # components by span, the qubits they hold, to rows by pivot (disjoint operators commute)
        spans: dict[int, dict[int, tuple[int, int, int]]] = {}
        clashing, dependent = [], []
        for i, g in enumerate(generators):
            _, gx, gz, _ = g  # read once: the loops below read them per row
            span, rows = gx | gz, {}
            for s in [s for s in spans if s & span]:
                span |= s
                rows |= spans.pop(s)
            spans[span] = rows
            op, word, odd = (gx, gz, _xz_exponent(g)), gx << n | gz, 0
            for bit, row in rows.items():
                # the rows span the earlier generators: g commutes with those iff with these
                odd |= (gx & row[1]).bit_count() + (gz & row[0]).bit_count()
                if word & bit:
                    op = _times(op, row)
            if odd & 1:
                clashing.append(i)
            word = op[0] << n | op[1]
            if not word:
                dependent.append(op[2])  # +-identity: a product of earlier generators
                continue
            top = 1 << word.bit_length() - 1
            for bit, row in rows.items():
                if (row[0] << n | row[1]) & top:
                    rows[bit] = _times(row, op)
            rows[top] = op
        if clashing:
            # name the first anticommuting pair in generator order
            a, b = min((a, b) for b in clashing for a in range(b) if not commutes(generators[a], generators[b]))
            raise ValueError(f"generators do not commute: {_op_repr(generators[a])} vs {_op_repr(generators[b])}")
        if dependent:
            contradictory = "contradictory generator signs: -identity is in the group"
            raise ValueError(contradictory if dependent[0] == 2 else "generators are dependent")
        self.generators = tuple(generators)
        self.n = n
        self._pivots = MappingProxyType({bit: row for rows in spans.values() for bit, row in rows.items()})


@lru_cache(maxsize=None, typed=True)
def build_state(n_blocks: int) -> StabilizerState:
    """Stabilizer form of the N-block state, 4 generators per block; cached per N and type (True is no 1)."""
    n_blocks = _check_integer("n_blocks", n_blocks, 1, STABILIZER_QUBIT_CAP // 4)
    gens = [
        block_operator(sign, letters, block, n_blocks)
        for block in range(1, n_blocks + 1)
        for sign, letters in BLOCK_GENERATORS
    ]
    return StabilizerState(tuple(gens))


def _expect_xz(state: StabilizerState, ops: Iterable[tuple[int, int, int]]) -> list[int]:
    """Expectations of operators i**e X^x Z^z, each given as (x, z, e) in Python ints.

    Each operator is multiplied by the row at every set bit of its own that
    is a pivot, one table lookup per bit: no row has a bit at another's pivot,
    so those bits stay the operator's own.  The masks clear exactly when the
    operator is in the group up to phase, and the phase left is then its
    expectation; otherwise that is 0.  ``_times`` is inlined: for the O(N)
    operators ever eliminated, a loop in Python ints is the cheapest kernel.
    """
    n, pivot_row = state.n, state._pivots.get
    values = []
    for x, z, e in ops:
        word = x << n | z
        while word:
            bit = word & -word
            word ^= bit
            row = pivot_row(bit)
            if row:
                rx, rz, re = row
                e += re + 2 * ((z & rx).bit_count() & 1)
                x ^= rx
                z ^= rz
        if x or z:
            values.append(0)
        elif e & 1:
            # impossible for a Hermitian operator; guards the phase algebra
            raise AssertionError("odd phase after elimination of a Hermitian operator")
        else:
            values.append(1 - (e & 2))
    return values


class DenseState:
    """Statevector over the flat qubit order: qubit q is bit q of the basis index,
    the bit a Pauli mask gives it."""

    def __init__(self, amplitudes: np.ndarray):
        import numpy as np

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
    n_blocks = _check_integer("n_blocks", n_blocks, 1, DENSE_BLOCK_CAP)
    import numpy as np

    half = 2 * n_blocks
    m = np.arange(1 << half)  # one particle's bits; block j's upper slot is bit 2j
    upper_slots = (4**n_blocks - 1) // 3  # 0b0101...01
    odd = np.bitwise_count(m & (m >> 1) & upper_slots) & 1
    amps = np.zeros(1 << (4 * n_blocks), dtype=np.complex128)
    scale = 2.0**-n_blocks
    amps[(m << half) | m] = np.where(odd, -scale, scale)
    return DenseState(amps)


def _dense_expect_xz(psi: DenseState, ops: Iterable[tuple[int, int, int]]) -> np.ndarray:
    """Dense core: expectations of operators i**e X^x Z^z, each given as
    (x, z, e) in Python ints, as ``_expect_xz`` takes them.

    Operator t sums conj(psi[k ^ x_t]) (-1)**popcount(k & z_t) psi[k] over
    the support k, a mask's bit q being basis-index bit q, a block of
    operators at once: a temporary holds 2048 entries (32 KB as complex) up
    to a support of 128 (N = 3), 16 support-sized rows above, far below the state.
    """
    import numpy as np

    idx, amps = psi.support, psi.amplitudes
    here = amps[idx]
    # (operators, 1) columns, so a block of them broadcasts against the support
    x, z, e = np.array([(x, z, e % 4) for x, z, e in ops], dtype=np.uint64).reshape(-1, 3, 1).transpose(1, 0, 2)
    rows = max(16, 2048 // idx.size)
    val = np.empty(len(e), dtype=np.complex128)
    for lo in range(0, len(e), rows):
        odd = np.bitwise_count(idx & z[lo : lo + rows]) & 1
        val[lo : lo + rows] = (amps[idx ^ x[lo : lo + rows]].conj() * np.where(odd, -here, here)).sum(axis=1)
    val *= np.array([1, 1j, -1, -1j])[e[:, 0]]
    nonreal = np.abs(val.imag) > 1e-12
    if nonreal.any():
        raise AssertionError(f"expectation came out non-real: {val[nonreal][0]}")
    return val.real


def expectation(state: StabilizerState | DenseState, op: PauliOp) -> float:
    """<op> for a Hermitian op on the state's register, through the state's
    backend's core: exact in {-1, 0, +1} on the stabilizer backend, a float
    on the dense one."""
    if op.n != state.n:
        raise ValueError(f"register size mismatch: {op.n} vs {state.n}")
    if not op.is_hermitian:
        raise ValueError(f"expectation requires a Hermitian operator, got {_op_repr(op)}")
    ops = [(op.x, op.z, _xz_exponent(op))]
    if isinstance(state, DenseState):
        return float(_dense_expect_xz(state, ops)[0])
    return _expect_xz(state, ops)[0]


class CorrelationCheck(NamedTuple):
    block: int
    label: str
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class CorrelationReport(NamedTuple):
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
    n_blocks = _check_integer("n_blocks", n_blocks, 1, STABILIZER_QUBIT_CAP // 4)
    state = build_state(n_blocks)
    cases = list(product(range(1, n_blocks + 1), PERFECT_CORRELATIONS))
    actual = _expect_xz(state, [_block_xz(letters, block, n_blocks) for block, (_, letters) in cases])
    checks = []
    for (block, (sign, letters)), value in zip(cases, actual):
        label = ".".join(f"{letter}{particle}({block})" for letter, particle in letters)
        checks.append(CorrelationCheck(block, label, sign, value))
    return CorrelationReport(n_blocks, tuple(checks))
