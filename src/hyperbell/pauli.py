"""Exact Pauli algebra on a register of paired qubits.

The register holds two observers ("particles" 1 and 2), each carrying one
qubit pair per block.  A pair has an upper and a lower slot, so a scenario
with N blocks uses 4N qubits.  Flat qubit order is particle-major:

    flat = (particle - 1) * 2N + (block - 1) * 2 + slot      (upper=0, lower=1)

so each observer's 2N qubits are contiguous.

A Pauli operator is encoded symplectically: ``xmask`` / ``zmask`` are integer
bitmasks over flat qubit indices (qubit q carries X iff only x-bit set, Z iff
only z-bit, Y iff both), and ``e`` is the exponent of the global phase i**e,
e in {0,1,2,3}.  Phases live in the 4-element cyclic group and are tracked
exactly; no floating point enters the algebra.

Named single-letter observables follow the case convention used throughout
this package: uppercase X/Y/Z act on the upper slot of a pair, lowercase
x/y/z on the lower slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

UPPER = "upper"
LOWER = "lower"

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True, slots=True)
class QubitIndex:
    """Position of one qubit: which observer, which block, which slot."""

    particle: int
    block: int
    slot: str

    def __post_init__(self) -> None:
        if self.particle not in (1, 2):
            raise ValueError(f"particle must be 1 or 2, got {self.particle}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {self.block}")
        if self.slot not in (UPPER, LOWER):
            raise ValueError(f"slot must be {UPPER!r} or {LOWER!r}, got {self.slot}")

    def flat(self, n_blocks: int) -> int:
        if self.block > n_blocks:
            raise ValueError(f"block {self.block} out of range for {n_blocks} blocks")
        slot_bit = 0 if self.slot == UPPER else 1
        return (self.particle - 1) * 2 * n_blocks + (self.block - 1) * 2 + slot_bit

    @classmethod
    def from_flat(cls, flat: int, n_blocks: int) -> "QubitIndex":
        if not 0 <= flat < 4 * n_blocks:
            raise ValueError(f"flat index {flat} out of range for {n_blocks} blocks")
        particle, rest = divmod(flat, 2 * n_blocks)
        block, slot_bit = divmod(rest, 2)
        return cls(particle + 1, block + 1, UPPER if slot_bit == 0 else LOWER)


@dataclass(frozen=True, slots=True)
class Observable:
    """A named single-qubit observable: letter (case picks the slot), observer, block."""

    letter: str
    particle: int
    block: int

    def __post_init__(self) -> None:
        if self.letter.upper() not in _LETTER_BITS:
            raise ValueError(f"letter must be one of XYZxyz, got {self.letter!r}")
        if self.particle not in (1, 2):
            raise ValueError(f"particle must be 1 or 2, got {self.particle}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {self.block}")

    @property
    def qubit(self) -> QubitIndex:
        slot = UPPER if self.letter.isupper() else LOWER
        return QubitIndex(self.particle, self.block, slot)

    def to_pauli(self, n_blocks: int) -> "PauliOp":
        q = self.qubit.flat(n_blocks)
        xb, zb = _LETTER_BITS[self.letter.upper()]
        return PauliOp(4 * n_blocks, xb << q, zb << q, 0)

    def __str__(self) -> str:
        return f"{self.letter}{self.particle}({self.block})"


@dataclass(frozen=True, slots=True)
class PauliOp:
    """A signed Pauli: i**e times a tensor product of single-qubit letters.

    ``n`` is the register size; ``x``/``z`` are bitmasks over flat qubit
    indices; ``e`` in {0,1,2,3} is the phase exponent.  Hermitian operators
    have e in {0,2}.
    """

    n: int
    x: int
    z: int
    e: int

    @property
    def is_hermitian(self) -> bool:
        return self.e % 2 == 0

    def support(self) -> Iterator[int]:
        mask = self.x | self.z
        for q in range(self.n):
            if (mask >> q) & 1:
                yield q

    def letter_at(self, qubit: int) -> str:
        xb = (self.x >> qubit) & 1
        zb = (self.z >> qubit) & 1
        return "I" if not (xb or zb) else _BITS_LETTER[(xb, zb)]

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return pauli_mul(self, other)

    def __neg__(self) -> "PauliOp":
        return PauliOp(self.n, self.x, self.z, (self.e + 2) % 4)

    def __str__(self) -> str:
        return pauli_to_string(self)


def named_observable(letter: str, particle: int, block: int, n_blocks: int) -> PauliOp:
    """Single-letter observable as a register-wide Pauli with phase +1."""
    return Observable(letter, particle, block).to_pauli(n_blocks)


def _xz_exponent(op: PauliOp) -> int:
    # exponent in the X^x Z^z normal form; each Y contributes one factor of i
    return (op.e + (op.x & op.z).bit_count()) % 4


def pauli_mul(a: PauliOp, b: PauliOp) -> PauliOp:
    """Exact product a*b with phase tracked in the cyclic group {1,i,-1,-i}."""
    if a.n != b.n:
        raise ValueError(f"register size mismatch: {a.n} vs {b.n}")
    # multiply in X^x Z^z normal form: Z^za past X^xb costs (-1)^{za.xb}
    e_xz = (_xz_exponent(a) + _xz_exponent(b) + 2 * ((a.z & b.x).bit_count() & 1)) % 4
    x = a.x ^ b.x
    z = a.z ^ b.z
    e = (e_xz - (x & z).bit_count()) % 4
    return PauliOp(a.n, x, z, e)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff a and b commute (symplectic parity test; phases irrelevant)."""
    if a.n != b.n:
        raise ValueError(f"register size mismatch: {a.n} vs {b.n}")
    return (((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1) == 0


def pauli_to_string(op: PauliOp) -> str:
    """Render as e.g. '+X1(1).x1(1).Y2(1).y2(1)'; identity is '<phase>I'."""
    if op.n % 4 != 0:
        raise ValueError("string format requires a 4N-qubit register")
    n_blocks = op.n // 4
    items = []
    for q in op.support():
        letter = op.letter_at(q)
        idx = QubitIndex.from_flat(q, n_blocks)
        if idx.slot == LOWER:
            letter = letter.lower()
        items.append(f"{letter}{idx.particle}({idx.block})")
    body = ".".join(items) if items else "I"
    return _PHASE_STR[op.e] + body
