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

import operator
from collections import namedtuple
from typing import Iterator

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _check_integer(field: str, value: object, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int, a numpy integer included; each error names
    ``field``.  A non-integer or a bool is a TypeError, and a value below ``lo``
    or above ``hi`` (read only with ``lo``) a ValueError."""
    if type(value) is not int:  # an exact int, the package's own case, needs no conversion
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise TypeError(f"{field} must be an integer, got {value!r}")
        value = operator.index(value)
    if lo is not None and (value < lo or hi is not None and value > hi):
        raise ValueError(f"{field} must be {f'>= {lo}' if hi is None else f'in [{lo}, {hi}]'}, got {value}")
    return value


def _check_real(field: str, value: object, positive: bool = False) -> float:
    """``value`` as a Python float, any real number included; each error names
    ``field``.  A bool or a value with no ``__float__`` is a TypeError, and one
    outside [0, 1], or (0, 1] where ``positive``, nan included, a ValueError."""
    if type(value) is not float:  # an exact float, the package's own case, needs no conversion
        if isinstance(value, bool) or not hasattr(type(value), "__float__"):
            raise TypeError(f"{field} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction past the floats, kept to fail the range exactly
            pass
        except (TypeError, ValueError) as exc:  # a sized numpy array, Decimal("sNaN")
            raise type(exc)(f"{field} must be a real number, got {value!r}") from None
    if not (0.0 < value <= 1.0 if positive else 0.0 <= value <= 1.0):
        raise ValueError(f"{field} must be in {'(0, 1]' if positive else '[0, 1]'}, got {value}")
    return value


class _Checked:
    """First base of a named tuple whose ``_check`` refuses bad fields, run on
    every construction, ``_make`` and so ``_replace`` included; a record it
    returns, rebuilt from Python ints or floats, is kept in place of the checked one."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self._check() or self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Observable(_Checked, namedtuple("Observable", "letter particle block")):
    """A named single-qubit observable: letter (case picks the slot), observer, block."""

    __slots__ = ()

    def _check(self) -> Observable | None:
        if not isinstance(self.letter, str) or self.letter.upper() not in _LETTER_BITS:
            raise ValueError(f"letter must be one of XYZxyz, got {self.letter!r}")
        if not (type(self.particle) is type(self.block) is int):
            return self._replace(particle=_check_integer("particle", self.particle), block=_check_integer("block", self.block))
        if self.particle not in (1, 2):
            raise ValueError(f"particle must be 1 or 2, got {self.particle}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {self.block}")

    def to_pauli(self, n_blocks: int) -> "PauliOp":
        """The observable on an N-block register, phase +1, at its flat qubit."""
        if self.block > n_blocks:
            raise ValueError(f"block {self.block} out of range for {n_blocks} blocks")
        q = (self.particle - 1) * 2 * n_blocks + (self.block - 1) * 2 + self.letter.islower()
        xb, zb = _LETTER_BITS[self.letter.upper()]
        return PauliOp(4 * n_blocks, xb << q, zb << q, 0)

    def __str__(self) -> str:
        return f"{self.letter}{self.particle}({self.block})"


class PauliOp(_Checked, namedtuple("PauliOp", "n x z e")):
    """A signed Pauli: i**e times a tensor product of single-qubit letters.

    ``n`` is the register size; ``x``/``z`` are bitmasks over flat qubit
    indices; ``e`` in {0,1,2,3} is the phase exponent.  Hermitian operators
    have e in {0,2}.  ``*`` is the operator product; tuple ``+`` and ``int *`` are refused.
    """

    __slots__ = ()

    def _check(self) -> PauliOp | None:
        n, x, z, e = self
        if not (type(n) is type(x) is type(z) is type(e) is int):
            return self._make(_check_integer(field, value) for field, value in zip(self._fields, self))
        if n < 1:
            raise ValueError(f"register size must be >= 1, got {n}")
        if not (0 <= x < 1 << n and 0 <= z < 1 << n):
            raise ValueError(f"masks x={x:#x}, z={z:#x} out of range for {n} qubits")
        if e not in _PHASE_STR:
            raise ValueError(f"phase exponent must be in 0..3, got {e}")

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

    def __mul__(self, other: object) -> "PauliOp":
        return pauli_mul(self, other) if isinstance(other, PauliOp) else NotImplemented

    def __neg__(self) -> "PauliOp":
        return PauliOp(self.n, self.x, self.z, (self.e + 2) % 4)

    def __add__(self, other: object) -> object:
        return NotImplemented

    __rmul__ = __add__

    def __str__(self) -> str:
        return pauli_to_string(self)


def _xz_exponent(op: PauliOp) -> int:
    # exponent in the X^x Z^z normal form; each Y contributes one factor of i
    return (op.e + (op.x & op.z).bit_count()) % 4


def _times(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product a*b of two (x, z, e) operators in X^x Z^z normal form.

    Moving Z^za past X^xb costs (-1)**popcount(za & xb).
    """
    (ax, az, ae), (bx, bz, be) = a, b
    return ax ^ bx, az ^ bz, (ae + be + 2 * ((az & bx).bit_count() & 1)) % 4


def pauli_mul(a: PauliOp, b: PauliOp) -> PauliOp:
    """Exact product a*b with phase tracked in the cyclic group {1,i,-1,-i}."""
    if a.n != b.n:
        raise ValueError(f"register size mismatch: {a.n} vs {b.n}")
    x, z, e = _times((a.x, a.z, _xz_exponent(a)), (b.x, b.z, _xz_exponent(b)))
    return PauliOp(a.n, x, z, (e - (x & z).bit_count()) % 4)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff a and b commute (symplectic parity test; phases irrelevant)."""
    if a.n != b.n:
        raise ValueError(f"register size mismatch: {a.n} vs {b.n}")
    return (((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1) == 0


def pauli_to_string(op: PauliOp) -> str:
    """Render as e.g. '+X1(1).x1(1).Y2(1).y2(1)'; identity is '<phase>I'."""
    if op.n % 4 != 0:
        raise ValueError("string format requires a 4N-qubit register")
    items = []
    for q in op.support():
        particle, rest = divmod(q, op.n // 2)
        block, lower = divmod(rest, 2)
        letter = op.letter_at(q)
        items.append(f"{letter.lower() if lower else letter}{particle + 1}({block + 1})")
    body = ".".join(items) if items else "I"
    return _PHASE_STR[op.e] + body
