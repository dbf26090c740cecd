"""The Bell expression: a product of four-way block choices, expanded.

Every block contributes one of four signed product terms,

    +(X1 X2 z2)   -(Y1 Y2 z2)   +(X1 x1 Y2 y2)   +(Y1 x1 X2 y2)

and the Bell expression is the product over blocks of (choice1 + choice2 +
choice3 + choice4), expanded into 4**N signed correlation terms.  On the
block-structured state every signed term takes the value +1, so the quantum
value is exactly 4**N.

Terms are streamed in lexicographic choice order (block 1 is the most
significant base-4 digit) and never materialized as a whole.  Each is the
join (``_join``) of its blocks' signed menu entries, on disjoint qubits, read
from one cached, read-only table of the 4N entries placed on every block
(``_signed_menu``).  The state is a product over blocks as well, so the
stabilizer backend never visits a term: it evaluates the 4N signed entries
once and certifies all 4**N terms from them (``quantum_value``).  The dense
backend, capped at DENSE_BLOCK_CAP blocks, evaluates every joined term on
the statevector as the independent cross-check.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .pauli import Observable, PauliOp, _check_integer
from .state import (
    DENSE_BLOCK_CAP,
    EXACT_BLOCK_CAP,
    DenseState,
    LetterPair,
    StabilizerState,
    _block_xz,
    _dense_expect_xz,
    _expect_xz,
    build_state,
    dense_state,
)

# numpy is imported inside the functions that make arrays, so importing
# the package, and every command that makes none, leaves it unloaded
if TYPE_CHECKING:
    import numpy as np


# The four signed block products of the menu, in choice order, as (sign,
# observables) like state.PERFECT_CORRELATIONS; case picks the slot.
BLOCK_TERM_MENU: tuple[tuple[int, tuple[LetterPair, ...]], ...] = (
    (+1, (("X", 1), ("X", 2), ("z", 2))),
    (-1, (("Y", 1), ("Y", 2), ("z", 2))),
    (+1, (("X", 1), ("x", 1), ("Y", 2), ("y", 2))),
    (+1, (("Y", 1), ("x", 1), ("X", 2), ("y", 2))),
)


class BellTerm(NamedTuple):
    """One expanded term: per-block menu choices, overall sign, its operator."""

    n_blocks: int
    index: int
    choices: tuple[int, ...]
    sign: int
    operator: PauliOp

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple("".join(letter for letter, _ in BLOCK_TERM_MENU[c][1]) for c in self.choices)

    def observables(self) -> Iterator[Observable]:
        for block, c in enumerate(self.choices, start=1):
            for letter, particle in BLOCK_TERM_MENU[c][1]:
                yield Observable(letter, particle, block)


_MENU_SIGNS = tuple(sign for sign, _ in BLOCK_TERM_MENU)


def n_terms(n_blocks: int) -> int:
    return 4 ** _check_integer("n_blocks", n_blocks, 1)


def _digits(n_blocks: int, index: int | np.ndarray) -> tuple:
    """Per-block menu choices of a term index, block 1 first (base-4 decode).

    Works alike on a Python int and on a numpy integer array of indices.
    """
    return tuple((index >> 2 * (n_blocks - 1 - block)) & 3 for block in range(n_blocks))


@cache
def _signed_menu(n_blocks: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """The menu on every block, [block][choice]: (x, z, e, sign), built once
    per N and shared read-only; (x, z, e) is the signed entry, its sign
    folded into the exponent."""
    return tuple(
        tuple((*_block_xz(letters, block, n_blocks, sign), sign) for sign, letters in BLOCK_TERM_MENU)
        for block in range(1, n_blocks + 1)
    )


def _join(n_blocks: int, picks: Iterable[tuple[int, int]]) -> tuple[int, int, int, int]:
    """(x, z, e, sign) of the product of the signed menu entries ``picks``,
    (block index, choice) pairs on distinct blocks.  Blocks sit on disjoint
    qubits, so masks OR, exponents add with no cross phase and signs
    multiply."""
    menu = _signed_menu(n_blocks)
    x = z = e = 0
    sign = 1
    for block, choice in picks:
        bx, bz, be, bs = menu[block][choice]
        x |= bx
        z |= bz
        e += be
        sign *= bs
    return x, z, e, sign


def term_at(n_blocks: int, index: int) -> BellTerm:
    """The index-th term of the lexicographic stream."""
    n_blocks = _check_integer("n_blocks", n_blocks, 1)
    index = _check_integer("index", index, 0, 4**n_blocks - 1)
    choices = _digits(n_blocks, index)
    x, z, e, sign = _join(n_blocks, enumerate(choices))
    # each -1 added 2 to e, so the unsigned exponent is e + sign - 1
    op = PauliOp(4 * n_blocks, x, z, (e + sign - 1 - (x & z).bit_count()) % 4)
    return BellTerm(n_blocks, index, choices, sign, op)


def enumerate_terms(n_blocks: int) -> Iterator[BellTerm]:
    """Stream every expanded term in index order, never materialized."""
    for index in range(n_terms(n_blocks)):
        yield term_at(n_blocks, index)


def _dense_signed(n_blocks: int, psi: DenseState) -> np.ndarray:
    """Signed expectations of all 4**N terms on the explicit statevector, in
    index order, each rounded to an integer."""
    import numpy as np

    terms = (_join(n_blocks, enumerate(_digits(n_blocks, i)))[:3] for i in range(n_terms(n_blocks)))
    values = _dense_expect_xz(psi, terms)
    signed = np.rint(values)
    off = np.flatnonzero(np.abs(values - signed) > 1e-12)
    if off.size:
        raise AssertionError(f"non-integer term expectation: term {off[0]} -> {values[off[0]]}")
    return signed.astype(np.int64)


def _menu_values(n_blocks: int, state: StabilizerState) -> list[list[int]]:
    """v[b][c], the signed expectation of menu choice c on block b + 1, from
    one elimination of the 4N entries; refuses a state that is not a product
    over blocks, whose entries would not multiply."""
    half = 2 * n_blocks
    for x, z, _ in state._pivots.values():
        support = x | z
        block = ((support & -support).bit_length() - 1) % half // 2
        if support & ~(3 << 2 * block | 3 << half + 2 * block):
            spanned = sorted({q % half // 2 + 1 for q in range(support.bit_length()) if support >> q & 1})
            raise ValueError(
                "block certificate premise fails: a stabilizer row of the state spans blocks "
                + ", ".join(map(str, spanned))
            )
    values = _expect_xz(state, [_join(n_blocks, [(b, c)])[:3] for b in range(n_blocks) for c in range(4)])
    return [values[4 * b : 4 * b + 4] for b in range(n_blocks)]


def _certify(values: list[list[int]]) -> int:
    """The sum of all 4**N terms from their blocks' entries ``values``; fails
    on any term that is not +1, naming the first five (see ``quantum_value``)."""
    n_blocks = len(values)
    # nonzero[d] and signed[d]: prod over blocks d.. of (a + m) and of (a - m)
    nonzero, signed = [1], [1]
    for row in reversed(values):
        nonzero.insert(0, nonzero[0] * sum(map(abs, row)))
        signed.insert(0, signed[0] * sum(row))

    def n_bad(d: int, p: int) -> int:
        # completions over blocks d.. of a prefix of value p that are not +1
        return 4 ** (n_blocks - d) - (p * p * nonzero[d] + p * signed[d]) // 2

    head: list[tuple[int, int]] = []

    def walk(d: int, index: int, p: int) -> None:
        if len(head) == 5 or not n_bad(d, p):
            return
        if d == n_blocks:
            head.append((index, p))
            return
        for c, v in enumerate(values[d]):
            walk(d + 1, 4 * index + c, p * v)

    walk(0, 0, 1)
    _raise_if_bad(n_bad(0, 1), head)
    return signed[0]


def quantum_value(n_blocks: int, backend: str = "stabilizer") -> int:
    """Exact value of the Bell expression on the state: 4**N.

    Every expanded term's signed expectation must be +1; any other value is
    a hard failure that names how many terms fail and the first five.

    The dense backend evaluates each of the 4**N terms on the statevector.
    The stabilizer backend certifies them by block factorization.  Its
    premise is that every reduced row of the state lies inside one block
    (block b owns qubits 2(b-1), 2(b-1)+1, 2N+2(b-1) and 2N+2(b-1)+1): the
    group is then a product of block groups, the state a product of block
    states, and the expectation of a product of block operators the product
    of their expectations.  A state with a row across blocks is refused,
    never certified.  With v[b][c] in {-1, 0, +1} the signed value of menu
    choice c on block b, term (c_1, ..., c_N) is prod_b v[b][c_b], and the
    sum over all terms is

        prod_b sum_c v[b][c].

    A term is +1 when none of its factors is 0 and an even number are -1.
    With a[b] entries of +1 and m[b] of -1 in block b, prod_b (a[b] + m[b])
    terms have no zero factor and prod_b (a[b] - m[b]) is their sum, so

        (prod_b (a[b] + m[b]) + prod_b (a[b] - m[b])) / 2

    are +1 and the other terms fail.  The same products over the blocks
    after a prefix count its failing completions (those of value +1 when the
    prefix is -1), so the first five failing terms come from a walk in index
    order that skips every prefix whose completions are all +1.
    """
    if backend not in ("stabilizer", "dense"):
        raise ValueError(f"unknown backend {backend!r}")
    n_blocks = _check_integer("n_blocks", n_blocks, 1, EXACT_BLOCK_CAP if backend == "stabilizer" else DENSE_BLOCK_CAP)
    if backend == "stabilizer":
        return _certify(_menu_values(n_blocks, build_state(n_blocks)))
    import numpy as np

    signed = _dense_signed(n_blocks, dense_state(n_blocks))
    bad = np.flatnonzero(signed != 1)
    _raise_if_bad(bad.size, [(int(i), int(signed[i])) for i in bad[:5]])
    return int(signed.sum())


def _raise_if_bad(n_bad: int, head: list[tuple[int, int]]) -> None:
    """Fail on any term that is not +1; ``head`` holds the first five, in order."""
    if n_bad:
        listed = ", ".join(f"term {i} -> {v:+d}" for i, v in head)
        raise ValueError(
            f"{n_bad} expanded terms do not contribute +1 ({listed}{', ...' if n_bad > 5 else ''})"
        )
