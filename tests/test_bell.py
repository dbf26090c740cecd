"""Tests for the expanded Bell expression and its exact quantum value."""

from __future__ import annotations

from functools import reduce
from itertools import product

import pytest

import hyperbell.bell
import hyperbell.state
from hyperbell.bell import (
    BLOCK_TERM_MENU,
    EVAL_CHUNK,
    _dense_signed,
    _signed_chunks,
    enumerate_terms,
    n_terms,
    quantum_value,
    term_at,
)
from hyperbell.pauli import commutes, identity, pauli_mul
from hyperbell.state import (
    EXACT_BLOCK_CAP,
    block_operator,
    build_state,
    dense_expectation,
    dense_state,
    expectation,
)


# ═══════════════════════════════════════════════════════════════════════════
# The per-block menu
# ═══════════════════════════════════════════════════════════════════════════


class TestMenu:
    def test_labels_and_signs(self):
        assert [t.label for t in BLOCK_TERM_MENU] == ["XXz", "YYz", "XxYy", "YxXy"]
        assert [t.sign for t in BLOCK_TERM_MENU] == [1, -1, 1, 1]

    def test_particle_split(self):
        split = {
            t.label: tuple(tuple(l for l, p in t.observables if p == particle) for particle in (1, 2))
            for t in BLOCK_TERM_MENU
        }
        assert split == {
            "XXz": (("X",), ("X", "z")),
            "YYz": (("Y",), ("Y", "z")),
            "XxYy": (("X", "x"), ("Y", "y")),
            "YxXy": (("Y", "x"), ("X", "y")),
        }

    def test_each_choice_is_certain_on_the_state(self):
        # signed menu entries all evaluate to +1 per block
        state = build_state(1)
        for t in BLOCK_TERM_MENU:
            op = block_operator(+1, t.observables, 1, 1)
            assert t.sign * expectation(state, op) == 1


# ═══════════════════════════════════════════════════════════════════════════
# Term enumeration
# ═══════════════════════════════════════════════════════════════════════════


class TestEnumeration:
    def test_stream_length(self):
        for n in (1, 2, 3, 4):
            assert n_terms(n) == 4**n
            assert sum(1 for _ in enumerate_terms(n)) == 4**n

    def test_lexicographic_choice_order(self):
        # block 1 is the most significant base-4 digit
        want = list(product(range(4), repeat=2))
        got = [t.choices for t in enumerate_terms(2)]
        assert got == want

    def test_term_at_matches_stream(self):
        streamed = list(enumerate_terms(2))
        for i in range(16):
            t = term_at(2, i)
            s = streamed[i]
            assert t.index == s.index == i
            assert t.choices == s.choices
            assert t.sign == s.sign
            assert (t.operator.x, t.operator.z, t.operator.e) == (
                s.operator.x,
                s.operator.z,
                s.operator.e,
            )

    def test_bad_ranges_rejected(self):
        for bad in (-1, 16):
            with pytest.raises(ValueError):
                term_at(2, bad)

    def test_term_structure(self):
        # sign is the product of menu signs; the operator is the unsigned
        # product of the chosen block operators
        for term in enumerate_terms(2):
            want_sign = 1
            op = identity(8)
            for block, c in enumerate(term.choices, start=1):
                entry = BLOCK_TERM_MENU[c]
                want_sign *= entry.sign
                op = pauli_mul(op, block_operator(+1, entry.observables, block, 2))
            assert term.sign == want_sign
            assert term.labels == tuple(BLOCK_TERM_MENU[c].label for c in term.choices)
            assert (term.operator.x, term.operator.z, term.operator.e) == (
                op.x,
                op.z,
                op.e,
            )
            assert term.operator.is_hermitian

    def test_block_table_is_built_once_per_n(self, monkeypatch):
        calls = 0
        real = hyperbell.bell.block_operator

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(hyperbell.bell, "block_operator", counting)
        hyperbell.bell._block_tables.cache_clear()
        try:
            for i in range(n_terms(3)):
                term_at(3, i)
            for _ in enumerate_terms(3):
                pass
            assert calls == 4 * 3  # one operator per menu choice per block
            tables = hyperbell.bell._block_tables(3)
            assert isinstance(tables, tuple)
            assert all(isinstance(row, tuple) for row in tables)
        finally:
            hyperbell.bell._block_tables.cache_clear()

    def test_observables_iterate_in_block_order(self):
        term = term_at(2, 0b0111)  # choices (1, 3): YYz then YxXy
        got = [(str(o)) for o in term.observables()]
        assert got == ["Y1(1)", "Y2(1)", "z2(1)", "Y1(2)", "x1(2)", "X2(2)", "y2(2)"]


# ═══════════════════════════════════════════════════════════════════════════
# Local measurement settings
# ═══════════════════════════════════════════════════════════════════════════


class TestSettings:
    def test_single_block_splits(self):
        want = {
            0: ({"X"}, {"X", "z"}),
            1: ({"Y"}, {"Y", "z"}),
            2: ({"X", "x"}, {"Y", "y"}),
            3: ({"Y", "x"}, {"X", "y"}),
        }
        for c, letters in want.items():
            observables = list(term_at(1, c).observables())
            assert tuple({o.letter for o in observables if o.particle == p} for p in (1, 2)) == letters

    def test_settings_are_locally_compatible(self):
        # each observer's chosen observables mutually commute, so one local
        # measurement yields all of them at once
        settings = [
            [[block_operator(+1, ((l, p),), 1, 1) for l, p in t.observables if p == particle] for particle in (1, 2)]
            for t in BLOCK_TERM_MENU
        ]
        for term in enumerate_terms(2):
            settings.append(
                [[o.to_pauli(2) for o in term.observables() if o.particle == particle] for particle in (1, 2)]
            )
        for setting in settings:
            for ops in setting:
                for i, a in enumerate(ops):
                    for b in ops[i + 1 :]:
                        assert commutes(a, b)

    def test_settings_union_rebuilds_operator(self):
        for term in enumerate_terms(2):
            observables = list(term.observables())
            ops = [o.to_pauli(2) for p in (1, 2) for o in observables if o.particle == p]
            op = reduce(pauli_mul, ops)
            assert (op.x, op.z, op.e) == (
                term.operator.x,
                term.operator.z,
                term.operator.e,
            )


# ═══════════════════════════════════════════════════════════════════════════
# Quantum value
# ═══════════════════════════════════════════════════════════════════════════


class TestQuantumValue:
    def test_terms_factor_over_blocks(self):
        # a term's expectation is the product of its per-block expectations
        psi1 = dense_state(1)
        psi2 = dense_state(2)
        stab2 = build_state(2)
        for term in enumerate_terms(2):
            per_block = 1.0
            for block, c in enumerate(term.choices, start=1):
                blk = block_operator(+1, BLOCK_TERM_MENU[c].observables, 1, 1)
                per_block *= dense_expectation(psi1, blk)
            got = dense_expectation(psi2, term.operator)
            assert got == pytest.approx(per_block, abs=1e-12)
            assert expectation(stab2, term.operator) == pytest.approx(got, abs=1e-12)

    def test_value_is_four_to_the_n(self):
        for n in (1, 2, 3, 4):
            assert quantum_value(n) == 4**n

    def test_dense_backend_agrees(self):
        for n in (1, 2, 3, 4, 5):
            assert quantum_value(n, backend="dense") == 4**n

    def test_chunks_match_scalar_reference(self, monkeypatch):
        # the one-term-at-a-time elimination in expectation() is the reference
        # for both backends' chunks; a chunk of 7 makes ranges span several
        # chunks with unaligned bounds
        for chunk in (EVAL_CHUNK, 7):
            monkeypatch.setattr(hyperbell.bell, "EVAL_CHUNK", chunk)
            for n in range(1, 6):
                state = build_state(n)
                want = [t.sign * expectation(state, t.operator) for t in enumerate_terms(n)]
                total = n_terms(n)
                psi = dense_state(n) if n <= 4 else None
                for start, stop in ((0, total), (1, total - 2), (total // 3, 2 * total // 3 + 1), (2, 2)):
                    backends = [_signed_chunks(n, state._rows, start, stop)]
                    if psi is not None:
                        backends.append(_dense_signed(n, psi, start, stop))
                    for chunks in map(list, backends):
                        assert [lo for lo, _ in chunks] == list(range(start, stop, chunk))
                        got = [int(v) for _, values in chunks for v in values]
                        assert got == want[start:stop], (chunk, n, start, stop)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="backend"):
            quantum_value(2, backend="symbolic")
        with pytest.raises(ValueError, match="capped"):
            quantum_value(6, backend="dense")
        with pytest.raises(ValueError, match="capped"):
            quantum_value(EXACT_BLOCK_CAP + 1)

    def test_wrong_state_is_a_hard_failure(self, monkeypatch):
        # flipping one generator sign makes some expanded terms -1, which
        # must raise instead of silently lowering the sum, and name the same
        # terms as the one-term-at-a-time reference
        flipped = ((-1,) + hyperbell.state.BLOCK_GENERATORS[0][1:],) + (
            hyperbell.state.BLOCK_GENERATORS[1:]
        )
        monkeypatch.setattr(hyperbell.state, "BLOCK_GENERATORS", flipped)
        monkeypatch.setattr(hyperbell.bell, "EVAL_CHUNK", 7)
        for n in (1, 2, 3):
            state = build_state(n)
            want = []
            for term in enumerate_terms(n):
                signed = term.sign * expectation(state, term.operator)
                if signed != 1:
                    want.append((term.index, signed))
            got = [
                (lo + i, int(v))
                for lo, values in _signed_chunks(n, state._rows, 0, n_terms(n))
                for i, v in enumerate(values)
                if v != 1
            ]
            assert got == want
            head = ", ".join(f"term {i} -> {v:+d}" for i, v in want[:5])
            message = f"{len(want)} expanded terms do not contribute +1 ({head}{', ...' if len(want) > 5 else ''})"
            with pytest.raises(ValueError) as excinfo:
                quantum_value(n)
            assert str(excinfo.value) == message
