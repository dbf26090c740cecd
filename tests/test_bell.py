"""Tests for the expanded Bell expression and its exact quantum value."""

from __future__ import annotations

from functools import reduce
from itertools import product

import pytest

import hyperbell.bell
from hyperbell.bell import (
    BLOCK_TERM_MENU,
    LOW_BLOCKS,
    _chunk_tables,
    _dense_signed,
    _signed_chunks,
    enumerate_terms,
    n_terms,
    quantum_value,
    term_at,
)
from hyperbell.pauli import PauliOp, _xz_exponent, commutes, pauli_mul
from hyperbell.state import (
    DENSE_BLOCK_CAP,
    EXACT_BLOCK_CAP,
    StabilizerState,
    block_operator,
    build_state,
    dense_state,
)
from test_state import _dense_expect, _expect, _reference_expect


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
            assert t.sign * _expect(state, op) == 1


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

    def test_no_blocks_rejected(self):
        for n in (0, -1):
            message = f"n_blocks must be >= 1, got {n}"
            with pytest.raises(ValueError, match=message):
                n_terms(n)
            with pytest.raises(ValueError, match=message):
                term_at(n, 0)
            with pytest.raises(ValueError, match=message):
                next(enumerate_terms(n))

    def test_term_structure(self):
        # sign is the product of menu signs; the operator is the unsigned
        # product of the chosen block operators
        for term in enumerate_terms(2):
            want_sign = 1
            op = PauliOp(8, 0, 0, 0)
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
                per_block *= _dense_expect(psi1, blk)
            got = _dense_expect(psi2, term.operator)
            assert got == pytest.approx(per_block, abs=1e-12)
            assert _expect(stab2, term.operator) == pytest.approx(got, abs=1e-12)

    def test_value_is_four_to_the_n(self):
        for n in (1, 2, 3, 4):
            assert quantum_value(n) == 4**n

    def test_dense_backend_agrees(self):
        for n in (1, 2, 3, 4, 5):
            assert quantum_value(n, backend="dense") == 4**n

    def test_dense_terms_fit_the_low_table(self):
        # _dense_signed evaluates the low table alone, as the one chunk
        assert DENSE_BLOCK_CAP < LOW_BLOCKS

    def test_chunks_match_scalar_reference(self):
        # the test-side one-term-at-a-time elimination is the reference for
        # both backends' chunks; up to LOW_BLOCKS blocks there is one chunk
        for n in range(1, 6):
            state = build_state(n)
            want = [t.sign * _reference_expect(state, t.operator) for t in enumerate_terms(n)]
            for chunks in (_signed_chunks(n, state), _dense_signed(n, dense_state(n))):
                chunks = list(chunks)
                assert [lo for lo, _ in chunks] == [0]
                assert [int(v) for _, values in chunks for v in values] == want, n

    def test_chunks_match_term_at_above_the_low_table(self):
        # above LOW_BLOCKS blocks a term is its low-table entry, at index mod
        # 4**LOW_BLOCKS, times its high prefix's entry, on disjoint qubits:
        # every term at N = 7, and at larger N the terms around the first
        # prefix boundary and the last terms.  The entries carry the menu
        # signs in their exponents, a sign of -1 adding 2
        period = 4**LOW_BLOCKS
        for n in (LOW_BLOCKS + 1, 9, EXACT_BLOCK_CAP):
            total = n_terms(n)
            indices = [*range(period - 9, period + 20), *range(total - 25, total)]
            if n == LOW_BLOCKS + 1:
                indices = range(total)
            k, (hx, hz, he), (lx, lz, le) = _chunk_tables(n)
            assert (k, len(lx), len(hx)) == (LOW_BLOCKS, period, total // period)
            got, want = [], []
            for index in indices:
                h, i = divmod(index, period)
                assert int((lx[i] | lz[i]) & (hx[h] | hz[h])) == 0
                got.append((int(lx[i] | hx[h]), int(lz[i] | hz[h]), int(le[i] + he[h]) % 4))
                t = term_at(n, index)
                e = (_xz_exponent(t.operator) + 1 - t.sign) % 4
                want.append((t.operator.x, t.operator.z, e))
            assert got == want, n

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
        # terms as the one-term-at-a-time reference.  Up to LOW_BLOCKS blocks
        # every block is low and the high prefix is the identity; at N = 7
        # the flip sits in the one high block or in a low block, and the
        # terms span 4 prefixes
        cases = [(n, [(block, 0) for block in range(1, n + 1)]) for n in (1, 2, 3)]
        cases += [(7, [(1, 2)]), (7, [(7, 0)])]
        messages = []
        for n, flips in cases:
            generators = list(build_state(n).generators)
            for block, g in flips:
                generators[4 * (block - 1) + g] = -generators[4 * (block - 1) + g]
            state = StabilizerState(tuple(generators))
            want = []
            for term in enumerate_terms(n):
                signed = term.sign * _reference_expect(state, term.operator)
                if signed != 1:
                    want.append((term.index, signed))
            got = [
                (lo + i, int(v))
                for lo, values in _signed_chunks(n, state)
                for i, v in enumerate(values)
                if v != 1
            ]
            assert got == want, (n, flips)
            head = ", ".join(f"term {i} -> {v:+d}" for i, v in want[:5])
            message = f"{len(want)} expanded terms do not contribute +1 ({head}{', ...' if len(want) > 5 else ''})"
            monkeypatch.setattr(hyperbell.bell, "build_state", lambda _, state=state: state)
            with pytest.raises(ValueError) as excinfo:
                quantum_value(n)
            assert str(excinfo.value) == message
            messages.append(message)
        # the N = 7 messages as the per-term elimination reported them
        assert messages[-2:] == [
            "8192 expanded terms do not contribute +1 (term 8192 -> -1, term 8193 -> -1,"
            " term 8194 -> -1, term 8195 -> -1, term 8196 -> -1, ...)",
            "8192 expanded terms do not contribute +1 (term 0 -> -1, term 2 -> -1,"
            " term 4 -> -1, term 6 -> -1, term 8 -> -1, ...)",
        ]
