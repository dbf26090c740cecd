"""Tests for the expanded Bell expression and its exact quantum value."""

from __future__ import annotations

import re
from functools import reduce
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperbell.bell
import hyperbell.state
from hyperbell.bell import (
    BLOCK_TERM_MENU,
    _certify,
    _dense_signed,
    _digits,
    _join,
    _menu_values,
    _minus_digits,
    _signed_menu,
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
        # a choice's label is its letters, read off the menu entry
        assert [term_at(1, c).labels for c in range(4)] == [("XXz",), ("YYz",), ("XxYy",), ("YxXy",)]
        assert [sign for sign, _ in BLOCK_TERM_MENU] == [1, -1, 1, 1]

    # every N whose indices fit in int64, the first that does not, and the
    # sampler's cap; indices 0, all choice 1 (sign (-1)**N) and the last one
    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([*range(1, 33), 40, 255]), data=st.data())
    def test_minus_digits_give_each_term_sign(self, n, data):
        drawn = data.draw(st.lists(st.integers(0, 4**n - 1), max_size=12))
        indices = [0, (4**n - 1) // 3, 4**n - 1, *drawn]
        want = [prod(BLOCK_TERM_MENU[c][0] for c in _digits(n, i)) for i in indices]
        assert [-1 if _minus_digits(n, i).bit_count() & 1 else 1 for i in indices] == want
        # int64 is what the sampler passes below 4**32, object arrays above it;
        # np.bitwise_count gives uint8 for int64, where 1 - 2 * odd would wrap
        for dtype in [object] + [np.int64] * (n < 32):
            odd = np.bitwise_count(_minus_digits(n, np.array(indices, dtype=dtype))) & 1
            assert np.where(odd, -1, 1).tolist() == want

    def test_particle_split(self):
        split = {
            term_at(1, c).labels[0]: tuple(tuple(l for l, p in letters if p == particle) for particle in (1, 2))
            for c, (_, letters) in enumerate(BLOCK_TERM_MENU)
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
        for sign, letters in BLOCK_TERM_MENU:
            op = block_operator(+1, letters, 1, 1)
            assert sign * _expect(state, op) == 1


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
            with pytest.raises(ValueError, match=re.escape(f"n_blocks must be in [1, 511], got {n}")):
                term_at(n, 0)
            with pytest.raises(ValueError, match=message):
                next(enumerate_terms(n))

    def test_block_count_must_be_an_integer(self):
        # 4**2.5 = 32.0 is no term count
        with pytest.raises(TypeError):
            n_terms(2.5)
        with pytest.raises(TypeError):
            term_at(2.5, 0)
        assert n_terms(np.int64(3)) == 64

    def test_term_structure(self):
        # sign is the product of menu signs; the operator is the unsigned
        # product of the chosen block operators
        for term in enumerate_terms(2):
            want_sign = 1
            op = PauliOp(8, 0, 0, 0)
            for block, c in enumerate(term.choices, start=1):
                sign, letters = BLOCK_TERM_MENU[c]
                want_sign *= sign
                op = pauli_mul(op, block_operator(+1, letters, block, 2))
            assert term.sign == want_sign
            assert term.labels == tuple(("XXz", "YYz", "XxYy", "YxXy")[c] for c in term.choices)
            assert (term.operator.x, term.operator.z, term.operator.e) == (
                op.x,
                op.z,
                op.e,
            )
            assert term.operator.is_hermitian

    def test_block_table_is_built_once_per_n(self, monkeypatch):
        calls = 0
        real = hyperbell.bell._block_xz

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(hyperbell.bell, "_block_xz", counting)
        _signed_menu.cache_clear()
        try:
            for i in range(n_terms(3)):
                term_at(3, i)
            for _ in enumerate_terms(3):
                pass
            assert calls == 4 * 3  # one operator per menu choice per block
            table = _signed_menu(3)
            assert isinstance(table, tuple)
            assert all(isinstance(row, tuple) and all(isinstance(e, tuple) for e in row) for row in table)
        finally:
            _signed_menu.cache_clear()

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
            [[block_operator(+1, ((l, p),), 1, 1) for l, p in letters if p == particle] for particle in (1, 2)]
            for _, letters in BLOCK_TERM_MENU
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
                blk = block_operator(+1, BLOCK_TERM_MENU[c][1], 1, 1)
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

    def test_chunks_match_scalar_reference(self):
        # the enumeration is the oracle: every term through term_at and the
        # test-side one-term-at-a-time elimination.  The dense backend's one
        # table must give each term's value, and the certificate's block
        # entries must multiply to it
        for n in range(1, 7):
            state = build_state(n)
            terms = list(enumerate_terms(n))
            want = [t.sign * _reference_expect(state, t.operator) for t in terms]
            assert want == [1] * 4**n
            values = _menu_values(n, state)
            assert [prod(values[b][c] for b, c in enumerate(t.choices)) for t in terms] == want, n
            assert quantum_value(n) == sum(want)
            if n <= 5:
                assert _dense_signed(n, dense_state(n)).tolist() == want, n

    def test_signed_menu_joins_into_the_terms(self):
        # the join of one signed menu entry per block, choices in
        # lexicographic order, is every term's operator in index order with
        # its sign folded into the exponent (-1 adds 2), and its sign
        for n in range(1, 7):
            got = [
                (x, z, e % 4, sign)
                for choices in product(range(4), repeat=n)
                for x, z, e, sign in [_join(n, enumerate(choices))]
            ]
            want = [
                (t.operator.x, t.operator.z, (_xz_exponent(t.operator) + 1 - t.sign) % 4, t.sign)
                for t in enumerate_terms(n)
            ]
            assert got == want, n

    def test_chunks_match_term_at_above_the_low_table(self):
        # past the six blocks enumerated in full above: every term at N = 7,
        # and at larger N the terms around index 4**6 and the last terms.
        # Each is its blocks' signed menu entries, on disjoint qubits (masks
        # OR, exponents add), and the product of their values is its signed
        # expectation by the reference elimination
        for n in (7, 9, EXACT_BLOCK_CAP):
            total = n_terms(n)
            indices = [*range(4**6 - 9, 4**6 + 20), *range(total - 25, total)]
            if n == 7:
                indices = range(total)
            menu = _signed_menu(n)
            state = build_state(n)
            values = _menu_values(n, state)
            got, want = [], []
            for index in indices:
                t = term_at(n, index)
                entries = [menu[b][c] for b, c in enumerate(t.choices)]
                x = z = e = 0
                for ex, ez, ee, _ in entries:
                    assert (x | z) & (ex | ez) == 0
                    x, z, e = x | ex, z | ez, e + ee
                got.append((x, z, e % 4))
                want.append((t.operator.x, t.operator.z, (_xz_exponent(t.operator) + 1 - t.sign) % 4))
                if n > 7 or index % 997 == 0:
                    assert prod(values[b][c] for b, c in enumerate(t.choices)) == t.sign * _reference_expect(
                        state, t.operator
                    ), (n, index)
            assert got == want, n

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([-1, 0, 1, 1, 1]), min_size=4, max_size=4),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_certificate_matches_the_enumerated_products(self, values):
        # any table of entries in {-1, 0, +1}: the sum, the count of terms
        # that are not +1 and the first five of them, against all 4**N
        # products formed one by one
        n = len(values)
        terms = [prod(row[c] for row, c in zip(values, choices)) for choices in product(range(4), repeat=n)]
        bad = [(i, v) for i, v in enumerate(terms) if v != 1]
        if not bad:
            assert _certify(values) == sum(terms) == 4**n
            return
        head = ", ".join(f"term {i} -> {v:+d}" for i, v in bad[:5])
        message = f"{len(bad)} expanded terms do not contribute +1 ({head}{', ...' if len(bad) > 5 else ''})"
        with pytest.raises(ValueError) as excinfo:
            _certify(values)
        assert str(excinfo.value) == message

    def test_walk_reads_only_the_paths_to_the_first_five(self):
        # the walk for the failing terms must skip every prefix whose
        # completions are all +1: it reads a block's entries once per prefix
        # it descends from, so at most 5N reads for the five terms it names,
        # and none when no term fails, where 4**N terms would be visited
        # without the pruning
        class CountingRows(list):
            reads = 0

            def __getitem__(self, d):
                CountingRows.reads += 1
                return super().__getitem__(d)

        n = 12
        rows = CountingRows([[1, 1, 1, 1]] * n)
        assert _certify(rows) == 4**n
        assert CountingRows.reads == 0
        # the last block's choice 2 is -1, or its choice 0 is 0: every fourth
        # term fails, the first five at the bottom of the index range
        for last, first, value in (([1, 1, -1, 1], 2, "-1"), ([0, 1, 1, 1], 0, "+0")):
            CountingRows.reads = 0
            head = ", ".join(f"term {first + 4 * k} -> {value}" for k in range(5))
            with pytest.raises(ValueError) as excinfo:
                _certify(CountingRows([[1, 1, 1, 1]] * (n - 1) + [last]))
            assert str(excinfo.value) == f"{4 ** (n - 1)} expanded terms do not contribute +1 ({head}, ...)"
            assert 0 < CountingRows.reads <= 5 * n

    def test_block_local_state_with_zero_entries_matches_the_oracle(self, monkeypatch):
        # a block-local state other than the block state: one block's state
        # swapped for the one of (-X1 X2 z2), (-Y1 Y2 z2), z1 and z2, where
        # XXz is -1, YYz +1 and the two menu entries with x1 are 0.  Terms
        # then take all of -1, 0 and +1, and the certificate must name the
        # same failing terms as the one-term-at-a-time reference
        odd = [(-1, (("X", 1), ("X", 2), ("z", 2))), (-1, (("Y", 1), ("Y", 2), ("z", 2)))]
        odd += [(+1, (("z", 1),)), (+1, (("z", 2),))]
        n = 3
        for block in range(1, n + 1):
            generators = list(build_state(n).generators)
            generators[4 * (block - 1) : 4 * block] = [block_operator(s, ls, block, n) for s, ls in odd]
            state = StabilizerState(tuple(generators))
            assert _menu_values(n, state)[block - 1] == [-1, 1, 0, 0]
            signed = [(t.index, t.sign * _reference_expect(state, t.operator)) for t in enumerate_terms(n)]
            assert {v for _, v in signed} == {-1, 0, 1}
            want = [(i, v) for i, v in signed if v != 1]
            head = ", ".join(f"term {i} -> {v:+d}" for i, v in want[:5])
            monkeypatch.setattr(hyperbell.bell, "build_state", lambda _, state=state: state)
            with pytest.raises(ValueError) as excinfo:
                quantum_value(n)
            assert str(excinfo.value) == f"{len(want)} expanded terms do not contribute +1 ({head}, ...)"

    def test_state_that_is_not_block_local_is_refused(self, monkeypatch):
        # build_state(2) with qubit 1 (particle 1, block 1, lower slot)
        # relabelled as qubit 3 (particle 1, block 2, lower slot) and back: a
        # valid stabilizer state, but a product over other qubit sets than
        # the blocks, so its menu entries do not multiply into the terms
        def swapped(mask: int) -> int:
            return mask & ~0b1010 | (mask >> 1 & 1) << 3 | (mask >> 3 & 1) << 1

        state = StabilizerState(
            tuple(PauliOp(g.n, swapped(g.x), swapped(g.z), g.e) for g in build_state(2).generators)
        )
        with pytest.raises(ValueError) as excinfo:
            _menu_values(2, state)
        assert str(excinfo.value) == "block certificate premise fails: a stabilizer row of the state spans blocks 1, 2"
        monkeypatch.setattr(hyperbell.bell, "build_state", lambda _: state)
        with pytest.raises(ValueError, match="premise fails"):
            quantum_value(2)

    def test_certificate_eliminates_four_operators_per_block(self, monkeypatch):
        # a guard against a return to 4**N work: every stabilizer
        # expectation goes through the elimination kernel, wrapped here
        # wherever the package binds it, and the certificate needs only the
        # 4N menu entries
        eliminated = []
        real = hyperbell.state._expect_xz

        def counting(state, ops):
            ops = list(ops)
            eliminated.append(len(ops))
            return real(state, ops)

        for module in (hyperbell.state, hyperbell.bell):
            monkeypatch.setattr(module, "_expect_xz", counting)
        build_state(EXACT_BLOCK_CAP)
        assert quantum_value(EXACT_BLOCK_CAP) == 4**EXACT_BLOCK_CAP
        assert 0 < sum(eliminated) <= 4 * EXACT_BLOCK_CAP

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="backend"):
            quantum_value(2, backend="symbolic")
        with pytest.raises(ValueError, match=rf"^n_blocks must be in \[1, {DENSE_BLOCK_CAP}\], got 6$"):
            quantum_value(6, backend="dense")
        with pytest.raises(ValueError, match=rf"^n_blocks must be in \[1, {EXACT_BLOCK_CAP}\], got {EXACT_BLOCK_CAP + 1}$"):
            quantum_value(EXACT_BLOCK_CAP + 1)

    def test_wrong_state_is_a_hard_failure(self, monkeypatch):
        # flipping one generator sign makes some expanded terms -1, which
        # must raise instead of silently lowering the sum, and name the same
        # terms as the one-term-at-a-time reference.  At N = 7 the flip sits
        # in the first block or in the last
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
            # every failing term, not only the five the message names, is
            # the product of its block entries
            values = _menu_values(n, state)
            got = [
                (t.index, v)
                for t in enumerate_terms(n)
                if (v := prod(values[b][c] for b, c in enumerate(t.choices))) != 1
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
