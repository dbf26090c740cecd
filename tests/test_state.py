"""Tests for state construction and the two expectation backends."""

from __future__ import annotations

import json
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperbell.state
from hyperbell import cli
from hyperbell.pauli import PauliOp, commutes, named_observable, pauli_mul
from hyperbell.state import (
    BLOCK_GENERATORS,
    DENSE_BLOCK_CAP,
    EXACT_BLOCK_CAP,
    PERFECT_CORRELATIONS,
    STABILIZER_QUBIT_CAP,
    DenseState,
    StabilizerState,
    _dense_expect_xz,
    _expect_xz,
    _product_expectations,
    _times,
    _xz_arrays,
    block_operator,
    build_state,
    dense_state,
    verify_perfect_correlations,
)

DATA_DIR = Path(__file__).parent / "data"


def random_hermitian(rng: np.random.Generator, n_qubits: int) -> PauliOp:
    x = int(rng.integers(0, 1 << n_qubits))
    z = int(rng.integers(0, 1 << n_qubits))
    return PauliOp(n_qubits, x, z, int(rng.integers(0, 2)) * 2)


def _holds(op: PauliOp, bit: int) -> bool:
    # bits 2n-1..n are the x mask, n-1..0 the z mask
    return bool(op.x >> (bit - op.n) & 1 if bit >= op.n else op.z >> bit & 1)


@cache
def _reference_rows(generators: tuple[PauliOp, ...]) -> tuple[tuple[int, PauliOp], ...]:
    """Echelon rows (pivot bit, group element) of the generators, by pauli_mul."""
    work = list(generators)
    rows = []
    for bit in range(2 * generators[0].n - 1, -1, -1):
        hit = next((i for i, op in enumerate(work) if _holds(op, bit)), None)
        if hit is not None:
            row = work.pop(hit)
            work = [pauli_mul(op, row) if _holds(op, bit) else op for op in work]
            rows.append((bit, row))
    return tuple(rows)


def _reference_expect(state: StabilizerState, op: PauliOp) -> int:
    """<op> by plain sequential row elimination, one row at a time.

    Shares no code with the kernel under test: its rows come from the
    generators through ``pauli_mul``, and op is multiplied by every row whose
    pivot it still holds.  Outside the group the masks stay nonzero (0);
    inside, the phase left on the identity is the expectation.
    """
    for bit, row in _reference_rows(state.generators):
        if _holds(op, bit):
            op = pauli_mul(op, row)
    if op.x or op.z:
        return 0
    if op.e & 1:
        raise AssertionError("odd phase after elimination of a Hermitian operator")
    return 1 - op.e


def _expect(state: StabilizerState, op: PauliOp) -> int:
    """<op> through the elimination core, as a batch of one."""
    return int(_expect_xz(state, *_xz_arrays([op], state.n))[0])


def _dense_expect(psi: DenseState, op: PauliOp) -> float:
    """<op> through the dense core, as a batch of one."""
    return float(_dense_expect_xz(psi, *_xz_arrays([op], psi.n))[0])


# ═══════════════════════════════════════════════════════════════════════════
# Generators and stabilizer construction
# ═══════════════════════════════════════════════════════════════════════════


class TestGenerators:
    def test_four_commuting_generators_per_block(self):
        for n in (1, 2, 3):
            state = build_state(n)
            gens = state.generators
            assert len(gens) == 4 * n
            for i, a in enumerate(gens):
                for b in gens[i + 1 :]:
                    assert commutes(a, b)

    def test_generators_are_perfect_correlations(self):
        # every generator is one of the certainty relations, sign included
        state = build_state(2)
        for g in state.generators:
            assert _expect(state, g) == 1

    def test_subset_products_stabilize(self):
        # the full group (all 2**4 subset products at N=1) fixes the state
        state = build_state(1)
        gens = state.generators
        seen = set()
        for mask in range(16):
            ops = [gens[i] for i in range(4) if (mask >> i) & 1]
            op = reduce(pauli_mul, ops, PauliOp(4, 0, 0, 0))
            assert _expect(state, op) == 1
            seen.add((op.x, op.z))
        # 16 distinct mask pairs: the generators are independent
        assert len(seen) == 16

    def test_dependent_set_rejected(self):
        # swapping the signed YYz generator for the z1z2 relation loses rank:
        # (X1 X2 z2) times (X1 z1 X2) equals (z1 z2) exactly
        letters = (
            (+1, (("X", 1), ("X", 2), ("z", 2))),
            (+1, (("x", 1), ("Z", 2), ("x", 2))),
            (+1, (("X", 1), ("z", 1), ("X", 2))),
            (+1, (("z", 1), ("z", 2))),
        )
        gens = tuple(block_operator(s, ls, 1, 1) for s, ls in letters)
        a, _, c, d = gens
        prod = pauli_mul(a, c)
        assert (prod.x, prod.z, prod.e) == (d.x, d.z, d.e)
        with pytest.raises(ValueError, match="dependent"):
            StabilizerState(gens)

    def test_contradictory_signs_rejected(self):
        g = block_operator(+1, PERFECT_CORRELATIONS[0][1], 1, 1)
        h = block_operator(+1, PERFECT_CORRELATIONS[2][1], 1, 1)
        k = block_operator(+1, PERFECT_CORRELATIONS[3][1], 1, 1)
        with pytest.raises(ValueError, match="identity"):
            StabilizerState((g, -g, h, k))

    def test_anticommuting_pair_rejected(self):
        x0 = PauliOp(2, 0b01, 0, 0)
        z0 = PauliOp(2, 0, 0b01, 0)
        with pytest.raises(ValueError, match="commute"):
            StabilizerState((x0, z0))

    def test_wrong_count_rejected(self):
        gens = tuple(block_operator(s, ls, 1, 1) for s, ls in BLOCK_GENERATORS[:3])
        with pytest.raises(ValueError, match="exactly 4"):
            StabilizerState(gens)

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            StabilizerState((PauliOp(1, 1, 0, 1),))

    def test_mixed_register_sizes_rejected(self):
        with pytest.raises(ValueError, match="size"):
            StabilizerState((PauliOp(1, 1, 0, 0), PauliOp(2, 0b10, 0, 0)))

    def test_build_state_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_state(0)

    def test_block_operator_support_is_local(self):
        # block j touches only its own qubit pair on each particle
        n = 3
        for block in range(1, n + 1):
            base1 = 2 * (block - 1)
            base2 = 2 * n + 2 * (block - 1)
            allowed = {base1, base1 + 1, base2, base2 + 1}
            for sign, letters in PERFECT_CORRELATIONS:
                op = block_operator(sign, letters, block, n)
                assert set(op.support()) <= allowed


# ═══════════════════════════════════════════════════════════════════════════
# Stabilizer expectations
# ═══════════════════════════════════════════════════════════════════════════


class TestExpectation:
    def test_identity(self):
        assert _expect(build_state(2), PauliOp(8, 0, 0, 0)) == 1

    def test_single_observables_vanish(self):
        # no local observable has a definite value on the entangled state
        state = build_state(1)
        for letter in "XYZxyz":
            for particle in (1, 2):
                op = named_observable(letter, particle, 1, 1)
                assert _expect(state, op) == 0

    def test_correlation_signs(self):
        state = build_state(1)
        for sign, letters in PERFECT_CORRELATIONS:
            op = block_operator(+1, letters, 1, 1)
            assert _expect(state, op) == sign
            assert _expect(state, -op) == -sign

    def test_batch_matches_one_operator_elimination(self):
        # random Paulis (mostly outside the group, so 0) and random signed
        # group elements (+-1), through the kernel as one batch and through
        # the reference one at a time
        rng = np.random.default_rng(11)
        state = build_state(2)
        ops = [random_hermitian(rng, 8) for _ in range(200)]
        for _ in range(200):
            mask = int(rng.integers(0, 1 << 8))
            chosen = [g for i, g in enumerate(state.generators) if (mask >> i) & 1]
            op = reduce(pauli_mul, chosen, PauliOp(8, 0, 0, 0))
            ops.append(-op if rng.integers(0, 2) else op)
        want = [_reference_expect(state, op) for op in ops]
        got = _expect_xz(state, *_xz_arrays(ops, state.n))
        assert got.tolist() == want
        assert [_expect(state, op) for op in ops] == want
        assert set(want) == {-1, 0, 1}
        # i * identity is not Hermitian: its phase stays odd after elimination
        for n in (1, 2, 5, EXACT_BLOCK_CAP):
            zeros = np.zeros(1, dtype=np.uint64)
            with pytest.raises(AssertionError, match="odd phase"):
                _expect_xz(build_state(n), zeros, zeros.copy(), np.ones(1, dtype=np.int64))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_reference(self, data):
        # block states for N = 1..12 fill the top half of both masks with
        # pivots, and their window products never need the swap sign; signed
        # graph states put pivots on x bits from 0 up, with Y phases
        stab = data.draw(st.one_of(st.integers(1, EXACT_BLOCK_CAP).map(build_state), _graph_states()))
        ops = data.draw(
            st.lists(st.one_of(_hermitian_paulis(stab.n), _group_elements(stab)), min_size=1, max_size=16)
        )
        want = [_reference_expect(stab, op) for op in ops]
        assert _expect_xz(stab, *_xz_arrays(ops, stab.n)).tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_product_of_disjoint_factors_matches_kernel(self, data):
        # on the block state every row sits inside one block, so the
        # combine's parity terms are always 0 there.  A signed graph state's
        # rows reach across any split of its qubits; its pivots are all its x
        # bits, so an eliminated factor keeps no x bit, and Hadamards on some
        # qubits move pivots onto z bits and leave x bits.  Group elements and
        # perturbed ones are cut into L on the drawn qubits and H on the rest,
        # each Hermitian with a random sign, and every product L_i·H_j is
        # checked against eliminating L_i | H_j whole
        stab = data.draw(_hadamard_graph_states())
        n = stab.n

        def perturbed(op: PauliOp, bit: int) -> PauliOp:
            # one mask bit flipped: still Hermitian, mostly outside the group
            if bit < n:
                return PauliOp(n, op.x ^ 1 << bit, op.z, op.e)
            return PauliOp(n, op.x, op.z ^ 1 << (bit - n), op.e)

        ops = data.draw(
            st.lists(
                st.one_of(
                    _group_elements(stab),
                    st.builds(perturbed, _group_elements(stab), st.integers(0, 2 * n - 1)),
                ),
                min_size=1,
                max_size=8,
            )
        )
        on_low = np.uint64(data.draw(st.integers(0, (1 << n) - 1)))
        x, z, e = _xz_arrays(ops, n)
        low_x, low_z = x & on_low, z & on_low
        # every L and H Hermitian, so that every cross product is too: in
        # normal form each Y on a factor's qubits gives it one factor of i
        signs = np.array(
            data.draw(st.lists(st.sampled_from([0, 2]), min_size=len(ops), max_size=len(ops)))
        )
        low_e = np.bitwise_count(low_x & low_z) + signs
        low = (low_x, low_z, low_e)
        high = (x & ~on_low, z & ~on_low, e - low_e)
        got = [values.tolist() for values in _product_expectations(stab, low, high)]
        want = [
            _expect_xz(stab, low[0] | hx, low[1] | hz, low[2] + he).tolist()
            for hx, hz, he in zip(*high)
        ]
        assert got == want
        # the split operators themselves, against the reference elimination
        assert [row[j] for j, row in enumerate(got)] == [_reference_expect(stab, op) for op in ops]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            _expect(build_state(1), PauliOp(4, 1, 0, 1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            _expect(build_state(1), PauliOp(8, 0, 0, 0))


class TestReducedRows:
    def test_no_row_has_a_bit_at_another_pivot(self):
        for n in range(1, EXACT_BLOCK_CAP + 1):
            rows = build_state(n)._rows
            assert len(rows) == 4 * n
            for i, (xsel, zsel, *_) in enumerate(rows):
                assert (xsel == 0) != (zsel == 0)
                holders = [j for j, (_, _, x, z, _) in enumerate(rows) if (x & xsel) or (z & zsel)]
                assert holders == [i]

    def test_rows_stabilize_the_dense_state(self):
        for n in (1, 2, 3):
            stab, dense = _states(n)
            for _, _, x, z, e in stab._rows:
                op = PauliOp(4 * n, x, z, (e - (x & z).bit_count()) % 4)
                assert _dense_expect(dense, op) == pytest.approx(1, abs=1e-12)

    def test_window_entries_are_products_of_the_selected_rows(self):
        for n in range(1, EXACT_BLOCK_CAP + 1):
            _check_window_tables(build_state(n))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_graph_state_window_entries(self, data):
        # pivots on x bits from 0 up, so low windows fill all 8 bits
        _check_window_tables(data.draw(_graph_states()))

    def test_tables_are_read_only(self):
        for n in range(1, EXACT_BLOCK_CAP + 1):
            for *_, x, z, e in build_state(n)._tables:
                for array in (x, z, e):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 1

    def test_verify_builds_one_state(self, capsys, monkeypatch):
        # the correlation checks and the Bell terms share the cached state
        built = []
        init = StabilizerState.__init__

        def counted(self, generators):
            built.append(len(generators))
            init(self, generators)

        monkeypatch.setattr(StabilizerState, "__init__", counted)
        build_state.cache_clear()
        assert cli.main(["verify", "--n", "9"]) == 0
        assert built == [36]
        assert build_state(9) is build_state(9)
        assert built == [36]

    def test_register_cap(self):
        # Z on each qubit is a maximal set on any register; one uint64 mask
        # word holds 64 qubits, so the top qubit is the edge case
        def z_state(n: int) -> StabilizerState:
            return StabilizerState(tuple(PauliOp(n, 0, 1 << q, 0) for q in range(n)))

        top = STABILIZER_QUBIT_CAP - 1
        state = z_state(STABILIZER_QUBIT_CAP)
        assert _expect(state, PauliOp(STABILIZER_QUBIT_CAP, 0, 1 << top, 2)) == -1
        assert _expect(state, PauliOp(STABILIZER_QUBIT_CAP, 1 << top, 0, 0)) == 0
        with pytest.raises(ValueError, match="capped"):
            z_state(STABILIZER_QUBIT_CAP + 1)


# ═══════════════════════════════════════════════════════════════════════════
# Dense backend
# ═══════════════════════════════════════════════════════════════════════════


class TestDense:
    def test_one_block_amplitudes_match_golden(self):
        golden = json.loads((DATA_DIR / "dense_n1.json").read_text())
        want = np.array([complex(re, im) for re, im in golden])
        got = dense_state(1).amplitudes
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=0)

    def test_support_and_magnitudes(self):
        for n in (1, 2, 3):
            amps = dense_state(n).amplitudes
            nonzero = np.flatnonzero(amps)
            assert nonzero.size == 4**n
            half = 2 * n
            for idx in nonzero:
                # particle 2's bits repeat particle 1's
                assert (idx >> half) == (idx & ((1 << half) - 1))
            np.testing.assert_allclose(np.abs(amps[nonzero]), 2.0**-n)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            dense_state(DENSE_BLOCK_CAP + 1)
        with pytest.raises(ValueError):
            dense_state(0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            DenseState(np.ones(4, dtype=np.complex128))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DenseState(np.ones(3, dtype=np.complex128) / np.sqrt(3.0))

    def test_qubit_zero_is_the_most_significant_bit(self):
        # the block state is symmetric under reversing all qubits, so only an
        # asymmetric state pins the convention: basis index 1 is |0001>
        basis = DenseState(np.eye(16, dtype=np.complex128)[1])
        for q in range(4):
            z = PauliOp(4, 0, 1 << q, 0)
            assert _dense_expect(basis, z) == (-1.0 if q == 3 else 1.0)
        assert _dense_expect(basis, PauliOp(4, 1 << 3, 0, 0)) == 0.0

    def test_expectation_guards(self):
        d = dense_state(1)
        with pytest.raises(ValueError, match="Hermitian"):
            _dense_expect(d, PauliOp(4, 1, 0, 1))
        with pytest.raises(ValueError, match="size"):
            _dense_expect(d, PauliOp(8, 0, 0, 0))


def _check_window_tables(stab: StabilizerState) -> None:
    """Every window covers its own pivots, and each key that selects some of
    them holds the product of those rows, folded with ``_times``."""
    covered = 0
    for side, lo, pivots, x, z, e in stab._tables:
        covered += pivots.bit_count()
        keys = [key for key in range(pivots + 1) if key & ~pivots == 0]
        for key in keys:
            rows = [row[2:] for row in stab._rows if (row[side] >> lo) & key]
            assert len(rows) == key.bit_count()
            want = reduce(_times, rows, (0, 0, 0))
            assert (int(x[key]), int(z[key]), int(e[key])) == want, (side, lo, key)
    assert covered == len(stab._rows)


@cache
def _states(n: int) -> tuple[StabilizerState, DenseState]:
    return build_state(n), dense_state(n)


def _hermitian_paulis(n_qubits: int) -> st.SearchStrategy[PauliOp]:
    mask = st.integers(0, (1 << n_qubits) - 1)
    return st.builds(PauliOp, st.just(n_qubits), mask, mask, st.sampled_from([0, 2]))


def _group_elements(stab: StabilizerState) -> st.SearchStrategy[PauliOp]:
    """Signed products of generator subsets: the operators with expectation +-1."""
    gens = stab.generators

    def element(mask: int, negate: bool) -> PauliOp:
        op = reduce(pauli_mul, [g for i, g in enumerate(gens) if (mask >> i) & 1], PauliOp(stab.n, 0, 0, 0))
        return -op if negate else op

    return st.builds(element, st.integers(0, (1 << len(gens)) - 1), st.booleans())


@st.composite
def _graph_states(draw: st.DrawFn) -> StabilizerState:
    """A signed graph state on 1-40 qubits: generators +-X_v prod_{w ~ v} Z_w."""
    n = draw(st.integers(1, 40))
    drawn = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    adjacent = [0] * n
    for v, row in enumerate(drawn):
        for w in range(n):
            if w != v and row >> w & 1:
                adjacent[v] |= 1 << w
                adjacent[w] |= 1 << v
    signs = draw(st.lists(st.sampled_from([0, 2]), min_size=n, max_size=n))
    return StabilizerState(tuple(PauliOp(n, 1 << v, adjacent[v], signs[v]) for v in range(n)))


@st.composite
def _hadamard_graph_states(draw: st.DrawFn) -> StabilizerState:
    """A signed graph state with a Hadamard on each drawn qubit (none, possibly).

    A Hadamard swaps the qubit's X and Z bits and turns Y into -Y, so the
    generators stay Hermitian, independent and commuting.
    """
    graph = draw(_graph_states())
    n, on = graph.n, draw(st.integers(0, (1 << graph.n) - 1))

    def rotated(g: PauliOp) -> PauliOp:
        x = g.x & ~on | g.z & on
        z = g.z & ~on | g.x & on
        return PauliOp(n, x, z, (g.e + 2 * (g.x & g.z & on).bit_count()) % 4)

    return StabilizerState(tuple(rotated(g) for g in graph.generators))


# ═══════════════════════════════════════════════════════════════════════════
# Backend agreement
# ═══════════════════════════════════════════════════════════════════════════


class TestBackendAgreement:
    def test_correlations_agree(self):
        for n in (1, 2, 3):
            stab = build_state(n)
            dense = dense_state(n)
            for block in range(1, n + 1):
                for sign, letters in PERFECT_CORRELATIONS:
                    op = block_operator(+1, letters, block, n)
                    got = _dense_expect(dense, op)
                    assert got == pytest.approx(sign, abs=1e-12)
                    assert _expect(stab, op) == sign

    def test_random_paulis_agree(self):
        rng = np.random.default_rng(20240917)
        for n in (1, 2):
            stab = build_state(n)
            dense = dense_state(n)
            for _ in range(500):
                op = random_hermitian(rng, 4 * n)
                got = _dense_expect(dense, op)
                want = _expect(stab, op)
                assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_random_paulis_agree_property(self, data, n):
        stab, dense = _states(n)
        op = data.draw(st.one_of(_hermitian_paulis(4 * n), _group_elements(stab)))
        assert _dense_expect(dense, op) == pytest.approx(_expect(stab, op), abs=1e-12)

    def test_random_group_elements_agree(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            stab = build_state(n)
            dense = dense_state(n)
            gens = stab.generators
            for _ in range(50):
                mask = int(rng.integers(0, 1 << (4 * n)))
                ops = [gens[i] for i in range(4 * n) if (mask >> i) & 1]
                op = reduce(pauli_mul, ops, PauliOp(4 * n, 0, 0, 0))
                if rng.integers(0, 2):
                    op = -op
                    assert _expect(stab, op) == -1
                    assert _dense_expect(dense, op) == pytest.approx(-1, abs=1e-12)
                else:
                    assert _expect(stab, op) == 1
                    assert _dense_expect(dense, op) == pytest.approx(1, abs=1e-12)


# ═══════════════════════════════════════════════════════════════════════════
# Correlation report
# ═══════════════════════════════════════════════════════════════════════════


class TestCorrelationReport:
    def test_all_hold(self):
        for n in (1, 2, 3, 4):
            report = verify_perfect_correlations(n)
            assert report.n_blocks == n
            assert len(report.checks) == 7 * n
            assert report.passed
            assert report.n_passed == 7 * n
            assert report.failures() == ()
            assert report.summary() == f"{7 * n}/{7 * n} perfect correlations hold"

    def test_labels_carry_block_and_observables(self):
        report = verify_perfect_correlations(2)
        labels = {(c.block, c.label) for c in report.checks}
        assert (1, "X1(1).X2(1).z2(1)") in labels
        assert (2, "z1(2).z2(2)") in labels

    def test_mutated_state_records_failures(self, monkeypatch):
        # flip the sign of one generator: the report flags mismatches
        # instead of raising
        signs = [s for s, _ in BLOCK_GENERATORS]
        signs[0] = -signs[0]
        gens = tuple(
            block_operator(s, ls, 1, 1)
            for s, (_, ls) in zip(signs, BLOCK_GENERATORS)
        )
        mutated = StabilizerState(gens)
        monkeypatch.setattr(hyperbell.state, "build_state", lambda _: mutated)
        report = verify_perfect_correlations(1)
        assert not report.passed
        bad = report.failures()
        assert bad
        assert all(c.actual != c.expected for c in bad)
        # the flipped relation itself must be among the failures
        assert any(c.label == "X1(1).X2(1).z2(1)" for c in bad)
