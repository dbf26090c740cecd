"""Tests for state construction and the two expectation backends."""

from __future__ import annotations

import json
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell.pauli import PauliOp, _xz_exponent, commutes, identity, named_observable, pauli_mul
from hyperbell.state import (
    BLOCK_GENERATORS,
    DENSE_BLOCK_CAP,
    PERFECT_CORRELATIONS,
    DenseState,
    StabilizerState,
    _expect_xz_batch,
    block_operator,
    build_state,
    dense_expectation,
    dense_state,
    expectation,
    verify_perfect_correlations,
)

DATA_DIR = Path(__file__).parent / "data"


def random_hermitian(rng: np.random.Generator, n_qubits: int) -> PauliOp:
    x = int(rng.integers(0, 1 << n_qubits))
    z = int(rng.integers(0, 1 << n_qubits))
    return PauliOp(n_qubits, x, z, int(rng.integers(0, 2)) * 2)


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
            assert expectation(state, g) == 1

    def test_subset_products_stabilize(self):
        # the full group (all 2**4 subset products at N=1) fixes the state
        state = build_state(1)
        gens = state.generators
        seen = set()
        for mask in range(16):
            ops = [gens[i] for i in range(4) if (mask >> i) & 1]
            op = reduce(pauli_mul, ops, identity(4))
            assert expectation(state, op) == 1
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
        assert expectation(build_state(2), identity(8)) == 1

    def test_single_observables_vanish(self):
        # no local observable has a definite value on the entangled state
        state = build_state(1)
        for letter in "XYZxyz":
            for particle in (1, 2):
                op = named_observable(letter, particle, 1, 1)
                assert expectation(state, op) == 0

    def test_correlation_signs(self):
        state = build_state(1)
        for sign, letters in PERFECT_CORRELATIONS:
            op = block_operator(+1, letters, 1, 1)
            assert expectation(state, op) == sign
            assert expectation(state, -op) == -sign

    def test_batch_matches_one_operator_elimination(self):
        # random Paulis (mostly outside the group, so 0) and random signed
        # group elements (+-1), eliminated as one batch and one at a time
        rng = np.random.default_rng(11)
        state = build_state(2)
        ops = [random_hermitian(rng, 8) for _ in range(200)]
        for _ in range(200):
            mask = int(rng.integers(0, 1 << 8))
            chosen = [g for i, g in enumerate(state.generators) if (mask >> i) & 1]
            op = reduce(pauli_mul, chosen, identity(8))
            ops.append(-op if rng.integers(0, 2) else op)
        want = [expectation(state, op) for op in ops]
        got = _expect_xz_batch(
            state._rows,
            np.array([op.x for op in ops], dtype=np.uint64),
            np.array([op.z for op in ops], dtype=np.uint64),
            np.array([_xz_exponent(op) for op in ops], dtype=np.int64),
        )
        assert got.tolist() == want
        assert set(want) == {-1, 0, 1}
        # i * identity is not Hermitian: its phase stays odd after elimination
        zeros = np.zeros(1, dtype=np.uint64)
        with pytest.raises(AssertionError, match="odd phase"):
            _expect_xz_batch(state._rows, zeros, zeros.copy(), np.ones(1, dtype=np.int64))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(build_state(1), PauliOp(4, 1, 0, 1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            expectation(build_state(1), identity(8))


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
            assert dense_expectation(basis, z) == (-1.0 if q == 3 else 1.0)
        assert dense_expectation(basis, PauliOp(4, 1 << 3, 0, 0)) == 0.0

    def test_expectation_guards(self):
        d = dense_state(1)
        with pytest.raises(ValueError, match="Hermitian"):
            dense_expectation(d, PauliOp(4, 1, 0, 1))
        with pytest.raises(ValueError, match="size"):
            dense_expectation(d, identity(8))


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
        op = reduce(pauli_mul, [g for i, g in enumerate(gens) if (mask >> i) & 1], identity(stab.n))
        return -op if negate else op

    return st.builds(element, st.integers(0, (1 << len(gens)) - 1), st.booleans())


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
                    got = dense_expectation(dense, op)
                    assert got == pytest.approx(sign, abs=1e-12)
                    assert expectation(stab, op) == sign

    def test_random_paulis_agree(self):
        rng = np.random.default_rng(20240917)
        for n in (1, 2):
            stab = build_state(n)
            dense = dense_state(n)
            for _ in range(500):
                op = random_hermitian(rng, 4 * n)
                got = dense_expectation(dense, op)
                want = expectation(stab, op)
                assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_random_paulis_agree_property(self, data, n):
        stab, dense = _states(n)
        op = data.draw(st.one_of(_hermitian_paulis(4 * n), _group_elements(stab)))
        assert dense_expectation(dense, op) == pytest.approx(expectation(stab, op), abs=1e-12)

    def test_random_group_elements_agree(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            stab = build_state(n)
            dense = dense_state(n)
            gens = stab.generators
            for _ in range(50):
                mask = int(rng.integers(0, 1 << (4 * n)))
                ops = [gens[i] for i in range(4 * n) if (mask >> i) & 1]
                op = reduce(pauli_mul, ops, identity(4 * n))
                if rng.integers(0, 2):
                    op = -op
                    assert expectation(stab, op) == -1
                    assert dense_expectation(dense, op) == pytest.approx(-1, abs=1e-12)
                else:
                    assert expectation(stab, op) == 1
                    assert dense_expectation(dense, op) == pytest.approx(1, abs=1e-12)


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

    def test_mutated_state_records_failures(self):
        # flip the sign of one generator: the report flags mismatches
        # instead of raising
        signs = [s for s, _ in BLOCK_GENERATORS]
        signs[0] = -signs[0]
        gens = tuple(
            block_operator(s, ls, 1, 1)
            for s, (_, ls) in zip(signs, BLOCK_GENERATORS)
        )
        mutated = StabilizerState(gens)
        report = verify_perfect_correlations(1, state=mutated)
        assert not report.passed
        bad = report.failures()
        assert bad
        assert all(c.actual != c.expected for c in bad)
        # the flipped relation itself must be among the failures
        assert any(c.label == "X1(1).X2(1).z2(1)" for c in bad)
