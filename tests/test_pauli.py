"""Tests for the exact Pauli algebra and its string format."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell.pauli import (
    LOWER,
    UPPER,
    Observable,
    PauliOp,
    QubitIndex,
    commutes,
    identity,
    named_observable,
    parse_pauli,
    pauli_mul,
    pauli_to_string,
)

LETTERS = "XYZ"


def random_pauli(rng: np.random.Generator, n_qubits: int, hermitian: bool = False) -> PauliOp:
    x = int(rng.integers(0, 1 << n_qubits))
    z = int(rng.integers(0, 1 << n_qubits))
    e = int(rng.integers(0, 4))
    if hermitian:
        e = 2 * (e % 2)
    return PauliOp(n_qubits, x, z, e)


def paulis(n_qubits: int) -> st.SearchStrategy[PauliOp]:
    """Any signed Pauli on n_qubits, phase included."""
    mask = st.integers(0, (1 << n_qubits) - 1)
    return st.builds(PauliOp, st.just(n_qubits), mask, mask, st.integers(0, 3))


def pauli_triples(max_blocks: int) -> st.SearchStrategy[tuple[PauliOp, PauliOp, PauliOp]]:
    return st.integers(1, max_blocks).flatmap(lambda n: st.tuples(*[paulis(4 * n)] * 3))


_SINGLE_QUBIT = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def pauli_matrix(op: PauliOp) -> np.ndarray:
    """Dense i**e times the Kronecker product of the letters; qubit 0 is the most significant."""
    letters = [_SINGLE_QUBIT[op.letter_at(q)] for q in range(op.n)]
    return 1j**op.e * reduce(np.kron, letters, np.eye(1))


# ═══════════════════════════════════════════════════════════════════
# Qubit layout
# ═══════════════════════════════════════════════════════════════════


class TestQubitLayout:
    def test_flat_order_is_particle_major(self):
        # N=3: particle 1 occupies qubits 0..5, particle 2 qubits 6..11
        assert QubitIndex(1, 1, UPPER).flat(3) == 0
        assert QubitIndex(1, 1, LOWER).flat(3) == 1
        assert QubitIndex(1, 3, LOWER).flat(3) == 5
        assert QubitIndex(2, 1, UPPER).flat(3) == 6
        assert QubitIndex(2, 1, LOWER).flat(3) == 7
        assert QubitIndex(2, 3, LOWER).flat(3) == 11

    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
    def test_flat_round_trip(self, n_blocks):
        for flat in range(4 * n_blocks):
            idx = QubitIndex.from_flat(flat, n_blocks)
            assert idx.flat(n_blocks) == flat

    def test_validation(self):
        with pytest.raises(ValueError):
            QubitIndex(3, 1, UPPER)
        with pytest.raises(ValueError):
            QubitIndex(1, 0, UPPER)
        with pytest.raises(ValueError):
            QubitIndex(1, 1, "middle")
        with pytest.raises(ValueError):
            QubitIndex(1, 4, UPPER).flat(3)
        with pytest.raises(ValueError):
            QubitIndex.from_flat(12, 3)


# ═══════════════════════════════════════════════════════════════════
# Named observables
# ═══════════════════════════════════════════════════════════════════


class TestNamedObservables:
    def test_case_picks_the_slot(self):
        upper = named_observable("X", 1, 1, 1)
        lower = named_observable("x", 1, 1, 1)
        assert upper.x == 0b0001 and upper.z == 0
        assert lower.x == 0b0010 and lower.z == 0

    def test_placement_across_particles_and_blocks(self):
        # N=3 register: z2(1) sits on qubit 2N+1 = 7, Y2(3) on qubit 10
        op = named_observable("z", 2, 1, 3)
        assert op.z == 1 << 7 and op.x == 0
        op = named_observable("Y", 2, 3, 3)
        assert op.x == 1 << 10 and op.z == 1 << 10

    def test_phase_is_plus_one(self):
        for letter in "XYZxyz":
            assert named_observable(letter, 1, 2, 3).e == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            named_observable("W", 1, 1, 1)
        with pytest.raises(ValueError):
            named_observable("X", 3, 1, 1)
        with pytest.raises(ValueError):
            named_observable("X", 1, 2, 1)  # block out of range

    def test_observable_str(self):
        assert str(Observable("x", 1, 2)) == "x1(2)"
        assert Observable("Y", 2, 1).qubit == QubitIndex(2, 1, UPPER)


# ═══════════════════════════════════════════════════════════════════
# Group algebra
# ═══════════════════════════════════════════════════════════════════


class TestAlgebra:
    def test_single_qubit_multiplication_table(self):
        # X*Y = iZ and cyclic relatives, with anticommuting reversals
        X = named_observable("X", 1, 1, 1)
        Y = named_observable("Y", 1, 1, 1)
        Z = named_observable("Z", 1, 1, 1)
        assert pauli_to_string(X * Y) == "+iZ1(1)"
        assert pauli_to_string(Y * X) == "-iZ1(1)"
        assert pauli_to_string(Y * Z) == "+iX1(1)"
        assert pauli_to_string(Z * Y) == "-iX1(1)"
        assert pauli_to_string(Z * X) == "+iY1(1)"
        assert pauli_to_string(X * Z) == "-iY1(1)"

    def test_letters_square_to_identity(self):
        for letter in "XYZxyz":
            op = named_observable(letter, 2, 1, 2)
            assert op * op == identity(8)

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            op = random_pauli(rng, 8)
            assert op * identity(8) == op
            assert identity(8) * op == op

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (random_pauli(rng, 8) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_phase_group_closure(self):
        rng = np.random.default_rng(12)
        op = identity(8)
        for _ in range(100):
            op = op * random_pauli(rng, 8)
            assert op.e in (0, 1, 2, 3)

    def test_negation(self):
        op = named_observable("Y", 1, 1, 1)
        assert op.e == 0 and (-op).e == 2
        assert -(-op) == op

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pauli_mul(identity(4), identity(8))
        with pytest.raises(ValueError):
            commutes(identity(4), identity(8))


class TestCommutation:
    def test_sign_agreement_exhaustive_two_qubits(self):
        # a*b equals +-(b*a) and the sign must match the symplectic test,
        # over all 256 unsigned two-qubit Pauli pairs
        ops = [PauliOp(2, x, z, 0) for x in range(4) for z in range(4)]
        assert len(ops) == 16
        for a in ops:
            for b in ops:
                ab = a * b
                ba = b * a
                assert (ab.x, ab.z) == (ba.x, ba.z)
                same_phase = ab.e == ba.e
                assert same_phase == commutes(a, b)
                if not same_phase:
                    assert ab.e == (ba.e + 2) % 4

    def test_same_pair_distinct_slots_commute(self):
        # upper-slot letters and lower-slot letters of one (particle, block)
        # pair touch distinct qubits, so any cross pair commutes
        for particle in (1, 2):
            for up in "XYZ":
                for low in "xyz":
                    a = named_observable(up, particle, 2, 3)
                    b = named_observable(low, particle, 2, 3)
                    assert commutes(a, b)

    def test_same_slot_distinct_letters_anticommute(self):
        for letter_pair in ("XY", "YZ", "ZX", "xy", "yz", "zx"):
            a = named_observable(letter_pair[0], 1, 1, 2)
            b = named_observable(letter_pair[1], 1, 1, 2)
            assert not commutes(a, b)

    def test_disjoint_supports_commute(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_pauli(rng, 8)
            free = ((1 << 8) - 1) & ~(a.x | a.z)
            b = random_pauli(rng, 8)
            b = PauliOp(8, b.x & free, b.z & free, 0)
            assert commutes(a, b)


class TestAlgebraProperties:
    @settings(max_examples=200, deadline=None)
    @given(ops=pauli_triples(3))
    def test_product_is_associative(self, ops):
        a, b, c = ops
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))

    @settings(max_examples=100, deadline=None)
    @given(a=paulis(4), b=paulis(4))
    def test_product_is_the_matrix_product(self, a, b):
        assert np.array_equal(pauli_matrix(pauli_mul(a, b)), pauli_matrix(a) @ pauli_matrix(b))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_blocks=st.integers(1, 3))
    def test_string_round_trip(self, data, n_blocks):
        op = data.draw(paulis(4 * n_blocks))
        text = pauli_to_string(op)
        assert parse_pauli(text, n_blocks) == op
        assert pauli_to_string(parse_pauli(text, n_blocks)) == text


# ═══════════════════════════════════════════════════════════════════
# String format
# ═══════════════════════════════════════════════════════════════════


class TestStringFormat:
    def test_reference_strings(self):
        op = parse_pauli("+X1(1).x1(1).Y2(1).y2(1)", 1)
        assert pauli_to_string(op) == "+X1(1).x1(1).Y2(1).y2(1)"
        assert op.x == 0b1111 and op.z == 0b1100 and op.e == 0

    def test_identity_and_phases(self):
        for text in ("+I", "-I", "+iI", "-iI"):
            assert pauli_to_string(parse_pauli(text, 2)) == text

    def test_round_trip_random(self):
        rng = np.random.default_rng(14)
        for n_blocks in (1, 2, 3):
            for _ in range(200):
                op = random_pauli(rng, 4 * n_blocks)
                assert parse_pauli(pauli_to_string(op), n_blocks) == op

    def test_items_follow_flat_order(self):
        op = parse_pauli("-z2(2).X1(1).y1(2)", 2)
        assert pauli_to_string(op) == "-X1(1).y1(2).z2(2)"

    def test_malformed_rejected(self):
        for bad in ("X1(1)", "+X1", "+X3(1)", "+X1(0)", "+X1(1)..x1(1)", "", "+X1(1).X1(1)"):
            with pytest.raises(ValueError):
                parse_pauli(bad, 2)

    def test_block_out_of_register(self):
        with pytest.raises(ValueError):
            parse_pauli("+X1(3)", 2)
