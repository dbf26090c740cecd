"""Tests for the exact Pauli algebra and its string format."""

import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbell.pauli import Observable, PauliOp, commutes, pauli_mul, pauli_to_string

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
        for letter, particle, block, flat in [
            ("X", 1, 1, 0),
            ("x", 1, 1, 1),
            ("x", 1, 3, 5),
            ("X", 2, 1, 6),
            ("x", 2, 1, 7),
            ("x", 2, 3, 11),
        ]:
            assert Observable(letter, particle, block).to_pauli(3).x == 1 << flat

    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
    def test_flat_round_trip(self, n_blocks):
        # the string names each qubit by the observable that is placed there
        for flat in range(4 * n_blocks):
            text = pauli_to_string(PauliOp(4 * n_blocks, 1 << flat, 0, 0))
            letter, particle, block = re.fullmatch(r"\+([Xx])([12])\((\d+)\)", text).groups()
            assert Observable(letter, int(particle), int(block)).to_pauli(n_blocks).x == 1 << flat

    def test_validation(self):
        with pytest.raises(ValueError, match="particle must be 1 or 2"):
            Observable("X", 3, 1)
        with pytest.raises(ValueError, match="block must be >= 1"):
            Observable("X", 1, 0)
        with pytest.raises(ValueError, match="^block 4 out of range for 3 blocks$"):
            Observable("X", 1, 4).to_pauli(3)

    @pytest.mark.parametrize(
        "letter, particle, block, field",
        [
            ("X", 1, 1.5, "block"),
            ("X", 1.0, 1, "particle"),
            ("X", True, 1, "particle"),
            ("X", 1, True, "block"),
            ("X", "1", 1, "particle"),
            ("X", 1, None, "block"),
            (1, 1, 1, "letter"),
        ],
    )
    def test_fields_must_be_integers(self, letter, particle, block, field):
        # a float block once printed as X1(1.5) and failed only in to_pauli,
        # and True was taken as particle 1
        with pytest.raises((TypeError, ValueError), match=f"^{field} must be"):
            Observable(letter, particle, block)

    def test_numpy_integers_are_stored_as_python_ints(self):
        # an int64 block once shifted within int64 and wrapped to the identity
        obs = Observable("x", np.int64(2), np.int64(17))
        assert type(obs.particle) is type(obs.block) is int
        op = obs.to_pauli(17)
        assert op.x == 2**67 and op.z == 0 and type(op.x) is int
        with pytest.raises(ValueError, match="^particle must be 1 or 2, got 3$"):
            Observable("x", np.int64(3), 1)


# ═══════════════════════════════════════════════════════════════════
# Named observables
# ═══════════════════════════════════════════════════════════════════


class TestNamedObservables:
    def test_case_picks_the_slot(self):
        upper = Observable("X", 1, 1).to_pauli(1)
        lower = Observable("x", 1, 1).to_pauli(1)
        assert upper.x == 0b0001 and upper.z == 0
        assert lower.x == 0b0010 and lower.z == 0

    def test_placement_across_particles_and_blocks(self):
        # N=3 register: z2(1) sits on qubit 2N+1 = 7, Y2(3) on qubit 10
        op = Observable("z", 2, 1).to_pauli(3)
        assert op.z == 1 << 7 and op.x == 0
        op = Observable("Y", 2, 3).to_pauli(3)
        assert op.x == 1 << 10 and op.z == 1 << 10

    def test_phase_is_plus_one(self):
        for letter in "XYZxyz":
            assert Observable(letter, 1, 2).to_pauli(3).e == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            Observable("W", 1, 1).to_pauli(1)
        with pytest.raises(ValueError):
            Observable("X", 3, 1).to_pauli(1)
        with pytest.raises(ValueError):
            Observable("X", 1, 2).to_pauli(1)  # block out of range

    def test_observable_str(self):
        assert str(Observable("x", 1, 2)) == "x1(2)"
        for obs in (Observable("x", 1, 2), Observable("Y", 2, 1)):
            assert pauli_to_string(obs.to_pauli(2)) == f"+{obs}"


# ═══════════════════════════════════════════════════════════════════
# Group algebra
# ═══════════════════════════════════════════════════════════════════


class TestAlgebra:
    def test_single_qubit_multiplication_table(self):
        # X*Y = iZ and cyclic relatives, with anticommuting reversals
        X = Observable("X", 1, 1).to_pauli(1)
        Y = Observable("Y", 1, 1).to_pauli(1)
        Z = Observable("Z", 1, 1).to_pauli(1)
        assert pauli_to_string(X * Y) == "+iZ1(1)"
        assert pauli_to_string(Y * X) == "-iZ1(1)"
        assert pauli_to_string(Y * Z) == "+iX1(1)"
        assert pauli_to_string(Z * Y) == "-iX1(1)"
        assert pauli_to_string(Z * X) == "+iY1(1)"
        assert pauli_to_string(X * Z) == "-iY1(1)"

    def test_letters_square_to_identity(self):
        for letter in "XYZxyz":
            op = Observable(letter, 2, 1).to_pauli(2)
            assert op * op == PauliOp(8, 0, 0, 0)

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            op = random_pauli(rng, 8)
            assert op * PauliOp(8, 0, 0, 0) == op
            assert PauliOp(8, 0, 0, 0) * op == op

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (random_pauli(rng, 8) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_phase_group_closure(self):
        rng = np.random.default_rng(12)
        op = PauliOp(8, 0, 0, 0)
        for _ in range(100):
            op = op * random_pauli(rng, 8)
            assert op.e in (0, 1, 2, 3)

    def test_negation(self):
        op = Observable("Y", 1, 1).to_pauli(1)
        assert op.e == 0 and (-op).e == 2
        assert -(-op) == op

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pauli_mul(PauliOp(4, 0, 0, 0), PauliOp(8, 0, 0, 0))
        with pytest.raises(ValueError):
            commutes(PauliOp(4, 0, 0, 0), PauliOp(8, 0, 0, 0))

    def test_fields_are_validated(self):
        # a mask bit above the register would be dropped from the string
        # form, and a phase exponent outside 0..3 has no string at all
        for n, x, z, e, match in [
            (0, 0, 0, 0, "register size"),
            (4, 1 << 4, 0, 0, "masks x=0x10, z=0x0 out of range"),
            (4, 0, 1 << 4, 0, "masks x=0x0, z=0x10 out of range"),
            (4, -1, 0, 0, "masks x=-0x1, z=0x0 out of range"),
            (4, 1, 0, 5, "phase exponent"),
            (4, 1, 0, -1, "phase exponent"),
        ]:
            with pytest.raises(ValueError, match=match):
                PauliOp(n, x, z, e)
        assert pauli_to_string(PauliOp(4, 0b1111, 0b1111, 3)) == "-iY1(1).y1(1).Y2(1).y2(1)"

    @pytest.mark.parametrize(
        "n, x, z, e, field",
        [
            (4, 1.0, 0, 0.0, "x"),
            (4.0, 1, 0, 0, "n"),
            (4, 1, 0.0, 0, "z"),
            (4, 1, 0, 2.0, "e"),
            (4, True, 0, 0, "x"),
            (True, 1, 0, 0, "n"),
            (4, 1, 0, False, "e"),
            (4, "1", 0, 0, "x"),
        ],
    )
    def test_fields_must_be_integers(self, n, x, z, e, field):
        # a float mask once passed the range check (0 <= 1.0 < 16) and a float
        # phase the membership test (0.0 in {0, 1, 2, 3}), and pauli_mul failed later
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            PauliOp(n, x, z, e)

    def test_numpy_integers_are_stored_as_python_ints(self):
        op = PauliOp(np.int64(4), np.int64(1), np.uint8(2), np.int32(3))
        assert op == PauliOp(4, 1, 2, 3)
        assert [type(field) for field in op] == [int] * 4
        assert type(op._replace(n=np.int64(8)).n) is int
        with pytest.raises(ValueError, match="masks x=0x10, z=0x0 out of range"):
            PauliOp(np.int64(4), np.int64(16), 0, 0)


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
                    a = Observable(up, particle, 2).to_pauli(3)
                    b = Observable(low, particle, 2).to_pauli(3)
                    assert commutes(a, b)

    def test_same_slot_distinct_letters_anticommute(self):
        for letter_pair in ("XY", "YZ", "ZX", "xy", "yz", "zx"):
            a = Observable(letter_pair[0], 1, 1).to_pauli(2)
            b = Observable(letter_pair[1], 1, 1).to_pauli(2)
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


# ═══════════════════════════════════════════════════════════════════
# String format
# ═══════════════════════════════════════════════════════════════════


class TestStringFormat:
    def test_reference_strings(self):
        factors = [Observable(l, p, 1).to_pauli(1) for l, p in (("X", 1), ("x", 1), ("Y", 2), ("y", 2))]
        op = reduce(pauli_mul, factors)
        assert pauli_to_string(op) == "+X1(1).x1(1).Y2(1).y2(1)"
        assert op.x == 0b1111 and op.z == 0b1100 and op.e == 0

    def test_identity_and_phases(self):
        for e, text in enumerate(("+I", "+iI", "-I", "-iI")):
            assert pauli_to_string(PauliOp(8, 0, 0, e)) == text

    def test_strings_are_injective(self):
        # every signed Pauli on one block, 4 phases x 4**4 letter strings,
        # renders to its own string, so the format loses nothing
        ops = [PauliOp(4, x, z, e) for x in range(16) for z in range(16) for e in range(4)]
        assert len({pauli_to_string(op) for op in ops}) == len(ops) == 1024

    def test_items_follow_flat_order(self):
        factors = [Observable(l, p, b).to_pauli(2) for l, p, b in (("z", 2, 2), ("X", 1, 1), ("y", 1, 2))]
        op = -reduce(pauli_mul, factors)
        assert pauli_to_string(op) == "-X1(1).y1(2).z2(2)"

    def test_block_out_of_register(self):
        # items are named by block, so a register that is not whole blocks
        # (here qubits 4 and 5 of a 6-qubit register) has no string form
        with pytest.raises(ValueError, match="4N-qubit"):
            pauli_to_string(PauliOp(6, 1 << 4, 0, 0))
