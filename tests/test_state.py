"""Tests for state construction and the two expectation backends."""

from __future__ import annotations

import json
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperbell.bell
import hyperbell.state
from hyperbell import cli
from hyperbell.pauli import Observable, PauliOp, _xz_exponent, commutes, pauli_mul
from hyperbell.state import (
    BLOCK_GENERATORS,
    DENSE_BLOCK_CAP,
    EXACT_BLOCK_CAP,
    PERFECT_CORRELATIONS,
    STABILIZER_QUBIT_CAP,
    DenseState,
    StabilizerState,
    _expect_xz,
    block_operator,
    build_state,
    dense_state,
    expectation,
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


def _xz(op: PauliOp) -> tuple[int, int, int]:
    """op as the cores take it: masks and exponent in X^x Z^z normal form."""
    return op.x, op.z, _xz_exponent(op)


def _expect(state: StabilizerState, op: PauliOp) -> int:
    """<op> through the checked entry to the elimination core."""
    return expectation(state, op)


def _dense_expect(psi: DenseState, op: PauliOp) -> float:
    """<op> through the checked entry to the dense core."""
    return expectation(psi, op)


def _loop_expect(psi: DenseState, ops: list[tuple[int, int, int]]) -> list[float]:
    """The dense core's sum, one operator at a time: conj(psi[k ^ x]) times
    (-1)**popcount(k & z) psi[k] over the support k, by ``np.vdot``."""
    idx, amps = psi.support, psi.amplitudes
    here = amps[idx]
    signed = (np.where(np.bitwise_count(idx & z) & 1, -here, here) for _, z, _ in ops)
    return [(1j ** (e % 4) * np.vdot(amps[idx ^ x], s)).real for (x, _, e), s in zip(ops, signed)]


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

    def test_two_failing_components_name_the_first_failure_in_generator_order(self):
        # X and Z on qubits 0 and 1 of a 4-qubit register: each pair of
        # generators on one qubit is a component, and the message names the
        # first failure in generator order, whichever component holds it
        def x(q):
            return PauliOp(4, 1 << q, 0, 0)

        def z(q, e=0):
            return PauliOp(4, 0, 1 << q, e)

        # (0, 3) anticommute and so do (1, 2): the pair named is (0, 3)
        with pytest.raises(ValueError, match=r"^generators do not commute: \+X1\(1\) vs \+Z1\(1\)$"):
            StabilizerState((x(0), x(1), z(1), z(0)))
        with pytest.raises(ValueError, match=r"^generators do not commute: \+x1\(1\) vs \+z1\(1\)$"):
            StabilizerState((x(1), z(0), z(1), x(0)))
        # a repeated Z0 and a Z1 with its negation: the first generator that
        # is a product of earlier ones sets the message
        with pytest.raises(ValueError, match="^generators are dependent$"):
            StabilizerState((z(1), z(0), z(0), z(1, 2)))
        with pytest.raises(ValueError, match="^contradictory generator signs: -identity is in the group$"):
            StabilizerState((z(0), z(1), z(1, 2), z(0)))

    def test_build_state_refuses_a_block_count_that_is_not_an_integer(self):
        # the cache is typed, so True is refused even once N = 1 is built
        build_state(1)
        for bad in (True, False, 2.0, "3"):
            with pytest.raises(TypeError, match=f"^n_blocks must be an integer, got {bad!r}$"):
                build_state(bad)
        with pytest.raises(TypeError, match="n_blocks"):
            verify_perfect_correlations(True)

    def test_build_state_refuses_a_register_past_the_cap_before_making_generators(self, monkeypatch):
        made = []
        monkeypatch.setattr(hyperbell.state, "block_operator", lambda *args: made.append(args))
        too_many = STABILIZER_QUBIT_CAP // 4 + 1
        with pytest.raises(ValueError, match=rf"^n_blocks must be in \[1, {STABILIZER_QUBIT_CAP // 4}\], got {too_many}$"):
            build_state(too_many)
        assert made == []

    def test_block_operator_is_the_product_of_its_observables(self):
        # the shifted one-block template against pauli_mul over the named
        # observables, for every named product, block and register size
        names = [letters for _, letters in PERFECT_CORRELATIONS]
        names += [(("X", 1), ("x", 1), ("Y", 2), ("y", 2)), (("Y", 1), ("x", 1), ("X", 2), ("y", 2))]
        for n in range(1, STABILIZER_QUBIT_CAP // 4 + 1):
            for block in range(1, n + 1):
                for letters in names:
                    want = reduce(pauli_mul, (Observable(l, p, block).to_pauli(n) for l, p in letters))
                    for sign in (+1, -1):
                        got = block_operator(sign, letters, block, n)
                        assert got == (want if sign > 0 else -want), (n, block, letters)
        for block in (0, 3):
            with pytest.raises(ValueError, match=f"block {block} out of range for 2 blocks"):
                block_operator(+1, PERFECT_CORRELATIONS[0][1], block, 2)

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
                op = Observable(letter, particle, 1).to_pauli(1)
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
        assert _expect_xz(state, map(_xz, ops)) == want
        assert [_expect(state, op) for op in ops] == want
        assert set(want) == {-1, 0, 1}
        # i * identity is not Hermitian: its phase stays odd after
        # elimination, and so does i times a group element
        for n in (1, 2, 5, EXACT_BLOCK_CAP):
            state = build_state(n)
            for x, z, e in ((0, 0, 0), _xz(state.generators[-1])):
                with pytest.raises(AssertionError, match="odd phase"):
                    _expect_xz(state, [(x, z, e + 1)])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_reference(self, data):
        # block states for N = 1..12 fill the top half of both masks with
        # pivots; signed graph states put pivots on x bits from 0 up, with Y
        # phases, and Hadamards on some of their qubits move those pivots
        # onto z bits
        stab = data.draw(
            st.one_of(st.integers(1, EXACT_BLOCK_CAP).map(build_state), _hadamard_graph_states())
        )
        ops = data.draw(
            st.lists(st.one_of(_hermitian_paulis(stab.n), _group_elements(stab)), min_size=1, max_size=16)
        )
        want = [_reference_expect(stab, op) for op in ops]
        assert _expect_xz(stab, map(_xz, ops)) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_product_of_disjoint_factors_matches_kernel(self, data):
        # the block certificate's premise: on a state whose rows each sit
        # inside one block, the expectation of a product of one factor per
        # block is the product of the factors' expectations.  The state is
        # the block state with some generator signs flipped; each factor is
        # Hermitian with a random sign, a signed element of its block's group
        # (+-1), one with a mask bit flipped, or any Pauli on the block's
        # qubits (mostly 0).  The whole product goes through the kernel and
        # the reference elimination
        n = data.draw(st.integers(1, 4))
        flips = data.draw(st.lists(st.booleans(), min_size=4 * n, max_size=4 * n))
        gens = build_state(n).generators
        stab = StabilizerState(tuple(-g if flip else g for g, flip in zip(gens, flips)))

        def placed(bits: int, block: int) -> int:
            # bits 0, 1 on particle 1's pair of the block, 2, 3 on particle 2's
            return (bits & 3) << 2 * block | (bits >> 2) << 2 * (n + block)

        factors = []
        for block in range(n):
            kind = data.draw(st.sampled_from(["group", "perturbed", "any"]))
            if kind == "any":
                x, z = data.draw(st.lists(st.integers(0, 15), min_size=2, max_size=2))
                op = PauliOp(4 * n, placed(x, block), placed(z, block), 0)
            else:
                own = stab.generators[4 * block : 4 * block + 4]
                mask = data.draw(st.integers(0, 15))
                op = reduce(pauli_mul, [g for i, g in enumerate(own) if mask >> i & 1], PauliOp(4 * n, 0, 0, 0))
                if kind == "perturbed":
                    bit = placed(1 << data.draw(st.integers(0, 3)), block)
                    if data.draw(st.booleans()):
                        op = PauliOp(4 * n, op.x ^ bit, op.z, op.e)
                    else:
                        op = PauliOp(4 * n, op.x, op.z ^ bit, op.e)
            factors.append(-op if data.draw(st.booleans()) else op)
        whole = reduce(pauli_mul, factors)
        assert whole.is_hermitian
        each = _expect_xz(stab, map(_xz, factors))
        want = int(np.prod(each))
        assert _expect_xz(stab, [_xz(whole)]) == [want]
        assert _reference_expect(stab, whole) == want
        # the premise is on the state, not only the operators: on the Bell
        # pair (XX, ZZ) each X alone is 0 and their product +1
        pair = StabilizerState((PauliOp(2, 3, 0, 0), PauliOp(2, 0, 3, 0)))
        assert _expect_xz(pair, [(1, 0, 0), (2, 0, 0), (3, 0, 0)]) == [0, 0, 1]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            _expect(build_state(1), PauliOp(4, 1, 0, 1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            _expect(build_state(1), PauliOp(8, 0, 0, 0))


class TestReducedRows:
    def test_no_row_has_a_bit_at_another_pivot(self):
        # a pivot is one bit of the word x << n | z, set in its own row alone
        for n in range(1, EXACT_BLOCK_CAP + 1):
            pivots = build_state(n)._pivots
            assert len(pivots) == 4 * n
            for bit in pivots:
                assert bit & bit - 1 == 0
                holders = [b for b, (x, z, _) in pivots.items() if (x << 4 * n | z) & bit]
                assert holders == [bit]

    def test_rows_stabilize_the_dense_state(self):
        for n in (1, 2, 3):
            stab, dense = _states(n)
            for x, z, e in stab._pivots.values():
                op = PauliOp(4 * n, x, z, (e - (x & z).bit_count()) % 4)
                assert _dense_expect(dense, op) == pytest.approx(1, abs=1e-12)

    def test_rows_of_the_block_state_are_block_local(self):
        # the block certificate's premise: each row's support lies inside one
        # block's four qubits, up to the largest register the backend holds
        for n in range(1, STABILIZER_QUBIT_CAP // 4 + 1):
            blocks = [3 << 2 * b | 3 << 2 * (n + b) for b in range(n)]
            for x, z, _ in build_state(n)._pivots.values():
                assert sum((x | z) & ~own == 0 for own in blocks) == 1, n

    def test_tables_are_read_only(self):
        # the state's rows and the signed menu placed on every block are
        # cached and shared across callers, so neither can be written
        for n in range(1, EXACT_BLOCK_CAP + 1):
            menu = hyperbell.bell._signed_menu(n)
            assert menu is hyperbell.bell._signed_menu(n)
            pivots = build_state(n)._pivots
            for row in (menu, menu[0], next(iter(pivots.values()))):
                with pytest.raises(TypeError):
                    row[0] = row[-1]
            with pytest.raises(TypeError):
                menu[0][0][2] = 0
            with pytest.raises(TypeError):
                pivots[1] = (0, 0, 0)
            with pytest.raises(TypeError):
                del pivots[1]
            # nothing was written
            assert 1 not in pivots

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_do_not_depend_on_generator_order(self, data):
        # the fully row-reduced form is unique for a fixed pivot order, so
        # reducing the generators in any order, a component at a time, gives
        # the same rows: block states up to the largest register, and signed
        # graph states with Hadamards, whose components differ in size
        stab = data.draw(
            st.one_of(st.integers(1, STABILIZER_QUBIT_CAP // 4).map(build_state), _hadamard_graph_states())
        )
        shuffled = data.draw(st.permutations(stab.generators))
        assert dict(StabilizerState(tuple(shuffled))._pivots) == dict(stab._pivots)

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
        # Z on each qubit is a maximal set on any register; the top qubit of
        # the largest register is the edge case
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
        for bad in (0, DENSE_BLOCK_CAP + 1):
            with pytest.raises(ValueError, match=rf"^n_blocks must be in \[1, {DENSE_BLOCK_CAP}\], got {bad}$"):
                dense_state(bad)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            DenseState(np.ones(4, dtype=np.complex128))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DenseState(np.ones(3, dtype=np.complex128) / np.sqrt(3.0))

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError, match="1-D"):
            DenseState(np.eye(4, dtype=np.complex128) / 2)

    def test_qubit_q_is_bit_q_of_the_basis_index(self):
        # the block state is symmetric under reversing all qubits, so only an
        # asymmetric state pins the convention: basis index 1 has qubit 0 set
        basis = DenseState(np.eye(16, dtype=np.complex128)[1])
        for q in range(4):
            z = PauliOp(4, 0, 1 << q, 0)
            assert _dense_expect(basis, z) == (-1.0 if q == 0 else 1.0)
        assert _dense_expect(basis, PauliOp(4, 1, 0, 0)) == 0.0

    @pytest.mark.parametrize("n", range(1, DENSE_BLOCK_CAP + 1))
    def test_blocks_match_the_per_operator_loop(self, n):
        # every Bell term (+1 each) and random Hermitian Paulis (mostly 0):
        # a sum of +-2**-2N products is exact in any order, so equal, not close
        psi = dense_state(n)
        rng = np.random.default_rng(n)
        ops = [hyperbell.bell._join(n, enumerate(hyperbell.bell._digits(n, t)))[:3] for t in range(4**n)]
        ops += [_xz(random_hermitian(rng, 4 * n)) for _ in range(100)]
        assert hyperbell.state._dense_expect_xz(psi, ops).tolist() == _loop_expect(psi, ops)

    def test_blocks_match_the_loop_on_a_complex_state(self):
        # the block state is real; a random complex one checks the conjugate
        rng = np.random.default_rng(8)
        amps = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi = DenseState(amps / np.linalg.norm(amps))
        ops = [_xz(random_hermitian(rng, 8)) for _ in range(300)]
        got = hyperbell.state._dense_expect_xz(psi, ops).tolist()
        assert got == pytest.approx(_loop_expect(psi, ops), abs=1e-12)
        assert max(map(abs, got)) > 0.1

    def test_expectation_guards(self):
        d = dense_state(1)
        with pytest.raises(ValueError, match="Hermitian"):
            _dense_expect(d, PauliOp(4, 1, 0, 1))
        with pytest.raises(ValueError, match="size"):
            _dense_expect(d, PauliOp(8, 0, 0, 0))


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

    def test_cores_take_the_same_triples(self):
        # both exact cores read one list of (x, z, e) triples: random
        # Hermitian Paulis (mostly 0) and signed group elements (+-1)
        rng = np.random.default_rng(22)
        for n in (1, 2):
            stab, dense = _states(n)
            ops = [_xz(random_hermitian(rng, 4 * n)) for _ in range(200)]
            for _ in range(100):
                mask = int(rng.integers(0, 1 << 4 * n))
                chosen = [g for i, g in enumerate(stab.generators) if mask >> i & 1]
                op = reduce(pauli_mul, chosen, PauliOp(4 * n, 0, 0, 0))
                ops.append(_xz(-op if rng.integers(0, 2) else op))
            want = _expect_xz(stab, ops)
            assert set(want) == {-1, 0, 1}
            assert hyperbell.state._dense_expect_xz(dense, ops).tolist() == pytest.approx(want, abs=1e-12)

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

    def test_report_matches_the_named_observable_oracle(self):
        # every check against its relation built from named observables by
        # pauli_mul and evaluated by the reference elimination, in order
        for n in (1, 2, 5):
            state = build_state(n)
            want = []
            for block in range(1, n + 1):
                for sign, letters in PERFECT_CORRELATIONS:
                    observables = [Observable(l, p, block) for l, p in letters]
                    op = reduce(pauli_mul, (o.to_pauli(n) for o in observables))
                    label = ".".join(map(str, observables))
                    want.append((block, label, sign, _reference_expect(state, op)))
            report = verify_perfect_correlations(n)
            assert [(c.block, c.label, c.expected, c.actual) for c in report.checks] == want

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
