import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spindj.core import (
    BasisPermutation,
    CapacityError,
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    XorPermutation,
    conjugate,
    ensure_capacity,
    expectation,
    is_permutation_matrix,
    is_unitary_matrix,
    maximally_mixed,
    pauli_z,
    pauli_z_diagonal,
    polarization_operator,
    to_dense,
    to_diagonal,
    von_neumann_entropy,
    zeeman_product_state,
)
from spindj.oracle import TruthTable, reversible_oracle
from spindj.pulses import fanout_unitary, inversion_unitary

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(rng, n_spins):
    dim = 1 << n_spins
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real, check=False)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Operator(q, kind="unitary")


class TestSpinSystem:
    def test_layout_without_detection_spin(self):
        system = SpinSystem(3)
        assert system.n_spins == 4
        assert system.dim == 16
        assert system.ancilla == 0
        assert system.inputs == (1, 2, 3)
        assert system.detection == 0

    def test_layout_with_detection_spin(self):
        system = SpinSystem(2, has_detection_spin=True)
        assert system.n_spins == 4
        assert system.detection == 3

    def test_ancilla_is_most_significant_bit(self):
        system = SpinSystem(2)
        assert system.bit_position(0) == 2
        assert system.bit_position(2) == 0
        assert system.basis_index("100") == 4
        assert system.basis_label(4) == "100"

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError):
            SpinSystem(0)

    def test_bad_config_strings(self):
        system = SpinSystem(1)
        with pytest.raises(ValueError):
            system.basis_index("0")
        with pytest.raises(ValueError):
            system.basis_index("02")

    def test_capacity_limits(self):
        ensure_capacity(13, "dense")
        ensure_capacity(26, "diagonal")
        with pytest.raises(CapacityError):
            ensure_capacity(14, "dense")
        with pytest.raises(CapacityError):
            ensure_capacity(27, "diagonal")
        ensure_capacity(14, "dense", limit=14)


class TestPolarizationOperators:
    def test_single_spin_alpha(self):
        op = polarization_operator(SpinSystem(1), 1, "alpha")
        # spin 1 of a 2-spin register: identity (x) projector
        assert_allclose(op.matrix, np.kron(np.eye(2), [[1, 0], [0, 0]]))

    def test_single_spin_blocks(self):
        # the least significant spin exposes the bare 2x2 blocks in the corner
        system = SpinSystem(1)
        alpha = polarization_operator(system, 1, "alpha").matrix
        beta = polarization_operator(system, 1, "beta").matrix
        assert np.array_equal(alpha[:2, :2], np.array([[1, 0], [0, 0]], dtype=complex))
        assert np.array_equal(beta[:2, :2], np.array([[0, 0], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    def test_sum_is_identity_exact(self, n_inputs):
        # exact arithmetic, no tolerance
        system = SpinSystem(n_inputs)
        for spin in range(system.n_spins):
            total = (
                polarization_operator(system, spin, "alpha").matrix
                + polarization_operator(system, spin, "beta").matrix
            )
            assert np.array_equal(total, np.eye(system.dim, dtype=complex))

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    def test_difference_is_pauli_z_exact(self, n_inputs):
        system = SpinSystem(n_inputs)
        for spin in range(system.n_spins):
            diff = (
                polarization_operator(system, spin, "alpha").matrix
                - polarization_operator(system, spin, "beta").matrix
            )
            assert np.array_equal(diff, pauli_z(system, spin).matrix)

    def test_invalid_spin_index(self):
        with pytest.raises(ValueError):
            polarization_operator(SpinSystem(1), 2, "alpha")

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            polarization_operator(SpinSystem(1), 0, "gamma")

    def test_pauli_z_diagonal_matches_matrix(self):
        system = SpinSystem(2, has_detection_spin=True)
        for spin in range(system.n_spins):
            assert_allclose(
                pauli_z_diagonal(system, spin),
                np.diag(pauli_z(system, spin).matrix).real,
            )


class TestZeemanProductState:
    def test_all_alpha_two_spins(self):
        state = zeeman_product_state(SpinSystem(1), "00")
        assert_allclose(state.matrix, np.diag([1, 0, 0, 0]).astype(complex))

    def test_ordering_convention(self):
        state = zeeman_product_state(SpinSystem(1), "01")
        assert_allclose(state.matrix, np.diag([0, 1, 0, 0]).astype(complex))

    def test_equals_product_of_polarization_operators(self):
        # Zeeman states are the direct products of per-spin projectors
        system = SpinSystem(2)
        for bits in itertools.product("01", repeat=system.n_spins):
            config = "".join(bits)
            product = np.eye(system.dim, dtype=complex)
            for spin, bit in enumerate(bits):
                level = "alpha" if bit == "0" else "beta"
                product = product @ polarization_operator(system, spin, level).matrix
            assert_allclose(zeeman_product_state(system, config).matrix, product)

    @pytest.mark.parametrize(
        "system",
        [SpinSystem(1), SpinSystem(2), SpinSystem(3), SpinSystem(2, has_detection_spin=True)],
    )
    def test_projector_properties_exhaustive(self, system):
        for index in range(system.dim):
            state = zeeman_product_state(system, system.basis_label(index))
            m = state.matrix
            assert abs(state.trace - 1.0) == 0.0
            assert np.array_equal(m, m.conj().T)
            assert_allclose(m @ m, m, atol=0)
            assert np.linalg.matrix_rank(m) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            zeeman_product_state(SpinSystem(2), "00")


class TestExpectation:
    def test_alpha_state_longitudinal(self):
        system = SpinSystem(1)
        state = zeeman_product_state(system, "00")
        assert expectation(state, pauli_z(system, 0)) == 1.0

    def test_maximally_mixed_traceless_observable(self):
        system = SpinSystem(1)
        assert expectation(maximally_mixed(system), pauli_z(system, 0)) == 0.0

    def test_msb_spin_on_second_basis_state(self):
        # independent route: direct trace against an explicit Kronecker matrix
        system = SpinSystem(1)
        state = DensityOperator(np.diag([0, 1, 0, 0]).astype(complex))
        observable = np.kron(SIGMA_Z, np.eye(2))
        by_hand = np.trace(state.matrix @ observable).real
        assert by_hand == 1.0
        assert expectation(state, pauli_z(system, 0)) == by_hand

    def test_diagonal_state_dot_product(self):
        system = SpinSystem(1)
        state = DiagonalState([0.25, 0.25, 0.25, 0.25])
        assert expectation(state, pauli_z(system, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(zeeman_product_state(SpinSystem(1), "00"), pauli_z(SpinSystem(2), 0))

    def test_non_hermitian_observable_rejected(self):
        state = DensityOperator(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))
        skew = np.array([[0, 1j], [1j, 0]])  # not Hermitian: imaginary trace
        with pytest.raises(ValueError):
            expectation(state, Operator(skew))

    def test_linear_in_state(self):
        rng = np.random.default_rng(11)
        system = SpinSystem(2)
        observable = pauli_z(system, 1)
        for _ in range(50):
            rho1 = random_density(rng, system.n_spins)
            rho2 = random_density(rng, system.n_spins)
            c1, c2 = rng.normal(size=2)
            combined = expectation(c1 * rho1 + c2 * rho2, observable)
            split = c1 * expectation(rho1, observable) + c2 * expectation(rho2, observable)
            assert abs(combined - split) < 1e-12


class TestConjugate:
    def test_identity_leaves_state(self):
        system = SpinSystem(1)
        state = zeeman_product_state(system, "01")
        out = conjugate(state, Operator.identity(system.dim))
        assert_allclose(out.matrix, state.matrix)

    def test_permutation_swaps_populations(self):
        swap = BasisPermutation([1, 0])
        state = DiagonalState([1.0, 0.0])
        assert_allclose(conjugate(state, swap).populations, [0.0, 1.0])

    def test_maximally_mixed_invariant_under_any_unitary(self):
        rng = np.random.default_rng(23)
        system = SpinSystem(2)
        mixed = maximally_mixed(system)
        for _ in range(20):
            u = random_unitary(rng, system.dim)
            assert_allclose(conjugate(mixed, u).matrix, mixed.matrix, atol=1e-13)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            n_spins = int(rng.integers(1, 4))
            rho = random_density(rng, n_spins)
            u = random_unitary(rng, rho.dim)
            out = conjugate(rho, u)
            assert abs(out.trace - rho.trace) < 1e-12
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12

    def test_diagonal_backend_requires_permutation(self):
        rng = np.random.default_rng(3)
        state = DiagonalState([0.5, 0.5])
        with pytest.raises(ValueError):
            conjugate(state, random_unitary(rng, 2))

    def test_diagonal_accepts_permutation_kind_operator(self):
        state = DiagonalState([1.0, 0.0])
        # permutation with a phase: populations must not see it
        matrix = np.array([[0, 1], [1j, 0]], dtype=complex)
        out = conjugate(state, Operator(matrix, kind="permutation"))
        assert_allclose(out.populations, [0.0, 1.0])

    def test_non_unitary_rejected(self):
        state = zeeman_product_state(SpinSystem(1), "00")
        bad = Operator(np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex))
        with pytest.raises(ValueError):
            conjugate(state, bad)

    def test_dense_and_diagonal_agree_exhaustively(self):
        rng = np.random.default_rng(41)
        for n_spins in (1, 2, 3):
            dim = 1 << n_spins
            perms = [BasisPermutation(rng.permutation(dim)) for _ in range(10)]
            for index in range(dim):
                populations = np.zeros(dim)
                populations[index] = 1.0
                diag = DiagonalState(populations)
                for perm in perms:
                    via_diag = to_dense(conjugate(diag, perm))
                    via_dense = conjugate(to_dense(diag), perm)
                    assert np.max(np.abs(via_diag.matrix - via_dense.matrix)) < 1e-12

    def test_dense_and_diagonal_agree_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n_spins = int(rng.integers(1, 11))
            dim = 1 << n_spins
            populations = rng.random(dim)
            populations /= populations.sum()
            diag = DiagonalState(populations)
            perm = BasisPermutation(rng.permutation(dim))
            got = conjugate(diag, perm).populations
            if n_spins <= 8:
                want = np.diag(conjugate(to_dense(diag), perm).matrix).real
                assert np.max(np.abs(got - want)) < 1e-12
            # permuting back must restore the original populations
            assert_allclose(conjugate(DiagonalState(got), perm.inverse()).populations, populations)


class TestBackendConversion:
    def test_round_trip(self):
        state = DiagonalState([0.5, 0.5])
        assert_allclose(to_diagonal(to_dense(state)).populations, state.populations)

    def test_rejects_coherences(self):
        matrix = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            to_diagonal(DensityOperator(matrix))

    def test_uniform_is_scaled_identity(self):
        state = DiagonalState([0.25] * 4)
        assert_allclose(to_dense(state).matrix, np.eye(4) / 4.0)


class TestEntropy:
    def test_pure_product_state(self):
        assert von_neumann_entropy(zeeman_product_state(SpinSystem(2), "010")) == 0.0

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    def test_maximally_mixed(self, n_inputs):
        system = SpinSystem(n_inputs)
        entropy = von_neumann_entropy(maximally_mixed(system))
        assert abs(entropy - system.n_spins * np.log(2)) < 1e-10

    def test_diagonal_backend(self):
        state = DiagonalState([0.5, 0.5, 0.0, 0.0])
        assert abs(von_neumann_entropy(state) - np.log(2)) < 1e-12


class TestOperatorKinds:
    def test_unitary_check(self):
        with pytest.raises(ValueError):
            Operator(np.diag([1.0, 2.0]).astype(complex), kind="unitary")

    def test_permutation_check(self):
        good = np.array([[0, 1], [1, 0]], dtype=complex)
        assert is_permutation_matrix(good)
        assert Operator(good, kind="permutation").kind == "permutation"
        bad = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert not is_permutation_matrix(bad)
        with pytest.raises(ValueError):
            Operator(bad, kind="permutation")

    def test_unitary_predicate(self):
        rng = np.random.default_rng(2)
        assert is_unitary_matrix(random_unitary(rng, 8).matrix)

    def test_basis_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            BasisPermutation([0, 0, 1, 2])

    def test_basis_permutation_round_trips_through_matrix(self):
        rng = np.random.default_rng(9)
        perm = BasisPermutation(rng.permutation(8))
        back = BasisPermutation.from_operator(perm.to_operator())
        assert back == perm

    def test_composition_matches_matrix_product(self):
        rng = np.random.default_rng(10)
        a = BasisPermutation(rng.permutation(8))
        b = BasisPermutation(rng.permutation(8))
        composed = (a @ b).to_operator().matrix
        assert_allclose(composed, a.to_operator().matrix @ b.to_operator().matrix)


def xor_maps_up_to_five_spins():
    """Every oracle at n <= 3 (with and without a detection spin), every
    FANOUT control/target pair and every inversion target, N <= 5."""
    for n in (1, 2, 3):
        for separate in (False, True):
            system = SpinSystem(n, has_detection_spin=separate)
            for bits in itertools.product((0, 1), repeat=1 << n):
                yield reversible_oracle(system, TruthTable(bits))
    for n_spins in range(2, 6):
        system = SpinSystem(n_spins - 1)
        for target in range(n_spins):
            yield inversion_unitary(system, target)
            for control in range(n_spins):
                if control != target:
                    yield fanout_unitary(system, control, target)


class TestXorPermutation:
    def test_masked_swap_equals_index_permutation_exhaustively(self):
        rng = np.random.default_rng(71)
        count = 0
        for xor in xor_maps_up_to_five_spins():
            generic = BasisPermutation(xor.mapping)
            assert xor.inverse() is xor and xor == generic
            assert xor.is_identity() == generic.is_identity()
            populations = rng.random(xor.dim)
            state = DiagonalState(populations / populations.sum())
            got = conjugate(state, xor).populations
            assert np.array_equal(got, conjugate(state, generic).populations)
            dense = conjugate(to_dense(state), xor).matrix
            assert np.array_equal(dense, conjugate(to_dense(state), generic).matrix)
            count += 1
        assert count == 2 * (4 + 16 + 256) + sum(n * n for n in range(2, 6))

    def test_input_state_is_not_mutated(self):
        rng = np.random.default_rng(72)
        system = SpinSystem(3, has_detection_spin=True)
        populations = rng.random(system.dim)
        populations /= populations.sum()
        before = populations.copy()
        state = DiagonalState(populations)
        for xor in (
            reversible_oracle(system, TruthTable.from_string("01101001")),
            fanout_unitary(system, 0, 4),
            inversion_unitary(system, 2),
        ):
            out = conjugate(state, xor)
            assert not np.shares_memory(out.populations, populations)
            assert np.array_equal(populations, before)

    def test_rejects_non_boolean_control(self):
        with pytest.raises(ValueError, match="boolean"):
            XorPermutation(0, np.ones((1, 2), dtype=np.uint8))

    def test_rejects_control_that_reads_the_target(self):
        with pytest.raises(ValueError, match="target"):
            XorPermutation(0, np.array([[True, False], [False, True]]))

    def test_rejects_axes_that_are_not_spins(self):
        with pytest.raises(ValueError):
            XorPermutation(0, np.ones((1, 3), dtype=bool))
        with pytest.raises(ValueError):
            XorPermutation(2, np.ones((1, 2), dtype=bool))


class TestStateValidation:
    def test_density_operator_must_be_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_diagonal_state_must_be_normalized(self):
        with pytest.raises(ValueError):
            DiagonalState([0.5, 0.6])
        with pytest.raises(ValueError):
            DiagonalState([1.5, -0.5])

    def test_real_weighted_sums_allowed(self):
        system = SpinSystem(1)
        rho = 0.3 * zeeman_product_state(system, "00") + 0.7 * zeeman_product_state(system, "01")
        assert abs(rho.trace - 1.0) < 1e-15
        with pytest.raises(TypeError):
            (1.0 + 1.0j) * zeeman_product_state(system, "00")
