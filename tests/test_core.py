import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spindj
from spindj.core import (
    BasisPermutation,
    CapacityError,
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    StateVector,
    conjugate,
    embed,
    ensure_capacity,
    expectation,
    is_unitary_matrix,
    pauli_z,
    pauli_z_diagonal,
    polarization_operator,
    to_dense,
)
from spindj.oracle import TruthTable, random_balanced, reversible_oracle
from spindj.pulses import (
    crusher,
    fanout_unitary,
    inversion_unitary,
    rotation_unitary,
    von_neumann_entropy,
    zeeman_product_state,
)

from reference import is_permutation_matrix

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
    return Operator(q)


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


def pack(occupancy):
    """A bool occupancy packed one bit per configuration, as DiagonalState holds it."""
    return np.packbits(occupancy, bitorder="little")


def unpack(bits, dim):
    return np.unpackbits(bits, count=dim, bitorder="little").astype(bool)


# Small occupancies move and are counted as one Python int; these settings send them
# through the numpy kernel and count, in one chunk or in chunks of one byte.
KERNELS = {
    "python int": {},
    "numpy, one chunk": {"_INT_BYTES": 0},
    "numpy, one byte per chunk": {"_INT_BYTES": 0, "_CHUNK_BYTES": 1},
    "numpy, one lane per chunk": {"_INT_BYTES": 0, "_CHUNK_BYTES": 8},
}


def use_kernel(monkeypatch, kernel):
    for name, value in KERNELS[kernel].items():
        monkeypatch.setattr(spindj.core, name, value)


@st.composite
def xor_maps(draw, max_spins):
    """A random target spin and a random boolean mask over the other spins,
    each mask axis of length 1 or 2, on N <= ``max_spins`` spins."""
    n_spins = draw(st.integers(1, max_spins))
    target = draw(st.integers(0, n_spins - 1))
    shape = tuple(
        1 if spin == target else draw(st.sampled_from((1, 2))) for spin in range(n_spins)
    )
    size = int(np.prod(shape))
    bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return BasisPermutation(target, np.array(bits, dtype=bool).reshape(shape))


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
        with pytest.raises(TypeError):  # a fractional count, not carried into n_spins
            SpinSystem(1.5)

    def test_bad_config_strings(self):
        system = SpinSystem(1)
        with pytest.raises(ValueError):
            system.basis_index("0")
        with pytest.raises(ValueError):
            system.basis_index("02")
        for index in (-1, system.dim):
            with pytest.raises(ValueError, match=f"basis index {index} out of range"):
                system.basis_label(index)

    def test_capacity_limits(self):
        ensure_capacity(13, "dense")
        ensure_capacity(26, "diagonal")
        with pytest.raises(CapacityError):
            ensure_capacity(14, "dense")
        with pytest.raises(CapacityError):
            ensure_capacity(27, "diagonal")
        # a given limit only lowers the cap
        with pytest.raises(CapacityError, match="capacity of 13$"):
            ensure_capacity(14, "dense", limit=14)
        ensure_capacity(3, "diagonal", limit=3)
        with pytest.raises(CapacityError, match="capacity of 3$"):
            ensure_capacity(4, "diagonal", limit=3)


class TestPolarizationOperators:
    def test_single_spin_alpha(self):
        op = polarization_operator(SpinSystem(1), 1, "alpha")
        # spin 1 of a 2-spin register: identity (x) projector
        assert_allclose(op, np.kron(np.eye(2), [[1, 0], [0, 0]]))

    def test_single_spin_blocks(self):
        # the least significant spin exposes the bare 2x2 blocks in the corner
        system = SpinSystem(1)
        alpha = polarization_operator(system, 1, "alpha")
        beta = polarization_operator(system, 1, "beta")
        assert np.array_equal(alpha[:2, :2], np.array([[1, 0], [0, 0]], dtype=complex))
        assert np.array_equal(beta[:2, :2], np.array([[0, 0], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    def test_sum_is_identity_exact(self, n_inputs):
        # exact arithmetic, no tolerance
        system = SpinSystem(n_inputs)
        for spin in range(system.n_spins):
            total = (
                polarization_operator(system, spin, "alpha")
                + polarization_operator(system, spin, "beta")
            )
            assert np.array_equal(total, np.eye(system.dim, dtype=complex))

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    def test_difference_is_pauli_z_exact(self, n_inputs):
        system = SpinSystem(n_inputs)
        for spin in range(system.n_spins):
            diff = (
                polarization_operator(system, spin, "alpha")
                - polarization_operator(system, spin, "beta")
            )
            assert np.array_equal(diff, pauli_z(system, spin))

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
                np.diag(pauli_z(system, spin)).real,
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
                product = product @ polarization_operator(system, spin, level)
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
        mixed = DensityOperator(np.eye(system.dim) / system.dim)
        assert expectation(mixed, pauli_z(system, 0)) == 0.0

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
        state = DiagonalState([True, True, True, True])
        assert expectation(state, pauli_z(system, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(zeeman_product_state(SpinSystem(1), "00"), pauli_z(SpinSystem(2), 0))

    def test_observable_must_match_the_state(self):
        state = DiagonalState([True] * 4)
        with pytest.raises(ValueError, match=r"observable of shape \(4, 2\)"):
            expectation(state, np.zeros((4, 2)))

    def test_non_hermitian_observable_rejected(self):
        state = DensityOperator(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))
        skew = np.array([[0, 1j], [1j, 0]])  # not Hermitian: imaginary trace
        with pytest.raises(ValueError):
            expectation(state, skew)

    def test_linear_in_state(self):
        rng = np.random.default_rng(11)
        system = SpinSystem(2)
        observable = pauli_z(system, 1)
        for _ in range(50):
            rho1 = random_density(rng, system.n_spins)
            rho2 = random_density(rng, system.n_spins)
            c1, c2 = rng.normal(size=2)
            mixture = DensityOperator(c1 * rho1.matrix + c2 * rho2.matrix, check=False)
            combined = expectation(mixture, observable)
            split = c1 * expectation(rho1, observable) + c2 * expectation(rho2, observable)
            assert abs(combined - split) < 1e-12


class TestConjugate:
    def test_identity_leaves_state(self):
        system = SpinSystem(1)
        state = zeeman_product_state(system, "01")
        out = conjugate(state, Operator(np.eye(system.dim)))
        assert_allclose(out.matrix, state.matrix)

    def test_permutation_swaps_populations(self):
        swap = BasisPermutation(0, np.ones(1, dtype=bool))
        state = DiagonalState([True, False])
        assert_allclose(conjugate(state, swap).populations, [0.0, 1.0])

    def test_maximally_mixed_invariant_under_any_unitary(self):
        rng = np.random.default_rng(23)
        system = SpinSystem(2)
        mixed = DensityOperator(np.eye(system.dim) / system.dim)
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
        state = DiagonalState([True, True])
        with pytest.raises(ValueError):
            conjugate(state, random_unitary(rng, 2))
        # a permutation matrix is still a dense operator; XOR maps are BasisPermutations
        for matrix in ([[0, 1], [1, 0]], [[0, 1], [1j, 0]]):
            with pytest.raises(ValueError, match="basis permutations"):
                conjugate(state, Operator(matrix))

    def test_non_unitary_rejected(self):
        # refused when the gate is built, before any state can be conjugated by it
        with pytest.raises(ValueError, match="not unitary"):
            Operator(np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex))

    def test_unknown_transform_type_rejected(self):
        state = DiagonalState([True, False])
        with pytest.raises(TypeError):
            conjugate(state, np.array([[0, 1], [1, 0]]))
        with pytest.raises(TypeError):
            conjugate(to_dense(state), np.array([[0, 1], [1, 0]]))

    def test_dimension_mismatch_rejected(self):
        swap = BasisPermutation(0, np.ones(1, dtype=bool))  # on one spin
        for state in (DiagonalState([True] * 4), DensityOperator(np.eye(4) / 4)):
            with pytest.raises(ValueError, match="dimension mismatch between state and transform"):
                conjugate(state, swap)

    def test_dense_and_diagonal_agree_exhaustively(self):
        # every XOR map at N <= 5 on every basis state
        for xor in xor_maps_up_to_five_spins():
            for index in range(xor.dim):
                diag = DiagonalState(np.arange(xor.dim) == index)
                via_diag = to_dense(conjugate(diag, xor))
                via_dense = conjugate(to_dense(diag), xor)
                assert np.array_equal(via_diag.matrix, via_dense.matrix)

    @settings(deadline=None, max_examples=200)
    @given(xor=xor_maps(max_spins=7), seed=st.integers(0, 2**32 - 1))
    def test_dense_and_diagonal_agree_randomized(self, xor, seed):
        # A random occupancy: the dense gather against the packed kernel.
        rng = np.random.default_rng(seed)
        occupancy = rng.random(xor.dim) < 0.5
        occupancy[rng.integers(xor.dim)] = True
        state = DiagonalState(occupancy)
        mapping = xor.mapping
        # involution, as an index map and as a channel
        assert np.array_equal(mapping[mapping], np.arange(xor.dim))
        out = conjugate(state, xor)
        assert np.array_equal(conjugate(out, xor).populations, state.populations)
        # trace preserved: the populations are only moved
        assert np.array_equal(np.sort(out.populations), np.sort(state.populations))
        assert abs(out.trace - state.trace) < 1e-12
        if xor.control.ndim <= 6:
            dense = conjugate(to_dense(state), xor)
            assert np.array_equal(np.diag(dense.matrix).real, out.populations)
            assert abs(dense.trace - state.trace) < 1e-12


def complex_conjugation(u: Operator, rho: DensityOperator) -> np.ndarray:
    """The complex formula U rho U^dagger, independent of :func:`conjugate`."""
    return u.matrix @ rho.matrix @ u.matrix.conj().T


class TestRealConjugation:
    @settings(deadline=None, max_examples=100)
    @given(n_spins=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_real_gate_on_real_state_matches_complex_formula(self, n_spins, seed):
        rng = np.random.default_rng(seed)
        dim = 1 << n_spins
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        u = Operator(q)
        a = rng.normal(size=(dim, dim))
        rho = DensityOperator(a + a.T)
        before = rho.matrix.copy()
        out = conjugate(rho, u)
        assert out.matrix.dtype == np.complex128
        assert not out.matrix.imag.any()
        assert np.max(np.abs(out.matrix - complex_conjugation(u, rho))) <= 1e-12
        assert np.array_equal(rho.matrix, before)

    def test_complex_gate_on_real_state_matches_complex_formula(self):
        for n_inputs in (1, 2, 3):
            system = SpinSystem(n_inputs)
            rho = zeeman_product_state(system, "0" * system.n_spins)
            pulse = rotation_unitary(system, "x", np.pi / 2.0, system.inputs)
            assert pulse.matrix.imag.any()
            out = conjugate(rho, pulse)
            assert out.matrix.imag.any()
            assert np.max(np.abs(out.matrix - complex_conjugation(pulse, rho))) <= 1e-12

    def test_real_gate_on_state_with_imaginary_coherences(self):
        rng = np.random.default_rng(41)
        for n_spins in (1, 2, 3, 4):
            rho = random_density(rng, n_spins)
            assert rho.matrix.imag.any()
            q, _ = np.linalg.qr(rng.normal(size=(rho.dim, rho.dim)))
            u = Operator(q)
            out = conjugate(rho, u)
            assert out.matrix.imag.any()
            assert np.max(np.abs(out.matrix - complex_conjugation(u, rho))) <= 1e-12


def random_amplitudes(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestStateVector:
    @settings(deadline=None, max_examples=200)
    @given(xor=xor_maps(max_spins=7), seed=st.integers(0, 2**32 - 1))
    def test_xor_map_moves_populations_as_the_diagonal_kernel(self, xor, seed):
        state = StateVector(random_amplitudes(np.random.default_rng(seed), xor.dim))
        out = conjugate(state, xor)
        assert np.array_equal(out.populations, state.populations[xor.mapping])
        # The configurations at or above the median population, moved by the packed kernel.
        median = np.median(state.populations)
        via_diagonal = conjugate(DiagonalState(state.populations >= median), xor)
        assert np.array_equal(via_diagonal.populations > 0, out.populations >= median)
        # an involution on the amplitudes too
        assert np.array_equal(conjugate(out, xor).amplitudes, state.amplitudes)

    @settings(deadline=None, max_examples=100)
    @given(n_spins=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_unitary_matches_the_density_matrix_formula(self, n_spins, seed):
        rng = np.random.default_rng(seed)
        dim = 1 << n_spins
        u = random_unitary(rng, dim)
        psi = random_amplitudes(rng, dim)
        out = conjugate(StateVector(psi), u)
        want = u.matrix @ np.outer(psi, psi.conj()) @ u.matrix.conj().T
        assert np.max(np.abs(np.outer(out.amplitudes, out.amplitudes.conj()) - want)) <= 1e-12

    def test_input_is_never_modified(self):
        rng = np.random.default_rng(73)
        system = SpinSystem(3, has_detection_spin=True)
        psi = random_amplitudes(rng, system.dim)
        before = psi.copy()
        state = StateVector(psi)
        for transform in (
            reversible_oracle(system, TruthTable.from_string("01101001")),
            fanout_unitary(system, 0, 4),
            inversion_unitary(system, 2),
            random_unitary(rng, system.dim),
        ):
            out = conjugate(state, transform)
            assert not np.shares_memory(out.amplitudes, psi)
            assert np.array_equal(psi, before)

    def test_rejects_anything_but_a_vector(self):
        with pytest.raises(ValueError, match="vector"):
            StateVector(np.eye(2))

    @pytest.mark.parametrize(
        "amplitudes, message",
        [([np.nan, 1.0], "amplitude 0 is nan"), ([1.0, np.inf], "amplitude 1 is inf"),
         ([1.0, complex(1.0, np.inf), np.nan], r"amplitude 1 is \(1\+infj\)")],
    )
    def test_must_be_finite(self, amplitudes, message):
        with pytest.raises(ValueError, match=message):
            StateVector(amplitudes)

    def test_real_amplitudes_stay_float64_through_a_real_gate(self):
        system = SpinSystem(2)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        gate = Operator(embed(system, {0: hadamard, 2: hadamard}))
        out = conjugate(StateVector(np.eye(1, system.dim)[0]), gate)
        assert out.amplitudes.dtype == np.float64
        assert np.array_equal(out.populations, out.amplitudes**2)
        assert_allclose(out.populations, [0.25, 0.25, 0, 0, 0.25, 0.25, 0, 0])

    def test_a_complex_gate_or_state_promotes_to_complex128(self):
        system = SpinSystem(2)
        real = StateVector(np.eye(1, system.dim)[0])
        pulse = rotation_unitary(system, "x", np.pi / 2.0, [1])
        out = conjugate(real, pulse)
        assert out.amplitudes.dtype == np.complex128
        assert_allclose(out.populations, [0.5, 0, 0.5, 0, 0, 0, 0, 0])
        flip = Operator(embed(system, {0: np.array([[0.0, 1.0], [1.0, 0.0]])}))
        assert conjugate(out, flip).amplitudes.dtype == np.complex128


class TestBackendConversion:
    def test_populations_is_a_read_only_view_of_the_diagonal(self):
        state = DensityOperator(np.array([[0.75, 0.25j], [-0.25j, 0.25]]))
        assert np.array_equal(state.populations, [0.75, 0.25])
        assert np.shares_memory(state.populations, state.matrix)
        with pytest.raises(ValueError):
            state.populations[0] = 1.0

    def test_diagonal_states_own_their_populations(self):
        diagonal = DiagonalState(np.ones(4, dtype=bool))
        assert np.array_equal(diagonal.populations, [0.25] * 4)
        assert not np.shares_memory(diagonal.populations, diagonal.weights)
        assert diagonal.populations.flags.c_contiguous
        state = DensityOperator(np.eye(4, dtype=complex) / 4.0)
        crushed = crusher(state)
        assert np.array_equal(crushed.populations, [0.25] * 4)
        assert not np.shares_memory(crushed.matrix, state.matrix)

    def test_uniform_is_scaled_identity(self):
        state = DiagonalState([True] * 4)
        assert_allclose(to_dense(state).matrix, np.eye(4) / 4.0)

    @pytest.mark.parametrize(
        "state",
        [StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)), DensityOperator(np.full((2, 2), 0.5))],
        ids=["state-vector", "coherent-density-operator"],
    )
    def test_to_dense_refuses_rather_than_dephases(self, state):
        with pytest.raises(TypeError, match=type(state).__name__):
            to_dense(state)


class TestRealArithmetic:
    def test_embed_of_real_blocks_is_float64(self):
        system = SpinSystem(2, has_detection_spin=True)
        assert embed(system, {}).dtype == np.float64
        assert np.array_equal(embed(system, {}), np.eye(system.dim))
        assert embed(system, {1: np.array([[0.0, 1.0], [1.0, 0.0]])}).dtype == np.float64
        assert pauli_z(system, 3).dtype == np.float64
        assert polarization_operator(system, 0, "beta").dtype == np.float64

    def test_embed_of_a_complex_block_is_complex128(self):
        system = SpinSystem(2)
        assert embed(system, {1: SIGMA_Z}).dtype == np.complex128
        assert rotation_unitary(system, "x", 1.0, [0]).matrix.dtype == np.complex128

    @pytest.mark.parametrize(
        "dtype, want",
        [(np.int64, np.float64), (np.float32, np.float64), (np.float64, np.float64),
         (np.complex64, np.complex128), (np.complex128, np.complex128)],
    )
    def test_operators_and_amplitudes_are_float64_or_complex128(self, dtype, want):
        assert Operator(np.eye(2, dtype=dtype)).matrix.dtype == want
        assert StateVector(np.ones(2, dtype=dtype)).amplitudes.dtype == want


class TestEntropy:
    def test_pure_product_state(self):
        assert von_neumann_entropy(zeeman_product_state(SpinSystem(2), "010")) == 0.0

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    def test_maximally_mixed(self, n_inputs):
        system = SpinSystem(n_inputs)
        entropy = von_neumann_entropy(DensityOperator(np.eye(system.dim) / system.dim))
        assert abs(entropy - system.n_spins * np.log(2)) < 1e-10

    def test_diagonal_backend(self):
        state = DiagonalState([True, True, False, False])
        assert abs(von_neumann_entropy(state) - np.log(2)) < 1e-12


class TestOperatorKinds:
    def test_unitary_check(self):
        with pytest.raises(ValueError):
            Operator(np.diag([1.0, 2.0]).astype(complex))

    def test_permutation_check(self):
        good = np.array([[0, 1], [1, 0]], dtype=complex)
        assert is_permutation_matrix(good)
        Operator(good)  # a permutation matrix is unitary: no error
        bad = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert not is_permutation_matrix(bad)
        with pytest.raises(ValueError):
            Operator(bad)

    def test_unitary_predicate(self):
        rng = np.random.default_rng(2)
        assert is_unitary_matrix(random_unitary(rng, 8).matrix)


class TestXorPermutation:
    def test_masked_swap_equals_index_permutation_exhaustively(self):
        rng = np.random.default_rng(71)
        count = 0
        for xor in xor_maps_up_to_five_spins():
            mapping = xor.mapping
            n_spins = xor.control.ndim
            # the docstring's rule, bit by bit: i ^ (control(i) << bit(target)),
            # where spin k is bit n_spins - 1 - k and a length-1 mask axis is read at 0
            expected = []
            for i in range(xor.dim):
                bits = [(i >> (n_spins - 1 - k)) & 1 for k in range(n_spins)]
                at = tuple(bit if size == 2 else 0 for bit, size in zip(bits, xor.control.shape))
                expected.append(i ^ (int(xor.control[at]) << (n_spins - 1 - xor.target)))
            assert mapping.tolist() == expected
            # an occupancy, by the packed kernel, which moves its bits here in place:
            # the set entry at i moves to expected[i]
            occupancy = rng.random(xor.dim) < 0.5
            moved = spindj.core._masked_swap(pack(occupancy), xor)
            assert moved.dtype == np.uint8
            assert np.array_equal(unpack(moved, xor.dim)[expected], occupancy)
            # diagonal: |i> -> |mapping[i]> carries the population at i to mapping[i]
            present = rng.random(xor.dim) < 0.5
            present[rng.integers(xor.dim)] = True
            state = DiagonalState(present)
            got = conjugate(state, xor)
            assert np.array_equal(got.populations[mapping], state.populations)
            assert np.array_equal(conjugate(got, xor).populations, state.populations)
            # dense, with coherences: the gather equals U rho U^dagger
            rho = random_density(rng, n_spins)
            dense = conjugate(rho, xor)
            assert np.array_equal(dense.matrix, conjugate(rho, xor.to_operator()).matrix)
            owned = DensityOperator(rho.matrix.copy())
            assert np.array_equal(conjugate(owned, xor, in_place=True).matrix, dense.matrix)
            assert np.array_equal(conjugate(dense, xor).matrix, rho.matrix)
            count += 1
        assert count == 2 * (4 + 16 + 256) + sum(n * n for n in range(2, 6))

    @settings(deadline=None)
    @given(data=st.data(), n_spins=st.integers(1, 7))
    def test_masked_swap_moves_an_occupancy_as_the_gather(self, data, n_spins):
        # The packed XOR kernel, in place, against the gather by the bit rule.
        target = data.draw(st.integers(0, n_spins - 1))
        shape = [data.draw(st.sampled_from([1, 2])) for _ in range(n_spins)]
        shape[target] = 1
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        xor = BasisPermutation(target, rng.random(shape) < 0.5)
        occupancy = rng.random(1 << n_spins) < 0.5
        want = occupancy.astype(float)[xor.mapping]
        for kernel in KERNELS:
            with pytest.MonkeyPatch.context() as patch:
                use_kernel(patch, kernel)
                bits = pack(occupancy)
                moved = spindj.core._masked_swap(bits, xor)
            assert moved.dtype == np.uint8 and np.shares_memory(moved, bits)
            assert np.array_equal(unpack(moved, xor.dim), want), kernel

    @pytest.mark.parametrize("case", ["fanout onto the last spin", "separate-layout oracle"])
    def test_the_separate_layout_maps_move_an_occupancy_by_the_bit_rule(self, case, monkeypatch):
        # Eight spins, I0 (bit 7) to the detection spin (bit 0); the inputs are bits 6..1.
        # The numpy kernel, one byte per chunk: FANOUT by a delta swap inside each byte,
        # the oracle by a mask that holds each table bit twice.
        use_kernel(monkeypatch, "numpy, one byte per chunk")
        system = SpinSystem(6, has_detection_spin=True)
        table = random_balanced(6, 73).to_string()
        if case == "fanout onto the last spin":
            xor, image = fanout_unitary(system, 0, system.detection), lambda i: i ^ (i >> 7)
        else:
            xor = reversible_oracle(system, TruthTable.from_string(table))
            image = lambda i: i ^ (int(table[(i >> 1) & 63]) << 7)
        control = xor.control  # no control bit on the last spin
        assert np.array_equal(control, np.broadcast_to(control[..., :1], control.shape))
        occupancy = np.random.default_rng(73).random(system.dim) < 0.5
        bits = pack(occupancy)
        moved = spindj.core._masked_swap(bits, xor)
        assert moved.dtype == np.uint8 and np.shares_memory(moved, bits)
        images = [image(i) for i in range(system.dim)]
        assert np.array_equal(unpack(moved, system.dim)[images], occupancy)

    # Oracles whose masks are the packed table (ancilla layout) or its spread (separate
    # layout), on 2 to 10 spins, by each kernel: the gather by the bit rule agrees with
    # the occupancy kernel.
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("separate", [False, True])
    def test_packed_oracles_move_an_occupancy_as_the_gather(self, kernel, separate, monkeypatch):
        use_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(78)
        for n in range(1, 9):
            system = SpinSystem(n, has_detection_spin=separate)
            tables = [TruthTable.constant(n, 0), TruthTable.constant(n, 1), random_balanced(n, n)]
            tables.append(TruthTable(rng.integers(0, 2, size=1 << n)))
            for table in tables:
                xor = reversible_oracle(system, table)
                occupancy = rng.random(system.dim) < 0.5
                moved = spindj.core._masked_swap(pack(occupancy), xor)
                assert np.array_equal(unpack(moved, system.dim), occupancy[xor.mapping]), (n, table)

    # Eight to eleven spins, a target among the last three, where the delta swap shifts in
    # 8-byte lanes: FANOUT's broadcast mask and a full mask, by each kernel, move an
    # occupancy as the gather by the bit rule does.
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_delta_swap_in_lanes_moves_an_occupancy_as_the_gather(self, kernel, monkeypatch):
        use_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(81)
        for n_spins in range(8, 12):
            system = SpinSystem(n_spins - 2, has_detection_spin=True)
            for target in range(n_spins - 3, n_spins):
                shape = (2,) * target + (1,) + (2,) * (n_spins - 1 - target)
                full = BasisPermutation(target, rng.random(shape) < 0.5)
                for xor in (fanout_unitary(system, 0, target), full):
                    occupancy = rng.random(xor.dim) < 0.5
                    moved = spindj.core._masked_swap(pack(occupancy), xor)
                    assert np.array_equal(unpack(moved, xor.dim), occupancy[xor.mapping]), xor

    # Chunks of four bytes on 11 to 13 spins: every chunk of a constant-0 oracle, and FANOUT's
    # chunks on the I0-alpha half, have an all-zero mask and are skipped. A constant-0 oracle
    # writes nothing, which a read-only occupancy shows.
    @pytest.mark.parametrize("separate", [False, True])
    def test_constant_oracles_move_an_occupancy_in_chunks(self, separate, monkeypatch):
        use_kernel(monkeypatch, "numpy, one chunk")
        monkeypatch.setattr(spindj.core, "_CHUNK_BYTES", 4)
        rng = np.random.default_rng(80)
        for n in (10, 11):
            system = SpinSystem(n, has_detection_spin=separate)
            maps = [reversible_oracle(system, TruthTable.constant(n, value)) for value in (0, 1)]
            if separate:
                maps.append(fanout_unitary(system, 0, system.detection))
            for xor in maps:
                occupancy = rng.random(system.dim) < 0.5
                moved = spindj.core._masked_swap(pack(occupancy), xor)
                assert np.array_equal(unpack(moved, system.dim), occupancy[xor.mapping])
            bits = pack(occupancy)
            bits.setflags(write=False)
            assert spindj.core._masked_swap(bits, maps[0]) is bits  # constant 0: nothing moves

    def test_a_strided_occupancy_moves_as_its_contiguous_copy(self):
        # A strided bool vector is packed into new contiguous bits, as its copy is.
        system = SpinSystem(3, has_detection_spin=True)
        every_other = (np.random.default_rng(74).random(2 * system.dim) < 0.5)[::2]
        strided = DiagonalState(every_other)
        assert not every_other.flags.c_contiguous and strided.weights.flags.c_contiguous
        contiguous = DiagonalState(every_other.copy())
        for xor in (
            reversible_oracle(system, TruthTable.from_string("01101001")),
            fanout_unitary(system, 0, system.detection),
            inversion_unitary(system, 1),
        ):
            got = conjugate(strided, xor).weights
            assert np.array_equal(got, conjugate(contiguous, xor).weights)

    # The numpy kernel in chunks of one to four bytes, so every map crosses chunk boundaries
    # at N <= 5, and the Python int kernel.
    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 4, None])
    def test_every_map_moves_an_occupancy_in_place_chunk_by_chunk(self, chunk_bytes, monkeypatch):
        if chunk_bytes:
            monkeypatch.setattr(spindj.core, "_INT_BYTES", 0)
            monkeypatch.setattr(spindj.core, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(75 + (chunk_bytes or 0))
        for xor in xor_maps_up_to_five_spins():
            occupancy = rng.random(xor.dim) < 0.5
            want, bits = pack(occupancy[xor.mapping]), pack(occupancy)
            before = bits.copy()
            copied = conjugate(DiagonalState.held(bits, xor.dim), xor)
            assert np.array_equal(copied.weights, want)
            assert np.array_equal(bits, before)
            assert not np.shares_memory(copied.weights, bits)
            handed = conjugate(DiagonalState.held(bits, xor.dim), xor, in_place=True)
            assert np.array_equal(handed.weights, want)
            assert np.shares_memory(handed.weights, bits)
            # A mask given as a strided view moves the occupancy as its contiguous copy does.
            strided = np.repeat(xor.control, 2, axis=-1)[..., ::2]
            back = conjugate(handed, BasisPermutation(xor.target, strided), in_place=True)
            assert np.array_equal(back.weights, before)

    # Two to eight spins: under one byte, one byte, one 64-bit lane and several lanes;
    # every target, under every pattern of length-1 mask axes, by each kernel and count.
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_target_and_mask_shape_on_two_to_eight_spins(self, kernel, monkeypatch):
        use_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(77)
        for n_spins in range(2, 9):
            shapes = itertools.product((1, 2), repeat=n_spins)
            for target, shape in itertools.product(range(n_spins), list(shapes)):
                if shape[target] != 1:
                    continue
                xor = BasisPermutation(target, rng.random(shape) < 0.5)
                occupancy = rng.random(xor.dim) < 0.5
                occupancy[rng.integers(xor.dim)] = True
                moved = conjugate(DiagonalState(occupancy), xor)
                want = occupancy[xor.mapping]  # the gather by the bit rule
                assert np.array_equal(moved.weights, pack(want)), (xor, shape)
                floats = want / np.count_nonzero(want)
                for spin in range(n_spins):
                    beta = np.count_nonzero(want.reshape(1 << spin, 2, -1)[:, 1])
                    total = np.count_nonzero(want)
                    assert moved.longitudinal(spin) == (total - 2 * beta) / total
                    sign = pauli_z_diagonal(SpinSystem(n_spins - 1), spin)
                    assert abs(moved.longitudinal(spin) - floats @ sign) < 1e-12

    # One rule: a handed-over occupancy the kernel cannot move where it lies is copied.
    @pytest.mark.parametrize("kind", ["strided", "read-only"])
    def test_a_handed_over_occupancy_that_cannot_be_moved_in_place_is_copied(self, kind):
        system = SpinSystem(4, has_detection_spin=True)
        values = pack(np.random.default_rng(76).random(2 * system.dim) < 0.5)
        if kind == "strided":
            bits = values[::2]
        else:
            bits = values[: system.dim // 8]
            bits.setflags(write=False)
        before = unpack(bits, system.dim)
        for xor in (
            reversible_oracle(system, TruthTable.from_string("0110100110010110")),
            fanout_unitary(system, 0, system.detection),
        ):
            out = conjugate(DiagonalState.held(bits, system.dim), xor, in_place=True)
            assert np.array_equal(out.weights, pack(before[xor.mapping]))
            assert not np.shares_memory(out.weights, bits)
            assert np.array_equal(unpack(bits, system.dim), before)

    def test_input_state_is_not_mutated(self):
        rng = np.random.default_rng(72)
        system = SpinSystem(3, has_detection_spin=True)
        state = DiagonalState(rng.random(system.dim) < 0.5)
        before = state.weights.copy()
        for xor in (
            reversible_oracle(system, TruthTable.from_string("01101001")),
            fanout_unitary(system, 0, 4),
            inversion_unitary(system, 2),
        ):
            out = conjugate(state, xor)
            assert not np.shares_memory(out.weights, state.weights)
            assert np.array_equal(state.weights, before)

    def test_rejects_non_boolean_control(self):
        with pytest.raises(ValueError, match="boolean"):
            BasisPermutation(0, np.ones((1, 2), dtype=np.uint8))

    def test_rejects_control_that_reads_the_target(self):
        with pytest.raises(ValueError, match="target"):
            BasisPermutation(0, np.array([[True, False], [False, True]]))

    def test_rejects_axes_that_are_not_spins(self):
        with pytest.raises(ValueError):
            BasisPermutation(0, np.ones((1, 3), dtype=bool))
        with pytest.raises(ValueError):
            BasisPermutation(2, np.ones((1, 2), dtype=bool))


class TestDenseXorMap:
    """The dense XOR map moves rows through one row buffer, and to_dense writes
    the diagonal; each must equal its single-call numpy form bit for bit."""

    # 8 spins (1 MiB) and 11 spins (64 MiB).
    @pytest.mark.parametrize("n_spins", [8, 11])
    def test_gather_and_to_dense_equal_their_single_call_forms(self, n_spins):
        system = SpinSystem(n_spins - 2, has_detection_spin=True)
        dim = system.dim
        # Every entry distinct, so any misplaced one shows.
        matrix = np.arange(dim * dim, dtype=float).reshape(dim, dim) * (1 - 0.5j)
        before = matrix.copy()
        state = DensityOperator(matrix, check=False)
        identity = reversible_oracle(system, TruthTable.constant(system.n_inputs, 0))
        for xor in (
            identity,
            reversible_oracle(system, TruthTable.constant(system.n_inputs, 1)),
            reversible_oracle(system, random_balanced(system.n_inputs, 17)),
            fanout_unitary(system, 0, n_spins - 1),
            inversion_unitary(system, 2),
        ):
            m = xor.mapping
            out = conjugate(state, xor)
            assert np.array_equal(out.matrix, matrix[np.ix_(m, m)])
            assert not np.shares_memory(out.matrix, matrix)
            assert np.array_equal(matrix, before)
            # Handed over, the matrix itself is moved and the result holds it.
            owned = DensityOperator(before.copy(), check=False)
            moved = conjugate(owned, xor, in_place=True)
            assert np.array_equal(moved.matrix, matrix[np.ix_(m, m)])
            assert np.shares_memory(moved.matrix, owned.matrix)
        # The constant0 oracle is the identity, so the loop above checked that it returns
        # an unshared copy of the input; handed over, the input itself comes back.
        assert np.array_equal(identity.mapping, np.arange(dim))
        owned = DensityOperator(before.copy(), check=False)
        assert conjugate(owned, identity, in_place=True).matrix is owned.matrix

        occupancy = np.random.default_rng(n_spins).random(dim) < 0.5
        dense = to_dense(DiagonalState(occupancy))
        assert dense.matrix.dtype == np.complex128
        want = occupancy / np.count_nonzero(occupancy)
        assert np.array_equal(dense.matrix, np.diag(want.astype(complex)))

    # Every XOR map at N <= 5 on a matrix whose entries are all distinct, off the
    # diagonal too, so a row or column gathered out of its span shows.
    def test_every_map_moves_every_entry_exhaustively(self):
        for xor in xor_maps_up_to_five_spins():
            dim, m = xor.dim, xor.mapping
            matrix = np.arange(dim * dim, dtype=float).reshape(dim, dim) * (1 - 0.5j)
            want = matrix[np.ix_(m, m)]
            out = conjugate(DensityOperator(matrix, check=False), xor)
            assert np.array_equal(out.matrix, want)
            assert not np.shares_memory(out.matrix, matrix)
            moved = conjugate(DensityOperator(matrix, check=False), xor, in_place=True)
            assert np.array_equal(moved.matrix, want)
            assert moved.matrix is matrix

    # A handed-over matrix is moved wherever its rows lie: rows of a Fortran-ordered
    # matrix and of a strided view are not contiguous, so the row buffer's writes
    # must follow their strides.
    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("layout", ["C", "Fortran", "strided"])
    def test_the_kernel_moves_a_matrix_of_any_memory_layout(self, layout, in_place):
        system = SpinSystem(3, has_detection_spin=True)
        dim = system.dim
        values = random_density(np.random.default_rng(29), system.n_spins).matrix
        if layout == "Fortran":
            matrix = np.asfortranarray(values)
        elif layout == "strided":
            matrix = np.zeros((2 * dim, 2 * dim), dtype=complex)[::2, 1::2]
            matrix[...] = values
        else:
            matrix = values.copy()
        state = DensityOperator(matrix, check=False)
        assert state.matrix is matrix
        for xor in (
            reversible_oracle(system, random_balanced(system.n_inputs, 5)),
            fanout_unitary(system, system.ancilla, system.detection),
        ):
            m = xor.mapping
            want = state.matrix[np.ix_(m, m)]
            before = state.matrix.copy()
            out = conjugate(state, xor, in_place=in_place)
            assert np.array_equal(out.matrix, want)
            assert np.shares_memory(out.matrix, matrix) == in_place
            if not in_place:
                assert np.array_equal(state.matrix, before)
            state = out
        assert np.array_equal(matrix, state.matrix) == in_place

    # Only a dense state or an occupancy under an XOR map is moved in place; a state
    # vector, and a dense state under a unitary Operator, keep the input unchanged.
    @pytest.mark.parametrize("kind", ["occupancy", "vector", "operator"])
    def test_in_place_leaves_every_other_input_unchanged(self, kind):
        rng = np.random.default_rng(43)
        system = SpinSystem(2, has_detection_spin=True)
        xor = reversible_oracle(system, TruthTable.from_string("0110"))
        field = {"vector": "amplitudes", "operator": "matrix"}.get(kind, "weights")
        if kind == "occupancy":
            state = DiagonalState(rng.random(system.dim) < 0.5)
        elif kind == "vector":
            amplitudes = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
            state = StateVector(amplitudes / np.linalg.norm(amplitudes))
        else:
            state = random_density(rng, system.n_spins)
            xor = xor.to_operator()
        held = getattr(state, field)
        before = held.copy()
        copied, handed = conjugate(state, xor), conjugate(state, xor, in_place=True)
        assert type(handed) is type(copied)
        assert np.array_equal(getattr(handed, field), getattr(copied, field))
        # A handed-over occupancy is the array moved.
        assert np.shares_memory(getattr(handed, field), held) == (kind == "occupancy")
        if kind != "occupancy":
            assert np.array_equal(held, before)

    def test_a_read_only_matrix_handed_over_is_copied(self):
        # The occupancy's rule: an array the kernel cannot write where it lies is copied.
        system = SpinSystem(2, has_detection_spin=True)
        matrix = random_density(np.random.default_rng(44), system.n_spins).matrix
        matrix.setflags(write=False)
        before = matrix.copy()
        xor = reversible_oracle(system, TruthTable.from_string("0110"))
        m = xor.mapping
        out = conjugate(DensityOperator(matrix, check=False), xor, in_place=True)
        assert np.array_equal(out.matrix, before[np.ix_(m, m)])
        assert not np.shares_memory(out.matrix, matrix)
        assert np.array_equal(matrix, before)


class TestStateValidation:
    def test_density_operator_must_be_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize(
        "value", [[0.5, 0.5], [0.5, 0.6], [1, 0], np.ones((2, 2), dtype=bool), []]
    )
    def test_diagonal_state_takes_only_a_vector_of_bools(self, value):
        with pytest.raises(ValueError, match=r"^an occupancy is a vector of bools, not [^\n]+$"):
            DiagonalState(value)

    def test_occupancy_is_the_uniform_mixture_over_its_set_entries(self):
        occupancy = DiagonalState(np.array([True, False, True, False]))
        assert occupancy.weights.tolist() == [0b0101] and occupancy.dim == 4  # bit i is entry i
        assert np.array_equal(occupancy.populations, [0.5, 0, 0.5, 0])
        assert occupancy.trace == 1.0
        assert [occupancy.longitudinal(spin) for spin in (0, 1)] == [0.0, 1.0]
        assert np.array_equal(DiagonalState(np.array([True, True, True])).populations, [1 / 3] * 3)
        with pytest.raises(ValueError, match="occupancy has no configuration set"):
            DiagonalState(np.zeros(4, dtype=bool))

    def test_a_list_of_bools_is_an_occupancy_as_a_bool_array_is(self):
        listed, array = DiagonalState([True, True]), DiagonalState(np.array([True, True]))
        assert np.array_equal(listed.populations, array.populations)
        assert listed.trace == array.trace == 1.0
        assert listed.longitudinal(0) == array.longitudinal(0) == 0.0

    @pytest.mark.parametrize("spin", [5, -1])
    def test_longitudinal_names_a_spin_outside_the_register(self, spin):
        with pytest.raises(ValueError, match=rf"spin index {spin} out of range for 2 spins"):
            DiagonalState(np.ones(4, dtype=bool)).longitudinal(spin)

    def test_longitudinal_names_a_length_that_is_no_register(self):
        with pytest.raises(ValueError, match=r"has 2\^N configurations, not 3$"):
            DiagonalState(np.ones(3, dtype=bool)).longitudinal(0)

    def test_trace_of_an_occupancy_is_exactly_one(self):
        # Seven entries of 1/7 sum to 0.9999999999999998 in float64; an occupancy
        # reports its exact trace, not that sum.
        state = DiagonalState(np.ones(7, dtype=bool))
        assert state.populations.sum() == 0.9999999999999998 and state.trace == 1.0

    def test_trace_of_an_occupancy_builds_no_float_populations(self):
        occupancy = DiagonalState(np.ones(1 << 21, dtype=bool))  # 2 MiB; its floats are 16 MiB
        tracemalloc.start()
        try:
            assert repr(occupancy) == f"DiagonalState(dim={1 << 21}, trace=1)"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @pytest.mark.parametrize(
        "matrix, message",
        [([[np.nan, 0], [0, 1]], r"entry \(0, 0\) is \(nan"),
         ([[0.5, np.inf], [np.inf, 0.5]], r"entry \(0, 1\) is \(inf")],
    )
    def test_density_operator_must_be_finite(self, matrix, message):
        # The inf pair must not reach the Hermiticity subtraction (inf - inf warns).
        with pytest.raises(ValueError, match=message):
            DensityOperator(matrix)

    @pytest.mark.parametrize(
        "kind, value, message",
        [(Operator, np.zeros((2, 3)), "operator matrix must be square"),
         (Operator, np.zeros(4), "operator matrix must be square"),
         (DensityOperator, np.zeros((2, 3)), "density matrix must be square"),
         (DensityOperator, np.zeros(4), "density matrix must be square"),
         (DiagonalState, np.eye(2, dtype=bool), "an occupancy is a vector of bools")],
    )
    def test_matrices_must_be_square_and_populations_a_vector(self, kind, value, message):
        with pytest.raises(ValueError, match=message):
            kind(value)


class TestCount:
    # Lengths that are and are not whole 8-byte lanes, and a 2-d half of an occupancy as the
    # readout counts it, summed whole or split at a bound of a few bytes, as past 2^28 bytes.
    @pytest.mark.parametrize("sum_bytes", [None, 1, 5, 8])
    def test_counts_the_set_bits_of_each_byte(self, sum_bytes, monkeypatch):
        if sum_bytes:
            monkeypatch.setattr(spindj.core, "_SUM_BYTES", sum_bytes)
        rng = np.random.default_rng(83)
        arrays = [rng.integers(0, 256, size, dtype=np.uint8) for size in (1, 7, 8, 9, 16, 37, 64)]
        arrays.append(np.full(24, 0xFF, np.uint8))
        halves = rng.integers(0, 256, (4, 2, 16), dtype=np.uint8)
        for bits in arrays + [halves[:, 0], halves[:, 1]]:
            assert spindj.core._count(bits) == sum(int(b).bit_count() for b in bits.flat)


def test_every_public_name_resolves():
    for name in spindj.__all__:
        assert getattr(spindj, name) is not None, name
