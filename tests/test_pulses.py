import numpy as np
import pytest
from numpy.testing import assert_allclose

from spindj.core import (
    DensityOperator,
    SpinSystem,
    conjugate,
    is_unitary_matrix,
)
from spindj.pulses import (
    crusher,
    fanout_unitary,
    inversion_unitary,
    rotation_unitary,
    zeeman_product_state,
)

from reference import is_permutation_matrix


def marginal(populations, system, spin):
    """Brute-force reduced populations (p_alpha, p_beta) of one spin."""
    pos = system.bit_position(spin)
    bits = (np.arange(system.dim) >> pos) & 1
    return np.array([populations[bits == 0].sum(), populations[bits == 1].sum()])


class TestRotationUnitary:
    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            rotation_unitary(SpinSystem(1), "z", 1.0, (0,))

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            rotation_unitary(SpinSystem(1), "x", 1.0, ())

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            rotation_unitary(SpinSystem(1), "x", float("nan"), (0,))

    def test_zero_angle_is_identity(self):
        system = SpinSystem(2)
        u = rotation_unitary(system, "x", 0.0, (1, 2))
        assert_allclose(u.matrix, np.eye(system.dim))

    def test_pi_pulse_inverts_population(self):
        system = SpinSystem(1)
        u = rotation_unitary(system, "x", np.pi, (0,))
        state = conjugate(zeeman_product_state(system, "00"), u)
        assert_allclose(np.diag(state.matrix).real, [0, 0, 1, 0], atol=1e-15)

    def test_half_pi_then_crusher_equalizes(self):
        # hand-computed: R(pi/2) |a><a| R^dag has diagonal (1/2, 1/2)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        r = np.array([[c, -1j * s], [-1j * s, c]])
        by_hand = np.diag(r @ np.diag([1.0, 0.0]).astype(complex) @ r.conj().T).real
        assert_allclose(by_hand, [0.5, 0.5])

        system = SpinSystem(1)
        u = rotation_unitary(system, "x", np.pi / 2, (1,))
        state = crusher(conjugate(zeeman_product_state(system, "00"), u))
        assert_allclose(state.populations, [0.5, 0.5, 0.0, 0.0])

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_angles_add(self, axis):
        rng = np.random.default_rng(17)
        system = SpinSystem(2)
        targets = (0, 2)
        for _ in range(25):
            a, b = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            u_ab = rotation_unitary(system, axis, a + b, targets)
            u_a = rotation_unitary(system, axis, a, targets)
            u_b = rotation_unitary(system, axis, b, targets)
            assert np.max(np.abs(u_a.matrix @ u_b.matrix - u_ab.matrix)) < 1e-12

    def test_generated_operators_are_unitary(self):
        rng = np.random.default_rng(19)
        system = SpinSystem(3)
        for _ in range(25):
            u = rotation_unitary(
                system,
                ("x", "y")[int(rng.integers(2))],
                float(rng.uniform(-10, 10)),
                (int(rng.integers(system.n_spins)),),
            )
            assert is_unitary_matrix(u.matrix)

    def test_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            rotation_unitary(SpinSystem(1), "x", 1.0, (5,))


class TestCrusher:
    def test_diagonal_input_unchanged(self):
        populations = np.array([0.1, 0.2, 0.3, 0.4])
        state = DensityOperator(np.diag(populations).astype(complex))
        assert np.array_equal(crusher(state).populations, populations)

    def test_equal_superposition(self):
        state = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
        assert_allclose(crusher(state).populations, [0.5, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityOperator((a @ a.conj().T) / np.trace(a @ a.conj().T).real, check=False)
        once = crusher(rho)
        twice = crusher(once)
        assert np.array_equal(once.matrix, twice.matrix)

    def test_never_changes_diagonal_entries(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = (a @ a.conj().T) / np.trace(a @ a.conj().T).real
        state = DensityOperator(rho, check=False)
        assert np.array_equal(crusher(state).populations, np.diag(rho).real)
        assert crusher(state).trace == state.trace


class TestFanout:
    def test_copies_control_bit(self):
        system = SpinSystem(1, has_detection_spin=True)
        copy = fanout_unitary(system, 0, 2).mapping
        # control alpha: |000> stays
        assert copy[system.basis_index("000")] == system.basis_index("000")
        # control beta, target alpha: target flips to beta
        assert copy[system.basis_index("100")] == system.basis_index("101")

    def test_involution(self):
        system = SpinSystem(2, has_detection_spin=True)
        mapping = fanout_unitary(system, 0, 3).mapping
        assert np.array_equal(mapping[mapping], np.arange(system.dim))

    def test_is_permutation_matrix(self):
        system = SpinSystem(1, has_detection_spin=True)
        op = fanout_unitary(system, 0, 2).to_operator()
        assert is_permutation_matrix(op.matrix)
        assert op.matrix.dtype == np.float64  # real entries stay float64

    def test_rejects_equal_control_and_target(self):
        for control, target in ((1, 1), (0, -1), (0, 7)):
            with pytest.raises(ValueError):
                fanout_unitary(SpinSystem(2), control, target)


class TestInversion:
    def test_flips_target(self):
        system = SpinSystem(1)
        flip = inversion_unitary(system, 1).mapping
        assert flip[system.basis_index("01")] == system.basis_index("00")
        assert flip[system.basis_index("10")] == system.basis_index("11")

    def test_squares_to_identity(self):
        system = SpinSystem(2)
        mapping = inversion_unitary(system, 0).mapping
        assert np.array_equal(mapping[mapping], np.arange(system.dim))

    def test_preserves_other_spins_marginals(self):
        rng = np.random.default_rng(53)
        system = SpinSystem(2)  # N = 3
        flip = inversion_unitary(system, 1)
        for _ in range(100):
            populations = rng.random(system.dim)
            populations /= populations.sum()
            state = DensityOperator(np.diag(populations))
            flipped = conjugate(state, flip)
            for spin in (0, 2):
                assert_allclose(
                    marginal(flipped.populations, system, spin),
                    marginal(populations, system, spin),
                    atol=1e-15,
                )
            # the target's own marginal swaps
            assert_allclose(
                marginal(flipped.populations, system, 1),
                marginal(populations, system, 1)[::-1],
                atol=1e-15,
            )

    def test_rejects_invalid_target(self):
        for target in (7, -1):
            with pytest.raises(ValueError):
                inversion_unitary(SpinSystem(1), target)
