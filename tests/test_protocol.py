import contextlib
import io
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spindj.protocol as protocol
from spindj import cli
from spindj.core import (
    CapacityError,
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    conjugate,
    embed,
    expectation,
    pauli_z,
    pauli_z_diagonal,
    polarization_operator,
)
from spindj.oracle import (
    TruthTable,
    oracle_channel,
    random_balanced,
    random_table,
    reversible_oracle,
)
from spindj.protocol import (
    Outcome,
    Verdict,
    classical_dj,
    classify_signal,
    prepare_liouville_input,
    run_liouville_dj,
    run_pseudo_pure_dj,
    thermal_epsilon,
)
from spindj.pulses import prepare_liouville_input_pulsed, von_neumann_entropy

from reference import brute_force_signal, pseudo_pure_matrix


def seeded_constant(n, seed):
    """All-zeros or all-ones, picked by the seed's parity."""
    return TruthTable.constant(n, seed & 1)


class TestPrepare:
    def test_single_input_populations(self):
        state = prepare_liouville_input(SpinSystem(1))
        assert_allclose(state.populations, [0.5, 0.5, 0.0, 0.0])

    def test_two_inputs_fill_the_ancilla_alpha_block(self):
        state = prepare_liouville_input(SpinSystem(2))
        assert_allclose(state.populations, [0.25] * 4 + [0.0] * 4)

    def test_separate_detection_spin_stays_alpha(self):
        system = SpinSystem(1, has_detection_spin=True)
        state = prepare_liouville_input(system)
        want = np.zeros(8)
        want[system.basis_index("000")] = 0.5
        want[system.basis_index("010")] = 0.5
        assert_allclose(state.populations, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("separate", [False, True])
    def test_pulse_sequence_reproduces_closed_form(self, n, separate):
        system = SpinSystem(n, has_detection_spin=separate)
        closed = prepare_liouville_input(system).populations
        pulsed = prepare_liouville_input_pulsed(system).populations
        assert np.max(np.abs(closed - pulsed)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_entropy_is_n_log_two(self, n):
        state = prepare_liouville_input(SpinSystem(n))
        assert abs(von_neumann_entropy(state) - n * np.log(2)) < 1e-10


class TestClassifySignal:
    def test_examples(self):
        assert classify_signal(1.0) is Verdict.CONSTANT0
        assert classify_signal(-1.0) is Verdict.CONSTANT1
        assert classify_signal(3e-15) is Verdict.BALANCED

    def test_tolerance_boundary(self):
        assert classify_signal(0.5, tol=0.4) is Verdict.CONSTANT0
        assert classify_signal(0.5, tol=0.6) is Verdict.BALANCED
        # --tolerance: a signal within +-sigma, bounds included, reads balanced
        assert classify_signal(0.5, tol=0.5) is Verdict.BALANCED
        assert classify_signal(-0.5, tol=0.5) is Verdict.BALANCED

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            classify_signal(0.1, tol=0.0)
        with pytest.raises(ValueError):
            classify_signal(0.1, tol=float("nan"))

    @pytest.mark.parametrize("signal", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_signal_that_is_not_a_finite_number(self, signal):
        with pytest.raises(ValueError, match="signal must be a finite number"):
            classify_signal(signal)


class TestLiouvilleRun:
    def test_constant0_gives_plus_one(self):
        out = run_liouville_dj(SpinSystem(3), TruthTable.constant(3, 0))
        assert out.signal == 1.0
        assert out.verdict is Verdict.CONSTANT0
        assert out.evaluations == 1

    def test_constant1_gives_minus_one(self):
        out = run_liouville_dj(SpinSystem(3), TruthTable.constant(3, 1))
        assert out.signal == -1.0
        assert out.verdict is Verdict.CONSTANT1

    def test_balanced_gives_exact_silence(self):
        out = run_liouville_dj(SpinSystem(2), TruthTable.from_string("0110"))
        assert abs(out.signal) < 1e-12
        assert out.verdict is Verdict.BALANCED

    def test_unbalanced_table_gives_partial_signal(self):
        table = TruthTable.from_string("0001")
        assert brute_force_signal(table) == 0.5
        out = run_liouville_dj(SpinSystem(2), table)
        assert out.signal == 0.5

    def test_applies_the_oracle_exactly_once(self, monkeypatch):
        calls = []

        def counting_channel(state, oracle, **kwargs):
            calls.append(1)
            return oracle_channel(state, oracle, **kwargs)

        monkeypatch.setattr(protocol, "oracle_channel", counting_channel)
        out = run_liouville_dj(SpinSystem(3), random_balanced(3, 5))
        assert len(calls) == 1
        assert out.evaluations == 1

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_tolerance_before_building_a_state(self, monkeypatch, tolerance):
        def refuse(system):
            raise AssertionError("state prepared before the tolerance was checked")

        monkeypatch.setattr(protocol, "prepare_liouville_input", refuse)
        with pytest.raises(ValueError, match="tolerance"):
            run_liouville_dj(SpinSystem(3), TruthTable.constant(3, 0), tolerance=tolerance)

    @pytest.mark.parametrize("backend", ["dense", "diagonal"])
    def test_verdict_is_undecided_when_full_scale_is_within_twice_the_noise_floor(self, backend):
        # The full-scale signal is 1, so sigma >= 1/2 cannot tell +-1 from 0.
        system = SpinSystem(2)
        tables = {
            Verdict.CONSTANT0: TruthTable.constant(2, 0),
            Verdict.CONSTANT1: TruthTable.constant(2, 1),
            Verdict.BALANCED: TruthTable.from_string("0110"),
        }
        for verdict, table in tables.items():
            for sigma in (0.5, 1.0, 2.0):
                out = run_liouville_dj(system, table, backend, tolerance=sigma)
                assert out.verdict is Verdict.UNDECIDED
                assert out.signal == brute_force_signal(table)
            assert run_liouville_dj(system, table, backend, tolerance=0.4999).verdict is verdict

    @pytest.mark.parametrize("backend", ["dense", "diagonal"])
    @pytest.mark.parametrize("separate", [False, True])
    def test_readout_path_and_backend_agree_with_brute_force(self, backend, separate):
        rng = np.random.default_rng(67)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            table = random_table(n, int(rng.integers(2**32)))
            system = SpinSystem(n, has_detection_spin=separate)
            out = run_liouville_dj(system, table, backend)
            assert abs(out.signal - brute_force_signal(table)) < 1e-12

    @settings(deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        make=st.sampled_from([random_table, random_balanced, seeded_constant]),
        separate=st.booleans(),
    )
    def test_signal_is_exactly_the_mean_of_minus_one_to_the_f(self, n, seed, make, separate):
        table = make(n, seed)
        system = SpinSystem(n, has_detection_spin=separate)
        # 2^-n * S with S = sum_x (-1)^f(x) = 2^n - 2 * ones, bit for bit on both
        # backends: compared as float.hex, so a -0.0 for 0.0 fails too.
        want = math.ldexp(2**n - 2 * table.ones, -n).hex()
        assert run_liouville_dj(system, table).signal.hex() == want
        if n <= 8:
            assert run_liouville_dj(system, table, "dense").signal.hex() == want

    def test_readout_equals_the_pauli_z_expectation(self):
        # 2Iz is diagonal, so reading the populations is Tr(rho * 2Iz) even
        # for states with coherences; the dense observable stays the reference.
        rng = np.random.default_rng(73)
        systems = [
            SpinSystem(n, has_detection_spin=separate)
            for n in range(1, 5)
            for separate in (False, True)
            if n + 1 + separate <= 5
        ]
        for system in systems:
            for _ in range(10):
                a = rng.normal(size=(system.dim,) * 2) + 1j * rng.normal(size=(system.dim,) * 2)
                rho = DensityOperator(a @ a.conj().T / np.trace(a @ a.conj().T).real)
                occupancy = rng.random(system.dim) < 0.5
                occupancy[rng.integers(system.dim)] = True
                diagonal = DiagonalState(occupancy)
                for spin in range(system.n_spins):
                    observable = pauli_z(system, spin)
                    want = expectation(rho, observable)
                    got = float(rho.populations @ pauli_z_diagonal(system, spin))
                    assert abs(got - want) < 1e-12
                    got = diagonal.longitudinal(spin)
                    assert abs(got - expectation(diagonal, observable)) < 1e-12

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            run_liouville_dj(SpinSystem(1), TruthTable.constant(1, 0), "sparse")

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            run_liouville_dj(SpinSystem(13), TruthTable.constant(13, 0), "dense")
        # the same 14 spins fit the diagonal backend
        out = run_liouville_dj(SpinSystem(13), TruthTable.constant(13, 0), "diagonal")
        assert out.signal == 1.0


class TestOccupancy:
    """The diagonal run path holds the ensemble as an occupancy packed one bit
    per configuration, of the 2^n configurations that share population 2^-n."""

    # One to seven inputs: 4 to 512 configurations, under one byte to several 64-bit lanes.
    @pytest.mark.parametrize("separate", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_prepared_state_and_oracle_output_are_one_bit_occupancies(self, separate, n):
        system = SpinSystem(n, has_detection_spin=separate)
        prepared = prepare_liouville_input(system)
        output = oracle_channel(prepared, reversible_oracle(system, random_balanced(n, 3)))
        for state in (prepared, output):
            assert state.weights.dtype == np.uint8
            assert state.weights.nbytes == -(-system.dim // 8)
            assert np.bitwise_count(state.weights).sum() == 2**n
            assert state.trace == 1.0
        closed = np.zeros(system.dim)
        closed.reshape(2, 1 << n, -1)[0, :, 0] = 1.0 / (1 << n)
        assert prepared.populations.dtype == np.float64
        assert np.array_equal(prepared.populations, closed)

    @pytest.mark.parametrize("separate", [False, True])
    def test_a_diagonal_run_holds_one_occupancy(self, separate):
        # 21 spins: a 256 KiB occupancy, which the oracle and FANOUT move in place through
        # chunks of at most 512 KiB; a one-byte occupancy alone would be 2 MiB. The table is
        # built before tracing starts, and a warm-up run leaves out what numpy allocates once.
        n = 20 - separate
        system = SpinSystem(n, has_detection_spin=separate)
        table = random_balanced(n, 3)
        assert run_liouville_dj(system, table).verdict is Verdict.BALANCED
        tracemalloc.start()
        try:
            outcome = run_liouville_dj(system, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.verdict is Verdict.BALANCED
        assert peak < system.dim // 8 + (512 << 10)  # the occupancy and one chunk

    def test_run_path_never_builds_the_float_populations(self, monkeypatch):
        # At 25 spins a float view would add 256 MiB to a 32 MiB occupancy.
        def refuse(state):
            raise AssertionError("the diagonal run path read DiagonalState.populations")

        monkeypatch.setattr(DiagonalState, "populations", property(refuse))
        for separate in (False, True):
            system = SpinSystem(6, has_detection_spin=separate)
            for table in (TruthTable.constant(6, 1), random_balanced(6, 4), random_table(6, 5)):
                assert run_liouville_dj(system, table).signal == brute_force_signal(table)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--n", "1..3", "--trials", "5", "--seed", "1"]) == 0


class TestPseudoPure:
    def test_epsilon_one_is_the_pure_projector(self):
        matrix = pseudo_pure_matrix(2, 1.0).matrix
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        assert_allclose(matrix, want)

    def test_epsilon_zero_limit_is_maximally_mixed(self):
        # epsilon itself must be positive; check the formula at the boundary
        with pytest.raises(ValueError):
            pseudo_pure_matrix(2, 0.0)
        nearly = pseudo_pure_matrix(2, 1e-12).matrix
        assert_allclose(nearly, np.eye(4) / 4.0, atol=1e-12)

    def test_half_epsilon_single_spin(self):
        assert_allclose(pseudo_pure_matrix(1, 0.5).matrix, np.diag([0.75, 0.25]))

    def test_epsilon_must_lie_in_the_unit_interval(self):
        system, table = SpinSystem(2, has_detection_spin=True), TruthTable.constant(2, 0)
        for epsilon in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                run_pseudo_pure_dj(system, table, epsilon)
        for epsilon in (1.0, 1e-300):
            assert run_pseudo_pure_dj(system, table, epsilon).signal > 0

    def test_pure_state_circuit_decides(self):
        system = SpinSystem(2)
        const = run_pseudo_pure_dj(system, TruthTable.constant(2, 0), 1.0)
        assert abs(const.signal - 1.0) < 1e-12
        assert const.verdict is Verdict.CONSTANT0
        balanced = run_pseudo_pure_dj(system, TruthTable.from_string("0110"), 1.0)
        assert abs(balanced.signal) < 1e-12
        assert balanced.verdict is Verdict.BALANCED

    def test_signal_scales_with_epsilon(self):
        system = SpinSystem(2)
        out = run_pseudo_pure_dj(system, TruthTable.constant(2, 1), 0.25)
        reference = run_pseudo_pure_dj(system, TruthTable.constant(2, 1), 1.0)
        assert abs(out.signal - 0.25 * reference.signal) < 1e-10

    def test_linearity_over_random_tables_and_epsilons(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            table = random_table(n, int(rng.integers(2**32)))
            eps = float(rng.uniform(0.01, 1.0))
            system = SpinSystem(n)
            at_eps = run_pseudo_pure_dj(system, table, eps)
            at_one = run_pseudo_pure_dj(system, table, 1.0)
            assert abs(at_eps.signal - eps * at_one.signal) < 1e-10

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            run_pseudo_pure_dj(SpinSystem(2), TruthTable.constant(3, 0), 1.0)

    @settings(deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
        make=st.sampled_from([random_table, random_balanced, seeded_constant]),
        separate=st.booleans(),
        value=st.floats(1e-300, 1.0),
        thermal=st.booleans(),
    )
    def test_signal_is_epsilon_times_the_squared_liouville_signal(
        self, n, seed, make, separate, value, thermal
    ):
        # eps is drawn directly, or as epsilon(N) from a drawn polarization p.
        system = SpinSystem(n, has_detection_spin=separate)
        table = make(n, seed)
        s = run_liouville_dj(system, table).signal
        epsilon = thermal_epsilon(system.n_spins, value) if thermal else value
        want = epsilon * s**2
        got = run_pseudo_pure_dj(system, table, epsilon).signal
        # Relative to eps * s^2, or to eps itself where s = 0 (balanced).
        assert abs(got - want) <= 1e-12 * (want or epsilon)

    @settings(deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
        make=st.sampled_from([random_table, random_balanced, seeded_constant]),
        separate=st.booleans(),
        epsilon=st.floats(1e-300, 1.0),
    )
    def test_signal_is_never_negative(self, n, seed, make, separate, epsilon):
        # A population: a sum of |psi|^2, so no cancellation may leave it below 0.
        system = SpinSystem(n, has_detection_spin=separate)
        assert run_pseudo_pure_dj(system, make(n, seed), epsilon).signal >= 0.0

    def test_tiny_epsilon_keeps_a_positive_signal(self):
        out = run_pseudo_pure_dj(SpinSystem(2), TruthTable.constant(2, 0), 1e-300)
        assert out.signal > 0
        assert abs(out.signal - 1e-300) <= 1e-12 * 1e-300

    @pytest.mark.parametrize("separate", [False, True])
    def test_matches_the_whole_pseudo_pure_matrix_minus_its_background(self, separate):
        rng = np.random.default_rng(79)
        for n in range(1, 6 - separate):
            system = SpinSystem(n, has_detection_spin=separate)
            for make in (random_table, random_balanced, seeded_constant):
                table = make(n, int(rng.integers(2**32)))
                for epsilon in (
                    float(rng.uniform(0.01, 1.0)),
                    thermal_epsilon(system.n_spins, 1e-5),
                ):
                    reference = projector_readout(system, table, epsilon, conjugate)
                    signal = run_pseudo_pure_dj(system, table, epsilon).signal
                    assert abs(signal - reference) < 1e-12

    @pytest.mark.parametrize("separate", [False, True])
    @pytest.mark.parametrize(
        "source", ["constant0", "constant1", "balanced-random", "random"]
    )
    def test_matches_the_complex_projector_readout(self, source, separate):
        # The same reference evolved with the complex formula U rho U^dagger
        # written out, so no dense kernel of conjugate() is on its path.
        def complex_conjugate(state, gate):
            if isinstance(gate, Operator):
                u = gate.matrix
                return DensityOperator(u @ state.matrix @ u.conj().T, check=False)
            return conjugate(state, gate)

        make = {
            "constant0": lambda n, seed: TruthTable.constant(n, 0),
            "constant1": lambda n, seed: TruthTable.constant(n, 1),
            "balanced-random": random_balanced,
            "random": random_table,
        }[source]
        for n in range(1, 6 - separate):
            system = SpinSystem(n, has_detection_spin=separate)
            table = make(n, 97 + n)
            for epsilon in (0.3, thermal_epsilon(system.n_spins, 1e-5)):
                reference = projector_readout(system, table, epsilon, complex_conjugate)
                assert abs(run_pseudo_pure_dj(system, table, epsilon).signal - reference) < 1e-12

    def test_verdict_is_undecided_at_or_below_twice_the_noise_floor(self):
        system = SpinSystem(2)
        constant, balanced = TruthTable.constant(2, 1), TruthTable.from_string("0110")
        for table in (constant, balanced):
            # eps = 1e-3 against sigma = 5e-4 (eps = 2 sigma) and 1e-3
            for sigma in (5e-4, 1e-3):
                out = run_pseudo_pure_dj(system, table, 1e-3, tolerance=sigma)
                assert out.verdict is Verdict.UNDECIDED
        assert run_pseudo_pure_dj(system, constant, 1e-3, tolerance=4e-4).verdict is (
            Verdict.CONSTANT0
        )
        assert run_pseudo_pure_dj(system, balanced, 1e-3, tolerance=4e-4).verdict is (
            Verdict.BALANCED
        )

    def test_verdict_splits_at_half_epsilon(self):
        # One 1 in four entries: s = 1/2, so the signal eps * s^2 = eps/4 lies
        # below the eps/2 split.
        system = SpinSystem(2)
        out = run_pseudo_pure_dj(system, TruthTable.from_string("0001"), 1.0)
        assert abs(out.signal - 0.25) < 1e-12
        assert out.verdict is Verdict.BALANCED

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_tolerance_before_building_the_oracle(self, monkeypatch, tolerance):
        def refuse(system, table):
            raise AssertionError("oracle built before the tolerance was checked")

        monkeypatch.setattr(protocol, "reversible_oracle", refuse)
        # 14 spins exceed the dense limit too: the tolerance is checked first.
        with pytest.raises(ValueError, match="tolerance"):
            run_pseudo_pure_dj(
                SpinSystem(13), TruthTable.constant(13, 0), 0.5, tolerance=tolerance
            )

    def test_rejects_nonpositive_noise_floor(self):
        for sigma in (0.0, float("nan")):
            with pytest.raises(ValueError):
                run_pseudo_pure_dj(
                    SpinSystem(1), TruthTable.constant(1, 0), 1.0, tolerance=sigma
                )

    @pytest.mark.parametrize("separate", [False, True], ids=["ancilla", "separate"])
    def test_gates_are_the_real_part_of_the_complex_kronecker_chain(self, monkeypatch, separate):
        system = SpinSystem(3, has_detection_spin=separate)
        gates, states = [], []

        def recording(state, transform):
            gates.append(transform.matrix)
            states.append(state.amplitudes)
            return conjugate(state, transform)

        monkeypatch.setattr(protocol, "conjugate", recording)
        run_pseudo_pure_dj(system, random_balanced(3, 11), 0.5)

        def complex_chain(blocks):
            """I0 first, each spin's block appended on the right."""
            out = np.array([[1.0 + 0.0j]])
            for spin in range(system.n_spins):
                out = np.kron(out, blocks.get(spin, np.eye(2, dtype=complex)))
            return out

        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0) + 0j
        inputs = {spin: hadamard for spin in system.inputs}
        chains = [
            complex_chain({system.ancilla: np.array([[0, 1], [1, 0]], dtype=complex)}),
            complex_chain({system.ancilla: hadamard, **inputs}),
            complex_chain(inputs),
        ]
        assert len(gates) == 3
        for gate, chain in zip(gates, chains):
            assert gate.dtype == np.float64
            assert np.array_equal(gate, chain.real) and not chain.imag.any()
        assert all(psi.dtype == np.float64 for psi in states)


def projector_readout(system, table, epsilon, apply):
    """The whole pseudo-pure matrix through the circuit, read with the
    projector onto the all-alpha input block (ancilla and detection spin
    free), minus the identity's share (1 - eps) * 2^-n. ``apply(state,
    gate)`` conjugates a state by one gate."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    flip = np.array([[0, 1], [1, 0]])

    def gate(blocks):
        return Operator(embed(system, blocks))

    inputs = {spin: hadamard for spin in system.inputs}
    projector = np.eye(system.dim)
    for spin in system.inputs:
        projector = projector @ polarization_operator(system, spin, "alpha")
    state = pseudo_pure_matrix(system.n_spins, epsilon)
    state = apply(state, gate({system.ancilla: flip}))
    state = apply(state, gate({system.ancilla: hadamard, **inputs}))
    state = apply(state, reversible_oracle(system, table))
    state = apply(state, gate(inputs))
    raw = expectation(state, projector)
    return raw - (1.0 - epsilon) / (1 << table.n)


class TestThermalEpsilon:
    def test_single_spin_full_polarization(self):
        assert thermal_epsilon(1, 1.0) == 0.5

    def test_declared_model_value(self):
        assert abs(thermal_epsilon(10, 1e-5) - 9.765625e-8) < 1e-20

    def test_strictly_decreasing_from_two_spins(self):
        for n in range(2, 12):
            assert thermal_epsilon(n + 1, 1e-3) < thermal_epsilon(n, 1e-3)

    def test_underflows_to_zero_where_two_to_the_n_has_no_float(self):
        assert thermal_epsilon(1100, 1e-5) == 0.0
        assert thermal_epsilon(1100, 1.0) == 0.0
        assert thermal_epsilon(10**400, 0.5) == 0.0

    def test_reads_the_spin_count_as_an_index(self):
        assert thermal_epsilon(np.int64(3), 0.5) == thermal_epsilon(3, 0.5) == 0.1875
        assert thermal_epsilon(SpinSystem(np.int64(3)).n_spins, 0.5) == thermal_epsilon(4, 0.5)
        with pytest.raises(TypeError):
            thermal_epsilon(2.5, 0.5)

    def test_rejects_bad_polarization(self):
        with pytest.raises(ValueError):
            thermal_epsilon(3, 0.0)
        with pytest.raises(ValueError):
            thermal_epsilon(3, 1.5)
        for n_spins in (0, -1):  # a register with no spins has no prefactor
            with pytest.raises(ValueError):
                thermal_epsilon(n_spins, 0.5)


class TestClassical:
    def test_constant_needs_half_plus_one_queries(self):
        out = classical_dj(TruthTable.constant(2, 0))
        assert out.evaluations == 3
        assert out.verdict is Verdict.CONSTANT0
        assert out.signal == 1.0
        out = classical_dj(TruthTable.constant(2, 1))
        assert out.evaluations == 3
        assert out.verdict is Verdict.CONSTANT1
        assert out.signal == -1.0

    def test_constant_count_is_order_independent(self):
        for order in itertools.permutations(range(4)):
            for value in (0, 1):
                out = classical_dj(TruthTable.constant(2, value), order)
                assert out.evaluations == 3

    def test_xor_stops_at_first_mismatch(self):
        out = classical_dj(TruthTable.from_string("0110"), order=[0, 1, 2, 3])
        assert out.evaluations == 2
        assert out.verdict is Verdict.BALANCED
        assert out.signal == 0.0

    def test_worst_case_balanced_order(self):
        # first four answers identical, fifth must differ
        out = classical_dj(TruthTable.from_string("00001111"), order=list(range(8)))
        assert out.evaluations == 5
        assert out.verdict is Verdict.BALANCED

    def test_balanced_never_exceeds_worst_case(self):
        rng = np.random.default_rng(73)
        for n in (2, 3, 4):
            bound = (1 << (n - 1)) + 1
            for _ in range(200):
                table = random_balanced(n, int(rng.integers(2**32)))
                order = rng.permutation(1 << n)
                out = classical_dj(table, order)
                assert out.verdict is Verdict.BALANCED
                assert out.evaluations <= bound

    def test_promise_violation_reported(self):
        out = classical_dj(TruthTable.from_string("0001"))
        assert out.verdict is Verdict.PROMISE_VIOLATED
        assert out.evaluations == 0
        assert out.signal == 0.0

    def test_half_table_agreement_witness(self):
        # a constant and a balanced table answering identically on the
        # first 2^(n-1) queries: that many evaluations cannot decide
        for n in (1, 2, 3):
            half = 1 << (n - 1)
            order = list(range(1 << n))
            constant = TruthTable.constant(n, 0)
            bits = np.ones(1 << n, dtype=np.uint8)
            bits[order[:half]] = 0
            balanced = TruthTable(bits)
            assert [constant(x) for x in order[:half]] == [balanced(x) for x in order[:half]]
            assert classical_dj(constant, order).evaluations == half + 1
            assert classical_dj(balanced, order).evaluations == half + 1

    def test_rejects_repeated_or_out_of_range_queries(self):
        table = TruthTable.constant(2, 0)
        with pytest.raises(ValueError):
            classical_dj(table, order=[0, 0, 1, 2])
        with pytest.raises(ValueError):
            classical_dj(table, order=[0, 9, 1, 2])
        with pytest.raises(ValueError):
            classical_dj(table, order=[0, -1, 1, 2])
        # A fractional query is refused, not truncated to another input.
        with pytest.raises(TypeError):
            classical_dj(TruthTable.from_string("0011"), order=[0.5, 1.9, 2.2])
        with pytest.raises(TypeError):
            classical_dj(table, order=np.array([0.0, 1.0, 2.0]))
        # NumPy integers are queries like ints.
        assert classical_dj(table, order=np.array([3, 1, 0])).evaluations == 3

    def test_rejects_too_short_order(self):
        with pytest.raises(ValueError):
            classical_dj(TruthTable.constant(2, 0), order=[0, 1])


class TestOutcome:
    def test_signal_stays_normalized(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            table = random_table(n, int(rng.integers(2**32)))
            out = run_liouville_dj(SpinSystem(n), table)
            assert abs(out.signal) <= 1.0 + 1e-9

    def test_is_immutable(self):
        out = Outcome(1.0, Verdict.CONSTANT0, 1, "diagonal")
        with pytest.raises(AttributeError):
            out.signal = 0.0


def test_readme_library_example_prints_what_it_says():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    liouville, pseudo_pure, classical = printed.getvalue().splitlines()
    assert liouville == "0.0 Verdict.BALANCED 1"
    epsilon = 9 * 1e-5 / 2**9  # thermal epsilon(N) = N*p/2^N on 9 spins, about 1.758e-7
    assert abs(float(pseudo_pure) - epsilon) <= 1e-12 * epsilon
    assert classical == "129"
