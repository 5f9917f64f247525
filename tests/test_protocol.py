import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spindj.protocol as protocol
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
    polarization_operator,
    von_neumann_entropy,
)
from spindj.oracle import (
    TruthTable,
    oracle_channel,
    random_balanced,
    random_constant,
    random_table,
    reversible_oracle,
)
from spindj.protocol import (
    Outcome,
    PseudoPureConfig,
    Verdict,
    classical_dj,
    classify_signal,
    prepare_liouville_input,
    prepare_liouville_input_pulsed,
    pseudo_pure_matrix,
    pseudo_pure_state,
    run_liouville_dj,
    run_pseudo_pure_dj,
    thermal_epsilon,
)


def brute_force_signal(table):
    """Ground truth: 2^-n * sum over x of (-1)^f(x), by direct enumeration."""
    total = 0
    for x in range(1 << table.n):
        total += (-1) ** table(x)
    return total / (1 << table.n)


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

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            classify_signal(0.1, tol=0.0)


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

        def counting_channel(state, oracle):
            calls.append(1)
            return oracle_channel(state, oracle)

        monkeypatch.setattr(protocol, "oracle_channel", counting_channel)
        out = run_liouville_dj(SpinSystem(3), random_balanced(3, 5))
        assert len(calls) == 1
        assert out.evaluations == 1

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
        make=st.sampled_from([random_table, random_balanced, random_constant]),
        separate=st.booleans(),
    )
    def test_signal_is_exactly_the_mean_of_minus_one_to_the_f(self, n, seed, make, separate):
        table = make(n, seed)
        system = SpinSystem(n, has_detection_spin=separate)
        signal = run_liouville_dj(system, table).signal
        # 2^-n * sum_x (-1)^f(x), exact: the numerator is an integer below 2^53.
        assert signal == (len(table) - 2 * table.ones) / len(table)
        if n <= 6:
            assert abs(run_liouville_dj(system, table, "dense").signal - signal) < 1e-12

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
                populations = DiagonalState(np.diag(rho.matrix).real)
                for spin in range(system.n_spins):
                    observable = pauli_z(system, spin)
                    want = expectation(rho, observable)
                    assert abs(protocol._longitudinal_signal(rho, spin) - want) < 1e-12
                    got = protocol._longitudinal_signal(populations, spin)
                    assert abs(got - expectation(populations, observable)) < 1e-12

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            run_liouville_dj(SpinSystem(1), TruthTable.constant(1, 0), "sparse")

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            run_liouville_dj(SpinSystem(13), TruthTable.constant(13, 0), "dense")
        # the override flag lifts the limit
        out = run_liouville_dj(
            SpinSystem(13), TruthTable.constant(13, 0), "diagonal", max_spins=14
        )
        assert out.signal == 1.0


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

    def test_state_uses_full_register(self):
        system = SpinSystem(2, has_detection_spin=True)
        state = pseudo_pure_state(system, PseudoPureConfig(epsilon=0.5))
        assert state.dim == system.dim
        assert abs(state.trace - 1.0) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PseudoPureConfig()
        with pytest.raises(ValueError):
            PseudoPureConfig(epsilon=0.5, thermal_p=0.5)
        with pytest.raises(ValueError):
            PseudoPureConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            PseudoPureConfig(thermal_p=0.0)

    def test_pure_state_circuit_decides(self):
        system = SpinSystem(2)
        cfg = PseudoPureConfig(epsilon=1.0)
        const = run_pseudo_pure_dj(system, TruthTable.constant(2, 0), cfg)
        assert abs(const.signal - 1.0) < 1e-12
        assert const.verdict is Verdict.CONSTANT0
        balanced = run_pseudo_pure_dj(system, TruthTable.from_string("0110"), cfg)
        assert abs(balanced.signal) < 1e-12
        assert balanced.verdict is Verdict.BALANCED

    def test_signal_scales_with_epsilon(self):
        system = SpinSystem(2)
        out = run_pseudo_pure_dj(system, TruthTable.constant(2, 1), PseudoPureConfig(epsilon=0.25))
        reference = run_pseudo_pure_dj(system, TruthTable.constant(2, 1), PseudoPureConfig(epsilon=1.0))
        assert abs(out.signal - 0.25 * reference.signal) < 1e-10

    def test_linearity_over_random_tables_and_epsilons(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            table = random_table(n, int(rng.integers(2**32)))
            eps = float(rng.uniform(0.01, 1.0))
            system = SpinSystem(n)
            at_eps = run_pseudo_pure_dj(system, table, PseudoPureConfig(epsilon=eps))
            at_one = run_pseudo_pure_dj(system, table, PseudoPureConfig(epsilon=1.0))
            assert abs(at_eps.signal - eps * at_one.signal) < 1e-10

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            run_pseudo_pure_dj(SpinSystem(2), TruthTable.constant(3, 0), PseudoPureConfig(epsilon=1.0))

    @settings(deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
        make=st.sampled_from([random_table, random_balanced, random_constant]),
        separate=st.booleans(),
        config=st.one_of(
            st.builds(PseudoPureConfig, epsilon=st.floats(1e-300, 1.0)),
            st.builds(PseudoPureConfig, thermal_p=st.floats(1e-300, 1.0)),
        ),
    )
    def test_signal_is_epsilon_times_the_squared_liouville_signal(
        self, n, seed, make, separate, config
    ):
        system = SpinSystem(n, has_detection_spin=separate)
        table = make(n, seed)
        s = run_liouville_dj(system, table).signal
        epsilon = config.resolve_epsilon(system.n_spins)
        want = epsilon * s**2
        got = run_pseudo_pure_dj(system, table, config).signal
        # Relative to eps * s^2, or to eps itself where s = 0 (balanced).
        assert abs(got - want) <= 1e-12 * (want or epsilon)

    def test_tiny_epsilon_keeps_a_positive_signal(self):
        config = PseudoPureConfig(epsilon=1e-300)
        out = run_pseudo_pure_dj(SpinSystem(2), TruthTable.constant(2, 0), config)
        assert out.signal > 0
        assert abs(out.signal - 1e-300) <= 1e-12 * 1e-300

    @pytest.mark.parametrize("separate", [False, True])
    def test_matches_the_whole_pseudo_pure_matrix_minus_its_background(self, separate):
        # Reference: the full pseudo-pure matrix through the same circuit, read
        # with the projector onto the all-alpha input block (ancilla and
        # detection spin free), minus the identity's share (1 - eps) * 2^-n.
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        flip = np.array([[0, 1], [1, 0]])
        rng = np.random.default_rng(79)
        for n in range(1, 6 - separate):
            system = SpinSystem(n, has_detection_spin=separate)

            def gate(blocks):
                return Operator(embed(system, blocks), unitary=True)

            inputs = {spin: hadamard for spin in system.inputs}
            projector = np.eye(system.dim)
            for spin in system.inputs:
                projector = projector @ polarization_operator(system, spin, "alpha").matrix
            for make in (random_table, random_balanced, random_constant):
                table = make(n, int(rng.integers(2**32)))
                for config in (
                    PseudoPureConfig(epsilon=float(rng.uniform(0.01, 1.0))),
                    PseudoPureConfig(thermal_p=1e-5),
                ):
                    epsilon = config.resolve_epsilon(system.n_spins)
                    state = pseudo_pure_matrix(system.n_spins, epsilon)
                    state = conjugate(state, gate({system.ancilla: flip}))
                    state = conjugate(state, gate({system.ancilla: hadamard, **inputs}))
                    state = oracle_channel(state, reversible_oracle(system, table))
                    state = conjugate(state, gate(inputs))
                    raw = expectation(state, Operator(projector))
                    reference = raw - (1.0 - epsilon) / (1 << n)
                    signal = run_pseudo_pure_dj(system, table, config).signal
                    assert abs(signal - reference) < 1e-12


class TestThermalEpsilon:
    def test_single_spin_full_polarization(self):
        assert thermal_epsilon(1, 1.0) == 0.5

    def test_declared_model_value(self):
        assert abs(thermal_epsilon(10, 1e-5) - 9.765625e-8) < 1e-20

    def test_strictly_decreasing_from_two_spins(self):
        for n in range(2, 12):
            assert thermal_epsilon(n + 1, 1e-3) < thermal_epsilon(n, 1e-3)

    def test_rejects_bad_polarization(self):
        with pytest.raises(ValueError):
            thermal_epsilon(3, 0.0)
        with pytest.raises(ValueError):
            thermal_epsilon(3, 1.5)


class TestClassical:
    def test_constant_needs_half_plus_one_queries(self):
        out = classical_dj(TruthTable.constant(2, 0))
        assert out.evaluations == 3
        assert out.verdict is Verdict.CONSTANT0

    def test_constant_count_is_order_independent(self):
        for order in itertools.permutations(range(4)):
            for value in (0, 1):
                out = classical_dj(TruthTable.constant(2, value), order)
                assert out.evaluations == 3

    def test_xor_stops_at_first_mismatch(self):
        out = classical_dj(TruthTable.from_string("0110"), order=[0, 1, 2, 3])
        assert out.evaluations == 2
        assert out.verdict is Verdict.BALANCED

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
