"""Acceptance suite: one test per headline claim, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import time

import numpy as np
import pytest

import spindj.protocol as protocol
from spindj.cli import cmd_sweep, parse_args
from spindj.core import (
    DensityOperator,
    Operator,
    SpinSystem,
    conjugate,
    is_unitary_matrix,
    pauli_z,
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
    classical_dj,
    prepare_liouville_input,
    run_liouville_dj,
)
from spindj.pulses import (
    fanout_unitary,
    inversion_unitary,
    rotation_unitary,
    von_neumann_entropy,
)

from reference import brute_force_signal, is_permutation_matrix


def report(name, passed):
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'}")
    return passed


def exhaustive_balanced(n):
    size = 1 << n
    for ones in itertools.combinations(range(size), size // 2):
        bits = np.zeros(size, dtype=np.uint8)
        bits[list(ones)] = 1
        yield TruthTable(bits)


@pytest.fixture(scope="module")
def balanced_tables():
    """All balanced tables at n<=3; 200 seeded random ones per n in 4..10."""
    tables = {n: list(exhaustive_balanced(n)) for n in (1, 2, 3)}
    rng = np.random.default_rng(20240814)
    for n in range(4, 11):
        tables[n] = [random_balanced(n, int(rng.integers(2**63))) for _ in range(200)]
    return tables


def test_criterion_1_constant_signal_does_not_scale():
    worst_deviation = 0.0
    worst_wall = 0.0
    for n in range(1, 11):
        system = SpinSystem(n)
        for value, want in ((0, 1.0), (1, -1.0)):
            start = time.perf_counter()
            out = run_liouville_dj(system, TruthTable.constant(n, value), "diagonal")
            wall = time.perf_counter() - start
            worst_deviation = max(worst_deviation, abs(out.signal - want))
            worst_wall = max(worst_wall, wall)
    ok = worst_deviation < 1e-12 and worst_wall < 1.0
    assert report(
        f"1 no-scaling signal (max |dev|={worst_deviation:.2e}, "
        f"max wall={worst_wall * 1e3:.1f} ms)",
        ok,
    )


def test_criterion_2_balanced_functions_are_silent(balanced_tables):
    worst = 0.0
    count = 0
    for n, tables in balanced_tables.items():
        system = SpinSystem(n)
        for table in tables:
            out = run_liouville_dj(system, table, "diagonal")
            worst = max(worst, abs(out.signal))
            count += 1
    ok = worst < 1e-12
    assert report(f"2 balanced silence ({count} tables, max |signal|={worst:.2e})", ok)


def test_criterion_3_signal_matches_brute_force_oracle(balanced_tables):
    tables = []
    for n in range(1, 11):
        tables.append(TruthTable.constant(n, 0))
        tables.append(TruthTable.constant(n, 1))
    for per_n in balanced_tables.values():
        tables.extend(per_n)
    rng = np.random.default_rng(777)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        tables.append(random_table(n, int(rng.integers(2**63))))

    worst = 0.0
    for table in tables:
        out = run_liouville_dj(SpinSystem(table.n), table, "diagonal")
        worst = max(worst, abs(out.signal - brute_force_signal(table)))
    ok = worst < 1e-12
    assert report(f"3 signal oracle ({len(tables)} tables, max |diff|={worst:.2e})", ok)


def test_criterion_4_single_oracle_evaluation(monkeypatch):
    calls = []

    def counting_channel(state, oracle, **kwargs):
        calls.append(1)
        return oracle_channel(state, oracle, **kwargs)

    monkeypatch.setattr(protocol, "oracle_channel", counting_channel)
    rng = np.random.default_rng(31337)
    runs = 0
    ok = True
    for n in range(1, 7):
        for separate in (False, True):
            for table in (
                TruthTable.constant(n, 0),
                random_balanced(n, int(rng.integers(2**63))),
                random_table(n, int(rng.integers(2**63))),
            ):
                calls.clear()
                out = run_liouville_dj(
                    SpinSystem(n, has_detection_spin=separate), table, "diagonal"
                )
                runs += 1
                ok = ok and len(calls) == 1 and out.evaluations == 1
    assert report(f"4 single evaluation ({runs} runs, 1 oracle call each)", ok)


def test_criterion_5_classical_worst_case():
    ok = True

    # exhaustive query orders at n=2
    evals = [
        classical_dj(TruthTable.constant(2, v), order).evaluations
        for order in itertools.permutations(range(4))
        for v in (0, 1)
    ]
    ok = ok and max(evals) == 3 and min(evals) == 3

    # random orders at n=3 and n=4
    rng = np.random.default_rng(55)
    for n, want in ((3, 5), (4, 9)):
        counts = []
        for _ in range(1000):
            order = rng.permutation(1 << n)
            for v in (0, 1):
                counts.append(classical_dj(TruthTable.constant(n, v), order).evaluations)
        ok = ok and max(counts) == want and min(counts) == want

    # witness: 2^(n-1) queries cannot separate constant from balanced
    for n in (1, 2, 3):
        half = 1 << (n - 1)
        order = list(range(1 << n))
        constant = TruthTable.constant(n, 0)
        bits = np.ones(1 << n, dtype=np.uint8)
        bits[order[:half]] = 0
        balanced = TruthTable(bits)
        agree = [constant(x) for x in order[:half]] == [balanced(x) for x in order[:half]]
        ok = (
            ok
            and agree
            and classical_dj(constant, order).evaluations == half + 1
            and classical_dj(balanced, order).evaluations == half + 1
        )

    assert report("5 classical worst case (3, 5, 9 evaluations; witness holds)", ok)


def test_criterion_6_pseudo_pure_contrast():
    p = 1e-5
    args = parse_args(
        ["sweep", "--n", "2..8", "--seed", "7", "--trials", "5", "--thermal-p", str(p)]
    )
    aggregates = cmd_sweep(args)["aggregates"]

    worst_rel = 0.0
    for row in aggregates:
        n_spins = row["n"] + 1
        expected_ratio = (1 << n_spins) / (n_spins * p)
        worst_rel = max(worst_rel, abs(row["ratio"] - expected_ratio) / expected_ratio)
    column = [row["pseudo_pure_signal"] for row in aggregates]
    decreasing = all(later < earlier for earlier, later in zip(column, column[1:]))

    ok = worst_rel < 1e-6 and decreasing
    assert report(
        f"6 pseudo-pure contrast (max ratio rel err={worst_rel:.2e}, "
        f"column decreasing={decreasing})",
        ok,
    )


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(991)
    ok = True

    # generated operators satisfy their kind invariants
    for _ in range(25):
        system = SpinSystem(int(rng.integers(1, 4)))
        pulse = rotation_unitary(
            system,
            ("x", "y")[int(rng.integers(2))],
            float(rng.uniform(-8, 8)),
            (int(rng.integers(system.n_spins)),),
        )
        ok = ok and is_unitary_matrix(pulse.matrix)
    system = SpinSystem(2, has_detection_spin=True)
    for perm in (
        fanout_unitary(system, 0, 3),
        inversion_unitary(system, 1),
        reversible_oracle(system, random_table(2, 12)),
    ):
        ok = ok and is_permutation_matrix(perm.to_operator().matrix)

    # conjugation preserves trace and Hermiticity (500 random pairs, N<=3)
    for _ in range(500):
        dim = 1 << int(rng.integers(1, 4))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = DensityOperator((a @ a.conj().T) / np.trace(a @ a.conj().T).real, check=False)
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        u = Operator(q * (np.diag(r) / np.abs(np.diag(r))))
        out = conjugate(rho, u)
        ok = ok and abs(out.trace - rho.trace) < 1e-12
        ok = ok and np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12

    # oracle involution, exhaustively at n<=3
    for n in (1, 2, 3):
        system = SpinSystem(n)
        identity = np.arange(system.dim)
        for bits in itertools.product((0, 1), repeat=1 << n):
            mapping = reversible_oracle(system, TruthTable(bits)).mapping
            ok = ok and np.array_equal(mapping[mapping], identity)

    # channel linearity over real combinations
    system = SpinSystem(2)
    oracle = reversible_oracle(system, TruthTable.from_string("0110"))
    for _ in range(50):
        p1 = rng.random(system.dim)
        p2 = rng.random(system.dim)
        rho1 = DensityOperator(np.diag(p1 / p1.sum()))
        rho2 = DensityOperator(np.diag(p2 / p2.sum()))
        c1, c2 = rng.normal(size=2)
        mixture = DensityOperator(c1 * rho1.matrix + c2 * rho2.matrix, check=False)
        combined = oracle_channel(mixture, oracle).matrix
        split = c1 * oracle_channel(rho1, oracle).matrix + c2 * oracle_channel(rho2, oracle).matrix
        ok = ok and np.max(np.abs(combined - split)) < 1e-12

    # backend agreement: every table at n<=3, 50 random per n in 4..8
    for n in range(1, 9):
        system = SpinSystem(n)
        if n <= 3:
            tables = [TruthTable(bits) for bits in itertools.product((0, 1), repeat=1 << n)]
        else:
            tables = [random_table(n, int(rng.integers(2**63))) for _ in range(50)]
        for table in tables:
            dense = run_liouville_dj(system, table, "dense")
            diagonal = run_liouville_dj(system, table, "diagonal")
            ok = ok and abs(dense.signal - diagonal.signal) < 1e-12

    # prepared-state entropy equals n*ln(2)
    for n in range(1, 9):
        for separate in (False, True):
            state = prepare_liouville_input(SpinSystem(n, has_detection_spin=separate))
            ok = ok and abs(von_neumann_entropy(state) - n * np.log(2)) < 1e-10

    assert report("7 structural invariants", ok)


def test_criterion_8_polarization_identities_exact():
    ok = True
    systems = [
        SpinSystem(1),
        SpinSystem(2),
        SpinSystem(3),
        SpinSystem(2, has_detection_spin=True),
    ]
    for system in systems:  # N = 2, 3, 4, 4
        identity = np.eye(system.dim, dtype=complex)
        for spin in range(system.n_spins):
            alpha = polarization_operator(system, spin, "alpha")
            beta = polarization_operator(system, spin, "beta")
            ok = ok and np.array_equal(alpha + beta, identity)
            ok = ok and np.array_equal(alpha - beta, pauli_z(system, spin))
    assert report("8 polarization identities exact at N<=4", ok)
