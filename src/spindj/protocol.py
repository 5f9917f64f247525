"""End-to-end Deutsch-Jozsa protocols.

Three routes to the same decision problem, each returning a comparable
:class:`Outcome`:

* the single-evaluation ensemble protocol, driven entirely by
  populations: prepare the ancilla-polarized uniform mixture, apply the
  reversible oracle once, read the longitudinal polarization of the
  detection spin. A constant function gives signal +-1 for any register
  size; a balanced one gives exactly zero.
* the pseudo-pure baseline: the textbook interference circuit run on a
  pseudo-pure state, whose signal carries the epsilon prefactor and
  therefore shrinks with register size.
* the classical query baseline, which needs 2^(n-1) + 1 evaluations in
  the worst case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    conjugate,
    embed,
    ensure_capacity,
    to_dense,
    zeeman_product_state,
)
from .oracle import OracleClass, TruthTable, classify, oracle_channel, reversible_oracle
from .pulses import PulseSpec, crusher, fanout_unitary, rotation_unitary

DEFAULT_SIGNAL_TOL = 1e-6

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_NOT = np.array([[0, 1], [1, 0]], dtype=complex)


class Verdict(enum.Enum):
    """What a run concludes about the function."""

    CONSTANT0 = "constant0"
    CONSTANT1 = "constant1"
    BALANCED = "balanced"
    PROMISE_VIOLATED = "promise_violated"


@dataclass(frozen=True)
class Outcome:
    """Result of one protocol run.

    ``signal`` is the normalized longitudinal readout in [-1, 1]; for the
    classical runner it is the nominal value the verdict corresponds to
    (+1/-1/0). ``evaluations`` counts oracle calls.
    """

    signal: float
    verdict: Verdict
    evaluations: int
    backend: str


@dataclass(frozen=True)
class PseudoPureConfig:
    """Sensitivity prefactor for the pseudo-pure baseline.

    Either a fixed ``epsilon`` in (0, 1], or a per-spin polarization
    ``thermal_p`` from which epsilon(N) = N*p / 2^N is derived.
    """

    epsilon: float | None = None
    thermal_p: float | None = None

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.thermal_p is None):
            raise ValueError("specify exactly one of epsilon or thermal_p")
        if self.epsilon is not None and not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.thermal_p is not None and not 0.0 < self.thermal_p <= 1.0:
            raise ValueError("thermal_p must lie in (0, 1]")

    def resolve_epsilon(self, n_spins: int) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return thermal_epsilon(n_spins, self.thermal_p)


def thermal_epsilon(n_spins: int, p: float) -> float:
    """Spatial-averaging pseudo-pure prefactor epsilon(N) = N*p / 2^N.

    A declared model for the exponential sensitivity decay; only the
    trend, not the constant, is physical.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("polarization p must lie in (0, 1]")
    return n_spins * p / float(1 << n_spins)


def prepare_liouville_input(system: SpinSystem) -> DiagonalState:
    """Uniform mixture of all classical inputs, ancilla pinned to alpha.

    Closed form of the preparation sequence (90-degree pulse on the
    inputs, then crusher): populations 2^-n on every basis state with I0
    in alpha (and the detection spin in alpha, when separate), zero
    elsewhere.
    """
    populations = np.zeros(system.dim)
    # Axes: I0, the inputs as one axis, the detection spin (length 1 if absent).
    populations.reshape(2, 1 << system.n_inputs, -1)[0, :, 0] = 1.0 / (1 << system.n_inputs)
    return DiagonalState(populations, check=False)


def prepare_liouville_input_pulsed(system: SpinSystem) -> DiagonalState:
    """The same state built the way the experiment does it.

    Starting from the idealized (fully polarized) equilibrium, a hard
    90-degree pulse hits all input spins but not I0, then the crusher
    removes the coherences. Agrees with the closed form to float
    precision; kept separate because it needs a dense intermediate.
    """
    equilibrium = zeeman_product_state(system, "0" * system.n_spins)
    pulse = rotation_unitary(
        system, PulseSpec(axis="x", angle=np.pi / 2.0, targets=system.inputs)
    )
    return crusher(conjugate(equilibrium, pulse))


def classify_signal(signal: float, tol: float = DEFAULT_SIGNAL_TOL) -> Verdict:
    """Positive signal -> constant 0, negative -> constant 1, silence -> balanced."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if signal > tol:
        return Verdict.CONSTANT0
    if signal < -tol:
        return Verdict.CONSTANT1
    return Verdict.BALANCED


def _longitudinal_signal(state, spin: int) -> float:
    """Tr(rho * 2Iz) of one spin, read from the populations alone.

    2Iz is diagonal (+1 on alpha, -1 on beta), so coherences never
    contribute: the signal is the alpha half-sum minus the beta half-sum.
    """
    if isinstance(state, DiagonalState):
        populations = state.populations
    else:
        populations = state.matrix.diagonal().real
    halves = populations.reshape(1 << spin, 2, -1)
    return float(halves[:, 0].sum() - halves[:, 1].sum())


def run_liouville_dj(
    system: SpinSystem,
    table: TruthTable,
    backend: str = "diagonal",
    *,
    tolerance: float = DEFAULT_SIGNAL_TOL,
    max_spins: int | None = None,
) -> Outcome:
    """Single-scan ensemble run: prepare, one oracle call, read 2*Iz.

    Under the trace-1 convention the constant cases give exactly +-1 and
    the raw expectation needs no further normalization. The optional
    inversion pulse that would flip a negative constant signal is left
    out; sign handling lives in :func:`classify_signal`.
    """
    if backend not in ("dense", "diagonal"):
        raise ValueError(f"unknown backend {backend!r}")
    ensure_capacity(system.n_spins, backend, max_spins)
    oracle = reversible_oracle(system, table)

    state = prepare_liouville_input(system)
    if backend == "dense":
        state = to_dense(state)

    evaluations = 0
    state = oracle_channel(state, oracle)
    evaluations += 1

    if system.has_detection_spin:
        copy = fanout_unitary(system, system.ancilla, system.detection)
        state = conjugate(state, copy)

    signal = _longitudinal_signal(state, system.detection)
    return Outcome(signal, classify_signal(signal, tolerance), evaluations, backend)


def pseudo_pure_matrix(n_spins: int, epsilon: float) -> DensityOperator:
    """(1 - eps) * 2^-N * identity + eps * |00...0><00...0| on N spins."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    dim = 1 << n_spins
    matrix = np.eye(dim, dtype=complex) * ((1.0 - epsilon) / dim)
    matrix[0, 0] += epsilon
    return DensityOperator(matrix, check=False)


def pseudo_pure_state(system: SpinSystem, config: PseudoPureConfig) -> DensityOperator:
    return pseudo_pure_matrix(system.n_spins, config.resolve_epsilon(system.n_spins))


def _basis_change(system: SpinSystem, blocks: dict[int, np.ndarray]) -> Operator:
    return Operator(embed(system, blocks), unitary=True, check=False)


def run_pseudo_pure_dj(
    system: SpinSystem,
    table: TruthTable,
    config: PseudoPureConfig,
    *,
    tolerance: float = DEFAULT_SIGNAL_TOL,
    max_spins: int | None = None,
) -> Outcome:
    """Textbook interference circuit on a pseudo-pure state (dense only).

    NOT then Hadamard put the ancilla in the phase-kickback state, a
    Hadamard fans the inputs out over all arguments, the oracle runs
    once, and a final input Hadamard interferes the branches. The
    pseudo-pure state is (1 - eps) * identity/2^N + eps * |0...0><0...0|,
    and any unitary leaves the identity component unchanged, so only the
    pure part is evolved. The signal is eps times that part's population
    of the all-alpha input block: eps for a constant function, 0 for a
    balanced one, and no background is subtracted. The circuit cannot
    tell constant-0 from constant-1 (the ancilla phase is global), so
    any constant function is reported as CONSTANT0.
    """
    ensure_capacity(system.n_spins, "dense", max_spins)
    if table.n != system.n_inputs:
        raise ValueError(
            f"table arity {table.n} does not match {system.n_inputs} input spins"
        )
    epsilon = config.resolve_epsilon(system.n_spins)
    state = zeeman_product_state(system, "0" * system.n_spins)

    hadamards = {spin: _HADAMARD for spin in system.inputs}
    state = conjugate(state, _basis_change(system, {system.ancilla: _NOT}))
    state = conjugate(
        state, _basis_change(system, {system.ancilla: _HADAMARD, **hadamards})
    )

    evaluations = 0
    state = oracle_channel(state, reversible_oracle(system, table))
    evaluations += 1

    state = conjugate(state, _basis_change(system, hadamards))

    # Axes: I0, the inputs as one axis, the detection spin (length 1 if absent);
    # the block sums over the ancilla and the detection spin.
    populations = state.matrix.diagonal().real
    block = populations.reshape(2, 1 << system.n_inputs, -1)[:, 0].sum()
    signal = epsilon * float(block)
    return Outcome(signal, classify_signal(signal, tolerance), evaluations, "dense")


def classical_dj(table: TruthTable, order: Sequence[int] | None = None) -> Outcome:
    """Deterministic classical querying under the promise.

    Evaluates f along ``order`` (default: natural order), stopping at the
    first mismatch (balanced) or after 2^(n-1) + 1 identical answers
    (constant). A table that is neither constant nor balanced violates
    the promise and is reported as such without querying.
    """
    if classify(table) is OracleClass.NEITHER:
        return Outcome(0.0, Verdict.PROMISE_VIOLATED, 0, "classical")

    size = len(table)
    queries: Iterable[int] = range(size) if order is None else order
    needed = size // 2 + 1

    first = None
    evaluations = 0
    seen: set[int] = set()
    for x in queries:
        x = int(x)
        if not 0 <= x < size or x in seen:
            raise ValueError("query order must be distinct inputs within range")
        seen.add(x)
        answer = table(x)
        evaluations += 1
        if first is None:
            first = answer
        elif answer != first:
            return Outcome(0.0, Verdict.BALANCED, evaluations, "classical")
        if evaluations == needed:
            verdict = Verdict.CONSTANT0 if first == 0 else Verdict.CONSTANT1
            return Outcome(1.0 if first == 0 else -1.0, verdict, evaluations, "classical")
    raise ValueError(f"query order exhausted after {evaluations} queries without a decision")
