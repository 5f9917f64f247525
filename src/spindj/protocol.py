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
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DiagonalState,
    Operator,
    SpinSystem,
    StateVector,
    conjugate,
    embed,
    ensure_capacity,
    pauli_z_diagonal,
    to_dense,
)
from .oracle import OracleClass, TruthTable, classify, oracle_channel, reversible_oracle
from .pulses import fanout_unitary

DEFAULT_SIGNAL_TOL = 1e-6

# Real blocks: the whole pseudo-pure circuit runs in float64.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_NOT = np.array([[0.0, 1.0], [1.0, 0.0]])


class Verdict(enum.Enum):
    """What a run concludes about the function."""

    CONSTANT0 = "constant0"
    CONSTANT1 = "constant1"
    BALANCED = "balanced"
    PROMISE_VIOLATED = "promise_violated"
    UNDECIDED = "undecided"


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


def thermal_epsilon(n_spins: int, p: float) -> float:
    """Spatial-averaging pseudo-pure prefactor epsilon(N) = N*p / 2^N.

    A declared model for the exponential sensitivity decay; only the
    trend, not the constant, is physical.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("polarization p must lie in (0, 1]")
    n_spins = operator.index(n_spins)  # ldexp needs an int: reads np.int64, refuses 2.5
    if n_spins < 1:
        raise ValueError("a register needs at least one spin")
    # ldexp scales by 2^-N exactly and underflows to 0 where 2^N has no float,
    # long before N itself has none and N*p would overflow.
    if n_spins > sys.float_info.max:
        return 0.0
    return math.ldexp(n_spins * p, -n_spins)


def prepare_liouville_input(system: SpinSystem) -> DiagonalState:
    """Uniform mixture of all classical inputs, ancilla pinned to alpha.

    Closed form of the preparation sequence (90-degree pulse on the
    inputs, then crusher): populations 2^-n on every basis state with I0
    in alpha (and the detection spin in alpha, when separate), zero
    elsewhere. Held as the occupancy of those states, written packed: the
    first half of the bits (I0 alpha; part of one byte below 16 states), all
    set, or every other one (0x55 bytes) when the detection spin is separate.
    """
    dim = system.dim
    bits = np.zeros(-(-dim // 8), dtype=np.uint8)
    bits[: -(-dim // 16)] = (0x55 if system.has_detection_spin else 0xFF) & ((1 << min(dim // 2, 8)) - 1)
    return DiagonalState.held(bits, dim)


def classify_signal(signal: float, tol: float = DEFAULT_SIGNAL_TOL) -> Verdict:
    """Positive signal -> constant 0, negative -> constant 1, silence -> balanced."""
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    if not math.isfinite(signal):
        raise ValueError(f"signal must be a finite number, got {signal!r}")
    if signal > tol:
        return Verdict.CONSTANT0
    if signal < -tol:
        return Verdict.CONSTANT1
    return Verdict.BALANCED


def run_liouville_dj(
    system: SpinSystem,
    table: TruthTable,
    backend: str = "diagonal",
    *,
    tolerance: float = DEFAULT_SIGNAL_TOL,
) -> Outcome:
    """Single-scan ensemble run: prepare, one oracle call, read 2*Iz.

    Under the trace-1 convention the constant cases give exactly +-1 and
    the raw expectation needs no further normalization. The optional
    inversion pulse that would flip a negative constant signal is left
    out; sign handling lives in :func:`classify_signal`.

    ``tolerance`` is the noise floor sigma: as in :func:`run_pseudo_pure_dj`,
    a full-scale signal (here 1) within 2 sigma makes the verdict UNDECIDED.
    """
    if not tolerance > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    ensure_capacity(system.n_spins, backend)
    oracle = reversible_oracle(system, table)

    if backend == "dense":  # the input by the bit rule, apart from the packed one it checks
        index = np.arange(system.dim)
        beta = index >> system.bit_position(system.ancilla) | index >> system.bit_position(system.detection)
        state = to_dense(DiagonalState(beta & 1 == 0))
    else:
        state = prepare_liouville_input(system)

    # The run owns the state it prepared, so both maps move its occupancy or matrix in place.
    state = oracle_channel(state, oracle, in_place=True)

    if system.has_detection_spin:
        copy = fanout_unitary(system, system.ancilla, system.detection)
        state = conjugate(state, copy, in_place=True)

    # 2Iz is diagonal; the backends read it by two rules, which --backend both compares.
    if backend == "dense":
        signal = float(state.populations @ pauli_z_diagonal(system, system.detection))
    else:
        signal = state.longitudinal(system.detection)
    verdict = Verdict.UNDECIDED if 1.0 <= 2.0 * tolerance else classify_signal(signal, tolerance)
    return Outcome(signal, verdict, 1, backend)


def _basis_change(system: SpinSystem, blocks: dict[int, np.ndarray]) -> Operator:
    return Operator(embed(system, blocks), check=False)


def run_pseudo_pure_dj(
    system: SpinSystem,
    table: TruthTable,
    epsilon: float,
    *,
    tolerance: float = DEFAULT_SIGNAL_TOL,
) -> Outcome:
    """Textbook interference circuit on a pseudo-pure state (dense only).

    NOT then Hadamard put the ancilla in the phase-kickback state, a
    Hadamard fans the inputs out over all arguments, the oracle runs
    once, and a final input Hadamard interferes the branches. The
    pseudo-pure state is (1 - eps) * identity/2^N + eps * |0...0><0...0|,
    and any unitary leaves the identity component unchanged, so only the
    pure part is evolved, as a state vector psi, in float64: every gate is
    real. The signal is eps times the sum of |psi|^2 over the all-alpha
    input block: eps for a constant function, 0 for a balanced one, and no
    background is subtracted. The circuit cannot tell constant-0 from
    constant-1 (the ancilla phase is global), so any constant function is
    reported as CONSTANT0. ``epsilon`` must lie in (0, 1];
    :func:`thermal_epsilon` gives it under the thermal model.

    ``tolerance`` is the detection-noise floor sigma. A signal of at most
    2 sigma cannot be told from noise, so when eps <= 2 sigma the verdict
    is UNDECIDED; otherwise :func:`classify_signal` decides at eps/2.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if not tolerance > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    ensure_capacity(system.n_spins, "dense")
    oracle = reversible_oracle(system, table)
    state = StateVector(np.eye(1, system.dim)[0])  # |0...0>

    hadamards = {spin: _HADAMARD for spin in system.inputs}
    state = conjugate(state, _basis_change(system, {system.ancilla: _NOT}))
    state = conjugate(
        state, _basis_change(system, {system.ancilla: _HADAMARD, **hadamards})
    )

    state = oracle_channel(state, oracle)
    state = conjugate(state, _basis_change(system, hadamards))

    # Axes: I0, the inputs as one axis, the detection spin (length 1 if absent);
    # the block sums over the ancilla and the detection spin.
    block = state.populations.reshape(2, 1 << system.n_inputs, -1)[:, 0].sum()
    signal = epsilon * float(block)
    verdict = Verdict.UNDECIDED if epsilon <= 2.0 * tolerance else classify_signal(signal, epsilon / 2.0)
    return Outcome(signal, verdict, 1, "dense")


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
    seen: set[int] = set()
    for x in queries:
        x = operator.index(x)  # refuses 1.9 rather than truncating it
        if x in seen:
            raise ValueError(f"query order repeats input {x}")
        seen.add(x)
        answer = table(x)  # refuses an input outside the table
        if first is None:
            first = answer
        elif answer != first:
            return Outcome(0.0, Verdict.BALANCED, len(seen), "classical")
        if len(seen) == needed:
            verdict = Verdict.CONSTANT0 if first == 0 else Verdict.CONSTANT1
            return Outcome(1.0 if first == 0 else -1.0, verdict, needed, "classical")
    raise ValueError(f"query order exhausted after {len(seen)} queries without a decision")
