"""Spin-ensemble Deutsch-Jozsa simulator.

Solves the constant-vs-balanced decision problem on a mixed-state spin
register with a single oracle evaluation and a signal amplitude that
does not shrink with register size, and contrasts that with the
pseudo-pure-state circuit (signal scaled by epsilon) and the classical
query algorithm (2^(n-1) + 1 worst-case evaluations).
"""

from .core import (
    BasisPermutation,
    CapacityError,
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    XorPermutation,
    conjugate,
    expectation,
    maximally_mixed,
    pauli_z,
    polarization_operator,
    to_dense,
    to_diagonal,
    von_neumann_entropy,
    zeeman_product_state,
)
from .oracle import (
    OracleClass,
    TruthTable,
    TruthTableError,
    classify,
    load_truth_table,
    oracle_channel,
    random_balanced,
    random_constant,
    random_table,
    reversible_oracle,
)
from .protocol import (
    Outcome,
    PseudoPureConfig,
    Verdict,
    classical_dj,
    classify_signal,
    prepare_liouville_input,
    pseudo_pure_state,
    run_liouville_dj,
    run_pseudo_pure_dj,
    thermal_epsilon,
)
from .pulses import PulseSpec, crusher, fanout_unitary, inversion_unitary, rotation_unitary

__version__ = "0.1.0"

__all__ = [
    "BasisPermutation",
    "CapacityError",
    "DensityOperator",
    "DiagonalState",
    "Operator",
    "OracleClass",
    "Outcome",
    "PseudoPureConfig",
    "PulseSpec",
    "SpinSystem",
    "TruthTable",
    "TruthTableError",
    "Verdict",
    "XorPermutation",
    "classical_dj",
    "classify",
    "classify_signal",
    "conjugate",
    "crusher",
    "expectation",
    "fanout_unitary",
    "inversion_unitary",
    "load_truth_table",
    "maximally_mixed",
    "oracle_channel",
    "pauli_z",
    "polarization_operator",
    "prepare_liouville_input",
    "pseudo_pure_state",
    "random_balanced",
    "random_constant",
    "random_table",
    "reversible_oracle",
    "rotation_unitary",
    "run_liouville_dj",
    "run_pseudo_pure_dj",
    "thermal_epsilon",
    "to_dense",
    "to_diagonal",
    "von_neumann_entropy",
    "zeeman_product_state",
]
