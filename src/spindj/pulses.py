"""The pulse-level model: the equilibrium Zeeman state, hard rotations, the
gradient crusher, FANOUT, inversion and the von Neumann entropy.

Pulses are "hard" in the usual sense: instantaneous single-spin rotations
with no off-resonance or coupling evolution. The model is dense: states are
density matrices. The crusher is modeled as projection onto the Zeeman
diagonal, which is exact in this protocol because it only ever acts right
after a single 90-degree pulse on a diagonal state. FANOUT and inversion
are realized as exact basis permutations (global phases discarded); only
populations carry information here, so nothing is lost.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    BasisPermutation,
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    conjugate,
    embed,
)

EIGENVALUE_FLOOR = 1e-15
_AXES = ("x", "y")


def zeeman_product_state(system: SpinSystem, config: str) -> DensityOperator:
    """Projector onto one Zeeman product state, e.g. ``"010"`` (0=alpha)."""
    index = system.basis_index(config)
    matrix = np.zeros((system.dim, system.dim), dtype=complex)
    matrix[index, index] = 1.0
    return DensityOperator(matrix, check=False)


def rotation_unitary(
    system: SpinSystem, axis: str, angle: float, targets: Sequence[int]
) -> Operator:
    """Hard pulse exp(-i * angle * I_axis), I_axis = sigma_axis / 2, on each
    target spin and the identity elsewhere; ``axis`` is "x" or "y" and
    ``angle`` the flip angle in radians."""
    if axis not in _AXES:
        raise ValueError(f"pulse axis must be one of {_AXES}, got {axis!r}")
    if not math.isfinite(angle):
        raise ValueError("pulse angle must be finite")
    if not targets:
        raise ValueError("pulse needs at least one target spin")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    if axis == "x":
        block = np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    else:
        block = np.array([[c, -s], [s, c]], dtype=complex)
    return Operator(embed(system, {spin: block for spin in targets}))


def crusher(state: DensityOperator) -> DensityOperator:
    """Field-gradient crusher: zero all coherences, keep the populations.

    Diagonal entries are carried over unchanged, so the trace is
    preserved exactly.
    """
    return DensityOperator(np.diag(state.populations), check=False)


def prepare_liouville_input_pulsed(system: SpinSystem) -> DensityOperator:
    """The Liouville input built the way the experiment does it.

    Starting from the idealized (fully polarized) equilibrium, a hard
    90-degree pulse hits all input spins but not I0, then the crusher
    removes the coherences. Agrees with the closed form
    :func:`spindj.protocol.prepare_liouville_input`, as a density matrix,
    to float precision.
    """
    equilibrium = zeeman_product_state(system, "0" * system.n_spins)
    pulse = rotation_unitary(system, "x", np.pi / 2.0, system.inputs)
    return crusher(conjugate(equilibrium, pulse))


def fanout_unitary(system: SpinSystem, control: int, target: int) -> BasisPermutation:
    """Reversible copy: XOR the control spin's bit onto the target spin.

    With the target prepared in alpha this copies the control's classical
    value (a controlled-NOT on basis states).
    """
    system.check_spin(control)
    if target == control or not 0 <= target < system.n_spins:
        raise ValueError(f"FANOUT needs two distinct spins of the register, got {control} and {target}")
    shape = [1] * system.n_spins
    shape[control] = 2  # set where the control is beta
    return BasisPermutation(target, np.array([False, True]).reshape(shape))


def inversion_unitary(system: SpinSystem, target: int) -> BasisPermutation:
    """Pi pulse on one spin as the alpha/beta-swapping basis permutation."""
    return BasisPermutation(target, np.ones((1,) * system.n_spins, dtype=bool))


def von_neumann_entropy(state: DensityOperator | DiagonalState) -> float:
    """Entropy -sum(lambda * ln(lambda)) in nats; eigenvalues below 1e-15 drop out."""
    if isinstance(state, DiagonalState):
        eigenvalues = state.populations
    else:
        eigenvalues = np.linalg.eigvalsh(state.matrix)
    support = eigenvalues[eigenvalues > EIGENVALUE_FLOOR]
    return float(-np.sum(support * np.log(support)))
