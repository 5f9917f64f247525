"""Idealized pulse operations: hard rotations, the gradient crusher, FANOUT, inversion.

Pulses are "hard" in the usual sense: instantaneous single-spin rotations
with no off-resonance or coupling evolution. The crusher is modeled as
projection onto the Zeeman diagonal, which is exact in this protocol
because it only ever acts right after a single 90-degree pulse on a
diagonal state. FANOUT and inversion are realized as exact basis
permutations (global phases discarded); only populations carry
information here, so nothing is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    DiagonalState,
    Operator,
    SpinSystem,
    XorPermutation,
    embed,
)

_AXES = ("x", "y")


@dataclass(frozen=True)
class PulseSpec:
    """A hard rotation pulse: axis, flip angle in radians, target spins."""

    axis: str
    angle: float
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.axis not in _AXES:
            raise ValueError(f"pulse axis must be one of {_AXES}, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError("pulse angle must be finite")
        if not self.targets:
            raise ValueError("pulse needs at least one target spin")


def _single_spin_rotation(axis: str, angle: float) -> np.ndarray:
    # exp(-i * angle * I_axis) with I_axis = sigma_axis / 2
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotation_unitary(system: SpinSystem, spec: PulseSpec) -> Operator:
    """Tensor product of single-spin rotations on the targets, identity elsewhere."""
    for spin in spec.targets:
        system.check_spin(spin)
    block = _single_spin_rotation(spec.axis, spec.angle)
    matrix = embed(system, {spin: block for spin in spec.targets})
    return Operator(matrix, kind="unitary")


def crusher(state: DensityOperator) -> DiagonalState:
    """Field-gradient crusher: zero all coherences, keep the populations.

    Diagonal entries are carried over unchanged, so the trace is
    preserved exactly.
    """
    return DiagonalState(np.diag(state.matrix).real.copy(), check=False)


def fanout_unitary(system: SpinSystem, control: int, target: int) -> XorPermutation:
    """Reversible copy: XOR the control spin's bit onto the target spin.

    With the target prepared in alpha this copies the control's classical
    value (a controlled-NOT on basis states).
    """
    system.check_spin(control)
    system.check_spin(target)
    if control == target:
        raise ValueError("fanout control and target must differ")
    shape = [1] * system.n_spins
    shape[control] = 2
    return XorPermutation(target, np.array([False, True]).reshape(shape))


def inversion_unitary(system: SpinSystem, target: int) -> XorPermutation:
    """Pi pulse on one spin as the alpha/beta-swapping basis permutation."""
    system.check_spin(target)
    return XorPermutation(target, np.ones((1,) * system.n_spins, dtype=bool))
