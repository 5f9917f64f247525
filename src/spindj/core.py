"""State and operator algebra for registers of spin-1/2 nuclei.

Two state backends cover the protocol's needs: a dense complex density
matrix over the ``2**N`` Zeeman product basis, and a real population
vector for states that are diagonal in that basis (the common case here,
since the gradient crusher removes all coherences).

Basis ordering is fixed once and for all: the ancilla spin I0 is the most
significant bit, the input spins I1..In follow in order, and a separate
detection spin (when present) is the least significant bit. The alpha
(spin-up) level encodes logic 0, beta encodes logic 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Backend capacity: dense keeps full 2^N x 2^N complex matrices (~1 GiB at
# N=13); the diagonal backend only stores a 2^N population vector.
DENSE_SPIN_LIMIT = 13
DIAGONAL_SPIN_LIMIT = 26

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_TOL = 1e-12
POPULATION_TOL = 1e-12
COHERENCE_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-15

_ID2 = np.eye(2, dtype=complex)
_ALPHA_PROJECTOR = np.array([[1, 0], [0, 0]], dtype=complex)
_BETA_PROJECTOR = np.array([[0, 0], [0, 1]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_LEVELS = ("alpha", "beta")


class CapacityError(Exception):
    """Register size exceeds what the requested backend can hold."""


def ensure_capacity(n_spins: int, backend: str, limit: int | None = None) -> None:
    """Raise :class:`CapacityError` if ``n_spins`` exceeds the backend limit."""
    if backend == "dense":
        cap = DENSE_SPIN_LIMIT if limit is None else limit
    elif backend == "diagonal":
        cap = DIAGONAL_SPIN_LIMIT if limit is None else limit
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if n_spins > cap:
        raise CapacityError(
            f"{n_spins} spins exceed the {backend} backend capacity of {cap}"
        )


@dataclass(frozen=True)
class SpinSystem:
    """Layout of the spin register.

    ``n_inputs`` input spins I1..In carry the function argument; the
    ancilla I0 receives the function value; an optional separate
    detection spin holds a copy of the answer for readout. When
    ``has_detection_spin`` is false, readout happens directly on I0.
    """

    n_inputs: int
    has_detection_spin: bool = False

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError("a register needs at least one input spin")

    @property
    def n_spins(self) -> int:
        return self.n_inputs + 1 + int(self.has_detection_spin)

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    @property
    def ancilla(self) -> int:
        return 0

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_inputs + 1))

    @property
    def detection(self) -> int:
        """Spin whose longitudinal polarization is read out."""
        return self.n_spins - 1 if self.has_detection_spin else 0

    def check_spin(self, spin: int) -> None:
        if not 0 <= spin < self.n_spins:
            raise ValueError(f"spin index {spin} out of range for {self.n_spins} spins")

    def bit_position(self, spin: int) -> int:
        """Exponent of the basis-index bit belonging to ``spin`` (I0 is MSB)."""
        self.check_spin(spin)
        return self.n_spins - 1 - spin

    def basis_index(self, config: str) -> int:
        """Basis index of a configuration string like ``"010"`` (0=alpha)."""
        if len(config) != self.n_spins or any(c not in "01" for c in config):
            raise ValueError(
                f"configuration must be {self.n_spins} characters of 0/1, got {config!r}"
            )
        return int(config, 2)

    def basis_label(self, index: int) -> str:
        """Configuration string of a basis index, MSB (= I0) first."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range")
        return format(index, f"0{self.n_spins}b")


def is_unitary_matrix(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    prod = matrix @ matrix.conj().T
    return bool(np.max(np.abs(prod - np.eye(matrix.shape[0]))) <= tol)


def is_permutation_matrix(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """One entry of modulus 1 per row and per column, all others ~0."""
    mags = np.abs(matrix)
    big = mags > tol
    if not (np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1)):
        return False
    return bool(np.max(np.abs(mags[big] - 1.0)) <= tol)


class Operator:
    """Dense operator on the Zeeman basis.

    ``unitary=True`` marks a unitary; the matrix is verified at
    construction unless ``check=False``. :func:`conjugate` verifies any
    operator not so marked before applying it.
    """

    __slots__ = ("matrix", "unitary")

    def __init__(self, matrix, *, unitary: bool = False, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if unitary and check and not is_unitary_matrix(matrix):
            raise ValueError("matrix is not unitary within tolerance")
        self.matrix = matrix
        self.unitary = unitary

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, unitary={self.unitary})"


class BasisPermutation:
    """XOR map of the Zeeman basis: flip one spin wherever a mask over the others is set.

    ``|i> -> |i ^ (control(i) << bit(target))>``. ``control`` is a boolean
    array read against the register viewed as ``(2,)*N`` (axis k is spin
    k): each axis has length 2, or 1 where the mask does not depend on
    that spin, and the ``target`` axis always has length 1. A mask that
    ignores the bit it flips makes the map an involution, hence a
    bijection, so no index array is built or checked. The oracle
    ``y ^= f(x)``, FANOUT and inversion all take this form. Any phases a
    physical realization would carry are discarded; populations never
    see them.
    """

    __slots__ = ("target", "control")

    def __init__(self, target: int, control):
        control = np.asarray(control)
        if control.dtype != np.bool_:
            raise ValueError("control mask must be boolean")
        if control.ndim < 1 or any(size not in (1, 2) for size in control.shape):
            raise ValueError("control mask needs one axis of length 1 or 2 per spin")
        if not 0 <= target < control.ndim:
            raise ValueError(f"target spin {target} out of range for {control.ndim} spins")
        if control.shape[target] != 1:
            raise ValueError("control mask must not depend on the target spin")
        self.target = target
        self.control = control

    @property
    def dim(self) -> int:
        return 1 << self.control.ndim

    @property
    def mapping(self) -> np.ndarray:
        """The index form ``|i> -> |mapping[i]>``, built anew on each access."""
        n_spins = self.control.ndim
        indices = np.arange(self.dim).reshape((2,) * n_spins)
        flip = self.control.astype(np.int64) << (n_spins - 1 - self.target)
        return (indices ^ flip).reshape(-1)

    def __call__(self, index: int) -> int:
        return int(self.mapping[index])

    def to_operator(self) -> Operator:
        matrix = np.zeros((self.dim, self.dim), dtype=complex)
        matrix[self.mapping, np.arange(self.dim)] = 1.0
        return Operator(matrix, unitary=True, check=False)

    def __repr__(self) -> str:
        return f"BasisPermutation(dim={self.dim}, target={self.target})"


class DensityOperator:
    """Hermitian matrix over the Zeeman basis (dense backend).

    Protocol states carry trace 1; real-weighted sums used in linearity
    arguments may transiently have any trace, so only Hermiticity is
    enforced at construction.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        if check and np.max(np.abs(matrix - matrix.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).real.copy()

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(self.matrix + other.matrix, check=False)

    def __mul__(self, weight) -> "DensityOperator":
        if not isinstance(weight, (int, float)):
            raise TypeError("density operators scale by real weights only")
        return DensityOperator(self.matrix * weight, check=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, trace={self.trace:.6g})"


class DiagonalState:
    """Population vector over the Zeeman basis (fast-path backend).

    Represents exactly the density operator whose diagonal equals
    ``populations`` and whose off-diagonal part vanishes.
    """

    __slots__ = ("populations",)

    def __init__(self, populations, *, check: bool = True):
        populations = np.asarray(populations, dtype=float)
        if populations.ndim != 1:
            raise ValueError("populations must be a vector")
        if check:
            if np.min(populations) < -POPULATION_TOL:
                raise ValueError("negative population beyond tolerance")
            if abs(populations.sum() - 1.0) > POPULATION_TOL:
                raise ValueError("populations do not sum to 1 within tolerance")
        self.populations = populations

    @property
    def dim(self) -> int:
        return self.populations.shape[0]

    @property
    def trace(self) -> float:
        return float(self.populations.sum())

    def __repr__(self) -> str:
        return f"DiagonalState(dim={self.dim}, trace={self.trace:.6g})"


def embed(system: SpinSystem, gates: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with single-spin blocks on selected spins.

    ``gates`` maps spin index to a 2x2 block; every other spin gets the
    identity. Spin I0 is the leftmost (most significant) factor.
    """
    for spin in gates:
        system.check_spin(spin)
    result = np.array([[1.0 + 0.0j]])
    for spin in range(system.n_spins):
        result = np.kron(result, gates.get(spin, _ID2))
    return result


def polarization_operator(system: SpinSystem, spin: int, level: str) -> Operator:
    """Projector onto the alpha or beta level of one spin, embedded in the register."""
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}, got {level!r}")
    block = _ALPHA_PROJECTOR if level == "alpha" else _BETA_PROJECTOR
    return Operator(embed(system, {spin: block}), check=False)


def pauli_z(system: SpinSystem, spin: int) -> Operator:
    """Longitudinal observable 2*Iz of one spin (+1 on alpha, -1 on beta)."""
    return Operator(embed(system, {spin: _PAULI_Z}), check=False)


def pauli_z_diagonal(system: SpinSystem, spin: int) -> np.ndarray:
    """Diagonal of :func:`pauli_z` as a length-``dim`` sign vector."""
    pos = system.bit_position(spin)
    return 1.0 - 2.0 * ((np.arange(system.dim) >> pos) & 1)


def zeeman_product_state(system: SpinSystem, config: str) -> DensityOperator:
    """Projector onto one Zeeman product state, e.g. ``"010"`` (0=alpha)."""
    index = system.basis_index(config)
    matrix = np.zeros((system.dim, system.dim), dtype=complex)
    matrix[index, index] = 1.0
    return DensityOperator(matrix, check=False)


def maximally_mixed(system: SpinSystem) -> DensityOperator:
    return DensityOperator(np.eye(system.dim, dtype=complex) / system.dim, check=False)


def expectation(state: DensityOperator | DiagonalState, observable: Operator) -> float:
    """Tr(rho * O) for a Hermitian observable.

    For a diagonal state only the observable's diagonal contributes, so
    the trace reduces to a dot product with the populations.
    """
    if state.dim != observable.dim:
        raise ValueError(
            f"dimension mismatch: state {state.dim}, observable {observable.dim}"
        )
    if isinstance(state, DiagonalState):
        value = complex(state.populations @ observable.matrix.diagonal())
    else:
        value = complex(np.einsum("ij,ji->", state.matrix, observable.matrix))
    if abs(value.imag) > 1e-10:
        raise ValueError(
            f"expectation has imaginary part {value.imag:.3e}; observable not Hermitian?"
        )
    return value.real


def conjugate(state, transform):
    """Map ``rho -> U rho U^†``, staying on the state's backend.

    ``transform`` is a :class:`BasisPermutation` or, on dense states
    only, a unitary :class:`Operator`. The input state is never modified.
    """
    if not isinstance(transform, (BasisPermutation, Operator)):
        raise TypeError(f"cannot conjugate by {type(transform).__name__}")
    if state.dim != transform.dim:
        raise ValueError("dimension mismatch between state and transform")

    if isinstance(transform, BasisPermutation):
        if isinstance(state, DiagonalState):
            # Masked swap along the target axis; np.flip is a view.
            spins = state.populations.reshape((2,) * transform.control.ndim)
            moved = np.where(transform.control, np.flip(spins, transform.target), spins)
            return DiagonalState(moved.reshape(-1), check=False)
        # (U rho U^†)[a, b] = rho[m^-1(a), m^-1(b)] for the map m, and an XOR
        # map is an involution (m^-1 = m), so the mapping is the gather index.
        mapping = transform.mapping
        return DensityOperator(state.matrix[np.ix_(mapping, mapping)], check=False)

    if isinstance(state, DiagonalState):
        raise ValueError(
            "diagonal states only support basis permutations; "
            "convert with to_dense() for general unitaries"
        )
    if not transform.unitary and not is_unitary_matrix(transform.matrix):
        raise ValueError("transform is not unitary within tolerance")
    u = transform.matrix
    return DensityOperator(u @ state.matrix @ u.conj().T, check=False)


def to_dense(state: DiagonalState) -> DensityOperator:
    return DensityOperator(np.diag(state.populations.astype(complex)), check=False)


def to_diagonal(state: DensityOperator) -> DiagonalState:
    """Reinterpret a coherence-free dense state on the diagonal backend."""
    off = state.matrix - np.diag(np.diag(state.matrix))
    worst = float(np.max(np.abs(off))) if state.dim > 1 else 0.0
    if worst >= COHERENCE_TOL:
        raise ValueError(
            f"state has coherences up to {worst:.3e}; not representable diagonally"
        )
    return DiagonalState(np.diag(state.matrix).real)


def von_neumann_entropy(state: DensityOperator | DiagonalState) -> float:
    """Entropy -sum(lambda * ln(lambda)) in nats; eigenvalues below 1e-15 drop out."""
    if isinstance(state, DiagonalState):
        eigenvalues = state.populations
    else:
        eigenvalues = np.linalg.eigvalsh(state.matrix)
    support = eigenvalues[eigenvalues > EIGENVALUE_FLOOR]
    return float(-np.sum(support * np.log(support)))
