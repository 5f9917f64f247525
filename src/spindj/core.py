"""State and operator algebra for registers of spin-1/2 nuclei.

Three state types cover the protocol's needs over the ``2**N`` Zeeman
product basis: a dense complex density matrix, an occupancy for the
protocol's ensemble (each configuration present or absent, the present ones
equally populated), packed one bit per configuration, and the amplitude
vector of a pure state. Operators and amplitude vectors stay float64
while their entries are real and become complex128 only when they are not.

Basis ordering is fixed once and for all: the ancilla spin I0 is the most
significant bit, the input spins I1..In follow in order, and a separate
detection spin (when present) is the least significant bit. The alpha
(spin-up) level encodes logic 0, beta encodes logic 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Backend capacity: dense keeps full 2^N x 2^N complex matrices (~1 GiB at
# N=13); the diagonal backend only stores a 2^N vector, one bit per
# configuration for the protocol's occupancy (8 MiB at N=26).
SPIN_LIMITS = {"dense": 13, "diagonal": 26}

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
# Bytes per chunk of the in-place occupancy kernel: at most 512 KiB whatever N is.
_CHUNK_BYTES = 1 << 19
# An occupancy of up to 1,024 configurations moves, and is counted, as one Python int.
_INT_BYTES = 128
_SUM_BYTES = 1 << 28  # bytes one uint32 sum counts: 2^31 bits, so no sum overflows
# Within a byte, the bits of the configurations whose index has bit 0, 1 or 2 clear.
_ALPHA_BYTES = (0x55, 0x33, 0x0F)

_ID2 = np.eye(2)
_ALPHA_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]])
_BETA_PROJECTOR = np.array([[0.0, 0.0], [0.0, 1.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

_LEVELS = ("alpha", "beta")


class CapacityError(Exception):
    """Register size exceeds what the requested backend can hold."""


def ensure_capacity(n_spins: int, backend: str, limit: int | None = None) -> None:
    """Raise :class:`CapacityError` if ``n_spins`` exceeds the backend limit;
    a given ``limit`` can only lower that limit, never raise it."""
    if backend not in SPIN_LIMITS:
        raise ValueError(f"unknown backend {backend!r}")
    cap = SPIN_LIMITS[backend] if limit is None else min(limit, SPIN_LIMITS[backend])
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
        operator.index(self.n_inputs)  # refuses 1.5 here, not later in dim
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


def is_unitary_matrix(matrix: np.ndarray) -> bool:
    prod = matrix @ matrix.conj().T
    return bool(np.max(np.abs(prod - np.eye(matrix.shape[0]))) <= UNITARY_TOL)


def _real_or_complex(values) -> np.ndarray:
    """``values`` as float64 if its dtype is real, else as complex128."""
    values = np.asarray(values)
    return values.astype(np.result_type(values, np.float64), copy=False)


class Operator:
    """Unitary gate on the Zeeman basis, verified when built unless ``check=False``."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, check: bool = True):
        matrix = _real_or_complex(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if check and not is_unitary_matrix(matrix):
            raise ValueError("matrix is not unitary within tolerance")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


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
    see them. ``mask`` holds ``control`` packed as the occupancy kernel
    reads it: a byte per configuration of the first N - 3 spins (length-1
    axes kept), whose bit k (little bit order) is configuration k of the
    last three; bits where the target is beta are never read.
    """

    __slots__ = ("target", "mask", "n_spins")

    def __init__(self, target: int, control):
        control = np.asarray(control)
        if control.dtype != np.bool_:
            raise ValueError("control mask must be boolean")
        if control.ndim < 1 or not {1, 2}.issuperset(control.shape):
            raise ValueError("control mask needs one axis of length 1 or 2 per spin")
        if not 0 <= target < control.ndim:
            raise ValueError(f"target spin {target} out of range for {control.ndim} spins")
        if control.shape[target] != 1:
            raise ValueError("control mask must not depend on the target spin")
        full = control | np.zeros((2,) * min(control.ndim, 3), bool)  # a byte per 8 configurations
        self.target, self.n_spins = target, control.ndim
        self.mask = np.packbits(full, None, "little").reshape(control.shape[:-3])

    @classmethod
    def held(cls, target: int, mask: np.ndarray, n_spins: int) -> "BasisPermutation":
        """A map holding a packed ``mask`` as given, unchecked."""
        xor = cls.__new__(cls)
        xor.target, xor.mask, xor.n_spins = target, mask, n_spins
        return xor

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    @property
    def control(self) -> np.ndarray:
        """The mask as booleans over the register's axes, the target's of length 1, built anew."""
        inner = (2,) * min(self.n_spins, 3)
        bits = np.unpackbits(self.mask[..., None], -1, 1 << len(inner), "little").view(np.bool_)
        return bits.reshape(self.mask.shape + inner)[(slice(None),) * self.target + (slice(0, 1),)]

    @property
    def mapping(self) -> np.ndarray:
        """The index form ``|i> -> |mapping[i]>``, built anew on each access."""
        # The bit rule itself, kept apart from the state kernel so a dense run checks it.
        control = np.broadcast_to(self.control, (2,) * self.n_spins).reshape(-1)
        return np.arange(self.dim) ^ (control << (self.n_spins - 1 - self.target))

    def to_operator(self) -> Operator:
        matrix = np.zeros((self.dim, self.dim))
        matrix[self.mapping, np.arange(self.dim)] = 1.0
        return Operator(matrix, check=False)

    def __repr__(self) -> str:
        return f"BasisPermutation(dim={self.dim}, target={self.target})"


class DensityOperator:
    """Hermitian matrix over the Zeeman basis (dense backend).

    Protocol states carry trace 1, but construction checks only that the
    matrix is finite and Hermitian.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        if check:
            bad = np.argwhere(~np.isfinite(matrix))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"density matrix entry ({i}, {j}) is {matrix[i, j]}, not finite")
            if not np.max(np.abs(matrix - matrix.conj().T)) <= HERMITIAN_TOL:
                raise ValueError("density matrix is not Hermitian within tolerance")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def populations(self) -> np.ndarray:
        """Read-only view of the real diagonal."""
        return self.matrix.diagonal().real

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, trace={self.trace:.6g})"


class DiagonalState:
    """Occupancy over the Zeeman basis (fast-path backend): each configuration present or not.

    Represents exactly the uniform mixture over the present configurations,
    the density operator whose diagonal equals ``populations`` and whose
    off-diagonal part vanishes. ``weights`` holds the occupancy packed one
    bit per configuration: bit i, in little bit order, is configuration i.
    ``count`` is the number of present configurations; an XOR map, a
    bijection, keeps it, so it is counted once, when the state is made.
    """

    __slots__ = ("weights", "dim", "count")

    def __init__(self, occupancy):
        occupancy = np.asarray(occupancy)
        if occupancy.dtype != np.bool_ or occupancy.ndim != 1:
            raise ValueError(f"an occupancy is a vector of bools, not {occupancy.ndim}-d {occupancy.dtype}")
        self.count = int(np.count_nonzero(occupancy))
        if not self.count:
            raise ValueError("occupancy has no configuration set")
        self.dim = occupancy.shape[0]
        self.weights = np.packbits(occupancy, bitorder="little")

    @classmethod
    def held(cls, bits: np.ndarray, dim: int, count: int) -> "DiagonalState":
        """A state holding the packed ``bits`` of an occupancy of ``dim`` configurations,
        ``count`` of them set, unchecked."""
        state = cls.__new__(cls)
        state.weights, state.dim, state.count = bits, dim, count
        return state

    @property
    def populations(self) -> np.ndarray:
        """The float populations, a new float64 array (8 B per configuration)."""
        return np.unpackbits(self.weights, count=self.dim, bitorder="little") / self.count

    @property
    def trace(self) -> float:
        return 1.0

    def longitudinal(self, spin: int) -> float:
        """Tr(rho * 2Iz) of one spin, counted, exact for a power-of-two count.

        Only the alpha side is counted: the beta side is ``count`` less it."""
        if self.dim & (self.dim - 1):
            raise ValueError(f"a register of spins has 2^N configurations, not {self.dim}")
        n_spins = self.dim.bit_length() - 1
        if not 0 <= spin < n_spins:
            raise ValueError(f"spin index {spin} out of range for {n_spins} spins")
        run = 1 << (n_spins - 1 - spin)
        if self.weights.size <= _INT_BYTES:  # Python ints; alpha: the low run bits of each 2 * run
            bits, period = int.from_bytes(self.weights.tobytes(), "little"), (1 << 2 * run) - 1
            alpha = (bits & ((1 << self.dim) - 1) // period * ((1 << run) - 1)).bit_count()
        elif run < 8:  # the spin is inside each byte: its alpha bits, counted by chunk
            chunks = np.split(self.weights, range(_CHUNK_BYTES, self.weights.size, _CHUNK_BYTES))
            alpha = sum(_count(chunk & _ALPHA_BYTES[run.bit_length() - 1]) for chunk in chunks)
        else:
            alpha = _count(self.weights.reshape(1 << spin, 2, -1)[:, 0])
        return (2 * alpha - self.count) / self.count

    def __repr__(self) -> str:
        return f"DiagonalState(dim={self.dim}, trace={self.trace:.6g})"


def _count(bits: np.ndarray) -> int:
    """Set bits of a uint8 array, counted in 8-byte lanes where its last axis allows and summed
    in uint32, over halves along its longest axis until each holds at most 2^31 bits."""
    if bits.size > _SUM_BYTES:
        return sum(_count(half) for half in np.array_split(bits, 2, int(np.argmax(bits.shape))))
    lanes = bits.view("<u8") if bits.shape[-1] % 8 == 0 else bits
    return int(np.bitwise_count(lanes).sum(dtype=np.uint32))


class StateVector:
    """Pure state ``|psi><psi|`` as its amplitude vector ``psi``; a unitary maps it to ``U psi``."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amplitudes = _real_or_complex(amplitudes)
        if amplitudes.ndim != 1:
            raise ValueError("amplitudes must be a vector")
        bad = np.flatnonzero(~np.isfinite(amplitudes))
        if bad.size:
            raise ValueError(f"amplitude {bad[0]} is {amplitudes[bad[0]]}, not finite")
        self.amplitudes = amplitudes

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def populations(self) -> np.ndarray:  # |psi|^2, the diagonal of |psi><psi|
        psi = self.amplitudes
        return psi**2 if psi.dtype == np.float64 else psi.real**2 + psi.imag**2


def embed(system: SpinSystem, gates: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with single-spin blocks on selected spins.

    ``gates`` maps spin index to a 2x2 block; every other spin gets the
    identity. Spin I0 is the leftmost (most significant) factor. Built from
    the last spin up, so ``np.kron``'s inner loop runs over the long factor.
    """
    for spin in gates:
        system.check_spin(spin)
    result = np.ones((1, 1))
    for spin in reversed(range(system.n_spins)):
        result = np.kron(gates.get(spin, _ID2), result)
    return result


def polarization_operator(system: SpinSystem, spin: int, level: str) -> np.ndarray:
    """Projector onto the alpha or beta level of one spin, embedded in the register."""
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}, got {level!r}")
    block = _ALPHA_PROJECTOR if level == "alpha" else _BETA_PROJECTOR
    return embed(system, {spin: block})


def pauli_z(system: SpinSystem, spin: int) -> np.ndarray:
    """Longitudinal observable 2*Iz of one spin (+1 on alpha, -1 on beta)."""
    return embed(system, {spin: _PAULI_Z})


def pauli_z_diagonal(system: SpinSystem, spin: int) -> np.ndarray:
    """Diagonal of :func:`pauli_z` as a length-``dim`` sign vector."""
    pos = system.bit_position(spin)
    return 1.0 - 2.0 * ((np.arange(system.dim) >> pos) & 1)


def expectation(state: DensityOperator | DiagonalState, observable: np.ndarray) -> float:
    """Tr(rho * O) for a Hermitian observable matrix.

    For a diagonal state only the observable's diagonal contributes, so
    the trace reduces to a dot product with the populations.
    """
    if observable.shape != (state.dim, state.dim):
        raise ValueError(
            f"dimension mismatch: state {state.dim}, observable of shape {observable.shape}"
        )
    if isinstance(state, DiagonalState):
        value = complex(state.populations @ observable.diagonal())
    else:
        value = complex(np.einsum("ij,ji->", state.matrix, observable))
    if abs(value.imag) > 1e-10:
        raise ValueError(
            f"expectation has imaginary part {value.imag:.3e}; observable not Hermitian?"
        )
    return value.real


def _masked_swap(values: np.ndarray, transform: BasisPermutation) -> np.ndarray:
    """An XOR map on an occupancy's packed bits (writable, C-contiguous), moved in place: a
    masked swap along the target axis."""
    mask, target, n_spins = transform.mask, transform.target, transform.n_spins
    pick = (slice(None),) * target
    # Bits a and b paired by the target, mask m on the target-alpha ones: d = ((b >> s) ^ a) & m,
    # a ^= d, b ^= d << s. A small register is one Python int a = b, s = 2^bit. A larger one moves
    # chunk by chunk, slicing the mask's bytes: a and b are the byte halves (s = 0) where the
    # target indexes bytes, else a = b, s = 2^bit: a delta swap (Knuth, TAOCP 4A, 7.1.3), in
    # 8-byte lanes where a chunk holds one, since m clears each bit a shift carries out of a byte.
    bit = n_spins - 1 - target
    if values.size <= _INT_BYTES:
        x, run, alpha = int.from_bytes(values.tobytes(), "little"), 1 << bit, -1
        if target or 2 * mask.size != values.size:  # else the I0-alpha half, as an oracle's mask is
            if mask.size < values.size:  # its broadcast axes filled out, faster than np.broadcast_to
                mask = mask | np.zeros((2,) * (n_spins - 3), np.uint8)
            alpha = ((1 << 8 * values.size) - 1) // ((1 << 2 * run) - 1) * ((1 << run) - 1)
        d = ((x >> run) ^ x) & int.from_bytes(mask.tobytes(), "little") & alpha
        memoryview(values)[:] = (x ^ d ^ (d << run)).to_bytes(values.size, "little")
        return values
    first = second = words = values.reshape((2,) * (n_spins - 3))
    if bit >= 3:  # the target indexes bytes
        shift, mask = 0, mask[pick + (0, ...)]
        first, second = words[pick + (0, ...)], words[pick + (1, ...)]
    else:  # the delta swap, its mask filled out over each lane's eight bytes
        shift, lane = 1 << bit, (2, 2, 2) if min(values.size, _CHUNK_BYTES) >= 8 else ()
        mask = np.broadcast_to(mask, mask.shape[: mask.ndim - len(lane)] + lane) & _ALPHA_BYTES[bit]
        if lane:
            first = second = words = values.view("<u8").reshape(words.shape[:-3])
            mask = mask.reshape(mask.shape[:-3] + (8,)).view("<u8")[..., 0]
    loops = max(0, first.ndim - (_CHUNK_BYTES // words.itemsize).bit_length() + 1)  # axes looped over
    mask = np.broadcast_to(mask, (2,) * loops + mask.shape[loops:])
    moved = np.empty(first.shape[loops:], words.dtype)
    for at in (index + (...,) for index in np.ndindex((2,) * loops)):  # views, even of one byte
        a, b, m = first[at], second[at], mask[at]
        if m.max():  # an all-zero mask moves nothing
            d = np.bitwise_xor(np.right_shift(b, shift, out=moved) if shift else b, a, out=moved)
            d &= m
            a ^= d
            b ^= np.left_shift(d, shift, out=d) if shift else d
    return values


def conjugate(state, transform, *, in_place: bool = False):
    """Map ``rho -> U rho U^†``, staying on the state's backend.

    ``transform`` is a :class:`BasisPermutation` or, on dense states and
    state vectors only, a unitary :class:`Operator`. A state vector maps
    as ``psi -> U psi``; an XOR map gathers its amplitudes by its index
    form, as it does a dense state's rows. The input state is never
    modified, unless ``in_place`` hands over a dense state's matrix or an
    occupancy: an XOR map then moves it in place, and the result holds it.
    A read-only array or a strided occupancy is copied instead, as it is
    without ``in_place``, which other states and transforms ignore.
    """
    if not isinstance(transform, (BasisPermutation, Operator)):
        raise TypeError(f"cannot conjugate by {type(transform).__name__}")
    if state.dim != transform.dim:
        raise ValueError("dimension mismatch between state and transform")

    if isinstance(transform, BasisPermutation):
        if isinstance(state, DiagonalState):
            weights, flags = state.weights, state.weights.flags
            if not (in_place and flags.writeable and flags.c_contiguous):
                weights = weights.copy()
            return DiagonalState.held(_masked_swap(weights, transform), state.dim, state.count)
        if isinstance(state, StateVector):  # (U psi)[i] = psi[m(i)], m an involution
            return StateVector(state.amplitudes[transform.mapping])
        # (U rho U^†)[a, b] = rho[m(a), m(b)] for the map m, an involution: it swaps
        # rows r and m(r) or fixes r. Each pair passes through one row buffer. A
        # fixed row changes only between the first and the last moved column, so
        # it gathers that span alone; the identity moves nothing. A permutation
        # never clips; mode="clip" spares take its buffered copy.
        matrix = state.matrix if in_place and state.matrix.flags.writeable else state.matrix.copy()
        mapping = transform.mapping
        moved = np.flatnonzero(mapping != np.arange(mapping.size))
        if not moved.size:
            return DensityOperator(matrix, check=False)
        lo, hi = int(moved[0]), int(moved[-1]) + 1
        span, row_buffer = mapping[lo:hi] - lo, np.empty(matrix.shape[1], dtype=matrix.dtype)
        for row, source in enumerate(mapping.tolist()):
            if source == row:
                matrix[row, lo:hi].take(span, out=row_buffer[: hi - lo], mode="clip")
                matrix[row, lo:hi] = row_buffer[: hi - lo]
            elif source > row:  # a pair, moved once
                matrix[source].take(mapping, out=row_buffer, mode="clip")
                matrix[row].take(mapping, out=matrix[source], mode="clip")
                matrix[row] = row_buffer
        return DensityOperator(matrix, check=False)

    if isinstance(state, DiagonalState):
        raise ValueError(
            "diagonal states only support basis permutations; "
            "convert with to_dense() for general unitaries"
        )
    u = transform.matrix
    if isinstance(state, StateVector):
        return StateVector(u @ state.amplitudes)
    return DensityOperator(u @ state.matrix @ u.conj().T, check=False)


def to_dense(state: DiagonalState) -> DensityOperator:
    """The density matrix of a diagonal state; any other state is refused, not dephased."""
    if not isinstance(state, DiagonalState):
        raise TypeError(f"to_dense takes a DiagonalState, not {type(state).__name__}")
    out = np.zeros((state.dim, state.dim), dtype=complex)
    out.reshape(-1)[:: state.dim + 1] = state.populations  # the diagonal, as a strided view
    return DensityOperator(out, check=False)
