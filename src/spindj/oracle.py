"""Boolean oracles: truth tables, classification, reversible synthesis.

A function f: {0,1}^n -> {0,1} is stored as its full truth table. The
reversible form is the XOR-ancilla embedding |y, x> -> |y ^ f(x), x>,
with y the ancilla spin I0's bit and x read from the input spins; this
makes every oracle (constant ones included) a self-inverse permutation
of the Zeeman basis states.
"""

from __future__ import annotations

import enum
from pathlib import Path

import numpy as np

from .core import (
    BasisPermutation,
    DensityOperator,
    DiagonalState,
    SpinSystem,
    conjugate,
)


class TruthTableError(ValueError):
    """Malformed truth-table data (bad characters, bad length, bad file)."""


class OracleClass(enum.Enum):
    """Constant/balanced classification; NEITHER breaks the DJ promise."""

    CONSTANT0 = "constant0"
    CONSTANT1 = "constant1"
    BALANCED = "balanced"
    NEITHER = "neither"


class TruthTable:
    """f: {0,1}^n -> {0,1} as a bit vector of length 2^n.

    Bit ``x`` holds f(x), with x read from the input spins under the
    register's ordering (I1 most significant input bit).
    """

    __slots__ = ("n", "bits")

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        size = bits.shape[0]
        if bits.ndim != 1 or size < 2 or size & (size - 1):
            raise TruthTableError(
                f"truth table length must be a power of two >= 2, got {size}"
            )
        if np.any(bits > 1):
            raise TruthTableError("truth table entries must be 0 or 1")
        self.bits = bits
        self.n = size.bit_length() - 1

    @classmethod
    def from_string(cls, text: str) -> "TruthTable":
        if any(c not in "01" for c in text):
            raise TruthTableError(f"truth table characters must be 0/1, got {text!r}")
        return cls([int(c) for c in text])

    @classmethod
    def constant(cls, n: int, value: int) -> "TruthTable":
        if value not in (0, 1):
            raise TruthTableError("constant value must be 0 or 1")
        return cls(np.full(1 << n, value, dtype=np.uint8))

    def __call__(self, x: int) -> int:
        return int(self.bits[x])

    def __len__(self) -> int:
        return self.bits.shape[0]

    @property
    def ones(self) -> int:
        return int(self.bits.sum())

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __repr__(self) -> str:
        return f"TruthTable(n={self.n}, bits={self.to_string()!r})"


def classify(table: TruthTable) -> OracleClass:
    """Constant (all equal), balanced (exactly half ones), or neither."""
    ones = table.ones
    if ones == 0:
        return OracleClass.CONSTANT0
    if ones == len(table):
        return OracleClass.CONSTANT1
    if 2 * ones == len(table):
        return OracleClass.BALANCED
    return OracleClass.NEITHER


def reversible_oracle(system: SpinSystem, table: TruthTable) -> BasisPermutation:
    """Permutation |y, x> -> |y ^ f(x), x> over the full register.

    The ancilla bit y is spin I0 (the most significant bit); a separate
    detection spin, when present, is untouched. XOR makes the permutation
    an involution. The control mask is the truth table itself, viewed
    without a copy with one axis per input spin and length-1 axes for the
    ancilla and the detection spin.
    """
    if table.n != system.n_inputs:
        raise ValueError(
            f"table arity {table.n} does not match {system.n_inputs} input spins"
        )
    shape = (1,) + (2,) * system.n_inputs + (1,) * int(system.has_detection_spin)
    return BasisPermutation(system.ancilla, table.bits.view(np.bool_).reshape(shape))


def oracle_channel(
    state: DensityOperator | DiagonalState, oracle: BasisPermutation
) -> DensityOperator | DiagonalState:
    """One oracle evaluation on the whole ensemble: conjugation by the permutation.

    Conjugation is linear in the state, so a mixture of classical inputs
    is mapped to the same mixture of outputs.
    """
    return conjugate(state, oracle)


def random_balanced(n: int, seed: int) -> TruthTable:
    """Uniformly random balanced table: a seeded shuffle of a half-ones vector."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    rng = np.random.default_rng(seed)
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[: 1 << (n - 1)] = 1
    return TruthTable(rng.permutation(bits))


def random_constant(n: int, seed: int) -> TruthTable:
    """All-zeros or all-ones, chosen with equal probability."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    rng = np.random.default_rng(seed)
    return TruthTable.constant(n, int(rng.integers(2)))


def random_table(n: int, seed: int) -> TruthTable:
    """Unconstrained random table (no promise)."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    rng = np.random.default_rng(seed)
    return TruthTable(rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def parse_truth_table(text: str) -> TruthTable:
    """Parse the table file format: comment lines starting with '#', then
    a single line of 2^n characters from {0,1}."""
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(lines) != 1:
        raise TruthTableError(
            f"expected exactly one data line of 0/1 characters, found {len(lines)}"
        )
    return TruthTable.from_string(lines[0])


def load_truth_table(path: str | Path) -> TruthTable:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TruthTableError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return parse_truth_table(text)
