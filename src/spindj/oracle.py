"""Boolean oracles: truth tables, classification, reversible synthesis.

A function f: {0,1}^n -> {0,1} is stored as its full truth table, packed
one bit per input. The reversible form is the XOR-ancilla embedding
|y, x> -> |y ^ f(x), x>, with y the ancilla spin I0's bit and x read from
the input spins; this makes every oracle (constant ones included) a
self-inverse permutation of the Zeeman basis states.
"""

from __future__ import annotations

import enum
from pathlib import Path

import numpy as np

from .core import BasisPermutation, SpinSystem, _count, conjugate


class TruthTableError(ValueError):
    """Malformed truth-table data (bad characters, bad length, bad file)."""


class OracleClass(enum.Enum):
    """Constant/balanced classification; NEITHER breaks the DJ promise."""

    CONSTANT0 = "constant0"
    CONSTANT1 = "constant1"
    BALANCED = "balanced"
    NEITHER = "neither"


def table_arity(length: int) -> int:
    """The arity n of a table of ``length`` = 2^n entries, n >= 1."""
    if length < 2 or length & (length - 1):
        raise TruthTableError(f"truth table length must be a power of two >= 2, got {length}")
    return length.bit_length() - 1


class TruthTable:
    """f: {0,1}^n -> {0,1}, packed: bit ``x`` of ``packed``, in little bit order, holds f(x).

    x is read from the input spins under the register's ordering (I1 most
    significant input bit). For n <= 2 the table is part of one byte, whose
    unused bits are zero. The arity ``n`` is held beside the bytes, read-only.
    """

    __slots__ = ("packed", "_n")

    def __init__(self, bits):
        try:
            array = np.asarray(bits)
        except ValueError as exc:  # ragged nesting, e.g. [[0, 1], [1]]
            raise TruthTableError(f"truth table must be a vector: {exc}") from None
        if array.ndim != 1:
            raise TruthTableError(f"truth table must be a vector, got {array.ndim} dimensions")
        self._n = table_arity(array.shape[0])
        # Compare before casting: a cast would read 0.7 as 0, and 256 too. A uint8
        # table is checked by one reduction; only a bad one builds a 2^n mask.
        if array.dtype != np.uint8 or np.maximum.reduce(array) > 1:
            wrong = array > 1 if array.dtype == np.uint8 else (array != 0) & (array != 1)
            if np.count_nonzero(wrong):
                bad = int(np.flatnonzero(wrong)[0])
                raise TruthTableError(
                    f"truth table entries must be 0 or 1, got {array.item(bad)!r} at position {bad}"
                )
        self.packed = np.packbits(array.astype(np.uint8, copy=False), bitorder="little")

    @classmethod
    def held(cls, packed: np.ndarray, n: int) -> "TruthTable":
        """A table of arity ``n`` holding ``packed`` as given, unchecked."""
        table = cls.__new__(cls)
        table.packed, table._n = packed, n
        return table

    @classmethod
    def from_string(cls, text: str) -> "TruthTable":
        """Parse a line of 0/1 characters, one byte per entry while parsing."""
        try:
            # The encoded bytes are a temporary, freed once the digits are read.
            digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - np.uint8(ord("0"))
        except UnicodeEncodeError as exc:
            bad = exc.start
        else:
            # initial=0: an empty line reaches the length check.
            if np.maximum.reduce(digits, initial=0) <= 1:
                return cls.held(np.packbits(digits, bitorder="little"), table_arity(digits.size))
            bad = int(np.flatnonzero(digits > 1)[0])
        raise TruthTableError(
            f"truth table characters must be 0/1, got {text[bad]!r} at position {bad}"
        )

    @classmethod
    def constant(cls, n: int, value: int) -> "TruthTable":
        if value not in (0, 1):
            raise TruthTableError("constant value must be 0 or 1")
        table_arity(1 << n)  # refuses n < 1
        return cls.held(np.full(max(1, 1 << n >> 3), value * 0xFF >> max(0, 8 - (1 << n)), np.uint8), n)

    def __call__(self, x: int) -> int:
        if not 0 <= x < len(self):  # numpy would read -1 as the last byte
            raise ValueError(f"argument {x} out of range 0..{len(self) - 1}")
        return int(self.packed[x >> 3]) >> (x & 7) & 1

    def __len__(self) -> int:
        return 1 << self._n

    @property
    def n(self) -> int:
        return self._n

    @property
    def bits(self) -> np.ndarray:
        """f(x) at index x, one byte per input, built anew on each access."""
        return np.unpackbits(self.packed, count=len(self), bitorder="little")

    @property
    def ones(self) -> int:
        return _count(self.packed)

    def to_string(self) -> str:
        return (self.bits + np.uint8(ord("0"))).tobytes().decode("ascii")

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
    an involution. The packed mask covers the I0-alpha half: without a
    detection spin it is the table's own bytes, viewed without a copy; with
    one, the last spin, each table bit is spread twice, once, here.
    """
    if table.n != system.n_inputs:
        raise ValueError(
            f"table arity {table.n} does not match {system.n_inputs} input spins"
        )
    mask = table.packed
    if system.has_detection_spin:  # the mask ignores the last spin: each bit twice
        mask = _spread_twice(mask)[: max(1, len(table) >> 2)]
    shape = (1,) + (2,) * (system.n_spins - 4) if system.n_spins > 3 else ()  # I0's axis has length 1
    return BasisPermutation.held(system.ancilla, mask.reshape(shape), system.n_spins)


def _spread_twice(packed: np.ndarray) -> np.ndarray:
    """Each bit i of ``packed`` as bits 2i and 2i + 1: a Morton spread of each byte into a
    little-endian 16-bit word (Warren, Hacker's Delight, 2nd ed., 7-2)."""
    words = packed.astype("<u2")
    for chunk in np.split(words, range(1 << 17, words.size, 1 << 17)):  # 256 KiB, in cache
        for shift, keep in ((4, 0x0F0F), (2, 0x3333), (1, 0x5555)):
            chunk |= chunk << shift
            chunk &= keep
        chunk *= 3  # bit 2i to bits 2i and 2i + 1
    return words.view(np.uint8)


def oracle_channel(state, oracle: BasisPermutation, *, in_place: bool = False):
    """One oracle evaluation on the whole ensemble: conjugation by the permutation.

    ``state`` is any state :func:`~spindj.core.conjugate` takes, on any
    backend. Conjugation is linear in the state, so a mixture of classical
    inputs is mapped to the same mixture of outputs. The input state is never
    modified, unless ``in_place`` hands over a dense state's matrix or an
    occupancy, which the oracle then moves in place (see :func:`~spindj.core.conjugate`).
    """
    return conjugate(state, oracle, in_place=in_place)


def random_balanced(n: int, seed: int) -> TruthTable:
    """Uniformly random balanced table: a seeded shuffle of a half-ones vector, packed."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[: 1 << (n - 1)] = 1
    np.random.default_rng(seed).shuffle(bits)  # rng.permutation's stream, without its copy
    return TruthTable.held(np.packbits(bits, bitorder="little"), n)


def random_table(n: int, seed: int) -> TruthTable:
    """Unconstrained random table (no promise)."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    bits = np.random.default_rng(seed).integers(0, 2, size=1 << n, dtype=np.uint8)
    return TruthTable.held(np.packbits(bits, bitorder="little"), n)


def read_data_line(path: str | Path) -> str:
    """The unparsed data line of a table file: its one line that is neither
    blank nor a '#' comment. Its length gives the arity."""
    try:
        # Not "utf-8-sig": it counts exc.start from after a byte-order mark.
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise TruthTableError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(lines) != 1:
        raise TruthTableError(
            f"expected exactly one data line of 0/1 characters, found {len(lines)}"
        )
    return lines[0]
