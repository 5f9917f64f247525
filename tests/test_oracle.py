import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spindj.core import DensityOperator, SpinSystem
from spindj.oracle import (
    OracleClass,
    TruthTable,
    TruthTableError,
    _spread_twice,
    classify,
    oracle_channel,
    random_balanced,
    random_table,
    read_data_line,
    reversible_oracle,
)
from spindj.pulses import zeeman_product_state


def all_tables(n):
    for bits in itertools.product((0, 1), repeat=1 << n):
        yield TruthTable(bits)


class TestTruthTable:
    def test_arity_inferred_from_length(self):
        assert TruthTable.from_string("0110").n == 2
        assert TruthTable.from_string("01").n == 1
        # The arity is derived from the bits, so it cannot be set apart from them.
        table = TruthTable.from_string("0011")
        with pytest.raises(AttributeError):
            table.n = 7
        assert table.n == 2

    def test_rejects_bad_lengths(self):
        with pytest.raises(TruthTableError):
            TruthTable([0, 1, 0])
        with pytest.raises(TruthTableError):
            TruthTable([0])
        with pytest.raises(TruthTableError, match="vector"):
            TruthTable(5)
        with pytest.raises(TruthTableError, match="vector"):
            TruthTable([[0, 1], [1]])
        with pytest.raises(TruthTableError, match="power of two >= 2, got 0$"):
            TruthTable.from_string("")

    def test_rejects_bad_values(self):
        with pytest.raises(TruthTableError):
            TruthTable([0, 2])
        with pytest.raises(TruthTableError, match="got 2 at position 2$"):
            TruthTable(np.array([0, 1, 2, 255], dtype=np.uint8))
        # Entries are compared before the cast, which would read them as 0 and 0/1.
        with pytest.raises(TruthTableError, match="got 0.7 at position 0"):
            TruthTable([0.7, 0.2])
        with pytest.raises(TruthTableError, match="got 0.5 at position 0"):
            TruthTable([0.5, 1.0])
        with pytest.raises(TruthTableError):
            TruthTable.from_string("01x1")
        with pytest.raises(TruthTableError, match="constant value must be 0 or 1"):
            TruthTable.constant(2, 2)

    def test_a_valid_uint8_table_is_checked_without_a_mask(self):
        # numpy reports its buffers to tracemalloc; a 2^20-entry mask is 1 MiB, and the
        # table packed one bit per entry is 128 KiB.
        bits = np.zeros(1 << 20, dtype=np.uint8)
        bits[::3] = 1
        tracemalloc.start()
        try:
            TruthTable(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 20) // 8 + (64 << 10)

    def test_from_string_holds_only_the_encoded_line_and_the_table(self):
        text = "01" * (1 << 19)
        tracemalloc.start()
        try:
            table = TruthTable.from_string(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n == 20 and table.packed.nbytes == len(table) // 8
        # The encoded line and its digits, one byte per entry each; the packed table is smaller.
        assert peak <= 2 * len(table) + (4 << 10)  # 4 KiB for object headers

    def test_lookup(self):
        table = TruthTable.from_string("0110")
        assert [table(x) for x in range(4)] == [0, 1, 1, 0]
        table = random_table(10, 77)
        assert table.to_string() == "".join(str(table(x)) for x in range(len(table)))

    @pytest.mark.parametrize("x", [-1, 4])
    def test_lookup_refuses_arguments_outside_the_table(self, x):
        # numpy indexing would read -1 as f(3).
        with pytest.raises(ValueError, match=f"argument {x} out of range 0..3"):
            TruthTable.from_string("0001")(x)


class TestPackedTable:
    """The packed bytes against an unpacked reference: bit x, in little bit order, is f(x)."""

    @staticmethod
    def check(table, reference):
        n, size = table.n, len(reference)
        assert len(table) == size == 1 << n
        assert table.packed.dtype == np.uint8 and table.packed.size == max(1, size // 8)
        # the bits past the table in its one byte (n <= 2) are zero
        assert not np.unpackbits(table.packed, bitorder="little")[size:].any()
        assert table.bits.tolist() == reference
        assert [table(x) for x in range(size)] == reference
        assert table.to_string() == "".join(map(str, reference))
        ones = sum(reference)
        assert table.ones == ones
        want = {0: OracleClass.CONSTANT0, size: OracleClass.CONSTANT1, size // 2: OracleClass.BALANCED}
        assert classify(table) is want.get(ones, OracleClass.NEITHER)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_table(self, n):
        for entries in itertools.product((0, 1), repeat=1 << n):
            reference = list(entries)
            self.check(TruthTable(entries), reference)
            self.check(TruthTable.from_string("".join(map(str, entries))), reference)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_generated_tables(self, n):
        for value in (0, 1):
            self.check(TruthTable.constant(n, value), [value] * (1 << n))
        for seed in (0, 5):
            entries = np.random.default_rng(seed).integers(0, 2, size=1 << n, dtype=np.uint8)
            self.check(random_table(n, seed), entries.tolist())
            self.check(TruthTable(entries), entries.tolist())
            self.check(TruthTable(entries.astype(bool)), entries.tolist())
            half_ones = np.repeat(np.array([1, 0], dtype=np.uint8), 1 << (n - 1))
            shuffled = np.random.default_rng(seed).permutation(half_ones)
            self.check(random_balanced(n, seed), shuffled.tolist())

    def test_held_tables_keep_their_bytes(self):
        packed = np.array([0b0110], dtype=np.uint8)
        table = TruthTable.held(packed, 2)
        assert table.packed is packed
        self.check(table, [0, 1, 1, 0])


class TestTableMemory:
    """A table is held packed: 2^n / 8 bytes, and no array of one byte per input is kept."""

    N = 20

    def test_a_constant_table_allocates_no_byte_per_input_array(self):
        tracemalloc.start()
        try:
            table = TruthTable.constant(self.N, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.ones == 1 << self.N
        assert peak < (1 << self.N) // 8 + (4 << 10)  # 4 KiB for object headers

    def test_a_balanced_table_keeps_no_byte_per_input_array(self):
        # The seeded shuffle runs over one byte per input; only its packed bits are kept.
        random_balanced(1, 3)  # numpy imports what its first generator needs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = random_balanced(self.N, 3)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table.ones == 1 << (self.N - 1)
        assert kept < (1 << self.N) // 8 + (4 << 10)


class TestClassify:
    @pytest.mark.parametrize(
        "bits, want",
        [
            ("0000", OracleClass.CONSTANT0),
            ("1111", OracleClass.CONSTANT1),
            ("0110", OracleClass.BALANCED),
            ("0001", OracleClass.NEITHER),
        ],
    )
    def test_examples(self, bits, want):
        assert classify(TruthTable.from_string(bits)) is want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_popcount_exhaustively(self, n):
        for table in all_tables(n):
            ones = sum(table(x) for x in range(1 << n))
            if ones == 0:
                want = OracleClass.CONSTANT0
            elif ones == (1 << n):
                want = OracleClass.CONSTANT1
            elif ones == (1 << (n - 1)):
                want = OracleClass.BALANCED
            else:
                want = OracleClass.NEITHER
            assert classify(table) is want


class TestReversibleOracle:
    def test_constant0_is_identity(self):
        system = SpinSystem(2)
        oracle = reversible_oracle(system, TruthTable.constant(2, 0))
        assert np.array_equal(oracle.mapping, np.arange(system.dim))

    def test_constant1_flips_only_the_ancilla_bit(self):
        system = SpinSystem(2)
        mapping = reversible_oracle(system, TruthTable.constant(2, 1)).mapping
        ancilla_bit = 1 << system.bit_position(system.ancilla)
        for index in range(system.dim):
            assert mapping[index] == index ^ ancilla_bit

    def test_passthrough_single_input(self):
        # enumerate |y, x> -> |y ^ x, x> by hand: {0:0, 1:3, 2:2, 3:1}
        by_hand = {}
        for y in (0, 1):
            for x in (0, 1):
                by_hand[(y << 1) | x] = ((y ^ x) << 1) | x
        assert by_hand == {0: 0, 1: 3, 2: 2, 3: 1}

        mapping = reversible_oracle(SpinSystem(1), TruthTable.from_string("01")).mapping
        assert {i: mapping[i] for i in range(4)} == by_hand

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            reversible_oracle(SpinSystem(3), TruthTable.from_string("01"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bijection_and_involution_exhaustive(self, n):
        system = SpinSystem(n)
        identity = np.arange(system.dim)
        for table in all_tables(n):
            oracle = reversible_oracle(system, table)
            assert np.array_equal(np.sort(oracle.mapping), identity)
            assert np.array_equal(oracle.mapping[oracle.mapping], identity)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_writes_function_value_to_cleared_ancilla(self, n):
        system = SpinSystem(n)
        for table in all_tables(n):
            mapping = reversible_oracle(system, table).mapping
            for x in range(1 << n):
                got = mapping[system.basis_index("0" + format(x, f"0{n}b"))]
                want = system.basis_index(str(table(x)) + format(x, f"0{n}b"))
                assert got == want

    def test_leaves_detection_spin_alone(self):
        system = SpinSystem(2, has_detection_spin=True)
        mapping = reversible_oracle(system, TruthTable.from_string("0110")).mapping
        detection_bit = 1 << system.bit_position(system.detection)
        for index in range(system.dim):
            assert mapping[index] & detection_bit == index & detection_bit


class TestSpread:
    def test_the_morton_spread_doubles_every_bit_of_every_byte(self):
        every_byte = np.arange(256, dtype=np.uint8)
        doubled = [sum(3 << 2 * i for i in range(8) if byte >> i & 1) for byte in range(256)]
        want = np.array(doubled, dtype="<u2").view(np.uint8)
        assert np.array_equal(_spread_twice(every_byte), want)  # in 16-bit words
        for byte in range(256):  # one byte at a time
            spread = _spread_twice(every_byte[byte : byte + 1])
            assert np.array_equal(spread, want[2 * byte : 2 * byte + 2])
        # Short tables, and the chunks of 256 KiB the spread runs over.
        bits = np.random.default_rng(79).integers(0, 256, size=(1 << 18) + 64, dtype=np.uint8)
        doubled = np.packbits(np.unpackbits(bits, bitorder="little").repeat(2), bitorder="little")
        for size in (32, 64, bits.size):
            assert np.array_equal(_spread_twice(bits[:size]), doubled[: 2 * size])

    def test_oracle_masks_are_the_table_bytes_or_their_spread(self):
        for n in range(1, 9):
            table = random_table(n, n)
            ancilla = reversible_oracle(SpinSystem(n), table)
            assert np.shares_memory(ancilla.mask, table.packed)
            separate = reversible_oracle(SpinSystem(n, has_detection_spin=True), table)
            assert separate.mask.size == (1 if n == 1 else 1 << (n - 2))
            assert not np.shares_memory(separate.mask, table.packed)


class TestOracleChannel:
    def test_maps_classical_input_to_classical_output(self):
        system = SpinSystem(2)
        table = TruthTable.from_string("0110")
        oracle = reversible_oracle(system, table)
        for x in range(4):
            state = zeeman_product_state(system, "0" + format(x, "02b"))
            out = oracle_channel(state, oracle)
            want = zeeman_product_state(system, str(table(x)) + format(x, "02b"))
            assert_allclose(out.matrix, want.matrix)

    def test_fixes_maximally_mixed_state(self):
        system = SpinSystem(2)
        oracle = reversible_oracle(system, TruthTable.from_string("0110"))
        mixed = DensityOperator(np.eye(system.dim) / system.dim)
        assert_allclose(oracle_channel(mixed, oracle).matrix, mixed.matrix)

    def test_linear_over_real_combinations(self):
        rng = np.random.default_rng(61)
        system = SpinSystem(2)
        oracle = reversible_oracle(system, TruthTable.from_string("0110"))
        for _ in range(50):
            p1 = rng.random(system.dim)
            p2 = rng.random(system.dim)
            rho1 = DensityOperator(np.diag(p1 / p1.sum()))
            rho2 = DensityOperator(np.diag(p2 / p2.sum()))
            c1, c2 = 0.3, 0.7
            mixture = DensityOperator(c1 * rho1.matrix + c2 * rho2.matrix, check=False)
            combined = oracle_channel(mixture, oracle).matrix
            split = c1 * oracle_channel(rho1, oracle).matrix + c2 * oracle_channel(rho2, oracle).matrix
            assert np.max(np.abs(combined - split)) < 1e-12

    @pytest.mark.parametrize("separate", [False, True])
    def test_hands_over_the_matrix_only_when_asked(self, separate):
        system = SpinSystem(2, has_detection_spin=separate)
        oracle = reversible_oracle(system, TruthTable.from_string("0110"))
        rng = np.random.default_rng(67)
        populations = rng.random(system.dim)
        rho = DensityOperator(np.diag(populations / populations.sum()))
        before = rho.matrix.copy()
        copied = oracle_channel(rho, oracle)
        assert np.array_equal(rho.matrix, before)
        assert not np.shares_memory(copied.matrix, rho.matrix)
        handed = oracle_channel(rho, oracle, in_place=True)
        assert np.shares_memory(handed.matrix, rho.matrix)
        assert np.array_equal(handed.matrix, copied.matrix)
        # The table is not constant, so the oracle moved some population.
        assert not np.array_equal(rho.matrix, before)


class TestRandomTables:
    def test_balanced_has_half_ones(self):
        for seed in range(100):
            table = random_balanced(2, seed)
            assert table.ones == 2

    def test_deterministic_given_seed(self):
        assert random_balanced(3, 123).to_string() == random_balanced(3, 123).to_string()
        assert random_table(3, 77).to_string() == random_table(3, 77).to_string()

    def test_balanced_sampler_covers_the_space(self):
        seen = {random_balanced(3, seed).to_string() for seed in range(10000)}
        # 70 balanced tables exist at n=3; the sampler must reach a good share
        assert len(seen) >= 30

    @pytest.mark.parametrize("n", [*range(1, 13), 20])
    def test_balanced_stream_is_the_seeded_permutation_of_half_ones(self, n):
        half_ones = np.zeros(1 << n, dtype=np.uint8)
        half_ones[: 1 << (n - 1)] = 1
        for seed in (0, 3, 2**64 - 1):
            want = np.random.default_rng(seed).permutation(half_ones)
            assert np.array_equal(random_balanced(n, seed).bits, want)

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            random_balanced(0, 1)
        with pytest.raises(ValueError, match="arity must be at least 1"):
            random_table(0, 1)


class TestTableFiles:
    """A table file loads as ``TruthTable.from_string(read_data_line(path))``."""

    @staticmethod
    def load(tmp_path, text):
        path = tmp_path / "table.tt"
        path.write_text(text)
        return TruthTable.from_string(read_data_line(path))

    def test_parse_with_comments(self, tmp_path):
        table = self.load(tmp_path, "# xor on two bits\n# more notes\n0110\n")
        assert table.to_string() == "0110"
        assert classify(table) is OracleClass.BALANCED

    def test_parse_rejects_multiple_data_lines(self, tmp_path):
        with pytest.raises(TruthTableError, match="found 2"):
            self.load(tmp_path, "0110\n0011\n")

    def test_parse_rejects_empty_input(self, tmp_path):
        with pytest.raises(TruthTableError, match="found 0"):
            self.load(tmp_path, "# only a comment\n")

    def test_parse_rejects_bad_characters(self, tmp_path):
        with pytest.raises(TruthTableError, match="'i' at position 2"):
            self.load(tmp_path, "01i0\n")
        with pytest.raises(TruthTableError, match="'é' at position 1$"):
            TruthTable.from_string("0é01")

    def test_parse_rejects_non_power_of_two(self, tmp_path):
        with pytest.raises(TruthTableError, match="power of two"):
            self.load(tmp_path, "011\n")

    def test_non_utf8_byte_is_located_from_the_start_of_the_file(self, tmp_path):
        path = tmp_path / "table.tt"
        path.write_bytes(b"\xef\xbb\xbf01\xff\n")
        with pytest.raises(TruthTableError, match=r"is not UTF-8 text \(byte 5\)$"):
            read_data_line(path)
