import contextlib
import csv
import io
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spindj.core
import spindj.protocol
from spindj import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, flag, *argv):
    """Exit 1 with a one-line message that names ``flag``."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and flag in err
    assert err.count("\n") == 1


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def strip_wall_times(report):
    def scrub(node):
        if isinstance(node, dict):
            return {k: scrub(v) for k, v in node.items() if k != "wall_ms"}
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return scrub(report)


# spindj oracle --n 3 --oracle balanced-random --seed 5
ORACLE_LISTING = """\
n=3, balanced, ones=4
reversible oracle on 16 basis states (I0 first):
  |0000> -> |1000>
  |0001> -> |0001>
  |0010> -> |1010>
  |0011> -> |1011>
  |0100> -> |0100>
  |0101> -> |0101>
  |0110> -> |0110>
  |0111> -> |1111>
  |1000> -> |0000>
  |1001> -> |1001>
  |1010> -> |0010>
  |1011> -> |0011>
  |1100> -> |1100>
  |1101> -> |1101>
  |1110> -> |1110>
  |1111> -> |0111>
"""


class TestRunCommand:
    def test_constant_oracle_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "3", "--oracle", "constant0")
        assert code == 0
        report = json.loads(out)
        assert report["version"] == "v1"
        record = report["records"][0]
        assert record["signal"] == 1.0
        assert record["verdict"] == "constant0"
        assert record["evaluations"] == 1
        assert record["backend"] == "diagonal"

    def test_both_backends_cross_check(self, capsys, tmp_path):
        path = tmp_path / "xor.tt"
        path.write_text("0110\n")
        code, out, _ = run_cli(
            capsys, "run", "--n", "2", "--oracle", f"file:{path}", "--backend", "both"
        )
        assert code == 0
        report = json.loads(out)
        assert {r["backend"] for r in report["records"]} == {"dense", "diagonal"}
        assert report["cross_check"] < 1e-12

    def test_cross_check_sees_a_fault_in_the_diagonal_readout(self, capsys, monkeypatch):
        # The dense backend reads 2Iz by its own rule, so a sign flipped in the
        # diagonal readout shows as a gap of 2 on a constant table.
        longitudinal = spindj.core.DiagonalState.longitudinal
        monkeypatch.setattr(
            spindj.core.DiagonalState, "longitudinal", lambda self, spin: -longitudinal(self, spin)
        )
        code, out, _ = run_cli(
            capsys, "run", "--n", "3", "--oracle", "constant0", "--backend", "both"
        )
        assert code == 0
        assert json.loads(out)["cross_check"] == 2.0

    def test_cross_check_sees_a_fault_in_the_diagonal_xor_kernel(self, capsys, monkeypatch):
        # The dense gather takes its index from the bit rule, not from the state kernel,
        # so a kernel that flips where the mask is clear shows as a gap of 2 on a constant.
        masked_swap = spindj.core._masked_swap

        def inverted(values, transform):
            flipped_mask = spindj.core.BasisPermutation(transform.target, ~transform.control)
            return masked_swap(values, flipped_mask)

        monkeypatch.setattr(spindj.core, "_masked_swap", inverted)
        code, out, _ = run_cli(
            capsys, "run", "--n", "3", "--oracle", "constant0", "--backend", "both"
        )
        assert code == 0
        assert json.loads(out)["cross_check"] == 2.0

    @pytest.mark.parametrize("detection", ["ancilla", "separate"])
    def test_cross_check_sees_a_fault_in_the_prepared_input(self, capsys, monkeypatch, detection):
        # The dense input is built by the bit rule, not from the packed one, so an input
        # with I0 pinned to beta instead of alpha shows as a gap of 2 on a constant.
        prepare = spindj.protocol.prepare_liouville_input

        def pinned_to_beta(system):
            bits = prepare(system).weights
            occupancy = np.unpackbits(bits, count=system.dim, bitorder="little").astype(bool)
            return spindj.core.DiagonalState(np.roll(occupancy, system.dim // 2))

        monkeypatch.setattr(spindj.protocol, "prepare_liouville_input", pinned_to_beta)
        code, out, _ = run_cli(
            capsys, "run", "--n", "3", "--oracle", "constant0", "--backend", "both",
            "--detection", detection,
        )
        assert code == 0
        assert json.loads(out)["cross_check"] == 2.0

    def test_a_dense_run_holds_one_matrix(self, capsys):
        # 9 spins: a 4 MiB complex matrix, which each XOR map moves in place.
        matrix_bytes = 16 * 4**9
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                capsys, "run", "--n", "7", "--oracle", "balanced-random", "--seed", "3",
                "--backend", "dense", "--detection", "separate",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["records"][0]["verdict"] == "balanced"
        assert peak < 1.5 * matrix_bytes

    def test_a_constant_run_allocates_no_byte_per_input_array(self, capsys):
        # 21 spins: the table is 128 KiB packed and the occupancy 256 KiB; one byte per
        # input, as an unpacked table or mask would hold, is 1 MiB.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "run", "--n", "20", "--oracle", "constant0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["records"][0]["signal"] == 1.0
        assert peak < 1 << 20

    def test_pseudo_pure_verdict_is_undecided_below_the_noise_floor(self, capsys):
        # eps(9 spins) = 9e-5/512 ~ 1.8e-7 <= 2 sigma with the default sigma = 1e-6
        code, out, _ = run_cli(
            capsys, "run", "--n", "8", "--oracle", "constant0", "--thermal-p", "1e-5"
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [r["verdict"] for r in records] == ["constant0", "undecided"]

    @pytest.mark.parametrize("oracle", ["constant0", "constant1"])
    def test_liouville_verdict_is_undecided_when_sigma_reaches_half_full_scale(
        self, capsys, oracle
    ):
        code, out, _ = run_cli(capsys, "run", "--n", "3", "--oracle", oracle, "--tolerance", "1")
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert abs(record["signal"]) == 1.0
        assert record["verdict"] == "undecided"

    @pytest.mark.parametrize(
        "oracle, verdict", [("constant0", "constant0"), ("balanced-random", "balanced")]
    )
    def test_pseudo_pure_verdict_decides_above_the_noise_floor(self, capsys, oracle, verdict):
        code, out, _ = run_cli(
            capsys, "run", "--n", "8", "--oracle", oracle, "--seed", "3", "--epsilon", "0.25"
        )
        assert code == 0
        assert [r["verdict"] for r in json.loads(out)["records"]] == [verdict, verdict]

    def test_pseudo_pure_record_when_epsilon_given(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--n", "2", "--oracle", "constant0", "--epsilon", "0.25"
        )
        assert code == 0
        report = json.loads(out)
        protocols = [r["protocol"] for r in report["records"]]
        assert protocols == ["liouville", "pseudo_pure"]
        assert abs(report["records"][1]["signal"] - 0.25) < 1e-10

    def test_neither_table_flagged_not_rejected(self, capsys, tmp_path):
        path = tmp_path / "odd.tt"
        path.write_text("0001\n")
        code, out, _ = run_cli(capsys, "run", "--oracle", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["records"][0]["class"] == "neither"
        assert "warnings" in report

    def test_seed_required_for_random_oracles(self, capsys):
        code, _, err = run_cli(capsys, "run", "--n", "2", "--oracle", "balanced-random")
        assert code == 1
        assert "--seed" in err

    def test_n_required_for_generated_oracles(self, capsys):
        code, _, err = run_cli(capsys, "run", "--oracle", "constant0")
        assert code == 1
        assert "--n" in err

    def test_missing_file_is_a_file_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--oracle", "file:/nonexistent/x.tt")
        assert code == 2

    def test_malformed_table_file(self, capsys, tmp_path):
        path = tmp_path / "bad.tt"
        path.write_text("01i0\n")
        code, _, _ = run_cli(capsys, "run", "--oracle", str(path))
        assert code == 3

    def test_table_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe01\n")
        code, out, err = run_cli(capsys, "run", "--oracle", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("truth table error: ") and err.count("\n") == 1

    def test_table_file_with_a_byte_order_mark(self, capsys, tmp_path):
        marked, plain = tmp_path / "marked.tt", tmp_path / "plain.tt"
        marked.write_bytes(b"\xef\xbb\xbf0101\n")
        plain.write_bytes(b"0101\n")
        code, out, err = run_cli(capsys, "run", "--oracle", str(marked))
        assert (code, err) == (0, "")
        assert json.loads(out)["records"][0]["n"] == 2
        listing = run_cli(capsys, "oracle", "--oracle", str(marked))
        assert listing == run_cli(capsys, "oracle", "--oracle", str(plain))
        assert listing[1].startswith("n=2, balanced, ones=2\n")

    def test_bad_character_is_named_with_its_position(self, capsys, tmp_path):
        path = tmp_path / "long.tt"
        path.write_text("01" * 4096 + "x" + "0" * 8191 + "\n")
        code, out, err = run_cli(capsys, "run", "--oracle", str(path))
        assert code == 3
        assert out == ""
        assert err == "truth table error: truth table characters must be 0/1, got 'x' at position 8192\n"
        # A character that ASCII cannot encode, through a file: source.
        path = tmp_path / "accent.tt"
        path.write_bytes("0é01\n".encode())
        code, out, err = run_cli(capsys, "run", "--oracle", f"file:{path}")
        assert code == 3
        assert out == ""
        assert err == "truth table error: truth table characters must be 0/1, got 'é' at position 1\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_n_must_be_positive(self, capsys, value):
        assert_usage_error(capsys, "--n", "run", "--n", value, "--oracle", "constant0")

    def test_capacity_exceeded(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--n", "14", "--oracle", "constant0", "--backend", "dense"
        )
        assert code == 4
        code, _, _ = run_cli(capsys, "run", "--n", "30", "--oracle", "constant0")
        assert code == 4

    def test_capacity_is_checked_before_the_table_is_built(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "run", "--n", "30", "--oracle", "constant0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert err.startswith("capacity error: 31 spins")
        assert peak < 1 << 20

    def test_capacity_counts_the_dense_baseline(self, capsys):
        # 13 inputs + ancilla = 14 spins: fine on the diagonal backend, not dense.
        argv = ["run", "--n", "13", "--oracle", "constant0"]
        assert run_cli(capsys, *argv)[0] == 0
        assert run_cli(capsys, *argv, "--backend", "both")[0] == 4
        assert run_cli(capsys, *argv, "--thermal-p", "1e-5")[0] == 4

    @pytest.mark.parametrize(
        "flags, cause",
        [
            (["--epsilon", "0.5"], "the pseudo-pure baseline that --epsilon asks for"),
            (["--thermal-p", "1e-5"], "the pseudo-pure baseline that --thermal-p asks for"),
            (["--backend", "dense"], "--backend dense"),
            (["--backend", "both"], "--backend both"),
            (["--backend", "dense", "--epsilon", "0.5"],
             "--backend dense and the pseudo-pure baseline that --epsilon asks for"),
        ],
    )
    def test_capacity_error_names_what_asked_for_the_dense_limit(self, capsys, flags, cause):
        code, _, err = run_cli(capsys, "run", "--n", "20", "--oracle", "constant0", *flags)
        assert code == 4
        assert err == (
            f"capacity error: 21 spins exceed the dense backend capacity of 13 (used by {cause})\n"
        )

    def test_capacity_of_a_loaded_table(self, capsys, tmp_path):
        path = tmp_path / "wide.tt"
        path.write_text("01" * 4096 + "\n")  # n = 13
        code, _, err = run_cli(capsys, "run", "--oracle", str(path), "--backend", "dense")
        assert code == 4
        assert "dense" in err

    def test_large_table_file_is_parsed_in_bounded_memory(self, capsys, tmp_path):
        path = tmp_path / "huge.tt"
        path.write_text("01" * (1 << 21) + "\n")  # n = 22, 4 MiB of text
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "run", "--oracle", str(path), "--backend", "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert peak < 20 << 20

    @pytest.mark.parametrize(
        "backend, cap, limit",
        [
            ("diagonal", "30", "the diagonal backend's limit of 26"),
            ("both", "14", "the dense backend's limit of 13"),
        ],
    )
    def test_max_spins_above_the_limit_is_a_usage_error(self, capsys, backend, cap, limit):
        code, out, err = run_cli(
            capsys,
            "run", "--n", "3", "--oracle", "constant0", "--backend", backend,
            "--max-spins", cap,
        )
        assert code == 1
        assert out == ""
        assert err == f"usage error: argument --max-spins: must be at most {limit}, got '{cap}'\n"

    @pytest.mark.parametrize(
        "backend, cap, limit",
        [
            ("diagonal", "30", "the diagonal backend's limit of 26"),
            ("both", "14", "the dense backend's limit of 13"),
        ],
    )
    def test_max_spins_above_the_limit_is_refused_before_a_table_file_is_read(
        self, capsys, tmp_path, backend, cap, limit
    ):
        # The backend comes from the flags alone, so a file that is missing is never opened.
        missing = tmp_path / "missing.tt"
        code, out, err = run_cli(
            capsys, "run", "--oracle", str(missing), "--backend", backend, "--max-spins", cap
        )
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --max-spins: must be at most {limit}, got '{cap}'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # below the dense limit of 13 that the sweep's baseline counts against
            ("sweep", "--n", "1..2", "--seed", "1", "--max-spins", "4"),
            # a diagonal run: below its limit of 26
            ("run", "--n", "14", "--oracle", "constant0", "--max-spins", "15"),
        ],
    )
    def test_max_spins_that_lowers_the_limit_does_not_warn(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out
        assert err == ""

    @pytest.mark.parametrize(
        "argv, err",
        [
            # 3 inputs and the ancilla: 4 spins, over a diagonal limit lowered to 3
            (("run", "--n", "3", "--oracle", "constant0", "--max-spins", "3"),
             "capacity error: 4 spins exceed the diagonal backend capacity of 3\n"),
            (("sweep", "--n", "1..3", "--seed", "1", "--max-spins", "3"),
             "capacity error: 4 spins exceed the dense backend capacity of 3 "
             "(used by the sweep's pseudo-pure baseline)\n"),
        ],
    )
    def test_max_spins_that_lowers_the_limit_refuses_a_larger_register(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (4, "", err)

    def test_epsilon_and_thermal_p_conflict(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "run", "--n", "2", "--oracle", "constant0",
            "--epsilon", "0.5", "--thermal-p", "1e-5",
        )
        assert code == 1

    def test_arity_mismatch_with_file(self, capsys, tmp_path):
        path = tmp_path / "xor.tt"
        path.write_text("0110\n")
        code, _, _ = run_cli(capsys, "run", "--n", "3", "--oracle", str(path))
        assert code == 1
        # An empty path names no file, rather than the current directory.
        for argv in (("run", "--oracle", "file:"), ("run", "--oracle", ""),
                     ("oracle", "--oracle", "file:")):
            assert_usage_error(capsys, "--oracle", *argv)

    @pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, value):
        assert_usage_error(
            capsys, "--tolerance", "run", "--n", "2", "--oracle", "constant0",
            "--tolerance", value,
        )

    @pytest.mark.parametrize("value", ["2", "0", "-0.5", "nan"])
    def test_epsilon_must_lie_in_unit_interval(self, capsys, value):
        assert_usage_error(
            capsys, "--epsilon", "run", "--n", "2", "--oracle", "constant0",
            "--epsilon", value,
        )

    @pytest.mark.parametrize("value", ["1.5", "0", "nan"])
    def test_thermal_p_must_lie_in_unit_interval(self, capsys, value):
        assert_usage_error(
            capsys, "--thermal-p", "sweep", "--n", "1..2", "--seed", "1",
            "--thermal-p", value,
        )

    def test_seed_must_fit_in_u64(self, capsys):
        argv = ["run", "--n", "2", "--oracle", "balanced-random", "--seed"]
        assert run_cli(capsys, *argv, str(2**64 - 1))[0] == 0
        assert_usage_error(capsys, "--seed", *argv, str(2**64))
        assert_usage_error(capsys, "--seed", *argv, "-1")
        assert_usage_error(
            capsys, "--seed", "oracle", "--n", "2", "--oracle", "random", "--seed", "-1"
        )

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--oracle", "constant0", "--bogus")
        assert code == 1

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "2", "--oracle", "constant0", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["version"] == "v1"


class TestReportConfig:
    """The report's config block: its keys in order, with their values."""

    def test_run_given_every_flag(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "3", "--oracle", "balanced-random", "--seed", "5",
            "--backend", "both", "--detection", "separate", "--epsilon", "0.5",
            "--tolerance", "1e-3", "--format", "json", "--out", str(target),
            "--max-spins", "12",
        )
        assert code == 0 and out == ""
        assert list(json.loads(target.read_text())["config"].items()) == [
            ("n", 3),
            ("oracle", "balanced-random"),
            ("seed", 5),
            ("backend", "both"),
            ("detection", "separate"),
            ("epsilon", 0.5),
            ("thermal_p", None),
            ("tolerance", 1e-3),
            ("max_spins", 12),
        ]

    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "2..4", "--seed", "7", "--trials", "3",
            "--detection", "separate", "--thermal-p", "1e-3",
        )
        assert code == 0
        assert list(json.loads(out)["config"].items()) == [
            ("n", 2),
            ("oracle", None),
            ("seed", 7),
            ("backend", "diagonal"),
            ("detection", "separate"),
            ("epsilon", None),
            ("thermal_p", 1e-3),
            ("tolerance", 1e-6),
            ("max_spins", None),
            ("n_max", 4),
            ("trials", 3),
        ]


class TestDeterminism:
    def test_identical_config_gives_identical_json(self, capsys):
        argv = ("run", "--n", "4", "--oracle", "balanced-random", "--seed", "99")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        a = json.dumps(strip_wall_times(json.loads(first)), sort_keys=True)
        b = json.dumps(strip_wall_times(json.loads(second)), sort_keys=True)
        assert a == b

    def test_sweep_is_deterministic(self, capsys):
        argv = ("sweep", "--n", "1..4", "--seed", "5", "--trials", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        a = json.dumps(strip_wall_times(json.loads(first)), sort_keys=True)
        b = json.dumps(strip_wall_times(json.loads(second)), sort_keys=True)
        assert a == b

    def test_the_parser_keeps_no_state_between_calls(self, capsys):
        # Each command with every optional flag, then with none, on the one parser a process
        # builds; a usage error in the middle, raised after some flags were read. Each
        # namespace equals the one a newly built parser returns.
        common = ["--detection", "separate", "--format", "csv", "--out", "r.csv", "--max-spins", "9"]
        run_all = ["run", "--n", "3", "--oracle", "random", "--seed", "4", "--backend", "both",
                   "--tolerance", "1e-3", "--epsilon", "0.5", *common]
        sweep_all = ["sweep", "--n", "2..4", "--seed", "7", "--trials", "3",
                     "--thermal-p", "1e-3", *common]
        conflict = ["run", "--n", "3", "--oracle", "constant1", "--epsilon", "0.5", "--thermal-p", "0.1"]
        sequence = [
            run_all,
            ["run", "--oracle", "constant0"],
            sweep_all,
            ["sweep", "--n", "5", "--seed", "1"],
            conflict,
            ["oracle", "--oracle", "balanced-random", "--n", "2", "--seed", "5"],
            ["oracle", "--oracle", "constant0"],
            run_all,
            ["run", "--oracle", "constant0"],
            ["sweep", "--n", "5", "--seed", "1"],
        ]
        for argv in sequence:
            if argv is conflict:
                assert run_cli(capsys, *argv)[0] == cli.EXIT_USAGE
                continue
            shared = cli.parse_args(argv)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_PARSER", cli.build_parser())
                assert vars(shared) == vars(cli.parse_args(argv)), argv


class TestCsvOutput:
    def test_run_csv_matches_json_records(self, capsys):
        base = ("run", "--n", "3", "--oracle", "balanced-random", "--seed", "1",
                "--backend", "both", "--epsilon", "0.5")
        _, json_out, _ = run_cli(capsys, *base)
        _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
        records = json.loads(json_out)["records"]
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row["protocol"] == record["protocol"]
            assert int(row["n"]) == record["n"]
            assert row["class"] == record["class"]
            assert float(row["signal"]) == record["signal"]
            assert row["verdict"] == record["verdict"]
            assert int(row["evaluations"]) == record["evaluations"]
            assert row["backend"] == record["backend"]

    def test_sweep_csv_matches_json_aggregates(self, capsys):
        base = ("sweep", "--n", "1..3", "--seed", "2", "--trials", "4")
        _, json_out, _ = run_cli(capsys, *base)
        _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
        aggregates = json.loads(json_out)["aggregates"]
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == len(aggregates)
        for row, agg in zip(rows, aggregates):
            assert int(row["n"]) == agg["n"]
            assert float(row["liouville_signal"]) == agg["liouville_signal"]
            assert float(row["pseudo_pure_signal"]) == agg["pseudo_pure_signal"]
            assert float(row["ratio"]) == agg["ratio"]
            assert int(row["classical_worst_evaluations"]) == agg["classical_worst_evaluations"]


class TestSweepCommand:
    def test_scaling_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "1..6", "--seed", "11", "--trials", "5"
        )
        assert code == 0
        aggregates = json.loads(out)["aggregates"]
        assert [a["n"] for a in aggregates] == [1, 2, 3, 4, 5, 6]
        assert all(a["liouville_signal"] == 1.0 for a in aggregates)
        assert [a["classical_worst_evaluations"] for a in aggregates] == [2, 3, 5, 9, 17, 33]
        assert all(a["mean_abs_balanced_signal"] < 1e-12 for a in aggregates)

    def test_pseudo_pure_column_strictly_decreasing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "2..6", "--seed", "3", "--trials", "2",
            "--thermal-p", "1e-5",
        )
        assert code == 0
        column = [a["pseudo_pure_signal"] for a in json.loads(out)["aggregates"]]
        assert all(later < earlier for earlier, later in zip(column, column[1:]))

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "1..3")
        assert code == 1
        assert "--seed" in err

    def test_bad_range_spec(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--n", "6..2", "--seed", "1")
        assert code == 1
        code, _, _ = run_cli(capsys, "sweep", "--n", "abc", "--seed", "1")
        assert code == 1

    def test_capacity_maps_to_exit_code(self, capsys):
        # n=14 makes the pseudo-pure column need 15 spins dense: over the limit
        code, _, _ = run_cli(capsys, "sweep", "--n", "14..16", "--seed", "1", "--trials", "1")
        assert code == 4

    def test_capacity_error_names_the_sweep_baseline(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "1..13", "--seed", "1")
        assert code == 4
        assert err == (
            "capacity error: 14 spins exceed the dense backend capacity of 13 "
            "(used by the sweep's pseudo-pure baseline)\n"
        )

    def test_negative_trials_rejected(self, capsys):
        argv = ["sweep", "--n", "1..2", "--seed", "1", "--trials"]
        assert run_cli(capsys, *argv, "0")[0] == 0
        assert_usage_error(capsys, "--trials", *argv, "-1")

    @pytest.mark.parametrize("value", [str(cli.MAX_TRIALS + 1), str(2**64)])
    def test_trials_over_the_bound_rejected(self, capsys, value):
        # 2^64 trials would run for ever; the bound keeps a row's seed array at 8 MB.
        code, out, err = run_cli(capsys, "sweep", "--n", "1..1", "--seed", "1", "--trials", value)
        assert (code, out) == (1, "")
        assert err == (
            f"usage error: argument --trials: must be an integer in 0..{cli.MAX_TRIALS}, "
            f"got '{value}'\n"
        )

    @pytest.mark.parametrize(
        "flag, value", [("--backend", "diagonal"), ("--backend", "dense"), ("--tolerance", "1e-6")]
    )
    def test_run_only_flags_are_usage_errors(self, capsys, flag, value):
        # The sweep always runs the diagonal path at the default sigma and prints no verdict.
        code, out, err = run_cli(capsys, "sweep", "--n", "1..2", "--seed", "1", flag, value)
        assert (code, out) == (1, "")
        assert err == f"usage error: unrecognized arguments: {flag} {value}\n"

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_each_trial_draws_its_seed_from_the_sweep_generator(
        self, capsys, monkeypatch, seed
    ):
        # Trial k of row n gets the next int(rng.integers(0, 2**63)) of
        # default_rng(--seed), in row order; a row of 0 trials draws nothing.
        drawn = []
        original = cli.random_balanced

        def recording(n, table_seed):
            drawn.append((n, table_seed))
            return original(n, table_seed)

        monkeypatch.setattr(cli, "random_balanced", recording)
        argv = ["sweep", "--n", "1..4", "--seed", str(seed), "--trials"]
        assert run_cli(capsys, *argv, "0")[0] == 0
        assert drawn == []
        assert run_cli(capsys, *argv, "5")[0] == 0
        rng = np.random.default_rng(seed)
        assert drawn == [(n, int(rng.integers(0, 2**63))) for n in range(1, 5) for _ in range(5)]

    def test_capacity_is_checked_before_any_row(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "sweep", "--n", "1..30", "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert peak < 1 << 20


class TestOracleCommand:
    def test_classifies_and_prints_permutation(self, capsys, tmp_path):
        path = tmp_path / "xor.tt"
        path.write_text("0110\n")
        code, out, _ = run_cli(capsys, "oracle", "--oracle", str(path))
        assert code == 0
        assert "n=2, balanced, ones=2" in out
        assert "|000> -> |000>" in out

    def test_constant0_shows_identity_permutation(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--oracle", "constant0", "--n", "1")
        assert code == 0
        assert "constant0" in out
        assert "|00> -> |00>" in out
        assert "|10> -> |10>" in out

    def test_neither_warns_about_promise(self, capsys, tmp_path):
        path = tmp_path / "odd.tt"
        path.write_text("0001\n")
        code, out, _ = run_cli(capsys, "oracle", "--oracle", str(path))
        assert code == 0
        assert "neither" in out
        assert "promise" in out

    def test_capacity_is_checked_before_the_table_is_built(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "oracle", "--n", "40", "--oracle", "constant0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        # the listed oracle acts on the 40 inputs and the ancilla
        assert err.startswith("capacity error: 41 spins") and err.count("\n") == 1
        assert peak < 1 << 20

    def test_capacity_boundary_is_the_diagonal_limit(self, capsys):
        # 25 inputs + ancilla = 26 spins, the diagonal limit; one more is refused.
        code, out, _ = run_cli(capsys, "oracle", "--n", "25", "--oracle", "constant0")
        assert code == 0
        assert out.startswith("n=25, constant0, ones=0\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "oracle", "--n", "26", "--oracle", "constant0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert err == "capacity error: 27 spins exceed the diagonal backend capacity of 26\n"
        assert peak < 1 << 20

    def test_table_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe01\n")
        code, out, err = run_cli(capsys, "oracle", "--oracle", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("truth table error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_n_must_be_positive(self, capsys, value):
        assert_usage_error(capsys, "--n", "oracle", "--n", value, "--oracle", "constant0")

    def test_listing_is_unchanged(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--n", "3", "--oracle", "balanced-random", "--seed", "5"
        )
        assert code == 0
        assert out == ORACLE_LISTING

    def test_large_tables_skip_the_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--oracle", "balanced-random", "--n", "5", "--seed", "4"
        )
        assert code == 0
        assert "skipped" in out


class TestFlagRules:
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--n", "3", "--oracle", "constant0", "--max-spins", "0"),
            ("sweep", "--n", "1..3", "--seed", "1", "--max-spins", "-1"),
        ],
    )
    def test_max_spins_below_one_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: argument --max-spins: ")
        assert err.count("\n") == 1 and "limit raised" not in err

    def test_usage_error_is_reported_before_capacity(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys,
                "run", "--n", "30", "--oracle", "constant0",
                "--epsilon", "0.5", "--thermal-p", "1e-5",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--epsilon" in err and "--thermal-p" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "flag, value", [("--tolerance", "-1e-6"), ("--tolerance", "-.5"),
                        ("--epsilon", "-1e-3"), ("--thermal-p", "-2e-5")],
    )
    def test_negative_exponent_form_gets_the_flags_rule(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "run", "--n", "2", "--oracle", "constant0", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: argument {flag}: must be ")
        assert err.endswith(f", got '{value}'\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--thermal-p", ("sweep", "--n", "1..3", "--seed", "1", "--thermal-p", "5e-324")),
            ("--thermal-p", ("run", "--n", "3", "--oracle", "constant0", "--thermal-p", "5e-324")),
            ("--epsilon", ("sweep", "--n", "1..2", "--seed", "1", "--epsilon", "1e-320")),
            # ahead of the capacity error n = 40 would give
            ("--epsilon", ("run", "--n", "40", "--oracle", "constant0", "--epsilon", "1e-320")),
            # 2^2001 has no float: epsilon(N) underflows to 0
            ("--thermal-p", ("run", "--n", "2000", "--oracle", "constant0", "--thermal-p", "1e-5")),
            # nor has N itself, so N*p cannot be formed as a float
            ("--thermal-p", ("sweep", "--n", f"1..{10**400}", "--seed", "1")),
            ("--thermal-p",
             ("run", "--n", str(10**400), "--oracle", "constant0", "--thermal-p", "0.5")),
        ],
    )
    def test_epsilon_below_the_smallest_normal_float_is_a_usage_error(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: argument {flag}: epsilon = ")
        assert "smallest normal float" in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_smallest_normal_epsilon_keeps_the_ratio_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "1..2", "--seed", "1", "--epsilon", repr(sys.float_info.min)
        )
        assert code == 0
        ratios = [row["ratio"] for row in strict_json(out)["aggregates"]]
        assert all(math.isfinite(r) and r > 1e307 for r in ratios)


class TestCapacityBeforeWork:
    def test_memory_exhaustion_is_a_capacity_error(self, capsys, monkeypatch):
        def exhausted(n, value):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli.TruthTable, "constant", staticmethod(exhausted))
        code, out, err = run_cli(capsys, "run", "--n", "3", "--oracle", "constant0")
        assert code == 4
        assert out == ""
        assert err == "capacity error: memory ran out (Unable to allocate 1.00 TiB)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--n", "63", "--oracle", "constant0", "--max-spins", "100"),
            ("run", "--n", "30", "--backend", "dense", "--oracle", "constant0", "--max-spins", "40"),
            ("sweep", "--n", "1..40", "--seed", "1", "--max-spins", "50"),
        ],
    )
    def test_max_spins_above_the_limit_is_refused_before_any_table_is_built(self, capsys, argv):
        # Each --max-spins is above the limit of the backend its command counts
        # against, so the flag is refused before the register's 2^n table exists.
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: argument --max-spins: must be at most ")
        assert err.count("\n") == 1
        assert peak < 1 << 20

    @pytest.mark.parametrize("first", ["0", "x"])
    def test_table_file_capacity_comes_from_its_line_length(self, capsys, tmp_path, first):
        # n = 22: the check needs only the text and its data line, even
        # when the line would not parse.
        path = tmp_path / "huge.tt"
        path.write_text(first + "1" * ((1 << 22) - 1) + "\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "run", "--oracle", str(path), "--backend", "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert err.startswith("capacity error: 23 spins") and err.count("\n") == 1
        assert peak < 10 << 20

    @pytest.mark.parametrize("first", ["0", "x"])
    def test_table_file_arity_mismatch_comes_from_its_line_length(self, capsys, tmp_path, first):
        # A mismatched --n is a usage error, reported before the line is
        # parsed and so before its characters are checked.
        path = tmp_path / "huge.tt"
        path.write_text(first + "1" * ((1 << 22) - 1) + "\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "run", "--oracle", str(path), "--n", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == f"usage error: --n 3 does not match table arity 22 from {path}\n"
        assert peak < 10 << 20


# -- every argv ends in a documented exit code --------------------------------

ERROR_PREFIXES = {
    1: "usage error: ",
    2: "file error: ",
    3: "truth table error: ",
    4: "capacity error: ",
}
# The CSV columns are the JSON row keys without wall_ms, written out here.
RUN_CSV_HEADER = ["protocol", "n", "class", "signal", "verdict", "evaluations", "backend"]
SWEEP_CSV_HEADER = [
    "n", "liouville_signal", "mean_abs_balanced_signal", "pseudo_pure_signal", "ratio",
    "classical_worst_evaluations",
]

TABLE_FILES = {
    "good.tt": b"# xor\n0110\n",
    "neither.tt": b"0001\n",
    "bad-character.tt": b"01x0\n",
    "not-utf8.tt": b"\xff\xfe01\n",
    "length-three.tt": b"011\n",
    "two-lines.tt": b"01\n10\n",
    "wide.tt": b"01" * (1 << 12) + b"\n",  # n = 13: over the dense capacity
}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    for name, data in TABLE_FILES.items():
        (root / name).write_bytes(data)
    return root


def _values(valid, invalid):
    return st.one_of(valid, st.sampled_from(invalid))


BAD_NUMBERS = ["0", "-1", "-1e-6", "nan", "inf", str(2**64), "abc", "6..2"]
# Past (0, 1], or in it but giving an epsilon below the smallest normal float.
BAD_PREFACTORS = BAD_NUMBERS + ["2", "5e-324", "1e-320"]
SMALL_N = st.integers(1, 6).map(str)
OVER_CAPACITY_N = st.sampled_from(["30", "40", str(10**400)])
# What each flag's own rule refuses, at parse time (REFUSED) or once the
# command knows its register and backend (REFUSED_LATER: an epsilon(N) below
# the smallest normal float, a --max-spins above every backend's limit).
# A complete, valid argv with one value swapped for one of these must exit
# 1 naming that flag.
NOT_NUMBERS = ["-1", "-1e-6", "nan", "inf", "abc", "6..2"]
REFUSED = {
    "--n": NOT_NUMBERS + ["0"],
    "--seed": NOT_NUMBERS + [str(2**64)],
    "--epsilon": NOT_NUMBERS + ["0", "2"],
    "--thermal-p": NOT_NUMBERS + ["0", "2"],
    "--tolerance": NOT_NUMBERS + ["0"],
    "--detection": ["both"],
    "--format": ["xml"],
    "--max-spins": NOT_NUMBERS + ["0"],
    "--trials": NOT_NUMBERS + [str(cli.MAX_TRIALS + 1)],
    "--backend": ["gpu"],
}
REFUSED_LATER = {
    "--epsilon": ["5e-324", "1e-320"],
    "--thermal-p": ["5e-324", "1e-320"],
    "--max-spins": ["27", str(2**64)],
}
# Valid --max-spins values stay at or below 9 spins, so no example that
# passes the capacity check holds more than a 512 x 512 dense state.
FLAG_VALUES = {
    "--seed": _values(st.integers(0, 2**64 - 1).map(str), ["-1", str(2**64), "nan", "abc"]),
    "--epsilon": _values(st.sampled_from(["0.25", "1", "1e-5"]), BAD_PREFACTORS),
    "--thermal-p": _values(st.sampled_from(["0.25", "1", "1e-5"]), BAD_PREFACTORS),
    "--tolerance": _values(st.sampled_from(["1e-6", "0.1"]), BAD_NUMBERS),
    "--detection": st.sampled_from(["ancilla", "separate", "both"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--max-spins": _values(
        st.integers(1, 9).map(str), REFUSED["--max-spins"] + REFUSED_LATER["--max-spins"]
    ),
    # Not BAD_NUMBERS: 0 trials is valid.
    "--trials": _values(st.integers(0, 3).map(str), REFUSED["--trials"]),
}
VALID_VALUES = {
    "--seed": st.integers(0, 2**64 - 1).map(str),
    "--epsilon": st.sampled_from(["0.25", "1", "1e-5"]),
    "--thermal-p": st.sampled_from(["0.25", "1", "1e-5"]),
    "--tolerance": st.sampled_from(["1e-6", "0.1"]),
    "--detection": st.sampled_from(["ancilla", "separate"]),
    "--format": st.sampled_from(["json", "csv"]),
    "--max-spins": st.integers(8, 9).map(str),  # 6 inputs, the ancilla and a detection spin
    "--trials": st.integers(0, 3).map(str),
}
OPTIONAL_FLAGS = {
    "run": ["--seed", "--backend", "--detection", "--epsilon", "--thermal-p",
            "--tolerance", "--format", "--out", "--max-spins"],
    "sweep": ["--trials", "--detection", "--epsilon", "--thermal-p",
              "--format", "--out", "--max-spins"],
    "oracle": ["--n", "--seed"],
}


@st.composite
def cli_argv(draw, table_dir):
    command = draw(st.sampled_from(["run", "sweep", "oracle"]))
    sources = ["constant0", "constant1", "balanced-random", "random", "missing.tt"]
    sources += [str(table_dir / name) for name in TABLE_FILES]
    sources += ["file:" + str(table_dir / "good.tt")]
    values = dict(FLAG_VALUES)
    values["--oracle"] = st.sampled_from(sources)
    values["--n"] = _values(st.one_of(SMALL_N, OVER_CAPACITY_N), BAD_NUMBERS)
    values["--backend"] = st.sampled_from(["dense", "diagonal", "both", "gpu"])
    values["--out"] = st.sampled_from(
        [str(table_dir / "report.out"), str(table_dir / "no-such-dir" / "report.out")]
    )
    if command == "sweep":
        ranges = st.lists(st.integers(1, 6), min_size=2, max_size=2).map(
            lambda r: "{}..{}".format(*sorted(r))
        )
        values["--n"] = _values(
            st.one_of(ranges, SMALL_N),
            BAD_NUMBERS + ["1..30", "14..16", f"1..{10**400}", "1..", "..3", "0..3"],
        )
        required = ["--n", "--seed"]
    else:
        required = ["--oracle"] + (["--n"] if command == "run" else [])

    groups = [
        [flag, draw(values[flag])]
        for flag in required
        if draw(st.integers(0, 9))  # now and then a required flag is left out
    ]
    for flag in draw(st.lists(st.sampled_from(OPTIONAL_FLAGS[command]), unique=True)):
        groups.append([flag, draw(values[flag])])
    if draw(st.integers(0, 9)) == 0:
        groups.append(["--bogus"])
    groups = draw(st.permutations(groups))
    argv = [command] + [token for group in groups for token in group]
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(sorted(values))))  # a flag without its value
    return argv


@st.composite
def one_bad_value_argv(draw, table_dir, swap=True):
    """A complete, valid argv with exactly one value swapped for one its flag
    refuses, and that flag; without ``swap``, the valid argv and ``None``."""
    command = draw(st.sampled_from(["run", "sweep", "oracle"]))
    refused = dict(REFUSED)
    values = dict(VALID_VALUES)
    values["--out"] = st.just(str(table_dir / "report.out"))
    values["--backend"] = st.sampled_from(["dense", "diagonal", "both"])
    if command == "sweep":
        lo, hi = sorted(draw(st.lists(st.integers(1, 6), min_size=2, max_size=2)))
        flags = {"--n": f"{lo}..{hi}", "--seed": draw(values["--seed"])}
        refused["--n"] = refused["--n"] + ["1..", "..3", "0..3"]
    else:
        source = draw(
            st.sampled_from(["constant0", "constant1", "balanced-random", "random", "good.tt"])
        )
        if source == "good.tt":
            flags = {"--oracle": str(table_dir / source), "--n": "2"}
        else:
            flags = {"--oracle": source, "--n": draw(SMALL_N)}
        if source.endswith("random") or draw(st.booleans()):
            flags["--seed"] = draw(values["--seed"])
    # The bad flag is drawn first, so each flag is as likely to carry it, and
    # half the run and sweep examples get a value refused only after parsing.
    bad = None
    if swap:
        if command != "oracle" and draw(st.booleans()):
            refused = REFUSED_LATER
        candidates = dict.fromkeys(["--n", "--seed", *OPTIONAL_FLAGS[command]])
        bad = draw(st.sampled_from([flag for flag in candidates if flag in refused]))
        flags[bad] = draw(st.sampled_from(refused[bad]))
    optional = [flag for flag in OPTIONAL_FLAGS[command] if flag not in flags]
    chosen = draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    pseudo_pure = {"--epsilon", "--thermal-p"}
    for flag in chosen:
        if flag in pseudo_pure and pseudo_pure & flags.keys():
            continue  # the two flags exclude each other
        flags[flag] = draw(values[flag])
    groups = draw(st.permutations(list(flags.items())))
    return [command] + [token for group in groups for token in group], bad


def test_every_argv_ends_in_a_documented_exit(table_dir):
    # Each draw comes with the exit it must reach: any documented one for a
    # free-form argv, 1 for one bad value, 0 for a complete, valid argv.
    @settings(deadline=None, max_examples=300)
    @given(
        drawn=st.one_of(
            cli_argv(table_dir).map(lambda argv: (argv, None, None)),
            one_bad_value_argv(table_dir).map(lambda drawn: (*drawn, 1)),
            one_bad_value_argv(table_dir, swap=False).map(lambda drawn: (*drawn, 0)),
        )
    )
    def check(drawn):
        argv, bad_flag, expected = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        if expected is not None:
            assert code == expected
        if code != 0:
            assert code in ERROR_PREFIXES
            assert out.getvalue() == ""
            assert len(lines) == 1
            message = lines[0]
            assert message.startswith(ERROR_PREFIXES[code])
            assert len(message) > len(ERROR_PREFIXES[code])
            if code == 1:
                assert re.search(r"--[a-z]", message)
            if bad_flag is not None:
                assert f"argument {bad_flag}:" in message
            return
        assert lines == []
        if "--out" in argv:
            report = (table_dir / "report.out").read_text()
        else:
            report = out.getvalue()
        if argv[0] == "oracle":
            assert report.startswith("n=")
        elif "csv" in argv:
            header = next(csv.reader(io.StringIO(report)))
            assert header == (RUN_CSV_HEADER if argv[0] == "run" else SWEEP_CSV_HEADER)
        else:
            assert strict_json(report)["version"] == "v1"

    check()
