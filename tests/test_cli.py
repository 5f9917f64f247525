import csv
import io
import json
import tracemalloc

import pytest

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

    def test_capacity_of_a_loaded_table(self, capsys, tmp_path):
        path = tmp_path / "wide.tt"
        path.write_text("01" * 4096 + "\n")  # n = 13
        code, _, err = run_cli(capsys, "run", "--oracle", str(path), "--backend", "dense")
        assert code == 4
        assert "dense" in err

    def test_max_spins_override_warns(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run", "--n", "14", "--oracle", "constant0", "--max-spins", "15",
        )
        assert code == 0
        assert "may exhaust memory" in err
        assert json.loads(out)["records"][0]["signal"] == 1.0

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


class TestCsvOutput:
    def test_run_csv_matches_json_records(self, capsys):
        base = ("run", "--n", "3", "--oracle", "balanced-random", "--seed", "1",
                "--backend", "both")
        _, json_out, _ = run_cli(capsys, *base)
        _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
        records = json.loads(json_out)["records"]
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
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

    def test_negative_trials_rejected(self, capsys):
        argv = ["sweep", "--n", "1..2", "--seed", "1", "--trials"]
        assert run_cli(capsys, *argv, "0")[0] == 0
        assert_usage_error(capsys, "--trials", *argv, "-1")

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
