"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import SPAN_NAMES, Tracer, self_times
from workloads import WORKLOADS, Run, Sweep, check, make_pass, thermal_epsilon

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_metric_named_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = run_bench("sweep-trials", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs_and_fixed_class_mix():
    a = make_pass("liouville-large", random.Random(3))
    assert a == make_pass("liouville-large", random.Random(3))
    assert a != make_pass("liouville-large", random.Random(4))
    assert [inv.oracle for inv in a] == ["constant0", "constant1", "balanced-random"] * 2


# -- the gate -----------------------------------------------------------------


def run_report(inv, signals, verdicts, cross_check=0.0):
    records = [
        {"protocol": protocol, "n": inv.n, "class": inv.table_class, "signal": signal,
         "verdict": verdict, "evaluations": 1, "backend": "x", "wall_ms": 1.0}
        for protocol, signal, verdict in zip(inv.protocols, signals, verdicts)
    ]
    return {"version": "v1", "command": "run", "records": records, "cross_check": cross_check}


DENSE = Run(9, backend="both", thermal_p=1e-5, oracle="constant1")
EPS = thermal_epsilon(10, 1e-5)


def gate(inv, report, code=0):
    return check(inv, code, json.dumps(report))


def test_gate_accepts_a_right_report():
    report = run_report(DENSE, [-1.0, -1.0, EPS], ["constant1", "constant1", "constant0"])
    assert gate(DENSE, report) == ([], [])


@pytest.mark.parametrize(
    "signals, verdicts, cross_check",
    [
        ([-1.0, -0.999, EPS], ["constant1"] * 2 + ["constant0"], 0.0),  # Liouville signal off
        ([-1.0, -1.0, 2 * EPS], ["constant1"] * 2 + ["constant0"], 0.0),  # off epsilon(N)
        ([-1.0, -1.0, EPS], ["constant1"] * 2 + ["constant0"], 1e-9),  # backends disagree
        ([-1.0, float("nan"), EPS], ["constant1"] * 2 + ["constant0"], 0.0),
    ],
)
def test_gate_flags_wrong_numbers(signals, verdicts, cross_check):
    errors, _ = gate(DENSE, run_report(DENSE, signals, verdicts, cross_check))
    assert errors


def test_gate_flags_evaluations_exit_codes_and_garbage():
    report = run_report(DENSE, [-1.0, -1.0, EPS], ["constant1", "constant1", "constant0"])
    report["records"][0]["evaluations"] = 2
    assert gate(DENSE, report)[0]
    assert check(DENSE, 1, "")[0]
    assert check(DENSE, 0, "{not json")[0]
    assert check(DENSE, 0, json.dumps({"records": []}))[0]


def test_gate_counts_verdict_contradictions_separately():
    errors, contradictions = gate(
        DENSE, run_report(DENSE, [-1.0, -1.0, EPS], ["constant1", "constant1", "balanced"])
    )
    assert errors == [] and len(contradictions) == 1
    liouville = Run(4, oracle="balanced-random", seed=1)
    assert gate(liouville, run_report(liouville, [0.0], ["constant0"]))[1]
    undecided = run_report(DENSE, [-1.0, -1.0, EPS], ["constant1", "constant1", "undecided"])
    assert gate(DENSE, undecided) == ([], [])


def sweep_report(n_max, **override):
    rows = [
        {"n": n, "liouville_signal": 1.0, "mean_abs_balanced_signal": 0.0,
         "pseudo_pure_signal": thermal_epsilon(n + 1, 1e-5), "ratio": 1.0,
         "classical_worst_evaluations": 2 ** (n - 1) + 1, "wall_ms": 1.0}
        for n in range(1, n_max + 1)
    ]
    rows[-1].update(override)
    return {"version": "v1", "command": "sweep", "aggregates": rows}


def test_gate_on_sweep_rows():
    inv = Sweep(4, 10, seed=1)
    assert gate(inv, sweep_report(4)) == ([], [])
    assert gate(inv, sweep_report(4, classical_worst_evaluations=8))[0]
    assert gate(inv, sweep_report(4, mean_abs_balanced_signal=1e-3))[0]
    assert gate(inv, sweep_report(4, pseudo_pure_signal=0.0))[0]
    assert gate(inv, sweep_report(3))[0]


# -- tracing ------------------------------------------------------------------


def test_self_time_on_synthetic_nested_spans():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- b [5, 9]
    names = ["a", "b", "c"]
    name_id = [0, 1, 2, 1]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(names, name_id, start, end, parent) == {
        "a": (3.0, 1),
        "b": (6.0, 2),
        "c": (1.0, 1),
    }


def test_tracer_wraps_every_lookup_site_and_restores_them(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import spindj
    from spindj import cli, core, oracle, protocol

    originals = (core.conjugate, protocol.conjugate, oracle.conjugate, core.BasisPermutation.__init__)
    tracer = Tracer()
    tracer.install(spindj)
    try:
        assert protocol.conjugate is oracle.conjugate is core.conjugate is not originals[0]
        assert protocol.embed is core.embed and cli.run_liouville_dj is protocol.run_liouville_dj
        assert cli.main(["run", "--n", "3", "--oracle", "constant0", "--backend", "both",
                         "--epsilon", "0.5", "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    assert (core.conjugate, protocol.conjugate, oracle.conjugate,
            core.BasisPermutation.__init__) == originals
    calls = {name: c for name, (_, c) in self_times(
        tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent).items()}
    assert calls["oracle.oracle_channel"] == 3 == (
        calls["protocol.run_liouville_dj"] + calls["protocol.run_pseudo_pure_dj"]
    )
    assert set(calls) <= set(SPAN_NAMES)
    # dense Liouville: the oracle; pseudo-pure: three basis changes and the oracle
    assert calls["core.conjugate.dense"] == 5 and calls["core.conjugate.diagonal"] == 1
    assert tracer.counters["core.state_bytes.max"] == 16 * 16 * 16  # 4 spins, complex128
    assert tracer.counters["core.conjugate.dense.flops"] == 3 * 16 * 16**3
