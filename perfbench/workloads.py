"""Workloads and the correctness gate.

A workload is a fixed list of ``spindj`` CLI invocations, called a pass.
Every pass has the same shapes and the same mix of oracle classes, so its
cost does not depend on the seed; only the seeds of the random balanced
tables (and of the sweep) are drawn from the workload seed.

The gate checks one invocation's exit code and report against values
computed here from the invocation alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

TOL = 1e-12
SWEEP_THERMAL_P = 1e-5  # the CLI's default for the sweep's pseudo-pure column

WORKLOADS = ("liouville-large", "dense-circuits", "sweep-trials")
ORACLES = ("constant0", "constant1", "balanced-random")


@dataclass(frozen=True)
class Run:
    """One ``spindj run`` invocation."""

    n: int
    backend: str = "diagonal"
    detection: str = "ancilla"
    thermal_p: float | None = None
    oracle: str = "constant0"
    seed: int | None = None

    def argv(self) -> list[str]:
        argv = ["run", "--n", str(self.n), "--oracle", self.oracle,
                "--backend", self.backend, "--detection", self.detection]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.thermal_p is not None:
            argv += ["--thermal-p", repr(self.thermal_p)]
        return argv

    @property
    def protocols(self) -> list[str]:
        liouville = ["liouville"] * (2 if self.backend == "both" else 1)
        return liouville + (["pseudo_pure"] if self.thermal_p is not None else [])

    @property
    def n_spins(self) -> int:
        return self.n + 1 + (self.detection == "separate")

    @property
    def table_class(self) -> str:
        return "balanced" if self.oracle == "balanced-random" else self.oracle


@dataclass(frozen=True)
class Sweep:
    """One ``spindj sweep`` invocation over n = 1..n_max."""

    n_max: int
    trials: int
    seed: int = 0

    def argv(self) -> list[str]:
        return ["sweep", "--n", f"1..{self.n_max}", "--trials", str(self.trials),
                "--seed", str(self.seed)]

    @property
    def protocols(self) -> list[str]:
        # Per n: the constant run, one run per balanced trial, the pseudo-pure run.
        return (["liouville"] * (1 + self.trials) + ["pseudo_pure"]) * self.n_max


# Shapes per workload at full size and at the tiny size the smoke tests use.
_SHAPES = {
    "liouville-large": (
        (Run(24), Run(6)),
        (Run(22, detection="separate"), Run(5, detection="separate")),
    ),
    "dense-circuits": (
        (Run(9, backend="both", thermal_p=1e-5), Run(3, backend="both", thermal_p=1e-5)),
        (Run(10, backend="both", detection="separate"),
         Run(4, backend="both", detection="separate")),
    ),
    "sweep-trials": ((Sweep(8, 3000), Sweep(3, 5)),),
}


def shapes(workload: str, tiny: bool = False) -> list[Run | Sweep]:
    """One invocation per shape of the workload (constant0 tables, sweep seed 0)."""
    return [small if tiny else full for full, small in _SHAPES[workload]]


def make_pass(workload: str, rng: random.Random, tiny: bool = False) -> list[Run | Sweep]:
    """The invocations of one pass, with seeds drawn from ``rng``."""
    invocations: list[Run | Sweep] = []
    for shape in shapes(workload, tiny):
        if isinstance(shape, Sweep):
            invocations.append(replace(shape, seed=rng.getrandbits(63)))
            continue
        for oracle in ORACLES:
            seed = rng.getrandbits(63) if oracle == "balanced-random" else None
            invocations.append(replace(shape, oracle=oracle, seed=seed))
    return invocations


def thermal_epsilon(n_spins: int, p: float) -> float:
    """Closed form epsilon(N) = N*p / 2^N of the pseudo-pure prefactor."""
    return n_spins * p / 2**n_spins


def _off(value, target: float) -> bool:
    return not abs(value - target) <= TOL  # also true for NaN


def _contradicts(table_class: str, verdict: str, protocol: str) -> bool:
    if verdict == "undecided":
        return False
    if table_class == "balanced":
        return verdict != "balanced"
    if protocol == "pseudo_pure":  # the circuit cannot tell constant0 from constant1
        return verdict not in ("constant0", "constant1")
    return verdict != table_class


def _check_run(inv: Run, report: dict) -> tuple[list[str], list[str]]:
    errors, contradictions = [], []
    records = report["records"]
    if [r["protocol"] for r in records] != inv.protocols:
        return [f"records {[r['protocol'] for r in records]} != {inv.protocols}"], []
    liouville_target = {"constant0": 1.0, "constant1": -1.0, "balanced": 0.0}
    for r in records:
        where = f"{r['protocol']}/{r['backend']}"
        if r["class"] != inv.table_class:
            errors.append(f"{where}: class {r['class']} != {inv.table_class}")
        if r["evaluations"] != 1:
            errors.append(f"{where}: evaluations {r['evaluations']} != 1")
        if r["protocol"] == "liouville":
            target = liouville_target[inv.table_class]
        elif inv.table_class == "balanced":
            target = 0.0
        else:
            target = thermal_epsilon(inv.n_spins, inv.thermal_p)
        if _off(r["signal"], target):
            errors.append(f"{where}: signal {r['signal']!r} != {target!r}")
        if _contradicts(inv.table_class, r["verdict"], r["protocol"]):
            contradictions.append(f"{where}: verdict {r['verdict']} for a {inv.table_class} table")
    if inv.backend == "both" and not report["cross_check"] <= TOL:
        errors.append(f"cross_check {report['cross_check']!r} > {TOL}")
    return errors, contradictions


def _check_sweep(inv: Sweep, report: dict) -> list[str]:
    rows = report["aggregates"]
    if [row["n"] for row in rows] != list(range(1, inv.n_max + 1)):
        return [f"sweep rows for n={[row['n'] for row in rows]}"]
    errors = []
    for row in rows:
        n = row["n"]
        if _off(row["liouville_signal"], 1.0):
            errors.append(f"n={n}: liouville_signal {row['liouville_signal']!r} != 1")
        if _off(row["mean_abs_balanced_signal"], 0.0):
            errors.append(f"n={n}: mean_abs_balanced_signal {row['mean_abs_balanced_signal']!r} != 0")
        epsilon = thermal_epsilon(n + 1, SWEEP_THERMAL_P)
        if _off(row["pseudo_pure_signal"], epsilon):
            errors.append(f"n={n}: pseudo_pure_signal {row['pseudo_pure_signal']!r} != {epsilon!r}")
        if row["classical_worst_evaluations"] != 2 ** (n - 1) + 1:
            errors.append(
                f"n={n}: classical_worst_evaluations {row['classical_worst_evaluations']} "
                f"!= {2 ** (n - 1) + 1}"
            )
    return errors


def check(inv: Run | Sweep, exit_code, output: str) -> tuple[list[str], list[str]]:
    """Gate one invocation.

    Returns ``(errors, contradictions)``: errors are wrong numbers, counts,
    exit codes or malformed reports; contradictions are verdicts that
    disagree with the table's class. Either makes the invocation failed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], []
    try:
        report = json.loads(output)
        if isinstance(inv, Sweep):
            return _check_sweep(inv, report), []
        return _check_run(inv, report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"], []
