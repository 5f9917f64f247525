"""Command-line front end: single runs, scaling sweeps, oracle inspection.

Exit codes: 0 success, 1 usage error, 2 file error, 3 malformed truth
table, 4 backend capacity exceeded. Reports are emitted as a single JSON
document (schema version "v1") or as CSV; wall-time fields are the only
non-deterministic content for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CapacityError, SpinSystem, ensure_capacity
from .oracle import (
    OracleClass,
    TruthTable,
    TruthTableError,
    classify,
    load_truth_table,
    random_balanced,
    random_table,
    reversible_oracle,
)
from .protocol import (
    DEFAULT_SIGNAL_TOL,
    Outcome,
    PseudoPureConfig,
    classical_dj,
    run_liouville_dj,
    run_pseudo_pure_dj,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FILE = 2
EXIT_TABLE = 3
EXIT_CAPACITY = 4

RUN_CSV_COLUMNS = ("n", "class", "signal", "verdict", "evaluations", "backend")
SWEEP_CSV_COLUMNS = (
    "n",
    "liouville_signal",
    "mean_abs_balanced_signal",
    "pseudo_pure_signal",
    "ratio",
    "classical_worst_evaluations",
)

_GENERATED_SOURCES = ("constant0", "constant1", "balanced-random", "random")
_DEFAULT_THERMAL_P = 1e-5


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class ExperimentConfig:
    command: str
    n: int | None = None
    n_max: int | None = None
    oracle_source: str | None = None
    seed: int | None = None
    backend: str = "diagonal"
    detection: str = "ancilla"
    epsilon: float | None = None
    thermal_p: float | None = None
    tolerance: float = DEFAULT_SIGNAL_TOL
    trials: int = 20
    fmt: str = "json"
    out: str | None = None
    max_spins: int | None = None

    def as_dict(self) -> dict:
        fields = {
            "n": self.n,
            "oracle": self.oracle_source,
            "seed": self.seed,
            "backend": self.backend,
            "detection": self.detection,
            "epsilon": self.epsilon,
            "thermal_p": self.thermal_p,
            "tolerance": self.tolerance,
            "max_spins": self.max_spins,
        }
        if self.command == "sweep":
            fields["n_max"] = self.n_max
            fields["trials"] = self.trials
        return fields


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, help="RNG seed (u64) for randomized oracles")
    sub.add_argument(
        "--detection",
        choices=("ancilla", "separate"),
        default="ancilla",
        help="read out on the ancilla itself or on a separate detection spin",
    )
    sub.add_argument("--epsilon", type=float, help="fixed pseudo-pure prefactor in (0,1]")
    sub.add_argument(
        "--thermal-p", type=float, help="per-spin polarization for epsilon(N)=N*p/2^N"
    )
    sub.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_SIGNAL_TOL,
        help="signal classification threshold",
    )
    sub.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument(
        "--max-spins",
        type=int,
        help="raise the backend capacity limit (may exhaust memory)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spindj", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("--n", type=int, help="number of input spins")
    run.add_argument(
        "--oracle",
        required=True,
        help="constant0 | constant1 | balanced-random | random | file:PATH | PATH",
    )
    run.add_argument(
        "--backend", choices=("dense", "diagonal", "both"), default="diagonal"
    )
    _add_common_flags(run)

    sweep = commands.add_parser("sweep", help="scaling table over a range of n")
    sweep.add_argument("--n", required=True, help="range of input counts, e.g. 1..8")
    sweep.add_argument("--backend", choices=("dense", "diagonal"), default="diagonal")
    sweep.add_argument(
        "--trials", type=int, default=20, help="random balanced tables per n"
    )
    _add_common_flags(sweep)

    oracle = commands.add_parser("oracle", help="inspect a truth table")
    oracle.add_argument("--oracle", required=True, help="table source as for run")
    oracle.add_argument("--n", type=int, help="arity for generated tables")
    oracle.add_argument("--seed", type=int, help="RNG seed for randomized oracles")

    return parser


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"cannot parse n range {text!r}; expected N or A..B")
    if lo < 1 or hi < lo:
        raise UsageError(f"invalid n range {text!r}")
    return lo, hi


def _resolve_table(
    source: str,
    n: int | None,
    seed: int | None,
    ensure_fits: Callable[[int], None],
) -> TruthTable:
    """Build or load the table; ``ensure_fits(arity)`` runs before a
    generated table is allocated and right after a file is loaded."""
    if n is not None and n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    if source in _GENERATED_SOURCES:
        if n is None:
            raise UsageError(f"--n is required with --oracle {source}")
        if seed is None and source not in ("constant0", "constant1"):
            raise UsageError(f"--seed is required with --oracle {source}")
        ensure_fits(n)
        if source == "constant0":
            return TruthTable.constant(n, 0)
        if source == "constant1":
            return TruthTable.constant(n, 1)
        if source == "balanced-random":
            return random_balanced(n, seed)
        return random_table(n, seed)
    path = source[5:] if source.startswith("file:") else source
    table = load_truth_table(path)
    if n is not None and table.n != n:
        raise UsageError(f"--n {n} does not match table arity {table.n} from {path}")
    ensure_fits(table.n)
    return table


def _ensure_fits(cfg: ExperimentConfig, n: int) -> None:
    """Raise :class:`CapacityError` if ``n`` inputs exceed a backend the command uses.

    The pseudo-pure baseline (every sweep, and a run given --epsilon or
    --thermal-p) always runs dense. The dense limit is the lower one, so
    it covers the diagonal backend too.
    """
    pseudo_pure = cfg.command == "sweep" or cfg.epsilon is not None or cfg.thermal_p is not None
    dense = pseudo_pure or cfg.backend in ("dense", "both")
    n_spins = n + 1 + int(cfg.detection == "separate")
    ensure_capacity(n_spins, "dense" if dense else "diagonal", cfg.max_spins)


def _pseudo_pure_config(cfg: ExperimentConfig) -> PseudoPureConfig | None:
    if cfg.epsilon is not None and cfg.thermal_p is not None:
        raise UsageError("--epsilon and --thermal-p are mutually exclusive")
    if cfg.epsilon is not None:
        return PseudoPureConfig(epsilon=cfg.epsilon)
    if cfg.thermal_p is not None:
        return PseudoPureConfig(thermal_p=cfg.thermal_p)
    return None


def _timed(fn, *args, **kwargs) -> tuple[Outcome, float]:
    start = time.perf_counter()
    outcome = fn(*args, **kwargs)
    return outcome, (time.perf_counter() - start) * 1e3


def _record(protocol: str, n: int, oracle_class: OracleClass, outcome: Outcome, wall_ms: float) -> dict:
    return {
        "protocol": protocol,
        "n": n,
        "class": oracle_class.value,
        "signal": outcome.signal,
        "verdict": outcome.verdict.value,
        "evaluations": outcome.evaluations,
        "backend": outcome.backend,
        "wall_ms": wall_ms,
    }


def cmd_run(cfg: ExperimentConfig) -> dict:
    table = _resolve_table(
        cfg.oracle_source, cfg.n, cfg.seed, lambda arity: _ensure_fits(cfg, arity)
    )
    system = SpinSystem(table.n, has_detection_spin=(cfg.detection == "separate"))
    oracle_class = classify(table)
    pp_config = _pseudo_pure_config(cfg)

    backends = ("dense", "diagonal") if cfg.backend == "both" else (cfg.backend,)
    records = []
    for backend in backends:
        outcome, wall = _timed(
            run_liouville_dj,
            system,
            table,
            backend,
            tolerance=cfg.tolerance,
            max_spins=cfg.max_spins,
        )
        records.append(_record("liouville", table.n, oracle_class, outcome, wall))
    if pp_config is not None:
        outcome, wall = _timed(
            run_pseudo_pure_dj,
            system,
            table,
            pp_config,
            tolerance=cfg.tolerance,
            max_spins=cfg.max_spins,
        )
        records.append(_record("pseudo_pure", table.n, oracle_class, outcome, wall))

    report = {
        "version": "v1",
        "command": "run",
        "config": cfg.as_dict(),
        "records": records,
    }
    if cfg.backend == "both":
        report["cross_check"] = abs(records[0]["signal"] - records[1]["signal"])
    if oracle_class is OracleClass.NEITHER:
        report["warnings"] = [
            "truth table is neither constant nor balanced; the promise is violated"
        ]
    return report


def cmd_sweep(cfg: ExperimentConfig) -> dict:
    if cfg.seed is None:
        raise UsageError("--seed is required for sweep (balanced tables are random)")
    _ensure_fits(cfg, cfg.n_max)
    pp_config = _pseudo_pure_config(cfg) or PseudoPureConfig(thermal_p=_DEFAULT_THERMAL_P)
    rng = np.random.default_rng(cfg.seed)

    aggregates = []
    for n in range(cfg.n, cfg.n_max + 1):
        start = time.perf_counter()
        system = SpinSystem(n, has_detection_spin=(cfg.detection == "separate"))
        constant = TruthTable.constant(n, 0)
        liouville = run_liouville_dj(
            system, constant, cfg.backend, tolerance=cfg.tolerance, max_spins=cfg.max_spins
        )
        balanced_signals = []
        for _ in range(cfg.trials):
            table = random_balanced(n, int(rng.integers(0, 2**63)))
            outcome = run_liouville_dj(
                system, table, cfg.backend, tolerance=cfg.tolerance, max_spins=cfg.max_spins
            )
            balanced_signals.append(abs(outcome.signal))
        pseudo = run_pseudo_pure_dj(
            system, constant, pp_config, tolerance=cfg.tolerance, max_spins=cfg.max_spins
        )
        worst_case = classical_dj(constant).evaluations
        wall = (time.perf_counter() - start) * 1e3
        aggregates.append(
            {
                "n": n,
                "liouville_signal": liouville.signal,
                "mean_abs_balanced_signal": float(np.mean(balanced_signals))
                if balanced_signals
                else 0.0,
                "pseudo_pure_signal": pseudo.signal,
                "ratio": liouville.signal / pseudo.signal,
                "classical_worst_evaluations": worst_case,
                "wall_ms": wall,
            }
        )

    return {
        "version": "v1",
        "command": "sweep",
        "config": cfg.as_dict(),
        "aggregates": aggregates,
    }


def cmd_oracle(source: str, n: int | None, seed: int | None) -> str:
    # The listed oracle acts on the inputs and the ancilla.
    table = _resolve_table(
        source, n, seed, lambda arity: ensure_capacity(arity + 1, "diagonal")
    )
    oracle_class = classify(table)
    lines = [f"n={table.n}, {oracle_class.value}, ones={table.ones}"]
    if oracle_class is OracleClass.NEITHER:
        lines.append(
            "warning: table is neither constant nor balanced; the promise is violated"
        )
    system = SpinSystem(table.n)
    if table.n <= 4:
        permutation = reversible_oracle(system, table)
        lines.append(f"reversible oracle on {system.dim} basis states (I0 first):")
        for index in range(system.dim):
            lines.append(
                f"  |{system.basis_label(index)}> -> "
                f"|{system.basis_label(permutation(index))}>"
            )
    else:
        lines.append("(permutation listing skipped for n > 4)")
    return "\n".join(lines) + "\n"


def _to_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if report["command"] == "run":
        writer.writerow(RUN_CSV_COLUMNS)
        for record in report["records"]:
            writer.writerow([record[c] for c in RUN_CSV_COLUMNS])
    else:
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in report["aggregates"]:
            writer.writerow([row[c] for c in SWEEP_CSV_COLUMNS])
    return buffer.getvalue()


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n" if fmt == "json" else _to_csv(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _check_seed(seed: int | None) -> None:
    if seed is not None and not 0 <= seed < 2**64:
        raise UsageError(f"--seed must be an unsigned 64-bit integer, got {seed}")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(
        command=args.command,
        # Only run has --oracle and only sweep has --trials.
        oracle_source=getattr(args, "oracle", None),
        seed=args.seed,
        backend=args.backend,
        detection=args.detection,
        epsilon=args.epsilon,
        thermal_p=args.thermal_p,
        tolerance=args.tolerance,
        trials=getattr(args, "trials", 20),
        fmt=args.fmt,
        out=args.out,
        max_spins=args.max_spins,
    )
    _check_seed(cfg.seed)
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise UsageError(f"--tolerance must be a positive finite number, got {cfg.tolerance!r}")
    for flag, value in (("--epsilon", cfg.epsilon), ("--thermal-p", cfg.thermal_p)):
        if value is not None and not 0.0 < value <= 1.0:
            raise UsageError(f"{flag} must lie in (0, 1], got {value!r}")
    if cfg.trials < 0:
        raise UsageError(f"--trials must be non-negative, got {cfg.trials}")
    if cfg.max_spins is not None:
        print(
            f"warning: capacity limit raised to {cfg.max_spins} spins; "
            "may exhaust memory",
            file=sys.stderr,
        )
    if args.command == "sweep":
        cfg.n, cfg.n_max = _parse_n_range(args.n)
    else:
        cfg.n = args.n
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "oracle":
            _check_seed(args.seed)
            sys.stdout.write(cmd_oracle(args.oracle, args.n, args.seed))
            return EXIT_OK
        cfg = _config_from_args(args)
        report = cmd_run(cfg) if args.command == "run" else cmd_sweep(cfg)
        _emit(report, cfg.fmt, cfg.out)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruthTableError as exc:
        print(f"truth table error: {exc}", file=sys.stderr)
        return EXIT_TABLE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
