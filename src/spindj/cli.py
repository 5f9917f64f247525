"""Command-line front end: single runs, scaling sweeps, oracle inspection.

Exit codes: 0 success, 1 usage error, 2 file error, 3 malformed truth
table, 4 backend capacity exceeded or memory exhausted. Reports are emitted as a single JSON
document (schema version "v1") or as CSV; wall-time fields are the only
non-deterministic content for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from typing import Callable

import numpy as np

from .core import SPIN_LIMITS, CapacityError, SpinSystem, ensure_capacity
from .oracle import (
    OracleClass,
    TruthTable,
    TruthTableError,
    classify,
    random_balanced,
    random_table,
    read_data_line,
    reversible_oracle,
    table_arity,
)
from .protocol import (
    DEFAULT_SIGNAL_TOL,
    Outcome,
    classical_dj,
    run_liouville_dj,
    run_pseudo_pure_dj,
    thermal_epsilon,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FILE = 2
EXIT_TABLE = 3
EXIT_CAPACITY = 4

# A row draws its trials' seeds in one array, 8 MB at this bound.
MAX_TRIALS = 10**6
_GENERATED_SOURCES = ("constant0", "constant1", "balanced-random", "random")
_DEFAULT_THERMAL_P = 1e-5
# The report's config block, in order; a sweep's adds its range end and trial count.
_REPORT_FIELDS = (
    "n", "oracle", "seed", "backend", "detection", "epsilon", "thermal_p", "tolerance", "max_spins"
)


def _config_block(args: argparse.Namespace) -> dict:
    keys = _REPORT_FIELDS + (("n_max", "trials") if args.command == "sweep" else ())
    return {key: getattr(args, key) for key in keys}


def _system(args: argparse.Namespace, n: int) -> SpinSystem:
    """The register a run on ``n`` inputs builds under these flags."""
    return SpinSystem(n, has_detection_spin=(args.detection == "separate"))


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1e-6" and "-.5" as values, not flags (older argparse admits
        # only "-1" and "-1.5"), so a flag's rule reports them.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _checked(convert: Callable, ok: Callable, rule: str) -> Callable:
    """An argparse ``type=`` that converts the text and accepts what ``ok`` admits."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


def _n_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    return int(lo), int(hi if dots else lo)


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: 0 <= v < 2**64, "an unsigned 64-bit integer")
_UNIT = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--detection",
        choices=("ancilla", "separate"),
        help="read out on the ancilla itself or on a separate detection spin",
    )
    pseudo_pure = sub.add_mutually_exclusive_group()
    pseudo_pure.add_argument("--epsilon", type=_UNIT, help="fixed pseudo-pure prefactor in (0,1]")
    pseudo_pure.add_argument(
        "--thermal-p", type=_UNIT, help="per-spin polarization for epsilon(N)=N*p/2^N"
    )
    sub.add_argument("--format", choices=("json", "csv"), dest="fmt")
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument(
        "--max-spins",
        type=_AT_LEAST_1,
        help="lower the capacity limit of the backend the command counts against",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spindj", description=__doc__)
    # Every command reads every field. The subparsers suppress their own
    # defaults (they do not inherit argument_default), so a flag that is
    # left out, or that a command does not have, keeps the value set here.
    parser.set_defaults(
        n=None, oracle=None, seed=None, backend="diagonal", detection="ancilla",
        epsilon=None, thermal_p=None, tolerance=DEFAULT_SIGNAL_TOL, trials=20,
        fmt="json", out=None, max_spins=None,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    suppress = argparse.SUPPRESS

    run = commands.add_parser("run", help="run one experiment", argument_default=suppress)
    run.add_argument("--n", type=_AT_LEAST_1, help="number of input spins")
    run.add_argument(
        "--oracle",
        required=True,
        help="constant0 | constant1 | balanced-random | random | file:PATH | PATH",
    )
    run.add_argument("--seed", type=_SEED, help="RNG seed (u64) for randomized oracles")
    run.add_argument("--backend", choices=("dense", "diagonal", "both"))
    run.add_argument(
        "--tolerance",
        type=_checked(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number"),
        help="detection-noise floor sigma: a verdict is undecided when its full-scale "
        "signal (Liouville 1, pseudo-pure eps) is <= 2*sigma; else a Liouville signal "
        "within +-sigma reads balanced",
    )
    _add_common_flags(run)

    sweep = commands.add_parser(
        "sweep", help="scaling table over a range of n", argument_default=suppress
    )
    sweep.add_argument(
        "--n",
        required=True,
        type=_checked(_n_range, lambda r: 1 <= r[0] <= r[1], "N or A..B with 1 <= A <= B"),
        help="range of input counts, e.g. 1..8",
    )
    sweep.add_argument("--seed", required=True, type=_SEED, help="RNG seed (u64)")
    sweep.add_argument(
        "--trials",
        type=_checked(int, lambda v: 0 <= v <= MAX_TRIALS, f"an integer in 0..{MAX_TRIALS}"),
        help="random balanced tables per n",
    )
    _add_common_flags(sweep)

    oracle = commands.add_parser("oracle", help="inspect a truth table", argument_default=suppress)
    oracle.add_argument("--oracle", required=True, help="table source as for run")
    oracle.add_argument("--n", type=_AT_LEAST_1, help="arity for generated tables")
    oracle.add_argument("--seed", type=_SEED, help="RNG seed for randomized oracles")

    return parser


_PARSER = build_parser()  # one per process: each parse starts from a new Namespace


def _resolve_table(args: argparse.Namespace) -> TruthTable:
    """Build or load the table; :func:`_ensure_fits` runs before a
    generated table is allocated, and a file's --n and capacity are
    checked from its data line's length before the line is parsed."""
    source, n, seed = args.oracle, args.n, args.seed
    if source in _GENERATED_SOURCES:
        if n is None:
            raise UsageError(f"--n is required with --oracle {source}")
        if seed is None and source not in ("constant0", "constant1"):
            raise UsageError(f"--seed is required with --oracle {source}")
        _ensure_fits(args, n)
        if source == "constant0":
            return TruthTable.constant(n, 0)
        if source == "constant1":
            return TruthTable.constant(n, 1)
        if source == "balanced-random":
            return random_balanced(n, seed)
        return random_table(n, seed)
    path = source[5:] if source.startswith("file:") else source
    if not path:  # open() would read it as the current directory
        raise UsageError(f"argument --oracle: {source!r} names no table file")
    line = read_data_line(path)
    arity = table_arity(len(line))
    if n is not None and arity != n:
        raise UsageError(f"--n {n} does not match table arity {arity} from {path}")
    _ensure_fits(args, arity)
    return TruthTable.from_string(line)


def _ensure_fits(args: argparse.Namespace, n: int) -> None:
    """Raise :class:`CapacityError` if ``n`` inputs exceed a backend the command uses.

    The pseudo-pure baseline runs dense, and the dense limit is the lower
    one; the error names what asked for it. With the defaults, as for
    ``spindj oracle``, the inputs and the ancilla meet the diagonal limit.
    A --max-spins can only lower that backend's limit; a higher one is a usage error.
    """
    n_spins = _system(args, n).n_spins
    causes = [f"--backend {args.backend}"] if args.backend in ("dense", "both") else []
    if _epsilon(args, n_spins) is not None:
        flag = "--epsilon" if args.epsilon is not None else "--thermal-p"
        causes.append("the sweep's pseudo-pure baseline" if args.command == "sweep"
                      else f"the pseudo-pure baseline that {flag} asks for")
    backend = "dense" if causes else "diagonal"
    if args.max_spins is not None and args.max_spins > SPIN_LIMITS[backend]:
        raise UsageError(
            f"argument --max-spins: must be at most the {backend} backend's limit of "
            f"{SPIN_LIMITS[backend]}, got '{args.max_spins}'"
        )
    try:
        ensure_capacity(n_spins, backend, args.max_spins)
    except CapacityError as exc:
        if causes:
            raise CapacityError(f"{exc} (used by {' and '.join(causes)})") from None
        raise


def _epsilon(args: argparse.Namespace, n_spins: int) -> float | None:
    """The baseline's prefactor on ``n_spins``: --epsilon, or epsilon(N)
    from --thermal-p (the default p for a sweep); ``None`` where the
    command runs no baseline. Below the smallest normal float it is a
    usage error, so the ratio 1/eps stays finite."""
    if args.epsilon is not None:
        flag, epsilon = "--epsilon", args.epsilon
    elif args.thermal_p is not None or args.command == "sweep":
        p = _DEFAULT_THERMAL_P if args.thermal_p is None else args.thermal_p
        flag, epsilon = "--thermal-p", thermal_epsilon(n_spins, p)
    else:
        return None
    if epsilon < sys.float_info.min:
        raise UsageError(
            f"argument {flag}: epsilon = {epsilon!r} on {n_spins} spins is below "
            f"the smallest normal float {sys.float_info.min!r}"
        )
    return epsilon


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


def cmd_run(args: argparse.Namespace) -> dict:
    table = _resolve_table(args)
    system = _system(args, table.n)
    oracle_class = classify(table)
    epsilon = _epsilon(args, system.n_spins)

    backends = ("dense", "diagonal") if args.backend == "both" else (args.backend,)
    records = []
    for backend in backends:
        outcome, wall = _timed(run_liouville_dj, system, table, backend, tolerance=args.tolerance)
        records.append(_record("liouville", table.n, oracle_class, outcome, wall))
    if epsilon is not None:
        outcome, wall = _timed(run_pseudo_pure_dj, system, table, epsilon, tolerance=args.tolerance)
        records.append(_record("pseudo_pure", table.n, oracle_class, outcome, wall))

    report = {
        "version": "v1",
        "command": "run",
        "config": _config_block(args),
        "records": records,
    }
    if args.backend == "both":
        report["cross_check"] = abs(records[0]["signal"] - records[1]["signal"])
    if oracle_class is OracleClass.NEITHER:
        report["warnings"] = [
            "truth table is neither constant nor balanced; the promise is violated"
        ]
    return report


def cmd_sweep(args: argparse.Namespace) -> dict:
    _ensure_fits(args, args.n_max)
    rng = np.random.default_rng(args.seed)

    aggregates = []
    for n in range(args.n, args.n_max + 1):
        start = time.perf_counter()
        system = _system(args, n)
        constant = TruthTable.constant(n, 0)
        liouville = run_liouville_dj(system, constant)
        balanced_signals = []
        # One draw per row gives the same seeds, in order, as one draw per trial.
        for seed in rng.integers(0, 2**63, size=args.trials):
            table = random_balanced(n, int(seed))
            outcome = run_liouville_dj(system, table)
            balanced_signals.append(abs(outcome.signal))
        epsilon = _epsilon(args, system.n_spins)
        pseudo = run_pseudo_pure_dj(system, constant, epsilon)
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
        "config": _config_block(args),
        "aggregates": aggregates,
    }


def cmd_oracle(args: argparse.Namespace) -> str:
    table = _resolve_table(args)
    oracle_class = classify(table)
    lines = [f"n={table.n}, {oracle_class.value}, ones={table.ones}"]
    if oracle_class is OracleClass.NEITHER:
        lines.append(
            "warning: table is neither constant nor balanced; the promise is violated"
        )
    system = _system(args, table.n)
    if table.n <= 4:
        lines.append(f"reversible oracle on {system.dim} basis states (I0 first):")
        for index, image in enumerate(reversible_oracle(system, table).mapping):
            lines.append(f"  |{system.basis_label(index)}> -> |{system.basis_label(image)}>")
    else:
        lines.append("(permutation listing skipped for n > 4)")
    return "\n".join(lines) + "\n"


def _to_csv(report: dict) -> str:
    """The report's rows with their JSON keys as columns, less ``wall_ms``."""
    rows = report["records"] if report["command"] == "run" else report["aggregates"]
    buffer = io.StringIO()
    columns = [key for key in rows[0] if key != "wall_ms"]
    writer = csv.DictWriter(buffer, columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n" if fmt == "json" else _to_csv(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The flags every command reads; a sweep's ``A..B`` becomes ``n`` and ``n_max``."""
    args = _PARSER.parse_args(argv)
    if args.command == "sweep":
        args.n, args.n_max = args.n
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        if args.command == "oracle":
            sys.stdout.write(cmd_oracle(args))
        else:
            _emit(cmd_run(args) if args.command == "run" else cmd_sweep(args), args.fmt, args.out)
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
    except MemoryError as exc:
        print(f"capacity error: memory ran out ({exc or 'no detail'})", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
