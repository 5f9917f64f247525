"""Benchmark of the spindj CLI: end-to-end metrics, or per-layer metrics.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a spindj checkout; spindj is imported from ``src/``.
Each run starts fresh interpreters (perfbench/worker.py): several that
only set up, to time set-up, and one that runs the workload. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment, sample counts and the gate's findings. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from tracing import COUNTERS, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
TIMEOUT_S = 170.0
SPANS_DIR = Path(".perfbench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


PER_LAYER_UNITS = {
    **{f"{name}.{suffix}": unit for name in SPAN_NAMES
       for suffix, unit in (("self_ms", "ms"), ("calls", "count"))},
    **COUNTERS,
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    """A worker process failed before it produced its result."""


def start_worker(extra: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds from spawn to ``ready``, rest of stdout)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *extra],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke tests")
    args = parser.parse_args()

    if not (Path("src") / "spindj" / "__init__.py").is_file():
        print("perfbench: no src/spindj here; run from the root of a spindj checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        run_args += ["--spans", str(spans)]

    try:
        setups = [] if args.trace else [
            start_worker([*common, "--seconds", "0", "--setup-only"], deadline)[0]
            for _ in range(SETUP_PROBES)
        ]
        setup_s, output = start_worker(run_args, deadline)
        report = json.loads(output.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    untraced = report["untraced"]
    runs = [untraced] + ([report["traced"]] if args.trace else [])
    attempted = sum(len(r["latencies_s"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    samples = {
        "invocations": len(untraced["latencies_s"]),
        "passes": len(untraced["pass_walls_s"]),
        "setups": len(setups),
    }
    if args.trace:
        traced = report["traced"]
        values, units = traced["layers"], PER_LAYER_UNITS
        calls = values["oracle.oracle_channel.calls"]
        protocol_calls = (values["protocol.run_liouville_dj.calls"]
                          + values["protocol.run_pseudo_pure_dj.calls"])
        runs_per_pass = traced["protocol_runs"] / len(traced["pass_walls_s"])
        if not calls == protocol_calls == runs_per_pass:
            errors.append(f"oracle_channel calls {calls} per pass, protocol runs "
                          f"{protocol_calls}, expected {runs_per_pass}")
        samples["traced_passes"] = len(traced["pass_walls_s"])
        samples["spans"] = str(spans)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced["pass_walls_s"]),
            "op_p50_ms": statistics.median(untraced["latencies_s"]) * 1e3,
            "peak_rss_mib": report["peak_rss_kib"] / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
    detail = {
        "workload": args.workload,
        "environment": report["environment"],
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "samples": samples,
        "errors": errors[:20],
        "contradictions": sorted({c for r in runs for c in r["contradictions"]})[:20],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_frac':40s} {failed / attempted:>16.6g} ratio  ({failed}/{attempted} failed)")
    print(json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
